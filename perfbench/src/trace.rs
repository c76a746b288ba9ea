//! Benchmark-side tracing: span totals recorded around calls into each
//! layer's public functions, a counting wrapper for the telemetry sink,
//! and the fixed metric lists every workload reports.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use precision_beekeeping::telemetry::{Event, EventSink, FlightRecorderSink};

use crate::stats::time_per_call;
use crate::Metric;

/// End-to-end metrics (`--trace 0`), in print order. Every workload
/// reports every one; see `CONTRACT.md` for what each means per workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("work_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p95", "ms")];

/// Per-layer metrics (`--trace 1`), in print order. A layer that does no
/// work on a workload reads 0 there. `*.share` metrics are a step's self
/// time as a fraction of the traced wall time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("process.peak_rss_mb", "MB"),
    ("engine.loss_draw.share", "ratio"),
    ("engine.allocate.share", "ratio"),
    ("engine.energy_fold.share", "ratio"),
    ("engine.edge_side.share", "ratio"),
    ("engine.closed_form.share", "ratio"),
    ("engine.timeline.share", "ratio"),
    ("engine.closed_form.ns_per_point", "ns"),
    ("engine.timeline.ns_per_point", "ns"),
    ("engine.alloc_cache.hit_ratio", "ratio"),
    ("faults.prepass.share", "ratio"),
    ("des.arrivals.share", "ratio"),
    ("des.replay.share", "ratio"),
    ("des.exact_loop.share", "ratio"),
    ("des.fastpath.replay_ratio", "ratio"),
    ("des.events", "count"),
    ("telemetry.sink.share", "ratio"),
    ("telemetry.sink.events", "count"),
    ("telemetry.sink.kept_ratio", "ratio"),
    ("pool.speedup", "ratio"),
    ("pool.jobs", "count"),
    ("pool.steals", "count"),
    ("serve.frame.us", "us/call"),
    ("serve.parse.us", "us/call"),
    ("serve.render.us", "us/call"),
    ("serve.server.ms_p50", "ms/req"),
    ("serve.server.ms_p95", "ms/req"),
    ("serve.execute.recommend.ms_p50", "ms/req"),
    ("serve.execute.montecarlo.ms_p50", "ms/req"),
    ("serve.execute.features.ms_p50", "ms/req"),
    ("serve.execute.sweep.ms_p50", "ms/req"),
    ("serve.transport.recommend.ms_p50", "ms/req"),
    ("serve.transport.montecarlo.ms_p50", "ms/req"),
    ("serve.transport.features.ms_p50", "ms/req"),
    ("serve.transport.sweep.ms_p50", "ms/req"),
    ("serve.coalesce.hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.queue.depth_max", "count"),
    ("serve.light.ms_p50", "ms/req"),
    ("serve.light.ms_p99", "ms/req"),
    ("serve.heavy.ms_p50", "ms/req"),
    ("serve.heavy.ms_p99", "ms/req"),
    ("loadgen.lag_ms_p99", "ms/req"),
    ("signal.stft.ms_per_clip", "ms/clip"),
    ("signal.mel.ms_per_clip", "ms/clip"),
    ("signal.image.ms_per_clip", "ms/clip"),
    ("ml.quant.ms_per_clip", "ms/clip"),
    ("ml.cnn.macs_per_clip", "count"),
    ("ml.cnn.gmac_per_s", "GMAC/s"),
];

/// Orders `values` by `list`, filling layers without work with 0.
pub fn metrics(list: &[(&str, &'static str)], mut values: HashMap<&str, f64>) -> Vec<Metric> {
    let out = list
        .iter()
        .map(|&(name, unit)| (name.to_string(), values.remove(name).unwrap_or(0.0), unit));
    let out: Vec<Metric> = out.collect();
    assert!(values.is_empty(), "metrics outside the declared list: {:?}", values.keys());
    out
}

/// Accumulated span time per name, in seconds.
pub struct Spans {
    totals: HashMap<&'static str, f64>,
    resolution: f64,
    /// Time spent re-timing sub-resolution spans; not part of any layer.
    pub overhead: f64,
}

impl Spans {
    pub fn new(resolution: f64) -> Self {
        Spans { totals: HashMap::new(), resolution, overhead: 0.0 }
    }

    /// Runs `f` inside a span named `name`. A call shorter than 100× the
    /// timer resolution is timed again in batches (its warm cost), and the
    /// batch time is booked as `overhead`.
    pub fn time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let mut secs = t.elapsed().as_secs_f64();
        if secs < 100.0 * self.resolution {
            let t = Instant::now();
            secs = time_per_call(self.resolution, 3, &mut f);
            self.overhead += t.elapsed().as_secs_f64();
        }
        self.add(name, secs);
        r
    }

    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.totals.entry(name).or_insert(0.0) += secs;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Prints the per-layer table (self time and share of `wall`) to stderr.
    pub fn print_table(&self, workload: &str, wall: f64) {
        let mut rows: Vec<(&&str, &f64)> = self.totals.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        eprintln!("perfbench: per-layer self time, {workload}, traced wall {:.1} ms", wall * 1e3);
        for (name, secs) in rows {
            eprintln!("  {name:<28} {:>10.2} ms  {:>6.1} %", secs * 1e3, 100.0 * secs / wall);
        }
    }
}

/// A flight recorder behind a counting, timing wrapper. It keeps
/// `is_recording() == true`, so the DES takes exactly the path the
/// bare recorder forces. Every event is counted; every
/// `SINK_SAMPLE`-th `record` call is timed and stands for the calls
/// around it, which keeps the clock reads off most events.
#[derive(Debug, Clone)]
pub struct CountingSink {
    pub inner: Arc<FlightRecorderSink>,
    pub events: Arc<AtomicU64>,
    sampled_nanos: Arc<AtomicU64>,
}

const SINK_SAMPLE: u64 = 16;

impl CountingSink {
    pub fn new(inner: Arc<FlightRecorderSink>) -> Self {
        CountingSink { inner, events: Arc::default(), sampled_nanos: Arc::default() }
    }

    /// Estimated seconds spent inside `record` so far.
    pub fn seconds(&self) -> f64 {
        (self.sampled_nanos.load(Ordering::Relaxed) * SINK_SAMPLE) as f64 * 1e-9
    }
}

impl EventSink for CountingSink {
    fn record(&self, event: Event) {
        if self.events.fetch_add(1, Ordering::Relaxed).is_multiple_of(SINK_SAMPLE) {
            let t = Instant::now();
            self.inner.record(event);
            self.sampled_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            self.inner.record(event);
        }
    }

    fn events(&self) -> Vec<Event> {
        self.inner.events()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_recording(&self) -> bool {
        true
    }
}
