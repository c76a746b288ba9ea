//! The two Fig. 7 scaling workloads.
//!
//! * `des_faulted_default` — the paper's spec (CNN, cap 35, PackSlots)
//!   on the DES backend under the mid fault plan at 10⁵ clients per
//!   point, with the telemetry `pb sweep --faults mid` installs by
//!   default: a 4096-per-severity flight recorder with one auto-dump.
//! * `des_scale` — the same spec with Loss A/B/C at 10⁶ clients per
//!   point: `compare` on all three backends fault-free, then DES under
//!   the mid plan with telemetry disabled (the `--no-flight` path).
//!
//! Every point draws a fresh seed from the workload seed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use precision_beekeeping::orchestra::des::{
    simulate_async_cycle_faulted, simulate_async_cycle_memoized, ShapeMemo,
};
use precision_beekeeping::orchestra::engine::GOLDEN_GAMMA;
use precision_beekeeping::orchestra::sweep::ComparisonPoint;
use precision_beekeeping::orchestra::{
    Backend, ClientModel, CycleEngine, FaultPlan, FaultStats, FleetColumns, LossModel,
    ScenarioSpec, ServerModel, ServiceKind, SimContext,
};
use precision_beekeeping::telemetry::{EventSink, FlightRecorderSink, Telemetry};
use precision_beekeeping::units::Joules;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, mix, percentile, time_per_call};
use crate::trace::{metrics, CountingSink, Spans, END_TO_END, PER_LAYER};
use crate::{peak_rss_mb, scratch_dir, Args, Outcome, SETUPS};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FaultedDefault,
    Scale,
}

impl Kind {
    fn clients(self) -> usize {
        match self {
            Kind::FaultedDefault => 100_000,
            Kind::Scale => 1_000_000,
        }
    }

    fn spec(self) -> ScenarioSpec {
        let loss = match self {
            Kind::FaultedDefault => LossModel::NONE,
            Kind::Scale => LossModel::all(),
        };
        ScenarioSpec::paper(ServiceKind::Cnn, 35, loss)
    }
}

/// The default faulted-sweep telemetry of `pb sweep --faults mid`, with
/// the post-mortem redirected to the benchmark's scratch directory.
fn flight_recorder() -> Arc<FlightRecorderSink> {
    let path = scratch_dir().join("pb-flight.jsonl");
    Arc::new(FlightRecorderSink::new(4096).with_auto_dump(path.to_string_lossy().into_owned(), 1))
}

/// What one point's untraced operation produced, kept for the checks.
struct PointResult {
    seed: u64,
    /// Fault-free `compare` per backend (`des_scale` only).
    fault_free: Vec<ComparisonPoint>,
    /// The faulted DES `compare`.
    faulted: ComparisonPoint,
}

/// The untraced operation on one point.
fn point(kind: Kind, spec: &ScenarioSpec, seed: u64, telemetry: &Telemetry) -> PointResult {
    let n = kind.clients();
    let plan = FaultPlan::mid_severity();
    match kind {
        Kind::FaultedDefault => {
            let ctx = SimContext::with_telemetry(seed, telemetry.clone()).with_fault_plan(plan);
            PointResult { seed, fault_free: vec![], faulted: Backend::Des.compare(spec, n, &ctx) }
        }
        Kind::Scale => {
            let ctx = SimContext::new(seed);
            let fault_free = Backend::ALL.iter().map(|b| b.compare(spec, n, &ctx)).collect();
            let faulted = Backend::Des.compare(spec, n, &ctx.clone().with_fault_plan(plan));
            PointResult { seed, fault_free, faulted }
        }
    }
}

fn telemetry_for(kind: Kind) -> Telemetry {
    match kind {
        Kind::FaultedDefault => Telemetry::with_sink(Box::new(flight_recorder())),
        Kind::Scale => Telemetry::disabled(),
    }
}

fn conserved(p: &ComparisonPoint) -> bool {
    let f = &p.cloud.faults;
    f.delivered + f.fallbacks + f.sensor_dropouts == p.cloud.n_active as u64
}

fn rel_close(a: Joules, b: Joules) -> bool {
    let (a, b) = (a.value(), b.value());
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// The output checks of one point, outside the timed window.
fn check(kind: Kind, spec: &ScenarioSpec, r: &PointResult) -> bool {
    let n = kind.clients();
    let mut ok = conserved(&r.faulted) && r.faulted.cloud.n_requested == n;
    match kind {
        Kind::FaultedDefault => {
            // Replay == loop: the same point with telemetry disabled
            // takes the fast path and must agree bit for bit.
            let ctx = SimContext::new(r.seed).with_fault_plan(FaultPlan::mid_severity());
            let replayed = Backend::Des.compare(spec, n, &ctx);
            ok &= replayed.cloud == r.faulted.cloud && replayed.edge == r.faulted.edge;
        }
        Kind::Scale => {
            let (cf, tl) = (&r.fault_free[0].cloud, &r.fault_free[1].cloud);
            ok &= rel_close(cf.edge_energy_total, tl.edge_energy_total)
                && rel_close(cf.server_energy_total, tl.server_energy_total)
                && cf.n_servers == tl.n_servers;
        }
    }
    ok
}

pub fn run(args: &Args, kind: Kind, resolution: f64) -> Outcome {
    let spec = kind.spec();
    // Set-up: the spec, the default telemetry and one warm-up point (pool
    // threads, lazy plans); repeated, and reported as the median.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut telemetry = Telemetry::disabled();
    for s in 0..SETUPS {
        let t = Instant::now();
        let spec = kind.spec();
        telemetry = telemetry_for(kind);
        let warm = point(kind, &spec, mix(args.seed, u64::MAX - s as u64), &telemetry);
        std::hint::black_box(warm);
        setups.push(t.elapsed().as_secs_f64());
    }
    if args.trace {
        return run_traced(args, kind, &spec, resolution);
    }

    let window = args.window();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut results = Vec::new();
    while start.elapsed() < window {
        let seed = mix(args.seed, results.len() as u64);
        let t = Instant::now();
        let r = point(kind, &spec, seed, &telemetry);
        walls.push(t.elapsed().as_secs_f64());
        results.push(r);
    }
    let failed = results.iter().filter(|r| !check(kind, &spec, r)).count() as u64;
    let clients = (kind.clients() * walls.len()) as f64;
    let values = HashMap::from([
        ("setup_s", median(&setups)),
        ("work_per_s", clients / walls.iter().sum::<f64>()),
        ("op_ms_p50", 1e3 * median(&walls)),
        ("op_ms_p95", 1e3 * percentile(&walls, 0.95)),
    ]);
    eprintln!("perfbench: {} points", walls.len());
    Outcome {
        attempted: walls.len() as u64,
        failed,
        checks_ok: true,
        metrics: metrics(END_TO_END, values),
    }
}

/// The cloud side of one DES evaluation, as the composed steps see it.
struct Composed {
    active: usize,
    n_servers: usize,
    edge_total: Joules,
    server_total: Joules,
    faults: FaultStats,
    /// The (possibly degraded) server model the cycles ran on, and each
    /// server's client count and arrival-stream seed, for the arrivals
    /// probe.
    server: ServerModel,
    arrivals: Vec<(usize, u64)>,
}

/// Energy of one extra transfer attempt (the engine's retry pricing):
/// the transmit action re-runs in place of sleep.
fn retry_cost(client: &ClientModel) -> Joules {
    client.transfer_action.map_or(Joules::ZERO, |i| {
        let tx = &client.actions[i];
        (tx.power - client.sleep_power) * tx.duration
    })
}

/// `CycleEngine::evaluate` for the DES backend, composed from the
/// engine's public steps in engine order, with a span around each:
/// loss draw, fault-class pre-pass, allocation and shape memo, the
/// per-server cycles, and the energy fold.
fn compose_des(
    spec: &ScenarioSpec,
    n: usize,
    ctx: &SimContext,
    spans: &mut Spans,
    sink: Option<&CountingSink>,
) -> Composed {
    let plan = *ctx.fault_plan();
    let faulted = !plan.is_none();
    let active = spans.time("engine.loss_draw", || {
        let mut rng = ctx.point_rng(n as u64);
        n - spec.loss.client_loss.map_or(0, |l| l.draw(n, &mut rng))
    });
    let columns = faulted.then(|| {
        spans.time("faults.prepass", || {
            FleetColumns::draw(&plan, active, &mut ctx.fault_rng(n as u64))
        })
    });
    let server = if faulted { plan.effective_server(&spec.server) } else { spec.server.clone() };
    let (allocation, memo, jobs) = spans.time("engine.allocate", || {
        let allocation = ctx.cache().get_or_allocate_for(
            active,
            &server,
            spec.policy,
            spec.loss.transfer.as_ref(),
            plan.fingerprint(),
        );
        let mut jobs = Vec::with_capacity(allocation.n_servers());
        let mut offset = 0usize;
        for (s, sa) in allocation.servers().enumerate() {
            jobs.push((s, offset, sa.n_clients()));
            offset += sa.n_clients();
        }
        let memo = ShapeMemo::for_server(&server, jobs.iter().map(|&(_, _, k)| k));
        (allocation, memo, jobs)
    });

    let telemetry = ctx.telemetry();
    let step = if telemetry.events_recording() { "des.exact_loop" } else { "des.replay" };
    let point_seed = ctx.point_seed(n as u64);
    let fault_seed = ctx.fault_seed(n as u64);
    let mut energies = Vec::with_capacity(jobs.len());
    let mut arrivals = Vec::with_capacity(jobs.len());
    let mut faults = FaultStats::default();
    if let Some(c) = &columns {
        let (b, d) = c.class_counts();
        faults.brownouts = b as u64;
        faults.sensor_dropouts = d as u64;
    }
    for &(s, offset, k) in &jobs {
        let salt = (s as u64 + 1).wrapping_mul(GOLDEN_GAMMA);
        let mut rng = StdRng::seed_from_u64(point_seed ^ salt);
        arrivals.push((k, point_seed ^ salt));
        let sink_before = sink.map_or(0.0, CountingSink::seconds);
        let t = Instant::now();
        let energy = match &columns {
            None => {
                simulate_async_cycle_memoized(k, &server, &mut rng, telemetry, None, Some(&memo))
                    .server_energy
            }
            Some(c) => {
                let mut frng = StdRng::seed_from_u64(fault_seed ^ salt);
                let out = simulate_async_cycle_faulted(
                    k,
                    &server,
                    &mut rng,
                    &mut frng,
                    &plan,
                    c.classes().slice(offset..offset + k),
                    telemetry,
                    None,
                    Some(&memo),
                );
                faults.attempts += out.attempts;
                faults.retries += out.retries;
                faults.delivered += out.delivered;
                faults.fallbacks += out.fallbacks;
                out.report.server_energy
            }
        };
        let secs = t.elapsed().as_secs_f64();
        let sink_secs = sink.map_or(0.0, CountingSink::seconds) - sink_before;
        spans.add(step, secs - sink_secs);
        spans.add("telemetry.sink", sink_secs);
        energies.push(energy);
    }
    let (edge_total, server_total) = spans.time("engine.energy_fold", || {
        let mut server_total = Joules::ZERO;
        for e in &energies {
            server_total += *e;
        }
        let deliver = spec.cloud_client.cycle_energy();
        let edge_total = if faulted {
            deliver * (faults.delivered + faults.sensor_dropouts) as f64
                + spec.edge_client.cycle_energy() * faults.fallbacks as f64
                + retry_cost(&spec.cloud_client) * faults.retries as f64
        } else {
            deliver * active as f64
        };
        (edge_total, server_total)
    });
    if !faulted {
        faults.delivered = active as u64;
    }
    Composed {
        active,
        n_servers: allocation.n_servers(),
        edge_total,
        server_total,
        faults,
        server,
        arrivals,
    }
}

/// Bit-for-bit agreement of a composed evaluation with the engine's.
fn composed_matches(
    c: &Composed,
    spec: &ScenarioSpec,
    n: usize,
    seed: u64,
    plan: FaultPlan,
) -> bool {
    let reference = Backend::Des.evaluate(spec, n, &SimContext::new(seed).with_fault_plan(plan));
    let faults_match = plan.is_none() || reference.faults == c.faults;
    reference.n_active == c.active
        && reference.n_servers == c.n_servers
        && reference.edge_energy_total.value().to_bits() == c.edge_total.value().to_bits()
        && reference.server_energy_total.value().to_bits() == c.server_total.value().to_bits()
        && faults_match
}

/// Times each per-server arrival draw and sort on its own: the same
/// arrival stream through the faulted entry point with every client a
/// sensor dropout, so no client reaches the event core. The draw and
/// sort are not public steps; this probe is how `des.arrivals` is split
/// out of the per-server call that contains it.
fn probe_arrivals(c: &Composed) -> f64 {
    let plan = FaultPlan { sensor_dropout: 1.0, ..FaultPlan::NONE };
    let disabled = Telemetry::disabled();
    let mut columns: HashMap<usize, FleetColumns> = HashMap::new();
    let mut total = 0.0;
    for &(k, seed) in &c.arrivals {
        let cols = columns
            .entry(k)
            .or_insert_with(|| FleetColumns::draw(&plan, k, &mut StdRng::seed_from_u64(0)));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frng = StdRng::seed_from_u64(0);
        let t = Instant::now();
        let out = simulate_async_cycle_faulted(
            k,
            &c.server,
            &mut rng,
            &mut frng,
            &plan,
            cols.classes(),
            &disabled,
            None,
            None,
        );
        total += t.elapsed().as_secs_f64();
        std::hint::black_box(out);
    }
    total
}

/// Closed-form and timeline cost per point at the paper's apiary scale
/// (the served `recommend` path), timed over batches of 1000 points.
pub fn engine_probe(resolution: f64) -> (f64, f64) {
    let spec = ScenarioSpec::paper(ServiceKind::Cnn, 35, LossModel::all());
    let ctx = SimContext::new(1);
    let per_point = |backend: Backend| {
        1e9 * time_per_call(resolution, 5, || {
            let mut acc = 0.0;
            for n in 130..1130 {
                acc += backend.evaluate(&spec, n, &ctx).total_energy.value();
            }
            acc
        }) / 1000.0
    };
    (per_point(Backend::ClosedForm), per_point(Backend::EventTimeline))
}

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.snapshot().counter(name).unwrap_or(0)
}

fn run_traced(args: &Args, kind: Kind, spec: &ScenarioSpec, resolution: f64) -> Outcome {
    let n = kind.clients();
    let plan = FaultPlan::mid_severity();
    let window = args.window();
    // Traced pass: composed, serial (thread cap 1), with spans.
    let counting = CountingSink::new(flight_recorder());
    let traced_tel = match kind {
        Kind::FaultedDefault => Telemetry::with_sink(Box::new(counting.clone())),
        // Metrics only: the sink keeps nothing, so the fast path stays
        // eligible, and the replay counters are readable.
        Kind::Scale => Telemetry::metrics_only(),
    };
    let mut spans = Spans::new(resolution);
    let mut seeds = Vec::new();
    let mut traced_wall = 0.0;
    let mut failed = 0u64;
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut delivered = 0u64;
    let mut probe_secs = 0.0;
    let start = Instant::now();
    while start.elapsed() < window.mul_f64(0.45) || seeds.is_empty() {
        let seed = mix(args.seed, seeds.len() as u64);
        seeds.push(seed);
        let ctx = SimContext::with_telemetry(seed, traced_tel.clone());
        let sink = (kind == Kind::FaultedDefault).then_some(&counting);
        let t = Instant::now();
        let composed = rayon::pool::with_thread_cap(1, || {
            let mut out = Vec::new();
            if kind == Kind::Scale {
                spans.time("engine.closed_form", || Backend::ClosedForm.compare(spec, n, &ctx));
                spans.time("engine.timeline", || Backend::EventTimeline.compare(spec, n, &ctx));
                spans.time("engine.edge_side", || Backend::Des.evaluate_edge(spec, n, &ctx));
                out.push((compose_des(spec, n, &ctx, &mut spans, sink), FaultPlan::NONE));
            }
            let fctx = ctx.clone().with_fault_plan(plan);
            spans.time("engine.edge_side", || Backend::Des.evaluate_edge(spec, n, &fctx));
            out.push((compose_des(spec, n, &fctx, &mut spans, sink), plan));
            out
        });
        traced_wall += t.elapsed().as_secs_f64();
        hits += ctx.cache().hits();
        lookups += ctx.cache().hits() + ctx.cache().misses();
        for (c, p) in &composed {
            probe_secs += probe_arrivals(c);
            delivered += c.faults.delivered;
            let ok = composed_matches(c, spec, n, seed, *p)
                && (p.is_none() || {
                    c.faults.delivered + c.faults.fallbacks + c.faults.sensor_dropouts
                        == c.active as u64
                });
            failed += u64::from(!ok);
        }
    }
    // Re-timing sub-resolution spans is tracing cost, not layer time.
    let wall = traced_wall - spans.overhead;
    // The arrival draw and sort sit inside the per-server calls; move the
    // probe's estimate of them out of the event-core steps.
    let core = if kind == Kind::FaultedDefault { "des.exact_loop" } else { "des.replay" };
    let arrivals = probe_secs.min(spans.get(core));
    spans.add(core, -arrivals);
    spans.add("des.arrivals", arrivals);

    // The same points untraced, at thread cap 1 and at the full pool.
    let untraced_tel = telemetry_for(kind);
    let time_points = |cap: usize| {
        let t = Instant::now();
        for &seed in &seeds {
            rayon::pool::with_thread_cap(cap, || point(kind, spec, seed, &untraced_tel));
        }
        t.elapsed().as_secs_f64()
    };
    let serial = time_points(1);
    let pool_before = rayon::pool::stats();
    let pooled = time_points(rayon::pool::current_num_threads());
    let pool_after = rayon::pool::stats();
    let (cf_ns, tl_ns) = engine_probe(resolution);

    let share = |name: &str| spans.get(name) / wall;
    let steps = [
        "engine.loss_draw",
        "engine.allocate",
        "engine.energy_fold",
        "engine.edge_side",
        "engine.closed_form",
        "engine.timeline",
        "faults.prepass",
        "des.arrivals",
        "des.replay",
        "des.exact_loop",
        "telemetry.sink",
    ];
    let attributed: f64 = steps.iter().map(|s| share(s)).sum();
    spans.print_table(&args.workload, wall);
    let events = ["des.events.arrival", "des.events.transfer_done", "des.events.process_done"]
        .iter()
        .map(|c| counter(&traced_tel, c))
        .sum::<u64>();
    let sink_events = counting.events.load(std::sync::atomic::Ordering::Relaxed);
    let mut values: HashMap<&str, f64> = HashMap::from([
        ("trace.op_ms", 1e3 * wall / seeds.len() as f64),
        ("trace.overhead_ratio", traced_wall / serial),
        ("process.peak_rss_mb", peak_rss_mb()),
        ("trace.unattributed_ratio", (1.0 - attributed).max(0.0)),
        ("engine.closed_form.ns_per_point", cf_ns),
        ("engine.timeline.ns_per_point", tl_ns),
        ("engine.alloc_cache.hit_ratio", hits as f64 / lookups.max(1) as f64),
        (
            "des.fastpath.replay_ratio",
            counter(&traced_tel, "des.fastpath.replayed") as f64 / delivered.max(1) as f64,
        ),
        ("des.events", events as f64),
        ("telemetry.sink.events", sink_events as f64),
        ("telemetry.sink.kept_ratio", counting.inner.len() as f64 / sink_events.max(1) as f64),
        ("pool.speedup", serial / pooled),
        ("pool.jobs", (pool_after.jobs - pool_before.jobs) as f64),
        ("pool.steals", (pool_after.steals - pool_before.steals) as f64),
    ]);
    for s in steps {
        let key = PER_LAYER.iter().find(|(m, _)| m.strip_suffix(".share") == Some(s));
        values.insert(key.expect("every step has a share metric").0, share(s));
    }
    Outcome {
        attempted: seeds.len() as u64,
        failed,
        checks_ok: true,
        metrics: metrics(PER_LAYER, values),
    }
}
