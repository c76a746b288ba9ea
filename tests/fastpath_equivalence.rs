//! The shape-memoized DES fast path pinned against the exact event
//! loop, bit for bit.
//!
//! Causal tags force the DES onto the exact heap-scheduled event loop
//! (`fast_path_eligible` is false for a tagged cycle), while a
//! metrics-only handle takes the memoized replay. The two runs must
//! agree on *everything observable*: every energy total,
//! the fault ledger (attempts/retries/fallbacks/delivered and the
//! `delivered + fallbacks + dropouts == active` conservation law), and
//! every telemetry counter except `des.fastpath.replayed` — the one
//! counter only the replay emits. The agreement must hold at thread
//! caps 1, 2 and N, across fault severities from none to
//! outage-plus-brownout, and from a single client to 10⁵.

use precision_beekeeping::orchestra::allocator::FillPolicy;
use precision_beekeeping::orchestra::faults::{Brownout, OutageWindow};
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::orchestra::simulation::CycleReport;
use precision_beekeeping::telemetry::{BufferSink, Event, EventSink, FlightRecorderSink};
use precision_beekeeping::units::Seconds;
use proptest::prelude::*;
use rayon::pool::with_thread_cap;
use std::sync::{Arc, Once};

/// Pin `RAYON_NUM_THREADS=4` (unless the caller chose a value) before
/// the pool's first lazy initialization, so thread-count comparisons
/// are real even on a single-core host.
fn init_pool() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

fn spec(cap: usize) -> ScenarioSpec {
    ScenarioSpec {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, cap),
        loss: LossModel::NONE,
        policy: FillPolicy::PackSlots,
    }
}

/// The four severities the pin sweeps: fault-free, light packet loss,
/// the CLI's `mid` plan, and a heavy outage-plus-brownout plan that
/// drives most clients through retries or fallbacks.
fn severity(label: char) -> FaultPlan {
    let mut p = FaultPlan::NONE;
    match label {
        'N' => {}
        'A' => {
            p.packet_loss = 0.05;
            p.sensor_dropout = 0.02;
        }
        'B' => return FaultPlan::mid_severity(),
        'C' => {
            p.outage = Some(OutageWindow::new(Seconds(40.0), Seconds(160.0)));
            p.brownout = Some(Brownout { probability: 0.2 });
            p.sensor_dropout = 0.1;
            p.packet_loss = 0.35;
            p.retry.max_retries = 2;
            p.retry.base_backoff = Seconds(20.0);
            p.retry.jitter = 0.5;
        }
        other => panic!("unknown severity {other}"),
    }
    p
}

/// One DES evaluation plus its telemetry counters, with
/// `des.fastpath.replayed` split out (it exists only on the replay
/// path; everything else must match bitwise).
fn run(
    seed: u64,
    n: usize,
    plan: &FaultPlan,
    tel: Telemetry,
) -> (CycleReport, Vec<(String, u64)>, u64) {
    let ctx = SimContext::with_telemetry(seed, tel.clone()).with_fault_plan(*plan);
    let report = Backend::Des.evaluate(&spec(35), n, &ctx);
    let mut counters = tel.snapshot().counters;
    let replayed = counters
        .iter()
        .position(|(k, _)| k == "des.fastpath.replayed")
        .map(|i| counters.remove(i).1)
        .unwrap_or(0);
    (report, counters, replayed)
}

/// The core pin: fast path (metrics-only telemetry) vs exact loop
/// (a tracing ring sink tags every client, which forces the per-event
/// path), at one thread cap.
fn assert_equivalent(seed: u64, n: usize, label: char) {
    let plan = severity(label);
    let (fast, fast_counters, replayed) = run(seed, n, &plan, Telemetry::metrics_only());
    let exact_tel = Telemetry::ring(1).with_tracing();
    let (exact, exact_counters, exact_replayed) = run(seed, n, &plan, exact_tel);
    assert_eq!(fast, exact, "severity {label}, n={n}: report diverged");
    assert_eq!(fast_counters, exact_counters, "severity {label}, n={n}: counters diverged");
    assert_eq!(exact_replayed, 0, "the exact loop must never report replayed clients");
    if label == 'N' && n > 0 {
        assert!(replayed > 0, "fault-free n={n} must take the fast path");
    }

    // Conservation: no sample is ever lost, on either path. (A `NONE`
    // plan keeps no fault ledger: its reports hold the default stats.)
    if label != 'N' {
        let f = &fast.faults;
        assert_eq!(
            f.delivered + f.fallbacks + f.sensor_dropouts,
            fast.n_active as u64,
            "severity {label}, n={n}: conservation violated"
        );
    }
}

/// And the fast path must not care how the fleet is sharded.
fn assert_thread_stable(seed: u64, n: usize, label: char) {
    let plan = severity(label);
    let eval = || run(seed, n, &plan, Telemetry::metrics_only()).0;
    let uncapped = eval();
    assert_eq!(with_thread_cap(1, eval), uncapped, "severity {label}, n={n}: 1 thread diverged");
    assert_eq!(with_thread_cap(2, eval), uncapped, "severity {label}, n={n}: 2 threads diverged");
}

#[test]
fn fastpath_matches_exact_loop_across_severities_and_populations() {
    init_pool();
    for label in ['N', 'A', 'B', 'C'] {
        for n in [1usize, 7, 1_000] {
            assert_equivalent(11, n, label);
            assert_thread_stable(11, n, label);
        }
    }
}

#[test]
fn fastpath_matches_exact_loop_at_1e5_clients() {
    init_pool();
    // The 10⁵ point only needs one severity per path regime: mid
    // exercises the clean/divergent split, fault-free the pure replay.
    for label in ['N', 'B'] {
        assert_equivalent(23, 100_000, label);
        assert_thread_stable(23, 100_000, label);
    }
}

/// The default faulted sweep's flight recorder is an untagged
/// recording sink, so it leaves the DES on the replay: every delivered
/// client is replayed, the report is bit-identical to telemetry off, and
/// the recorder still sees every retry-exhaustion fallback (untagged
/// brown-outs emit no event).
#[test]
fn flight_recorder_keeps_the_faulted_des_on_the_fast_path() {
    init_pool();
    let dump =
        std::env::temp_dir().join(format!("pb-flight-fastpath-{}.jsonl", std::process::id()));
    let recorder = std::sync::Arc::new(
        FlightRecorderSink::new(4096).with_auto_dump(dump.to_string_lossy().into_owned(), 1),
    );
    let tel = Telemetry::with_sink(Box::new(std::sync::Arc::clone(&recorder)));
    let plan = FaultPlan::mid_severity();
    let (recorded, _, replayed) = run(7, 10_000, &plan, tel);
    let _ = std::fs::remove_file(&dump);
    let (plain, _, _) = run(7, 10_000, &plan, Telemetry::disabled());

    let f = &recorded.faults;
    assert!(f.delivered > 0);
    assert_eq!(replayed, f.delivered, "every delivered client must be replayed");
    assert_eq!(recorded, plain, "the recorder must not perturb the report");
    assert_eq!(recorder.triggers_fired(), f.fallbacks - f.brownouts);
}

/// A sink that implements only `record`, so it receives every batch
/// through the trait's default one-event-at-a-time `record_batch`: the
/// reference the batched sinks must reproduce.
#[derive(Debug)]
struct PerEvent<S>(S);

impl<S: EventSink> EventSink for PerEvent<S> {
    fn record(&self, event: Event) {
        self.0.record(event);
    }

    fn events(&self) -> Vec<Event> {
        self.0.events()
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// On one thread, the batched hand-off of the untagged `fault.*` events
/// is invisible: the flight recorder retains the same events, fires the
/// same triggers and writes the same post-mortem bytes as per-event
/// recording, and an untagged JSONL trace is byte-identical.
#[test]
fn batched_fault_events_record_like_per_event_calls_at_one_thread() {
    init_pool();
    let plan = FaultPlan::mid_severity();
    let ctx = |tel: &Telemetry| SimContext::with_telemetry(7, tel.clone()).with_fault_plan(plan);
    for backend in [Backend::Des, Backend::EventTimeline] {
        let eval =
            |tel: &Telemetry| with_thread_cap(1, || backend.evaluate(&spec(35), 10_000, &ctx(tel)));
        let dump = |name: &str| {
            let file = format!("pb-flight-batch-{name}-{backend}-{}.jsonl", std::process::id());
            std::env::temp_dir().join(file).to_string_lossy().into_owned()
        };
        let recorder = |path: &str| Arc::new(FlightRecorderSink::new(4096).with_auto_dump(path, 1));
        let (batched_path, reference_path) = (dump("batched"), dump("reference"));
        let batched = recorder(&batched_path);
        let reference = recorder(&reference_path);
        let batched_report = eval(&Telemetry::with_sink(Box::new(Arc::clone(&batched))));
        let reference_report =
            eval(&Telemetry::with_sink(Box::new(PerEvent(Arc::clone(&reference)))));
        assert_eq!(batched_report, reference_report, "{backend}: the sink perturbed the report");
        assert!(batched.triggers_fired() > 0, "{backend}: the mid plan must trip the recorder");
        assert_eq!(batched.triggers_fired(), reference.triggers_fired(), "{backend}");
        assert_eq!(batched.len_by_severity(), reference.len_by_severity(), "{backend}");
        assert_eq!(batched.dump_jsonl(), reference.dump_jsonl(), "{backend}");
        let written = |path: &str| {
            let text = std::fs::read_to_string(path).expect("post-mortem written");
            let _ = std::fs::remove_file(path);
            text
        };
        assert_eq!(written(&batched_path), written(&reference_path), "{backend}: post-mortem");

        let trace = |tel: Telemetry| {
            eval(&tel);
            tel.to_jsonl()
        };
        let buffered = trace(Telemetry::enabled());
        assert!(buffered.contains("\"kind\":\"fault.retry\""), "{backend}: no fault events");
        let per_event = trace(Telemetry::with_sink(Box::new(PerEvent(BufferSink::new()))));
        assert_eq!(buffered, per_event, "{backend}: untagged trace diverged");
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(6))]

    /// Any seed, any severity, small populations: the replay and the
    /// exact loop stay bitwise interchangeable.
    #[test]
    fn fastpath_equivalence_holds_for_any_seed(
        seed in 0u64..1_000_000,
        n_idx in 0usize..4,
        label_idx in 0usize..4,
    ) {
        init_pool();
        let n = [1usize, 7, 230, 1_000][n_idx];
        let label = ['N', 'A', 'B', 'C'][label_idx];
        assert_equivalent(seed, n, label);
        assert_thread_stable(seed, n, label);
    }
}
