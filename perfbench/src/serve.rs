//! `serve_mix`: the resident daemon (`serve::spawn`, default options)
//! on loopback TCP, driven by one client thread per connection.
//!
//! The untraced run is a closed loop over the whole window: capacity and
//! round-trip latency at full load. The traced run adds two open-loop
//! phases at fixed rates (`light`, then `heavy`) that send each request
//! at its seeded-exponential scheduled time, or right after the previous
//! reply when that comes later, and time latency from the scheduled send.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use precision_beekeeping::beehive::apiary::Apiary;
use precision_beekeeping::orchestra::prelude::seeded_rng;
use precision_beekeeping::orchestra::sweep::SweepConfig;
use precision_beekeeping::orchestra::{
    presets, replicate_point_with, FillPolicy, LossModel, SimContext,
};
use precision_beekeeping::serve::frame::{read_frame, write_frame};
use precision_beekeeping::serve::protocol::{
    features_body, montecarlo_body, ok_response, parse_request, recommend_body, sweep_body, Request,
};
use precision_beekeeping::serve::{spawn, ServeClient, ServeHandle, ServeOptions};
use precision_beekeeping::signal::audio::BeeAudioSynth;
use precision_beekeeping::signal::pipeline::MelPipeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::des::engine_probe;
use crate::stats::{median, mix, percentile, time_per_call};
use crate::trace::{metrics, END_TO_END, PER_LAYER};
use crate::{peak_rss_mb, Args, Outcome, SETUPS};

/// Open-loop rates of the traced run, requests per second over all
/// connections: about 20 % and 70 % of the closed-loop capacity (~530
/// requests/s) measured on a 2-core x86-64 box. Both stay fixed, so a
/// faster daemon shows as lower latency at the same offered load.
const LIGHT_RPS: f64 = 100.0;
const HEAVY_RPS: f64 = 370.0;
/// Shares of the traced run's window: light, heavy, traced closed loop,
/// untraced closed loop.
const PHASES: [f64; 4] = [0.2, 0.4, 0.2, 0.2];
/// Hot `recommend` keys, so identical requests can coalesce.
const HOT_HIVES: [usize; 8] = [180, 360, 406, 630, 900, 1200, 2000, 5000];
/// Distinct requests re-answered offline for the bit-identity check.
const CHECKED: usize = 200;
const OPS: [&str; 4] = ["recommend", "montecarlo", "features", "sweep"];

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Request kinds of one block of ten, before the seeded shuffle: four
/// distinct `recommend`, two hot `recommend`, two `montecarlo`, one
/// `features` and one small faulted DES `sweep`. Exact shares per block
/// keep the offered work the same from seed to seed.
const BLOCK: [u8; 10] = [0, 0, 0, 0, 1, 1, 2, 2, 3, 4];

/// The `i`-th request of stream `stream`, and its op's index in `OPS`.
fn request(seed: u64, stream: u64, i: u64) -> (usize, String) {
    let mut order = BLOCK;
    let mut shuffle = StdRng::seed_from_u64(mix(seed, (stream << 32) | (i / 10) | 1 << 63));
    for j in (1..order.len()).rev() {
        order.swap(j, shuffle.gen_range(0..=j));
    }
    let key = mix(seed, (stream << 32) | i);
    // Distinct across the streams of a run (until a stream passes 2500
    // requests), and within the same population range in every phase.
    let distinct = 100 + (((i << 4) | (stream & 15)) % 40_000) as usize;
    let sub = key >> 1;
    match order[(i % 10) as usize] {
        0 => (0, format!("{{\"op\":\"recommend\",\"hives\":{distinct},\"cap\":35}}")),
        1 => {
            let hives = HOT_HIVES[(key % 8) as usize];
            (0, format!("{{\"op\":\"recommend\",\"hives\":{hives},\"cap\":35}}"))
        }
        2 => (
            1,
            format!(
                "{{\"op\":\"montecarlo\",\"clients\":200,\"replications\":32,\"cap\":35,\
                 \"seed\":\"{sub}\"}}"
            ),
        ),
        3 => {
            let colony = if key.is_multiple_of(2) { "queenright" } else { "queenless" };
            (
                2,
                format!(
                    "{{\"op\":\"features\",\"colony\":\"{colony}\",\"duration_s\":10,\
                     \"seed\":\"{sub}\"}}"
                ),
            )
        }
        _ => (
            3,
            format!(
                "{{\"op\":\"sweep\",\"backend\":\"des\",\"cap\":35,\"from\":100,\"to\":500,\
                 \"step\":100,\"faults\":\"mid\",\"seed\":\"{sub}\"}}"
            ),
        ),
    }
}
/// The daemon's answer to `text`, computed in this process through the
/// same public calls the executor makes. The bit-identity reference.
fn answer(text: &str) -> String {
    let env = parse_request(text).expect("generated requests parse");
    match env.request {
        Request::Recommend(r) => {
            let rec = Apiary::new("serve", r.hives).recommend_in(
                r.backend,
                r.service,
                r.cap,
                loss(r.losses),
                &SimContext::new(Apiary::SEED),
            );
            ok_response("recommend", &recommend_body(&r, &rec))
        }
        Request::MonteCarlo(r) => {
            let config = sweep_config(r.service, r.cap, loss(r.losses), r.seed);
            let ci =
                replicate_point_with(&config, r.clients, r.replications, &SimContext::new(r.seed));
            ok_response("montecarlo", &montecarlo_body(&r, &ci))
        }
        Request::Features(r) => {
            let clip =
                BeeAudioSynth::default().generate(r.colony, r.duration_s, &mut seeded_rng(r.seed));
            let bands = MelPipeline::paper_default().mel(&clip).band_means();
            ok_response("features", &features_body(&r, &bands))
        }
        Request::Sweep(r) => {
            let config = sweep_config(r.service, r.cap, loss(r.losses), r.seed);
            let ctx = SimContext::new(r.seed).with_fault_plan(r.faults);
            let ns: Vec<usize> = (r.from..=r.to).step_by(r.step).collect();
            let points = config.run_with_context(&r.backend, &ns, &ctx);
            ok_response("sweep", &sweep_body(&r, &points))
        }
        _ => unreachable!("the mix has no control or plan requests"),
    }
}

fn loss(on: bool) -> LossModel {
    if on {
        LossModel::all()
    } else {
        LossModel::NONE
    }
}

fn sweep_config(
    service: precision_beekeeping::orchestra::ServiceKind,
    cap: usize,
    loss: LossModel,
    seed: u64,
) -> SweepConfig {
    SweepConfig {
        edge_client: presets::edge_client(service),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(service, cap),
        loss,
        policy: FillPolicy::PackSlots,
        seed,
    }
}

/// One completed request.
#[derive(Clone)]
struct Done {
    op: usize,
    text: String,
    reply: String,
    /// Scheduled send → reply (open loop) or send → reply (closed loop).
    latency: f64,
    /// Actual send → reply.
    rtt: f64,
    /// Actual send − scheduled send.
    lag: f64,
}

/// Runs one phase on `conns` connections: open loop at `rate` requests
/// per second, or closed loop when `rate` is `None`.
fn phase(
    daemon: &ServeHandle,
    seed: u64,
    phase_id: u64,
    rate: Option<f64>,
    length: Duration,
) -> (Vec<Done>, f64) {
    let conns = connections();
    let start = Instant::now();
    let per_conn: Vec<Vec<Done>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = daemon.addr();
                scope.spawn(move || {
                    let stream = phase_id * 16 + c as u64;
                    let mut client = ServeClient::connect(addr).expect("connect to the daemon");
                    let mut gaps = StdRng::seed_from_u64(mix(seed, !stream));
                    let mut due = 0.0f64;
                    let mut out = Vec::new();
                    for i in 0.. {
                        if let Some(r) = rate {
                            let u: f64 = gaps.gen();
                            due += -(1.0 - u).ln() * conns as f64 / r;
                            if due >= length.as_secs_f64() {
                                break;
                            }
                            let wait = due - start.elapsed().as_secs_f64();
                            if wait > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(wait));
                            }
                        } else if start.elapsed() >= length {
                            break;
                        }
                        let (op, text) = request(seed, stream, i);
                        let sent = start.elapsed().as_secs_f64();
                        let reply =
                            client.call(&text).unwrap_or_else(|e| format!("transport: {e}"));
                        let done = start.elapsed().as_secs_f64();
                        let scheduled = if rate.is_some() { due } else { sent };
                        out.push(Done {
                            op,
                            text,
                            reply,
                            latency: done - scheduled,
                            rtt: done - sent,
                            lag: sent - scheduled,
                        });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    (per_conn.into_iter().flatten().collect(), wall)
}

/// Spawns the daemon and warms it: every hot key, then one request of
/// each op in the mix.
fn setup(seed: u64) -> (ServeHandle, f64) {
    let t = Instant::now();
    let daemon = spawn("127.0.0.1:0", ServeOptions::default()).expect("spawn the daemon");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect to the daemon");
    let hot = HOT_HIVES.map(|h| format!("{{\"op\":\"recommend\",\"hives\":{h},\"cap\":35}}"));
    let mut warm: Vec<String> = hot.into_iter().collect();
    let mut seen = [false; OPS.len()];
    for (op, text) in (0..).map(|i| request(seed, 97, i)) {
        if !seen[op] {
            seen[op] = true;
            warm.push(text);
        }
        if seen.iter().all(|&s| s) {
            break;
        }
    }
    for text in &warm {
        let reply = client.call(text).expect("warm-up request");
        assert!(reply.starts_with("{\"status\":\"ok\""), "warm-up failed: {reply}");
    }
    (daemon, t.elapsed().as_secs_f64())
}

/// Failed requests plus mismatches against the offline reference on a
/// stride sample of distinct requests, answered at thread cap 1.
fn check(done: &[Done]) -> u64 {
    let not_ok = done.iter().filter(|d| !d.reply.starts_with("{\"status\":\"ok\"")).count();
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&Done> = done.iter().filter(|d| seen.insert(d.text.as_str())).collect();
    let stride = distinct.len().div_ceil(CHECKED).max(1);
    let mismatched = distinct
        .iter()
        .step_by(stride)
        .filter(|d| rayon::pool::with_thread_cap(1, || answer(&d.text)) != d.reply)
        .count();
    (not_ok + mismatched) as u64
}

pub fn run(args: &Args, resolution: f64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    let mut conserved = true;
    for _ in 0..SETUPS {
        if let Some(old) = daemon.take() {
            conserved &= ServeHandle::shutdown(old).conservation_ok();
        }
        let (d, secs) = setup(args.seed);
        setups.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    if args.trace {
        return run_traced(args, daemon, conserved, resolution);
    }
    let (closed, wall) = phase(&daemon, args.seed, 2, None, args.window());
    let report = daemon.shutdown();
    conserved &= report.conservation_ok();
    let failed = check(&closed);
    let rtt: Vec<f64> = closed.iter().map(|d| d.rtt).collect();
    let values = HashMap::from([
        ("setup_s", median(&setups)),
        ("work_per_s", closed.len() as f64 / wall),
        ("op_ms_p50", 1e3 * median(&rtt)),
        ("op_ms_p95", 1e3 * percentile(&rtt, 0.95)),
    ]);
    eprintln!("perfbench: {} closed-loop requests; {report}", closed.len());
    Outcome {
        attempted: closed.len() as u64,
        failed,
        checks_ok: conserved,
        metrics: metrics(END_TO_END, values),
    }
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency).collect()
}

/// Seconds per frame round trip, parse and render of the mix's payloads.
fn codec_probe(seed: u64, resolution: f64) -> (f64, f64, f64) {
    let samples: Vec<(usize, String)> = (0..64).map(|i| request(seed, 99, i)).collect();
    let replies: Vec<String> = samples.iter().map(|(_, t)| answer(t)).collect();
    let frame = time_per_call(resolution, 9, || {
        let mut total = 0usize;
        for (text, reply) in samples.iter().map(|(_, t)| t).zip(&replies) {
            for payload in [text.as_bytes(), reply.as_bytes()] {
                let mut buf = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut buf, payload).expect("frame into memory");
                total += read_frame(&mut Cursor::new(buf)).expect("unframe").len();
            }
        }
        total
    }) / samples.len() as f64;
    let parse = time_per_call(resolution, 9, || {
        samples.iter().filter(|(_, t)| parse_request(t).is_ok()).count()
    }) / samples.len() as f64;
    // Render: the op's body over a precomputed result, per request.
    let mut render = 0.0;
    for (op, text) in &samples {
        let env = parse_request(text).expect("generated requests parse");
        render += match env.request {
            Request::Recommend(r) => {
                let rec = Apiary::new("serve", r.hives).recommend_in(
                    r.backend,
                    r.service,
                    r.cap,
                    loss(r.losses),
                    &SimContext::new(Apiary::SEED),
                );
                time_per_call(resolution, 5, || ok_response("recommend", &recommend_body(&r, &rec)))
            }
            Request::MonteCarlo(r) => {
                let config = sweep_config(r.service, r.cap, loss(r.losses), r.seed);
                let ci = replicate_point_with(
                    &config,
                    r.clients,
                    r.replications,
                    &SimContext::new(r.seed),
                );
                time_per_call(resolution, 5, || {
                    ok_response("montecarlo", &montecarlo_body(&r, &ci))
                })
            }
            Request::Features(r) => {
                let bands = vec![-40.0; 128];
                time_per_call(resolution, 5, || ok_response("features", &features_body(&r, &bands)))
            }
            Request::Sweep(r) => {
                let config = sweep_config(r.service, r.cap, loss(r.losses), r.seed);
                let ctx = SimContext::new(r.seed).with_fault_plan(r.faults);
                let ns: Vec<usize> = (r.from..=r.to).step_by(r.step).collect();
                let points = config.run_with_context(&r.backend, &ns, &ctx);
                time_per_call(resolution, 5, || ok_response("sweep", &sweep_body(&r, &points)))
            }
            _ => unreachable!("op {op} is not in the mix"),
        };
    }
    (frame, parse, render / samples.len() as f64)
}

fn run_traced(args: &Args, daemon: ServeHandle, mut conserved: bool, resolution: f64) -> Outcome {
    let window = args.window();
    let part = |i: usize| window.mul_f64(PHASES[i]);
    // The traced phases with the queue monitor running, then an untraced
    // closed loop; the capacity ratio of the two warm closed loops is the
    // tracing overhead.
    let gauge = daemon.telemetry().registry().map(|r| r.gauge("serve.queue.depth"));
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                if let Some(g) = &gauge {
                    max = max.max(g.get());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            max
        })
    };
    let before = daemon.stats();
    let server_before =
        daemon.telemetry().snapshot().histogram("serve.request.latency").map_or(0.0, |h| h.total);
    let (light, _) = phase(&daemon, args.seed, 0, Some(LIGHT_RPS), part(0));
    let (heavy, _) = phase(&daemon, args.seed, 1, Some(HEAVY_RPS), part(1));
    let (closed, closed_wall) = phase(&daemon, args.seed, 2, None, part(2));
    stop.store(true, Ordering::Relaxed);
    let depth_max = monitor.join().expect("monitor thread panicked");
    let after = daemon.stats();
    let snap = daemon.telemetry().snapshot();
    let (untraced, untraced_wall) = phase(&daemon, args.seed, 3, None, part(3));
    let report = daemon.shutdown();
    conserved &= report.conservation_ok();

    let traced: Vec<&Done> = light.iter().chain(&heavy).chain(&closed).collect();
    let all: Vec<Done> = untraced.iter().chain(traced.iter().copied()).cloned().collect();
    let failed = check(&all);

    let (frame, parse, render) = codec_probe(args.seed, resolution);
    let (cf_ns, tl_ns) = engine_probe(resolution);
    // Pool: a sample of the mix answered offline at cap 1 and at full width.
    let sample: Vec<String> = (0..24).map(|i| request(args.seed, 98, i).1).collect();
    let time_sample = |cap: usize| {
        let t = Instant::now();
        for text in &sample {
            rayon::pool::with_thread_cap(cap, || answer(text));
        }
        t.elapsed().as_secs_f64()
    };
    let serial = time_sample(1);
    let pool_before = rayon::pool::stats();
    let pooled = time_sample(rayon::pool::current_num_threads());
    let pool_after = rayon::pool::stats();

    let hist_ms = |name: &str, q50: bool| {
        snap.histogram(name).map_or(0.0, |h| 1e3 * if q50 { h.p50 } else { h.p95 })
    };
    let mut values = HashMap::from([
        ("trace.op_ms", 1e3 * closed_wall / closed.len().max(1) as f64),
        (
            "trace.overhead_ratio",
            (untraced.len() as f64 / untraced_wall) / (closed.len() as f64 / closed_wall),
        ),
        ("process.peak_rss_mb", peak_rss_mb()),
        ("engine.closed_form.ns_per_point", cf_ns),
        ("engine.timeline.ns_per_point", tl_ns),
        ("pool.speedup", serial / pooled),
        ("pool.jobs", (pool_after.jobs - pool_before.jobs) as f64),
        ("pool.steals", (pool_after.steals - pool_before.steals) as f64),
        ("serve.frame.us", 1e6 * frame),
        ("serve.parse.us", 1e6 * parse),
        ("serve.render.us", 1e6 * render),
        ("serve.server.ms_p50", hist_ms("serve.request.latency", true)),
        ("serve.server.ms_p95", hist_ms("serve.request.latency", false)),
        (
            "serve.coalesce.hit_ratio",
            (after.coalesced - before.coalesced) as f64
                / (after.accepted - before.accepted).max(1) as f64,
        ),
        (
            "serve.shed_ratio",
            (after.shed - before.shed) as f64 / (after.submitted - before.submitted).max(1) as f64,
        ),
        ("serve.queue.depth_max", depth_max),
        ("serve.light.ms_p50", 1e3 * median(&latencies(&light))),
        ("serve.light.ms_p99", 1e3 * percentile(&latencies(&light), 0.99)),
        ("serve.heavy.ms_p50", 1e3 * median(&latencies(&heavy))),
        ("serve.heavy.ms_p99", 1e3 * percentile(&latencies(&heavy), 0.99)),
        (
            "loadgen.lag_ms_p99",
            1e3 * percentile(&light.iter().chain(&heavy).map(|d| d.lag).collect::<Vec<_>>(), 0.99),
        ),
    ]);
    let cache_hits = snap.counter("allocation_cache.hits").unwrap_or(0) as f64;
    let cache_misses = snap.counter("allocation_cache.misses").unwrap_or(0) as f64;
    values
        .insert("engine.alloc_cache.hit_ratio", cache_hits / (cache_hits + cache_misses).max(1.0));
    // Per op: the daemon's execute time, and the client round trip
    // beyond it (framing, socket, admission queue), clamped at zero.
    let exec_keys = [
        "serve.execute.recommend.ms_p50",
        "serve.execute.montecarlo.ms_p50",
        "serve.execute.features.ms_p50",
        "serve.execute.sweep.ms_p50",
    ];
    let transport_keys = [
        "serve.transport.recommend.ms_p50",
        "serve.transport.montecarlo.ms_p50",
        "serve.transport.features.ms_p50",
        "serve.transport.sweep.ms_p50",
    ];
    for (op, name) in OPS.iter().enumerate() {
        let exec = hist_ms(&format!("serve.request.{name}"), true);
        let rtt: Vec<f64> = traced.iter().filter(|d| d.op == op).map(|d| d.rtt).collect();
        values.insert(exec_keys[op], exec);
        values.insert(transport_keys[op], (1e3 * median(&rtt) - exec).max(0.0));
    }
    // Coverage: client time explained by the daemon's own latency
    // (queue + execute) plus the offline framing, parse and render cost.
    let client_total: f64 = traced.iter().map(|d| d.rtt).sum();
    let server_total =
        snap.histogram("serve.request.latency").map_or(0.0, |h| h.total) - server_before;
    let codec_total = traced.len() as f64 * (2.0 * frame + parse + render);
    values.insert(
        "trace.unattributed_ratio",
        (1.0 - (server_total + codec_total) / client_total).max(0.0),
    );
    eprintln!("perfbench: {} traced requests; {report}", traced.len());
    Outcome {
        attempted: all.len() as u64,
        failed,
        checks_ok: conserved,
        metrics: metrics(PER_LAYER, values),
    }
}
