//! The repository benchmark: four workloads over the paper's scaling,
//! serving and on-hive paths, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload des_scale --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation; with `--trace 1` it composes each workload from the
//! layers' public calls, times them, and reports the per-layer metrics.
//! Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and any failed
//! output check makes the process exit non-zero. See `CONTRACT.md`.

mod des;
mod edge;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Command-line arguments, all required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One metric as printed: name, measured value, unit.
pub type Metric = (String, f64, &'static str);

/// What a workload run reports.
pub struct Outcome {
    /// Operations attempted inside the measurement window.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output check failed.
    pub failed: u64,
    /// Whole-run checks (conservation, bit-identity) all held.
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUPS: usize = 3;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Smallest nonzero step of the monotonic clock, in seconds.
pub fn timer_resolution() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2000 {
        let t0 = Instant::now();
        let mut t1 = Instant::now();
        while t1 == t0 {
            t1 = Instant::now();
        }
        best = best.min((t1 - t0).as_secs_f64());
    }
    best
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch directory for files the program writes (the flight
/// recorder's post-mortem), inside the benchmark's own directory.
pub fn scratch_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("cannot create the benchmark scratch directory");
    dir
}

fn render(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <des_faulted_default|des_scale|serve_mix|\
                 edge_inference> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let resolution = timer_resolution();
    eprintln!("perfbench: timer resolution {:.1} ns", resolution * 1e9);
    let outcome = match args.workload.as_str() {
        "des_faulted_default" => des::run(&args, des::Kind::FaultedDefault, resolution),
        "des_scale" => des::run(&args, des::Kind::Scale, resolution),
        "serve_mix" => serve::run(&args, resolution),
        "edge_inference" => edge::run(&args, resolution),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let correct = outcome.checks_ok && outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", render(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: output checks FAILED ({} of {} operations)",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
