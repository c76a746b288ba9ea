//! Offline API-surface shim for the `criterion` crate.
//!
//! Implements the subset this workspace uses: [`black_box`], [`Criterion`]
//! with `bench_function` / `benchmark_group` / `bench_with_input`,
//! [`BenchmarkId`], [`Bencher::iter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: after a warm-up window, each
//! benchmark runs timed batches until the measurement window elapses and
//! reports the mean and minimum per-iteration wall-clock time. The CLI
//! flags CI passes (`--sample-size`, `--measurement-time`,
//! `--warm-up-time`) are honored; all other flags are accepted and
//! ignored, matching how cargo invokes `harness = false` bench targets.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement: Duration,
    warm_up: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement: Duration::from_secs_f64(1.0),
            warm_up: Duration::from_secs_f64(0.3),
            filter: None,
        }
    }
}

impl Criterion {
    /// Builds a driver from `std::env::args`, honoring `--sample-size`,
    /// `--measurement-time`, `--warm-up-time`, and a positional name
    /// filter; unknown flags are ignored.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--sample-size" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        c.sample_size = v;
                    }
                }
                "--measurement-time" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        c.measurement = Duration::from_secs_f64(v);
                    }
                }
                "--warm-up-time" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        c.warm_up = Duration::from_secs_f64(v);
                    }
                }
                // Flags real criterion accepts that take no value.
                "--bench" | "--quiet" | "--verbose" | "--noplot" | "--test" | "--list" => {}
                other => {
                    if !other.starts_with('-') && c.filter.is_none() {
                        c.filter = Some(other.to_string());
                    } else if other.starts_with("--") {
                        // Valued flag we don't model: swallow its argument.
                        let _ = args.next();
                    }
                }
            }
        }
        c
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.matches(name) {
            let mut b = Bencher::new(self.sample_size, self.measurement, self.warm_up);
            f(&mut b);
            b.report(name);
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.to_string() }
    }

    /// Prints the run footer (upstream emits summary stats; the shim has
    /// nothing further to add).
    pub fn final_summary(&self) {}

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }
}

/// A named group of benchmarks sharing the parent driver's settings.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark identified by `id` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        if self.c.matches(&full) {
            let mut b = Bencher::new(self.c.sample_size, self.c.measurement, self.c.warm_up);
            f(&mut b, input);
            b.report(&full);
        }
        self
    }

    /// Runs a named benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        if self.c.matches(&full) {
            let mut b = Bencher::new(self.c.sample_size, self.c.measurement, self.c.warm_up);
            f(&mut b);
            b.report(&full);
        }
        self
    }

    /// Adjusts the group's per-benchmark sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.c.sample_size = n;
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{param}"))
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId(param.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    measurement: Duration,
    warm_up: Duration,
    stats: Option<(f64, f64, u64)>,
}

impl Bencher {
    fn new(sample_size: usize, measurement: Duration, warm_up: Duration) -> Self {
        Bencher { sample_size, measurement, warm_up, stats: None }
    }

    /// Times `routine`, storing mean and minimum per-iteration seconds.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: run until the warm-up window elapses, counting
        // iterations to size measurement batches.
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < self.warm_up || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        // Aim each sample at measurement/sample_size seconds.
        let sample_target = self.measurement.as_secs_f64() / self.sample_size.max(1) as f64;
        let batch = ((sample_target / per_iter.max(1e-12)).ceil() as u64).max(1);
        let mut total_iters: u64 = 0;
        let mut total_secs = 0.0;
        let mut min_sample = f64::INFINITY;
        let meas_start = Instant::now();
        for _ in 0..self.sample_size.max(1) {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let secs = t.elapsed().as_secs_f64();
            total_secs += secs;
            total_iters += batch;
            min_sample = min_sample.min(secs / batch as f64);
            if meas_start.elapsed() > self.measurement.mul_f64(4.0) {
                break; // Slow benchmark: don't run far past the window.
            }
        }
        self.stats = Some((total_secs / total_iters as f64, min_sample, total_iters));
    }

    fn report(&self, name: &str) {
        match self.stats {
            Some((mean, min, iters)) => println!(
                "{name:<48} time: [mean {} | min {}]  ({iters} iters)",
                fmt_secs(mean),
                fmt_secs(min),
            ),
            None => println!("{name:<48} (no measurement: Bencher::iter never called)"),
        }
    }
}

/// Formats seconds with criterion-style units.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.4} s")
    } else if s >= 1e-3 {
        format!("{:.4} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.4} µs", s * 1e6)
    } else {
        format!("{:.4} ns", s * 1e9)
    }
}

/// Declares a benchmark group runner function (upstream-compatible forms).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::from_args();
            $( $target(&mut c); )+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $cfg;
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_id_rendering() {
        assert_eq!(BenchmarkId::new("f", 32).0, "f/32");
        assert_eq!(BenchmarkId::from_parameter(7).0, "7");
    }

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(3, Duration::from_millis(30), Duration::from_millis(5));
        b.iter(|| black_box((0..1000u64).sum::<u64>()));
        let (mean, min, iters) = b.stats.expect("stats recorded");
        assert!(mean > 0.0 && min > 0.0 && iters > 0);
        assert!(min <= mean * 1.5);
    }

    #[test]
    fn filter_matches_substring() {
        let c = Criterion { filter: Some("fft".into()), ..Criterion::default() };
        assert!(c.matches("fft/1024"));
        assert!(!c.matches("mel_pipeline"));
    }
}
