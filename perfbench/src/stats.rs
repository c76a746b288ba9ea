//! Order statistics and the timer-resolution guard.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Seconds per call of `f`, never read below the timer's resolution:
/// calls shorter than 100× `resolution` are timed in batches that last
/// at least that long. Returns the median over `reps` batches.
pub fn time_per_call<R>(resolution: f64, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let floor = 100.0 * resolution;
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t.elapsed().as_secs_f64() >= floor || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
