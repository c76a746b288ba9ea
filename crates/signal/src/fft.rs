//! Iterative radix-2 FFT.
//!
//! The feature pipeline runs hundreds of 2048-point transforms per clip, so
//! the kernel is the classic in-place iterative Cooley–Tukey with
//! precomputed twiddles. Power-of-two lengths only — the paper's
//! n_fft = 2048 qualifies.
//!
//! The kernel works on split real/imaginary columns. Stages h = 1 and 2
//! run as one straight-line pass; every later stage is one call to
//! `stage`, whose separate slice arguments let the compiler prove them
//! disjoint and vectorize the butterfly loop. Each butterfly is the same
//! `Complex` arithmetic, in the same order, as the textbook
//! array-of-structs loop, so the layout changes speed, not bits.

use crate::complex::Complex;

/// A planned FFT of a fixed power-of-two size.
///
/// Planning precomputes the bit-reversal permutations and twiddle factors
/// so repeated transforms (one per STFT frame) do no trigonometry.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    rev: Vec<u32>,
    /// Bit-reversal permutation for the n/2-point sub-transform used by the
    /// packed real-input path (empty for n < 2).
    half_rev: Vec<u32>,
    /// Per-stage twiddles as split columns: the stage of half-width `h`
    /// reads `w_n^{k·n/(2h)}`, k < h, at `[h − 1, 2h − 1)`. The last stage
    /// (h = n/2) holds the whole table `w_n^k = e^{-2πik/n}`, k < n/2.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

/// Split-format working buffers for [`Fft::windowed_power_into`], reused
/// across frames so the transform allocates nothing once warm.
///
/// Both columns start on a 64-byte boundary whatever address the
/// allocator hands out. With a column at 16 mod 32 bytes, half the 32-byte
/// loads of the vectorized stages split a cache line and the paper's
/// n = 2048 power transform runs about 13 % slower, so its speed would
/// depend on the heap's state and change from one process to the next.
#[derive(Clone, Debug, Default)]
pub(crate) struct FftScratch {
    buf: Vec<f64>,
}

impl FftScratch {
    /// f64 values per 64-byte cache line.
    const LINE: usize = 64 / std::mem::size_of::<f64>();

    /// Two disjoint columns of `m` values, each starting on a cache line.
    fn columns(&mut self, m: usize) -> (&mut [f64], &mut [f64]) {
        let stride = m.next_multiple_of(Self::LINE);
        self.buf.resize(2 * stride + Self::LINE, 0.0);
        // `align_offset` may decline (usize::MAX); the columns then stay
        // unaligned, which costs speed only.
        let skew = self.buf.as_ptr().align_offset(64).min(Self::LINE);
        let (re, im) = self.buf[skew..].split_at_mut(stride);
        (&mut re[..m], &mut im[..m])
    }
}

fn bit_reversal_table(n: usize) -> Vec<u32> {
    if n <= 1 {
        return vec![0; n];
    }
    let bits = n.trailing_zeros();
    (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect()
}

impl Fft {
    /// Plans an FFT of size `n` (must be a power of two ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT size must be a power of two, got {n}");
        let rev = bit_reversal_table(n);
        let half_rev = bit_reversal_table(n / 2);
        let table: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut h = 1;
        while h < n {
            let stride = n / (2 * h);
            for k in 0..h {
                tw_re.push(table[k * stride].re);
                tw_im.push(table[k * stride].im);
            }
            h <<= 1;
        }
        Fft { n, rev, half_rev, tw_re, tw_im }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate size-1 plan, whose transform is the
    /// identity. (The constructor asserts the size is a power of two ≥ 1,
    /// so a size-0 plan cannot exist.)
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Twiddle columns of the stage with half-width `h`.
    fn stage_twiddles(&self, h: usize) -> (&[f64], &[f64]) {
        (&self.tw_re[h - 1..2 * h - 1], &self.tw_im[h - 1..2 * h - 1])
    }

    /// In-place forward DFT: `X[k] = Σ x[j]·e^{-2πijk/n}`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.complex_transform(data, false);
    }

    /// In-place inverse DFT (normalized by 1/n).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.complex_transform(data, true);
        let k = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(k);
        }
    }

    /// Deinterleaves `data` into bit-reversed split scratch, runs the
    /// kernel and interleaves back. The inverse conjugates on the way in
    /// and out, which equals running the butterflies on conjugated
    /// twiddles.
    fn complex_transform(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.n, "buffer length must equal FFT size");
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut re = vec![0.0; self.n];
        let mut im = vec![0.0; self.n];
        for (z, &r) in data.iter().zip(&self.rev) {
            re[r as usize] = z.re;
            im[r as usize] = sign * z.im;
        }
        self.butterflies(&mut re, &mut im);
        for (z, (&r, &i)) in data.iter_mut().zip(re.iter().zip(&im)) {
            *z = Complex::new(r, sign * i);
        }
    }

    /// Forward DFT of a real signal; returns the `n/2 + 1` non-redundant
    /// bins (DC through Nyquist).
    ///
    /// Computed by packing the even/odd samples into an n/2-point complex
    /// transform and unzipping via Hermitian symmetry — half the butterfly
    /// work of a full complex FFT on zero-imaginary input.
    pub fn forward_real(&self, signal: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.n / 2 + 1];
        self.forward_real_into(signal, &mut out);
        out
    }

    /// [`Fft::forward_real`] into a caller-owned `n/2 + 1`-bin buffer.
    pub fn forward_real_into(&self, signal: &[f64], out: &mut [Complex]) {
        assert_eq!(signal.len(), self.n, "signal length must equal FFT size");
        assert_eq!(out.len(), self.n / 2 + 1, "output length must be n/2 + 1");
        if self.n == 1 {
            out[0] = Complex::from_real(signal[0]);
            return;
        }
        let m = self.n / 2;
        let mut re = vec![0.0; m];
        let mut im = vec![0.0; m];
        for (&r, pair) in self.half_rev.iter().zip(signal.chunks_exact(2)) {
            re[r as usize] = pair[0];
            im[r as usize] = pair[1];
        }
        self.butterflies(&mut re, &mut im);
        let (w_re, w_im) = self.stage_twiddles(m);
        let z0 = Complex::new(re[0], im[0]);
        out[0] = Complex::from_real(z0.re + z0.im);
        out[m] = Complex::from_real(z0.re - z0.im);
        for k in 1..=m / 2 {
            let j = m - k;
            let (xk, xj) = unzip_pair(
                Complex::new(re[k], im[k]),
                Complex::new(re[j], im[j]),
                Complex::new(w_re[k], w_im[k]),
                Complex::new(w_re[j], w_im[j]),
            );
            out[k] = xk;
            if j != k {
                out[j] = xj;
            }
        }
    }

    /// Power spectrum `|X_k|²`, k = 0..=n/2, of the real frame
    /// `frame[i]·window[i]`, written into `power`.
    ///
    /// The hot path of the STFT: the windowed even/odd samples are packed
    /// straight into bit-reversed split order, transformed at size n/2 and
    /// unzipped into power without materializing the complex bins.
    pub(crate) fn windowed_power_into(
        &self,
        frame: &[f64],
        window: &[f64],
        scratch: &mut FftScratch,
        power: &mut [f64],
    ) {
        assert_eq!(frame.len(), self.n, "frame length must equal FFT size");
        assert_eq!(window.len(), self.n, "window length must equal FFT size");
        assert_eq!(power.len(), self.n / 2 + 1, "power length must be n/2 + 1");
        if self.n == 1 {
            power[0] = Complex::from_real(frame[0] * window[0]).norm_sqr();
            return;
        }
        let m = self.n / 2;
        let (re, im) = scratch.columns(m);
        // z_j = x_{2j}·w_{2j} + i·x_{2j+1}·w_{2j+1}, stored at rev(j).
        for (&r, (x, w)) in
            self.half_rev.iter().zip(frame.chunks_exact(2).zip(window.chunks_exact(2)))
        {
            re[r as usize] = x[0] * w[0];
            im[r as usize] = x[1] * w[1];
        }
        self.butterflies(re, im);
        let (w_re, w_im) = self.stage_twiddles(m);
        let (lo, hi) = power.split_at_mut(m / 2 + 1);
        unzip_power(re, im, w_re, w_im, lo, hi);
    }

    /// Forward butterflies over a bit-reversed split buffer whose length
    /// divides `self.n`.
    fn butterflies(&self, re: &mut [f64], im: &mut [f64]) {
        let len = re.len();
        let mut h = 1;
        if len >= 4 {
            let (w1_re, w1_im) = self.stage_twiddles(1);
            let (w2_re, w2_im) = self.stage_twiddles(2);
            first_two_stages(
                re,
                im,
                Complex::new(w1_re[0], w1_im[0]),
                [Complex::new(w2_re[0], w2_im[0]), Complex::new(w2_re[1], w2_im[1])],
            );
            h = 4;
        }
        while h < len {
            let (w_re, w_im) = self.stage_twiddles(h);
            stage(re, im, w_re, w_im);
            h <<= 1;
        }
    }
}

/// The radix-2 butterfly: `(a + b·w, a − b·w)`.
#[inline(always)]
fn butterfly(a: Complex, b: Complex, w: Complex) -> (Complex, Complex) {
    let b = b * w;
    (a + b, a - b)
}

/// Stages h = 1 and h = 2 as one straight-line pass over blocks of four.
/// The h = 2 twiddle w₄¹ = cis(−π/2) is multiplied, not replaced by −i:
/// its real part is 6e-17, not 0.
fn first_two_stages(re: &mut [f64], im: &mut [f64], w1: Complex, w2: [Complex; 2]) {
    for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let z = [0, 1, 2, 3].map(|k| Complex::new(r[k], i[k]));
        let (a0, a1) = butterfly(z[0], z[1], w1);
        let (a2, a3) = butterfly(z[2], z[3], w1);
        let (b0, b2) = butterfly(a0, a2, w2[0]);
        let (b1, b3) = butterfly(a1, a3, w2[1]);
        for (k, b) in [b0, b1, b2, b3].into_iter().enumerate() {
            r[k] = b.re;
            i[k] = b.im;
        }
    }
}

/// One radix-2 stage of half-width `h = tw_re.len()` over every block of
/// `2h`. Kept out of line with each column a separate argument: that is
/// what lets the compiler prove the columns disjoint and vectorize.
#[inline(never)]
fn stage(re: &mut [f64], im: &mut [f64], tw_re: &[f64], tw_im: &[f64]) {
    let h = tw_re.len();
    let tw_im = &tw_im[..h];
    for (r, i) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
        let (r_lo, r_hi) = r.split_at_mut(h);
        let (i_lo, i_hi) = i.split_at_mut(h);
        for k in 0..h {
            let (lo, hi) = butterfly(
                Complex::new(r_lo[k], i_lo[k]),
                Complex::new(r_hi[k], i_hi[k]),
                Complex::new(tw_re[k], tw_im[k]),
            );
            r_lo[k] = lo.re;
            i_lo[k] = lo.im;
            r_hi[k] = hi.re;
            i_hi[k] = hi.im;
        }
    }
}

/// Unzips bins k and j = m − k of the packed real transform. With E/O the
/// transforms of the even/odd samples, Z_k = E_k + i·O_k and Hermitian
/// symmetry gives E_k = (Z_k + conj(Z_j))/2, O_k = (Z_k − conj(Z_j))/(2i),
/// X_k = E_k + w_n^k·O_k and X_j = conj(E_k) + w_n^j·conj(O_k).
#[inline(always)]
fn unzip_pair(zk: Complex, zj: Complex, wk: Complex, wj: Complex) -> (Complex, Complex) {
    let e = (zk + zj.conj()).scale(0.5);
    let o = (zk - zj.conj()) * Complex::new(0.0, -0.5);
    (e + wk * o, e.conj() + wj * o.conj())
}

/// `|X_k|²` for k = 0..=m from the transformed packed buffer (`re`/`im`
/// of length m) and the size-n twiddles `w_n^k`, k < m. The bins arrive
/// split at the middle, `lo` = 0..=m/2 and `hi` = m/2+1..=m, as separate
/// arguments: the compiler can then prove the two halves disjoint and
/// vectorize the loop that fills them from both ends.
#[inline(never)]
fn unzip_power(
    re: &[f64],
    im: &[f64],
    tw_re: &[f64],
    tw_im: &[f64],
    lo: &mut [f64],
    hi: &mut [f64],
) {
    let m = re.len();
    let q = m / 2;
    let (lo, hi) = (&mut lo[..=q], &mut hi[..m - q]);
    lo[0] = Complex::from_real(re[0] + im[0]).norm_sqr();
    hi[m - q - 1] = Complex::from_real(re[0] - im[0]).norm_sqr();
    if q == 0 {
        return;
    }
    // Bins k = 1..q pair with j = m − k, from m−1 down to q+1. Slicing
    // both halves to the same length q − 1 lets the loop run check-free.
    let n = q - 1;
    let (p_lo, p_hi) = (&mut lo[1..q], &mut hi[..n]);
    let (k_re, k_im, k_wr, k_wi) = (&re[1..q], &im[1..q], &tw_re[1..q], &tw_im[1..q]);
    let (j_re, j_im, j_wr, j_wi) =
        (&re[q + 1..m], &im[q + 1..m], &tw_re[q + 1..m], &tw_im[q + 1..m]);
    for i in 0..n {
        let r = n - 1 - i;
        let (xk, xj) = unzip_pair(
            Complex::new(k_re[i], k_im[i]),
            Complex::new(j_re[r], j_im[r]),
            Complex::new(k_wr[i], k_wi[i]),
            Complex::new(j_wr[r], j_wi[r]),
        );
        p_lo[i] = xk.norm_sqr();
        p_hi[r] = xj.norm_sqr();
    }
    // k = j = m/2: the pair collapses to the single bin X_q.
    let zq = Complex::new(re[q], im[q]);
    let (xq, _) = unzip_pair(zq, zq, Complex::new(tw_re[q], tw_im[q]), Complex::ZERO);
    lo[q] = xq.norm_sqr();
}

/// Convenience one-shot forward FFT (plans internally).
pub fn fft(data: &mut [Complex]) {
    Fft::new(data.len()).forward(data);
}

/// Convenience one-shot inverse FFT (plans internally).
pub fn ifft(data: &mut [Complex]) {
    Fft::new(data.len()).inverse(data);
}

/// Naive O(n²) DFT used as a test oracle.
#[cfg(test)]
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                acc += x * Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: Complex, b: Complex, eps: f64) -> bool {
        (a.re - b.re).abs() < eps && (a.im - b.im).abs() < eps
    }

    /// The array-of-structs algorithm the split kernel replaced, kept as the
    /// bit-identity oracle: window, pack, swap permutation, radix-2 stages
    /// reading the size-n table at stride n/len, unzip, `norm_sqr`.
    fn reference_power(frame: &[f64], window: &[f64]) -> Vec<f64> {
        let n = frame.len();
        let windowed: Vec<f64> = frame.iter().zip(window).map(|(x, w)| x * w).collect();
        if n == 1 {
            return vec![Complex::from_real(windowed[0]).norm_sqr()];
        }
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let m = n / 2;
        let mut z: Vec<Complex> =
            windowed.chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect();
        z.push(Complex::ZERO);
        let rev = bit_reversal_table(m);
        for (i, &r) in rev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                z.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= m {
            let half = len / 2;
            let stride = n / len;
            for start in (0..m).step_by(len) {
                for k in 0..half {
                    let w = twiddles[k * stride];
                    let a = z[start + k];
                    let b = z[start + k + half] * w;
                    z[start + k] = a + b;
                    z[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        let z0 = z[0];
        z[0] = Complex::from_real(z0.re + z0.im);
        z[m] = Complex::from_real(z0.re - z0.im);
        let neg_half_i = Complex::new(0.0, -0.5);
        for k in 1..=m / 2 {
            let j = m - k;
            let (zk, zj) = (z[k], z[j]);
            let e = (zk + zj.conj()).scale(0.5);
            let o = (zk - zj.conj()) * neg_half_i;
            z[k] = e + twiddles[k] * o;
            if j != k {
                z[j] = e.conj() + twiddles[j] * o.conj();
            }
        }
        z.iter().map(|x| x.norm_sqr()).collect()
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft(&mut data);
        for z in &data {
            assert!(close(*z, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let bin = 5;
        let mut data: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (bin * j) as f64 / n as f64))
            .collect();
        fft(&mut data);
        for (k, z) in data.iter().enumerate() {
            if k == bin {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 4, 16, 128] {
            let input: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let expect = dft_naive(&input);
            let mut got = input.clone();
            fft(&mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!(close(*g, *e, 1e-8), "n={n}");
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 256;
        let original: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut data = original.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!(close(*a, *b, 1e-10));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 512;
        let input: Vec<Complex> =
            (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut data = input;
        fft(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn forward_real_matches_full_fft() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let plan = Fft::new(n);
        let half = plan.forward_real(&signal);
        assert_eq!(half.len(), n / 2 + 1);
        let mut full: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        plan.forward(&mut full);
        for (k, z) in half.iter().enumerate() {
            assert!(close(*z, full[k], 1e-10));
        }
        // Hermitian symmetry of the real transform.
        for k in 1..n / 2 {
            assert!(close(full[n - k], full[k].conj(), 1e-9));
        }
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Fft::new(1);
        let mut data = vec![Complex::new(3.0, 4.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
    }

    #[test]
    fn is_empty_only_for_degenerate_plan() {
        assert!(Fft::new(1).is_empty());
        assert!(!Fft::new(2).is_empty());
        assert!(!Fft::new(2048).is_empty());
        assert_eq!(Fft::new(2048).len(), 2048);
    }

    #[test]
    fn forward_real_tiny_sizes() {
        // n = 1: identity. n = 2: [x0+x1, x0−x1]. n = 4 checked by hand.
        assert_eq!(Fft::new(1).forward_real(&[5.0]), vec![Complex::from_real(5.0)]);
        let two = Fft::new(2).forward_real(&[3.0, 1.0]);
        assert!(close(two[0], Complex::from_real(4.0), 1e-12));
        assert!(close(two[1], Complex::from_real(2.0), 1e-12));
        let four = Fft::new(4).forward_real(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(four[0], Complex::from_real(10.0), 1e-12));
        assert!(close(four[1], Complex::new(-2.0, 2.0), 1e-12));
        assert!(close(four[2], Complex::from_real(-2.0), 1e-12));
    }

    #[test]
    fn forward_real_into_reuses_buffer() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 64;
        let plan = Fft::new(n);
        let mut out = vec![Complex::new(9.9, 9.9); n / 2 + 1];
        for _ in 0..3 {
            let signal: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            plan.forward_real_into(&signal, &mut out);
            let fresh = plan.forward_real(&signal);
            for (a, b) in out.iter().zip(&fresh) {
                assert!(close(*a, *b, 1e-15));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = Fft::new(8);
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn scratch_columns_start_on_a_cache_line() {
        // Fresh scratches of several sizes land at several heap offsets;
        // every column must still start on a 64-byte boundary.
        let mut keep = Vec::new();
        for m in [1, 3, 8, 100, 1024, 1024, 1024, 4096] {
            let mut scratch = FftScratch::default();
            let (re, im) = scratch.columns(m);
            assert_eq!((re.len(), im.len()), (m, m));
            assert_eq!(re.as_ptr() as usize % 64, 0, "re column of m = {m}");
            assert_eq!(im.as_ptr() as usize % 64, 0, "im column of m = {m}");
            keep.push(scratch);
        }
    }

    #[test]
    fn linearity() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 64;
        let a: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        plan.forward(&mut sum);
        for k in 0..n {
            assert!(close(sum[k], fa[k] + fb[k], 1e-9));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]
            #[test]
            fn round_trip_any_signal(values in proptest::collection::vec(-1.0f64..1.0, 64)) {
                let original: Vec<Complex> = values.iter().map(|&x| Complex::from_real(x)).collect();
                let mut data = original.clone();
                fft(&mut data);
                ifft(&mut data);
                for (a, b) in data.iter().zip(&original) {
                    prop_assert!((a.re - b.re).abs() < 1e-9);
                    prop_assert!(a.im.abs() < 1e-9);
                }
            }

            /// The split kernel's power spectrum is bit-for-bit the
            /// array-of-structs reference's, at every size from 1 to 4096.
            #[test]
            fn windowed_power_is_bit_identical_to_the_reference(
                values in proptest::collection::vec(-1.0f64..1.0, 4096),
                bits in 0u32..13,
            ) {
                let n = 1usize << bits;
                let frame = &values[..n];
                let window = crate::window::WindowKind::Hann.coefficients(n);
                let mut power = vec![f64::NAN; n / 2 + 1];
                Fft::new(n).windowed_power_into(
                    frame, &window, &mut FftScratch::default(), &mut power,
                );
                let expect = reference_power(frame, &window);
                for (k, (got, want)) in power.iter().zip(&expect).enumerate() {
                    prop_assert_eq!(
                        got.to_bits(), want.to_bits(),
                        "bin {} of n={}: {} vs {}", k, n, got, want
                    );
                }
            }

            /// The packed real-input transform agrees with the full complex
            /// FFT on random signals at every power-of-two size in range.
            #[test]
            fn real_fft_matches_complex_fft(
                values in proptest::collection::vec(-1.0f64..1.0, 256),
                bits in 0u32..9,
            ) {
                let n = 1usize << bits;
                let signal = &values[..n];
                let plan = Fft::new(n);
                let half = plan.forward_real(signal);
                let mut full: Vec<Complex> =
                    signal.iter().map(|&x| Complex::from_real(x)).collect();
                plan.forward(&mut full);
                prop_assert_eq!(half.len(), n / 2 + 1);
                for (k, z) in half.iter().enumerate() {
                    prop_assert!(
                        (z.re - full[k].re).abs() < 1e-9 && (z.im - full[k].im).abs() < 1e-9,
                        "bin {} of n={}: packed {:?} vs full {:?}", k, n, z, full[k]
                    );
                }
            }
        }
    }
}
