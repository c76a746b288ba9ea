//! Post-training quantization and int8 integer inference.
//!
//! Energy-constrained edge inference commonly quantizes weights to 8 bits;
//! on a Raspberry-Pi-class device this shrinks the model and enables
//! integer arithmetic. [`QuantizedResNetLite`] is a true integer engine:
//! per-channel symmetric int8 weights, activations quantized on the fly
//! during im2col, an i8×i8→i32 GEMM kernel, and a per-channel rescale back
//! to f64 at each layer output. Activation scales come from a one-shot
//! calibration pass over a sample corpus; the f32 network stays around as
//! the accuracy oracle.
//!
//! The integer accumulation is *exact*: a fan-in of `F` taps bounds
//! `|acc| ≤ F·127²`, so any layer with `F ≤ 133 000` fits an `i32` with
//! no saturation (asserted at construction). The only error versus a
//! dequantized-f64 reference is the final `bias + s_w·s_x·acc` rounding,
//! which the parity proptest pins to ≤1e-9 relative.
//!
//! Batched inference ([`QuantizedResNetLite::forward_batch`]) fans clips
//! over the persistent worker pool in a fixed number of lanes derived
//! only from the batch length — never the worker count — with one
//! [`ClipScratch`] arena per lane, so results are bit-identical at any
//! `RAYON_NUM_THREADS` and steady-state forward allocates nothing.

use crate::nn::conv::{Conv2d, ConvScratch};
use crate::nn::layers::{global_avg_pool, relu, Dense};
use crate::nn::resnet::ResNetLite;
use crate::tensor::FeatureMap;

/// Largest representable int8 magnitude on the symmetric grid.
pub const Q_MAX_I8: i32 = 127;

/// Lanes used by [`QuantizedResNetLite::forward_batch`]. The lane count
/// is `min(batch_len, MAX_BATCH_LANES)` — a function of the batch alone,
/// so the clip→lane assignment (and therefore every result bit) is
/// independent of how many pool workers execute the lanes.
pub const MAX_BATCH_LANES: usize = 8;

/// K-dimension panel width of the blocked int8 GEMM. Wider than the f64
/// kernel's panel because int8 weight rows are 8× smaller.
const GEMM_KB_I8: usize = 128;

/// Saturating round-to-nearest int8 quantization by reciprocal scale —
/// the activation quantizer of the hot path. Rounds half away from zero
/// via shift-and-truncate rather than `f64::round` (a libm call that
/// blocks autovectorization of the plane-quantization loop). The
/// reference (dequantized) parity tests call the same function, so both
/// sides see identical grids.
#[inline]
pub(crate) fn quantize_sat_i8(v: f64, inv_scale: f64) -> i8 {
    let q = v * inv_scale;
    let r = q + if q >= 0.0 { 0.5 } else { -0.5 };
    (r as i32).clamp(-Q_MAX_I8, Q_MAX_I8) as i8
}

fn max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |a, &v| a.max(v.abs()))
}

fn scale_for(range: f64) -> f64 {
    if range > 0.0 {
        range / Q_MAX_I8 as f64
    } else {
        1.0
    }
}

/// Quantizes one `[fan_in]`-long weight row to int8 at its own symmetric
/// scale; returns the scale.
fn quantize_weight_row(row: &[f64], out: &mut Vec<i8>) -> f64 {
    let scale = scale_for(max_abs(row));
    let inv = 1.0 / scale;
    out.extend(row.iter().map(|&v| quantize_sat_i8(v, inv)));
    scale
}

/// Blocked int8 GEMM: `acc[oc][p] = Σ_f w[oc][f] · qcols[f][p]` in exact
/// i32 arithmetic, panelled over the K dimension like the f64 kernel.
fn gemm_i8(
    weights: &[i8],
    out_c: usize,
    fan_in: usize,
    qcols: &[i8],
    n_patch: usize,
    acc: &mut [i32],
) {
    acc.fill(0);
    let mut f0 = 0;
    while f0 < fan_in {
        let f1 = (f0 + GEMM_KB_I8).min(fan_in);
        for oc in 0..out_c {
            let arow = &mut acc[oc * n_patch..(oc + 1) * n_patch];
            for f in f0..f1 {
                let wv = i32::from(weights[oc * fan_in + f]);
                if wv == 0 {
                    continue;
                }
                let crow = &qcols[f * n_patch..(f + 1) * n_patch];
                for (a, &c) in arow.iter_mut().zip(crow) {
                    *a += wv * i32::from(c);
                }
            }
        }
        f0 = f1;
    }
}

/// A convolution whose weights live on per-output-channel symmetric int8
/// grids, with the input activation grid fixed by calibration.
#[derive(Clone, Debug)]
pub struct QuantizedConv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Packed int8 weights, `[out_c][fan_in]` row-major — each GEMM row is
    /// one contiguous 1-byte-per-tap panel.
    weights_i8: Vec<i8>,
    /// Per-output-channel weight scales.
    w_scales: Vec<f64>,
    /// Biases stay in f64.
    bias: Vec<f64>,
    /// Input activation scale (per tensor, from calibration).
    x_scale: f64,
    inv_x_scale: f64,
}

impl QuantizedConv2d {
    /// Quantizes `conv`'s weights per channel; `x_range` is the calibrated
    /// maximum absolute input activation.
    pub fn from_conv(conv: &Conv2d, x_range: f64) -> Self {
        let fan_in = conv.in_c * conv.k * conv.k;
        assert!(
            (fan_in as i64) * (Q_MAX_I8 as i64).pow(2) < i64::from(i32::MAX),
            "fan-in {fan_in} could overflow the i32 accumulator"
        );
        let mut weights_i8 = Vec::with_capacity(conv.out_c * fan_in);
        let mut w_scales = Vec::with_capacity(conv.out_c);
        for row in conv.weights.chunks_exact(fan_in) {
            w_scales.push(quantize_weight_row(row, &mut weights_i8));
        }
        let x_scale = scale_for(x_range);
        QuantizedConv2d {
            in_c: conv.in_c,
            out_c: conv.out_c,
            k: conv.k,
            stride: conv.stride,
            pad: conv.pad,
            weights_i8,
            w_scales,
            bias: conv.bias.clone(),
            x_scale,
            inv_x_scale: 1.0 / x_scale,
        }
    }

    /// Output spatial size for an input of `(h, w)` — same contract as
    /// [`Conv2d::output_size`].
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad >= self.k && w + 2 * self.pad >= self.k,
            "input {h}x{w} too small for kernel {} with padding {}",
            self.k,
            self.pad
        );
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Output channel count.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// The calibrated activation scale.
    pub fn x_scale(&self) -> f64 {
        self.x_scale
    }

    /// Per-channel weight scales.
    pub fn w_scales(&self) -> &[f64] {
        &self.w_scales
    }

    /// The packed int8 weight rows.
    pub fn weights_i8(&self) -> &[i8] {
        &self.weights_i8
    }

    /// Quantizes one activation onto this layer's input grid.
    pub fn quantize_activation(&self, v: f64) -> i8 {
        quantize_sat_i8(v, self.inv_x_scale)
    }

    /// Weight bytes of the packed layout.
    pub fn weight_bytes(&self) -> usize {
        self.weights_i8.len()
    }

    /// Quantizes a whole `in_c × h × w` activation plane onto this
    /// layer's input grid in one vectorizable pass. Each input sample is
    /// quantized exactly once here; the im2col unroll that replicates it
    /// under up to `k·k` kernel taps then moves plain bytes.
    pub(crate) fn quantize_plane(&self, data: &[f64], qplane: &mut Vec<i8>) {
        qplane.clear();
        qplane.resize(data.len(), 0);
        let inv = self.inv_x_scale;
        for (q, &v) in qplane.iter_mut().zip(data) {
            *q = quantize_sat_i8(v, inv);
        }
    }

    /// im2col over the *already quantized* plane: row
    /// `f = (ic·k + ky)·k + kx` of the `fan_in × (oh·ow)` patch matrix
    /// holds the int8 sample under kernel tap `(ic, ky, kx)`, zero where
    /// the tap falls in padding (the symmetric grid's zero-point). Same
    /// geometry as the f64 [`Conv2d`] unroll, but every move is a byte
    /// copy.
    fn im2col_i8(
        &self,
        qplane: &[i8],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        qcols: &mut Vec<i8>,
    ) {
        let n_patch = oh * ow;
        qcols.clear();
        qcols.resize(self.in_c * self.k * self.k * n_patch, 0);
        for ic in 0..self.in_c {
            let chan = &qplane[ic * h * w..(ic + 1) * h * w];
            for ky in 0..self.k {
                let off_y = ky as isize - self.pad as isize;
                for kx in 0..self.k {
                    let off_x = kx as isize - self.pad as isize;
                    let f = (ic * self.k + ky) * self.k + kx;
                    let row = &mut qcols[f * n_patch..(f + 1) * n_patch];
                    let ox_lo =
                        if off_x >= 0 { 0 } else { ((-off_x) as usize).div_ceil(self.stride) };
                    let ox_hi = if (w as isize) <= off_x {
                        0
                    } else {
                        (((w as isize - 1 - off_x) as usize) / self.stride + 1).min(ow)
                    };
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    for oy in 0..oh {
                        let iy = oy as isize * self.stride as isize + off_y;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src = &chan[iy as usize * w..(iy as usize + 1) * w];
                        let dst = &mut row[oy * ow..(oy + 1) * ow];
                        if self.stride == 1 {
                            let ix0 = (ox_lo as isize + off_x) as usize;
                            dst[ox_lo..ox_hi].copy_from_slice(&src[ix0..ix0 + (ox_hi - ox_lo)]);
                        } else {
                            for (ox, d) in dst[..ox_hi].iter_mut().enumerate().skip(ox_lo) {
                                *d = src[(ox as isize * self.stride as isize + off_x) as usize];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Integer forward pass: plane quantization, byte-copy im2col, int8
    /// GEMM, then a per-channel rescale
    /// `out[oc][p] = bias[oc] + s_w[oc]·s_x·acc` with an optionally fused
    /// ReLU. `out` is resized to `out_c·oh·ow`; all buffers reuse their
    /// capacity on warm calls.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_into(
        &self,
        data: &[f64],
        h: usize,
        w: usize,
        qplane: &mut Vec<i8>,
        qcols: &mut Vec<i8>,
        acc: &mut Vec<i32>,
        out: &mut Vec<f64>,
        fuse_relu: bool,
    ) -> (usize, usize) {
        assert_eq!(data.len(), self.in_c * h * w, "input shape mismatch");
        self.quantize_plane(data, qplane);
        self.forward_quantized(qplane, h, w, qcols, acc, out, fuse_relu)
    }

    /// [`QuantizedConv2d::forward_into`] from a plane already on this
    /// layer's input grid — lets sibling layers that share a calibrated
    /// input range (a residual block's conv1 and its projection) quantize
    /// the plane once between them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_quantized(
        &self,
        qplane: &[i8],
        h: usize,
        w: usize,
        qcols: &mut Vec<i8>,
        acc: &mut Vec<i32>,
        out: &mut Vec<f64>,
        fuse_relu: bool,
    ) -> (usize, usize) {
        assert_eq!(qplane.len(), self.in_c * h * w, "input shape mismatch");
        let (oh, ow) = self.output_size(h, w);
        let n_patch = oh * ow;
        self.im2col_i8(qplane, h, w, oh, ow, qcols);
        acc.clear();
        acc.resize(self.out_c * n_patch, 0);
        let fan_in = self.in_c * self.k * self.k;
        gemm_i8(&self.weights_i8, self.out_c, fan_in, qcols, n_patch, acc);
        out.clear();
        out.resize(self.out_c * n_patch, 0.0);
        for oc in 0..self.out_c {
            let s = self.w_scales[oc] * self.x_scale;
            let b = self.bias[oc];
            let arow = &acc[oc * n_patch..(oc + 1) * n_patch];
            let orow = &mut out[oc * n_patch..(oc + 1) * n_patch];
            if fuse_relu {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = (b + s * f64::from(a)).max(0.0);
                }
            } else {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = b + s * f64::from(a);
                }
            }
        }
        (oh, ow)
    }
}

/// A dense head on a per-output-row symmetric int8 grid.
#[derive(Clone, Debug)]
pub struct QuantizedDense {
    in_dim: usize,
    out_dim: usize,
    weights_i8: Vec<i8>,
    w_scales: Vec<f64>,
    bias: Vec<f64>,
    x_scale: f64,
    inv_x_scale: f64,
}

impl QuantizedDense {
    /// Quantizes `dense`'s weights per output row; `x_range` is the
    /// calibrated maximum absolute input.
    pub fn from_dense(dense: &Dense, x_range: f64) -> Self {
        let mut weights_i8 = Vec::with_capacity(dense.weights.len());
        let mut w_scales = Vec::with_capacity(dense.out_dim);
        for row in dense.weights.chunks_exact(dense.in_dim) {
            w_scales.push(quantize_weight_row(row, &mut weights_i8));
        }
        let x_scale = scale_for(x_range);
        QuantizedDense {
            in_dim: dense.in_dim,
            out_dim: dense.out_dim,
            weights_i8,
            w_scales,
            bias: dense.bias.clone(),
            x_scale,
            inv_x_scale: 1.0 / x_scale,
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight bytes of the packed layout.
    pub fn weight_bytes(&self) -> usize {
        self.weights_i8.len()
    }

    /// Integer forward: quantizes `x` into `qvec`, then one exact i32 dot
    /// product per output row, rescaled to f64.
    pub fn forward_into(&self, x: &[f64], qvec: &mut Vec<i8>, out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "dense input dimension mismatch");
        assert_eq!(out.len(), self.out_dim, "dense output dimension mismatch");
        qvec.clear();
        qvec.extend(x.iter().map(|&v| quantize_sat_i8(v, self.inv_x_scale)));
        for (o, (row, (&s, &b))) in out.iter_mut().zip(
            self.weights_i8
                .chunks_exact(self.in_dim)
                .zip(self.w_scales.iter().zip(self.bias.iter())),
        ) {
            let acc: i32 =
                row.iter().zip(qvec.iter()).map(|(&w, &q)| i32::from(w) * i32::from(q)).sum();
            *o = b + s * self.x_scale * f64::from(acc);
        }
    }
}

/// Per-clip scratch arena: the quantized patch matrix, the i32
/// accumulator, ping-pong f64 activation planes, the projection/skip
/// buffer, and the pooled/quantized head inputs. After the first clip of
/// a given geometry every buffer is capacity-warm, so steady-state
/// forward is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ClipScratch {
    qplane: Vec<i8>,
    qcols: Vec<i8>,
    acc: Vec<i32>,
    a: Vec<f64>,
    b: Vec<f64>,
    t: Vec<f64>,
    skip: Vec<f64>,
    pooled: Vec<f64>,
    qvec: Vec<i8>,
}

/// Caller-held scratch for [`QuantizedResNetLite`]: one [`ClipScratch`]
/// lane per parallel worker slot of a batched forward.
#[derive(Clone, Debug, Default)]
pub struct QuantScratch {
    lanes: Vec<ClipScratch>,
}

impl QuantScratch {
    fn ensure_lanes(&mut self, n: usize) {
        if self.lanes.len() < n {
            self.lanes.resize_with(n, ClipScratch::default);
        }
    }
}

/// One quantized residual block.
#[derive(Clone, Debug)]
struct QuantBlock {
    conv1: QuantizedConv2d,
    conv2: QuantizedConv2d,
    projection: Option<QuantizedConv2d>,
}

/// The int8 residual classifier: per-channel int8 weights, calibrated
/// activation grids, integer GEMM throughout, f64 only between layers.
#[derive(Clone, Debug)]
pub struct QuantizedResNetLite {
    stem: QuantizedConv2d,
    blocks: Vec<QuantBlock>,
    fc: QuantizedDense,
    n_classes: usize,
    telemetry: pb_telemetry::Telemetry,
}

impl QuantizedResNetLite {
    /// One-shot calibration + quantization. Runs the f32 `net` forward
    /// over `calib` recording the maximum absolute input activation of
    /// every convolution and the dense head, fixes each layer's
    /// activation grid to that range, and quantizes all weights per
    /// channel to int8. The f32 network is untouched — it remains the
    /// accuracy oracle.
    pub fn quantize(net: &ResNetLite, calib: &[FeatureMap]) -> Self {
        assert!(!calib.is_empty(), "calibration corpus must be non-empty");
        let nb = net.blocks.len();
        let mut stem_in = 0.0f64;
        let mut block_in = vec![0.0f64; nb];
        let mut r1_in = vec![0.0f64; nb];
        let mut fc_in = 0.0f64;
        let mut scratch = ConvScratch::default();
        for x in calib {
            stem_in = stem_in.max(max_abs(x.data()));
            let mut cur = relu(&net.stem.forward_with_scratch(x, &mut scratch));
            for (i, blk) in net.blocks.iter().enumerate() {
                block_in[i] = block_in[i].max(max_abs(cur.data()));
                let r1 = relu(&blk.conv1.forward_with_scratch(&cur, &mut scratch));
                r1_in[i] = r1_in[i].max(max_abs(r1.data()));
                let a2 = blk.conv2.forward_with_scratch(&r1, &mut scratch);
                let skip = match &blk.projection {
                    Some(p) => p.forward_with_scratch(&cur, &mut scratch),
                    None => cur.clone(),
                };
                cur = relu(&a2.add(&skip));
            }
            fc_in = fc_in.max(max_abs(&global_avg_pool(&cur)));
        }

        let stem = QuantizedConv2d::from_conv(&net.stem, stem_in);
        let blocks = net
            .blocks
            .iter()
            .enumerate()
            .map(|(i, blk)| QuantBlock {
                conv1: QuantizedConv2d::from_conv(&blk.conv1, block_in[i]),
                conv2: QuantizedConv2d::from_conv(&blk.conv2, r1_in[i]),
                projection: blk
                    .projection
                    .as_ref()
                    .map(|p| QuantizedConv2d::from_conv(p, block_in[i])),
            })
            .collect();
        let fc = QuantizedDense::from_dense(&net.fc, fc_in);
        QuantizedResNetLite {
            stem,
            blocks,
            fc,
            n_classes: net.fc.out_dim,
            telemetry: pb_telemetry::Telemetry::disabled(),
        }
    }

    /// Times every int8 inference into `telemetry` as the
    /// `cnn.forward.int8` wall-time histogram and publishes batch sizes
    /// on the `quant.batch.size` gauge. Logits are unchanged.
    pub fn with_telemetry(mut self, telemetry: pb_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total packed int8 weight bytes (biases and scales excluded) —
    /// 1/8 of the f64 weight footprint.
    pub fn weight_bytes(&self) -> usize {
        self.stem.weight_bytes()
            + self
                .blocks
                .iter()
                .map(|b| {
                    b.conv1.weight_bytes()
                        + b.conv2.weight_bytes()
                        + b.projection.as_ref().map_or(0, QuantizedConv2d::weight_bytes)
                })
                .sum::<usize>()
            + self.fc.weight_bytes()
    }

    /// Single-clip integer forward pass producing class logits.
    pub fn forward(&self, x: &FeatureMap, scratch: &mut QuantScratch) -> Vec<f64> {
        let _span = self.telemetry.span("cnn.forward.int8");
        self.telemetry.set_gauge("quant.batch.size", 1.0);
        scratch.ensure_lanes(1);
        let mut out = vec![0.0; self.n_classes];
        self.forward_clip(x, &mut scratch.lanes[0], &mut out);
        out
    }

    /// Predicted class of an input.
    pub fn predict(&self, x: &FeatureMap, scratch: &mut QuantScratch) -> usize {
        let logits = self.forward(x, scratch);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Batched integer forward over `clips`; returns one logit vector per
    /// clip, in order. Clips fan out over the persistent pool in
    /// [`MAX_BATCH_LANES`]-bounded lanes; each lane owns one
    /// [`ClipScratch`], and the clip→lane split depends only on
    /// `clips.len()`, so logits are bit-identical to a serial loop at any
    /// worker count.
    pub fn forward_batch(&self, clips: &[FeatureMap], scratch: &mut QuantScratch) -> Vec<Vec<f64>> {
        let mut flat = vec![0.0; clips.len() * self.n_classes];
        self.forward_batch_into(clips, scratch, &mut flat);
        flat.chunks(self.n_classes.max(1)).map(|c| c.to_vec()).collect()
    }

    /// Allocation-free batched forward: logits land in `out` as
    /// `clips.len() × n_classes` row-major.
    pub fn forward_batch_into(
        &self,
        clips: &[FeatureMap],
        scratch: &mut QuantScratch,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), clips.len() * self.n_classes, "output buffer shape mismatch");
        if clips.is_empty() {
            return;
        }
        let _span = self.telemetry.span("cnn.forward.int8");
        self.telemetry.set_gauge("quant.batch.size", clips.len() as f64);
        let n_lanes = clips.len().min(MAX_BATCH_LANES);
        scratch.ensure_lanes(n_lanes);
        let per = clips.len().div_ceil(n_lanes);
        let n_classes = self.n_classes;
        rayon::scope(|s| {
            for ((chunk, ochunk), lane) in
                clips.chunks(per).zip(out.chunks_mut(per * n_classes)).zip(scratch.lanes.iter_mut())
            {
                s.spawn(move |_| {
                    for (clip, o) in chunk.iter().zip(ochunk.chunks_mut(n_classes)) {
                        self.forward_clip(clip, lane, o);
                    }
                });
            }
        });
    }

    /// Runs one clip through stem → blocks → GAP → head entirely within
    /// `s`'s buffers, writing logits to `out`.
    fn forward_clip(&self, x: &FeatureMap, s: &mut ClipScratch, out: &mut [f64]) {
        let ClipScratch { qplane, qcols, acc, a, b, t, skip, pooled, qvec } = s;
        let (mut h, mut w) = (x.height(), x.width());
        let (oh, ow) = self.stem.forward_into(x.data(), h, w, qplane, qcols, acc, a, true);
        (h, w) = (oh, ow);
        let mut c = self.stem.out_c();
        for blk in &self.blocks {
            // conv1 and the projection share the block-input grid, so the
            // plane is quantized once and fed to both.
            blk.conv1.quantize_plane(a, qplane);
            let (h1, w1) = blk.conv1.forward_quantized(qplane, h, w, qcols, acc, b, true);
            if let Some(p) = &blk.projection {
                debug_assert_eq!(
                    p.x_scale(),
                    blk.conv1.x_scale(),
                    "projection must share conv1's input grid"
                );
                p.forward_quantized(qplane, h, w, qcols, acc, skip, false);
            }
            let (h2, w2) = blk.conv2.forward_into(b, h1, w1, qplane, qcols, acc, t, false);
            match &blk.projection {
                Some(_) => {
                    for (tv, &sv) in t.iter_mut().zip(skip.iter()) {
                        *tv = (*tv + sv).max(0.0);
                    }
                }
                None => {
                    debug_assert_eq!((h, w), (h2, w2), "identity skip needs matching shape");
                    for (tv, &av) in t.iter_mut().zip(a.iter()) {
                        *tv = (*tv + av).max(0.0);
                    }
                }
            }
            std::mem::swap(a, t);
            (h, w) = (h2, w2);
            c = blk.conv2.out_c();
        }
        // Global average pooling from the final activation plane.
        pooled.clear();
        let plane = h * w;
        let inv = 1.0 / plane as f64;
        pooled.extend(a.chunks_exact(plane).take(c).map(|ch| ch.iter().sum::<f64>() * inv));
        self.fc.forward_into(pooled, qvec, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::resnet::{ResNetConfig, StageSpec};
    use crate::tensor::FeatureMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_net() -> ResNetLite {
        ResNetLite::new(ResNetConfig {
            input_channels: 1,
            base_width: 4,
            stages: vec![
                StageSpec { channels: 4, stride: 1 },
                StageSpec { channels: 8, stride: 2 },
            ],
            n_classes: 2,
            seed: 5,
        })
    }

    fn random_clip(side: usize, seed: u64) -> FeatureMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..side * side).map(|_| rng.gen_range(0.0..1.0)).collect();
        FeatureMap::from_vec(1, side, side, data)
    }

    // --- int8 engine ---

    fn calib_corpus(side: usize) -> Vec<FeatureMap> {
        (0..6u64).map(|s| random_clip(side, 900 + s)).collect()
    }

    /// Dequantized-f64 reference for one quantized conv: rebuild an f64
    /// `Conv2d` from the dequantized int8 weights and feed it the
    /// dequantized int8 activations; the integer path must match to
    /// floating-point rounding (the i32 accumulation itself is exact).
    fn dequantized_reference(q: &QuantizedConv2d, conv: &Conv2d, x: &FeatureMap) -> FeatureMap {
        let fan_in = conv.in_c * conv.k * conv.k;
        let weights: Vec<f64> = q
            .weights_i8()
            .iter()
            .enumerate()
            .map(|(i, &wq)| f64::from(wq) * q.w_scales()[i / fan_in])
            .collect();
        let deq_conv = Conv2d { weights, ..conv.clone() };
        let deq_x = FeatureMap::from_vec(
            x.channels(),
            x.height(),
            x.width(),
            x.data().iter().map(|&v| f64::from(q.quantize_activation(v)) * q.x_scale()).collect(),
        );
        deq_conv.forward_direct(&deq_x)
    }

    #[test]
    fn int8_conv_matches_dequantized_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for (i, &(in_c, out_c, k, stride, pad, h, w)) in [
            (1usize, 1usize, 1usize, 1usize, 0usize, 5usize, 5usize),
            (1, 4, 3, 1, 1, 8, 8),
            (3, 8, 3, 2, 1, 9, 7),
            (2, 3, 5, 1, 2, 6, 11),
        ]
        .iter()
        .enumerate()
        {
            let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
            for b in conv.bias.iter_mut() {
                *b = rng.gen_range(-0.5..0.5);
            }
            let data: Vec<f64> = (0..in_c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = FeatureMap::from_vec(in_c, h, w, data);
            let q = QuantizedConv2d::from_conv(&conv, max_abs(x.data()));

            let (mut qplane, mut qcols) = (Vec::new(), Vec::new());
            let (mut acc, mut out) = (Vec::new(), Vec::new());
            let (oh, ow) =
                q.forward_into(x.data(), h, w, &mut qplane, &mut qcols, &mut acc, &mut out, false);
            let reference = dequantized_reference(&q, &conv, &x);
            assert_eq!((out_c, oh, ow), reference.shape(), "case {i}");
            for (j, (&a, &b)) in out.iter().zip(reference.data()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "case {i} elem {j}: int8 {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn quantized_resnet_tracks_float_oracle() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(10));
        let mut scratch = QuantScratch::default();
        let mut agree = 0;
        for s in 0..20u64 {
            let x = random_clip(10, 500 + s);
            let fl = net.forward(&x);
            let il = q.forward(&x, &mut scratch);
            assert_eq!(fl.len(), il.len());
            for (a, b) in fl.iter().zip(&il) {
                assert!((a - b).abs() < 0.25, "logits drifted: f32 {a} vs int8 {b}");
            }
            if net.predict(&x) == q.predict(&x, &mut scratch) {
                agree += 1;
            }
        }
        assert!(agree >= 18, "only {agree}/20 predictions agree");
        // Packed weights are one byte per f64 weight — 1/8 the footprint.
        let n_weights: usize = net.clone().weight_tensors_mut().iter().map(|t| t.len()).sum();
        assert_eq!(q.weight_bytes(), n_weights);
    }

    #[test]
    fn batch_forward_is_bitwise_identical_to_the_loop() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(12));
        let clips: Vec<FeatureMap> = (0..13u64).map(|s| random_clip(12, 700 + s)).collect();
        let mut scratch = QuantScratch::default();
        let batched = q.forward_batch(&clips, &mut scratch);
        for (i, clip) in clips.iter().enumerate() {
            let single = q.forward(clip, &mut scratch);
            assert_eq!(batched[i], single, "clip {i} diverged from the serial loop");
        }
    }

    #[test]
    fn batch_forward_is_thread_count_invariant() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(12));
        let clips: Vec<FeatureMap> = (0..11u64).map(|s| random_clip(12, 800 + s)).collect();
        let runs: Vec<Vec<Vec<f64>>> = [1usize, 2, 4]
            .iter()
            .map(|&cap| {
                rayon::pool::with_thread_cap(cap, || {
                    let mut scratch = QuantScratch::default();
                    q.forward_batch(&clips, &mut scratch)
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 4 workers");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(10));
        let mut scratch = QuantScratch::default();
        assert!(q.forward_batch(&[], &mut scratch).is_empty());
    }

    #[test]
    fn telemetry_records_int8_spans_and_batch_gauge() {
        let tel = pb_telemetry::Telemetry::metrics_only();
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(10)).with_telemetry(tel.clone());
        let clips: Vec<FeatureMap> = (0..5u64).map(|s| random_clip(10, 60 + s)).collect();
        let mut scratch = QuantScratch::default();
        let _ = q.forward_batch(&clips, &mut scratch);
        let _ = q.forward(&clips[0], &mut scratch);
        let snap = tel.snapshot();
        let h = snap.histogram("cnn.forward.int8").cloned().expect("span recorded");
        assert_eq!(h.count, 2);
        let g = snap.gauge("quant.batch.size").expect("gauge set");
        assert_eq!(g, 1.0); // last write was the single-clip forward
    }

    #[test]
    fn warm_forward_is_allocation_free_in_capacity() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(12));
        let mut scratch = QuantScratch::default();
        let x = random_clip(12, 1);
        let _ = q.forward(&x, &mut scratch);
        let caps = |s: &QuantScratch| {
            let l = &s.lanes[0];
            (
                l.qcols.capacity(),
                l.acc.capacity(),
                l.a.capacity(),
                l.b.capacity(),
                l.t.capacity(),
                l.skip.capacity(),
            )
        };
        let warm = caps(&scratch);
        for s in 0..4u64 {
            let x = random_clip(12, 2 + s);
            let _ = q.forward(&x, &mut scratch);
        }
        assert_eq!(caps(&scratch), warm, "warm int8 forward grew a scratch buffer");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]
            #[test]
            fn int8_gemm_parity_with_dequantized_reference(
                in_c in 1usize..4,
                out_c in 1usize..4,
                k in 1usize..4,
                stride in 1usize..3,
                pad in 0usize..3,
                extra_h in 0usize..5,
                extra_w in 0usize..5,
                seed in 0u64..1_000_000,
            ) {
                let h = k + extra_h;
                let w = k + extra_w;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
                for b in conv.bias.iter_mut() {
                    *b = rng.gen_range(-0.5..0.5);
                }
                let data: Vec<f64> =
                    (0..in_c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x = FeatureMap::from_vec(in_c, h, w, data);
                let q = QuantizedConv2d::from_conv(&conv, max_abs(x.data()));
                let (mut qplane, mut qcols) = (Vec::new(), Vec::new());
                let (mut acc, mut out) = (Vec::new(), Vec::new());
                let _ = q.forward_into(
                    x.data(), h, w, &mut qplane, &mut qcols, &mut acc, &mut out, false,
                );
                let reference = dequantized_reference(&q, &conv, &x);
                for (a, b) in out.iter().zip(reference.data()) {
                    prop_assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "int8 {} vs reference {}", a, b
                    );
                }
            }
        }
    }
}
