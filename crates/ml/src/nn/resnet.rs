//! A residual CNN ("ResNet-lite").
//!
//! The paper classifies spectrogram images with ResNet18. ResNet18's
//! defining structure — a convolutional stem, stages of residual blocks
//! with stride-2 downsampling and channel doubling, global average pooling
//! and a linear head — is reproduced here with the depth and width scaled
//! to the synthetic task, so that accuracy-vs-input-size (Figure 5) and
//! FLOP-derived energy keep the same shape without hours of training.

use super::conv::{Conv2d, ConvScratch};
use super::layers::{
    global_avg_pool, global_avg_pool_backward, relu, relu_backward, softmax_cross_entropy, Dense,
};
use crate::tensor::FeatureMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One stage of the network: a residual block with the given output
/// channel count and input stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Output channels of the stage.
    pub channels: usize,
    /// Stride of the first convolution (2 halves the resolution).
    pub stride: usize,
}

/// Network architecture description.
#[derive(Clone, Debug)]
pub struct ResNetConfig {
    /// Input image channels (1 for spectrograms).
    pub input_channels: usize,
    /// Stem output channels.
    pub base_width: usize,
    /// Residual stages after the stem.
    pub stages: Vec<StageSpec>,
    /// Number of output classes.
    pub n_classes: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for ResNetConfig {
    /// The configuration used for the Figure 5 reproduction: stem of 8
    /// channels, three residual stages (8, 16↓, 32↓), two classes.
    fn default() -> Self {
        ResNetConfig {
            input_channels: 1,
            base_width: 8,
            stages: vec![
                StageSpec { channels: 8, stride: 1 },
                StageSpec { channels: 16, stride: 2 },
                StageSpec { channels: 32, stride: 2 },
            ],
            n_classes: 2,
            seed: 0xCAFE,
        }
    }
}

/// A residual block: conv–ReLU–conv plus a skip connection, with a 1×1
/// projection on the skip when shape changes.
#[derive(Clone, Debug)]
pub struct ResBlock {
    pub(crate) conv1: Conv2d,
    pub(crate) conv2: Conv2d,
    pub(crate) projection: Option<Conv2d>,
}

/// Per-block forward cache for backpropagation.
#[derive(Clone, Debug)]
pub struct BlockCache {
    input: FeatureMap,
    r1: FeatureMap,
    output: FeatureMap,
}

/// Gradient buffers for one convolution.
#[derive(Clone, Debug)]
pub struct ConvGrads {
    /// Weight gradients.
    pub w: Vec<f64>,
    /// Bias gradients.
    pub b: Vec<f64>,
}

impl ConvGrads {
    fn zeros_for(conv: &Conv2d) -> Self {
        ConvGrads { w: vec![0.0; conv.n_weights()], b: vec![0.0; conv.out_c] }
    }

    fn add_assign(&mut self, other: &ConvGrads) {
        for (a, b) in self.w.iter_mut().zip(&other.w) {
            *a += b;
        }
        for (a, b) in self.b.iter_mut().zip(&other.b) {
            *a += b;
        }
    }

    fn scale(&mut self, k: f64) {
        for v in &mut self.w {
            *v *= k;
        }
        for v in &mut self.b {
            *v *= k;
        }
    }
}

/// Gradient buffers for one residual block.
#[derive(Clone, Debug)]
pub struct BlockGrads {
    conv1: ConvGrads,
    conv2: ConvGrads,
    projection: Option<ConvGrads>,
}

/// Gradient buffers for the whole network; layout mirrors [`ResNetLite`].
#[derive(Clone, Debug)]
pub struct ResNetGrads {
    stem: ConvGrads,
    blocks: Vec<BlockGrads>,
    fc_w: Vec<f64>,
    fc_b: Vec<f64>,
}

impl ResNetGrads {
    /// Zero gradients shaped for `model`.
    pub fn zeros_for(model: &ResNetLite) -> Self {
        ResNetGrads {
            stem: ConvGrads::zeros_for(&model.stem),
            blocks: model
                .blocks
                .iter()
                .map(|b| BlockGrads {
                    conv1: ConvGrads::zeros_for(&b.conv1),
                    conv2: ConvGrads::zeros_for(&b.conv2),
                    projection: b.projection.as_ref().map(ConvGrads::zeros_for),
                })
                .collect(),
            fc_w: vec![0.0; model.fc.weights.len()],
            fc_b: vec![0.0; model.fc.bias.len()],
        }
    }

    /// Element-wise accumulate.
    pub fn add_assign(&mut self, other: &ResNetGrads) {
        self.stem.add_assign(&other.stem);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.conv1.add_assign(&b.conv1);
            a.conv2.add_assign(&b.conv2);
            if let (Some(pa), Some(pb)) = (a.projection.as_mut(), b.projection.as_ref()) {
                pa.add_assign(pb);
            }
        }
        for (a, b) in self.fc_w.iter_mut().zip(&other.fc_w) {
            *a += b;
        }
        for (a, b) in self.fc_b.iter_mut().zip(&other.fc_b) {
            *a += b;
        }
    }

    /// Multiplies every gradient by `k` (e.g. 1/batch).
    pub fn scale(&mut self, k: f64) {
        self.stem.scale(k);
        for b in &mut self.blocks {
            b.conv1.scale(k);
            b.conv2.scale(k);
            if let Some(p) = &mut b.projection {
                p.scale(k);
            }
        }
        for v in &mut self.fc_w {
            *v *= k;
        }
        for v in &mut self.fc_b {
            *v *= k;
        }
    }
}

/// Full forward cache for one sample.
#[derive(Clone, Debug)]
pub struct ForwardCache {
    stem_in: FeatureMap,
    stem_out: FeatureMap,
    blocks: Vec<BlockCache>,
    gap_in_shape: (usize, usize, usize),
    fc_in: Vec<f64>,
}

/// The residual classifier.
#[derive(Clone, Debug)]
pub struct ResNetLite {
    config: ResNetConfig,
    pub(crate) stem: Conv2d,
    pub(crate) blocks: Vec<ResBlock>,
    pub(crate) fc: Dense,
    telemetry: pb_telemetry::Telemetry,
}

impl ResBlock {
    fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut StdRng) -> Self {
        let conv1 = Conv2d::new(in_c, out_c, 3, stride, 1, rng);
        let conv2 = Conv2d::new(out_c, out_c, 3, 1, 1, rng);
        let projection = if in_c != out_c || stride != 1 {
            Some(Conv2d::new(in_c, out_c, 1, stride, 0, rng))
        } else {
            None
        };
        ResBlock { conv1, conv2, projection }
    }

    fn forward(&self, x: &FeatureMap, scratch: &mut ConvScratch) -> FeatureMap {
        let r1 = relu(&self.conv1.forward_with_scratch(x, scratch));
        let a2 = self.conv2.forward_with_scratch(&r1, scratch);
        let skip = match &self.projection {
            Some(p) => p.forward_with_scratch(x, scratch),
            None => x.clone(),
        };
        relu(&a2.add(&skip))
    }

    fn forward_cached(&self, x: &FeatureMap) -> (FeatureMap, BlockCache) {
        let r1 = relu(&self.conv1.forward(x));
        let a2 = self.conv2.forward(&r1);
        let skip = match &self.projection {
            Some(p) => p.forward(x),
            None => x.clone(),
        };
        let output = relu(&a2.add(&skip));
        (output.clone(), BlockCache { input: x.clone(), r1, output })
    }

    /// Backward through the block. Returns the gradient w.r.t. the input.
    fn backward(
        &self,
        cache: &BlockCache,
        gout: &FeatureMap,
        grads: &mut BlockGrads,
    ) -> FeatureMap {
        // Through the final ReLU.
        let g_sum = relu_backward(&cache.output, gout);
        // Main path.
        let g_r1 = self.conv2.backward(&cache.r1, &g_sum, &mut grads.conv2.w, &mut grads.conv2.b);
        let g_a1 = relu_backward(&cache.r1, &g_r1);
        let mut g_in =
            self.conv1.backward(&cache.input, &g_a1, &mut grads.conv1.w, &mut grads.conv1.b);
        // Skip path.
        match (&self.projection, grads.projection.as_mut()) {
            (Some(p), Some(pg)) => {
                let g_skip = p.backward(&cache.input, &g_sum, &mut pg.w, &mut pg.b);
                g_in.add_assign(&g_skip);
            }
            (None, None) => g_in.add_assign(&g_sum),
            _ => unreachable!("projection/gradient structure mismatch"),
        }
        g_in
    }

    fn forward_macs(&self, h: usize, w: usize) -> (u64, usize, usize) {
        let mut macs = self.conv1.forward_macs(h, w);
        let (oh, ow) = self.conv1.output_size(h, w);
        macs += self.conv2.forward_macs(oh, ow);
        if let Some(p) = &self.projection {
            macs += p.forward_macs(h, w);
        }
        (macs, oh, ow)
    }
}

impl ResNetLite {
    /// Builds the network described by `config` with seeded initialization.
    pub fn new(config: ResNetConfig) -> Self {
        assert!(!config.stages.is_empty(), "network needs at least one stage");
        assert!(config.n_classes >= 2, "need at least two classes");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let stem = Conv2d::new(config.input_channels, config.base_width, 3, 1, 1, &mut rng);
        let mut blocks = Vec::with_capacity(config.stages.len());
        let mut in_c = config.base_width;
        for s in &config.stages {
            blocks.push(ResBlock::new(in_c, s.channels, s.stride, &mut rng));
            in_c = s.channels;
        }
        let fc = Dense::new(in_c, config.n_classes, &mut rng);
        ResNetLite { config, stem, blocks, fc, telemetry: pb_telemetry::Telemetry::disabled() }
    }

    /// Times every inference into `telemetry` as the `cnn.forward`
    /// wall-time histogram. Logits are unchanged — the weights and the
    /// forward math never see the telemetry handle.
    pub fn with_telemetry(mut self, telemetry: pb_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The architecture description.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Total trainable parameter count.
    pub fn n_parameters(&self) -> usize {
        let conv_params = |c: &Conv2d| c.n_weights() + c.out_c;
        conv_params(&self.stem)
            + self
                .blocks
                .iter()
                .map(|b| {
                    conv_params(&b.conv1)
                        + conv_params(&b.conv2)
                        + b.projection.as_ref().map_or(0, conv_params)
                })
                .sum::<usize>()
            + self.fc.weights.len()
            + self.fc.bias.len()
    }

    /// Inference forward pass producing class logits.
    pub fn forward(&self, x: &FeatureMap) -> Vec<f64> {
        self.forward_with_scratch(x, &mut ConvScratch::default())
    }

    /// Forward pass threading a caller-held [`ConvScratch`] through every
    /// convolution, so a warm loop over many clips reuses one im2col
    /// buffer instead of reallocating `cols` per layer. Logits are
    /// bit-identical to [`ResNetLite::forward`].
    pub fn forward_with_scratch(&self, x: &FeatureMap, scratch: &mut ConvScratch) -> Vec<f64> {
        let _span = self.telemetry.span("cnn.forward");
        let mut cur = relu(&self.stem.forward_with_scratch(x, scratch));
        for b in &self.blocks {
            cur = b.forward(&cur, scratch);
        }
        self.fc.forward(&global_avg_pool(&cur))
    }

    /// Forward pass retaining activations for [`ResNetLite::backward`].
    pub fn forward_cached(&self, x: &FeatureMap) -> (Vec<f64>, ForwardCache) {
        let stem_out = relu(&self.stem.forward(x));
        let mut caches = Vec::with_capacity(self.blocks.len());
        let mut cur = stem_out.clone();
        for b in &self.blocks {
            let (out, cache) = b.forward_cached(&cur);
            caches.push(cache);
            cur = out;
        }
        let gap_in_shape = cur.shape();
        let fc_in = global_avg_pool(&cur);
        let logits = self.fc.forward(&fc_in);
        (logits, ForwardCache { stem_in: x.clone(), stem_out, blocks: caches, gap_in_shape, fc_in })
    }

    /// Backpropagates `grad_logits` through the cached forward pass,
    /// accumulating into `grads`.
    pub fn backward(&self, cache: &ForwardCache, grad_logits: &[f64], grads: &mut ResNetGrads) {
        let g_fc_in = self.fc.backward(&cache.fc_in, grad_logits, &mut grads.fc_w, &mut grads.fc_b);
        let mut g = global_avg_pool_backward(cache.gap_in_shape, &g_fc_in);
        for (b, (bc, bg)) in
            self.blocks.iter().zip(cache.blocks.iter().zip(&mut grads.blocks)).rev()
        {
            g = b.backward(bc, &g, bg);
        }
        // Stem: ReLU then conv.
        let g_stem = relu_backward(&cache.stem_out, &g);
        self.stem.backward(&cache.stem_in, &g_stem, &mut grads.stem.w, &mut grads.stem.b);
    }

    /// Computes loss and gradients for one `(input, label)` example.
    pub fn loss_and_gradients(&self, x: &FeatureMap, label: usize, grads: &mut ResNetGrads) -> f64 {
        let (logits, cache) = self.forward_cached(x);
        let (loss, grad_logits) = softmax_cross_entropy(&logits, label);
        self.backward(&cache, &grad_logits, grads);
        loss
    }

    /// SGD step with pre-scaled gradients.
    pub fn apply_gradients(&mut self, grads: &ResNetGrads, lr: f64) {
        self.stem.apply_gradients(&grads.stem.w, &grads.stem.b, lr);
        for (b, g) in self.blocks.iter_mut().zip(&grads.blocks) {
            b.conv1.apply_gradients(&g.conv1.w, &g.conv1.b, lr);
            b.conv2.apply_gradients(&g.conv2.w, &g.conv2.b, lr);
            if let (Some(p), Some(pg)) = (b.projection.as_mut(), g.projection.as_ref()) {
                p.apply_gradients(&pg.w, &pg.b, lr);
            }
        }
        self.fc.apply_gradients(&grads.fc_w, &grads.fc_b, lr);
    }

    /// Predicted class of an input.
    pub fn predict(&self, x: &FeatureMap) -> usize {
        let logits = self.forward(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Mutable views of every weight tensor in network order (stem, block
    /// convolutions and projections, dense head). Biases are excluded.
    pub fn weight_tensors_mut(&mut self) -> Vec<&mut [f64]> {
        let mut v: Vec<&mut [f64]> = vec![self.stem.weights.as_mut_slice()];
        for b in &mut self.blocks {
            v.push(b.conv1.weights.as_mut_slice());
            v.push(b.conv2.weights.as_mut_slice());
            if let Some(p) = b.projection.as_mut() {
                v.push(p.weights.as_mut_slice());
            }
        }
        v.push(self.fc.weights.as_mut_slice());
        v
    }

    /// Multiply-accumulate count of one forward pass on an `h × w` input —
    /// the quantity the device layer converts to joules.
    pub fn forward_macs(&self, h: usize, w: usize) -> u64 {
        let mut macs = self.stem.forward_macs(h, w);
        let (mut ch, mut cw) = self.stem.output_size(h, w);
        for b in &self.blocks {
            let (m, oh, ow) = b.forward_macs(ch, cw);
            macs += m;
            ch = oh;
            cw = ow;
        }
        macs + self.fc.forward_macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn tiny_config() -> ResNetConfig {
        ResNetConfig {
            input_channels: 1,
            base_width: 2,
            stages: vec![
                StageSpec { channels: 2, stride: 1 },
                StageSpec { channels: 4, stride: 2 },
            ],
            n_classes: 2,
            seed: 1,
        }
    }

    #[test]
    fn telemetry_times_forward_without_changing_logits() {
        let tel = pb_telemetry::Telemetry::metrics_only();
        let plain = ResNetLite::new(tiny_config());
        let traced = ResNetLite::new(tiny_config()).with_telemetry(tel.clone());
        let x = random_input(12, 3);
        assert_eq!(plain.forward(&x), traced.forward(&x));
        let _ = traced.forward(&x);
        let h = tel.snapshot().histogram("cnn.forward").cloned().expect("span recorded");
        assert_eq!(h.count, 2);
        assert!(h.total >= 0.0);
    }

    fn random_input(side: usize, seed: u64) -> FeatureMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..side * side).map(|_| rng.gen_range(-1.0..1.0)).collect();
        FeatureMap::from_vec(1, side, side, data)
    }

    #[test]
    fn forward_produces_logits() {
        let net = ResNetLite::new(tiny_config());
        let logits = net.forward(&random_input(8, 2));
        assert_eq!(logits.len(), 2);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn scratch_forward_matches_plain_forward() {
        let net = ResNetLite::new(tiny_config());
        let mut scratch = ConvScratch::default();
        for seed in 0..5u64 {
            let x = random_input(10, 40 + seed);
            assert_eq!(net.forward(&x), net.forward_with_scratch(&x, &mut scratch));
        }
    }

    #[test]
    fn cached_forward_matches_plain_forward() {
        let net = ResNetLite::new(tiny_config());
        let x = random_input(8, 3);
        let plain = net.forward(&x);
        let (cached, _) = net.forward_cached(&x);
        for (a, b) in plain.iter().zip(&cached) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn parameter_count_is_positive_and_stable() {
        let net = ResNetLite::new(tiny_config());
        let n = net.n_parameters();
        // stem: 1·2·9+2=20; block1 (2→2, identity skip): 2·2·9+2 + 2·2·9+2 = 76;
        // block2 (2→4, stride 2, projection): (2·4·9+4) + (4·4·9+4) + (2·4·1+4) = 76+148+12=236;
        // fc: 4·2+2 = 10. Total 342.
        assert_eq!(n, 342);
    }

    #[test]
    fn macs_scale_roughly_quadratically_with_side() {
        let net = ResNetLite::new(tiny_config());
        let m20 = net.forward_macs(20, 20) as f64;
        let m40 = net.forward_macs(40, 40) as f64;
        let ratio = m40 / m20;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic_initialization() {
        let a = ResNetLite::new(tiny_config());
        let b = ResNetLite::new(tiny_config());
        let x = random_input(8, 4);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    /// End-to-end finite-difference gradient check through stem, residual
    /// blocks (with and without projection), GAP and the dense head.
    #[test]
    fn full_network_gradient_check() {
        let mut net = ResNetLite::new(tiny_config());
        let x = random_input(6, 5);
        let label = 1;

        let mut grads = ResNetGrads::zeros_for(&net);
        let loss0 = net.loss_and_gradients(&x, label, &mut grads);
        assert!(loss0.is_finite());

        let eps = 1e-5;
        let loss_of = |net: &ResNetLite| {
            let (logits, _) = net.forward_cached(&x);
            softmax_cross_entropy(&logits, label).0
        };

        // Sample parameters from every part of the network.
        let checks: Vec<(&str, f64)> = {
            let mut v = Vec::new();
            // stem weight 0
            let orig = net.stem.weights[0];
            net.stem.weights[0] = orig + eps;
            let up = loss_of(&net);
            net.stem.weights[0] = orig - eps;
            let down = loss_of(&net);
            net.stem.weights[0] = orig;
            v.push(("stem.w[0]", (up - down) / (2.0 * eps) - grads.stem.w[0]));
            // block0 conv1 weight
            let orig = net.blocks[0].conv1.weights[3];
            net.blocks[0].conv1.weights[3] = orig + eps;
            let up = loss_of(&net);
            net.blocks[0].conv1.weights[3] = orig - eps;
            let down = loss_of(&net);
            net.blocks[0].conv1.weights[3] = orig;
            v.push(("b0.conv1.w[3]", (up - down) / (2.0 * eps) - grads.blocks[0].conv1.w[3]));
            // block1 conv2 bias
            let orig = net.blocks[1].conv2.bias[1];
            net.blocks[1].conv2.bias[1] = orig + eps;
            let up = loss_of(&net);
            net.blocks[1].conv2.bias[1] = orig - eps;
            let down = loss_of(&net);
            net.blocks[1].conv2.bias[1] = orig;
            v.push(("b1.conv2.b[1]", (up - down) / (2.0 * eps) - grads.blocks[1].conv2.b[1]));
            // block1 projection weight
            let orig = net.blocks[1].projection.as_ref().unwrap().weights[2];
            net.blocks[1].projection.as_mut().unwrap().weights[2] = orig + eps;
            let up = loss_of(&net);
            net.blocks[1].projection.as_mut().unwrap().weights[2] = orig - eps;
            let down = loss_of(&net);
            net.blocks[1].projection.as_mut().unwrap().weights[2] = orig;
            let analytic = grads.blocks[1].projection.as_ref().unwrap().w[2];
            v.push(("b1.proj.w[2]", (up - down) / (2.0 * eps) - analytic));
            // fc weight and bias
            let orig = net.fc.weights[5];
            net.fc.weights[5] = orig + eps;
            let up = loss_of(&net);
            net.fc.weights[5] = orig - eps;
            let down = loss_of(&net);
            net.fc.weights[5] = orig;
            v.push(("fc.w[5]", (up - down) / (2.0 * eps) - grads.fc_w[5]));
            let orig = net.fc.bias[0];
            net.fc.bias[0] = orig + eps;
            let up = loss_of(&net);
            net.fc.bias[0] = orig - eps;
            let down = loss_of(&net);
            net.fc.bias[0] = orig;
            v.push(("fc.b[0]", (up - down) / (2.0 * eps) - grads.fc_b[0]));
            v
        };
        for (name, diff) in checks {
            assert!(diff.abs() < 1e-5, "gradient mismatch at {name}: {diff}");
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let net = ResNetLite::new(tiny_config());
        let x = random_input(6, 6);
        let mut g1 = ResNetGrads::zeros_for(&net);
        net.loss_and_gradients(&x, 0, &mut g1);
        let mut g2 = g1.clone();
        g2.add_assign(&g1);
        g2.scale(0.5);
        for (a, b) in g1.fc_w.iter().zip(&g2.fc_w) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in g1.stem.w.iter().zip(&g2.stem.w) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sgd_step_reduces_loss_on_one_example() {
        let mut net = ResNetLite::new(tiny_config());
        let x = random_input(8, 7);
        let label = 0;
        let mut losses = Vec::new();
        for _ in 0..8 {
            let mut grads = ResNetGrads::zeros_for(&net);
            let loss = net.loss_and_gradients(&x, label, &mut grads);
            losses.push(loss);
            net.apply_gradients(&grads, 0.05);
        }
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not decrease: {losses:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stage_list_panics() {
        let _ = ResNetLite::new(ResNetConfig { stages: vec![], ..tiny_config() });
    }
}
