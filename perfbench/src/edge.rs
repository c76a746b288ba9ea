//! `edge_inference`: the on-hive clip→prediction path. Paper clips
//! (10 s at 22 050 Hz, alternating queenright and queenless) go through
//! `MelPipeline::images(…, 100)` and the calibrated int8
//! `QuantizedResNetLite::forward_batch` in batches of eight, reusing one
//! `QuantScratch`.

use std::collections::HashMap;
use std::time::Instant;

use precision_beekeeping::ml::nn::resnet::{ResNetConfig, ResNetLite};
use precision_beekeeping::ml::quant::{QuantScratch, QuantizedResNetLite};
use precision_beekeeping::ml::tensor::FeatureMap;
use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
use precision_beekeeping::signal::image::Image;
use precision_beekeeping::signal::pipeline::MelPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::des::engine_probe;
use crate::stats::{median, mix, percentile};
use crate::trace::{metrics, Spans, END_TO_END, PER_LAYER};
use crate::{peak_rss_mb, Args, Outcome, SETUPS};

/// CNN input side (the paper's Figure 5 anchor resolution).
const SIDE: usize = 100;
const BATCH: usize = 8;
/// Distinct batches generated at set-up; the run cycles through them.
const BATCHES: usize = 4;
const CLIP_S: f64 = 10.0;

struct Setup {
    batches: Vec<Vec<Vec<f64>>>,
    pipeline: MelPipeline,
    net: ResNetLite,
    qnet: QuantizedResNetLite,
}

fn to_maps(images: &[Image]) -> Vec<FeatureMap> {
    images.iter().map(|i| FeatureMap::from_image(i.width(), i.height(), i.pixels())).collect()
}

fn setup(seed: u64) -> Setup {
    let synth = BeeAudioSynth::default();
    let batches: Vec<Vec<Vec<f64>>> = (0..BATCHES)
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    let state =
                        if i % 2 == 0 { ColonyState::Queenright } else { ColonyState::Queenless };
                    let mut rng = StdRng::seed_from_u64(mix(seed, (b * BATCH + i) as u64));
                    synth.generate(state, CLIP_S, &mut rng)
                })
                .collect()
        })
        .collect();
    let pipeline = MelPipeline::paper_default();
    let net = ResNetLite::new(ResNetConfig::default());
    let calib = to_maps(&pipeline.images(&batches[0], SIDE));
    let qnet = QuantizedResNetLite::quantize(&net, &calib);
    Setup { batches, pipeline, net, qnet }
}

/// One batch through the deployed path.
fn infer(s: &Setup, batch: &[Vec<f64>], scratch: &mut QuantScratch) -> Vec<Vec<f64>> {
    let maps = to_maps(&s.pipeline.images(batch, SIDE));
    s.qnet.forward_batch(&maps, scratch)
}

/// Serial single-clip logits of every batch: the bit-identity reference.
fn reference(s: &Setup) -> Vec<Vec<Vec<f64>>> {
    let mut scratch = QuantScratch::default();
    s.batches
        .iter()
        .map(|b| {
            let maps = to_maps(&s.pipeline.images(b, SIDE));
            maps.iter().map(|m| s.qnet.forward(m, &mut scratch)).collect()
        })
        .collect()
}

fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

pub fn run(args: &Args, resolution: f64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut s = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        s = Some(setup(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    if args.trace {
        return run_traced(args, &s, resolution);
    }
    let mut scratch = QuantScratch::default();
    let window = args.window();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut outputs = Vec::new();
    while start.elapsed() < window {
        let b = walls.len() % BATCHES;
        let t = Instant::now();
        let logits = infer(&s, &s.batches[b], &mut scratch);
        walls.push(t.elapsed().as_secs_f64());
        outputs.push(logits);
    }
    let refs = reference(&s);
    let failed =
        outputs.iter().enumerate().filter(|(i, l)| !same_bits(l, &refs[i % BATCHES])).count();
    let values = HashMap::from([
        ("setup_s", median(&setups)),
        ("work_per_s", (BATCH * walls.len()) as f64 / walls.iter().sum::<f64>()),
        ("op_ms_p50", 1e3 * median(&walls)),
        ("op_ms_p95", 1e3 * percentile(&walls, 0.95)),
    ]);
    eprintln!("perfbench: {} batches", walls.len());
    Outcome {
        attempted: walls.len() as u64,
        failed: failed as u64,
        checks_ok: true,
        metrics: metrics(END_TO_END, values),
    }
}

fn run_traced(args: &Args, s: &Setup, resolution: f64) -> Outcome {
    let refs = reference(s);
    let mut scratch = QuantScratch::default();
    let mut spans = Spans::new(resolution);
    let window = args.window();
    let start = Instant::now();
    let (mut batches, mut failed, mut traced_wall, mut stft) = (0usize, 0u64, 0.0, 0.0);
    while start.elapsed() < window.mul_f64(0.45) || batches == 0 {
        let batch = &s.batches[batches % BATCHES];
        let t = Instant::now();
        let (images, logits) = rayon::pool::with_thread_cap(1, || {
            let images: Vec<Image> = batch
                .iter()
                .map(|clip| {
                    let mel = spans.time("signal.mel", || s.pipeline.mel(clip));
                    spans.time("signal.image", || {
                        Image::from_mel(&mel).resize_bilinear(SIDE, SIDE).normalize()
                    })
                })
                .collect();
            let logits =
                spans.time("ml.quant", || s.qnet.forward_batch(&to_maps(&images), &mut scratch));
            (images, logits)
        });
        traced_wall += t.elapsed().as_secs_f64();
        // The STFT is not a separate step of `mel`; time it on its own
        // outside the traced wall and move it out of the mel span.
        for clip in batch {
            let t = Instant::now();
            std::hint::black_box(s.pipeline.stft().power_spectrogram(clip));
            stft += t.elapsed().as_secs_f64();
        }
        let ok = images == s.pipeline.images(batch, SIDE)
            && same_bits(&logits, &refs[batches % BATCHES]);
        failed += u64::from(!ok);
        batches += 1;
    }
    // Re-timing sub-resolution spans is tracing cost, not layer time.
    let wall = traced_wall - spans.overhead;
    let stft = stft.min(spans.get("signal.mel"));
    spans.add("signal.mel", -stft);
    spans.add("signal.stft", stft);

    let time_batches = |cap: usize, scratch: &mut QuantScratch| {
        let t = Instant::now();
        for b in 0..batches {
            rayon::pool::with_thread_cap(cap, || infer(s, &s.batches[b % BATCHES], scratch));
        }
        t.elapsed().as_secs_f64()
    };
    let serial = time_batches(1, &mut scratch);
    let pool_before = rayon::pool::stats();
    let pooled = time_batches(rayon::pool::current_num_threads(), &mut scratch);
    let pool_after = rayon::pool::stats();
    let (cf_ns, tl_ns) = engine_probe(resolution);

    spans.print_table(&args.workload, wall);
    let clips = (batches * BATCH) as f64;
    let per_clip = |name: &str| 1e3 * spans.get(name) / clips;
    let attributed = ["signal.stft", "signal.mel", "signal.image", "ml.quant"]
        .iter()
        .map(|n| spans.get(n))
        .sum::<f64>();
    let macs = s.net.forward_macs(SIDE, SIDE) as f64;
    let values = HashMap::from([
        ("trace.op_ms", 1e3 * wall / batches as f64),
        ("trace.overhead_ratio", traced_wall / serial),
        ("process.peak_rss_mb", peak_rss_mb()),
        ("trace.unattributed_ratio", (1.0 - attributed / wall).max(0.0)),
        ("engine.closed_form.ns_per_point", cf_ns),
        ("engine.timeline.ns_per_point", tl_ns),
        ("pool.speedup", serial / pooled),
        ("pool.jobs", (pool_after.jobs - pool_before.jobs) as f64),
        ("pool.steals", (pool_after.steals - pool_before.steals) as f64),
        ("signal.stft.ms_per_clip", per_clip("signal.stft")),
        ("signal.mel.ms_per_clip", per_clip("signal.mel")),
        ("signal.image.ms_per_clip", per_clip("signal.image")),
        ("ml.quant.ms_per_clip", per_clip("ml.quant")),
        ("ml.cnn.macs_per_clip", macs),
        ("ml.cnn.gmac_per_s", macs * clips / spans.get("ml.quant") / 1e9),
    ]);
    Outcome {
        attempted: batches as u64,
        failed,
        checks_ok: true,
        metrics: metrics(PER_LAYER, values),
    }
}
