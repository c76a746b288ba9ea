//! Synthetic bee-audio generator.
//!
//! The paper trains on 1647 private recordings labelled with queen
//! presence. This module substitutes a parametric synthesizer grounded in
//! the bioacoustics the queen-detection literature reports: a queenright
//! colony hums as a harmonic stack around a low fundamental with occasional
//! queen "piping" tones, while a queenless colony "roars" — its fundamental
//! drifts upward, harmonics flatten and broadband noise rises. The classes
//! therefore differ in *fine spectral structure*, which is exactly what the
//! Figure 5 resolution sweep needs: coarse CNN inputs blur the structure
//! and lose accuracy, high-resolution inputs keep it.

use crate::SAMPLE_RATE_HZ;
use rand::Rng;
use std::f64::consts::TAU;

/// Ground-truth colony condition of a clip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColonyState {
    /// Queen present (the positive class).
    Queenright,
    /// Queen absent.
    Queenless,
}

impl ColonyState {
    /// Class index used by the ML layer (queenright = 1).
    pub fn label(self) -> usize {
        match self {
            ColonyState::Queenright => 1,
            ColonyState::Queenless => 0,
        }
    }

    /// Inverse of [`ColonyState::label`].
    pub fn from_label(label: usize) -> Self {
        if label == 1 {
            ColonyState::Queenright
        } else {
            ColonyState::Queenless
        }
    }
}

/// Parametric synthesizer for hive audio.
#[derive(Clone, Debug)]
pub struct BeeAudioSynth {
    /// Output sample rate in hertz.
    pub sample_rate: f64,
    /// Mean colony fundamental for a queenright hive (Hz).
    pub queenright_f0: f64,
    /// Mean colony fundamental for a queenless hive (Hz).
    pub queenless_f0: f64,
    /// Per-clip fundamental jitter (uniform ±, Hz).
    pub f0_jitter: f64,
    /// Broadband noise amplitude for a queenright hive.
    pub queenright_noise: f64,
    /// Broadband noise amplitude for a queenless hive.
    pub queenless_noise: f64,
    /// Number of harmonics in the hum stack.
    pub harmonics: usize,
}

impl Default for BeeAudioSynth {
    /// Equal noise floors for both classes: the separating cues are the
    /// *fine* spectral ones (fundamental position, harmonic decay profile,
    /// the queen-piping band), so classification accuracy degrades when
    /// the spectrogram image is downsampled — the Figure 5 effect.
    fn default() -> Self {
        BeeAudioSynth {
            sample_rate: SAMPLE_RATE_HZ,
            queenright_f0: 230.0,
            queenless_f0: 280.0,
            f0_jitter: 20.0,
            queenright_noise: 0.10,
            queenless_noise: 0.10,
            harmonics: 5,
        }
    }
}

impl BeeAudioSynth {
    /// Synthesizes `duration_s` seconds of hive audio for a colony in
    /// `state`, using `rng` for all stochastic components.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        state: ColonyState,
        duration_s: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        assert!(duration_s > 0.0, "duration must be positive");
        let n = (duration_s * self.sample_rate).round() as usize;
        let (f0_mean, noise_amp) = match state {
            ColonyState::Queenright => (self.queenright_f0, self.queenright_noise),
            ColonyState::Queenless => (self.queenless_f0, self.queenless_noise),
        };
        let f0 = f0_mean + rng.gen_range(-self.f0_jitter..=self.f0_jitter);

        // Harmonic amplitude profile: queenright hums have a dominant
        // fundamental with steeply decaying harmonics; queenless roars
        // spread energy flatter across the stack.
        let decay: f64 = match state {
            ColonyState::Queenright => 0.45,
            ColonyState::Queenless => 0.8,
        };
        // Normalize the stack to unit power so total hum loudness carries
        // no class information — only the *profile* across harmonics does.
        let amps: Vec<f64> = {
            let raw: Vec<f64> = (0..self.harmonics).map(|h| decay.powi(h as i32)).collect();
            let norm = raw.iter().map(|a| a * a).sum::<f64>().sqrt();
            raw.into_iter().map(|a| a / norm).collect()
        };

        // Slow random frequency drift (colony activity level changes).
        let drift_rate = rng.gen_range(0.05..0.2); // Hz of LFO
        let drift_depth = rng.gen_range(1.0..4.0); // Hz of deviation
        let drift_phase = rng.gen_range(0.0..TAU);

        // Queen piping: short 400 Hz tone bursts, queenright only.
        let piping = matches!(state, ColonyState::Queenright);
        let pipe_freq = rng.gen_range(380.0..420.0);
        let pipe_period = rng.gen_range(1.5..3.0); // seconds between pipes
        let pipe_len = 0.35; // seconds

        let mut phase = vec![0.0f64; self.harmonics];
        let dt = 1.0 / self.sample_rate;
        let mut out = Vec::with_capacity(n);
        let mut pipe_phase = 0.0f64;
        for i in 0..n {
            let t = i as f64 * dt;
            let inst_f0 = f0 + drift_depth * (TAU * drift_rate * t + drift_phase).sin();
            let mut sample = 0.0;
            for (h, (ph, amp)) in phase.iter_mut().zip(&amps).enumerate() {
                *ph += TAU * inst_f0 * (h + 1) as f64 * dt;
                sample += amp * ph.sin();
            }
            // Broadband colony noise.
            sample += noise_amp * (rng.gen::<f64>() * 2.0 - 1.0);
            // Piping bursts.
            if piping {
                let cycle_t = t % pipe_period;
                if cycle_t < pipe_len {
                    pipe_phase += TAU * pipe_freq * dt;
                    let env = (std::f64::consts::PI * cycle_t / pipe_len).sin();
                    sample += 0.4 * env * pipe_phase.sin();
                }
            }
            out.push(sample * 0.25);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mel::{MelFilterbank, MelSpectrogram};
    use crate::stft::{SpectrogramParams, Stft};
    use crate::window::WindowKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn label_round_trip() {
        assert_eq!(ColonyState::Queenright.label(), 1);
        assert_eq!(ColonyState::Queenless.label(), 0);
        assert_eq!(ColonyState::from_label(1), ColonyState::Queenright);
        assert_eq!(ColonyState::from_label(0), ColonyState::Queenless);
    }

    #[test]
    fn clip_length_matches_duration() {
        let synth = BeeAudioSynth::default();
        let mut rng = StdRng::seed_from_u64(1);
        let clip = synth.generate(ColonyState::Queenright, 0.5, &mut rng);
        assert_eq!(clip.len(), (0.5 * SAMPLE_RATE_HZ) as usize);
    }

    #[test]
    fn samples_are_bounded() {
        let synth = BeeAudioSynth::default();
        let mut rng = StdRng::seed_from_u64(2);
        for state in [ColonyState::Queenright, ColonyState::Queenless] {
            let clip = synth.generate(state, 1.0, &mut rng);
            assert!(clip.iter().all(|s| s.abs() < 2.0));
            // Non-silent.
            let rms = (clip.iter().map(|s| s * s).sum::<f64>() / clip.len() as f64).sqrt();
            assert!(rms > 0.05, "rms {rms}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = BeeAudioSynth::default();
        let a = synth.generate(ColonyState::Queenless, 0.2, &mut StdRng::seed_from_u64(7));
        let b = synth.generate(ColonyState::Queenless, 0.2, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn spectral_peak_near_fundamental() {
        let synth = BeeAudioSynth { f0_jitter: 0.0, ..BeeAudioSynth::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let clip = synth.generate(ColonyState::Queenright, 1.0, &mut rng);
        let stft =
            Stft::new(SpectrogramParams { n_fft: 4096, hop: 2048, window: WindowKind::Hann });
        let spec = stft.power_spectrogram(&clip);
        // Average over frames, find the peak bin.
        let bins = spec.n_bins();
        let mut avg = vec![0.0; bins];
        for f in spec.frames() {
            for (a, &p) in avg.iter_mut().zip(f) {
                *a += p;
            }
        }
        let peak = avg.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let peak_hz = peak as f64 * SAMPLE_RATE_HZ / 4096.0;
        assert!((peak_hz - 230.0).abs() < 20.0, "peak at {peak_hz} Hz");
    }

    #[test]
    fn classes_separate_in_mel_space() {
        // Mean mel profiles of the two classes must differ substantially —
        // the property the whole ML evaluation rests on.
        let synth = BeeAudioSynth::default();
        let stft =
            Stft::new(SpectrogramParams { n_fft: 2048, hop: 1024, window: WindowKind::Hann });
        let bank = MelFilterbank::new(64, 2048, SAMPLE_RATE_HZ, 0.0, SAMPLE_RATE_HZ / 2.0);
        let profile = |state, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let clip = synth.generate(state, 1.0, &mut rng);
            MelSpectrogram::compute(&clip, &stft, &bank).band_means()
        };
        let mut dist_within = 0.0;
        let mut dist_between = 0.0;
        let n = 4;
        for s in 0..n {
            let qr_a = profile(ColonyState::Queenright, s);
            let qr_b = profile(ColonyState::Queenright, s + 100);
            let ql = profile(ColonyState::Queenless, s + 200);
            let d = |a: &[f64], b: &[f64]| -> f64 {
                a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
            };
            dist_within += d(&qr_a, &qr_b);
            dist_between += d(&qr_a, &ql);
        }
        assert!(
            dist_between > 1.5 * dist_within,
            "between-class {dist_between:.2} vs within-class {dist_within:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        let synth = BeeAudioSynth::default();
        let mut rng = StdRng::seed_from_u64(1);
        synth.generate(ColonyState::Queenright, 0.0, &mut rng);
    }
}
