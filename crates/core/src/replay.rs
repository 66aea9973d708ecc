//! Replay: interleaving old memories into ongoing learning (§3.2,
//! §5.4).
//!
//! The paper's §3.2 experiment implements replay by "retraining the
//! network on the first pattern using a 0.1x smaller learning rate
//! after each training/inference of the second" —
//! [`ReplayForm::Interleaved`] generalizes that: after every online
//! training step, `per_step` episodes sampled from the hippocampus are
//! retrained at 0.1x the online rate. §5.4 sketches further forms, implemented
//! as:
//!
//! * [`ReplayForm::OtherPhases`] — interleaved replay biased toward
//!   phases other than the current one (replay *old* memories);
//! * [`ReplayForm::SelfReinforce`] — recall a stored context, run the
//!   forward pass, and train on the network's own output "to reinforce
//!   existing behavior".

use hnp_hebbian::LrScale;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::encoder::Encoder;
use crate::hippocampus::{EpisodeRef, EpisodicStore, Hippocampus};
use crate::neocortex::Neocortex;

/// The replay variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayForm {
    /// Uniformly sampled episodes retrained at the scaled rate.
    Interleaved,
    /// Episodes sampled preferentially from other phases.
    OtherPhases,
    /// Train the stored context on the network's own current output.
    SelfReinforce,
}

/// Learning-rate scale for replayed examples (paper: 0.1).
const LR_SCALE: f32 = 0.1;
/// Episode-sampling seed.
const SEED: u64 = 0x9e91a;

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Master switch.
    pub enabled: bool,
    /// Episodes replayed after each online training step.
    pub per_step: usize,
    /// Replay form.
    pub form: ReplayForm,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            per_step: 1,
            form: ReplayForm::Interleaved,
        }
    }
}

impl ReplayConfig {
    /// Replay disabled (the §2.2 interference condition).
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Schedules replay against a neocortex + hippocampus pair.
#[derive(Debug)]
pub struct ReplayScheduler {
    cfg: ReplayConfig,
    rng: StdRng,
    /// Total replayed examples (reporting).
    pub replayed: u64,
}

impl ReplayScheduler {
    /// Creates a scheduler.
    pub fn new(cfg: ReplayConfig) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(SEED),
            replayed: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.cfg
    }

    /// Runs one round of replay (called after each online training
    /// step). Returns the number of replayed examples. The drawn
    /// episodes are read in place ([`EpisodicStore::replay_each`]);
    /// the default interleaved form allocates nothing. No form reads
    /// the encoder: each trains on the stored pattern. The parameter
    /// stays because perfbench's per-layer probe calls this signature.
    pub fn after_train(
        &mut self,
        cortex: &mut Neocortex,
        store: &mut Hippocampus,
        _encoder: &Encoder,
        current_phase: u64,
    ) -> usize {
        if !self.cfg.enabled || self.cfg.per_step == 0 || store.stored() == 0 {
            return 0;
        }
        let form = self.cfg.form;
        let prefer_other = matches!(form, ReplayForm::OtherPhases);
        let scale = LrScale::from_f32(LR_SCALE);
        let mut done = 0usize;
        let mut replay = |episode: EpisodeRef<'_>| match form {
            ReplayForm::Interleaved | ReplayForm::OtherPhases => {
                cortex.replay_train(episode.pattern, episode.target, scale, episode.recurrent);
                done += 1;
            }
            ReplayForm::SelfReinforce => {
                let saved = cortex.recurrent_state();
                cortex.network_mut().set_recurrent_state(episode.recurrent);
                let out = cortex.network_mut().infer(episode.pattern, episode.target);
                cortex.train_scaled(episode.pattern, out.predicted, scale);
                cortex.network_mut().set_recurrent_state(&saved);
                done += 1;
            }
        };
        store.replay_each(
            self.cfg.per_step,
            current_phase,
            prefer_other,
            &mut self.rng,
            &mut replay,
        );
        self.replayed += done as u64;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderKind;
    use crate::hippocampus::CapacityPolicy;
    use crate::neocortex::NeocortexConfig;

    fn setup() -> (Neocortex, Hippocampus, Encoder) {
        let encoder = Encoder::new(EncoderKind::OneHot, 16);
        let cortex = Neocortex::new(
            &encoder,
            16,
            &NeocortexConfig {
                hidden: 128,
                connectivity: 0.375,
                hidden_active: 16,
                recurrent_bits: 32,
                recurrent_sample: 6,
            },
        );
        (
            cortex,
            Hippocampus::new(CapacityPolicy::Ring { capacity: 4096 }),
            encoder,
        )
    }

    /// Trains pattern A (cycle), then pattern B with/without replay of
    /// A; replay must preserve accuracy on A. This is the Fig.-3
    /// mechanism at unit scale.
    fn interference_run(replay: ReplayConfig) -> f32 {
        let (mut cortex, mut hippo, encoder) = setup();
        let a = [1usize, 5, 2, 9];
        let b = [3usize, 11, 7, 14];
        // Learn A, storing episodes.
        for _ in 0..150 {
            for w in 0..a.len() {
                let ctx = [a[w]];
                let pattern = encoder.encode(&ctx);
                let target = a[(w + 1) % a.len()];
                let recurrent = cortex.recurrent_state();
                let o = cortex.train(&pattern, target);
                hippo.store(ctx.to_vec(), pattern, recurrent, target, o.confidence, 0, 1);
            }
        }
        // Learn B with replay of stored A episodes.
        let mut sched = ReplayScheduler::new(replay);
        for _ in 0..150 {
            for w in 0..b.len() {
                let pattern = encoder.encode(&[b[w]]);
                cortex.train(&pattern, b[(w + 1) % b.len()]);
                sched.after_train(&mut cortex, &mut hippo, &encoder, 2);
            }
        }
        // Accuracy on A afterwards.
        cortex.network_mut().reset_state();
        let mut correct = 0;
        for _ in 0..5 {
            for w in 0..a.len() {
                let pattern = encoder.encode(&[a[w]]);
                let o = cortex.observe(&pattern, a[(w + 1) % a.len()]);
                if o.correct {
                    correct += 1;
                }
            }
        }
        correct as f32 / 20.0
    }

    #[test]
    fn interleaved_replay_preserves_old_pattern() {
        let with = interference_run(ReplayConfig {
            per_step: 2,
            ..ReplayConfig::default()
        });
        assert!(with > 0.8, "accuracy on A with replay: {with}");
    }

    #[test]
    fn replay_off_config_is_inert() {
        let (mut cortex, mut hippo, encoder) = setup();
        hippo.store(vec![1], encoder.encode(&[1]), vec![], 2, 0.5, 0, 0);
        let mut sched = ReplayScheduler::new(ReplayConfig::off());
        assert_eq!(sched.after_train(&mut cortex, &mut hippo, &encoder, 0), 0);
        assert_eq!(sched.replayed, 0);
    }

    #[test]
    fn self_reinforce_replays_one_per_episode() {
        let (mut cortex, mut hippo, encoder) = setup();
        for t in 0..4usize {
            hippo.store(vec![t], encoder.encode(&[t]), vec![], t, 0.5, 0, 0);
        }
        let mut sched = ReplayScheduler::new(ReplayConfig {
            form: ReplayForm::SelfReinforce,
            per_step: 3,
            ..ReplayConfig::default()
        });
        assert_eq!(sched.after_train(&mut cortex, &mut hippo, &encoder, 0), 3);
    }

    #[test]
    fn empty_hippocampus_replays_nothing() {
        let (mut cortex, mut hippo, encoder) = setup();
        let mut sched = ReplayScheduler::new(ReplayConfig::default());
        assert_eq!(sched.after_train(&mut cortex, &mut hippo, &encoder, 0), 0);
    }
}
