//! The neocortex: the slow structure learner.
//!
//! In CLS theory the neocortex "slowly learns the structure underlying
//! the information it encounters — i.e., the rules behind a memory
//! access pattern". Here it is the sparse Hebbian network of
//! `hnp-hebbian`, sized from the input encoder and delta vocabulary.

use hnp_hebbian::{HebbianConfig, HebbianNetwork, HebbianOutcome, LrScale, NetStats, Rollout};

use crate::encoder::Encoder;

/// Sizing of the neocortex network; fields mirror [`HebbianConfig`]
/// where they overlap, and everything else (the Eq.-1 steps and
/// clamp, the seed) is [`HebbianConfig::paper_table2`]'s.
#[derive(Debug, Clone)]
pub struct NeocortexConfig {
    /// Hidden width (paper: 1000).
    pub hidden: usize,
    /// Inter-layer connectivity (paper: 12.5 %).
    pub connectivity: f64,
    /// Hidden winners per step (paper: 10 %).
    pub hidden_active: usize,
    /// Recurrent-state width.
    pub recurrent_bits: usize,
    /// Winners projected into the recurrent state.
    pub recurrent_sample: usize,
}

impl Default for NeocortexConfig {
    fn default() -> Self {
        Self {
            hidden: 1000,
            connectivity: 0.125,
            hidden_active: 100,
            recurrent_bits: 128,
            recurrent_sample: 16,
        }
    }
}

/// The neocortex wrapper: a Hebbian network plus the encoder that
/// feeds it.
pub struct Neocortex {
    net: HebbianNetwork,
    /// Prediction scratch: the token history a rollout extends, and
    /// its first pattern.
    rolling: Vec<usize>,
    pattern: Vec<u32>,
}

impl Neocortex {
    /// Builds a neocortex whose input width matches `encoder` and
    /// whose output classes cover `vocab_len` tokens.
    pub fn new(encoder: &Encoder, vocab_len: usize, cfg: &NeocortexConfig) -> Self {
        let net = HebbianNetwork::new(HebbianConfig {
            pattern_bits: encoder.pattern_bits(),
            recurrent_bits: cfg.recurrent_bits,
            hidden: cfg.hidden,
            outputs: vocab_len,
            connectivity: cfg.connectivity,
            hidden_active: cfg.hidden_active,
            recurrent_sample: cfg.recurrent_sample,
            ..HebbianConfig::paper_table2()
        });
        Self {
            net,
            rolling: Vec::new(),
            pattern: Vec::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &HebbianNetwork {
        &self.net
    }

    /// Mutable access (availability protocol swaps weights).
    pub fn network_mut(&mut self) -> &mut HebbianNetwork {
        &mut self.net
    }

    /// The network's instrumentation counters (k-WTA stability,
    /// weight churn) for the observability layer's epoch summaries.
    pub fn stats(&self) -> NetStats {
        self.net.stats()
    }

    /// One online training step at full rate.
    pub fn train(&mut self, pattern: &[u32], target: usize) -> HebbianOutcome {
        self.net.train_step(pattern, target)
    }

    /// One training step at a scaled (possibly fractional) rate — the
    /// replay path. Anti-Hebbian depression is disabled: replay
    /// reinforces stored associations without punishing the network's
    /// current (new-pattern) predictions.
    pub fn train_scaled(
        &mut self,
        pattern: &[u32],
        target: usize,
        scale: LrScale,
    ) -> HebbianOutcome {
        self.net.train_step_opts(pattern, target, scale, false)
    }

    /// A replay training step that reinstates a stored recurrent
    /// context: the episode's context is installed, the scaled
    /// (anti-free) update applied, and the live state restored
    /// ([`HebbianNetwork::replay_step`]). Replaying under the
    /// *current* context would potentiate the old target on the wrong
    /// winner set and erode the true association.
    pub fn replay_train(
        &mut self,
        pattern: &[u32],
        target: usize,
        scale: LrScale,
        recurrent: &[u32],
    ) {
        self.net.replay_step(pattern, recurrent, target, scale);
    }

    /// The current recurrent-context bits (stored into episodes).
    pub fn recurrent_state(&self) -> Vec<u32> {
        self.net.recurrent_state().to_vec()
    }

    /// Inference that advances the recurrent state but does not learn
    /// (the sampler's "skip training" path still observes the stream).
    pub fn observe(&mut self, pattern: &[u32], probe: usize) -> HebbianOutcome {
        self.net.infer_advance(pattern, probe)
    }

    /// Multi-step, multi-width prediction from the current state, with
    /// the first step's top-prediction confidence for confidence-gated
    /// issuing (§5.2). `history` is the token history ending in the
    /// newest token; the rollout extends it autoregressively under
    /// `encoder`. A wrapper over [`predict_into`](Self::predict_into).
    pub fn predict_with_confidence(
        &mut self,
        history: &[usize],
        encoder: &Encoder,
        steps: usize,
        width: usize,
    ) -> (Vec<Vec<usize>>, f32) {
        let rollout = self.predict_into(history, encoder, steps, width);
        (
            rollout.steps().map(<[usize]>::to_vec).collect(),
            rollout.first_confidence,
        )
    }

    /// The prediction itself, in scratch owned by the neocortex and
    /// its network ([`HebbianNetwork::rollout_into`]): no allocation
    /// once the buffers have capacity, for the allocation-free
    /// encoders (see [`Encoder::encode_into`]).
    pub fn predict_into(
        &mut self,
        history: &[usize],
        encoder: &Encoder,
        steps: usize,
        width: usize,
    ) -> Rollout<'_> {
        self.rolling.clear();
        self.rolling.extend_from_slice(history);
        encoder.encode_into(&self.rolling, &mut self.pattern);
        let rolling = &mut self.rolling;
        self.net
            .rollout_into(&self.pattern, steps, width, |tok, next| {
                rolling.push(tok);
                encoder.encode_into(rolling, next);
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderKind;

    fn small_cfg() -> NeocortexConfig {
        NeocortexConfig {
            hidden: 128,
            connectivity: 0.375,
            hidden_active: 16,
            recurrent_bits: 32,
            recurrent_sample: 6,
        }
    }

    #[test]
    fn sizes_from_encoder() {
        let e = Encoder::new(EncoderKind::HistoryWindow { window: 3 }, 20);
        let n = Neocortex::new(&e, 20, &small_cfg());
        assert_eq!(n.network().config().pattern_bits, 60);
        assert_eq!(n.network().config().outputs, 20);
    }

    #[test]
    fn learns_cycle_through_wrapper() {
        let e = Encoder::new(EncoderKind::OneHot, 16);
        let mut n = Neocortex::new(&e, 16, &small_cfg());
        let cycle = [1usize, 5, 2, 9];
        let mut last_correct = false;
        for _ in 0..200 {
            for w in 0..cycle.len() {
                let pattern = e.encode(&cycle[w..w + 1]);
                let o = n.train(&pattern, cycle[(w + 1) % cycle.len()]);
                last_correct = o.correct;
            }
        }
        assert!(last_correct);
    }

    #[test]
    fn predict_extends_history_autoregressively() {
        let e = Encoder::new(EncoderKind::HistoryWindow { window: 2 }, 16);
        let mut n = Neocortex::new(&e, 16, &small_cfg());
        let cycle = [1usize, 5, 2, 9];
        for _ in 0..300 {
            let mut hist: Vec<usize> = vec![cycle[3]];
            for &tok in &cycle {
                hist.push(tok);
                let ctx = &hist[..hist.len() - 1];
                let pattern = e.encode(ctx);
                n.train(&pattern, tok);
            }
        }
        // Recreate the recurrent context that preceded [9, 1] during
        // training (the state after consuming context [9]), then
        // predict three steps from history [9, 1].
        n.network_mut().reset_state();
        let _ = n.observe(&e.encode(&[9]), 0);
        let (preds, _) = n.predict_with_confidence(&[9, 1], &e, 3, 2);
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].len(), 2);
        assert_eq!(preds[0][0], 5, "next after 1 is 5");
    }

    #[test]
    fn observe_does_not_learn() {
        let e = Encoder::new(EncoderKind::OneHot, 16);
        let mut n = Neocortex::new(&e, 16, &small_cfg());
        for _ in 0..100 {
            n.train(&e.encode(&[4]), 4);
        }
        let w_before = n.network().param_count(); // Structure is fixed...
        let conf_before = {
            n.network_mut().reset_state();
            n.observe(&e.encode(&[4]), 4).confidence
        };
        for _ in 0..50 {
            n.observe(&e.encode(&[9]), 9);
        }
        n.network_mut().reset_state();
        let conf_after = n.observe(&e.encode(&[4]), 4).confidence;
        assert_eq!(conf_before, conf_after, "observe must not change weights");
        assert_eq!(w_before, n.network().param_count());
    }
}
