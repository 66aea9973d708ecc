//! The shadow-model availability protocol (§5.5).
//!
//! "Training actively changes the weights of a neural network \[so\] it
//! may be important to block inference during training ... a protocol
//! where training is applied to a separate model copy, which is later
//! redeployed when the live model's confidence/accuracy decreases."
//!
//! [`ShadowDeployment`] serves inference from a live network and
//! trains a private shadow copy; when the live model's windowed
//! accuracy drops below a threshold the shadow is redeployed. The
//! `availability` bench harness also exercises the paper's
//! counter-hypothesis — that Hebbian networks are robust enough to
//! train in place — by comparing both modes.

use hnp_hebbian::{HebbianNetwork, HebbianOutcome};

use crate::confidence::ConfidenceTracker;

/// Redeploy when live windowed accuracy falls below this.
const REDEPLOY_BELOW: f32 = 0.5;
/// Minimum observations before accuracy is trusted.
const MIN_WINDOW_FILL: usize = 64;
/// Check the redeploy condition every this many steps.
const CHECK_EVERY: u64 = 32;
/// Accuracy window size.
const WINDOW: usize = 128;

/// A live/shadow pair of Hebbian networks.
pub struct ShadowDeployment {
    live: HebbianNetwork,
    shadow: HebbianNetwork,
    tracker: ConfidenceTracker,
    steps: u64,
    /// Completed redeployments.
    pub redeployments: u64,
}

impl ShadowDeployment {
    /// Starts the protocol with `net` as both live and shadow.
    pub fn new(net: HebbianNetwork) -> Self {
        Self {
            live: net.clone(),
            shadow: net,
            tracker: ConfidenceTracker::new(0.05, WINDOW),
            steps: 0,
            redeployments: 0,
        }
    }

    /// The live model's tracked accuracy.
    pub fn live_accuracy(&self) -> f32 {
        self.tracker.windowed_accuracy()
    }

    /// One protocol step: the live model serves the prediction (and is
    /// scored on it), the shadow model trains on the example, and the
    /// redeploy condition is evaluated. Returns the live outcome and
    /// whether a redeploy happened.
    pub fn step(&mut self, pattern: &[u32], target: usize) -> (HebbianOutcome, bool) {
        let outcome = self.live.infer_advance(pattern, target);
        self.tracker.record(outcome.confidence, outcome.correct);
        self.shadow.train_step(pattern, target);
        self.steps += 1;
        let mut redeployed = false;
        if self.steps.is_multiple_of(CHECK_EVERY)
            && self.tracker.window_fill() >= MIN_WINDOW_FILL
            && self.tracker.windowed_accuracy() < REDEPLOY_BELOW
        {
            self.redeploy();
            redeployed = true;
        }
        (outcome, redeployed)
    }

    /// Forces a redeploy: the shadow's weights become live.
    fn redeploy(&mut self) {
        self.live = self.shadow.clone();
        self.redeployments += 1;
        // Reset the accuracy window: the new model deserves a fresh
        // assessment.
        self.tracker = ConfidenceTracker::new(0.05, WINDOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_hebbian::HebbianConfig;

    fn net() -> HebbianNetwork {
        HebbianNetwork::new(HebbianConfig {
            pattern_bits: 16,
            recurrent_bits: 32,
            hidden: 128,
            outputs: 16,
            connectivity: 0.375,
            hidden_active: 16,
            recurrent_sample: 6,
            weight_clamp: 32,
            seed: 0xb1a1,
        })
    }

    fn oh(t: usize) -> Vec<u32> {
        vec![t as u32]
    }

    #[test]
    fn shadow_learns_and_redeploys_when_live_is_stale() {
        let mut dep = ShadowDeployment::new(net());
        // The untrained live model mispredicts; the shadow learns the
        // cycle; eventually the protocol redeploys.
        let cycle = [1usize, 5, 2, 9];
        let mut redeploys = 0;
        for epoch in 0..100 {
            for w in 0..cycle.len() {
                let (_, r) = dep.step(&oh(cycle[w]), cycle[(w + 1) % cycle.len()]);
                if r {
                    redeploys += 1;
                }
            }
            if epoch == 99 {
                assert!(
                    dep.live_accuracy() > 0.8,
                    "live accuracy after redeploys: {}",
                    dep.live_accuracy()
                );
            }
        }
        assert!(redeploys >= 1, "at least one redeploy must fire");
        assert_eq!(dep.redeployments, redeploys);
    }

    #[test]
    fn manual_redeploy_copies_shadow_weights() {
        let mut dep = ShadowDeployment::new(net());
        for _ in 0..100 {
            dep.step(&oh(3), 3);
        }
        // The live model never trained; the shadow did.
        dep.redeploy();
        let live = &mut dep.live;
        live.reset_state();
        // Warm the recurrent state one step (the shadow trained with a
        // steady-state context), then probe.
        let _ = live.infer_advance(&oh(3), 3);
        let out = live.infer_advance(&oh(3), 3);
        assert!(out.correct, "redeployed model must know the mapping");
    }
}
