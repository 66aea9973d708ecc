//! The shadow-model availability protocol (§5.5).
//!
//! "Training actively changes the weights of a neural network \[so\] it
//! may be important to block inference during training ... a protocol
//! where training is applied to a separate model copy, which is later
//! redeployed when the live model's confidence/accuracy decreases."
//!
//! [`ShadowDeployment`] keeps a live network behind a mutex (inference
//! may run from any thread) and trains a private shadow copy; when the
//! live model's windowed accuracy drops below a threshold the shadow
//! is atomically redeployed. The `availability` bench harness also
//! exercises the paper's counter-hypothesis — that Hebbian networks
//! are robust enough to train in place — by comparing both modes under
//! concurrent inference.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hnp_hebbian::{HebbianNetwork, HebbianOutcome};

use crate::confidence::ConfidenceTracker;

/// Redeployment policy.
#[derive(Debug, Clone)]
pub struct AvailabilityConfig {
    /// Redeploy when live windowed accuracy falls below this.
    pub redeploy_below: f32,
    /// Minimum observations before accuracy is trusted.
    pub min_window_fill: usize,
    /// Check the redeploy condition every this many steps.
    pub check_every: u64,
    /// Accuracy window size.
    pub window: usize,
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        Self {
            redeploy_below: 0.5,
            min_window_fill: 64,
            check_every: 32,
            window: 128,
        }
    }
}

/// A live/shadow pair of Hebbian networks.
pub struct ShadowDeployment {
    live: Arc<Mutex<HebbianNetwork>>,
    shadow: HebbianNetwork,
    tracker: ConfidenceTracker,
    cfg: AvailabilityConfig,
    steps: u64,
    /// Completed redeployments.
    pub redeployments: u64,
}

impl ShadowDeployment {
    /// Starts the protocol with `net` as both live and shadow.
    pub fn new(net: HebbianNetwork, cfg: AvailabilityConfig) -> Self {
        Self {
            live: Arc::new(Mutex::new(net.clone())),
            shadow: net,
            tracker: ConfidenceTracker::new(0.05, cfg.window),
            cfg,
            steps: 0,
            redeployments: 0,
        }
    }

    /// A handle to the live model for concurrent inference threads.
    pub fn live_handle(&self) -> Arc<Mutex<HebbianNetwork>> {
        Arc::clone(&self.live)
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
        let outcome = {
            let mut live = lock(&self.live);
            live.infer_advance(pattern, target)
        };
        self.tracker.record(outcome.confidence, outcome.correct);
        self.shadow.train_step(pattern, target);
        self.steps += 1;
        let mut redeployed = false;
        if self.steps.is_multiple_of(self.cfg.check_every)
            && self.tracker.window_fill() >= self.cfg.min_window_fill
            && self.tracker.windowed_accuracy() < self.cfg.redeploy_below
        {
            self.redeploy();
            redeployed = true;
        }
        (outcome, redeployed)
    }

    /// Forces a redeploy: the shadow's weights become live.
    pub fn redeploy(&mut self) {
        let mut live = lock(&self.live);
        *live = self.shadow.clone();
        self.redeployments += 1;
        // Reset the accuracy window: the new model deserves a fresh
        // assessment.
        self.tracker = ConfidenceTracker::new(0.05, self.cfg.window);
    }
}

/// Locks the live model, ignoring poisoning: a panicked inference
/// thread must not take the protocol down with it.
fn lock(live: &Mutex<HebbianNetwork>) -> MutexGuard<'_, HebbianNetwork> {
    live.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_hebbian::HebbianConfig;

    fn net() -> HebbianNetwork {
        HebbianNetwork::new(HebbianConfig::tiny())
    }

    fn oh(t: usize) -> Vec<u32> {
        vec![t as u32]
    }

    #[test]
    fn shadow_learns_and_redeploys_when_live_is_stale() {
        let mut dep = ShadowDeployment::new(
            net(),
            AvailabilityConfig {
                redeploy_below: 0.5,
                min_window_fill: 32,
                check_every: 16,
                window: 64,
            },
        );
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
        let mut dep = ShadowDeployment::new(net(), AvailabilityConfig::default());
        for _ in 0..100 {
            dep.step(&oh(3), 3);
        }
        // The live model never trained; the shadow did.
        dep.redeploy();
        let live = dep.live_handle();
        let mut live = lock(&live);
        live.reset_state();
        // Warm the recurrent state one step (the shadow trained with a
        // steady-state context), then probe.
        let _ = live.infer_advance(&oh(3), 3);
        let out = live.infer_advance(&oh(3), 3);
        assert!(out.correct, "redeployed model must know the mapping");
    }

    #[test]
    fn live_handle_is_shared() {
        let dep = ShadowDeployment::new(net(), AvailabilityConfig::default());
        let h1 = dep.live_handle();
        let h2 = dep.live_handle();
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn concurrent_inference_during_training_is_safe() {
        let mut dep = ShadowDeployment::new(net(), AvailabilityConfig::default());
        let handle = dep.live_handle();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        // Training starts only after the reader's first inference, so
        // the two really overlap however the threads are scheduled.
        let started = Arc::new(std::sync::Barrier::new(2));
        let started2 = Arc::clone(&started);
        let reader = std::thread::spawn(move || {
            let mut inferences = 0u64;
            loop {
                let _ = lock(&handle).infer_advance(&[1], 1);
                inferences += 1;
                if inferences == 1 {
                    started2.wait();
                }
                if stop2.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
            }
            inferences
        });
        started.wait();
        for i in 0..2000usize {
            dep.step(&[(i % 8) as u32], (i % 8).min(15));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let inferences = reader.join().expect("reader thread");
        assert!(inferences > 0, "inference proceeded concurrently");
    }
}
