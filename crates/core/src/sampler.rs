//! Training-instance selection (§5.1).
//!
//! "Training on every prefetch inference ... can be unnecessary and
//! resource-consuming." The samplers here implement the alternatives
//! the paper lists: batching, random subsampling, and confidence-
//! gated filtering, plus always-train, §3.1's protocol.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What to do with a new training example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleDecision {
    /// Train on it now.
    Train,
    /// Skip it (inference only).
    Skip,
    /// Queue it; train the whole queue when it reaches the batch size.
    Enqueue,
}

/// A training-instance selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainingSampler {
    /// Train on every miss (the paper's §3.1 setup).
    EveryMiss,
    /// Train on every `n`-th miss.
    EveryNth {
        /// Period.
        n: usize,
    },
    /// Train on a random fraction `p` of misses.
    RandomFraction {
        /// Training probability.
        p: f32,
    },
    /// Train only when model confidence on the example is below
    /// `threshold` (skip well-learned cases).
    ConfidenceGated {
        /// Confidence threshold.
        threshold: f32,
    },
    /// Accumulate examples and train `size` at a time.
    Batch {
        /// Batch size.
        size: usize,
    },
}

/// Stateful evaluator for a [`TrainingSampler`].
#[derive(Debug, Clone)]
pub struct SamplerState {
    sampler: TrainingSampler,
    counter: usize,
    rng: StdRng,
    /// Examples trained / skipped, for reporting.
    pub trained: u64,
    /// Examples skipped.
    pub skipped: u64,
}

impl SamplerState {
    /// Creates evaluator state for `sampler`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (`n == 0`, `p` outside `[0,1]`,
    /// `size == 0`).
    pub fn new(sampler: TrainingSampler, seed: u64) -> Self {
        match sampler {
            TrainingSampler::EveryNth { n } => assert!(n > 0, "period must be positive"),
            TrainingSampler::RandomFraction { p } => {
                assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]")
            }
            TrainingSampler::Batch { size } => assert!(size > 0, "batch size must be positive"),
            _ => {}
        }
        Self {
            sampler,
            counter: 0,
            rng: StdRng::seed_from_u64(seed),
            trained: 0,
            skipped: 0,
        }
    }

    /// The policy.
    pub fn sampler(&self) -> TrainingSampler {
        self.sampler
    }

    /// Decides what to do with an example whose current model
    /// confidence is `confidence`.
    pub fn decide(&mut self, confidence: f32) -> SampleDecision {
        self.counter += 1;
        let d = match self.sampler {
            TrainingSampler::EveryMiss => SampleDecision::Train,
            TrainingSampler::EveryNth { n } => {
                if self.counter.is_multiple_of(n) {
                    SampleDecision::Train
                } else {
                    SampleDecision::Skip
                }
            }
            TrainingSampler::RandomFraction { p } => {
                if self.rng.gen::<f32>() < p {
                    SampleDecision::Train
                } else {
                    SampleDecision::Skip
                }
            }
            TrainingSampler::ConfidenceGated { threshold } => {
                if confidence < threshold {
                    SampleDecision::Train
                } else {
                    SampleDecision::Skip
                }
            }
            TrainingSampler::Batch { .. } => SampleDecision::Enqueue,
        };
        match d {
            SampleDecision::Train => self.trained += 1,
            SampleDecision::Skip => self.skipped += 1,
            SampleDecision::Enqueue => {}
        }
        d
    }

    /// For [`TrainingSampler::Batch`]: whether a queue of `queued`
    /// examples should be flushed now.
    pub fn should_flush(&self, queued: usize) -> bool {
        matches!(self.sampler, TrainingSampler::Batch { size } if queued >= size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_miss_always_trains() {
        let mut s = SamplerState::new(TrainingSampler::EveryMiss, 0);
        for _ in 0..10 {
            assert_eq!(s.decide(0.9), SampleDecision::Train);
        }
        assert_eq!(s.trained, 10);
    }

    #[test]
    fn every_nth_trains_periodically() {
        let mut s = SamplerState::new(TrainingSampler::EveryNth { n: 3 }, 0);
        let decisions: Vec<SampleDecision> = (0..6).map(|_| s.decide(0.5)).collect();
        let trains = decisions
            .iter()
            .filter(|&&d| d == SampleDecision::Train)
            .count();
        assert_eq!(trains, 2);
    }

    #[test]
    fn random_fraction_is_calibrated() {
        let mut s = SamplerState::new(TrainingSampler::RandomFraction { p: 0.25 }, 7);
        let trains = (0..10_000)
            .filter(|_| s.decide(0.5) == SampleDecision::Train)
            .count();
        assert!((2_000..3_000).contains(&trains), "trains {trains}");
    }

    #[test]
    fn confidence_gate_skips_well_learned() {
        let mut s = SamplerState::new(TrainingSampler::ConfidenceGated { threshold: 0.8 }, 0);
        assert_eq!(s.decide(0.9), SampleDecision::Skip);
        assert_eq!(s.decide(0.3), SampleDecision::Train);
        assert_eq!(s.skipped, 1);
        assert_eq!(s.trained, 1);
    }

    #[test]
    fn batch_enqueues_and_flushes_at_size() {
        let mut s = SamplerState::new(TrainingSampler::Batch { size: 4 }, 0);
        assert_eq!(s.decide(0.5), SampleDecision::Enqueue);
        assert!(!s.should_flush(3));
        assert!(s.should_flush(4));
        assert!(s.should_flush(5));
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn bad_fraction_rejected() {
        let _ = SamplerState::new(TrainingSampler::RandomFraction { p: 1.5 }, 0);
    }
}
