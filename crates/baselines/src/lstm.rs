//! The LSTM prefetcher: the paper's deep-learning baseline.
//!
//! Deployment follows Fig. 1: on each demand miss the page delta from
//! the previous miss is tokenized into a bounded delta vocabulary; the
//! LSTM consumes the token, is trained online against the *next* miss
//! (when it arrives), and emits a multi-step, multi-width rollout of
//! predicted deltas that are translated back to prefetch pages.

use hnp_memsim::deltas::DeltaVocab;
use hnp_memsim::prefetcher::{MissEvent, Prefetcher};
use hnp_nn::lstm::{LstmConfig, LstmNetwork};

/// Delta vocabulary half-range (tokens cover `[-range, range]`).
const DELTA_RANGE: i64 = 64;
/// Embedding width.
const EMBED_DIM: usize = 32;
/// Hidden width.
const HIDDEN: usize = 64;
/// Online learning rate.
const LEARNING_RATE: f32 = 0.05;
/// Prediction steps into the future (prefetch length, §5.2).
const LOOKAHEAD: usize = 2;
/// Predictions per step (prefetch width, §5.2).
const WIDTH: usize = 2;
/// Minimum first-step softmax probability required to issue
/// prefetches (§5.2 selectivity; prevents an untrained model from
/// polluting memory).
const MIN_CONFIDENCE: f32 = 0.05;

/// The online-learning LSTM prefetcher.
pub struct LstmPrefetcher {
    vocab: DeltaVocab,
    net: LstmNetwork,
    last_page: Option<u64>,
    last_token: Option<usize>,
    /// Exponential moving average of prediction confidence (§5.5 uses
    /// this to decide redeployments).
    ema_confidence: f32,
}

impl LstmPrefetcher {
    /// Builds the prefetcher; `seed` seeds the weight init.
    pub fn new(seed: u64) -> Self {
        let vocab = DeltaVocab::new(DELTA_RANGE);
        let net = LstmNetwork::new(LstmConfig {
            vocab: vocab.len(),
            embed_dim: EMBED_DIM,
            hidden: HIDDEN,
            learning_rate: LEARNING_RATE,
            grad_clip: 1.0,
            threads: 1,
            seed,
        });
        Self {
            vocab,
            net,
            last_page: None,
            last_token: None,
            ema_confidence: 0.0,
        }
    }

    /// The running confidence EMA (probability assigned to observed
    /// targets).
    pub fn confidence(&self) -> f32 {
        self.ema_confidence
    }

    /// Access to the underlying network (availability experiments swap
    /// weights between live and shadow copies).
    pub fn network_mut(&mut self) -> &mut LstmNetwork {
        &mut self.net
    }

    /// Translates a rollout of token predictions into prefetch pages
    /// (see [`hnp_memsim::deltas::pages_from_rollout`]).
    fn pages_from_rollout(&self, base: u64, rollout: &[Vec<usize>]) -> Vec<u64> {
        hnp_memsim::deltas::pages_from_rollout(&self.vocab, base, rollout)
    }
}

impl Prefetcher for LstmPrefetcher {
    fn name(&self) -> &str {
        "lstm"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let token = match self.last_page {
            Some(last) => {
                let delta = (miss.page as i64).wrapping_sub(last as i64);
                Some(self.vocab.token_of(delta))
            }
            None => None,
        };
        if let (Some(prev), Some(cur)) = (self.last_token, token) {
            // Online step: the state has already consumed `prev`'s
            // predecessors; consume `prev` now, fit `cur`.
            let loss = self.net.train_step(prev, cur);
            self.ema_confidence = 0.98 * self.ema_confidence + 0.02 * loss.confidence;
        }
        self.last_page = Some(miss.page);
        if let Some(tok) = token {
            self.last_token = Some(tok);
            let (rollout, confidence) = self
                .net
                .rollout_top_k_with_confidence(tok, LOOKAHEAD, WIDTH);
            if confidence < MIN_CONFIDENCE {
                return Vec::new();
            }
            self.pages_from_rollout(miss.page, &rollout)
        } else {
            self.last_token = None;
            Vec::new()
        }
    }

    fn reset_state(&mut self) {
        // A restart loses the recurrent state and delta context; the
        // learned weights survive (they live with the driver, not the
        // crashed node's memory).
        self.net.reset_state();
        self.last_page = None;
        self.last_token = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
    use hnp_trace::Pattern;

    const SEED: u64 = 0x15b4;

    fn sim() -> Simulator {
        Simulator::new(SimConfig {
            capacity_pages: 32,
            miss_latency: 50,
            prefetch_latency: 50,
            max_issue_per_miss: 4,
            ..SimConfig::default()
        })
    }

    #[test]
    fn learns_stride_online_and_removes_misses() {
        let t = Pattern::Stride.generate(4000, 0);
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let mut p = LstmPrefetcher::new(SEED);
        let rep = s.run(&t, &mut p);
        assert!(
            rep.pct_misses_removed(&base) > 30.0,
            "removed {:.1}%",
            rep.pct_misses_removed(&base)
        );
        // Confidence stays modest: successful prefetching thins the
        // miss stream, so the model's own input distribution keeps
        // shifting (a real deployment feedback effect). It must still
        // be clearly above the uniform floor (1/130 classes).
        assert!(p.confidence() > 0.05, "confidence {}", p.confidence());
    }

    #[test]
    fn rollout_translation_accumulates_deltas() {
        let p = LstmPrefetcher::new(SEED);
        let v = &p.vocab;
        // Steps: top-1 delta +2 then +3; widths add an alternative +1.
        let rollout = vec![vec![v.token_of(2), v.token_of(1)], vec![v.token_of(3)]];
        let pages = p.pages_from_rollout(100, &rollout);
        assert_eq!(pages, vec![102, 101, 105]);
    }

    #[test]
    fn oov_prediction_stops_the_walk() {
        let p = LstmPrefetcher::new(SEED);
        let v = &p.vocab;
        let rollout = vec![vec![v.token_of(0)], vec![v.token_of(1)]];
        assert!(p.pages_from_rollout(100, &rollout).is_empty());
    }

    #[test]
    fn first_miss_produces_no_prefetch() {
        let mut p = LstmPrefetcher::new(SEED);
        let out = p.on_miss(&MissEvent {
            page: 5,
            tick: 0,
            stream: 0,
        });
        assert!(out.is_empty(), "no delta context yet");
    }

    #[test]
    fn seed_changes_the_learned_model() {
        let run = |seed| {
            let mut p = LstmPrefetcher::new(seed);
            for i in 0..200u64 {
                p.on_miss(&MissEvent {
                    page: 3 * i,
                    tick: i,
                    stream: 0,
                });
            }
            p.confidence()
        };
        assert_ne!(run(1), run(2), "the seed must reach the weights");
    }

    #[test]
    fn extreme_page_jumps_do_not_panic() {
        // Regression: `page as i64 - last as i64` overflowed on a jump
        // between the halves of the `u64` page space, and the delta
        // `i64::MIN` then overflowed `DeltaVocab::token_of`.
        let mut p = LstmPrefetcher::new(SEED);
        for (tick, page) in [1u64 << 63, 0, 1].into_iter().enumerate() {
            p.on_miss(&MissEvent {
                page,
                tick: tick as u64,
                stream: 0,
            });
        }
    }
}
