//! The transformer prefetcher: the other family of prior DL work the
//! paper critiques (§2 cites transformer-based prefetchers alongside
//! LSTMs).
//!
//! Deployment matches Fig. 1, like the LSTM baseline: page deltas are
//! tokenized into a bounded vocabulary, the model trains online on
//! each miss transition over a sliding context window, and emits a
//! multi-step rollout translated back to pages.

use std::collections::VecDeque;

use hnp_memsim::deltas::{pages_from_rollout, DeltaVocab};
use hnp_memsim::prefetcher::{MissEvent, Prefetcher};
use hnp_nn::transformer::{TransformerConfig, TransformerNetwork};

/// Delta vocabulary half-range.
const DELTA_RANGE: i64 = 64;
/// Model width.
const DIM: usize = 48;
/// Attention heads.
const HEADS: usize = 2;
/// MLP width.
const FF: usize = 96;
/// Context window (miss-history length).
const WINDOW: usize = 6;
/// Online learning rate.
const LEARNING_RATE: f32 = 0.05;
/// Prediction steps (prefetch length).
const LOOKAHEAD: usize = 2;
/// Candidates per step (prefetch width).
const WIDTH: usize = 2;
/// Minimum first-step confidence to issue.
const MIN_CONFIDENCE: f32 = 0.05;

/// The online transformer prefetcher.
pub struct TransformerPrefetcher {
    vocab: DeltaVocab,
    net: TransformerNetwork,
    history: VecDeque<usize>,
    last_page: Option<u64>,
}

impl TransformerPrefetcher {
    /// Builds the prefetcher; `seed` seeds the weight init.
    pub fn new(seed: u64) -> Self {
        let vocab = DeltaVocab::new(DELTA_RANGE);
        let net = TransformerNetwork::new(TransformerConfig {
            vocab: vocab.len(),
            dim: DIM,
            heads: HEADS,
            ff: FF,
            window: WINDOW,
            seed,
        });
        Self {
            vocab,
            net,
            history: VecDeque::new(),
            last_page: None,
        }
    }

    fn context(&self) -> Vec<usize> {
        self.history.iter().copied().collect()
    }
}

impl Prefetcher for TransformerPrefetcher {
    fn name(&self) -> &str {
        "transformer"
    }

    fn reset_state(&mut self) {
        // A restart loses the context window; weights survive.
        self.history.clear();
        self.last_page = None;
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let Some(last) = self.last_page else {
            self.last_page = Some(miss.page);
            return Vec::new();
        };
        let token = self
            .vocab
            .token_of((miss.page as i64).wrapping_sub(last as i64));
        self.last_page = Some(miss.page);
        // Train on (context -> token).
        if !self.history.is_empty() {
            let ctx = self.context();
            self.net.train_window(&ctx, token, LEARNING_RATE);
        }
        self.history.push_back(token);
        while self.history.len() > WINDOW {
            self.history.pop_front();
        }
        let ctx = self.context();
        let (rollout, confidence) = self
            .net
            .rollout_top_k_with_confidence(&ctx, LOOKAHEAD, WIDTH);
        if confidence < MIN_CONFIDENCE {
            return Vec::new();
        }
        pages_from_rollout(&self.vocab, miss.page, &rollout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
    use hnp_trace::Pattern;

    const SEED: u64 = 0x7f8;

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
        let t = Pattern::Stride.generate(3000, 0);
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let mut p = TransformerPrefetcher::new(SEED);
        let rep = s.run(&t, &mut p);
        assert!(
            rep.pct_misses_removed(&base) > 25.0,
            "removed {:.1}%",
            rep.pct_misses_removed(&base)
        );
    }

    #[test]
    fn first_miss_is_silent() {
        let mut p = TransformerPrefetcher::new(SEED);
        assert!(p
            .on_miss(&MissEvent {
                page: 3,
                tick: 0,
                stream: 0
            })
            .is_empty());
    }

    #[test]
    fn seed_changes_the_learned_model() {
        let run = |seed| {
            let mut p = TransformerPrefetcher::new(seed);
            for i in 0..200u64 {
                p.on_miss(&MissEvent {
                    page: 3 * i,
                    tick: i,
                    stream: 0,
                });
            }
            p.net.eval_window(&p.context(), 0).probs
        };
        assert_ne!(run(1), run(2), "the seed must reach the weights");
    }

    #[test]
    fn extreme_page_jumps_do_not_panic() {
        // Regression: `page as i64 - last as i64` overflowed on a jump
        // between the halves of the `u64` page space, and the delta
        // `i64::MIN` then overflowed `DeltaVocab::token_of`.
        let mut p = TransformerPrefetcher::new(1);
        for (tick, page) in [1u64 << 63, 0, 1].into_iter().enumerate() {
            p.on_miss(&MissEvent {
                page,
                tick: tick as u64,
                stream: 0,
            });
        }
    }
}
