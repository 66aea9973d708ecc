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

/// Configuration of the LSTM prefetcher deployment.
#[derive(Debug, Clone)]
pub struct LstmPrefetcherConfig {
    /// Delta vocabulary half-range (tokens cover `[-range, range]`).
    pub delta_range: i64,
    /// Embedding width.
    pub embed_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Online learning rate.
    pub learning_rate: f32,
    /// Prediction steps into the future (prefetch length, §5.2).
    pub lookahead: usize,
    /// Predictions per step (prefetch width, §5.2).
    pub width: usize,
    /// Minimum first-step softmax probability required to issue
    /// prefetches (§5.2 selectivity; prevents an untrained model from
    /// polluting memory).
    pub min_confidence: f32,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for LstmPrefetcherConfig {
    fn default() -> Self {
        Self {
            delta_range: 64,
            embed_dim: 32,
            hidden: 64,
            learning_rate: 0.05,
            lookahead: 2,
            width: 2,
            min_confidence: 0.05,
            seed: 0x15b4,
        }
    }
}

/// The online-learning LSTM prefetcher.
pub struct LstmPrefetcher {
    cfg: LstmPrefetcherConfig,
    vocab: DeltaVocab,
    net: LstmNetwork,
    last_page: Option<u64>,
    last_token: Option<usize>,
    /// Exponential moving average of prediction confidence (§5.5 uses
    /// this to decide redeployments).
    ema_confidence: f32,
}

impl LstmPrefetcher {
    /// Builds the prefetcher.
    pub fn new(cfg: LstmPrefetcherConfig) -> Self {
        let vocab = DeltaVocab::new(cfg.delta_range);
        let net = LstmNetwork::new(LstmConfig {
            vocab: vocab.len(),
            embed_dim: cfg.embed_dim,
            hidden: cfg.hidden,
            learning_rate: cfg.learning_rate,
            grad_clip: 1.0,
            threads: 1,
            seed: cfg.seed,
        });
        Self {
            cfg,
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
                let delta = miss.page as i64 - last as i64;
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
            let (rollout, confidence) =
                self.net
                    .rollout_top_k_with_confidence(tok, self.cfg.lookahead, self.cfg.width);
            if confidence < self.cfg.min_confidence {
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
        let mut p = LstmPrefetcher::new(LstmPrefetcherConfig::default());
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
        let p = LstmPrefetcher::new(LstmPrefetcherConfig::default());
        let v = &p.vocab;
        // Steps: top-1 delta +2 then +3; widths add an alternative +1.
        let rollout = vec![vec![v.token_of(2), v.token_of(1)], vec![v.token_of(3)]];
        let pages = p.pages_from_rollout(100, &rollout);
        assert_eq!(pages, vec![102, 101, 105]);
    }

    #[test]
    fn oov_prediction_stops_the_walk() {
        let p = LstmPrefetcher::new(LstmPrefetcherConfig::default());
        let v = &p.vocab;
        let rollout = vec![vec![v.oov()], vec![v.token_of(1)]];
        assert!(p.pages_from_rollout(100, &rollout).is_empty());
    }

    #[test]
    fn first_miss_produces_no_prefetch() {
        let mut p = LstmPrefetcher::new(LstmPrefetcherConfig::default());
        let out = p.on_miss(&MissEvent {
            page: 5,
            tick: 0,
            stream: 0,
        });
        assert!(out.is_empty(), "no delta context yet");
    }
}
