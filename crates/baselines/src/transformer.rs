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

/// Configuration of the transformer prefetcher deployment.
#[derive(Debug, Clone)]
pub struct TransformerPrefetcherConfig {
    /// Delta vocabulary half-range.
    pub delta_range: i64,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP width.
    pub ff: usize,
    /// Context window (miss-history length).
    pub window: usize,
    /// Online learning rate.
    pub learning_rate: f32,
    /// Prediction steps (prefetch length).
    pub lookahead: usize,
    /// Candidates per step (prefetch width).
    pub width: usize,
    /// Minimum first-step confidence to issue.
    pub min_confidence: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for TransformerPrefetcherConfig {
    fn default() -> Self {
        Self {
            delta_range: 64,
            dim: 48,
            heads: 2,
            ff: 96,
            window: 6,
            learning_rate: 0.05,
            lookahead: 2,
            width: 2,
            min_confidence: 0.05,
            seed: 0x7f8,
        }
    }
}

/// The online transformer prefetcher.
pub struct TransformerPrefetcher {
    cfg: TransformerPrefetcherConfig,
    vocab: DeltaVocab,
    net: TransformerNetwork,
    history: VecDeque<usize>,
    last_page: Option<u64>,
    ema_confidence: f32,
}

impl TransformerPrefetcher {
    /// Builds the prefetcher.
    pub fn new(cfg: TransformerPrefetcherConfig) -> Self {
        let vocab = DeltaVocab::new(cfg.delta_range);
        let net = TransformerNetwork::new(TransformerConfig {
            vocab: vocab.len(),
            dim: cfg.dim,
            heads: cfg.heads,
            ff: cfg.ff,
            window: cfg.window,
            learning_rate: cfg.learning_rate,
            grad_clip: 1.0,
            seed: cfg.seed,
        });
        Self {
            cfg,
            vocab,
            net,
            history: VecDeque::new(),
            last_page: None,
            ema_confidence: 0.0,
        }
    }

    /// Running confidence EMA on observed targets.
    pub fn confidence(&self) -> f32 {
        self.ema_confidence
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
        let token = self.vocab.token_of(miss.page as i64 - last as i64);
        self.last_page = Some(miss.page);
        // Train on (context -> token).
        if !self.history.is_empty() {
            let ctx = self.context();
            let loss = self.net.train_window(&ctx, token, self.cfg.learning_rate);
            self.ema_confidence = 0.98 * self.ema_confidence + 0.02 * loss.confidence;
        }
        self.history.push_back(token);
        while self.history.len() > self.cfg.window {
            self.history.pop_front();
        }
        let ctx = self.context();
        let (rollout, confidence) =
            self.net
                .rollout_top_k_with_confidence(&ctx, self.cfg.lookahead, self.cfg.width);
        if confidence < self.cfg.min_confidence {
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
        let mut p = TransformerPrefetcher::new(TransformerPrefetcherConfig::default());
        let rep = s.run(&t, &mut p);
        assert!(
            rep.pct_misses_removed(&base) > 25.0,
            "removed {:.1}%",
            rep.pct_misses_removed(&base)
        );
        assert!(p.confidence() > 0.05);
    }

    #[test]
    fn first_miss_is_silent() {
        let mut p = TransformerPrefetcher::new(TransformerPrefetcherConfig::default());
        assert!(p
            .on_miss(&MissEvent {
                page: 3,
                tick: 0,
                stream: 0
            })
            .is_empty());
    }
}
