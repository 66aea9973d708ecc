//! Property-based tests over the learned models and adversarial
//! failure injection against the simulator.

use proptest::prelude::*;

use hnp::core::{ClsConfig, ClsPrefetcher};
use hnp::hebbian::{HebbianConfig, HebbianNetwork};
use hnp::memsim::prefetcher::{MissEvent, Prefetcher};
use hnp::memsim::{SimConfig, Simulator};
use hnp::nn::transformer::{TransformerConfig, TransformerNetwork};
use hnp::nn::{LstmConfig, LstmNetwork};
use hnp::traces::Trace;

/// A hostile prefetcher: returns arbitrary (possibly absurd) pages.
struct Chaos {
    pages: Vec<u64>,
    i: usize,
}

impl Prefetcher for Chaos {
    fn name(&self) -> &str {
        "chaos"
    }
    fn on_miss(&mut self, _miss: &MissEvent) -> Vec<u64> {
        let mut out = Vec::new();
        for _ in 0..3 {
            if self.pages.is_empty() {
                break;
            }
            out.push(self.pages[self.i % self.pages.len()]);
            self.i += 1;
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator's accounting invariants hold under an adversarial
    /// prefetcher emitting arbitrary pages (including u64::MAX).
    #[test]
    fn simulator_survives_chaos_prefetcher(
        addrs in proptest::collection::vec(0u64..0x10_0000, 20..200),
        garbage in proptest::collection::vec(any::<u64>(), 1..32),
        capacity in 2usize..64,
    ) {
        let trace = Trace::from_addrs(addrs);
        let sim = Simulator::new(SimConfig {
            capacity_pages: capacity,
            ..SimConfig::default()
        });
        let mut chaos = Chaos { pages: garbage, i: 0 };
        let rep = sim.run(&trace, &mut chaos);
        prop_assert_eq!(rep.hits + rep.late_prefetch_hits + rep.full_misses, rep.accesses);
        prop_assert!(rep.prefetches_useful <= rep.prefetches_issued);
        prop_assert!(rep.prefetches_unused <= rep.prefetches_issued);
    }

    /// The Hebbian network accepts arbitrary valid token streams
    /// without panicking, keeps confidence in [0, 1], and reports
    /// nonzero op counts.
    #[test]
    fn hebbian_handles_arbitrary_streams(
        tokens in proptest::collection::vec(0usize..16, 2..80),
        seed in 0u64..32,
    ) {
        let mut net = HebbianNetwork::new(HebbianConfig {
            pattern_bits: 16,
            recurrent_bits: 32,
            hidden: 128,
            outputs: 16,
            connectivity: 0.375,
            hidden_active: 16,
            recurrent_sample: 6,
            weight_clamp: 32,
            seed,
        });
        for w in tokens.windows(2) {
            let o = net.train_step(&[w[0] as u32], w[1]);
            prop_assert!((0.0..=1.0).contains(&o.confidence));
            prop_assert!(o.predicted < 16);
            prop_assert!(o.ops > 0);
        }
    }

    /// LSTM and transformer training never produces NaNs in their
    /// predictions, whatever the (valid) stream.
    #[test]
    fn dl_models_stay_finite(
        tokens in proptest::collection::vec(0usize..12, 6..60),
    ) {
        let mut lstm = LstmNetwork::new(LstmConfig {
            vocab: 12,
            embed_dim: 6,
            hidden: 10,
            ..LstmConfig::default()
        });
        let mut tf = TransformerNetwork::new(TransformerConfig {
            vocab: 12,
            dim: 16,
            heads: 2,
            ff: 32,
            window: 4,
            ..TransformerConfig::default()
        });
        for w in tokens.windows(5) {
            let l = lstm.train_window(&w[..4], w[4], 0.1);
            prop_assert!(l.loss.is_finite());
            prop_assert!(l.probs.iter().all(|p| p.is_finite()));
            let t = tf.train_window(&w[..4], w[4], 0.1);
            prop_assert!(t.loss.is_finite());
            prop_assert!(t.probs.iter().all(|p| p.is_finite()));
        }
    }

    /// The CLS prefetcher emits only non-negative, bounded candidate
    /// lists and never panics on arbitrary page streams (including
    /// stream tags).
    #[test]
    fn cls_prefetcher_is_total(
        misses in proptest::collection::vec((0u64..0x1000, 0u16..4), 2..120),
    ) {
        let mut p = ClsPrefetcher::new(ClsConfig::small());
        for (i, &(page, stream)) in misses.iter().enumerate() {
            let out = p.on_miss(&MissEvent {
                page,
                tick: i as u64,
                stream,
            });
            // Width 2 x lookahead 2 -> at most 4 candidates.
            prop_assert!(out.len() <= 4, "candidates {}", out.len());
        }
    }
}
