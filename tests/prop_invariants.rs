//! Property-based tests over the core data structures and the
//! simulator's accounting invariants.

use proptest::prelude::*;

use hnp::core::{CapacityPolicy, EpisodeRef, EpisodicStore, Hippocampus};
use hnp::hebbian::bitset::BitSet;
use hnp::hebbian::kwta::k_winners_into;
use hnp::memsim::deltas::pages_from_rollout;
use hnp::memsim::memory::LocalMemory;
use hnp::memsim::{DeltaVocab, NoPrefetcher, SimConfig, Simulator};
use hnp::traces::Trace;

proptest! {
    /// Delta <-> token mapping is a bijection on the in-range domain.
    /// Tokens decode through the rollout walk: a one-step rollout moves
    /// the base page by exactly the token's delta, and the OOV token
    /// yields no page.
    #[test]
    fn delta_vocab_roundtrip(range in 1i64..200, delta in -500i64..500) {
        let v = DeltaVocab::new(range);
        let t = v.token_of(delta);
        prop_assert!(t < v.len());
        let base = 1_000u64;
        match pages_from_rollout(&v, base, [[t]]).as_slice() {
            [page] => {
                prop_assert_eq!(*page as i64 - base as i64, delta);
                prop_assert!(delta != 0 && delta.abs() <= range);
            }
            [] => prop_assert!(delta == 0 || delta.abs() > range),
            pages => prop_assert!(false, "one step decoded to {:?}", pages),
        }
    }

    /// The bitset agrees with a HashSet model under arbitrary
    /// insert/remove sequences.
    #[test]
    fn bitset_matches_model(ops in proptest::collection::vec((0usize..256, any::<bool>()), 1..200)) {
        let mut s = BitSet::new(256);
        let mut model = std::collections::HashSet::new();
        for (bit, insert) in ops {
            if insert {
                s.insert(bit);
                model.insert(bit);
            } else {
                s.remove(bit);
                model.remove(&bit);
            }
        }
        prop_assert_eq!(s.count(), model.len());
        for b in 0..256 {
            prop_assert_eq!(s.contains(b), model.contains(&b));
        }
        let from_iter: Vec<usize> = s.iter().collect();
        let mut sorted: Vec<usize> = model.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(from_iter, sorted);
    }

    /// k-WTA returns exactly min(k, n) distinct indices whose scores
    /// dominate every non-winner.
    #[test]
    fn kwta_winners_dominate(scores in proptest::collection::vec(-1000i32..1000, 1..300), k in 0usize..310) {
        let (mut scratch, mut winners) = (Vec::new(), Vec::new());
        k_winners_into(&scores, k, &mut scratch, &mut winners);
        prop_assert_eq!(winners.len(), k.min(scores.len()));
        let wset: std::collections::HashSet<u32> = winners.iter().copied().collect();
        prop_assert_eq!(wset.len(), winners.len(), "distinct winners");
        if let Some(&min_w) = winners.iter().map(|&w| &scores[w as usize]).min() {
            for (i, &s) in scores.iter().enumerate() {
                if !wset.contains(&(i as u32)) {
                    prop_assert!(s <= min_w, "non-winner {} beats winner floor {}", s, min_w);
                }
            }
        }
    }

    /// The page memory never exceeds capacity and always contains the
    /// most recent insert.
    #[test]
    fn memory_capacity_invariant(
        capacity in 1usize..64,
        pages in proptest::collection::vec(0u64..128, 1..300),
    ) {
        let mut m = LocalMemory::new(capacity);
        for &p in &pages {
            if !m.contains(p) {
                m.insert(p, false);
            }
            m.touch(p);
            prop_assert!(m.len() <= capacity);
            prop_assert!(m.contains(p), "just-inserted page resident");
        }
    }

    /// Simulator accounting: hits + late + full = accesses; metrics are
    /// finite and sane for arbitrary traces.
    #[test]
    fn simulator_conservation(
        addrs in proptest::collection::vec(0u64..0x100_0000, 1..400),
        capacity in 1usize..64,
        miss_latency in 1u64..200,
    ) {
        let trace = Trace::from_addrs(addrs);
        let sim = Simulator::new(SimConfig {
            capacity_pages: capacity,
            miss_latency,
            ..SimConfig::default()
        });
        let rep = sim.run(&trace, &mut NoPrefetcher);
        prop_assert_eq!(rep.hits + rep.late_prefetch_hits + rep.full_misses, rep.accesses);
        prop_assert!(rep.miss_rate() >= 0.0 && rep.miss_rate() <= 1.0);
        prop_assert!(rep.total_ticks >= rep.accesses as u64);
    }

    /// The hippocampal ring never exceeds its configured capacity,
    /// including a capacity of 0.
    #[test]
    fn hippocampus_capacity_bound(
        capacity in 0usize..64,
        n in 1usize..300,
    ) {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity });
        for i in 0..n {
            h.store_ref(EpisodeRef {
                history: &[i % 16],
                pattern: &[(i % 50) as u32],
                recurrent: &[],
                target: i % 10,
                confidence: (i % 100) as f32 / 100.0,
                stored_at: i as u64,
                phase: 0,
            });
            prop_assert!(h.stored() <= capacity, "capacity {}", capacity);
        }
    }
}
