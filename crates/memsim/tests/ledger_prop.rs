//! Differential test of `PrefetchLedger` against a naive reference: a
//! `Vec<(page, due)>` that sorts by page before every drain. Random
//! sequences of issue/take/drain_due/drain_all must drain the same
//! pages in the same order and agree on `len` and `contains` after
//! every step.

use proptest::prelude::*;

use hnp_memsim::PrefetchLedger;

/// The reference: unordered `(page, due)` pairs, one per page.
#[derive(Default)]
struct Naive(Vec<(u64, u64)>);

impl Naive {
    fn issue(&mut self, page: u64, due: u64) {
        self.take(page);
        self.0.push((page, due));
    }

    fn take(&mut self, page: u64) -> Option<u64> {
        let idx = self.0.iter().position(|&(p, _)| p == page)?;
        Some(self.0.remove(idx).1)
    }

    fn drain_due(&mut self, now: u64) -> Vec<u64> {
        self.0.sort_unstable();
        let due: Vec<u64> = self
            .0
            .iter()
            .filter(|&&(_, d)| d <= now)
            .map(|&(p, _)| p)
            .collect();
        self.0.retain(|&(_, d)| d > now);
        due
    }

    fn drain_all(&mut self) -> Vec<u64> {
        self.0.sort_unstable();
        self.0.drain(..).map(|(p, _)| p).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_matches_naive_reference(
        ops in proptest::collection::vec((0u8..8, 0u64..24, 0u64..64), 1..200),
    ) {
        let mut ledger = PrefetchLedger::new();
        let mut naive = Naive::default();
        for (op, page, tick) in ops {
            match op {
                // Issue dominates so the ledger fills up.
                0..=3 => {
                    ledger.issue(page, tick);
                    naive.issue(page, tick);
                }
                4 | 5 => prop_assert_eq!(ledger.take(page), naive.take(page)),
                6 => {
                    let mut got = Vec::new();
                    ledger.drain_due(tick, |p| got.push(p));
                    prop_assert_eq!(got, naive.drain_due(tick));
                }
                _ => {
                    let mut got = Vec::new();
                    ledger.drain_all(|p| got.push(p));
                    prop_assert_eq!(got, naive.drain_all());
                }
            }
            prop_assert_eq!(ledger.len(), naive.0.len());
            prop_assert_eq!(ledger.is_empty(), naive.0.is_empty());
            for p in 0..24 {
                prop_assert_eq!(ledger.contains(p), naive.0.iter().any(|&(q, _)| q == p));
            }
        }
    }
}
