//! Non-learning baseline prefetchers.
//!
//! These are the "pre-programmed rules" the paper contrasts with
//! learned approaches: next-N-line, stride detection with a
//! confidence counter, and a first-order Markov (correlation) table.

use std::collections::HashMap;

use hnp_memsim::prefetcher::{MissEvent, Prefetcher};

/// Sequential pages [`NextNPrefetcher`] fetches per miss.
const NEXT_N_DEGREE: u64 = 4;

/// Prefetches the next four sequential pages after every miss.
#[derive(Debug, Clone, Default)]
pub struct NextNPrefetcher;

impl NextNPrefetcher {
    /// Creates a next-4-line prefetcher.
    pub fn new() -> Self {
        Self
    }
}

impl Prefetcher for NextNPrefetcher {
    fn name(&self) -> &str {
        "next-n"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        (1..=NEXT_N_DEGREE)
            .map_while(|i| miss.page.checked_add(i))
            .collect()
    }
}

/// Classic stride detection: tracks the last two miss deltas and
/// prefetches ahead along a confirmed constant stride.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    last_page: Option<u64>,
    last_delta: Option<i64>,
    /// Consecutive confirmations of the current stride.
    confidence: u32,
    /// Pages fetched ahead once confident.
    degree: usize,
}

/// Consecutive stride confirmations required before prefetching.
const STRIDE_THRESHOLD: u32 = 2;

/// Configuration of [`StridePrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Pages fetched ahead once confident.
    pub degree: usize,
}

impl Default for StrideConfig {
    fn default() -> Self {
        Self { degree: 4 }
    }
}

impl StrideConfig {
    /// Sets the prefetch degree.
    pub fn with_degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }
}

impl StridePrefetcher {
    /// Creates a stride prefetcher from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.degree == 0`.
    pub fn with_config(cfg: StrideConfig) -> Self {
        assert!(cfg.degree > 0, "degree must be positive");
        Self {
            last_page: None,
            last_delta: None,
            confidence: 0,
            degree: cfg.degree,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &str {
        "stride"
    }

    fn reset_state(&mut self) {
        self.last_page = None;
        self.last_delta = None;
        self.confidence = 0;
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(last) = self.last_page {
            // Two's-complement delta: total over `u64` pages.
            let delta = miss.page.wrapping_sub(last) as i64;
            if Some(delta) == self.last_delta && delta != 0 {
                self.confidence = self.confidence.saturating_add(1);
            } else {
                self.confidence = 0;
                self.last_delta = Some(delta);
            }
            if self.confidence >= STRIDE_THRESHOLD {
                // Both branches above leave `last_delta == Some(delta)`.
                // The walk stops at either end of the page space.
                let mut p = miss.page;
                for _ in 0..self.degree {
                    let Some(next) = p.checked_add_signed(delta) else {
                        break;
                    };
                    p = next;
                    out.push(p);
                }
            }
        }
        self.last_page = Some(miss.page);
        out
    }
}

/// Bounded transition-table capacity of [`MarkovPrefetcher`] (pages
/// tracked).
const MARKOV_CAPACITY: usize = 4096;
/// Successor predictions [`MarkovPrefetcher`] remembers per page.
const MARKOV_SUCCESSORS: usize = 2;

/// First-order Markov (correlation) prefetcher: remembers up to two
/// successor pages per miss page, most-recent first, in a table of at
/// most 4096 pages.
#[derive(Debug, Clone, Default)]
pub struct MarkovPrefetcher {
    table: HashMap<u64, Vec<u64>>,
    order: Vec<u64>,
    last_page: Option<u64>,
}

impl MarkovPrefetcher {
    /// Creates a Markov prefetcher with an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn note_transition(&mut self, from: u64, to: u64) {
        if !self.table.contains_key(&from) && self.table.len() >= MARKOV_CAPACITY {
            // Evict the oldest entry (FIFO over first insertion).
            let victim = self.order.remove(0);
            self.table.remove(&victim);
        }
        let entry = self.table.entry(from).or_insert_with(|| {
            self.order.push(from);
            Vec::new()
        });
        // Most-recent-first, deduplicated, bounded.
        entry.retain(|&p| p != to);
        entry.insert(0, to);
        entry.truncate(MARKOV_SUCCESSORS);
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &str {
        "markov"
    }

    fn reset_state(&mut self) {
        // A restart loses the last-page context; the learned
        // transition table survives.
        self.last_page = None;
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        if let Some(last) = self.last_page {
            self.note_transition(last, miss.page);
        }
        self.last_page = Some(miss.page);
        self.table.get(&miss.page).cloned().unwrap_or_default()
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
            ..SimConfig::default()
        })
    }

    #[test]
    fn next_n_emits_sequential_pages() {
        let mut p = NextNPrefetcher::new();
        let out = p.on_miss(&MissEvent {
            page: 10,
            tick: 0,
            stream: 0,
        });
        assert_eq!(out, vec![11, 12, 13, 14]);
    }

    #[test]
    fn stride_prefetcher_waits_for_confirmation() {
        let mut p = StridePrefetcher::with_config(StrideConfig::default().with_degree(2));
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        assert!(p.on_miss(&mk(10)).is_empty());
        assert!(p.on_miss(&mk(12)).is_empty()); // First delta seen.
        assert!(p.on_miss(&mk(14)).is_empty()); // Confidence 1 < 2.
        assert_eq!(p.on_miss(&mk(16)), vec![18, 20]); // Confirmed.
    }

    #[test]
    fn stride_prefetcher_resets_on_pattern_break() {
        let mut p = StridePrefetcher::with_config(StrideConfig::default().with_degree(1));
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        p.on_miss(&mk(10));
        p.on_miss(&mk(12));
        p.on_miss(&mk(14));
        assert_eq!(p.on_miss(&mk(16)), vec![18]);
        assert!(p.on_miss(&mk(100)).is_empty(), "break resets confidence");
    }

    #[test]
    fn markov_learns_repeated_transitions() {
        let mut p = MarkovPrefetcher::new();
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        // Sequence A(1) -> B(9) -> A -> B...
        p.on_miss(&mk(1));
        p.on_miss(&mk(9));
        let out = p.on_miss(&mk(1));
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn markov_table_capacity_is_bounded() {
        let mut p = MarkovPrefetcher::new();
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        for page in 0..MARKOV_CAPACITY as u64 + 100 {
            p.on_miss(&mk(page));
        }
        assert!(p.table.len() <= MARKOV_CAPACITY);
    }

    #[test]
    fn stride_prefetcher_beats_baseline_on_stride_trace() {
        let t = Pattern::Stride.generate(3000, 0);
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let rep = s.run(
            &t,
            &mut StridePrefetcher::with_config(StrideConfig::default()),
        );
        assert!(
            rep.pct_misses_removed(&base) > 40.0,
            "removed {:.1}%",
            rep.pct_misses_removed(&base)
        );
    }

    #[test]
    fn markov_beats_stride_on_pointer_chase() {
        let t = Pattern::PointerChase.generate(4000, 1);
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let stride = s.run(
            &t,
            &mut StridePrefetcher::with_config(StrideConfig::default()),
        );
        let markov = s.run(&t, &mut MarkovPrefetcher::new());
        assert!(
            markov.pct_misses_removed(&base) > stride.pct_misses_removed(&base),
            "markov {:.1}% vs stride {:.1}%",
            markov.pct_misses_removed(&base),
            stride.pct_misses_removed(&base)
        );
        assert!(markov.pct_misses_removed(&base) > 30.0);
    }

    #[test]
    fn negative_stride_never_yields_negative_pages() {
        let mut p = StridePrefetcher::with_config(StrideConfig::default());
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        p.on_miss(&mk(20));
        p.on_miss(&mk(15));
        p.on_miss(&mk(10));
        // Confirmed stride -5 from page 5: only page 0 is in range.
        let out = p.on_miss(&mk(5));
        assert!(out.iter().all(|&pg| pg < 10), "{out:?}");
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn strides_across_and_at_the_ends_of_the_page_space() {
        // Regression: `page as i64 - last as i64` overflowed on pages
        // either side of 2^63, and `p += d` and `page + i` ran past
        // `u64::MAX`.
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        let half = 1u64 << 63;
        let mut p = StridePrefetcher::with_config(StrideConfig::default().with_degree(2));
        for page in [half - 2, half - 1, half] {
            assert!(p.on_miss(&mk(page)).is_empty());
        }
        assert_eq!(p.on_miss(&mk(half + 1)), vec![half + 2, half + 3]);
        let mut up = StridePrefetcher::with_config(StrideConfig::default());
        for page in [u64::MAX - 4, u64::MAX - 3, u64::MAX - 2] {
            up.on_miss(&mk(page));
        }
        assert_eq!(up.on_miss(&mk(u64::MAX - 1)), vec![u64::MAX]);
        // A jump between the halves is one (huge) delta, not a panic.
        let mut jump = StridePrefetcher::with_config(StrideConfig::default());
        for page in [0, half, 0, half, u64::MAX, 0] {
            jump.on_miss(&mk(page));
        }
        let mut next = NextNPrefetcher::new();
        assert_eq!(
            next.on_miss(&mk(u64::MAX - 2)),
            vec![u64::MAX - 1, u64::MAX]
        );
        assert!(next.on_miss(&mk(u64::MAX)).is_empty());
    }
}
