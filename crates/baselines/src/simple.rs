//! Non-learning baseline prefetchers.
//!
//! These are the "pre-programmed rules" the paper contrasts with
//! learned approaches: next-N-line, stride detection with a
//! confidence counter, and a first-order Markov (correlation) table.

use std::collections::HashMap;

use hnp_memsim::prefetcher::{MissEvent, Prefetcher};

/// Configuration of [`NextNPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextNConfig {
    /// Sequential pages fetched per miss.
    pub degree: usize,
}

impl Default for NextNConfig {
    fn default() -> Self {
        Self { degree: 4 }
    }
}

impl NextNConfig {
    /// Sets the number of sequential pages fetched per miss.
    pub fn with_degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }
}

/// Prefetches the next `n` sequential pages after every miss.
#[derive(Debug, Clone)]
pub struct NextNPrefetcher {
    n: usize,
}

impl NextNPrefetcher {
    /// Creates a next-`n`-line prefetcher from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.degree == 0`.
    pub fn with_config(cfg: NextNConfig) -> Self {
        assert!(cfg.degree > 0, "degree must be positive");
        Self { n: cfg.degree }
    }
}

impl Prefetcher for NextNPrefetcher {
    fn name(&self) -> &str {
        "next-n"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        (1..=self.n as u64).map(|i| miss.page + i).collect()
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
    /// Confirmations required before prefetching.
    threshold: u32,
    /// Pages fetched ahead once confident.
    degree: usize,
}

/// Configuration of [`StridePrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Consecutive stride confirmations required before prefetching.
    pub threshold: u32,
    /// Pages fetched ahead once confident.
    pub degree: usize,
}

impl Default for StrideConfig {
    fn default() -> Self {
        Self {
            threshold: 2,
            degree: 4,
        }
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
            threshold: cfg.threshold,
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
            let delta = miss.page as i64 - last as i64;
            if Some(delta) == self.last_delta && delta != 0 {
                self.confidence = self.confidence.saturating_add(1);
            } else {
                self.confidence = 0;
                self.last_delta = Some(delta);
            }
            if self.confidence >= self.threshold {
                // Both branches above leave `last_delta == Some(delta)`.
                let d = delta;
                let mut p = miss.page as i64;
                for _ in 0..self.degree {
                    p += d;
                    if p >= 0 {
                        out.push(p as u64);
                    }
                }
            }
        }
        self.last_page = Some(miss.page);
        out
    }
}

/// First-order Markov (correlation) prefetcher: remembers up to
/// `successors` successor pages per miss page, most-recent first, with
/// a bounded table.
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    table: HashMap<u64, Vec<u64>>,
    order: Vec<u64>,
    capacity: usize,
    successors: usize,
    last_page: Option<u64>,
}

/// Configuration of [`MarkovPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovConfig {
    /// Bounded transition-table capacity (pages tracked).
    pub capacity: usize,
    /// Successor predictions remembered per page.
    pub successors: usize,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            successors: 2,
        }
    }
}

impl MarkovConfig {
    /// Sets the transition-table capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

impl MarkovPrefetcher {
    /// Creates a Markov prefetcher from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.capacity == 0` or `cfg.successors == 0`.
    pub fn with_config(cfg: MarkovConfig) -> Self {
        assert!(cfg.capacity > 0 && cfg.successors > 0);
        Self {
            table: HashMap::new(),
            order: Vec::new(),
            capacity: cfg.capacity,
            successors: cfg.successors,
            last_page: None,
        }
    }

    fn note_transition(&mut self, from: u64, to: u64) {
        if !self.table.contains_key(&from) && self.table.len() >= self.capacity {
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
        entry.truncate(self.successors);
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
        let mut p = NextNPrefetcher::with_config(NextNConfig::default().with_degree(3));
        let out = p.on_miss(&MissEvent {
            page: 10,
            tick: 0,
            stream: 0,
        });
        assert_eq!(out, vec![11, 12, 13]);
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
        let mut p = StridePrefetcher::with_config(StrideConfig {
            threshold: 1,
            degree: 1,
        });
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        p.on_miss(&mk(10));
        p.on_miss(&mk(12));
        assert_eq!(p.on_miss(&mk(14)), vec![16]);
        assert!(p.on_miss(&mk(100)).is_empty(), "break resets confidence");
    }

    #[test]
    fn markov_learns_repeated_transitions() {
        let mut p = MarkovPrefetcher::with_config(MarkovConfig::default().with_capacity(16));
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
        let mut p = MarkovPrefetcher::with_config(MarkovConfig {
            capacity: 4,
            successors: 1,
        });
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        for page in 0..100u64 {
            p.on_miss(&mk(page));
        }
        assert!(p.table.len() <= 4);
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
        let markov = s.run(
            &t,
            &mut MarkovPrefetcher::with_config(MarkovConfig::default().with_capacity(256)),
        );
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
        let mut p = StridePrefetcher::with_config(StrideConfig {
            threshold: 0,
            degree: 4,
        });
        let mk = |page| MissEvent {
            page,
            tick: 0,
            stream: 0,
        };
        p.on_miss(&mk(10));
        p.on_miss(&mk(5));
        let out = p.on_miss(&mk(0));
        assert!(out.iter().all(|&pg| pg < 10), "{out:?}");
    }
}
