//! Trace diagnostics: footprints, delta structure, reuse distances.
//!
//! These statistics quantify "learnability from deltas" — the property
//! §5.3 of the paper identifies as the limit of address/stride
//! encodings — and size memories for the Fig.-5 setup (capacity = 50 %
//! of footprint).

use std::collections::HashMap;

use crate::access::Trace;

/// Summary statistics of a trace at page granularity.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Total accesses.
    pub len: usize,
    /// Distinct pages.
    pub footprint_pages: usize,
    /// Distinct page deltas between consecutive accesses.
    pub unique_deltas: usize,
    /// Delta histogram, descending by count.
    pub delta_counts: Vec<(i64, usize)>,
    /// Shannon entropy of the delta distribution, in bits.
    pub delta_entropy_bits: f64,
}

impl TraceStats {
    /// Computes statistics for `trace`.
    pub fn compute(trace: &Trace) -> Self {
        let pages: Vec<u64> = trace.pages().collect();
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for w in pages.windows(2) {
            let delta = w[1] as i64 - w[0] as i64;
            *counts.entry(delta).or_insert(0) += 1;
        }
        let total: usize = counts.values().sum();
        let mut delta_counts: Vec<(i64, usize)> = counts.into_iter().collect();
        delta_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let entropy = if total == 0 {
            0.0
        } else {
            delta_counts
                .iter()
                .map(|&(_, c)| {
                    let p = c as f64 / total as f64;
                    -p * p.log2()
                })
                .sum()
        };
        Self {
            len: trace.len(),
            footprint_pages: trace.footprint_pages(),
            unique_deltas: delta_counts.len(),
            delta_entropy_bits: entropy,
            delta_counts,
        }
    }

    /// Fraction of transitions covered by the `k` most frequent deltas.
    /// High coverage at small `k` means a small delta vocabulary can
    /// express the trace.
    pub fn top_delta_coverage(&self, k: usize) -> f64 {
        let total: usize = self.delta_counts.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let top: usize = self.delta_counts.iter().take(k).map(|&(_, c)| c).sum();
        top as f64 / total as f64
    }

    /// The `k` most frequent deltas, descending.
    pub fn top_deltas(&self, k: usize) -> Vec<i64> {
        self.delta_counts.iter().take(k).map(|&(d, _)| d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Pattern;

    #[test]
    fn stride_trace_has_one_dominant_delta() {
        let t = Pattern::Stride.generate(1000, 0);
        let s = TraceStats::compute(&t);
        assert!(s.top_delta_coverage(1) > 0.97);
        assert_eq!(s.top_deltas(1), vec![1]);
        assert!(s.delta_entropy_bits < 0.2);
    }

    #[test]
    fn pointer_chase_has_bounded_delta_vocabulary() {
        let t = Pattern::PointerChase.generate(1000, 0);
        let s = TraceStats::compute(&t);
        // A 64-element cycle produces at most 64 distinct deltas, each
        // recurring every period: fully covered by a small vocabulary.
        assert!(s.unique_deltas <= 64);
        assert!(s.top_delta_coverage(64) > 0.99);
    }

    #[test]
    fn entropy_orders_patterns_by_randomness() {
        let stride = TraceStats::compute(&Pattern::Stride.generate(2000, 0));
        let chase = TraceStats::compute(&Pattern::PointerChase.generate(2000, 0));
        assert!(stride.delta_entropy_bits < chase.delta_entropy_bits);
    }

    #[test]
    fn empty_and_single_access_traces_are_safe() {
        let s = TraceStats::compute(&Trace::from_addrs(Vec::new()));
        assert_eq!(s.unique_deltas, 0);
        assert_eq!(s.top_delta_coverage(5), 0.0);
        let s1 = TraceStats::compute(&Trace::from_addrs(vec![0x1000]));
        assert_eq!(s1.unique_deltas, 0);
    }
}
