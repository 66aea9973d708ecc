//! The prefetch ledger: every outstanding prefetch, keyed by page.
//!
//! A prefetch is in flight from issue until it is *due*; the driver
//! that owns the ledger decides what "due" means (arrival tick in the
//! simulators, expiry request number in the serving engine) and what
//! happens to a page when it leaves. The ledger only keeps the book:
//! one entry per page plus a lower bound on the earliest due tick, so
//! an access with nothing due costs one comparison.
//!
//! Both drains visit pages in ascending page order. Landing order is
//! observable through eviction order, so it must be a function of the
//! pages alone, never of issue order or container internals.

use std::collections::BTreeMap;

/// Outstanding prefetches, each with the tick at which it is due.
#[derive(Debug, Clone, Default)]
pub struct PrefetchLedger {
    due: BTreeMap<u64, u64>,
    /// Lower bound on every entry's due tick; a drain that leaves
    /// nothing behind raises it to `u64::MAX`.
    next_due: u64,
}

impl PrefetchLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a prefetch of `page` due at tick `due`. Re-issuing an
    /// outstanding page replaces its due tick.
    pub fn issue(&mut self, page: u64, due: u64) {
        self.due.insert(page, due);
        self.next_due = self.next_due.min(due);
    }

    /// Whether a prefetch of `page` is outstanding.
    pub fn contains(&self, page: u64) -> bool {
        self.due.contains_key(&page)
    }

    /// Removes the outstanding prefetch of `page`, returning its due
    /// tick.
    pub fn take(&mut self, page: u64) -> Option<u64> {
        self.due.remove(&page)
    }

    /// Number of outstanding prefetches.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Removes every prefetch due at or before `now` and hands its page
    /// to `f`, in ascending page order.
    pub fn drain_due(&mut self, now: u64, mut f: impl FnMut(u64)) {
        if now < self.next_due {
            return;
        }
        let mut next_due = u64::MAX;
        self.due.retain(|&page, &mut due| {
            if due <= now {
                f(page);
                false
            } else {
                next_due = next_due.min(due);
                true
            }
        });
        self.next_due = next_due;
    }

    /// Removes every outstanding prefetch and hands its page to `f`, in
    /// ascending page order.
    pub fn drain_all(&mut self, f: impl FnMut(u64)) {
        self.next_due = u64::MAX;
        std::mem::take(&mut self.due).into_keys().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained_due(l: &mut PrefetchLedger, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        l.drain_due(now, |p| out.push(p));
        out
    }

    #[test]
    fn drains_due_pages_in_page_order() {
        let mut l = PrefetchLedger::new();
        l.issue(30, 5);
        l.issue(10, 7);
        l.issue(20, 5);
        assert!(drained_due(&mut l, 4).is_empty());
        assert_eq!(drained_due(&mut l, 5), vec![20, 30]);
        assert_eq!(l.len(), 1);
        assert!(l.contains(10) && !l.contains(20));
        assert_eq!(drained_due(&mut l, 100), vec![10]);
        assert!(l.is_empty());
    }

    #[test]
    fn take_removes_and_reports_due() {
        let mut l = PrefetchLedger::new();
        l.issue(3, 9);
        assert_eq!(l.take(3), Some(9));
        assert_eq!(l.take(3), None);
        assert!(drained_due(&mut l, 9).is_empty());
    }

    #[test]
    fn drain_all_empties_in_page_order() {
        let mut l = PrefetchLedger::new();
        for (page, due) in [(9, 1), (2, 50), (5, 3)] {
            l.issue(page, due);
        }
        let mut out = Vec::new();
        l.drain_all(|p| out.push(p));
        assert_eq!(out, vec![2, 5, 9]);
        assert!(l.is_empty());
        assert!(drained_due(&mut l, u64::MAX).is_empty());
    }
}
