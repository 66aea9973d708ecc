//! The trace container: a sequence of byte addresses with page
//! geometry.

use std::collections::HashSet;

/// Default page shift: 4 KiB pages, matching the page-granular systems
/// in §4 of the paper.
pub const PAGE_SHIFT: u32 = 12;

/// One memory access. Kept minimal: our traces are data accesses
/// without instruction context, like the miss streams the paper's
/// prefetchers consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Originating stream (0 for single-stream traces; used by the UVM
    /// interleaving experiments).
    pub stream: u16,
}

impl Access {
    /// A single-stream access.
    pub fn new(addr: u64) -> Self {
        Self { addr, stream: 0 }
    }

    /// The page number under `shift`.
    pub fn page(&self, shift: u32) -> u64 {
        self.addr >> shift
    }
}

/// An in-memory access trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The accesses, in program order.
    accesses: Vec<Access>,
    /// Page shift used when interpreting the trace.
    page_shift: u32,
}

impl Trace {
    /// Creates a trace over raw byte addresses with the default page
    /// size.
    pub fn from_addrs(addrs: Vec<u64>) -> Self {
        Self {
            accesses: addrs.into_iter().map(Access::new).collect(),
            page_shift: PAGE_SHIFT,
        }
    }

    /// Creates a trace from full accesses with an explicit page shift.
    pub fn from_accesses(accesses: Vec<Access>, page_shift: u32) -> Self {
        Self {
            accesses,
            page_shift,
        }
    }

    /// Page shift.
    pub fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses, in order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Iterator over page numbers, in order.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.accesses.iter().map(move |a| a.page(self.page_shift))
    }

    /// Number of distinct pages touched (the footprint, in pages).
    pub fn footprint_pages(&self) -> usize {
        let set: HashSet<u64> = self.pages().collect();
        set.len()
    }

    /// Appends another trace (streams preserved).
    ///
    /// # Panics
    ///
    /// Panics if page shifts differ.
    pub fn extend(&mut self, other: &Trace) {
        assert_eq!(
            self.page_shift, other.page_shift,
            "cannot concatenate traces with different page shifts"
        );
        self.accesses.extend_from_slice(&other.accesses);
    }

    /// Keeps only the first `n` accesses.
    pub fn truncate(&mut self, n: usize) {
        self.accesses.truncate(n);
    }

    /// Relabels every access with `stream`.
    pub fn with_stream(mut self, stream: u16) -> Trace {
        for a in &mut self.accesses {
            a.stream = stream;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_extraction_uses_shift() {
        let a = Access::new(0x12345);
        assert_eq!(a.page(12), 0x12);
        assert_eq!(a.page(0), 0x12345);
    }

    #[test]
    fn footprint_counts_distinct_pages() {
        let t = Trace::from_addrs(vec![0x1000, 0x1008, 0x2000, 0x2f00, 0x3000]);
        assert_eq!(t.footprint_pages(), 3);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn extend_concatenates_in_order() {
        let mut a = Trace::from_addrs(vec![0x1000]);
        let b = Trace::from_addrs(vec![0x2000]);
        a.extend(&b);
        let pages: Vec<u64> = a.pages().collect();
        assert_eq!(pages, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "different page shifts")]
    fn extend_rejects_mixed_page_shifts() {
        let mut a = Trace::from_addrs(vec![0x1000]);
        let b = Trace::from_accesses(vec![Access::new(0x2000)], 16);
        a.extend(&b);
    }

    #[test]
    fn with_stream_relabels() {
        let t = Trace::from_addrs(vec![1, 2]).with_stream(7);
        assert!(t.accesses().iter().all(|a| a.stream == 7));
    }
}
