//! The trace container: a sequence of byte addresses with page
//! geometry.

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
        footprint_pages(std::slice::from_ref(self))
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

/// Number of distinct pages across `traces`: their combined footprint,
/// each trace's pages taken under its own page shift.
pub fn footprint_pages(traces: &[Trace]) -> usize {
    let mut counter = PageCounter::new();
    for page in traces.iter().flat_map(Trace::pages) {
        counter.insert(page);
    }
    counter.len()
}

/// Marks a free cell of a [`PageCounter`]; the page of that number is
/// counted by a flag instead.
const EMPTY: u64 = u64::MAX;
/// Cells in a new [`PageCounter`]; a power of two.
const INITIAL_CELLS: usize = 64;

/// An insert-only set of pages that only counts them: open addressing
/// with linear probing over a power-of-two table, doubled once it is
/// more than three quarters full. Its contents never leave it, so no
/// hash order can reach a result; it holds one cell per distinct page,
/// not one per access.
struct PageCounter {
    /// The table; `EMPTY` marks a free cell.
    cells: Vec<u64>,
    /// `64 - log2(cells.len())`: the hash keeps its top bits.
    shift: u32,
    /// Distinct pages in `cells`.
    len: usize,
    /// Whether page `EMPTY` itself was inserted.
    has_empty_page: bool,
}

impl PageCounter {
    fn new() -> Self {
        Self {
            cells: vec![EMPTY; INITIAL_CELLS],
            shift: 64 - INITIAL_CELLS.trailing_zeros(),
            len: 0,
            has_empty_page: false,
        }
    }

    /// Distinct pages inserted.
    fn len(&self) -> usize {
        self.len + usize::from(self.has_empty_page)
    }

    fn insert(&mut self, page: u64) {
        if page == EMPTY {
            self.has_empty_page = true;
        } else if place(&mut self.cells, self.shift, page) {
            self.len += 1;
            if 4 * self.len > 3 * self.cells.len() {
                self.grow();
            }
        }
    }

    /// Doubles the table and re-places every page.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.cells.len()];
        let old = std::mem::replace(&mut self.cells, doubled);
        self.shift -= 1;
        for page in old.into_iter().filter(|&p| p != EMPTY) {
            place(&mut self.cells, self.shift, page);
        }
    }
}

/// Puts `page` (not `EMPTY`) into `cells` unless it is there already;
/// returns whether it was new. `cells` must hold a free cell.
fn place(cells: &mut [u64], shift: u32, page: u64) -> bool {
    let mask = cells.len() - 1;
    // Multiplicative hash; its top bits depend on every bit of `page`.
    let mut cell = (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
    loop {
        if cells[cell] == page {
            return false;
        }
        if cells[cell] == EMPTY {
            cells[cell] = page;
            return true;
        }
        cell = (cell + 1) & mask;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// The reference count: every page of every trace in a `BTreeSet`.
    fn reference(traces: &[Trace]) -> usize {
        traces
            .iter()
            .flat_map(Trace::pages)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// One trace whose page numbers are `pages` (page shift 0).
    fn paged(pages: &[u64]) -> Trace {
        Trace::from_accesses(pages.iter().map(|&p| Access::new(p)).collect(), 0)
    }

    /// The page count at which the table doubles for the `d`-th time:
    /// one past three quarters of the size it has then.
    fn growth_point(d: u32) -> usize {
        (INITIAL_CELLS << d) * 3 / 4 + 1
    }

    #[test]
    fn footprint_counts_named_edge_cases() {
        let cases: [(&str, &[&[u64]], usize); 9] = [
            ("no traces", &[], 0),
            ("empty traces", &[&[], &[]], 0),
            ("one page", &[&[7]], 1),
            ("page 0", &[&[0, 0]], 1),
            ("page u64::MAX", &[&[u64::MAX]], 1),
            ("0 and u64::MAX", &[&[0, u64::MAX, 0, u64::MAX]], 2),
            ("high bits only", &[&[1 << 63, 1 << 62, 3 << 62, 0]], 4),
            ("heavy repetition", &[&[5; 1000], &[5, 6, 5, 6]], 2),
            ("overlapping traces", &[&[1, 2, 3], &[3, 4], &[4, 1]], 4),
        ];
        for (name, pages, want) in cases {
            let traces: Vec<Trace> = pages.iter().map(|p| paged(p)).collect();
            assert_eq!(footprint_pages(&traces), want, "{name}");
            assert_eq!(reference(&traces), want, "{name}: reference");
        }
    }

    proptest! {
        /// The counter agrees with a `BTreeSet` on traces mixing small
        /// (repeating, overlapping) pages, the extreme pages, pages
        /// apart only in their high bits, and arbitrary pages.
        #[test]
        fn footprint_matches_btreeset(
            traces in proptest::collection::vec(
                proptest::collection::vec((0u8..4, any::<u64>()), 0..300),
                0..5,
            ),
        ) {
            let traces: Vec<Trace> = traces
                .iter()
                .map(|draws| {
                    let pages: Vec<u64> = draws
                        .iter()
                        .map(|&(kind, x)| match kind {
                            0 => x % 24,
                            1 => [0, u64::MAX, u64::MAX - 1, 1 << 63][x as usize % 4],
                            2 => (x % 16) << 60,
                            _ => x,
                        })
                        .collect();
                    paged(&pages)
                })
                .collect();
            prop_assert_eq!(footprint_pages(&traces), reference(&traces));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// On both sides of each of the first eight growth points, with
        /// each page repeated and the pages split over two overlapping
        /// traces.
        #[test]
        fn footprint_matches_btreeset_across_growth(
            step in any::<u64>(),
            repeat in 1usize..4,
        ) {
            for n in (0..8).map(growth_point).flat_map(|g| [g - 1, g, g + 1]) {
                // An odd step makes `i * step` distinct for distinct `i`.
                let pages: Vec<u64> = (0..n as u64)
                    .map(|i| i.wrapping_mul(step | 1))
                    .flat_map(|p| std::iter::repeat_n(p, repeat))
                    .collect();
                let split = pages.len() * 2 / 3;
                let traces = [paged(&pages[..split]), paged(&pages[split / 2..])];
                prop_assert_eq!(footprint_pages(&traces), n);
                prop_assert_eq!(reference(&traces), n);
            }
        }
    }

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
