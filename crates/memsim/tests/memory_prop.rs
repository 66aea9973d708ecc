//! Differential test of `LocalMemory` against a naive LRU reference: a
//! `Vec` of resident pages ordered most recent first. Random sequences
//! of insert/touch/flush over a small pool of page numbers
//! (so pages collide in the open-addressed index and evict each other)
//! must return the same victims and metadata, and agree on `len` and
//! every page's `meta`, after every step.

use proptest::prelude::*;

use hnp_memsim::memory::{LocalMemory, PageMeta};

/// Page numbers the sequences draw from: small values that crowd a
/// small index, plus values at the top of the `u64` range.
const POOL: [u64; 96] = {
    let mut pool = [0u64; 96];
    let mut i = 0;
    while i < 96 {
        pool[i] = if i < 80 {
            i as u64
        } else {
            u64::MAX - i as u64
        };
        i += 1;
    }
    pool
};

/// The reference: `(page, meta)` pairs, most recently used first.
struct Naive {
    capacity: usize,
    pages: Vec<(u64, PageMeta)>,
}

impl Naive {
    fn position(&self, page: u64) -> Option<usize> {
        self.pages.iter().position(|&(p, _)| p == page)
    }

    fn insert(&mut self, page: u64, prefetched: bool) -> Option<(u64, PageMeta)> {
        if self.position(page).is_some() {
            return None;
        }
        let evicted = if self.pages.len() == self.capacity {
            self.pages.pop()
        } else {
            None
        };
        let meta = PageMeta {
            prefetched,
            touched: false,
        };
        self.pages.insert(0, (page, meta));
        evicted
    }

    fn touch(&mut self, page: u64) -> Option<PageMeta> {
        let (page, before) = self.pages.remove(self.position(page)?);
        let mut meta = before;
        meta.touched = true;
        self.pages.insert(0, (page, meta));
        Some(before)
    }

    fn meta(&self, page: u64) -> Option<&PageMeta> {
        Some(&self.pages[self.position(page)?].1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn memory_matches_naive_lru(
        capacity in 1usize..64,
        ops in proptest::collection::vec((0u8..35, 0usize..POOL.len(), any::<bool>()), 1..400),
    ) {
        let mut memory = LocalMemory::new(capacity);
        let mut naive = Naive { capacity, pages: Vec::new() };
        for (op, i, prefetched) in ops {
            let page = POOL[i];
            match op {
                // Inserts dominate so the memory fills and evicts.
                0..=19 => prop_assert_eq!(
                    memory.insert(page, prefetched),
                    naive.insert(page, prefetched)
                ),
                20..=33 => prop_assert_eq!(memory.touch(page), naive.touch(page)),
                _ => {
                    memory.flush();
                    naive.pages.clear();
                }
            }
            prop_assert_eq!(memory.len(), naive.pages.len());
            prop_assert_eq!(memory.is_empty(), naive.pages.is_empty());
            for &p in &POOL {
                prop_assert_eq!(memory.meta(p), naive.meta(p));
                prop_assert_eq!(memory.contains(p), naive.position(p).is_some());
            }
        }
    }
}
