//! The resident-page store: a capacity-bounded LRU local memory.
//!
//! Two arrays, both allocated at construction (DESIGN.md §6.2): a slab
//! of `capacity` slots, each holding a page, its [`PageMeta`] and
//! intrusive LRU links, and an open-addressed `page → slot` index with
//! linear probing. Every operation is a short probe plus O(1) link
//! updates, and none allocates.

/// Metadata kept per resident page for prefetch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// hnp-lint: allow(unused_pub) caller: sim.rs and hnp-systems read what `LocalMemory` returns
pub struct PageMeta {
    /// Whether the page arrived via prefetch (vs. demand fetch).
    pub prefetched: bool,
    /// Whether the page has been demanded since arrival.
    pub touched: bool,
}

/// "No slot": the end of the LRU or free list, or an empty index cell.
const NIL: u32 = u32::MAX;

/// One slab entry. Free slots chain through `next`.
#[derive(Clone, Copy)]
struct Slot {
    page: u64,
    meta: PageMeta,
    /// Neighbour towards the head (more recent); `NIL` at the head.
    prev: u32,
    /// Neighbour towards the tail (less recent); `NIL` at the tail.
    next: u32,
}

const UNUSED: Slot = Slot {
    page: 0,
    meta: PageMeta {
        prefetched: false,
        touched: false,
    },
    prev: NIL,
    next: NIL,
};

/// A capacity-bounded page memory with LRU eviction.
pub struct LocalMemory {
    slots: Vec<Slot>,
    /// `page → slot`; a power of two ≥ 2 × capacity cells, `NIL` = empty.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash keeps its top bits.
    shift: u32,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
    /// First free slot; `NIL` when full.
    free: u32,
    len: usize,
}

impl LocalMemory {
    /// Creates an empty memory of `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a 32-bit slot number.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(capacity < NIL as usize, "capacity must fit a u32 slot");
        let cells = (2 * capacity).next_power_of_two();
        let mut memory = Self {
            slots: vec![UNUSED; capacity],
            index: vec![NIL; cells],
            shift: 64 - cells.trailing_zeros(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
        };
        memory.flush();
        memory
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: u64) -> bool {
        self.find(page).is_ok()
    }

    /// Metadata of a resident page.
    pub fn meta(&self, page: u64) -> Option<&PageMeta> {
        let cell = self.find(page).ok()?;
        Some(&self.slots[self.index[cell] as usize].meta)
    }

    /// Records a demand access: marks the page touched (useful-prefetch
    /// accounting) and most recently used. Returns its metadata as it
    /// was before the access, or `None` if the page is not resident.
    pub fn touch(&mut self, page: u64) -> Option<PageMeta> {
        let slot = self.index[self.find(page).ok()?];
        let meta = &mut self.slots[slot as usize].meta;
        let before = *meta;
        meta.touched = true;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(before)
    }

    /// Inserts `page` as most recently used, evicting the least
    /// recently used page if full. Returns the evicted page's number
    /// and metadata, if any. Inserting a resident page is a no-op
    /// returning `None` that leaves the LRU order alone.
    pub fn insert(&mut self, page: u64, prefetched: bool) -> Option<(u64, PageMeta)> {
        if self.contains(page) {
            return None;
        }
        let evicted = if self.free == NIL {
            self.remove(self.slots[self.tail as usize].page)
        } else {
            None
        };
        let slot = self.free;
        self.free = self.slots[slot as usize].next;
        self.slots[slot as usize] = Slot {
            page,
            meta: PageMeta {
                prefetched,
                touched: false,
            },
            ..UNUSED
        };
        self.push_front(slot);
        // `page` is not indexed, so the probe ends at the empty cell
        // that is its place.
        let (Ok(cell) | Err(cell)) = self.find(page);
        self.index[cell] = slot;
        self.len += 1;
        evicted
    }

    /// Invalidates a page (e.g. remote revocation in the disaggregated
    /// system). Returns its metadata if it was resident.
    pub fn invalidate(&mut self, page: u64) -> Option<PageMeta> {
        self.remove(page).map(|(_, meta)| meta)
    }

    /// Drops every resident page (a node crash/restart loses local
    /// memory). Capacity survives; contents do not.
    pub fn flush(&mut self) {
        self.index.fill(NIL);
        let last = self.slots.len() - 1;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.next = if i == last { NIL } else { i as u32 + 1 };
        }
        self.free = 0;
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// The home cell of `page`: the top bits of a multiplicative hash.
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Probes for `page`: `Ok` with the cell holding it, or `Err` with
    /// the empty cell that ends its probe run. The index is at most
    /// half full, so an empty cell always exists.
    fn find(&self, page: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut cell = self.home(page);
        loop {
            let slot = self.index[cell];
            if slot == NIL {
                return Err(cell);
            }
            if self.slots[slot as usize].page == page {
                return Ok(cell);
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Unlinks, unindexes and frees a resident page's slot.
    fn remove(&mut self, page: u64) -> Option<(u64, PageMeta)> {
        let cell = self.find(page).ok()?;
        let slot = self.index[cell];
        self.unindex(cell);
        self.unlink(slot);
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        Some((page, self.slots[slot as usize].meta))
    }

    /// Empties `hole` by backward-shift deletion: each later member of
    /// its probe run moves back into the hole unless its home cell lies
    /// cyclically after the hole, so every page stays reachable from
    /// its home without tombstones.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let slot = self.index[cell];
            if slot == NIL {
                break;
            }
            let home = self.home(self.slots[slot as usize].page);
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = cell;
            }
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_until_capacity_then_evict() {
        let mut m = LocalMemory::new(3);
        assert!(m.insert(1, false).is_none());
        assert!(m.insert(2, false).is_none());
        assert!(m.insert(3, false).is_none());
        assert_eq!(m.len(), 3);
        let (victim, _) = m.insert(4, false).expect("eviction");
        assert_eq!(victim, 1, "LRU victim");
        assert_eq!(m.len(), 3);
        assert!(!m.contains(1) && m.contains(4));
    }

    #[test]
    fn touch_refreshes_lru_order_and_marks_prefetch_used() {
        let mut m = LocalMemory::new(2);
        m.insert(1, true);
        m.insert(2, false);
        let before = m.touch(1).expect("resident");
        assert!(before.prefetched && !before.touched, "pre-touch metadata");
        assert!(m.meta(1).unwrap().touched);
        assert!(m.touch(1).unwrap().touched, "second touch sees the first");
        let (victim, meta) = m.insert(3, false).unwrap();
        assert_eq!(victim, 2, "2 is now least recent");
        assert!(!meta.prefetched);
    }

    #[test]
    fn touch_missing_page_is_none() {
        let mut m = LocalMemory::new(2);
        assert!(m.touch(99).is_none());
    }

    #[test]
    fn double_insert_is_noop() {
        let mut m = LocalMemory::new(2);
        m.insert(1, false);
        m.insert(2, false);
        assert!(m.insert(1, true).is_none());
        // Original metadata is preserved, and 1 stays least recent.
        assert!(!m.meta(1).unwrap().prefetched);
        assert_eq!(m.insert(3, false).unwrap().0, 1);
    }

    #[test]
    fn invalidate_frees_a_slot() {
        let mut m = LocalMemory::new(2);
        m.insert(1, false);
        m.insert(2, false);
        assert!(m.invalidate(1).is_some());
        assert!(m.invalidate(1).is_none());
        assert_eq!(m.len(), 1);
        // Room for one more insert without eviction.
        assert!(m.insert(3, false).is_none());
        let (victim, _) = m.insert(4, false).unwrap();
        assert_eq!(victim, 2);
    }

    #[test]
    fn evicted_metadata_reports_unused_prefetch() {
        let mut m = LocalMemory::new(1);
        m.insert(1, true);
        let (victim, meta) = m.insert(2, false).unwrap();
        assert_eq!(victim, 1);
        assert!(meta.prefetched && !meta.touched, "pollution case");
    }

    #[test]
    fn evicts_least_recent_first() {
        let mut m = LocalMemory::new(3);
        m.insert(1, false);
        m.insert(2, false);
        m.insert(3, false);
        m.touch(1); // Order now (recent->old): 1, 3, 2.
        assert_eq!(m.insert(4, false).unwrap().0, 2);
        assert_eq!(m.insert(5, false).unwrap().0, 3);
        assert_eq!(m.insert(6, false).unwrap().0, 1);
    }

    #[test]
    fn every_resident_page_is_evicted_once() {
        let mut m = LocalMemory::new(50);
        for p in 0..50u64 {
            m.insert(p, false);
        }
        for p in 0..50u64 {
            assert_eq!(m.insert(1000 + p, false).unwrap().0, p);
        }
        assert!((0..50).all(|p| !m.contains(p)));
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn flush_empties_and_slots_are_reused() {
        let mut m = LocalMemory::new(100);
        for round in 0..10u64 {
            for p in 0..100u64 {
                assert!(m.insert(round * 1000 + p, false).is_none());
            }
            assert_eq!(m.len(), 100);
            m.flush();
            assert!(m.is_empty() && !m.contains(round * 1000));
        }
        assert_eq!(m.capacity(), 100);
    }
}
