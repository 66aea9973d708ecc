//! Allocation accounting for the resident-page store.
//!
//! `LocalMemory` allocates its slab and index at construction; after
//! that, insert (with and without eviction), touch and flush must
//! perform **zero** heap allocation. A counting global allocator makes
//! that a hard test instead of a code-review claim.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_memsim::memory::LocalMemory;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY-free wrapper: defers entirely to `System`, adding one
// relaxed counter bump per allocation/reallocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn page_table_operations_do_not_allocate() {
    let capacity = 512;
    let mut memory = LocalMemory::new(capacity);

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut evictions = 0usize;
    for round in 0..4u64 {
        // Twice the capacity of distinct pages: the second half of each
        // round evicts on every insert.
        for i in 0..2 * capacity as u64 {
            let page = round * 100_000 + i * 7;
            evictions += memory.insert(page, i % 3 == 0).is_some() as usize;
            memory.touch(page);
            memory.touch(page / 2);
        }
        // A crash loses local memory.
        memory.flush();
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(evictions > 0, "the window must exercise eviction");
    assert_eq!(
        after - before,
        0,
        "page table allocated {} times after construction",
        after - before
    );
}
