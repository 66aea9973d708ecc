//! Allocation accounting for the episodic ring.
//!
//! Once a `Ring` store is full, a miss's `store` plus a one-episode
//! `sample_for_replay` must allocate the same bytes whatever the
//! capacity: the new episode's vectors, the drawn index and the
//! replayed clone, and nothing sized by the store. A counting global
//! allocator makes "no per-miss cost that grows with the store" a hard
//! test.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_core::{CapacityPolicy, EpisodicStore, Hippocampus};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY-free wrapper: defers entirely to `System`, adding the bytes
// requested by each allocation/reallocation to a relaxed counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Stores episode `i`; every episode has the same vector lengths, so
/// any stored episode clones to the same number of bytes.
fn store(h: &mut Hippocampus, i: u64) {
    let t = (i % 16) as usize;
    h.store(vec![t; 4], vec![t as u32; 12], vec![1; 8], t, 0.5, i, 0);
}

/// Bytes allocated by `ops` misses (store + one replay draw) on a full
/// ring of `capacity` episodes.
fn bytes_per_window(capacity: usize, ops: u64) -> u64 {
    let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity });
    let mut rng = StdRng::seed_from_u64(7);
    let fill = 4096 + 100;
    for i in 0..fill {
        store(&mut h, i);
    }
    assert_eq!(h.len(), capacity, "the window must run on a full ring");
    let before = BYTES.load(Ordering::Relaxed);
    let mut replayed = 0;
    for i in fill..fill + ops {
        store(&mut h, i);
        replayed += h.sample_for_replay(1, 0, false, &mut rng).len();
    }
    let after = BYTES.load(Ordering::Relaxed);
    assert_eq!(replayed as u64, ops, "one episode replayed per miss");
    after - before
}

#[test]
fn ring_miss_cost_does_not_grow_with_capacity() {
    let ops = 500;
    let small = bytes_per_window(64, ops);
    let large = bytes_per_window(4096, ops);
    assert!(small > 0, "the window must allocate the episodes it stores");
    assert_eq!(
        small,
        large,
        "per-miss bytes differ: {} at capacity 64, {} at 4096",
        small / ops,
        large / ops
    );
}
