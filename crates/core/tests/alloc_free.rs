//! Allocation accounting for the episodic ring.
//!
//! Once a `Ring` store is full, a miss's `store_ref` plus a
//! one-episode `replay_each` must allocate nothing at all, whatever
//! the capacity: the new episode is copied into the vectors of the one
//! it evicts, and the replayed episode is read in place through index
//! scratch the store owns. A counting global allocator makes "no
//! per-miss allocation once the ring is full" a hard test.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_core::{CapacityPolicy, EpisodeRef, EpisodicStore, Hippocampus};
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

/// Offers episode `i` from borrowed vectors; every episode has the
/// same vector lengths, so a recycled episode always has room.
fn store(h: &mut Hippocampus, i: u64) {
    let t = (i % 16) as usize;
    h.store_ref(EpisodeRef {
        history: &[t; 4],
        pattern: &[t as u32; 12],
        recurrent: &[1; 8],
        target: t,
        confidence: 0.5,
        stored_at: i,
        phase: 0,
    });
}

/// Stores episode `i` and replays one episode, as a miss does;
/// returns the replayed episode's target.
fn miss(h: &mut Hippocampus, rng: &mut StdRng, i: u64) -> usize {
    store(h, i);
    let mut target = usize::MAX;
    h.replay_each(1, None, rng, &mut |e| target = e.target);
    target
}

/// Bytes allocated by `ops` misses on a full ring of `capacity`
/// episodes, after one warm-up miss.
fn bytes_per_window(capacity: usize, ops: u64) -> u64 {
    let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity });
    let mut rng = StdRng::seed_from_u64(7);
    let fill = 4096 + 100;
    for i in 0..fill {
        store(&mut h, i);
    }
    assert_eq!(h.stored(), capacity, "the window must run on a full ring");
    miss(&mut h, &mut rng, fill);
    let before = BYTES.load(Ordering::Relaxed);
    let mut replayed = 0;
    for i in fill + 1..fill + 1 + ops {
        replayed += usize::from(miss(&mut h, &mut rng, i) < 16);
    }
    let after = BYTES.load(Ordering::Relaxed);
    assert_eq!(replayed as u64, ops, "one episode replayed per miss");
    after - before
}

#[test]
fn ring_miss_cost_does_not_grow_with_capacity() {
    let ops = 500;
    for capacity in [64, 4096] {
        assert_eq!(
            bytes_per_window(capacity, ops),
            0,
            "a full ring of {capacity} allocated"
        );
    }
}
