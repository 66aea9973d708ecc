//! Steady-state allocation accounting for the per-miss hot path.
//!
//! The kernel refactor's contract is that once the network's scratch
//! buffers have warmed up, `train_step`, `infer`, `infer_advance`,
//! `replay_step`, `set_recurrent_state` and the scratch rollout
//! `rollout_into` perform **zero** heap allocation — whether the
//! hidden-winner memo hits, misses, or evicts, and whether a replay
//! draw is accepted or rejected. A counting
//! global allocator makes that a hard test instead of a code-review
//! claim.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_hebbian::{HebbianConfig, HebbianNetwork, LrScale};

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
fn steady_state_kernels_do_not_allocate() {
    let cfg = HebbianConfig::paper_table2();
    let outputs = cfg.outputs;
    let mut net = HebbianNetwork::new(cfg);

    // Warm-up: grow every scratch buffer to its high-water mark across
    // all three entry points (train, infer, infer_advance).
    for i in 0..64u32 {
        let pattern = [i % 61, (i * 7) % 61 + 61];
        net.train_step(&pattern, (i as usize + 1) % outputs);
        net.infer(&pattern, (i as usize + 1) % outputs);
        net.infer_advance(&pattern, (i as usize + 1) % outputs);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..200u32 {
        let pattern = [i % 61, (i * 7) % 61 + 61];
        net.train_step(&pattern, (i as usize + 1) % outputs);
        net.infer(&pattern, (i as usize + 1) % outputs);
        net.infer_advance(&pattern, (i as usize + 1) % outputs);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "hot path allocated {} times across 600 steady-state calls",
        after - before
    );

    // Eviction: 4096 distinct input sets, four times the hidden-winner
    // memo's slots, so most passes miss and overwrite a slot.
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..4096u32 {
        let pattern = [i % 64, 64 + (i / 64) % 64];
        net.train_step(&pattern, (i as usize + 1) % outputs);
        net.infer(&pattern, (i as usize + 1) % outputs);
        net.infer_advance(&pattern, (i as usize + 1) % outputs);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "memo eviction path allocated {} times",
        after - before
    );

    // Replay: stored contexts installed and restored around draw-first
    // steps at the replay rate (mostly rejected, some applied), mixed
    // with online training and inference. The first lap warms up
    // capacity for the widest context.
    let replay = |net: &mut HebbianNetwork, i: u32| {
        let pattern = [i % 61, (i * 7) % 61 + 61];
        let context = [i % 128, (i * 3) % 128, (i * 11) % 128, i % 128];
        let target = (i as usize + 1) % outputs;
        net.replay_step(&pattern, &context, target, LrScale::from_f32(0.1));
        net.train_step(&pattern, target);
        net.set_recurrent_state(&context[..2]);
        net.infer(&pattern, target);
        net.infer_advance(&pattern, target);
    };
    for i in 0..64u32 {
        replay(&mut net, i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..400u32 {
        replay(&mut net, i);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "replay path allocated {} times",
        after - before
    );

    // Scratch rollout: lookahead steps re-encoded into the network's
    // buffer, mixed with online training so memo hits, refreshed rows
    // and full scatters all occur. The first lap warms up capacity.
    let rollout = |net: &mut HebbianNetwork, i: u32| {
        let pattern = [i % 61, (i * 7) % 61 + 61];
        net.train_step(&pattern, (i as usize + 1) % outputs);
        let r = net.rollout_into(
            &pattern,
            1 + i as usize % 4,
            1 + i as usize % 3,
            |tok, next| next.push(tok as u32 % 61),
        );
        assert!(r.first_confidence >= 0.0);
        r.classes.len()
    };
    for i in 0..64u32 {
        rollout(&mut net, i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut predicted = 0;
    for i in 0..400u32 {
        predicted += rollout(&mut net, i);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(predicted > 400, "rollouts predicted {predicted} classes");
    assert_eq!(
        after - before,
        0,
        "scratch rollout allocated {} times",
        after - before
    );
}
