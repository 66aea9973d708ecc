//! The allocation contract of the default CLS miss path.
//!
//! With `ClsConfig::default()` and a full episodic ring, an `on_miss`
//! allocates at most once: the page list it returns, and only when
//! that list is non-empty. Encoding, training, the episode store,
//! replay, phase detection and the rollout all run in scratch the
//! prefetcher owns (DESIGN.md §12.2). The default trains on every 4th
//! miss, so the counted pass covers both a trained miss and a skipped
//! one, which only advances the network. A counting global allocator
//! makes that a hard test.
//!
//! The miss stream is a Fig.-5 application's, recorded once through
//! the simulator without prefetching. One pass warms the prefetcher up
//! and fills its 4,096-episode ring; the second pass is counted.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_core::{CapacityPolicy, ClsConfig, ClsPrefetcher, EpisodicStore};
use hnp_memsim::prefetcher::{MissEvent, Prefetcher};
use hnp_memsim::{SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;

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

/// Records the miss stream and prefetches nothing.
#[derive(Default)]
struct Recorder(Vec<MissEvent>);

impl Prefetcher for Recorder {
    fn name(&self) -> &str {
        "none"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        self.0.push(*miss);
        Vec::new()
    }
}

#[test]
fn default_miss_allocates_only_the_pages_it_returns() {
    let trace = AppWorkload::Graph500Like.generate(25_000, 1);
    let cfg = SimConfig {
        max_issue_per_miss: 4,
        max_inflight: 32,
        ..SimConfig::default()
    }
    .sized_to(&trace, 0.5);
    let mut misses = Recorder::default();
    Simulator::new(cfg).run(&trace, &mut misses);
    let misses = misses.0;

    let cfg = ClsConfig::default();
    let CapacityPolicy::Ring { capacity } = cfg.episodic;
    let mut p = ClsPrefetcher::new(cfg);
    for miss in &misses {
        p.on_miss(miss);
    }
    assert_eq!(
        p.episodic().stored(),
        capacity,
        "warm-up must fill the ring"
    );

    let (trained_before, skipped_before) = p.sampler_stats();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut returned = 0u64;
    for miss in &misses {
        returned += u64::from(!p.on_miss(miss).is_empty());
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let (trained, skipped) = p.sampler_stats();
    assert!(
        trained > trained_before && skipped > skipped_before,
        "the counted pass must both train and skip"
    );
    assert!(returned > 0, "the counted pass must prefetch");
    assert!(
        allocs <= returned,
        "{allocs} allocations for {returned} non-empty page lists over {} misses",
        misses.len()
    );
}
