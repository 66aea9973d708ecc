//! Quickstart: run the CLS prefetcher against a workload and compare
//! it with the no-prefetch baseline and a classical stride prefetcher.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hnp::baselines::{StrideConfig, StridePrefetcher};
use hnp::core::{ClsConfig, ClsPrefetcher, EpisodicStore};
use hnp::memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp::traces::apps::AppWorkload;

fn main() {
    // 1. A synthetic PageRank-like workload: sequential edge-shard
    //    streaming interleaved with skewed vertex reads.
    let trace = AppWorkload::PageRankLike.generate(100_000, 42);
    println!(
        "trace: {} accesses over {} pages",
        trace.len(),
        trace.footprint_pages()
    );

    // 2. Memory sized at 50 % of the footprint, as in the paper.
    let sim = Simulator::new(SimConfig::default().sized_to(&trace, 0.5));

    // 3. Baseline: no prefetching.
    let base = sim.run(&trace, &mut NoPrefetcher);
    println!(
        "baseline: {} misses ({:.1}% miss rate)",
        base.misses(),
        100.0 * base.miss_rate()
    );

    // 4. A classical stride prefetcher...
    let mut stride = StridePrefetcher::with_config(StrideConfig::default());
    let s = sim.run(&trace, &mut stride);
    println!(
        "stride:      removed {:5.1}% of misses (accuracy {:.2})",
        s.pct_misses_removed(&base),
        s.accuracy()
    );

    // 5. ...versus the CLS prefetcher: sparse Hebbian neocortex, online
    //    learning on every 4th miss, hippocampal episodic store, and
    //    interleaved replay at a 0.1x rate.
    let mut cls = ClsPrefetcher::new(ClsConfig::default());
    let c = sim.run(&trace, &mut cls);
    println!(
        "cls-hebbian: removed {:5.1}% of misses (accuracy {:.2})",
        c.pct_misses_removed(&base),
        c.accuracy()
    );
    println!(
        "             trained on {} misses, replayed {} episodes, {} stored",
        cls.sampler_stats().0,
        cls.replayed(),
        cls.episodic().stored()
    );
}
