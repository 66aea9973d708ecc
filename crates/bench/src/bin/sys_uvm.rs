//! §4 study: the CPU-GPU UVM target.
//!
//! Lockstep SIMT warps fault in batches against shared GPU memory; a
//! centralized driver-side prefetcher sees all streams interleaved.
//! The study compares prefetchers and sweeps the prefetch *width*
//! (§5.2: "throughput-bound environments like the UVM system might
//! benefit more from predicting multiple prefetches at a time"), and
//! measures whether stream interleaving softens interference (§4's
//! conjecture).
//!
//! Usage: `cargo run --release -p hnp-bench --bin sys_uvm [accesses_per_warp]`

use hnp_bench::output;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::NoPrefetcher;
use hnp_systems::{UvmConfig, UvmSim};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

fn warp_traces(accesses: usize) -> Vec<Trace> {
    (0..8u64)
        .map(|i| {
            let app = AppWorkload::FIG5[(i % 4) as usize];
            app.generate(accesses, 100 + i).with_stream(i as u16)
        })
        .collect()
}

fn main() {
    let accesses = output::arg_or(1, "accesses_per_warp", 30_000);
    let warps = warp_traces(accesses);
    let sim = UvmSim::new(UvmConfig::default());
    let base = sim.run(&warps, &mut NoPrefetcher);
    output::header(
        "UVM: centralized prefetcher, width x stream-isolation sweep (8 warps, lockstep)",
    );
    println!(
        "{:<14} {:>9} {:>6} {:>10} {:>12} {:>9} {:>12}",
        "prefetcher", "isolation", "width", "removed%", "throughput", "maxbatch", "ticks"
    );
    println!(
        "{:<14} {:>9} {:>6} {:>10} {:>12.2} {:>9} {:>12}",
        "baseline",
        "-",
        "-",
        "-",
        base.throughput(),
        base.max_batch,
        base.total_ticks
    );
    // With per-stream (per-warp) delta isolation, the model is
    // accurate and narrow prefetching wins under the bandwidth cap;
    // without isolation (cross-warp deltas are noise), extra width
    // compensates for the lower accuracy — the paper's "more
    // predictions, even if slightly less accurate" regime.
    for isolation in [true, false] {
        for width in [1usize, 2, 4] {
            let mut p = ClsPrefetcher::new(ClsConfig {
                width,
                lookahead: 2,
                stream_isolation: isolation,
                ..ClsConfig::default()
            });
            let rep = sim.run(&warps, &mut p);
            println!(
                "{:<14} {:>9} {:>6} {:>9.1}% {:>12.2} {:>9} {:>12}",
                "cls-hebbian",
                isolation,
                width,
                rep.pct_faults_removed(&base),
                rep.throughput(),
                rep.max_batch,
                rep.total_ticks
            );
        }
    }
}
