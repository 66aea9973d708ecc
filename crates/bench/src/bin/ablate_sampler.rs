//! §5.1 ablation: training-instance selection.
//!
//! Compares training on every miss (the paper's §3.1 setup) against
//! training on every 4th (the default), reporting both prefetching
//! quality and how many training updates each period paid for.
//! Random-fraction, confidence-gated and batched training lost to
//! every-4th at two held-out trace seeds (EXPERIMENTS.md §5.1).
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_sampler [accesses]`

use hnp_bench::output;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;

fn main() {
    let accesses = output::arg_or(1, "accesses", 100_000);
    let trace = AppWorkload::TensorFlowLike.generate(accesses, 7);
    let cfg = SimConfig::default().sized_to(&trace, 0.5);
    let sim = Simulator::new(cfg);
    let base = sim.run(&trace, &mut NoPrefetcher);
    let periods = [("every-miss", 1), ("every-4th", 4)];
    output::header("§5.1 ablation: training-instance selection (tensorflow-like)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>9}",
        "sampler", "removed%", "trained", "skipped", "accuracy"
    );
    for (name, train_every) in periods {
        let mut p = ClsPrefetcher::new(ClsConfig {
            train_every,
            ..ClsConfig::default()
        });
        let rep = sim.run(&trace, &mut p);
        let (trained, skipped) = p.sampler_stats();
        println!(
            "{:<16} {:>9.1}% {:>10} {:>10} {:>9.2}",
            name,
            rep.pct_misses_removed(&base),
            trained,
            skipped,
            rep.accuracy()
        );
    }
}
