//! §5.1 ablation: training-instance selection.
//!
//! Compares training on every miss (the paper's §3.1 setup) against
//! the §5.1 alternatives — periodic, random-fraction, confidence-
//! gated, and batched training — reporting both prefetching quality
//! and how many training updates each policy actually paid for.
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_sampler [accesses]`

use hnp_bench::output;
use hnp_core::{ClsConfig, ClsPrefetcher, TrainingSampler};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;

fn main() {
    let accesses = output::arg_or(1, "accesses", 100_000);
    let trace = AppWorkload::TensorFlowLike.generate(accesses, 7);
    let cfg = SimConfig::default().sized_to(&trace, 0.5);
    let sim = Simulator::new(cfg);
    let base = sim.run(&trace, &mut NoPrefetcher);
    let samplers: Vec<(&str, TrainingSampler)> = vec![
        ("every-miss", TrainingSampler::EveryMiss),
        ("every-4th", TrainingSampler::EveryNth { n: 4 }),
        ("random-25%", TrainingSampler::RandomFraction { p: 0.25 }),
        (
            "conf-gated-0.5",
            TrainingSampler::ConfidenceGated { threshold: 0.5 },
        ),
        ("batch-16", TrainingSampler::Batch { size: 16 }),
    ];
    output::header("§5.1 ablation: training-instance selection (tensorflow-like)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>9}",
        "sampler", "removed%", "trained", "skipped", "accuracy"
    );
    for (name, sampler) in samplers {
        let mut p = ClsPrefetcher::new(ClsConfig {
            sampler,
            seed: 0x5a3,
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
