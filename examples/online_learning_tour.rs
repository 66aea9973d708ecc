//! A tour of the CLS prefetcher's §5 design space on one workload:
//! training-instance samplers (§5.1), prefetch geometry (§5.2), input
//! encoders (§5.3), and hippocampal replay policies (§5.4).
//!
//! ```sh
//! cargo run --release --example online_learning_tour
//! ```

use hnp::core::encoder::EncoderKind;
use hnp::core::{CapacityPolicy, ClsConfig, ClsPrefetcher, ReplayConfig, TrainingSampler};
use hnp::memsim::{NoPrefetcher, SimConfig, SimReport, Simulator};
use hnp::traces::apps::AppWorkload;
use hnp::traces::Trace;

fn run(trace: &Trace, sim: &Simulator, base: &SimReport, label: &str, cfg: ClsConfig) {
    let mut p = ClsPrefetcher::new(cfg);
    let rep = sim.run(trace, &mut p);
    println!(
        "  {:<28} removed {:5.1}%  trained {:>6}  replayed {:>6}",
        label,
        rep.pct_misses_removed(base),
        p.sampler_stats().0,
        p.replayed()
    );
}

fn main() {
    let trace = AppWorkload::McfLike.generate(80_000, 9);
    let sim = Simulator::new(SimConfig::default().sized_to(&trace, 0.5));
    let base = sim.run(&trace, &mut NoPrefetcher);
    println!(
        "mcf-like workload: {} accesses, baseline miss rate {:.1}%",
        trace.len(),
        100.0 * base.miss_rate()
    );

    println!("\n§5.1 — when to train:");
    run(&trace, &sim, &base, "every miss", ClsConfig::default());
    run(
        &trace,
        &sim,
        &base,
        "every 4th miss",
        ClsConfig {
            sampler: TrainingSampler::EveryNth { n: 4 },
            ..ClsConfig::default()
        },
    );
    run(
        &trace,
        &sim,
        &base,
        "confidence-gated (<0.5)",
        ClsConfig {
            sampler: TrainingSampler::ConfidenceGated { threshold: 0.5 },
            ..ClsConfig::default()
        },
    );

    println!("\n§5.2 — output geometry:");
    run(
        &trace,
        &sim,
        &base,
        "lookahead 1, width 1",
        ClsConfig {
            lookahead: 1,
            width: 1,
            ..ClsConfig::default()
        },
    );
    run(
        &trace,
        &sim,
        &base,
        "lookahead 4, width 2",
        ClsConfig {
            lookahead: 4,
            width: 2,
            ..ClsConfig::default()
        },
    );

    println!("\n§5.3 — input encodings:");
    run(
        &trace,
        &sim,
        &base,
        "one-hot delta",
        ClsConfig {
            encoder: EncoderKind::OneHot,
            ..ClsConfig::default()
        },
    );
    run(
        &trace,
        &sim,
        &base,
        "history window (3)",
        ClsConfig {
            encoder: EncoderKind::HistoryWindow { window: 3 },
            ..ClsConfig::default()
        },
    );

    println!("\n§5.4 — hippocampus & replay:");
    run(
        &trace,
        &sim,
        &base,
        "no replay",
        ClsConfig {
            replay: ReplayConfig::off(),
            ..ClsConfig::default()
        },
    );
    run(
        &trace,
        &sim,
        &base,
        "interleaved replay",
        ClsConfig::default(),
    );
    run(
        &trace,
        &sim,
        &base,
        "ring of 256 episodes",
        ClsConfig {
            episodic: CapacityPolicy::Ring { capacity: 256 },
            ..ClsConfig::default()
        },
    );
}
