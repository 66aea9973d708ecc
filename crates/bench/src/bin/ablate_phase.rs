//! §5.4 ablation: phase detection.
//!
//! "Another challenge in incorporating replay is to define application
//! phases so that they can be replayed ... identify contexts or phases
//! using clustering of abstract representations." This harness runs a
//! phase-churning serverless-like workload (and a long A-B-A trace)
//! with phase detection on/off and with phase-aware (other-phases)
//! replay, reporting detected phase counts and prefetch quality.
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_phase [accesses]`

use hnp_bench::output;
use hnp_core::phase::PhaseConfig;
use hnp_core::{ClsConfig, ClsPrefetcher, ReplayConfig, ReplayForm};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;
use hnp_trace::{phased, Pattern, Trace};

fn run(workload: &str, trace: &Trace) {
    let sim = Simulator::new(SimConfig::default().sized_to(trace, 0.5));
    let base = sim.run(trace, &mut NoPrefetcher);
    let conditions: Vec<(&str, ClsConfig)> = vec![
        (
            "no-phase",
            ClsConfig {
                phase: None,
                ..ClsConfig::default()
            },
        ),
        (
            "phase-uniform-replay",
            ClsConfig {
                phase: Some(PhaseConfig::default()),
                ..ClsConfig::default()
            },
        ),
        (
            "phase-fine-w16",
            ClsConfig {
                phase: Some(PhaseConfig { window: 16 }),
                ..ClsConfig::default()
            },
        ),
        (
            "phase-other-replay",
            ClsConfig {
                phase: Some(PhaseConfig::default()),
                replay: ReplayConfig {
                    form: ReplayForm::OtherPhases,
                    per_step: 2,
                    ..ReplayConfig::default()
                },
                ..ClsConfig::default()
            },
        ),
    ];
    for (name, cfg) in conditions {
        let mut p = ClsPrefetcher::new(cfg);
        let rep = sim.run(trace, &mut p);
        println!(
            "{:<12} {:<22} {:>9.1}% {:>8} {:>9}",
            workload,
            name,
            rep.pct_misses_removed(&base),
            p.current_phase(),
            p.replayed()
        );
    }
}

fn main() {
    let accesses = output::arg_or(1, "accesses", 100_000);
    output::header("§5.4 ablation: phase detection (phase ids are allocation counters)");
    println!(
        "{:<12} {:<22} {:>10} {:>8} {:>9}",
        "workload", "condition", "removed%", "phase-id", "replayed"
    );
    run(
        "serverless",
        &AppWorkload::ServerlessLike.generate(accesses, 3),
    );
    run(
        "aba",
        &phased::phases(
            &[
                (Pattern::PointerChase, accesses / 3),
                (Pattern::Stride, accesses / 3),
                (Pattern::PointerChase, accesses / 3),
            ],
            5,
        ),
    );
}
