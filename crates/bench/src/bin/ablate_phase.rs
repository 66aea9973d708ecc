//! §5.4 ablation: phase detection.
//!
//! "Another challenge in incorporating replay is to define application
//! phases so that they can be replayed ... identify contexts or phases
//! using clustering of abstract representations." This harness runs a
//! phase-churning serverless-like workload (and a long A-B-A trace)
//! without phase detection and with phase-aware (other-phases) replay
//! at two detector windows, reporting detected phase counts and
//! prefetch quality. Other-phases replay is the one reader of phase
//! ids, so it alone runs the detector.
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_phase [accesses]`

use hnp_bench::output;
use hnp_core::{ClsConfig, ClsPrefetcher, ReplayConfig, ReplayForm};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;
use hnp_trace::{phased, Pattern, Trace};

/// Other-phases replay, two episodes per step, with the detector
/// assigning a phase to every `window` delta tokens.
fn other_phases(window: usize) -> ClsConfig {
    ClsConfig {
        replay: ReplayConfig {
            form: ReplayForm::OtherPhases { window },
            per_step: 2,
        },
        ..ClsConfig::default()
    }
}

fn run(workload: &str, trace: &Trace) {
    let sim = Simulator::new(SimConfig::default().sized_to(trace, 0.5));
    let base = sim.run(trace, &mut NoPrefetcher);
    let conditions: Vec<(&str, ClsConfig)> = vec![
        ("no-phase", ClsConfig::default()),
        ("phase-other-replay", other_phases(64)),
        ("phase-other-replay-w16", other_phases(16)),
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
