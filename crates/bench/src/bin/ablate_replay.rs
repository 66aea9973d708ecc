//! §5.4 ablation: replay buffers and replay forms.
//!
//! Sweeps the replay forms (interleaved, other-phases,
//! self-reinforcing) against no replay, and the hippocampal ring's
//! capacity, on a phase-switching A-B-A workload where old-pattern
//! retention matters, reporting prefetch quality, storage actually
//! used, and replay volume. The unbounded, confidence-filtered,
//! consolidating, averaging and associative stores and generative
//! replay were measured here too; none beat `ring-256`, so they were
//! deleted (EXPERIMENTS.md §5.4).
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_replay [accesses_per_phase]`

use hnp_bench::output;
use hnp_core::{CapacityPolicy, ClsConfig, ClsPrefetcher, EpisodicStore, ReplayConfig, ReplayForm};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::{phased, Pattern, Trace};

fn aba_trace(per_phase: usize) -> Trace {
    phased::phases(
        &[
            (Pattern::PointerChase, per_phase),
            (Pattern::Stride, per_phase),
            (Pattern::PointerChase, per_phase),
        ],
        17,
    )
}

fn run_condition(
    name: &str,
    cfg: ClsConfig,
    trace: &Trace,
    sim: &Simulator,
    base: &(hnp_memsim::SimReport, Vec<usize>),
    per_phase: usize,
) {
    let mut p = ClsPrefetcher::new(cfg);
    let checkpoints = [2 * per_phase];
    let (rep, marks) = sim.run_with_checkpoints(trace, &mut p, &checkpoints);
    // Misses inside the A-return (third) phase.
    let phase3 = rep.misses() - marks[0];
    let base_phase3 = base.0.misses() - base.1[0];
    let return_removed = if base_phase3 == 0 {
        0.0
    } else {
        100.0 * (base_phase3 as f64 - phase3 as f64) / base_phase3 as f64
    };
    println!(
        "{:<26} {:>9.1}% {:>9.1}% {:>9} {:>9} {:>9} {:>10}",
        name,
        rep.pct_misses_removed(&base.0),
        return_removed,
        p.episodic().stored(),
        p.episodic().offered(),
        p.replayed(),
        p.episodic().storage_bytes()
    );
}

fn main() {
    let per_phase = output::arg_or(1, "accesses_per_phase", 40_000);
    let trace = aba_trace(per_phase);
    let cfg0 = SimConfig::default().sized_to(&trace, 0.5);
    let sim = Simulator::new(cfg0);
    let base = sim.run_with_checkpoints(&trace, &mut NoPrefetcher, &[2 * per_phase]);

    output::header("§5.4 ablation: replay OFF vs forms (A-B-A phase trace)");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "condition", "removed%", "return%", "stored", "offered", "replayed", "bytes"
    );
    run_condition(
        "no-replay",
        ClsConfig {
            replay: ReplayConfig::off(),
            ..ClsConfig::default()
        },
        &trace,
        &sim,
        &base,
        per_phase,
    );
    for (name, form) in [
        ("interleaved", ReplayForm::Interleaved),
        ("other-phases", ReplayForm::OtherPhases),
        ("self-reinforce", ReplayForm::SelfReinforce),
    ] {
        run_condition(
            &format!("replay/{name}"),
            ClsConfig {
                replay: ReplayConfig {
                    form,
                    per_step: 2,
                    ..ReplayConfig::default()
                },
                ..ClsConfig::default()
            },
            &trace,
            &sim,
            &base,
            per_phase,
        );
    }

    output::header("§5.4 ablation: hippocampal capacity policies (interleaved replay)");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "condition", "removed%", "return%", "stored", "offered", "replayed", "bytes"
    );
    for (name, capacity) in [("ring-4096", 4096), ("ring-256", 256)] {
        run_condition(
            &format!("capacity/{name}"),
            ClsConfig {
                episodic: CapacityPolicy::Ring { capacity },
                replay: ReplayConfig {
                    per_step: 2,
                    ..ReplayConfig::default()
                },
                ..ClsConfig::default()
            },
            &trace,
            &sim,
            &base,
            per_phase,
        );
    }
}
