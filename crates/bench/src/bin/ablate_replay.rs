//! §5.4 ablation: replay buffers and replay forms.
//!
//! Sweeps the hippocampal capacity policies (unbounded, ring,
//! confidence-filtered, consolidating, averaging) and the replay forms
//! (interleaved, other-phases, generative, self-reinforcing) on a
//! phase-switching A-B-A workload where old-pattern retention matters,
//! reporting prefetch quality, storage actually used, and replay
//! volume.
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_replay [accesses_per_phase]`

use serde::Serialize;

use hnp_bench::output;
use hnp_core::{
    CapacityPolicy, ClsConfig, ClsPrefetcher, EpisodicBackend, ReplayConfig, ReplayForm,
};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::{phased, Pattern, Trace};

#[derive(Serialize)]
struct Row {
    condition: String,
    pct_misses_removed: f64,
    /// Misses removed within the third phase only — the A-return
    /// segment where retention of the first phase's pattern pays off.
    pct_return_phase_removed: f64,
    episodes_stored: usize,
    episodes_offered: u64,
    replayed: u64,
    /// Approximate episodic-store footprint.
    storage_bytes: usize,
}

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
    rows: &mut Vec<Row>,
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
    rows.push(Row {
        condition: name.to_string(),
        pct_misses_removed: rep.pct_misses_removed(&base.0),
        pct_return_phase_removed: return_removed,
        episodes_stored: p.episodic().stored(),
        episodes_offered: p.episodic().offered(),
        replayed: p.replayed(),
        storage_bytes: p.episodic().storage_bytes(),
    });
}

fn main() {
    let per_phase = output::arg_or(1, "HNP_ACCESSES", 40_000);
    let trace = aba_trace(per_phase);
    let cfg0 = SimConfig::default().sized_to(&trace, 0.5);
    let sim = Simulator::new(cfg0);
    let base = sim.run_with_checkpoints(&trace, &mut NoPrefetcher, &[2 * per_phase]);
    let mut rows = Vec::new();

    output::header("§5.4 ablation: replay OFF vs forms (A-B-A phase trace)");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "condition", "removed%", "return%", "stored", "offered", "replayed", "bytes"
    );
    run_condition(
        "no-replay",
        ClsConfig {
            replay: ReplayConfig::off(),
            episodic: EpisodicBackend::Exact(CapacityPolicy::Ring { capacity: 1 }),
            ..ClsConfig::default()
        },
        &trace,
        &sim,
        &base,
        per_phase,
        &mut rows,
    );
    for (name, form) in [
        ("interleaved", ReplayForm::Interleaved),
        ("other-phases", ReplayForm::OtherPhases),
        ("generative-3", ReplayForm::Generative { rollout_len: 3 }),
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
            &mut rows,
        );
    }

    output::header("§5.4 ablation: hippocampal capacity policies (interleaved replay)");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "condition", "removed%", "return%", "stored", "offered", "replayed", "bytes"
    );
    // The compressed associative backend (§3: "compressed format ...
    // associative memory"): fixed-size Willshaw matrix + cue reservoir.
    run_condition(
        "capacity/assoc-willshaw",
        ClsConfig {
            episodic: EpisodicBackend::Associative,
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
        &mut rows,
    );
    for (name, capacity) in [
        ("unbounded", CapacityPolicy::Unbounded),
        ("ring-4096", CapacityPolicy::Ring { capacity: 4096 }),
        ("ring-256", CapacityPolicy::Ring { capacity: 256 }),
        (
            "conf-filtered-4096",
            CapacityPolicy::ConfidenceFiltered {
                capacity: 4096,
                skip_above: 0.9,
            },
        ),
        (
            "consolidating-4096",
            CapacityPolicy::Consolidating {
                capacity: 4096,
                max_replays: 8,
            },
        ),
        (
            "averaging-1024",
            CapacityPolicy::Averaging {
                capacity: 1024,
                merge_overlap: 0.8,
            },
        ),
    ] {
        run_condition(
            &format!("capacity/{name}"),
            ClsConfig {
                episodic: EpisodicBackend::Exact(capacity),
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
            &mut rows,
        );
    }
    output::write_json("ablate_replay", &rows);
}
