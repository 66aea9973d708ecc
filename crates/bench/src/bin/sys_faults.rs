//! Robustness study: degradation curves under injected faults.
//!
//! Runs the Hebbian (CLS), LSTM, and stride prefetchers on both
//! system targets (disaggregated cluster, UVM) under escalating fault
//! schedules — link latency spikes, lossy links with switch
//! brownouts, and a full storm with node crashes — each with and
//! without the `ResilientPrefetcher` graceful-degradation wrapper.
//!
//! The question the JSON answers: how much of a prefetcher's
//! fair-weather benefit survives a degraded system, and how much of
//! the loss the watchdog wrapper claws back. `stall_ticks` is the
//! cluster's total link stall for the disaggregated target and the
//! run's total ticks for UVM (whose stall is embedded in wall-clock).
//!
//! Schedules are sized relative to each target's fault-free horizon so
//! the fault window always covers the middle half of the run.
//!
//! Usage: `cargo run --release -p hnp-bench --bin sys_faults [accesses]`
//! `HNP_FAULTS=<dsl>` replaces the built-in schedules with a custom
//! one (see `FaultSchedule::parse`); `HNP_FAULT_SEED` reseeds the
//! injector.

use serde::Serialize;

use hnp_baselines::{LstmPrefetcher, StrideConfig, StridePrefetcher};
use hnp_bench::output;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{NoPrefetcher, Prefetcher, ResilientPrefetcher};
use hnp_systems::{
    DisaggConfig, DisaggregatedCluster, FaultInjector, FaultSchedule, UvmConfig, UvmSim,
};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

#[derive(Serialize)]
struct Row {
    target: String,
    schedule: String,
    prefetcher: String,
    resilient: bool,
    stall_ticks: u64,
    total_ticks: u64,
    misses: usize,
    prefetches_issued: usize,
    prefetches_useful: usize,
    prefetches_cancelled: usize,
    retries: usize,
    timeouts: usize,
    restarts: usize,
}

const MODELS: [&str; 3] = ["cls-hebbian", "lstm", "stride"];

fn make_model(name: &str, seed: u64) -> Box<dyn Prefetcher> {
    match name {
        // Fair-weather tuning: wide, unfiltered issue maximises
        // coverage on a healthy link, and is exactly the geometry a
        // degraded link punishes (wasted transfers + pollution). The
        // wrapper, not the model, is the safety mechanism under test.
        "cls-hebbian" => Box::new(ClsPrefetcher::new(ClsConfig {
            seed,
            lookahead: 4,
            width: 4,
            min_confidence: 0.0,
            ..ClsConfig::default()
        })),
        "lstm" => Box::new(LstmPrefetcher::new(seed)),
        "stride" => Box::new(StridePrefetcher::with_config(
            StrideConfig::default().with_degree(2),
        )),
        other => panic!("unknown model {other}"),
    }
}

fn make(name: &str, seed: u64, resilient: bool) -> Box<dyn Prefetcher> {
    let inner = make_model(name, seed);
    if resilient {
        Box::new(ResilientPrefetcher::new(inner))
    } else {
        inner
    }
}

/// Escalating schedules sized to a fault-free horizon of `h` ticks.
/// `brownout_slots` couples the lossy episode with a switch brownout
/// (loss degrades the switch itself, which also loses its QoS path) —
/// meaningful for the disaggregated cluster's shared switch; pass 0
/// for the UVM target, whose interconnect has no admission stage.
fn schedules(h: u64, brownout_slots: usize) -> Vec<(&'static str, FaultSchedule)> {
    if let Ok(spec) = std::env::var("HNP_FAULTS") {
        let custom = FaultSchedule::parse(&spec).unwrap_or_else(|e| panic!("HNP_FAULTS: {e}"));
        return vec![("custom", custom)];
    }
    let start = h / 6;
    let dur = h / 2;
    let mut lossy = FaultSchedule::none().with_lossy_link(start, dur, 0.5);
    if brownout_slots > 0 {
        lossy = lossy.with_brownout(start, dur, brownout_slots);
    }
    vec![
        ("none", FaultSchedule::none()),
        (
            "spike",
            FaultSchedule::none()
                .with_latency_spike(start, dur, 150, 50)
                .with_slowdown(start, dur, 1.5),
        ),
        ("lossy", lossy),
        (
            "storm",
            FaultSchedule::none()
                .with_lossy_link(start, dur, 0.5)
                .with_latency_spike(start, dur, 200, 100)
                .with_brownout(start, dur, 2)
                .with_crash(h / 3, h / 20, 1)
                .with_crash(2 * h / 3, h / 20, 2),
        ),
    ]
}

fn fault_seed() -> u64 {
    std::env::var("HNP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xfa017)
}

fn node_traces(accesses: usize) -> Vec<Trace> {
    vec![
        AppWorkload::TensorFlowLike.generate(accesses, 11),
        AppWorkload::PageRankLike.generate(accesses, 12),
        AppWorkload::McfLike.generate(accesses, 13),
        AppWorkload::Graph500Like.generate(accesses, 14),
    ]
}

fn warp_traces(accesses: usize) -> Vec<Trace> {
    (0..4u64)
        .map(|i| {
            let app = AppWorkload::FIG5[(i % 4) as usize];
            app.generate(accesses, 200 + i).with_stream(i as u16)
        })
        .collect()
}

fn main() {
    let accesses = output::arg_or(1, "HNP_ACCESSES", 15_000);
    let seed = fault_seed();
    let mut rows = Vec::new();

    // ---- Disaggregated cluster -------------------------------------
    // A moderately constrained switch: brownouts and wasted
    // prefetches translate into demand-fetch contention stall.
    let traces = node_traces(accesses);
    let cfg = DisaggConfig {
        local_capacity_frac: 0.3,
        max_inflight: 4,
        shared_link_slots: 8,
        contention_penalty: 45,
        ..DisaggConfig::default()
    };
    let cluster = DisaggregatedCluster::new(cfg);
    let horizon = {
        let mut none: Vec<Box<dyn Prefetcher>> = (0..traces.len())
            .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
            .collect();
        cluster.run_decentralized(&traces, &mut none).total_ticks
    };
    output::header("Disaggregated cluster: degradation curves (per-node prefetchers)");
    println!(
        "{:<8} {:<14} {:>9} {:>12} {:>10} {:>9} {:>8} {:>8}",
        "schedule", "prefetcher", "resilient", "stall", "misses", "cancel", "retries", "restarts"
    );
    for (sched_name, schedule) in schedules(horizon, 3) {
        let mut none: Vec<Box<dyn Prefetcher>> = (0..traces.len())
            .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
            .collect();
        let mut inj = FaultInjector::new(schedule.clone(), seed);
        let base = cluster.run_decentralized_with_faults(&traces, &mut none, &mut inj);
        let mut emit = |label: &str, resilient: bool, rep: &hnp_systems::DisaggReport| {
            let sum = |f: fn(&hnp_systems::disagg::NodeReport) -> usize| -> usize {
                rep.nodes.iter().map(f).sum()
            };
            println!(
                "{:<8} {:<14} {:>9} {:>12} {:>10} {:>9} {:>8} {:>8}",
                sched_name,
                label,
                resilient,
                rep.total_stall(),
                rep.total_misses(),
                sum(|n| n.prefetches_cancelled),
                sum(|n| n.retries),
                sum(|n| n.restarts),
            );
            rows.push(Row {
                target: "disagg".into(),
                schedule: sched_name.into(),
                prefetcher: label.into(),
                resilient,
                stall_ticks: rep.total_stall(),
                total_ticks: rep.total_ticks,
                misses: rep.total_misses(),
                prefetches_issued: sum(|n| n.prefetches_issued),
                prefetches_useful: sum(|n| n.prefetches_useful),
                prefetches_cancelled: sum(|n| n.prefetches_cancelled),
                retries: sum(|n| n.retries),
                timeouts: sum(|n| n.timeouts),
                restarts: sum(|n| n.restarts),
            });
        };
        emit("baseline", false, &base);
        for model in MODELS {
            for resilient in [false, true] {
                let mut pfs: Vec<Box<dyn Prefetcher>> = (0..traces.len())
                    .map(|i| make(model, 0xd15a + i as u64, resilient))
                    .collect();
                let mut inj = FaultInjector::new(schedule.clone(), seed);
                let rep = cluster.run_decentralized_with_faults(&traces, &mut pfs, &mut inj);
                emit(model, resilient, &rep);
            }
        }
    }

    // ---- UVM ---------------------------------------------------------
    let warps = warp_traces(accesses);
    let sim = UvmSim::new(UvmConfig::default());
    let horizon = sim.run(&warps, &mut NoPrefetcher).total_ticks;
    output::header("UVM: degradation curves (centralized prefetcher)");
    println!(
        "{:<8} {:<14} {:>9} {:>12} {:>10} {:>9} {:>8} {:>8}",
        "schedule", "prefetcher", "resilient", "ticks", "faults", "cancel", "retries", "restarts"
    );
    for (sched_name, schedule) in schedules(horizon, 0) {
        let mut emit = |label: &str, resilient: bool, rep: &hnp_systems::UvmReport| {
            println!(
                "{:<8} {:<14} {:>9} {:>12} {:>10} {:>9} {:>8} {:>8}",
                sched_name,
                label,
                resilient,
                rep.total_ticks,
                rep.faults,
                rep.prefetches_cancelled,
                rep.retries,
                rep.restarts,
            );
            rows.push(Row {
                target: "uvm".into(),
                schedule: sched_name.into(),
                prefetcher: label.into(),
                resilient,
                stall_ticks: rep.total_ticks,
                total_ticks: rep.total_ticks,
                misses: rep.faults,
                prefetches_issued: rep.prefetches_issued,
                prefetches_useful: rep.prefetches_useful,
                prefetches_cancelled: rep.prefetches_cancelled,
                retries: rep.retries,
                timeouts: rep.timeouts,
                restarts: rep.restarts,
            });
        };
        let mut inj = FaultInjector::new(schedule.clone(), seed);
        let base = sim.run_with_faults(&warps, &mut NoPrefetcher, &mut inj);
        emit("baseline", false, &base);
        for model in MODELS {
            for resilient in [false, true] {
                let mut p = make(model, 0x07a, resilient);
                let mut inj = FaultInjector::new(schedule.clone(), seed);
                let rep = sim.run_with_faults(&warps, p.as_mut(), &mut inj);
                emit(model, resilient, &rep);
            }
        }
    }
    output::write_json("sys_faults", &rows);
}
