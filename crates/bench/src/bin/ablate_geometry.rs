//! §5.2 ablation: prefetch length, width, history, and inference
//! latency.
//!
//! Sweeps the three output-geometry knobs and demonstrates the
//! paper's timeliness argument: "if the time between misses is less
//! than the inference latency, even a perfect model will always
//! prefetch too late. In that case, a more effective method is to
//! predict a sequence of misses further into the future."
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_geometry [accesses]`

use serde::Serialize;

use hnp_bench::output;
use hnp_core::encoder::EncoderKind;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

#[derive(Serialize)]
struct Row {
    axis: String,
    value: String,
    pct_misses_removed: f64,
    accuracy: f64,
    issued: usize,
}

fn run_one(
    trace: &Trace,
    sim: &Simulator,
    base: &hnp_memsim::SimReport,
    cfg: ClsConfig,
    axis: &str,
    value: String,
    rows: &mut Vec<Row>,
) {
    let mut p = ClsPrefetcher::new(cfg);
    let rep = sim.run(trace, &mut p);
    println!(
        "{:<12} {:<16} {:>9.1}% {:>9.2} {:>9}",
        axis,
        value,
        rep.pct_misses_removed(base),
        rep.accuracy(),
        rep.prefetches_issued
    );
    rows.push(Row {
        axis: axis.to_string(),
        value,
        pct_misses_removed: rep.pct_misses_removed(base),
        accuracy: rep.accuracy(),
        issued: rep.prefetches_issued,
    });
}

fn main() {
    let accesses = output::arg_or(1, "HNP_ACCESSES", 100_000);
    let trace = AppWorkload::TensorFlowLike.generate(accesses, 11);
    let mut rows = Vec::new();

    output::header("§5.2 ablation: prefetch length (lookahead), width, history");
    println!(
        "{:<12} {:<16} {:>10} {:>9} {:>9}",
        "axis", "value", "removed%", "accuracy", "issued"
    );
    let cfg0 = SimConfig::default().sized_to(&trace, 0.5);
    let sim = Simulator::new(cfg0);
    let base = sim.run(&trace, &mut NoPrefetcher);
    for lookahead in [1usize, 2, 4, 8] {
        run_one(
            &trace,
            &sim,
            &base,
            ClsConfig {
                lookahead,
                ..ClsConfig::default()
            },
            "length",
            lookahead.to_string(),
            &mut rows,
        );
    }
    for width in [1usize, 2, 4] {
        run_one(
            &trace,
            &sim,
            &base,
            ClsConfig {
                width,
                ..ClsConfig::default()
            },
            "width",
            width.to_string(),
            &mut rows,
        );
    }
    for window in [1usize, 2, 4, 8] {
        run_one(
            &trace,
            &sim,
            &base,
            ClsConfig {
                encoder: if window == 1 {
                    EncoderKind::OneHot
                } else {
                    EncoderKind::HistoryWindow { window }
                },
                ..ClsConfig::default()
            },
            "history",
            window.to_string(),
            &mut rows,
        );
    }

    output::header("§5.2 timeliness: inference latency vs lookahead (perfect-model argument)");
    println!(
        "{:<12} {:<16} {:>10} {:>9} {:>9}",
        "inf-latency", "lookahead", "removed%", "accuracy", "issued"
    );
    for inference_latency in [0u64, 200, 800] {
        for lookahead in [1usize, 4] {
            let cfg = SimConfig {
                inference_latency,
                ..SimConfig::default()
            }
            .sized_to(&trace, 0.5);
            let sim_l = Simulator::new(cfg);
            let base_l = sim_l.run(&trace, &mut NoPrefetcher);
            let mut p = ClsPrefetcher::new(ClsConfig {
                lookahead,
                ..ClsConfig::default()
            });
            let rep = sim_l.run(&trace, &mut p);
            println!(
                "{:<12} {:<16} {:>9.1}% {:>9.2} {:>9}",
                inference_latency,
                lookahead,
                rep.pct_misses_removed(&base_l),
                rep.accuracy(),
                rep.prefetches_issued
            );
            rows.push(Row {
                axis: format!("timeliness-inf{inference_latency}"),
                value: format!("lookahead{lookahead}"),
                pct_misses_removed: rep.pct_misses_removed(&base_l),
                accuracy: rep.accuracy(),
                issued: rep.prefetches_issued,
            });
        }
    }
    output::header("§5.2 co-design: adaptive geometry under inference latency");
    println!(
        "{:<12} {:<16} {:>10} {:>9} {:>9}",
        "inf-latency", "controller", "removed%", "accuracy", "issued"
    );
    for inference_latency in [0u64, 200, 800] {
        let cfg = SimConfig {
            inference_latency,
            max_issue_per_miss: 8,
            ..SimConfig::default()
        }
        .sized_to(&trace, 0.5);
        let sim_l = Simulator::new(cfg);
        let base_l = sim_l.run(&trace, &mut NoPrefetcher);
        for adaptive in [false, true] {
            let mut p = ClsPrefetcher::new(ClsConfig {
                lookahead: 1,
                width: 1,
                adaptive,
                ..ClsConfig::default()
            });
            let rep = sim_l.run(&trace, &mut p);
            let (w, l) = p.geometry();
            println!(
                "{:<12} {:<16} {:>9.1}% {:>9.2} {:>9}   (ends at width {w}, lookahead {l})",
                inference_latency,
                if adaptive { "adaptive" } else { "static-1x1" },
                rep.pct_misses_removed(&base_l),
                rep.accuracy(),
                rep.prefetches_issued
            );
            rows.push(Row {
                axis: format!("adaptive-inf{inference_latency}"),
                value: if adaptive { "adaptive" } else { "static" }.to_string(),
                pct_misses_removed: rep.pct_misses_removed(&base_l),
                accuracy: rep.accuracy(),
                issued: rep.prefetches_issued,
            });
        }
    }
    output::write_json("ablate_geometry", &rows);
}
