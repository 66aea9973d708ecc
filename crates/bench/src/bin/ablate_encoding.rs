//! §5.3 ablation: input encodings.
//!
//! Compares the one-hot delta encoding of prior work against the
//! history-window encoding on the application workloads and a
//! second-order composite, including the paper's negative result:
//! pointer-based key-value workloads defeat every delta encoding.
//!
//! Usage: `cargo run --release -p hnp-bench --bin ablate_encoding [accesses]`

use hnp_bench::output;
use hnp_core::encoder::EncoderKind;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

fn encoders() -> Vec<(&'static str, EncoderKind)> {
    vec![
        ("one-hot", EncoderKind::OneHot),
        ("history-3", EncoderKind::HistoryWindow { window: 3 }),
    ]
}

fn run_workload(name: &str, trace: &Trace) {
    let cfg = SimConfig::default().sized_to(trace, 0.5);
    let sim = Simulator::new(cfg);
    let base = sim.run(trace, &mut NoPrefetcher);
    for (ename, encoder) in encoders() {
        let mut p = ClsPrefetcher::new(ClsConfig {
            encoder,
            ..ClsConfig::default()
        });
        let rep = sim.run(trace, &mut p);
        println!(
            "{:<14} {:<12} {:>9.1}% {:>9.2}",
            name,
            ename,
            rep.pct_misses_removed(&base),
            rep.accuracy()
        );
    }
}

fn main() {
    let accesses = output::arg_or(1, "accesses", 80_000);
    output::header("§5.3 ablation: input encodings");
    println!(
        "{:<14} {:<12} {:>10} {:>9}",
        "workload", "encoder", "removed%", "accuracy"
    );
    for app in [
        AppWorkload::TensorFlowLike,
        AppWorkload::McfLike,
        AppWorkload::KvStoreLike,
    ] {
        let trace = app.generate(accesses, 31);
        run_workload(app.name(), &trace);
    }
    // A second-order pattern where history should beat one-hot: an
    // alternating composite whose next delta depends on two steps of
    // context.
    let composite = {
        use hnp_trace::{phased, Pattern};

        phased::phases(
            &[
                (Pattern::IndirectIndex, accesses / 2),
                (Pattern::PointerOffset, accesses / 2),
            ],
            3,
        )
    };
    run_workload("composite", &composite);
    println!();
    println!("note: kv-store is the §5.3 negative result — no delta encoding should rescue it.");
}
