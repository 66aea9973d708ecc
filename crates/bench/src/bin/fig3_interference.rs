//! Fig. 3: catastrophic interference (a-c) and the effect of replay
//! (d-f) during online prefetch learning.
//!
//! Runs three Table-1 pattern pairs through the paper's protocol on
//! the LSTM (the paper's subject) and the Hebbian network (extension),
//! printing the old-pattern (red) and new-pattern (blue) confidence
//! series and a final summary.
//!
//! Usage: `cargo run --release -p hnp-bench --bin fig3_interference [steps_b]`

use hnp_bench::fig3::{run_hebbian, run_lstm, run_transformer, Fig3Options, Fig3Series};
use hnp_bench::output;
use hnp_trace::Pattern;

/// Renders a 0..1 series as a sparkline row.
fn spark(values: &[f32]) -> String {
    const LEVELS: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
    values
        .iter()
        .map(|&v| {
            let i = ((v.clamp(0.0, 1.0)) * (LEVELS.len() as f32 - 1.0)).round() as usize;
            LEVELS[i]
        })
        .collect()
}

fn print_series(s: &Fig3Series) {
    let old: Vec<f32> = s.points.iter().map(|p| p.conf_old).collect();
    let new: Vec<f32> = s.points.iter().map(|p| p.conf_new).collect();
    println!(
        "  [{}] {} -> {}  replay={}  phase1-conf={:.2}",
        s.model, s.pattern_old, s.pattern_new, s.replay, s.conf_old_after_phase1
    );
    println!(
        "    old (red):  {}  final {:.2}",
        spark(&old),
        s.final_conf_old()
    );
    println!(
        "    new (blue): {}  final {:.2}",
        spark(&new),
        s.final_conf_new()
    );
}

fn main() {
    let steps_b = output::arg_or(1, "steps_b", 4000);
    let opts = Fig3Options {
        steps_b,
        ..Fig3Options::default()
    };
    // Three pairs, as in Fig. 3a-c.
    let pairs = [
        (Pattern::Stride, Pattern::PointerChase),
        (Pattern::PointerChase, Pattern::IndirectIndex),
        (Pattern::IndirectStride, Pattern::Stride),
    ];
    let mut all: Vec<Fig3Series> = Vec::new();
    output::header("Fig. 3a-c: catastrophic interference (no replay), LSTM");
    for &(a, b) in &pairs {
        let s = run_lstm(a, b, false, &opts);
        print_series(&s);
        all.push(s);
    }
    output::header("Fig. 3d-f: with interleaved replay at 0.1x lr, LSTM");
    for &(a, b) in &pairs {
        let s = run_lstm(a, b, true, &opts);
        print_series(&s);
        all.push(s);
    }
    output::header("Extension: Hebbian network, same protocol");
    for &(a, b) in &pairs {
        for replay in [false, true] {
            let s = run_hebbian(a, b, replay, &opts);
            print_series(&s);
            all.push(s);
        }
    }
    output::header("Extension: transformer baseline, same protocol");
    for &(a, b) in &pairs {
        for replay in [false, true] {
            let s = run_transformer(a, b, replay, &opts);
            print_series(&s);
            all.push(s);
        }
    }
    output::header("Summary: final old-pattern confidence");
    println!(
        "{:<10} {:<18} {:<18} {:>10} {:>10}",
        "model", "old", "new", "no-replay", "replay"
    );
    for &(a, b) in &pairs {
        for model in ["lstm", "hebbian", "transformer"] {
            let find = |replay: bool| {
                all.iter()
                    .find(|s| {
                        s.model == model
                            && s.pattern_old == a.name()
                            && s.pattern_new == b.name()
                            && s.replay == replay
                    })
                    .map(|s| s.final_conf_old())
                    .unwrap_or(f32::NAN)
            };
            println!(
                "{:<10} {:<18} {:<18} {:>10.2} {:>10.2}",
                model,
                a.name(),
                b.name(),
                find(false),
                find(true)
            );
        }
    }
}
