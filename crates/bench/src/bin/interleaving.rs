//! §4 conjecture: "such interleaving of access streams may naturally
//! offer more resistance to catastrophic interference, reducing
//! replay costs."
//!
//! Trains the same online models on two patterns presented
//! *sequentially* (phase A fully, then phase B — the Fig.-3 regime) or
//! *interleaved* at different granularities (alternating chunks of 1
//! or 16 examples, as a centralized UVM-driver prefetcher would see
//! them), with no replay in any condition, and compares final
//! confidence on both patterns. Granularity matters: a context-
//! carrying model (the Hebbian net's recurrent state) needs bursts
//! long enough for its context to match single-stream evaluation.
//!
//! Usage: `cargo run --release -p hnp-bench --bin interleaving [steps]`

use hnp_bench::fig3::pattern_tokens;
use hnp_bench::output;
use hnp_hebbian::{HebbianConfig, HebbianNetwork};
use hnp_memsim::DeltaVocab;
use hnp_nn::{LstmConfig, LstmNetwork};
use hnp_trace::Pattern;

struct Row {
    model: String,
    presentation: String,
    conf_a: f32,
    conf_b: f32,
}

fn lstm_conf(net: &LstmNetwork, toks: &[usize]) -> f32 {
    let mut s = 0.0;
    let mut n = 0;
    for i in (0..toks.len() - 5).step_by(7) {
        s += net.eval_window(&toks[i..i + 4], toks[i + 4]).confidence;
        n += 1;
    }
    s / n as f32
}

fn run_lstm(a: &[usize], b: &[usize], chunk: Option<usize>, steps: usize, vocab_len: usize) -> Row {
    let mut net = LstmNetwork::new(LstmConfig {
        vocab: vocab_len,
        embed_dim: 32,
        hidden: 64,
        ..LstmConfig::default()
    });
    let ex = |t: &[usize], i: usize| -> (usize, usize) {
        let s = i % (t.len() - 4);
        (s, s + 4)
    };
    match chunk {
        Some(c) => {
            let mut i = 0;
            while i < steps {
                for j in i..(i + c).min(steps) {
                    let (s, e) = ex(a, j);
                    net.train_window(&a[s..e], a[e], 0.2);
                }
                for j in i..(i + c).min(steps) {
                    let (s, e) = ex(b, j);
                    net.train_window(&b[s..e], b[e], 0.2);
                }
                i += c;
            }
        }
        None => {
            for i in 0..steps {
                let (s, e) = ex(a, i);
                net.train_window(&a[s..e], a[e], 0.2);
            }
            for i in 0..steps {
                let (s, e) = ex(b, i);
                net.train_window(&b[s..e], b[e], 0.2);
            }
        }
    }
    Row {
        model: "lstm".into(),
        presentation: label(chunk),
        conf_a: lstm_conf(&net, a),
        conf_b: lstm_conf(&net, b),
    }
}

/// Condition label.
fn label(chunk: Option<usize>) -> String {
    match chunk {
        Some(c) => format!("interleave-{c}"),
        None => "sequential".into(),
    }
}

fn hebbian_conf(net: &mut HebbianNetwork, toks: &[usize]) -> f32 {
    let saved = net.recurrent_state().to_vec();
    net.reset_state();
    let mut s = 0.0;
    let mut n = 0;
    for w in toks.windows(2).skip(2) {
        s += net.infer_advance(&[w[0] as u32], w[1]).confidence;
        n += 1;
    }
    net.set_recurrent_state(&saved);
    s / n as f32
}

fn run_hebbian(a: &[usize], b: &[usize], chunk: Option<usize>, steps: usize) -> Row {
    let mut net = HebbianNetwork::new(HebbianConfig::paper_table2());
    let pair = |t: &[usize], i: usize| -> (usize, usize) {
        let s = i % (t.len() - 1);
        (t[s], t[s + 1])
    };
    match chunk {
        Some(c) => {
            let mut i = 0;
            while i < steps {
                for j in i..(i + c).min(steps) {
                    let (x, y) = pair(a, j);
                    net.train_step(&[x as u32], y);
                }
                for j in i..(i + c).min(steps) {
                    let (x, y) = pair(b, j);
                    net.train_step(&[x as u32], y);
                }
                i += c;
            }
        }
        None => {
            for i in 0..steps {
                let (x, y) = pair(a, i);
                net.train_step(&[x as u32], y);
            }
            for i in 0..steps {
                let (x, y) = pair(b, i);
                net.train_step(&[x as u32], y);
            }
        }
    }
    Row {
        model: "hebbian".into(),
        presentation: label(chunk),
        conf_a: hebbian_conf(&mut net, a),
        conf_b: hebbian_conf(&mut net, b),
    }
}

fn main() {
    let steps = output::arg_or(1, "steps", 6_000);
    let vocab = DeltaVocab::new(64);
    let a = pattern_tokens(Pattern::Stride, 1000, 1, &vocab);
    let b = pattern_tokens(Pattern::PointerChase, 1000, 2, &vocab);
    output::header("§4: stream interleaving vs sequential presentation (no replay)");
    println!(
        "{:<10} {:<14} {:>8} {:>8}",
        "model", "presentation", "conf(A)", "conf(B)"
    );
    let mut rows = Vec::new();
    for chunk in [None, Some(1), Some(16)] {
        rows.push(run_lstm(&a, &b, chunk, steps, vocab.len()));
        rows.push(run_hebbian(&a, &b, chunk, steps));
    }
    for r in &rows {
        println!(
            "{:<10} {:<14} {:>8.2} {:>8.2}",
            r.model, r.presentation, r.conf_a, r.conf_b
        );
    }
    println!();
    println!("interleaving keeps both patterns alive without replay (the paper's §4");
    println!("conjecture) — but a context-carrying model needs the interleave bursts");
    println!("to be longer than its context depth (compare hebbian at chunk 1 vs 16).");
}
