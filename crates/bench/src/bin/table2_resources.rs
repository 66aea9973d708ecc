//! Table 2: resource needs of the Hebbian vs. LSTM networks.
//!
//! Prints parameter counts and per-inference / per-training-example
//! operation counts, both from the analytic formulas
//! (`hnp_nn::ops::OpCounts`) and *measured* from the actual
//! implementations (the Hebbian network counts every integer op it
//! performs). Paper values are printed alongside for comparison.
//!
//! Usage: `cargo run -p hnp-bench --bin table2_resources`

use hnp_bench::output;
use hnp_hebbian::{HebbianConfig, HebbianNetwork};
use hnp_nn::transformer::{TransformerConfig, TransformerNetwork};
use hnp_nn::{LstmConfig, LstmNetwork, OpCounts};

struct Row {
    model: String,
    params: usize,
    inference_ops: usize,
    training_ops: usize,
    arithmetic: String,
    storage_bytes_fp32_or_int16: usize,
    paper_params: usize,
    paper_inference_ops: String,
    paper_training_ops: String,
}

fn main() {
    output::header("Table 2: resource needs of Hebbian vs LSTM networks");
    // The LSTM at the paper's compressed deployment scale.
    let lstm_cfg = LstmConfig::paper_table2();
    let lstm = LstmNetwork::new(lstm_cfg.clone());
    let lstm_ops = lstm.op_counts();

    // The Hebbian network at the paper's scale; ops measured live.
    let heb_cfg = HebbianConfig::paper_table2();
    let mut heb = HebbianNetwork::new(heb_cfg.clone());
    // Warm up so the recurrent state carries typical occupancy, then
    // measure a training and an inference step.
    for i in 0..50u32 {
        heb.train_step(&[(i % 64)], ((i + 1) % 64) as usize);
    }
    let inf = heb.infer_advance(&[3], 4);
    let tr = heb.train_step(&[4], 5);
    let heb_formula = OpCounts::hebbian(
        heb_cfg.pattern_bits + heb_cfg.recurrent_bits,
        heb_cfg.hidden,
        heb_cfg.outputs,
        heb_cfg.connectivity,
        1 + heb_cfg.recurrent_sample,
        heb_cfg.hidden_active,
    );

    // The transformer comparison point (not in the paper's table; §2
    // names the family).
    let tf_cfg = TransformerConfig::default();
    let tf = TransformerNetwork::new(tf_cfg.clone());
    let tf_ops = OpCounts::transformer(tf_cfg.vocab, tf_cfg.dim, tf_cfg.ff, tf_cfg.window);

    let rows = vec![
        Row {
            model: "LSTM".into(),
            params: lstm.param_count(),
            inference_ops: lstm_ops.inference_ops,
            training_ops: lstm_ops.training_ops,
            arithmetic: "FP32".into(),
            storage_bytes_fp32_or_int16: lstm.param_count() * 4,
            paper_params: 170_000,
            paper_inference_ops: ">170k FP".into(),
            paper_training_ops: ">400k FP".into(),
        },
        Row {
            model: "Transformer".into(),
            params: tf.param_count(),
            inference_ops: tf_ops.inference_ops,
            training_ops: tf_ops.training_ops,
            arithmetic: "FP32".into(),
            storage_bytes_fp32_or_int16: tf.param_count() * 4,
            paper_params: 0,
            paper_inference_ops: "- (not in Table 2)".into(),
            paper_training_ops: "-".into(),
        },
        Row {
            model: "Hebbian".into(),
            params: heb.param_count(),
            inference_ops: inf.ops,
            training_ops: tr.ops,
            arithmetic: "INT16".into(),
            storage_bytes_fp32_or_int16: heb.param_count() * 2,
            paper_params: 49_000,
            paper_inference_ops: "14k INT".into(),
            paper_training_ops: "64k INT".into(),
        },
    ];

    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>6} {:>12}   paper: params/inf/train",
        "model", "params", "ops(inference)", "ops(training)", "arith", "storage(B)"
    );
    for r in &rows {
        println!(
            "{:<12} {:>10} {:>14} {:>14} {:>6} {:>12}   {} / {} / {}",
            r.model,
            r.params,
            r.inference_ops,
            r.training_ops,
            r.arithmetic,
            r.storage_bytes_fp32_or_int16,
            r.paper_params,
            r.paper_inference_ops,
            r.paper_training_ops
        );
    }
    println!();
    let heb_row = rows.iter().find(|r| r.model == "Hebbian").expect("row");
    println!(
        "ratios: params {:.1}x, inference ops {:.1}x, training ops {:.1}x (LSTM / Hebbian)",
        rows[0].params as f64 / heb_row.params as f64,
        rows[0].inference_ops as f64 / heb_row.inference_ops as f64,
        rows[0].training_ops as f64 / heb_row.training_ops as f64,
    );
    println!(
        "hebbian formula cross-check: {} params, {} inf ops, {} train ops",
        heb_formula.params, heb_formula.inference_ops, heb_formula.training_ops
    );
}
