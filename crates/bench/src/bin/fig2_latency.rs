//! Fig. 2: inference and training latency of the LSTM prefetcher
//! (paper deployment scale) vs. the Hebbian network.
//!
//! Reproduces all four axes of the paper's figure:
//!
//! * inference time vs. number of future predictions (1, 2, 4, 8);
//! * training time per example vs. batch size (1, 8, 32, 128);
//! * one vs. two threads;
//! * FP32 vs. INT8-quantized inference.
//!
//! Absolute numbers depend on the host CPU; the paper's claims are the
//! *ratios*: LSTM inference is orders of magnitude over the 1-10 us
//! target, quantization helps but not enough, multi-threading barely
//! helps, and the Hebbian network is proportionally (~10x) cheaper.
//!
//! Usage: `cargo run --release -p hnp-bench --bin fig2_latency [iters]`

use hnp_bench::{output, timing};
use hnp_hebbian::{HebbianConfig, HebbianNetwork};
use hnp_nn::quant::QuantizedLstm;
use hnp_nn::transformer::{TransformerConfig, TransformerNetwork};
use hnp_nn::{LstmConfig, LstmNetwork};

fn main() {
    let iters = output::arg_or(1, "iters", 200);
    // Single-prediction inference times for the summary ratio.
    let mut lstm1 = 0.0;
    let mut heb1 = 0.0;

    output::header("Fig. 2a: inference time vs number of future predictions");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}   (us per inference)",
        "model", "1", "2", "4", "8"
    );
    let variants: Vec<(String, usize)> =
        vec![("lstm-fp32-1t".into(), 1), ("lstm-fp32-2t".into(), 2)];
    for (label, threads) in variants {
        let mut net = LstmNetwork::new(LstmConfig {
            threads,
            ..LstmConfig::paper_table2()
        });
        net.train_step(1, 2, 0.05);
        let mut row = format!("{label:<22}");
        for steps in [1usize, 2, 4, 8] {
            let ns = timing::time_ns(5, iters, || {
                std::hint::black_box(net.rollout_top_k_with_confidence(1, steps, 1));
            });
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
            if threads == 1 && steps == 1 {
                lstm1 = ns;
            }
        }
        println!("{row}");
    }
    {
        let mut fp = LstmNetwork::new(LstmConfig::paper_table2());
        fp.train_step(1, 2, 0.05);
        let q = QuantizedLstm::from_network(&fp);
        let mut row = format!("{:<22}", "lstm-int8-1t");
        for steps in [1usize, 2, 4, 8] {
            let ns = timing::time_ns(5, iters, || {
                std::hint::black_box(q.rollout(1, steps));
            });
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
        }
        println!("{row}");
    }
    {
        let mut net = TransformerNetwork::new(TransformerConfig::default());
        net.train_window(&[1, 2, 3], 4, 0.05);
        let ctx = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let mut row = format!("{:<22}", "transformer-fp32-1t");
        for steps in [1usize, 2, 4, 8] {
            let ns = timing::time_ns(5, iters, || {
                std::hint::black_box(net.rollout_top_k_with_confidence(&ctx, steps, 1));
            });
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
        }
        println!("{row}");
    }
    {
        let mut net = HebbianNetwork::new(HebbianConfig::paper_table2());
        for i in 0..64u32 {
            net.train_step(&[i % 64], ((i + 1) % 64) as usize);
        }
        let mut row = format!("{:<22}", "hebbian-int-1t");
        for steps in [1usize, 2, 4, 8] {
            let ns = timing::time_ns(5, iters, || {
                std::hint::black_box(net.rollout(&[1], steps, |t| vec![(t % 128) as u32]));
            });
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
            if steps == 1 {
                heb1 = ns;
            }
        }
        println!("{row}");
    }

    output::header("Fig. 2b: training time per example vs batch size");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}   (us per example)",
        "model", "1", "8", "32", "128"
    );
    for threads in [1usize, 2] {
        let label = format!("lstm-fp32-{threads}t");
        let mut net = LstmNetwork::new(LstmConfig {
            threads,
            ..LstmConfig::paper_table2()
        });
        let mut row = format!("{label:<22}");
        for batch in [1usize, 8, 32, 128] {
            let examples: Vec<(Vec<usize>, usize)> = (0..batch)
                .map(|i| (vec![i % 50, (i + 1) % 50], (i + 2) % 50))
                .collect();
            // Fewer outer iterations for bigger batches.
            let outer = (iters / batch).max(3);
            let ns = timing::time_ns(1, outer, || {
                std::hint::black_box(net.train_batch(&examples, 0.05));
            }) / batch as f64;
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
        }
        println!("{row}");
    }
    {
        // Fused batched matmuls: per-example cost falls with batch
        // size, the trend the paper's Fig. 2b shows.
        let mut net = LstmNetwork::new(LstmConfig::paper_table2());
        let mut row = format!("{:<22}", "lstm-fp32-fused");
        for batch in [1usize, 8, 32, 128] {
            let examples: Vec<(Vec<usize>, usize)> = (0..batch)
                .map(|i| (vec![i % 50, (i + 1) % 50], (i + 2) % 50))
                .collect();
            let outer = (iters / batch).max(3);
            let ns = timing::time_ns(1, outer, || {
                std::hint::black_box(net.train_batch_fused(&examples, 0.05));
            }) / batch as f64;
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
        }
        println!("{row}");
    }
    {
        let mut net = TransformerNetwork::new(TransformerConfig::default());
        let mut row = format!("{:<22}", "transformer-fp32-1t");
        for batch in [1usize, 8, 32, 128] {
            let outer = (iters / batch).max(3);
            let mut k = 0usize;
            let ns = timing::time_ns(1, outer, || {
                for _ in 0..batch {
                    k = (k + 1) % 40;
                    std::hint::black_box(net.train_window(&[k, k + 1, k + 2], k + 3, 0.05));
                }
            }) / batch as f64;
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
        }
        println!("{row}");
    }
    {
        let mut net = HebbianNetwork::new(HebbianConfig::paper_table2());
        let mut row = format!("{:<22}", "hebbian-int-1t");
        for batch in [1usize, 8, 32, 128] {
            // Hebbian training is inherently per-example; batching just
            // amortizes nothing, which is itself informative.
            let outer = (iters / batch).max(3);
            let mut k = 0u32;
            let ns = timing::time_ns(1, outer, || {
                for _ in 0..batch {
                    k = (k + 1) % 64;
                    std::hint::black_box(net.train_step(&[k], ((k + 1) % 64) as usize));
                }
            }) / batch as f64;
            row.push_str(&format!(" {:>6.1}", ns / 1000.0));
        }
        println!("{row}");
    }

    println!();
    println!(
        "single-prediction inference: LSTM {:.1} us vs Hebbian {:.1} us ({:.1}x)",
        lstm1 / 1000.0,
        heb1 / 1000.0,
        lstm1 / heb1
    );
}
