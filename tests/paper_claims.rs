//! The paper's headline claims, asserted as integration tests.
//!
//! Each test names the section of the paper it pins down. These are
//! scaled-down versions of the `hnp-bench` harnesses so they run in CI
//! time; EXPERIMENTS.md records the full-scale numbers.

use hnp::hebbian::{HebbianConfig, HebbianNetwork};
use hnp::memsim::DeltaVocab;
use hnp::nn::quant::QuantizedLstm;
use hnp::nn::{LstmConfig, LstmNetwork, OpCounts};
use hnp::traces::Pattern;

/// §3.1 / Table 2: the Hebbian network is ~3x smaller than the LSTM
/// with roughly an order of magnitude fewer operations.
#[test]
fn table2_resource_claims() {
    let lstm = LstmNetwork::new(LstmConfig::paper_table2());
    let heb = HebbianNetwork::new(HebbianConfig::paper_table2());
    assert!(
        lstm.param_count() as f64 / heb.param_count() as f64 >= 3.0,
        "3x parameter claim: {} vs {}",
        lstm.param_count(),
        heb.param_count()
    );
    let lstm_ops = OpCounts::lstm(500, 50, 128);
    let mut probe = HebbianNetwork::new(HebbianConfig::paper_table2());
    let heb_inf = probe.infer_advance(&[1], 2);
    assert!(
        lstm_ops.inference_ops as f64 / heb_inf.ops as f64 >= 10.0,
        "order-of-magnitude ops claim: {} vs {}",
        lstm_ops.inference_ops,
        heb_inf.ops
    );
}

/// §2.1: INT8 quantization compresses the LSTM ~4x but inference work
/// remains far above the Hebbian network's.
#[test]
fn quantization_helps_but_is_not_enough() {
    let net = LstmNetwork::new(LstmConfig::paper_table2());
    let q = QuantizedLstm::from_network(&net);
    let fp32_bytes = net.param_count() * 4;
    assert!(q.storage_bytes() * 3 < fp32_bytes, "compression");
    // Op counts don't change under quantization — only the per-op
    // cost. The Hebbian advantage is structural (sparsity), not a
    // datatype trick.
    let heb = HebbianNetwork::new(HebbianConfig::paper_table2());
    assert!(heb.param_count() * 2 < q.storage_bytes());
}

/// §2.2: online learning of a second pattern makes the LSTM forget
/// the first (catastrophic interference), at unit scale.
#[test]
fn lstm_catastrophic_interference() {
    let vocab = DeltaVocab::new(64);
    let toks = |p: Pattern, seed| -> Vec<usize> {
        let pages: Vec<u64> = p.generate(400, seed).pages().collect();
        pages
            .windows(2)
            .map(|w| vocab.token_of(w[1] as i64 - w[0] as i64))
            .collect()
    };
    let a = toks(Pattern::Stride, 1);
    let b = toks(Pattern::PointerChase, 2);
    let mut net = LstmNetwork::new(LstmConfig {
        vocab: vocab.len(),
        embed_dim: 32,
        hidden: 64,
        ..LstmConfig::default()
    });
    let conf = |net: &LstmNetwork, t: &[usize]| -> f32 {
        let mut s = 0.0;
        let mut n = 0;
        for i in (0..t.len() - 5).step_by(9) {
            s += net.eval_window(&t[i..i + 4], t[i + 4]).confidence;
            n += 1;
        }
        s / n as f32
    };
    for _ in 0..12 {
        for i in 0..a.len() - 4 {
            net.train_window(&a[i..i + 4], a[i + 4], 0.2);
        }
    }
    let before = conf(&net, &a);
    assert!(before > 0.85, "phase 1 learned: {before}");
    for _ in 0..6 {
        for i in 0..b.len() - 4 {
            net.train_window(&b[i..i + 4], b[i + 4], 0.2);
        }
    }
    let after = conf(&net, &a);
    assert!(
        after < before - 0.5,
        "interference must collapse confidence: {before} -> {after}"
    );
}

/// §3.2: interleaved replay at a 0.1x learning rate prevents the
/// collapse.
#[test]
fn replay_prevents_interference() {
    let vocab = DeltaVocab::new(64);
    let toks = |p: Pattern, seed| -> Vec<usize> {
        let pages: Vec<u64> = p.generate(400, seed).pages().collect();
        pages
            .windows(2)
            .map(|w| vocab.token_of(w[1] as i64 - w[0] as i64))
            .collect()
    };
    let a = toks(Pattern::Stride, 1);
    let b = toks(Pattern::PointerChase, 2);
    let mut net = LstmNetwork::new(LstmConfig {
        vocab: vocab.len(),
        embed_dim: 32,
        hidden: 64,
        ..LstmConfig::default()
    });
    for _ in 0..12 {
        for i in 0..a.len() - 4 {
            net.train_window(&a[i..i + 4], a[i + 4], 0.2);
        }
    }
    let mut k = 0usize;
    for _ in 0..6 {
        for i in 0..b.len() - 4 {
            net.train_window(&b[i..i + 4], b[i + 4], 0.2);
            let r = (k * 13) % (a.len() - 4);
            net.train_window(&a[r..r + 4], a[r + 4], 0.2 * 0.1);
            k += 1;
        }
    }
    let conf = |t: &[usize]| -> f32 {
        let mut s = 0.0;
        let mut n = 0;
        for i in (0..t.len() - 5).step_by(9) {
            s += net.eval_window(&t[i..i + 4], t[i + 4]).confidence;
            n += 1;
        }
        s / n as f32
    };
    assert!(conf(&a) > 0.7, "old pattern preserved: {}", conf(&a));
    assert!(conf(&b) > 0.6, "new pattern learned: {}", conf(&b));
}

/// §3.1: the Hebbian network's training path uses integer updates and
/// reports integer op counts strictly greater for training than
/// inference, both bounded far below the LSTM.
#[test]
fn hebbian_online_costs_are_bounded() {
    let mut net = HebbianNetwork::new(HebbianConfig::paper_table2());
    let mut max_train = 0usize;
    for i in 0..200usize {
        let o = net.train_step(&[(i % 100) as u32], (i * 7 + 1) % 136);
        max_train = max_train.max(o.ops);
    }
    // Even worst-case online steps stay under the LSTM's inference
    // floor (Table 2: >170k FP ops).
    assert!(
        max_train < 50_000,
        "hebbian worst-case training ops {max_train}"
    );
}
