//! Catastrophic interference, live: train an LSTM on one access
//! pattern, switch to another, and watch confidence on the first
//! collapse — then fix it with interleaved replay at a 0.1x learning
//! rate, exactly as in §3.2 of the paper.
//!
//! ```sh
//! cargo run --release --example interference_and_replay
//! ```

use hnp::memsim::DeltaVocab;
use hnp::nn::{LstmConfig, LstmNetwork};
use hnp::traces::Pattern;

/// Tokenizes a pattern's page-delta stream.
fn tokens(p: Pattern, vocab: &DeltaVocab, seed: u64) -> Vec<usize> {
    let pages: Vec<u64> = p.generate(1000, seed).pages().collect();
    pages
        .windows(2)
        .map(|w| vocab.token_of(w[1] as i64 - w[0] as i64))
        .collect()
}

/// Mean confidence over (4-token window -> next) examples.
fn confidence(net: &LstmNetwork, toks: &[usize]) -> f32 {
    let mut total = 0.0;
    let mut n = 0;
    for s in (0..toks.len() - 5).step_by(7) {
        total += net.eval_window(&toks[s..s + 4], toks[s + 4]).confidence;
        n += 1;
    }
    total / n as f32
}

fn run(replay: bool) {
    let vocab = DeltaVocab::new(64);
    let a = tokens(Pattern::Stride, &vocab, 1);
    let b = tokens(Pattern::PointerChase, &vocab, 2);
    let lr = 0.2;
    let mut net = LstmNetwork::new(LstmConfig {
        vocab: vocab.len(),
        embed_dim: 32,
        hidden: 64,
        ..LstmConfig::default()
    });
    // Phase 1: learn pattern A (stride).
    for _ in 0..10 {
        for s in 0..a.len() - 4 {
            net.train_window(&a[s..s + 4], a[s + 4], lr);
        }
    }
    println!(
        "  after phase 1: confidence on A = {:.2}",
        confidence(&net, &a)
    );
    // Phase 2: learn pattern B (pointer chase), optionally replaying A.
    let mut step = 0;
    for _ in 0..4 {
        for s in 0..b.len() - 4 {
            net.train_window(&b[s..s + 4], b[s + 4], lr);
            if replay {
                // The paper's replay: retrain on the first pattern at a
                // 0.1x learning rate after each step on the second.
                let r = (step * 13) % (a.len() - 4);
                net.train_window(&a[r..r + 4], a[r + 4], lr * 0.1);
            }
            step += 1;
        }
    }
    println!(
        "  after phase 2: confidence on A = {:.2}, on B = {:.2}",
        confidence(&net, &a),
        confidence(&net, &b)
    );
}

fn main() {
    println!("WITHOUT replay (Fig. 3a-c): learning B overwrites A");
    run(false);
    println!();
    println!("WITH interleaved replay at 0.1x lr (Fig. 3d-f): both survive");
    run(true);
}
