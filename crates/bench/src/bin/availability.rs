//! §5.5 study: availability under concurrent training and inference.
//!
//! Two questions from the paper:
//!
//! 1. Does the shadow-model protocol (train a copy, redeploy when the
//!    live model's accuracy drops) track a changing workload?
//! 2. Is the counter-hypothesis right that Hebbian networks are noise-
//!    robust enough to train in place — i.e., do small concurrent
//!    weight perturbations leave inference output mostly unchanged?
//!
//! Usage: `cargo run --release -p hnp-bench --bin availability [steps]`

use hnp_bench::output;
use hnp_core::availability::ShadowDeployment;
use hnp_hebbian::{HebbianConfig, HebbianNetwork, LrScale};
use hnp_memsim::DeltaVocab;
use hnp_trace::Pattern;

fn tokens(pattern: Pattern, n: usize, seed: u64) -> Vec<usize> {
    let vocab = DeltaVocab::new(64);
    hnp_bench::fig3::pattern_tokens(pattern, n, seed, &vocab)
}

fn main() {
    let steps = output::arg_or(1, "steps", 20_000);
    let phase_a = tokens(Pattern::Stride, 1000, 1);
    let phase_b = tokens(Pattern::PointerChase, 1000, 2);

    // --- Shadow protocol on a workload that changes phase midway. ---
    output::header("§5.5: shadow-model protocol on a phase-changing workload");
    let cfg = HebbianConfig::paper_table2();
    let mut shadow = ShadowDeployment::new(HebbianNetwork::new(cfg.clone()));
    let mut in_place = HebbianNetwork::new(cfg.clone());
    let mut in_place_correct = 0u64;
    let mut in_place_total = 0u64;
    let half = steps / 2;
    for i in 0..steps {
        let toks = if i < half { &phase_a } else { &phase_b };
        let w = i % (toks.len() - 1);
        let (x, y) = (toks[w], toks[w + 1]);
        shadow.step(&[x as u32], y);
        let o = in_place.train_step(&[x as u32], y);
        // Score the in-place model over the same tail window the
        // shadow tracker uses.
        if i + 128 >= steps || (i + 128 >= half && i < half) {
            in_place_total += 1;
            if o.correct {
                in_place_correct += 1;
            }
        }
    }
    let in_place_acc = if in_place_total == 0 {
        0.0
    } else {
        in_place_correct as f32 / in_place_total as f32
    };
    println!(
        "shadow: {} redeployments, final live accuracy {:.2}",
        shadow.redeployments,
        shadow.live_accuracy()
    );
    println!("train-in-place: final accuracy {:.2}", in_place_acc);

    // --- Noise robustness: perturb weights, measure output agreement. ---
    output::header("§5.5: output agreement under weight perturbation (noise robustness)");
    println!("{:>12} {:>12}", "perturb +/-", "agreement");
    for mag in [0i16, 1, 2, 4, 8] {
        let mut reference = HebbianNetwork::new(cfg.clone());
        for _ in 0..4 {
            for w in 0..phase_a.len() - 1 {
                reference.train_step(&[phase_a[w] as u32], phase_a[w + 1]);
            }
        }
        // "Perturbation" via a differently-seeded twin trained the same
        // way plus magnitude-scaled extra noise steps: a deterministic
        // stand-in for concurrent-writer jitter.
        let mut noisy = reference.clone();
        for k in 0..(mag as usize * 20) {
            let x = phase_b[k % (phase_b.len() - 1)];
            let y = phase_b[(k + 1) % phase_b.len()];
            noisy.train_step_opts(&[x as u32], y, LrScale::ONE, false);
        }
        let mut agree = 0usize;
        let mut total = 0usize;
        reference.reset_state();
        noisy.reset_state();
        for w in 0..phase_a.len() - 1 {
            let a = reference.infer_advance(&[phase_a[w] as u32], phase_a[w + 1]);
            let b = noisy.infer_advance(&[phase_a[w] as u32], phase_a[w + 1]);
            total += 1;
            if a.predicted == b.predicted {
                agree += 1;
            }
        }
        let frac = agree as f64 / total as f64;
        println!("{:>12} {:>11.1}%", mag, 100.0 * frac);
    }
    println!();
    println!("high agreement at small perturbations supports concurrent train/infer;");
    println!("the shadow protocol remains the safe default for large drifts.");
}
