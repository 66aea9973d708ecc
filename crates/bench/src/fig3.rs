//! The Fig.-3 experiment: catastrophic interference and the effect of
//! replay during online prefetch learning.
//!
//! Protocol (§2.2, §3.2 of the paper): train a model on one Table-1
//! pattern until it is confident, then present a second pattern to
//! learn online while monitoring the model's confidence (probability
//! assigned to the correct prediction) on both patterns. Without
//! replay the confidence on the first pattern collapses; with replay —
//! retraining on the first pattern at a 0.1x learning rate after each
//! step on the second — both stay learned.
//!
//! The experiment runs on the paper's LSTM and, as an extension, on
//! the Hebbian network with hippocampal episode replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hnp_hebbian::{HebbianConfig, HebbianNetwork, LrScale};
use hnp_memsim::DeltaVocab;
use hnp_nn::loss::SoftmaxLoss;
use hnp_nn::transformer::{TransformerConfig, TransformerNetwork};
use hnp_nn::{LstmConfig, LstmNetwork};
use hnp_trace::Pattern;

/// Any model trainable on (token window -> next token) examples; the
/// interference protocol is model-agnostic across the DL baselines.
trait WindowModel {
    /// One gradient step at learning rate `lr`.
    fn train(&mut self, tokens: &[usize], target: usize, lr: f32) -> SoftmaxLoss;
    /// Confidence probe without learning.
    fn eval(&self, tokens: &[usize], target: usize) -> SoftmaxLoss;
}

impl WindowModel for LstmNetwork {
    fn train(&mut self, tokens: &[usize], target: usize, lr: f32) -> SoftmaxLoss {
        self.train_window(tokens, target, lr)
    }
    fn eval(&self, tokens: &[usize], target: usize) -> SoftmaxLoss {
        self.eval_window(tokens, target)
    }
}

impl WindowModel for TransformerNetwork {
    fn train(&mut self, tokens: &[usize], target: usize, lr: f32) -> SoftmaxLoss {
        self.train_window(tokens, target, lr)
    }
    fn eval(&self, tokens: &[usize], target: usize) -> SoftmaxLoss {
        self.eval_window(tokens, target)
    }
}

/// BPTT window (and transformer context) of the windowed models'
/// training examples.
const WINDOW: usize = 4;
/// Phase 1 stops once mean confidence on the pattern reaches this.
const TARGET_CONFIDENCE: f32 = 0.9;
/// Replay learning-rate scale (the paper's 0.1x).
const REPLAY_LR_SCALE: f32 = 0.1;
/// Base learning rate of the windowed models.
const LEARNING_RATE: f32 = 0.2;
/// Delta-vocabulary half-range.
const DELTA_RANGE: i64 = 64;
/// Seed of the pattern traces, the sampling RNGs and the weights.
const SEED: u64 = 0xf13;

/// Experiment scale.
#[derive(Debug, Clone)]
pub struct Fig3Options {
    /// Accesses generated per pattern (the paper uses 1000).
    pub pattern_len: usize,
    /// Maximum epochs of phase-1 training.
    pub max_epochs_a: usize,
    /// Online steps on the second pattern.
    pub steps_b: usize,
    /// Confidence is sampled every this many steps.
    pub sample_every: usize,
    /// Elements per pattern (cycle length of the Table-1 generators).
    pub elements: usize,
}

impl Default for Fig3Options {
    fn default() -> Self {
        Self {
            pattern_len: 1000,
            max_epochs_a: 60,
            steps_b: 4000,
            sample_every: 125,
            elements: 64,
        }
    }
}

/// One sampled point of the confidence curves.
#[derive(Debug, Clone)]
// hnp-lint: allow(unused_pub) caller: bin/fig3_interference.rs reads `Fig3Series::points`
pub struct ConfidencePoint {
    /// Mean confidence on the *old* pattern (red curve in Fig. 3).
    pub conf_old: f32,
    /// Mean confidence on the *new* pattern (blue curve).
    pub conf_new: f32,
}

/// A full confidence series for one (pattern pair, model, replay)
/// condition.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// Model label ("lstm" / "hebbian").
    pub model: String,
    /// Old-pattern name.
    pub pattern_old: String,
    /// New-pattern name.
    pub pattern_new: String,
    /// Whether replay was active.
    pub replay: bool,
    /// Sampled points.
    pub points: Vec<ConfidencePoint>,
    /// Confidence on the old pattern after phase 1 (sanity: ~1.0).
    pub conf_old_after_phase1: f32,
}

impl ConfidencePoint {
    /// A sampled point, its confidences truncated to thousandths (the
    /// resolution the curves are reported at).
    fn sampled(conf_old: f32, conf_new: f32) -> Self {
        let milli = |c: f32| (c * 1000.0) as u64 as f32 / 1000.0;
        Self {
            conf_old: milli(conf_old),
            conf_new: milli(conf_new),
        }
    }
}

impl Fig3Series {
    /// Final confidence on the old pattern.
    pub fn final_conf_old(&self) -> f32 {
        self.points.last().map(|p| p.conf_old).unwrap_or(0.0)
    }

    /// Final confidence on the new pattern.
    pub fn final_conf_new(&self) -> f32 {
        self.points.last().map(|p| p.conf_new).unwrap_or(0.0)
    }
}

/// Converts a pattern trace into delta tokens under `vocab`.
pub fn pattern_tokens(pattern: Pattern, len: usize, seed: u64, vocab: &DeltaVocab) -> Vec<usize> {
    pattern_tokens_with(pattern, len, seed, vocab, 64)
}

/// [`pattern_tokens`] with an explicit cycle length.
fn pattern_tokens_with(
    pattern: Pattern,
    len: usize,
    seed: u64,
    vocab: &DeltaVocab,
    elements: usize,
) -> Vec<usize> {
    let params = hnp_trace::patterns::PatternParams {
        elements,
        ..hnp_trace::patterns::PatternParams::default()
    };
    let trace = pattern.generate_with(len, seed, &params);
    let pages: Vec<u64> = trace.pages().collect();
    pages
        .windows(2)
        .map(|w| vocab.token_of(w[1] as i64 - w[0] as i64))
        .collect()
}

/// Mean model confidence over up to `samples` (window -> next)
/// examples of `tokens`, evaluated without learning.
fn mean_confidence(
    net: &impl WindowModel,
    tokens: &[usize],
    window: usize,
    samples: usize,
    rng: &mut StdRng,
) -> f32 {
    let max_start = tokens.len().saturating_sub(window + 1);
    if max_start == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    let n = samples.min(max_start);
    for _ in 0..n {
        let s = rng.gen_range(0..max_start);
        let loss = net.eval(&tokens[s..s + window], tokens[s + window]);
        total += loss.confidence;
    }
    total / n as f32
}

/// The generic windowed-model condition (shared by the LSTM and
/// transformer runners).
fn run_window_model(
    net: &mut impl WindowModel,
    model_name: &str,
    old: Pattern,
    new: Pattern,
    replay: bool,
    opts: &Fig3Options,
) -> Fig3Series {
    let vocab = DeltaVocab::new(DELTA_RANGE);
    let tokens_a = pattern_tokens_with(old, opts.pattern_len, SEED, &vocab, opts.elements);
    let tokens_b = pattern_tokens_with(new, opts.pattern_len, SEED ^ 0xb, &vocab, opts.elements);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x57a7);
    let w = WINDOW;
    // Phase 1: learn the old pattern to confidence.
    let mut conf_a = 0.0;
    for _ in 0..opts.max_epochs_a {
        for s in 0..tokens_a.len() - w {
            net.train(&tokens_a[s..s + w], tokens_a[s + w], LEARNING_RATE);
        }
        conf_a = mean_confidence(net, &tokens_a, w, 64, &mut rng);
        if conf_a >= TARGET_CONFIDENCE {
            break;
        }
    }
    // Phase 2: learn the new pattern, optionally replaying the old.
    let mut points = Vec::new();
    let b_examples = tokens_b.len() - w;
    let a_examples = tokens_a.len() - w;
    for step in 0..opts.steps_b {
        let s = step % b_examples;
        net.train(&tokens_b[s..s + w], tokens_b[s + w], LEARNING_RATE);
        if replay {
            let r = rng.gen_range(0..a_examples);
            net.train(
                &tokens_a[r..r + w],
                tokens_a[r + w],
                LEARNING_RATE * REPLAY_LR_SCALE,
            );
        }
        if step % opts.sample_every == 0 || step + 1 == opts.steps_b {
            let conf_old = mean_confidence(net, &tokens_a, w, 32, &mut rng);
            let conf_new = mean_confidence(net, &tokens_b, w, 32, &mut rng);
            points.push(ConfidencePoint::sampled(conf_old, conf_new));
        }
    }
    Fig3Series {
        model: model_name.to_string(),
        pattern_old: old.name().to_string(),
        pattern_new: new.name().to_string(),
        replay,
        points,
        conf_old_after_phase1: conf_a,
    }
}

/// Runs the LSTM condition for one pattern pair.
pub fn run_lstm(old: Pattern, new: Pattern, replay: bool, opts: &Fig3Options) -> Fig3Series {
    let vocab = DeltaVocab::new(DELTA_RANGE);
    let mut net = LstmNetwork::new(LstmConfig {
        vocab: vocab.len(),
        embed_dim: 32,
        hidden: 64,
        threads: 1,
        seed: SEED,
    });
    run_window_model(&mut net, "lstm", old, new, replay, opts)
}

/// Runs the transformer condition for one pattern pair (the other
/// prior-DL family; same protocol).
pub fn run_transformer(old: Pattern, new: Pattern, replay: bool, opts: &Fig3Options) -> Fig3Series {
    let vocab = DeltaVocab::new(DELTA_RANGE);
    let mut net = TransformerNetwork::new(TransformerConfig {
        vocab: vocab.len(),
        dim: 32,
        heads: 2,
        ff: 64,
        window: WINDOW,
        seed: SEED,
    });
    run_window_model(&mut net, "transformer", old, new, replay, opts)
}

/// Mean Hebbian confidence over one pass of `tokens`, preserving the
/// live recurrent state.
fn hebbian_mean_confidence(net: &mut HebbianNetwork, tokens: &[usize]) -> f32 {
    let saved = net.recurrent_state().to_vec();
    net.reset_state();
    let mut total = 0.0;
    let mut n = 0;
    for w in tokens.windows(2) {
        let out = net.infer_advance(&[w[0] as u32], w[1]);
        // Skip the first few warm-up steps.
        if n >= 2 || tokens.len() <= 3 {
            total += out.confidence;
        }
        n += 1;
    }
    net.set_recurrent_state(&saved);
    if n <= 2 {
        0.0
    } else {
        total / (n - 2) as f32
    }
}

/// Runs the Hebbian condition for one pattern pair. Replay reinstates
/// each stored episode's recurrent context (see
/// `hnp_core::hippocampus`).
pub fn run_hebbian(old: Pattern, new: Pattern, replay: bool, opts: &Fig3Options) -> Fig3Series {
    let vocab = DeltaVocab::new(DELTA_RANGE);
    let tokens_a = pattern_tokens_with(old, opts.pattern_len, SEED, &vocab, opts.elements);
    let tokens_b = pattern_tokens_with(new, opts.pattern_len, SEED ^ 0xb, &vocab, opts.elements);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5eb);
    let mut net = HebbianNetwork::new(HebbianConfig {
        pattern_bits: vocab.len(),
        outputs: vocab.len(),
        recurrent_bits: 128,
        hidden: 1000,
        connectivity: 0.125,
        hidden_active: 100,
        recurrent_sample: 16,
        seed: SEED,
        ..HebbianConfig::paper_table2()
    });
    // Phase 1 with episode recording: (pattern token, recurrent, target).
    let mut episodes: Vec<(usize, Vec<u32>, usize)> = Vec::new();
    let mut conf_a = 0.0;
    for epoch in 0..opts.max_epochs_a {
        for w in tokens_a.windows(2) {
            let rec = net.recurrent_state().to_vec();
            net.train_step(&[w[0] as u32], w[1]);
            if epoch == 0 {
                episodes.push((w[0], rec, w[1]));
            }
        }
        conf_a = hebbian_mean_confidence(&mut net, &tokens_a);
        if conf_a >= TARGET_CONFIDENCE {
            break;
        }
    }
    // Phase 2, sampled like the windowed models.
    let mut points = Vec::new();
    let b_pairs: Vec<(usize, usize)> = tokens_b.windows(2).map(|w| (w[0], w[1])).collect();
    for step in 0..opts.steps_b {
        let (x, y) = b_pairs[step % b_pairs.len()];
        net.train_step(&[x as u32], y);
        if replay && !episodes.is_empty() {
            let (ex, erec, ey) = episodes[rng.gen_range(0..episodes.len())].clone();
            let saved = net.recurrent_state().to_vec();
            net.set_recurrent_state(&erec);
            net.train_step_opts(&[ex as u32], ey, LrScale::from_f32(REPLAY_LR_SCALE), false);
            net.set_recurrent_state(&saved);
        }
        if step % opts.sample_every == 0 || step + 1 == opts.steps_b {
            let conf_old = hebbian_mean_confidence(&mut net, &tokens_a);
            let conf_new = hebbian_mean_confidence(&mut net, &tokens_b);
            points.push(ConfidencePoint::sampled(conf_old, conf_new));
        }
    }
    Fig3Series {
        model: "hebbian".to_string(),
        pattern_old: old.name().to_string(),
        pattern_new: new.name().to_string(),
        replay,
        points,
        conf_old_after_phase1: conf_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Fig3Options {
        Fig3Options {
            pattern_len: 260,
            max_epochs_a: 40,
            steps_b: 800,
            sample_every: 200,
            elements: 16,
        }
    }

    #[test]
    fn lstm_shows_interference_and_replay_rescues_it() {
        let opts = quick_opts();
        let no = run_lstm(Pattern::Stride, Pattern::PointerChase, false, &opts);
        let yes = run_lstm(Pattern::Stride, Pattern::PointerChase, true, &opts);
        assert!(
            no.conf_old_after_phase1 > 0.8,
            "phase 1 must learn A: {}",
            no.conf_old_after_phase1
        );
        assert!(
            no.final_conf_old() < 0.5,
            "interference must collapse old confidence: {}",
            no.final_conf_old()
        );
        assert!(
            yes.final_conf_old() > 0.6,
            "replay must preserve the old pattern: {}",
            yes.final_conf_old()
        );
        assert!(
            yes.final_conf_new() > 0.5,
            "replay must not block new learning: {}",
            yes.final_conf_new()
        );
    }

    /// The Hebbian network's sparse, largely disjoint representations
    /// already blunt interference (a CLS-theory point in its own
    /// right): old-pattern confidence sags rather than collapsing, and
    /// 0.1x replay is near-neutral at this granularity. The assertions
    /// pin that observed behaviour; the LSTM test above carries the
    /// paper's catastrophic-collapse + rescue claim.
    #[test]
    fn hebbian_interference_is_mild_and_replay_is_safe() {
        let opts = quick_opts();
        let no = run_hebbian(Pattern::Stride, Pattern::PointerChase, false, &opts);
        let yes = run_hebbian(Pattern::Stride, Pattern::PointerChase, true, &opts);
        assert!(
            no.conf_old_after_phase1 > 0.75,
            "phase 1 must learn A: {}",
            no.conf_old_after_phase1
        );
        assert!(
            no.final_conf_old() > 0.4,
            "sparse codes resist collapse: {}",
            no.final_conf_old()
        );
        // The exact gap between the replay/no-replay runs wobbles with
        // the RNG stream at quick_opts granularity; what must hold is
        // that replay never collapses the old pattern the way naive
        // sequential training collapses the LSTM above.
        assert!(
            yes.final_conf_old() > no.final_conf_old() - 0.25 && yes.final_conf_old() > 0.5,
            "replay must not harm the old pattern: {} vs {}",
            yes.final_conf_old(),
            no.final_conf_old()
        );
        assert!(yes.final_conf_new() > 0.5, "new pattern must be learned");
    }

    #[test]
    fn pattern_tokens_are_in_vocab() {
        let vocab = DeltaVocab::new(64);
        for p in Pattern::ALL {
            let toks = pattern_tokens(p, 200, 1, &vocab);
            assert_eq!(toks.len(), 199);
            assert!(toks.iter().all(|&t| t < vocab.len()), "{}", p.name());
        }
    }
}
