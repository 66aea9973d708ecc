//! Differential proptests: the optimized kernels against the
//! pre-optimization reference implementations.
//!
//! The CSR forward walk, the scratch-buffer [`k_winners_into`], and
//! the word-at-a-time Eq.-1 update must be *bit-identical* to the
//! naive kernels they replaced ([`sparse::reference`],
//! [`kwta::k_winners_ref`]) — winners, scores, ops counts, and the
//! full weight array. This module is the refactor's behavior-
//! preservation proof; it lives in the crate (not `tests/`) so the
//! `#[cfg(test)]` reference kernels stay private.
//!
//! The whole module is `#[cfg(test)]` (declared so in `lib.rs`), which
//! the file-local lint cannot see:
// hnp-lint: allow-file(integer_purity)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bitset::BitSet;
use crate::kwta::{k_winners, k_winners_into, k_winners_ref};
use crate::sparse::{reference, SparseLayer};

const INPUTS: usize = 70; // Deliberately not a multiple of 64.
const OUTPUTS: usize = 12;
const CLAMP: i16 = 24;

fn layer_pair(seed: u64, connectivity: f64) -> (SparseLayer, SparseLayer) {
    let mut a_rng = StdRng::seed_from_u64(seed);
    let mut b_rng = StdRng::seed_from_u64(seed);
    (
        SparseLayer::new(INPUTS, OUTPUTS, connectivity, CLAMP, 2, &mut a_rng),
        SparseLayer::new(INPUTS, OUTPUTS, connectivity, CLAMP, 2, &mut b_rng),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized and reference kernels agree on every observable after
    /// an arbitrary interleaving of Hebbian/anti updates and probes.
    #[test]
    fn kernels_match_reference_bit_for_bit(
        seed in 0u64..64,
        conn_idx in 0usize..3,
        ops in proptest::collection::vec(
            (
                0u32..OUTPUTS as u32,
                proptest::collection::vec(0u32..INPUTS as u32, 0..12),
                1i16..5,
                1i16..3,
                any::<bool>(),
            ),
            1..50,
        ),
        probe in proptest::collection::vec(0u32..INPUTS as u32, 0..16),
    ) {
        let conn = [0.25f64, 0.5, 1.0][conn_idx];
        let (mut fast, mut naive) = layer_pair(seed, conn);
        prop_assert_eq!(fast.weights(), naive.weights(), "construction");

        for (out, active, pot, dep, anti) in &ops {
            let set = BitSet::from_indices(INPUTS, active);
            if *anti {
                fast.anti_update(*out, &set, *pot);
                reference::anti_update_ref(&mut naive, *out, &set, *pot);
            } else {
                fast.hebbian_update(*out, &set, *pot, *dep);
                reference::hebbian_update_ref(&mut naive, *out, &set, *pot, *dep);
            }
            prop_assert_eq!(fast.weights(), naive.weights(), "weights diverged");
        }

        let mut probe_sorted = probe.clone();
        probe_sorted.sort_unstable();
        probe_sorted.dedup();
        let mut fast_scores = vec![0i32; OUTPUTS];
        let ops_count = fast.forward(&probe_sorted, &mut fast_scores);
        let mut ref_scores = vec![0i32; OUTPUTS];
        reference::forward_ref(&naive, &probe_sorted, &mut ref_scores);
        prop_assert_eq!(&fast_scores, &ref_scores, "forward scores diverged");
        let expected_ops: usize = probe_sorted.iter().map(|&i| fast.fan_out(i)).sum();
        prop_assert_eq!(ops_count, expected_ops, "forward ops count");
        let probe_set = BitSet::from_indices(INPUTS, &probe_sorted);
        for (o, &score) in ref_scores.iter().enumerate() {
            prop_assert_eq!(fast.row_score(o as u32, &probe_set), score, "row gather");
        }
    }

    /// The scratch-buffer k-WTA equals both the allocating wrapper and
    /// the full-sort reference, including tie-heavy score vectors.
    /// `wide` scales the scores so both strategies — counting
    /// selection (tight spread) and packed quickselect (wide spread) —
    /// are exercised on the same tie structure.
    #[test]
    fn kwta_matches_reference(
        scores in proptest::collection::vec(-8i32..8, 1..300),
        k in 0usize..320,
        wide in any::<bool>(),
    ) {
        let scores: Vec<i32> = if wide {
            scores.iter().map(|&s| s * 1_000_000).collect()
        } else {
            scores
        };
        let mut scratch = Vec::new();
        let mut winners = Vec::new();
        k_winners_into(&scores, k, &mut scratch, &mut winners);
        prop_assert_eq!(&winners, &k_winners(&scores, k));
        prop_assert_eq!(&winners, &k_winners_ref(&scores, k.min(scores.len())));
    }

    /// Saturating Eq.-1 arithmetic: under an extreme clamp the update
    /// never overflows and both implementations still agree.
    #[test]
    fn extreme_clamp_never_overflows(
        seed in 0u64..16,
        rounds in 1usize..8,
        pot in 1i16..=i16::MAX,
        dep in 0i16..=i16::MAX,
    ) {
        let mut a_rng = StdRng::seed_from_u64(seed);
        let mut b_rng = StdRng::seed_from_u64(seed);
        let mut fast = SparseLayer::new(8, 2, 1.0, i16::MAX, 1, &mut a_rng);
        let mut naive = SparseLayer::new(8, 2, 1.0, i16::MAX, 1, &mut b_rng);
        let active = BitSet::from_indices(8, &[0, 2, 4, 6]);
        for _ in 0..rounds {
            fast.hebbian_update(0, &active, pot, dep);
            reference::hebbian_update_ref(&mut naive, 0, &active, pot, dep);
            fast.anti_update(1, &active, dep);
            reference::anti_update_ref(&mut naive, 1, &active, dep);
        }
        // Reaching this point is the overflow check: with wrapping or
        // unchecked arithmetic the debug build would have panicked on
        // `i16::MAX + pot` long before the equality assert.
        prop_assert_eq!(fast.weights(), naive.weights());
    }
}

/// Network-level differential check: a snapshot taken through the
/// flat-weight state API before any CSR-era step restores into a CSR
/// network and continues bit-identically — the layout contract the
/// serve snapshot codec relies on.
#[cfg(test)]
mod network_level {
    use crate::network::{HebbianConfig, HebbianNetwork};

    #[test]
    fn weight_layout_is_output_major_slot_order() {
        let cfg = HebbianConfig::tiny();
        let mut net = HebbianNetwork::new(cfg.clone());
        for i in 0..40u32 {
            net.train_step(
                &[i % cfg.pattern_bits as u32],
                (i as usize + 1) % cfg.outputs,
            );
        }
        let state = net.export_state();
        let mut restored = HebbianNetwork::new(cfg);
        restored.import_state(&state).expect("same geometry");
        for i in 0..8u32 {
            let a = net.infer(&[i % 16], 0);
            let b = restored.infer(&[i % 16], 0);
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.ops, b.ops);
        }
    }
}

/// Pre-optimization `top_predictions`: every output packed into one
/// `u64` (bit-inverted sign-biased score high, index low), so "score
/// desc, index asc" is a primitive ascending sort; sorted in full and
/// truncated to `width`.
fn top_k_ref(scores: &[i32], width: usize) -> Vec<usize> {
    let mut keyed: Vec<u64> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (!(s as u32 ^ 0x8000_0000) as u64) << 32 | i as u64)
        .collect();
    keyed.sort_unstable();
    keyed.truncate(width);
    keyed
        .iter()
        .map(|&key| (key & 0xffff_ffff) as usize)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bounded top-k selection equals the full packed-key sort on
    /// tie-heavy, extreme and empty score vectors, at every width, and
    /// ignores whatever its reused output buffer held before.
    #[test]
    fn top_k_matches_packed_sort(
        raw in proptest::collection::vec((0u8..8, any::<i32>()), 0..150),
        width in 0usize..160,
        stale in proptest::collection::vec(0usize..500, 0..8),
    ) {
        // Mostly a narrow tie-heavy band, sometimes the extremes or an
        // arbitrary value.
        let scores: Vec<i32> = raw
            .iter()
            .map(|&(kind, v)| match kind {
                0 => i32::MIN,
                1 => i32::MAX,
                2 => v,
                _ => v % 4,
            })
            .collect();
        let mut out = stale;
        crate::kwta::top_k_into(&scores, width, &mut out);
        prop_assert_eq!(out, top_k_ref(&scores, width));
    }
}

/// The hidden-winner memo and its cached output scores against a
/// network that recomputes layer 1 and scatters layer 2 on every pass:
/// any sequence of public calls must give bit-identical outcomes, ops,
/// output scores, stats, recurrent state and exported state; and
/// layer 1, which the memo assumes fixed, must never change.
/// `replay_step` (draw first, layer 1 only on a rejected draw) is held
/// to the save / `set_recurrent_state` / `train_step_opts` / restore
/// sequence it replaces, and both rollout entry points to the
/// pre-scratch rollout (`HebbianNetwork::rollout_reference`).
mod memo_equivalence {
    use proptest::prelude::*;

    use crate::network::{HebbianConfig, HebbianNetwork, HebbianOutcome, NetState};
    use crate::LrScale;

    const PATTERN_BITS: u32 = 16;
    const RECURRENT_BITS: u32 = 32;

    /// One public call, decoded from a generated tuple (see [`op`]).
    #[derive(Debug)]
    enum Op {
        Train(Vec<u32>, usize),
        /// Scaled update at `numer / 10` (stochastic below 10), with
        /// the anti-Hebbian flag.
        TrainOpts(Vec<u32>, usize, u32, bool),
        Infer(Vec<u32>, usize),
        InferAdvance(Vec<u32>, usize),
        /// `rollout` (width 1) against the pre-scratch rollout.
        Rollout(Vec<u32>, usize),
        /// The scratch rollout on the memo network against the
        /// pre-scratch rollout on the reference.
        RolloutInto(Vec<u32>, usize, usize),
        SetRecurrent(Vec<u32>),
        /// Replay at `numer / 10` under the given recurrent context.
        Replay(Vec<u32>, usize, u32, Vec<u32>),
        Export,
        Import,
    }

    type RawOp = (u8, Vec<u32>, usize, usize, Vec<u32>);

    /// Raw draws: an op kind, a pattern from a small pool so input
    /// sets repeat (memo hits) with duplicate bits allowed (never
    /// memoized), a target and rate, a flag and rollout shape, and
    /// recurrent bits.
    fn op() -> impl Strategy<Value = RawOp> {
        (
            0u8..20,
            proptest::collection::vec(0u32..5, 0..4),
            0usize..160,
            0usize..32,
            proptest::collection::vec(0u32..RECURRENT_BITS, 0..6),
        )
    }

    fn decode((kind, p, target_rate, flag_shape, bits): RawOp) -> Op {
        let (target, numer) = (target_rate % 16, (target_rate / 16) as u32);
        let (flag, shape) = (flag_shape % 2 == 1, flag_shape / 2);
        match kind {
            0..=3 => Op::Train(p, target),
            4 | 5 => Op::TrainOpts(p, target, numer, flag),
            6 | 7 => Op::Infer(p, target),
            8 | 9 => Op::InferAdvance(p, target),
            10 | 11 => Op::Rollout(p, 1 + shape % 3),
            12 => Op::SetRecurrent(bits),
            13 | 14 => Op::Replay(p, target, numer, bits),
            15 => Op::Export,
            16 | 17 => Op::RolloutInto(p, 1 + shape % 3, 1 + shape / 4),
            _ => Op::Import,
        }
    }

    fn outcome_bits(o: &HebbianOutcome) -> (usize, u32, bool, usize) {
        (o.predicted, o.confidence.to_bits(), o.correct, o.ops)
    }

    /// Rollout re-encoding: two bits per token, a duplicate for even
    /// tokens.
    fn encode(tok: usize) -> Vec<u32> {
        let t = tok as u32 % PATTERN_BITS;
        vec![t, (t & !1) % PATTERN_BITS]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memo_is_invisible(ops in proptest::collection::vec(op(), 1..120)) {
            let cfg = HebbianConfig::tiny();
            let mut memo = HebbianNetwork::new(cfg.clone());
            let mut reference = HebbianNetwork::without_memo(cfg);
            // Exported from a clone, so the live RNG is not re-keyed.
            let layer1 = |net: &HebbianNetwork| net.clone().export_state().layer1_weights;
            let layer1_at_construction = layer1(&memo);
            let mut saved: Option<NetState> = None;
            let mut scores_exact = true;
            for op in ops.into_iter().map(decode) {
                match &op {
                    Op::Train(p, t) => prop_assert_eq!(
                        outcome_bits(&memo.train_step(p, *t)),
                        outcome_bits(&reference.train_step(p, *t))
                    ),
                    Op::TrainOpts(p, t, n, anti) => {
                        let scale = LrScale::from_ratio(*n, 10);
                        prop_assert_eq!(
                            outcome_bits(&memo.train_step_opts(p, *t, scale, *anti)),
                            outcome_bits(&reference.train_step_opts(p, *t, scale, *anti))
                        )
                    }
                    Op::Infer(p, t) => prop_assert_eq!(
                        outcome_bits(&memo.infer(p, *t)),
                        outcome_bits(&reference.infer(p, *t))
                    ),
                    Op::InferAdvance(p, t) => prop_assert_eq!(
                        outcome_bits(&memo.infer_advance(p, *t)),
                        outcome_bits(&reference.infer_advance(p, *t))
                    ),
                    Op::Rollout(p, steps) => {
                        let a = memo.rollout(p, *steps, encode);
                        let (b, _) = reference.rollout_reference(p, *steps, 1, encode);
                        prop_assert_eq!(a, b.concat());
                    }
                    Op::RolloutInto(p, steps, width) => {
                        let (b, cb) = reference.rollout_reference(p, *steps, *width, encode);
                        let a = memo.rollout_into(p, *steps, *width, |tok, next| {
                            next.extend(encode(tok))
                        });
                        prop_assert_eq!(a.classes.to_vec(), b.concat());
                        prop_assert_eq!(a.steps().len(), *steps);
                        prop_assert_eq!(a.first_confidence.to_bits(), cb.to_bits());
                    }
                    Op::SetRecurrent(bits) => {
                        memo.set_recurrent_state(bits);
                        reference.set_recurrent_state(bits);
                    }
                    Op::Replay(p, t, n, bits) => {
                        let scale = LrScale::from_ratio(*n, 10);
                        memo.replay_step(p, bits, *t, scale);
                        let saved = reference.recurrent_state().to_vec();
                        reference.set_recurrent_state(bits);
                        reference.train_step_opts(p, *t, scale, false);
                        reference.set_recurrent_state(&saved);
                    }
                    Op::Export => {
                        let state = memo.export_state();
                        prop_assert_eq!(&state, &reference.export_state());
                        saved = Some(state);
                    }
                    Op::Import => {
                        if let Some(state) = &saved {
                            prop_assert_eq!(memo.import_state(state), Ok(()));
                            prop_assert_eq!(reference.import_state(state), Ok(()));
                        }
                    }
                }
                // A rejected replay draw skips layer 2, so the output
                // scores stay unspecified until the next forward pass.
                scores_exact = match op {
                    Op::Replay(..) => false,
                    Op::SetRecurrent(_) | Op::Export | Op::Import => scores_exact,
                    _ => true,
                };
                if scores_exact {
                    prop_assert_eq!(memo.out_scores(), reference.out_scores());
                    prop_assert_eq!(memo.top_predictions(3), reference.top_predictions(3));
                }
                prop_assert_eq!(memo.recurrent_state(), reference.recurrent_state());
                prop_assert_eq!(memo.stats(), reference.stats());
                prop_assert_eq!(&layer1(&memo), &layer1_at_construction);
            }
            prop_assert_eq!(memo.export_state(), reference.export_state());
            prop_assert_eq!(reference.memo_hits(), 0);
            prop_assert_eq!(reference.incremental_hits() + reference.score_fallbacks(), 0);
        }
    }

    /// The property above is vacuous unless the memo answers lookups:
    /// a repeated input set must hit, and duplicate bits must bypass
    /// the table.
    #[test]
    fn repeated_inputs_hit_the_memo() {
        let mut net = HebbianNetwork::new(HebbianConfig::tiny());
        for i in 0..64u32 {
            net.train_step(&[i % 4], (i as usize + 1) % 4);
        }
        // The pattern-code orbit has the cycle's period: after the
        // first lap every input set repeats.
        assert!(net.memo_hits() >= 56, "{} hits", net.memo_hits());

        let mut net = HebbianNetwork::new(HebbianConfig::tiny());
        net.train_step(&[1], 2);
        let hits = net.memo_hits();
        net.infer(&[1], 2);
        net.infer(&[1], 2);
        assert_eq!(net.memo_hits(), hits + 1);
        net.infer(&[1, 1], 2);
        net.infer(&[1, 1], 2);
        assert_eq!(net.memo_hits(), hits + 1, "duplicate bits bypass the memo");
    }

    /// Layer 1 changes only when `import_state` writes it, so the
    /// property above never sees a generation bump matter: a state
    /// with other layer-1 weights (here a hand-built one) must drop
    /// every memoized winner set.
    #[test]
    fn importing_new_layer1_weights_drops_memoized_winners() {
        let cfg = HebbianConfig::tiny();
        let mut memo = HebbianNetwork::new(cfg.clone());
        let mut reference = HebbianNetwork::without_memo(cfg);
        let inputs = [[1u32], [2], [3]];
        for net in [&mut memo, &mut reference] {
            for (i, p) in inputs.iter().enumerate() {
                net.reset_state();
                net.train_step(p, i);
            }
        }
        let mut state = memo.export_state();
        assert_eq!(state, reference.export_state());
        state.layer1_weights.iter_mut().for_each(|w| *w = -*w);
        for net in [&mut memo, &mut reference] {
            net.import_state(&state).expect("same geometry");
        }
        for (i, p) in inputs.iter().enumerate() {
            memo.reset_state();
            reference.reset_state();
            assert_eq!(
                outcome_bits(&memo.infer(p, i)),
                outcome_bits(&reference.infer(p, i))
            );
            assert_eq!(memo.out_scores(), reference.out_scores());
        }
    }

    /// The cached-score property is vacuous unless hits take both
    /// paths: one changed row is refreshed in place, many changed rows
    /// cost more than the scatter and fall back to it. Scores match
    /// the memo-free network either way.
    #[test]
    fn changed_rows_refresh_incrementally_or_fall_back() {
        let cfg = HebbianConfig::tiny();
        let mut memo = HebbianNetwork::new(cfg.clone());
        let mut reference = HebbianNetwork::without_memo(cfg);
        // Trains `targets` on another input from an empty recurrent
        // state, then probes `[1]` from one, so the probe presents the
        // same input set every time; returns the probe's (incremental,
        // fallback) counts.
        let mut step = |targets: &[usize]| {
            for net in [&mut memo, &mut reference] {
                for &t in targets {
                    net.reset_state();
                    net.train_step(&[2], t);
                }
                net.reset_state();
            }
            let before = (memo.incremental_hits(), memo.score_fallbacks());
            memo.infer(&[1], 0);
            reference.infer(&[1], 0);
            assert_eq!(memo.out_scores(), reference.out_scores());
            (
                memo.incremental_hits() - before.0,
                memo.score_fallbacks() - before.1,
            )
        };
        assert_eq!(step(&[]), (0, 0), "first probe fills the slot");
        assert_eq!(step(&[]), (1, 0), "nothing changed");
        // Fresh weights score zero, so the first update has no
        // anti-Hebbian competitor: exactly one row changes.
        assert_eq!(step(&[3]), (1, 0), "one row refreshed");
        assert_eq!(
            step(&[0, 1, 2, 4, 5, 6, 7, 8]),
            (0, 1),
            "eight rows fall back"
        );
    }
}
