//! The bounded delta vocabulary and rollout-to-page translation.
//!
//! Learned prefetchers (LSTM and Hebbian alike) predict over a bounded
//! vocabulary of page deltas, as in prior DL prefetching work the
//! paper builds on. Deltas inside `[-range, range]` map to dedicated
//! tokens; everything else maps to a shared out-of-vocabulary token on
//! input and is never predicted as a prefetch (§5.3 discusses the
//! limits of this encoding; the `ablate_encoding` harness sweeps
//! alternatives).

/// Bidirectional delta <-> token map.
#[derive(Debug, Clone)]
pub struct DeltaVocab {
    range: i64,
}

impl DeltaVocab {
    /// Vocabulary over deltas in `[-range, range]`, excluding 0 (a
    /// repeated page is not a miss under inclusion), plus one
    /// out-of-vocabulary token.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    pub fn new(range: i64) -> Self {
        assert!(range > 0, "range must be positive");
        Self { range }
    }

    /// Number of tokens (including the OOV token).
    pub fn len(&self) -> usize {
        (2 * self.range + 2) as usize
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The out-of-vocabulary token.
    fn oov(&self) -> usize {
        (2 * self.range + 1) as usize
    }

    /// Maps a delta to its token (OOV if out of range or zero).
    /// Total over `i64`: the magnitude is compared unsigned, so
    /// `i64::MIN` is out of range rather than an overflow.
    pub fn token_of(&self, delta: i64) -> usize {
        if delta == 0 || delta.unsigned_abs() > self.range as u64 {
            self.oov()
        } else if delta > 0 {
            // 1..=range -> 0..range-1.
            (delta - 1) as usize
        } else {
            // -1..=-range -> range..2*range-1.
            (self.range - 1 - delta) as usize
        }
    }

    /// Maps a token back to a delta; `None` for the OOV token.
    ///
    /// # Panics
    ///
    /// Panics if `token >= len()`.
    fn delta_of(&self, token: usize) -> Option<i64> {
        assert!(token < self.len(), "token {} out of range", token);
        if token == self.oov() {
            None
        } else if (token as i64) < self.range {
            Some(token as i64 + 1)
        } else {
            Some(self.range - 1 - token as i64)
        }
    }
}

/// Translates a multi-step, multi-width token rollout into prefetch
/// pages: the top-1 delta of each step advances a running base page;
/// the additional candidates at each step branch off the pre-step
/// base. An out-of-vocabulary top-1 stops the walk (the model declines
/// to guess further), as does a base that would leave the `i64` range.
///
/// `rollout` yields each step's tokens, best first: a `&Vec<Vec<_>>`
/// or a flat rollout's `chunks_exact`. Pages are deduplicated across
/// the *whole* rollout, preserving first-emission order: a multi-step
/// walk over a short cycle (or an alternate that lands on a later
/// top-1 page) would otherwise issue the same prefetch several times,
/// inflating issued-line counts and wasting queue slots downstream. A
/// rollout emits a handful of pages, so the dedup is a linear scan of
/// those already emitted.
pub fn pages_from_rollout<I>(vocab: &DeltaVocab, base: u64, rollout: I) -> Vec<u64>
where
    I: IntoIterator,
    I::Item: AsRef<[usize]>,
{
    let mut out = Vec::new();
    let mut emit = |page: Option<i64>| {
        if let Some(p) = page.filter(|&p| p >= 0) {
            if !out.contains(&(p as u64)) {
                out.push(p as u64);
            }
        }
    };
    let mut acc = base as i64;
    for step in rollout {
        let step = step.as_ref();
        let Some(&top) = step.first() else { break };
        let Some(next) = vocab.delta_of(top).and_then(|d| acc.checked_add(d)) else {
            break;
        };
        emit(Some(next));
        for &alt in &step[1..] {
            emit(vocab.delta_of(alt).and_then(|d| acc.checked_add(d)));
        }
        acc = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_delta_roundtrip() {
        let v = DeltaVocab::new(64);
        for d in -64i64..=64 {
            if d == 0 {
                continue;
            }
            let t = v.token_of(d);
            assert_eq!(v.delta_of(t), Some(d), "delta {d}");
            assert!(t < v.len());
        }
    }

    #[test]
    fn out_of_range_maps_to_oov() {
        let v = DeltaVocab::new(8);
        assert_eq!(v.token_of(9), v.oov());
        assert_eq!(v.token_of(-100), v.oov());
        assert_eq!(v.token_of(0), v.oov());
        assert_eq!(v.delta_of(v.oov()), None);
    }

    #[test]
    fn tokens_are_distinct_within_range() {
        let v = DeltaVocab::new(16);
        let mut seen = std::collections::HashSet::new();
        for d in -16i64..=16 {
            if d == 0 {
                continue;
            }
            assert!(seen.insert(v.token_of(d)), "token collision for {d}");
        }
    }

    #[test]
    fn vocab_len_matches_token_space() {
        let v = DeltaVocab::new(4);
        // 4 positive + 4 negative + OOV = 9, plus token indexes 0..9.
        assert_eq!(v.len(), 10);
        assert_eq!(v.oov(), 9);
    }

    #[test]
    fn rollout_walks_and_branches() {
        let v = DeltaVocab::new(8);
        // Step 1: top +2 (page 102), alt +5 (page 105).
        // Step 2 (from 102): top +3 (page 105 — already emitted), alt -1 (101).
        let rollout = vec![
            vec![v.token_of(2), v.token_of(5)],
            vec![v.token_of(3), v.token_of(-1)],
        ];
        assert_eq!(pages_from_rollout(&v, 100, &rollout), vec![102, 105, 101]);
    }

    #[test]
    fn rollout_dedups_pages_across_steps() {
        // Regression: dedup used to compare alternates only against the
        // current step's top-1 page, so a rollout cycling over a short
        // loop (+1, -1, +1, ...) re-emitted earlier pages and the
        // prefetch queue issued duplicate fetches.
        let v = DeltaVocab::new(4);
        let rollout = vec![
            vec![v.token_of(1)],                 // 101
            vec![v.token_of(-1)],                // 100 — base revisited, new emission
            vec![v.token_of(1)],                 // 101 again: suppressed
            vec![v.token_of(2), v.token_of(-1)], // 103; alt 100 suppressed
        ];
        assert_eq!(pages_from_rollout(&v, 100, &rollout), vec![101, 100, 103]);
    }

    #[test]
    fn extreme_deltas_are_oov() {
        // Regression: `delta.abs()` overflowed on `i64::MIN` (a panic
        // in debug; in release a token far out of vocabulary).
        let v = DeltaVocab::new(64);
        assert_eq!(v.token_of(i64::MIN), v.oov());
        assert_eq!(v.token_of(i64::MIN + 1), v.oov());
        assert_eq!(v.token_of(i64::MAX), v.oov());
    }

    #[test]
    fn rollout_accepts_flat_steps_and_stops_before_overflow() {
        let v = DeltaVocab::new(4);
        let flat = [v.token_of(2), v.token_of(-1), v.token_of(1), v.token_of(3)];
        let nested = vec![flat[..2].to_vec(), flat[2..].to_vec()];
        assert_eq!(
            pages_from_rollout(&v, 100, flat.chunks_exact(2)),
            pages_from_rollout(&v, 100, &nested)
        );
        // A base past `i64::MAX` walks from `i64::MIN`: a negative
        // delta would overflow, so the walk stops there.
        let down = [vec![v.token_of(-1)], vec![v.token_of(1)]];
        assert!(pages_from_rollout(&v, 1 << 63, &down).is_empty());
    }

    #[test]
    fn rollout_stops_at_oov_top1() {
        let v = DeltaVocab::new(4);
        let rollout = vec![
            vec![v.token_of(1)],
            vec![v.oov(), v.token_of(2)], // Model declines; alts ignored too.
            vec![v.token_of(1)],
        ];
        assert_eq!(pages_from_rollout(&v, 50, &rollout), vec![51]);
    }
}
