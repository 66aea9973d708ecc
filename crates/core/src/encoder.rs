//! Input encodings for the Hebbian prefetch network (§5.3).
//!
//! The paper observes that one-hot delta encodings inherit the limits
//! of prior DL prefetchers and asks for inputs richer in context. Two
//! encoders are provided, and both are the same positional code:
//!
//! * [`EncoderKind::OneHot`] — the prior-work default: one active bit
//!   for the newest delta token;
//! * [`EncoderKind::HistoryWindow`] — positional one-hot of the last
//!   `window` delta tokens (the §5.2 "miss history" as input).
//!
//! One-hot is exactly a history window of 1. The path-hash and
//! vector-symbolic encodings the paper also sketches lost to the
//! better of these two on every application at three trace seeds
//! (EXPERIMENTS.md §5.3), so they are not built.

/// Selects an input encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// One active bit: the newest delta token.
    OneHot,
    /// Positional one-hot over the last `window` tokens.
    HistoryWindow {
        /// History length.
        window: usize,
    },
}

/// A concrete encoder over a fixed delta vocabulary.
#[derive(Debug, Clone)]
pub struct Encoder {
    kind: EncoderKind,
    vocab_len: usize,
}

impl Encoder {
    /// Creates an encoder for tokens in `0..vocab_len`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_len == 0` or the history window is zero.
    pub fn new(kind: EncoderKind, vocab_len: usize) -> Self {
        assert!(vocab_len > 0, "empty vocabulary");
        let e = Self { kind, vocab_len };
        assert!(e.window() > 0, "zero history window");
        e
    }

    /// Width of the pattern-bit space this encoder emits into: one
    /// `vocab_len`-bit section per history position.
    pub fn pattern_bits(&self) -> usize {
        self.window() * self.vocab_len
    }

    /// How much history (in tokens) the encoder consumes.
    pub fn window(&self) -> usize {
        match self.kind {
            EncoderKind::OneHot => 1,
            EncoderKind::HistoryWindow { window } => window,
        }
    }

    /// Encodes a token history (oldest first; the last element is the
    /// newest token) into active pattern bits, in ascending order.
    /// A wrapper over [`encode_into`](Self::encode_into).
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty or contains out-of-vocabulary
    /// tokens.
    pub fn encode(&self, history: &[usize]) -> Vec<u32> {
        let mut bits = Vec::new();
        self.encode_into(history, &mut bits);
        bits
    }

    /// [`encode`](Self::encode) into `bits`, replacing its contents.
    /// Allocates nothing once `bits` has capacity.
    ///
    /// Position 0 is the newest token, and position `pos` owns bits
    /// `pos * vocab_len..(pos + 1) * vocab_len`; the sections ascend,
    /// so the bits come out sorted and unique.
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty or contains out-of-vocabulary
    /// tokens.
    pub fn encode_into(&self, history: &[usize], bits: &mut Vec<u32>) {
        assert!(!history.is_empty(), "empty token history");
        for &t in history {
            assert!(t < self.vocab_len, "token {t} out of vocabulary");
        }
        bits.clear();
        bits.extend(
            history
                .iter()
                .rev()
                .take(self.window())
                .enumerate()
                .map(|(pos, &tok)| (pos * self.vocab_len + tok) as u32),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_emits_single_newest_bit() {
        let e = Encoder::new(EncoderKind::OneHot, 16);
        assert_eq!(e.encode(&[3, 7, 5]), vec![5]);
        assert_eq!(e.pattern_bits(), 16);
        assert_eq!(e.window(), 1);
    }

    #[test]
    fn history_window_uses_positional_sections() {
        let e = Encoder::new(EncoderKind::HistoryWindow { window: 3 }, 10);
        // Newest = 5 (pos 0), then 7 (pos 1), then 3 (pos 2).
        let bits = e.encode(&[3, 7, 5]);
        assert_eq!(bits, vec![5, 17, 23]);
        assert_eq!(e.pattern_bits(), 30);
    }

    #[test]
    fn history_window_handles_short_history() {
        let e = Encoder::new(EncoderKind::HistoryWindow { window: 4 }, 10);
        let bits = e.encode(&[2]);
        assert_eq!(bits, vec![2]);
    }

    #[test]
    fn one_hot_is_a_history_window_of_one() {
        let vocab = 13;
        let one_hot = Encoder::new(EncoderKind::OneHot, vocab);
        let window_1 = Encoder::new(EncoderKind::HistoryWindow { window: 1 }, vocab);
        assert_eq!(one_hot.pattern_bits(), window_1.pattern_bits());
        let windows: Vec<Encoder> = [2, 3, 5]
            .map(|window| Encoder::new(EncoderKind::HistoryWindow { window }, vocab))
            .into();
        for len in 1..8 {
            for seed in 0..vocab {
                // Repeats and descending runs included: `encode_into`
                // does not sort, so the order must come from the
                // positional sections alone.
                let history: Vec<usize> = (0..len).map(|i| (seed * 7 + i * 5) % vocab).collect();
                assert_eq!(one_hot.encode(&history), window_1.encode(&history));
                for e in windows.iter().chain([&one_hot]) {
                    let bits = e.encode(&history);
                    assert!(
                        bits.windows(2).all(|w| w[0] < w[1]),
                        "{history:?} -> {bits:?}"
                    );
                    assert!(bits.iter().all(|&b| (b as usize) < e.pattern_bits()));
                }
            }
        }
    }

    #[test]
    fn encode_into_overwrites_the_buffer_like_encode() {
        let kinds = [
            EncoderKind::OneHot,
            EncoderKind::HistoryWindow { window: 3 },
        ];
        let mut bits = vec![999; 40];
        for kind in kinds {
            let e = Encoder::new(kind, 50);
            for history in [&[7][..], &[1, 2, 3], &[4, 4, 9, 1]] {
                e.encode_into(history, &mut bits);
                assert_eq!(bits, e.encode(history), "{kind:?} {history:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero history window")]
    fn zero_window_panics() {
        let _ = Encoder::new(EncoderKind::HistoryWindow { window: 0 }, 4);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_token_panics() {
        let e = Encoder::new(EncoderKind::OneHot, 4);
        e.encode(&[4]);
    }

    #[test]
    #[should_panic(expected = "empty token history")]
    fn empty_history_panics() {
        let e = Encoder::new(EncoderKind::OneHot, 4);
        e.encode(&[]);
    }
}
