//! Input encodings for the Hebbian prefetch network (§5.3).
//!
//! The paper observes that one-hot delta encodings inherit the limits
//! of prior DL prefetchers and sketches alternatives inspired by
//! hippocampal path coding. Four encoders are provided:
//!
//! * [`EncoderKind::OneHot`] — the prior-work default: one active bit
//!   for the newest delta token;
//! * [`EncoderKind::HistoryWindow`] — positional one-hot of the last
//!   `window` delta tokens (the §5.2 "miss history" as input);
//! * [`EncoderKind::PathHash`] — a sparse distributed code of the
//!   recent delta *path*: each (position, token) pair activates fixed
//!   random bits of a shared space, the analog of the paper's
//!   vector-navigation encoding, letting logically close paths share
//!   bits without positional sections;
//! * [`EncoderKind::Vsa`] — full vector-symbolic composition (see
//!   [`crate::vsa`]): permute-and-bundle over token hypervectors, the
//!   §5.3 "efficient detection of relations" line made concrete.

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
    /// Sparse path code: `bits_per` active bits per (position, token)
    /// of the last `window` tokens, hashed into `space` bits.
    PathHash {
        /// History length.
        window: usize,
        /// Active bits contributed per history entry.
        bits_per: usize,
        /// Code-space width.
        space: usize,
    },
    /// Vector-symbolic composition (§5.3's "efficient detection of
    /// relations"): token hypervectors are position-permuted and
    /// bundled, then read out as `active` sparse bits of `space`.
    Vsa {
        /// History length.
        window: usize,
        /// Active bits per code.
        active: usize,
        /// Code-space width.
        space: usize,
    },
}

/// A concrete encoder over a fixed delta vocabulary.
#[derive(Debug, Clone)]
pub struct Encoder {
    kind: EncoderKind,
    vocab_len: usize,
    /// Symbol table for the VSA kind (unused otherwise).
    vsa: Option<crate::vsa::VsaEncoder>,
}

impl Encoder {
    /// Creates an encoder for tokens in `0..vocab_len`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_len == 0` or the kind's parameters are
    /// degenerate (zero window/space/bits).
    pub fn new(kind: EncoderKind, vocab_len: usize) -> Self {
        assert!(vocab_len > 0, "empty vocabulary");
        match kind {
            EncoderKind::OneHot => {}
            EncoderKind::HistoryWindow { window } => {
                assert!(window > 0, "zero history window");
            }
            EncoderKind::PathHash {
                window,
                bits_per,
                space,
            } => {
                assert!(
                    window > 0 && bits_per > 0 && space > 0,
                    "degenerate path code"
                );
            }
            EncoderKind::Vsa {
                window,
                active,
                space,
            } => {
                assert!(window > 0 && active > 0 && space > 0, "degenerate vsa code");
            }
        }
        let vsa = match kind {
            EncoderKind::Vsa {
                window,
                active,
                space,
            } => Some(crate::vsa::VsaEncoder::new(
                vocab_len, space, active, window, 0x5a5a,
            )),
            _ => None,
        };
        Self {
            kind,
            vocab_len,
            vsa,
        }
    }

    /// The encoder kind.
    pub fn kind(&self) -> EncoderKind {
        self.kind
    }

    /// Width of the pattern-bit space this encoder emits into.
    pub fn pattern_bits(&self) -> usize {
        match self.kind {
            EncoderKind::OneHot => self.vocab_len,
            EncoderKind::HistoryWindow { window } => window * self.vocab_len,
            EncoderKind::PathHash { space, .. } => space,
            EncoderKind::Vsa { space, .. } => space,
        }
    }

    /// How much history (in tokens) the encoder consumes.
    pub fn window(&self) -> usize {
        match self.kind {
            EncoderKind::OneHot => 1,
            EncoderKind::HistoryWindow { window } => window,
            EncoderKind::PathHash { window, .. } => window,
            EncoderKind::Vsa { window, .. } => window,
        }
    }

    /// Encodes a token history (oldest first; the last element is the
    /// newest token) into active pattern bits, sorted and deduplicated.
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
    /// The one-hot, history-window and path-hash kinds allocate
    /// nothing once `bits` has capacity.
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
        match self.kind {
            EncoderKind::OneHot => {
                bits.push(history[history.len() - 1] as u32);
                return;
            }
            EncoderKind::HistoryWindow { window } => {
                // Position 0 = newest.
                bits.extend(
                    history
                        .iter()
                        .rev()
                        .take(window)
                        .enumerate()
                        .map(|(pos, &tok)| (pos * self.vocab_len + tok) as u32),
                );
            }
            EncoderKind::PathHash {
                window,
                bits_per,
                space,
            } => bits.extend(history.iter().rev().take(window).enumerate().flat_map(
                |(pos, &tok)| {
                    (0..bits_per).map(move |j| {
                        let mut h = (pos as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(tok as u64)
                            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                            .wrapping_add(j as u64);
                        h ^= h >> 31;
                        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
                        h ^= h >> 29;
                        (h % space as u64) as u32
                    })
                },
            )),
            EncoderKind::Vsa { .. } => {
                // The table is built in `new()` whenever the kind is
                // Vsa; the Option only models the other kinds.
                let table = self.vsa.as_ref();
                // hnp-lint: allow(panic_hygiene): constructor invariant
                let table = table.expect("vsa built in new()");
                *bits = table.encode(history);
                return;
            }
        }
        bits.sort_unstable();
        bits.dedup();
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
    fn path_hash_is_deterministic_and_bounded() {
        let e = Encoder::new(
            EncoderKind::PathHash {
                window: 4,
                bits_per: 3,
                space: 256,
            },
            50,
        );
        let a = e.encode(&[1, 2, 3, 4]);
        let b = e.encode(&[1, 2, 3, 4]);
        assert_eq!(a, b);
        assert!(a.iter().all(|&bit| bit < 256));
        assert!(a.len() <= 12);
        assert_eq!(e.pattern_bits(), 256);
    }

    #[test]
    fn path_hash_distinguishes_order() {
        let e = Encoder::new(
            EncoderKind::PathHash {
                window: 3,
                bits_per: 4,
                space: 512,
            },
            50,
        );
        assert_ne!(e.encode(&[1, 2, 3]), e.encode(&[3, 2, 1]));
    }

    #[test]
    fn path_hash_shares_bits_across_similar_paths() {
        let e = Encoder::new(
            EncoderKind::PathHash {
                window: 4,
                bits_per: 4,
                space: 512,
            },
            50,
        );
        let a = e.encode(&[9, 1, 2, 3]);
        let b = e.encode(&[8, 1, 2, 3]); // Same recent path, older differs.
        let overlap = a.iter().filter(|bit| b.contains(bit)).count();
        assert!(
            overlap >= 8,
            "paths share recent structure: overlap {overlap}"
        );
    }

    #[test]
    fn vsa_kind_encodes_through_the_symbol_table() {
        let e = Encoder::new(
            EncoderKind::Vsa {
                window: 3,
                active: 16,
                space: 512,
            },
            50,
        );
        assert_eq!(e.pattern_bits(), 512);
        assert_eq!(e.window(), 3);
        let a = e.encode(&[1, 2, 3]);
        assert!(!a.is_empty() && a.len() <= 16);
        assert!(a.iter().all(|&b| b < 512));
        assert_ne!(a, e.encode(&[3, 2, 1]), "order-sensitive");
        assert_eq!(a, e.encode(&[1, 2, 3]), "deterministic");
    }

    #[test]
    fn encode_into_overwrites_the_buffer_like_encode() {
        let kinds = [
            EncoderKind::OneHot,
            EncoderKind::HistoryWindow { window: 3 },
            EncoderKind::PathHash {
                window: 3,
                bits_per: 4,
                space: 256,
            },
            EncoderKind::Vsa {
                window: 3,
                active: 16,
                space: 512,
            },
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
