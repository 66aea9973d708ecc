//! Vector-symbolic (hyperdimensional) encoding for §5.3.
//!
//! The paper points at "brain-inspired work \[that\] has explored ways
//! of representing symbols that allow the efficient detection of
//! relations in neural networks" (citing Abstractors) and at
//! hippocampal vector-navigation codes as inspiration for address
//! encodings. This module implements the classic binary
//! vector-symbolic architecture (VSA) operations over dense
//! hypervectors:
//!
//! * **random hypervectors** — quasi-orthogonal symbol codes;
//! * **bundling** (majority) — superposes a set; similarity-
//!   preserving;
//! * **permutation** (rotate) — encodes sequence position.
//!
//! A delta history `d1, d2, ..., dk` is encoded as
//! `bundle(rho^k-1(H(d1)), ..., rho(H(dk-1)), H(dk))`: positions are
//! rotations, the history is their bundle. Close histories land on
//! close hypervectors — "logically (as opposed to numerically) close"
//! — and the sparse top-bits of the hypervector feed the Hebbian
//! network as pattern bits via [`VsaEncoder`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Width of a hypervector in 64-bit words (default dimension 1024).
const DEFAULT_WORDS: usize = 16;

/// A dense binary hypervector.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HyperVector {
    words: Vec<u64>,
}

impl HyperVector {
    /// Dimension in bits.
    fn dim(&self) -> usize {
        self.words.len() * 64
    }

    /// A random hypervector of `words * 64` bits.
    fn random(words: usize, rng: &mut impl Rng) -> Self {
        Self {
            words: (0..words).map(|_| rng.gen()).collect(),
        }
    }

    /// Permutation: rotates the whole vector left by `k` bits, encoding
    /// sequence position.
    fn permute(&self, k: usize) -> HyperVector {
        let n = self.dim();
        if n == 0 {
            return self.clone();
        }
        let k = k % n;
        if k == 0 {
            return self.clone();
        }
        let mut out = vec![0u64; self.words.len()];
        for (i, w) in out.iter_mut().enumerate() {
            for b in 0..64 {
                let src = (i * 64 + b + k) % n;
                if self.words[src / 64] >> (src % 64) & 1 == 1 {
                    *w |= 1 << b;
                }
            }
        }
        HyperVector { words: out }
    }

    /// Normalized Hamming similarity in `[-1, 1]`: 1 for identical,
    /// ~0 for unrelated random vectors, -1 for complements.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[cfg(test)]
    fn similarity(&self, other: &HyperVector) -> f64 {
        assert_eq!(self.words.len(), other.words.len(), "dim mismatch");
        let differing: u32 = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        1.0 - 2.0 * differing as f64 / self.dim() as f64
    }

    /// Majority bundling of a non-empty set (ties broken by `tie`).
    ///
    /// # Panics
    ///
    /// Panics on an empty set or dimension mismatch.
    fn bundle(vectors: &[HyperVector], tie: &HyperVector) -> HyperVector {
        assert!(!vectors.is_empty(), "empty bundle");
        let words = vectors[0].words.len();
        let dim = words * 64;
        let mut counts = vec![0i32; dim];
        for v in vectors {
            assert_eq!(v.words.len(), words, "dim mismatch");
            for (i, c) in counts.iter_mut().enumerate() {
                if v.words[i / 64] >> (i % 64) & 1 == 1 {
                    *c += 1;
                }
            }
        }
        let half = vectors.len() as i32;
        let mut out = vec![0u64; words];
        for (i, &c) in counts.iter().enumerate() {
            let bit = match (2 * c).cmp(&half) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => tie.words[i / 64] >> (i % 64) & 1 == 1,
            };
            if bit {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        HyperVector { words: out }
    }

    /// The indices of the `k` bits chosen by a fixed random projection
    /// order — a sparse readout of the hypervector for networks that
    /// take active-bit lists. Deterministic per (vector, space, k).
    fn sparse_bits(&self, space: usize, k: usize) -> Vec<u32> {
        // Hash each set bit into the target space; keep the k smallest
        // hashes for determinism.
        let mut hashed: Vec<(u64, u32)> = Vec::new();
        for i in 0..self.dim() {
            if self.words[i / 64] >> (i % 64) & 1 == 1 {
                let mut h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= h >> 29;
                h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h ^= h >> 32;
                hashed.push((h, (h % space as u64) as u32));
            }
        }
        hashed.sort_unstable();
        let mut bits: Vec<u32> = hashed.into_iter().take(k).map(|(_, b)| b).collect();
        bits.sort_unstable();
        bits.dedup();
        bits
    }
}

/// A §5.3 encoder: token histories to sparse pattern bits through VSA
/// composition.
#[derive(Debug, Clone)]
pub struct VsaEncoder {
    /// One random hypervector per vocabulary token.
    symbols: Vec<HyperVector>,
    /// Output pattern-bit space.
    space: usize,
    /// Active bits emitted per encoding.
    active: usize,
    /// History window.
    window: usize,
}

impl VsaEncoder {
    /// Creates an encoder for `vocab` tokens over a `space`-bit pattern
    /// space with `active` bits per code and a `window`-token history.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters.
    pub fn new(vocab: usize, space: usize, active: usize, window: usize, seed: u64) -> Self {
        assert!(vocab > 0 && space > 0 && active > 0 && window > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            symbols: (0..vocab)
                .map(|_| HyperVector::random(DEFAULT_WORDS, &mut rng))
                .collect(),
            space,
            active,
            window,
        }
    }

    /// Pattern-bit space width.
    pub fn pattern_bits(&self) -> usize {
        self.space
    }

    /// History depth consumed.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Encodes a token history (oldest first) into sparse pattern bits.
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty or a token is out of vocabulary.
    pub fn encode(&self, history: &[usize]) -> Vec<u32> {
        assert!(!history.is_empty(), "empty history");
        let recent: Vec<usize> = history.iter().rev().take(self.window).copied().collect();
        let positioned: Vec<HyperVector> = recent
            .iter()
            .enumerate()
            .map(|(pos, &tok)| {
                assert!(tok < self.symbols.len(), "token {tok} out of vocabulary");
                self.symbols[tok].permute(pos)
            })
            .collect();
        let composite = if positioned.len() == 1 {
            positioned[0].clone()
        } else {
            HyperVector::bundle(&positioned, &positioned[0])
        };
        composite.sparse_bits(self.space, self.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn random_hypervectors_are_quasi_orthogonal() {
        let mut r = rng();
        let a = HyperVector::random(16, &mut r);
        let b = HyperVector::random(16, &mut r);
        assert!((a.similarity(&b)).abs() < 0.15, "{}", a.similarity(&b));
        assert_eq!(a.similarity(&a), 1.0);
    }

    #[test]
    fn bundling_preserves_similarity_to_members() {
        let mut r = rng();
        let vs: Vec<HyperVector> = (0..5).map(|_| HyperVector::random(16, &mut r)).collect();
        let bundle = HyperVector::bundle(&vs, &vs[0]);
        for v in &vs {
            assert!(
                bundle.similarity(v) > 0.2,
                "member similarity {}",
                bundle.similarity(v)
            );
        }
        let outsider = HyperVector::random(16, &mut r);
        assert!(bundle.similarity(&outsider).abs() < 0.15);
    }

    #[test]
    fn permutation_shifts_and_preserves_weight() {
        let mut r = rng();
        let a = HyperVector::random(16, &mut r);
        let p = a.permute(13);
        assert_ne!(p, a);
        let ones = |v: &HyperVector| v.words.iter().map(|w| w.count_ones()).sum::<u32>();
        assert_eq!(ones(&a), ones(&p), "rotation preserves popcount");
        assert!(p.similarity(&a).abs() < 0.2, "rotation decorrelates");
        assert_eq!(a.permute(0), a);
        assert_eq!(a.permute(a.dim()), a);
    }

    #[test]
    fn encoder_distinguishes_order_but_shares_structure() {
        let e = VsaEncoder::new(32, 512, 20, 4, 1);
        let abc = e.encode(&[1, 2, 3]);
        let cba = e.encode(&[3, 2, 1]);
        assert_ne!(abc, cba, "order must matter");
        // Shared recent suffix -> shared bits.
        let xbc = e.encode(&[9, 2, 3]);
        let overlap = abc.iter().filter(|b| xbc.contains(b)).count();
        let unrelated = e.encode(&[20, 21, 22]);
        let overlap_unrelated = abc.iter().filter(|b| unrelated.contains(b)).count();
        assert!(
            overlap > overlap_unrelated,
            "similar histories share more bits: {overlap} vs {overlap_unrelated}"
        );
    }

    #[test]
    fn encoder_emits_bounded_sorted_bits() {
        let e = VsaEncoder::new(16, 256, 12, 3, 2);
        let bits = e.encode(&[4]);
        assert!(bits.len() <= 12);
        assert!(bits.windows(2).all(|w| w[0] < w[1]));
        assert!(bits.iter().all(|&b| b < 256));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let e = VsaEncoder::new(4, 64, 4, 2, 0);
        e.encode(&[4]);
    }

    proptest! {
        /// Permutation is invertible and similarity is symmetric.
        #[test]
        fn vsa_algebra_laws(seed in any::<u64>(), k in 1usize..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = HyperVector::random(8, &mut rng);
            let b = HyperVector::random(8, &mut rng);
            let d = a.dim();
            prop_assert_eq!(a.permute(k % d).permute(d - (k % d)), a.clone());
            prop_assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-12);
        }
    }
}
