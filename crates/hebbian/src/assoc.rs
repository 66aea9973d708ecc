//! Hippocampal associative-memory substrates.
//!
//! CLS theory (Fig. 4 of the paper) models the hippocampus as a fast
//! associative store built from three mechanisms:
//!
//! * **pattern separation** — incoming dense patterns are re-coded as
//!   sparse, well-separated codes (dentate gyrus);
//! * **auto-association** — stored codes are attractors that can be
//!   completed from partial cues (CA3);
//! * **hetero-association** — a completed code recalls the value
//!   stored with it.
//!
//! These are implemented as binary Willshaw-style matrices over the
//! [`BitSet`] type: storage is a clipped Hebbian OR of outer products,
//! recall is a thresholded integer dot product.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitset::BitSet;
use crate::kwta::k_winners;

/// Re-codes arbitrary binary patterns as fixed-sparsity codes via a
/// fixed random projection followed by k-WTA.
#[derive(Debug, Clone)]
pub struct PatternSeparator {
    input_bits: usize,
    code_bits: usize,
    code_active: usize,
    /// `proj[c]` = the input bits that code unit `c` samples.
    proj: Vec<Vec<u32>>,
}

impl PatternSeparator {
    /// Creates a separator from `input_bits`-wide patterns to codes of
    /// `code_bits` with exactly `code_active` active units, each code
    /// unit sampling `samples` random input bits.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `code_active > code_bits`.
    pub fn new(
        input_bits: usize,
        code_bits: usize,
        code_active: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        assert!(input_bits > 0 && code_bits > 0 && samples > 0);
        assert!(code_active > 0 && code_active <= code_bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let proj = (0..code_bits)
            .map(|_| {
                (0..samples)
                    .map(|_| rng.gen_range(0..input_bits as u32))
                    .collect()
            })
            .collect();
        Self {
            input_bits,
            code_bits,
            code_active,
            proj,
        }
    }

    /// Separates `pattern` into a sparse code.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's capacity mismatches `input_bits`.
    pub fn separate(&self, pattern: &BitSet) -> BitSet {
        assert_eq!(pattern.len(), self.input_bits, "pattern width mismatch");
        let scores: Vec<i32> = self
            .proj
            .iter()
            .map(|samples| {
                samples
                    .iter()
                    .filter(|&&b| pattern.contains(b as usize))
                    .count() as i32
            })
            .collect();
        let winners = k_winners(&scores, self.code_active);
        BitSet::from_indices(self.code_bits, &winners)
    }
}

/// A binary hetero-associative Willshaw memory mapping sparse key codes
/// to sparse value codes.
#[derive(Debug, Clone)]
pub struct WillshawMemory {
    key_bits: usize,
    value_bits: usize,
    /// Row-major binary weight matrix: `w[v][k]` set iff some stored
    /// pair had key bit `k` and value bit `v` both active.
    weights: Vec<BitSet>,
    stored: usize,
}

impl WillshawMemory {
    /// Creates an empty memory between the given code widths.
    pub fn new(key_bits: usize, value_bits: usize) -> Self {
        Self {
            key_bits,
            value_bits,
            weights: (0..value_bits).map(|_| BitSet::new(key_bits)).collect(),
            stored: 0,
        }
    }

    /// Number of stored associations.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Stores `key -> value` by OR-ing the outer product into the
    /// binary matrix (one-shot Hebbian storage).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn store(&mut self, key: &BitSet, value: &BitSet) {
        assert_eq!(key.len(), self.key_bits, "key width mismatch");
        assert_eq!(value.len(), self.value_bits, "value width mismatch");
        for v in value.iter() {
            for k in key.iter() {
                self.weights[v].insert(k);
            }
        }
        self.stored += 1;
    }

    /// Per-value-bit overlap scores for `key`: how many of the key's
    /// active bits each value unit is connected to. Decoders that need
    /// a ranking (e.g. "which target class does this cue recall?") use
    /// these scores directly.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn recall_scores(&self, key: &BitSet) -> Vec<usize> {
        assert_eq!(key.len(), self.key_bits, "key width mismatch");
        self.weights.iter().map(|row| row.overlap(key)).collect()
    }

    /// Fraction of set weight bits (saturation). Willshaw capacity
    /// analysis says recall degrades as this approaches 0.5.
    // hnp-lint: allow(integer_purity): diagnostic capacity readout
    pub fn saturation(&self) -> f64 {
        let set: usize = self.weights.iter().map(|r| r.count()).sum();
        // hnp-lint: allow(integer_purity): diagnostic capacity readout
        set as f64 / (self.key_bits * self.value_bits) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thresholded recall: the value units whose stored key overlap
    /// reaches `threshold`.
    fn recall(mem: &WillshawMemory, key: &BitSet, threshold: usize) -> BitSet {
        let mut out = BitSet::new(mem.value_bits);
        for (v, score) in mem.recall_scores(key).into_iter().enumerate() {
            if score >= threshold {
                out.insert(v);
            }
        }
        out
    }

    fn random_code(bits: usize, active: usize, rng: &mut StdRng) -> BitSet {
        let mut s = BitSet::new(bits);
        while s.count() < active {
            s.insert(rng.gen_range(0..bits));
        }
        s
    }

    #[test]
    fn separator_produces_fixed_sparsity() {
        let sep = PatternSeparator::new(64, 256, 16, 8, 1);
        let p = BitSet::from_indices(64, &[1, 5, 9]);
        let code = sep.separate(&p);
        assert_eq!(code.count(), 16);
    }

    #[test]
    fn separator_separates_similar_patterns() {
        let sep = PatternSeparator::new(64, 512, 24, 8, 1);
        let a = BitSet::from_indices(64, &[1, 5, 9, 20]);
        let b = BitSet::from_indices(64, &[1, 5, 9, 21]); // One bit differs.
        let ca = sep.separate(&a);
        let cb = sep.separate(&b);
        // Codes differ (separation) but are not unrelated.
        assert!(ca != cb, "similar patterns must map to distinct codes");
    }

    #[test]
    fn separator_is_deterministic() {
        let sep = PatternSeparator::new(64, 256, 16, 8, 7);
        let p = BitSet::from_indices(64, &[3, 33, 63]);
        assert_eq!(sep.separate(&p), sep.separate(&p));
    }

    #[test]
    fn willshaw_recalls_stored_pairs_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mem = WillshawMemory::new(256, 256);
        let pairs: Vec<(BitSet, BitSet)> = (0..20)
            .map(|_| {
                (
                    random_code(256, 12, &mut rng),
                    random_code(256, 12, &mut rng),
                )
            })
            .collect();
        for (k, v) in &pairs {
            mem.store(k, v);
        }
        for (k, v) in &pairs {
            let r = recall(&mem, k, k.count());
            // Exact threshold recall returns a superset containing the
            // stored value; for low saturation it is exactly the value.
            for bit in v.iter() {
                assert!(r.contains(bit), "missing stored value bit {bit}");
            }
        }
        assert!(mem.saturation() < 0.2, "memory should be undersaturated");
    }

    #[test]
    fn willshaw_recall_degrades_with_saturation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mem = WillshawMemory::new(64, 64);
        let probe_k = random_code(64, 8, &mut rng);
        let probe_v = random_code(64, 8, &mut rng);
        mem.store(&probe_k, &probe_v);
        let clean = recall(&mem, &probe_k, probe_k.count());
        // Saturate with many random pairs.
        for _ in 0..500 {
            let k = random_code(64, 8, &mut rng);
            let v = random_code(64, 8, &mut rng);
            mem.store(&k, &v);
        }
        let noisy = recall(&mem, &probe_k, probe_k.count());
        assert!(mem.saturation() > 0.5);
        assert!(
            noisy.count() >= clean.count(),
            "saturated recall adds spurious bits"
        );
    }

    #[test]
    fn empty_memory_recall_is_empty() {
        let mem = WillshawMemory::new(32, 32);
        let k = BitSet::from_indices(32, &[1, 2, 3]);
        assert_eq!(recall(&mem, &k, 3).count(), 0);
    }
}
