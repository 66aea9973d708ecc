//! The episodic-store abstraction and the associative (compressed)
//! backend.
//!
//! The paper describes the hippocampus as memorizing accesses "in a
//! compressed format, likely by separating each access and storing
//! them in an associative memory" (§3, citing Rolls). Two backends
//! implement the [`EpisodicStore`] interface:
//!
//! * the exact buffer ([`Hippocampus`](crate::Hippocampus)) used by the paper's
//!   experiments ("without resource limitations on the hippocampal
//!   storage"), with the §5.4 capacity policies;
//! * [`AssociativeHippocampus`], the compressed alternative: every
//!   episode's input pattern is re-coded by a fixed
//!   [`PatternSeparator`] and associated with its (target, recurrent
//!   context) value in a binary [`WillshawMemory`]. Storage is a
//!   fixed-size matrix regardless of episode count; recalled targets
//!   degrade gracefully (majority-like) as the matrix saturates. A
//!   small cue reservoir supplies replay seeds, since associative
//!   memories cannot be enumerated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hnp_hebbian::assoc::{PatternSeparator, WillshawMemory};
use hnp_hebbian::bitset::BitSet;

use crate::hippocampus::{CapacityPolicy, Episode, EpisodeRef};

/// Which episodic backend a CLS prefetcher uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpisodicBackend {
    /// The exact buffer with a §5.4 capacity policy.
    Exact(CapacityPolicy),
    /// The compressed associative store, sized by
    /// [`AssociativeConfig::sized`] from the prefetcher's encoder,
    /// recurrent width and vocabulary.
    Associative,
}

/// A store of training episodes supporting replay sampling.
pub trait EpisodicStore {
    /// Offers an episode, copying its vectors (into recycled storage
    /// where the backend keeps any).
    fn store_ref(&mut self, episode: EpisodeRef<'_>);
    /// Offers an owned episode; by default a wrapper over
    /// [`store_ref`](Self::store_ref).
    fn store_episode(&mut self, episode: Episode) {
        self.store_ref(episode.view());
    }
    /// Draws up to `k` episodes for replay, preferring phases other
    /// than `current_phase` when `prefer_other_phases` is set and the
    /// backend can honour it, and hands each to `visit` by reference
    /// (marking it replayed where the backend tracks that). Every
    /// replay form goes through this one draw.
    fn replay_each(
        &mut self,
        k: usize,
        current_phase: u64,
        prefer_other_phases: bool,
        rng: &mut StdRng,
        visit: &mut dyn FnMut(EpisodeRef<'_>),
    );
    /// Episodes currently stored (prototypes/cues for compressed
    /// backends).
    fn stored(&self) -> usize;
    /// Episodes ever offered.
    fn offered(&self) -> u64;
    /// Approximate storage footprint in bytes.
    fn storage_bytes(&self) -> usize;
}

/// Configuration of the associative backend.
#[derive(Debug, Clone)]
pub struct AssociativeConfig {
    /// Input-pattern space width (must cover the encoder's
    /// `pattern_bits`).
    pub pattern_bits: usize,
    /// Recurrent-state width (the value code's context section).
    pub recurrent_bits: usize,
    /// Target classes (the value code's target section).
    pub targets: usize,
    /// Separated key-code width.
    pub key_bits: usize,
    /// Active units per key code.
    pub key_active: usize,
    /// Replay-cue reservoir size.
    pub reservoir: usize,
    /// Seed for separation and reservoir sampling.
    pub seed: u64,
}

impl AssociativeConfig {
    /// A configuration sized for a CLS prefetcher with the given
    /// encoder width, recurrent width, and vocabulary.
    pub fn sized(pattern_bits: usize, recurrent_bits: usize, targets: usize) -> Self {
        Self {
            pattern_bits,
            recurrent_bits,
            targets,
            key_bits: 1024,
            key_active: 24,
            reservoir: 256,
            seed: 0xa550c,
        }
    }
}

/// The compressed associative episodic store.
pub struct AssociativeHippocampus {
    cfg: AssociativeConfig,
    separator: PatternSeparator,
    memory: WillshawMemory,
    /// Replay cues: `(pattern, recurrent, phase)` tuples kept by
    /// reservoir sampling.
    cues: Vec<(Vec<u32>, Vec<u32>, u64)>,
    offered: u64,
    rng: StdRng,
}

impl AssociativeHippocampus {
    /// Creates the store.
    pub fn new(cfg: AssociativeConfig) -> Self {
        let separator =
            PatternSeparator::new(cfg.pattern_bits, cfg.key_bits, cfg.key_active, 8, cfg.seed);
        let value_bits = cfg.targets + cfg.recurrent_bits;
        Self {
            separator,
            memory: WillshawMemory::new(cfg.key_bits, value_bits),
            cues: Vec::new(),
            offered: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xeca11),
            cfg,
        }
    }

    fn key_of(&self, pattern: &[u32]) -> BitSet {
        let p = BitSet::from_indices(self.cfg.pattern_bits, pattern);
        self.separator.separate(&p)
    }

    /// Recalls the consolidated target for an input pattern, with its
    /// overlap score.
    fn recall_target(&self, pattern: &[u32]) -> Option<(usize, usize)> {
        let key = self.key_of(pattern);
        let scores = self.memory.recall_scores(&key);
        scores[..self.cfg.targets]
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .filter(|&(_, &s)| s > 0)
            .map(|(t, &s)| (t, s))
    }
}

impl EpisodicStore for AssociativeHippocampus {
    fn store_ref(&mut self, e: EpisodeRef<'_>) {
        self.offered += 1;
        let key = self.key_of(e.pattern);
        let value_bits = self.cfg.targets + self.cfg.recurrent_bits;
        let mut value = BitSet::new(value_bits);
        if e.target < self.cfg.targets {
            value.insert(e.target);
        }
        for &r in e.recurrent {
            let bit = self.cfg.targets + r as usize;
            if bit < value_bits {
                value.insert(bit);
            }
        }
        self.memory.store(&key, &value);
        // Reservoir-sample the cue; a replaced cue's vectors are
        // reused.
        if self.cues.len() < self.cfg.reservoir {
            self.cues
                .push((e.pattern.to_vec(), e.recurrent.to_vec(), e.phase));
        } else {
            let j = self.rng.gen_range(0..self.offered as usize);
            if let Some((pattern, recurrent, phase)) = self.cues.get_mut(j) {
                pattern.clear();
                pattern.extend_from_slice(e.pattern);
                recurrent.clear();
                recurrent.extend_from_slice(e.recurrent);
                *phase = e.phase;
            }
        }
    }

    fn replay_each(
        &mut self,
        k: usize,
        current_phase: u64,
        prefer_other_phases: bool,
        rng: &mut StdRng,
        visit: &mut dyn FnMut(EpisodeRef<'_>),
    ) {
        if self.cues.is_empty() || k == 0 {
            return;
        }
        // Cues of other phases; empty means draw from every cue.
        let others: Vec<usize> = if prefer_other_phases {
            (0..self.cues.len())
                .filter(|&i| self.cues[i].2 != current_phase)
                .collect()
        } else {
            Vec::new()
        };
        for _ in 0..k {
            let i = if others.is_empty() {
                rng.gen_range(0..self.cues.len())
            } else {
                others[rng.gen_range(0..others.len())]
            };
            let (pattern, recurrent, phase) = &self.cues[i];
            // The target comes from associative recall: the
            // consolidated association for this cue, not a verbatim
            // record — merging of similar episodes is the compression.
            let Some((target, _)) = self.recall_target(pattern) else {
                continue;
            };
            visit(EpisodeRef {
                history: &[],
                pattern,
                recurrent,
                target,
                confidence: 0.0,
                stored_at: 0,
                phase: *phase,
            });
        }
    }

    fn stored(&self) -> usize {
        self.cues.len()
    }

    fn offered(&self) -> u64 {
        self.offered
    }

    fn storage_bytes(&self) -> usize {
        // The Willshaw matrix (1 bit per weight) plus the cue
        // reservoir.
        let matrix_bits = self.cfg.key_bits * (self.cfg.targets + self.cfg.recurrent_bits);
        matrix_bits / 8
            + self
                .cues
                .iter()
                .map(|(p, r, _)| p.len() * 4 + r.len() * 4 + 8)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hippocampus::Hippocampus;

    fn cfg() -> AssociativeConfig {
        AssociativeConfig::sized(64, 32, 16)
    }

    fn episode(pattern: Vec<u32>, target: usize) -> Episode {
        Episode {
            history: vec![target],
            pattern,
            recurrent: vec![1, 5],
            target,
            confidence: 0.5,
            stored_at: 0,
            phase: 0,
            replays: 0,
            weight: 1,
        }
    }

    #[test]
    fn recalls_stored_associations() {
        let mut h = AssociativeHippocampus::new(cfg());
        for t in 0..8usize {
            // Distinct patterns per target.
            h.store_episode(episode(vec![t as u32, (t + 20) as u32], t));
        }
        for t in 0..8usize {
            let (recalled, score) = h
                .recall_target(&[t as u32, (t + 20) as u32])
                .expect("recall");
            assert_eq!(recalled, t, "score {score}");
        }
    }

    #[test]
    fn replay_samples_come_from_recall() {
        let mut h = AssociativeHippocampus::new(cfg());
        for _ in 0..50 {
            h.store_episode(episode(vec![3, 9], 7));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut visited = 0;
        h.replay_each(4, 0, false, &mut rng, &mut |s| {
            visited += 1;
            assert_eq!(s.target, 7, "consolidated recall");
            assert_eq!(s.pattern, [3, 9]);
            assert!(s.history.is_empty(), "no token history is recalled");
        });
        assert!(visited > 0);
    }

    #[test]
    fn storage_is_bounded_regardless_of_episode_count() {
        let mut h = AssociativeHippocampus::new(cfg());
        let before = h.storage_bytes();
        for i in 0..5_000usize {
            h.store_episode(episode(vec![(i % 60) as u32], i % 16));
        }
        let after = h.storage_bytes();
        assert_eq!(h.offered(), 5_000);
        assert!(h.stored() <= 256, "reservoir bound");
        // Matrix is fixed; only the bounded reservoir grows.
        assert!(after < before + 256 * 64, "storage stays bounded: {after}");
    }

    #[test]
    fn recall_survives_saturating_content() {
        let mut h = AssociativeHippocampus::new(AssociativeConfig {
            key_bits: 128,
            key_active: 12,
            ..cfg()
        });
        h.store_episode(episode(vec![1, 2], 3));
        let clean = h.recall_target(&[1, 2]).unwrap();
        assert_eq!(clean.0, 3);
        for i in 0..2_000u32 {
            h.store_episode(episode(vec![i % 64, (i * 7) % 64], (i % 16) as usize));
        }
        // Recall still returns something, but no exactness guarantee.
        assert!(h.recall_target(&[1, 2]).is_some());
    }

    #[test]
    fn exact_backend_implements_the_trait_equivalently() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
        for t in 0..10usize {
            EpisodicStore::store_episode(&mut h, episode(vec![t as u32], t));
        }
        assert_eq!(EpisodicStore::stored(&h), 10);
        assert_eq!(EpisodicStore::offered(&h), 10);
        let mut rng = StdRng::seed_from_u64(2);
        let mut targets = Vec::new();
        h.replay_each(3, 0, false, &mut rng, &mut |e| targets.push(e.target));
        assert_eq!(targets.len(), 3);
        // Visited in descending index order, and each stored target
        // is its index.
        assert!(targets.windows(2).all(|w| w[0] > w[1]), "{targets:?}");
        assert!(h.episodes().iter().filter(|e| e.replays == 1).count() == 3);
        assert!(EpisodicStore::storage_bytes(&h) > 0);
    }
}
