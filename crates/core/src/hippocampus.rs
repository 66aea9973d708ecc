//! The hippocampal episodic store (§3.2, §5.4).
//!
//! The hippocampus in CLS theory "quickly memorizes the information it
//! encounters ... in a compressed format" and later feeds replay. The
//! paper's experiments assume unlimited storage; §5.4 lists policies a
//! real implementation could choose between. The `ablate_replay`
//! harness measured them (EXPERIMENTS.md §5.4): a ring of 256 episodes
//! removed as many misses as an unbounded store, a confidence filter,
//! consolidation, averaging or an associative matrix, in less memory.
//! So the store is one thing, [`CapacityPolicy::Ring`]: a fixed-size
//! buffer whose first stored episode is evicted first.
//!
//! Storing and uniform sampling are O(1) per episode: an age queue
//! names the eviction victim and the sampler draws without building an
//! index array (DESIGN.md §12.6).
//!
//! Neither allocates in steady state: [`EpisodicStore::store_ref`]
//! copies a borrowed episode into the vectors of the last evicted one,
//! and replay visits the drawn episodes in place through index scratch
//! the store owns (DESIGN.md §12.2).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

/// One stored training episode: the encoded input pattern and its
/// observed next-token target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Episode {
    /// The raw token history whose encoding is `pattern`.
    pub history: Vec<usize>,
    /// Active pattern bits (sorted).
    pub pattern: Vec<u32>,
    /// The network's recurrent-state bits when the episode was
    /// recorded. Replay reinstates this context — replaying a pattern
    /// under the *current* context would potentiate its target on the
    /// wrong winner set and erode the true association.
    pub recurrent: Vec<u32>,
    /// Target class.
    pub target: usize,
    /// Model confidence on this example when it was stored.
    pub confidence: f32,
    /// Step counter at storage time.
    pub stored_at: u64,
    /// Phase tag from the phase detector (0 when untracked).
    pub phase: u64,
    /// Times this episode has been replayed.
    pub replays: u32,
    /// Raw episodes behind this one; the store keeps every episode at
    /// 1.
    pub weight: u32,
}

impl Episode {
    /// The episode as a borrowed record.
    fn view(&self) -> EpisodeRef<'_> {
        EpisodeRef {
            history: &self.history,
            pattern: &self.pattern,
            recurrent: &self.recurrent,
            target: self.target,
            confidence: self.confidence,
            stored_at: self.stored_at,
            phase: self.phase,
        }
    }
}

/// An episode whose vectors are borrowed: what a caller offers from
/// its own scratch, and what replay visits in place. The fields are
/// [`Episode`]'s; a stored episode starts unreplayed at weight 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeRef<'a> {
    /// The raw token history whose encoding is `pattern`.
    pub history: &'a [usize],
    /// Active pattern bits (sorted).
    pub pattern: &'a [u32],
    /// The recurrent-state bits when the episode was recorded.
    pub recurrent: &'a [u32],
    /// Target class.
    pub target: usize,
    /// Model confidence on this example when it was stored.
    pub confidence: f32,
    /// Step counter at storage time.
    pub stored_at: u64,
    /// Phase tag from the phase detector (0 when untracked).
    pub phase: u64,
}

/// Storage policy for the episodic buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityPolicy {
    /// Fixed capacity; the episode stored first is evicted first.
    Ring {
        /// Maximum episodes.
        capacity: usize,
    },
}

/// A store of training episodes supporting replay sampling.
/// [`Hippocampus`] is its one implementation.
pub trait EpisodicStore {
    /// Offers an episode, copying its vectors into recycled storage.
    fn store_ref(&mut self, episode: EpisodeRef<'_>);
    /// Offers an owned episode, moving its vectors in.
    fn store_episode(&mut self, episode: Episode);
    /// Draws up to `k` episodes for replay, preferring phases other
    /// than `current_phase` when `prefer_other_phases` is set, and
    /// hands each to `visit` by reference, marking it replayed. Every
    /// replay form goes through this one draw.
    fn replay_each(
        &mut self,
        k: usize,
        current_phase: u64,
        prefer_other_phases: bool,
        rng: &mut StdRng,
        visit: &mut dyn FnMut(EpisodeRef<'_>),
    );
    /// Episodes currently stored.
    fn stored(&self) -> usize;
    /// Episodes ever offered.
    fn offered(&self) -> u64;
    /// Approximate storage footprint in bytes.
    fn storage_bytes(&self) -> usize;
}

/// The episodic store: a ring of at most `capacity` episodes.
#[derive(Debug, Clone)]
pub struct Hippocampus {
    capacity: usize,
    episodes: Vec<Episode>,
    /// The positions in `episodes`, first stored first. Eviction
    /// `swap_remove`s the front's position and every store pushes, so
    /// the last slot always holds the newest episode, `age.back()`.
    age: VecDeque<usize>,
    /// The episode evicted last, kept so
    /// [`EpisodicStore::store_ref`] can reuse its vectors.
    spare: Option<Episode>,
    /// Replay draw scratch: the drawn indices.
    replay_idx: Vec<usize>,
    /// Reference mode: evict by scanning for the smallest `stored_at`
    /// and sample over an index array, as the store did before `age`.
    #[cfg(test)]
    scan: bool,
    /// Episodes ever offered.
    offered: u64,
}

impl Hippocampus {
    /// Creates an empty store under `policy`.
    pub fn new(policy: CapacityPolicy) -> Self {
        let CapacityPolicy::Ring { capacity } = policy;
        Self {
            capacity,
            episodes: Vec::new(),
            age: VecDeque::new(),
            spare: None,
            replay_idx: Vec::new(),
            #[cfg(test)]
            scan: false,
            offered: 0,
        }
    }

    /// Keeps `episode`, evicting the one stored first when the ring is
    /// full. A ring of capacity 0 keeps nothing.
    fn insert(&mut self, episode: Episode) {
        self.offered += 1;
        if self.episodes.len() >= self.capacity && !self.evict_oldest() {
            return;
        }
        self.age.push_back(self.episodes.len());
        self.episodes.push(episode);
    }

    /// Samples up to `k` episode indices uniformly without replacement
    /// into `out`.
    fn sample(&self, k: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        out.clear();
        let n = self.episodes.len();
        if n == 0 || k == 0 {
            return;
        }
        if k >= n {
            out.extend(0..n);
            return;
        }
        #[cfg(test)]
        if self.scan {
            *out = sample_by_index_array(n, k, rng);
            return;
        }
        // Partial Fisher-Yates over a virtual identity permutation of
        // 0..n: `moved` holds the (position, value) pairs that differ
        // from the identity, at most one per draw. Position `i` is
        // final once drawn (later draws start above it), so only `j`
        // needs recording, and not after the last draw.
        let mut moved: Vec<(usize, usize)> = Vec::with_capacity(k - 1);
        let value_at = |moved: &[(usize, usize)], p: usize| {
            moved.iter().find(|&&(q, _)| q == p).map_or(p, |&(_, v)| v)
        };
        for i in 0..k {
            let j = rng.gen_range(i..n);
            let (vi, vj) = (value_at(&moved, i), value_at(&moved, j));
            out.push(vj);
            if i + 1 < k {
                match moved.iter_mut().find(|(q, _)| *q == j) {
                    Some(slot) => slot.1 = vi,
                    None => moved.push((j, vi)),
                }
            }
        }
    }

    /// Samples up to `k` episodes into `out`, preferring phases other
    /// than `current_phase` (replay old contexts while learning a new
    /// one). Falls back to uniform sampling when no other phase is
    /// stored.
    fn sample_other_phases(
        &self,
        k: usize,
        current_phase: u64,
        rng: &mut impl Rng,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(
            self.episodes
                .iter()
                .enumerate()
                .filter(|(_, e)| e.phase != current_phase)
                .map(|(i, _)| i),
        );
        if out.is_empty() {
            return self.sample(k, rng, out);
        }
        if k >= out.len() {
            return;
        }
        let n = out.len();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            out.swap(i, j);
        }
        out.truncate(k);
    }

    /// Evicts the episode stored first; false when the store is empty
    /// (a ring of capacity 0).
    fn evict_oldest(&mut self) -> bool {
        #[cfg(test)]
        if self.scan {
            return self.evict_by_scan();
        }
        let Some(oldest) = self.age.pop_front() else {
            return false;
        };
        self.spare = Some(self.episodes.swap_remove(oldest));
        // The newest episode moved from the last slot into `oldest`.
        if oldest < self.episodes.len() {
            if let Some(newest) = self.age.back_mut() {
                *newest = oldest;
            }
        }
        true
    }
}

impl EpisodicStore for Hippocampus {
    /// Copies the episode into the vectors of the last episode the
    /// store let go of. Once the ring is full every store evicts one,
    /// so a stream of similar episodes stores without allocating.
    fn store_ref(&mut self, e: EpisodeRef<'_>) {
        let mut episode = self.spare.take().unwrap_or_default();
        copy_into(&mut episode.history, e.history);
        copy_into(&mut episode.pattern, e.pattern);
        copy_into(&mut episode.recurrent, e.recurrent);
        episode.target = e.target;
        episode.confidence = e.confidence;
        episode.stored_at = e.stored_at;
        episode.phase = e.phase;
        episode.replays = 0;
        episode.weight = 1;
        self.insert(episode);
    }

    /// Moves the episode in: nothing to copy.
    fn store_episode(&mut self, episode: Episode) {
        self.insert(Episode {
            replays: 0,
            weight: 1,
            ..episode
        });
    }

    /// Visits the drawn episodes in descending index order, marking
    /// each replayed after its visit. The order is the training order
    /// of the replayed examples, and the recorded results were taken
    /// with it. No allocation once the index scratch has capacity, for
    /// `k = 1` (the sampler records swaps only between draws).
    fn replay_each(
        &mut self,
        k: usize,
        current_phase: u64,
        prefer_other_phases: bool,
        rng: &mut StdRng,
        visit: &mut dyn FnMut(EpisodeRef<'_>),
    ) {
        let mut idx = std::mem::take(&mut self.replay_idx);
        if prefer_other_phases {
            self.sample_other_phases(k, current_phase, rng, &mut idx);
        } else {
            self.sample(k, rng, &mut idx);
        }
        idx.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &idx {
            visit(self.episodes[i].view());
            self.episodes[i].replays += 1;
        }
        self.replay_idx = idx;
    }

    fn stored(&self) -> usize {
        self.episodes.len()
    }

    fn offered(&self) -> u64 {
        self.offered
    }

    fn storage_bytes(&self) -> usize {
        self.episodes
            .iter()
            .map(|e| e.history.len() * 8 + e.pattern.len() * 4 + e.recurrent.len() * 4 + 32)
            .sum()
    }
}

/// Overwrites `dst` with `src`, reusing its capacity. A vector that
/// must grow is sized to the next power of two, so a recycled one
/// rarely has to grow again for a slightly longer episode (recurrent
/// states vary in length by a few bits).
fn copy_into<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    if dst.capacity() < src.len() {
        dst.reserve_exact(src.len().next_power_of_two());
    }
    dst.extend_from_slice(src);
}

/// Test-only construction and inspection.
#[cfg(test)]
impl Hippocampus {
    /// A store that evicts and samples by the O(n) scans: the
    /// reference the age queue and the index-free sampler are
    /// differential-tested against.
    pub(crate) fn with_scans(policy: CapacityPolicy) -> Self {
        let mut h = Self::new(policy);
        h.scan = true;
        h
    }

    /// Read access to the stored episodes, in slot order.
    pub(crate) fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Offers an episode built from its parts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store(
        &mut self,
        history: Vec<usize>,
        pattern: Vec<u32>,
        recurrent: Vec<u32>,
        target: usize,
        confidence: f32,
        now: u64,
        phase: u64,
    ) {
        self.insert(Episode {
            history,
            pattern,
            recurrent,
            target,
            confidence,
            stored_at: now,
            phase,
            replays: 0,
            weight: 1,
        });
    }

    /// The pre-queue eviction: the first position with the smallest
    /// `stored_at`. The queue is popped only to keep its length, which
    /// scan mode never reads otherwise.
    fn evict_by_scan(&mut self) -> bool {
        let oldest = self
            .episodes
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stored_at)
            .map(|(i, _)| i);
        let Some(oldest) = oldest else { return false };
        self.spare = Some(self.episodes.swap_remove(oldest));
        self.age.pop_front();
        true
    }
}

/// The pre-optimization sampler: partial Fisher-Yates over an
/// explicit index array of `0..n`.
#[cfg(test)]
fn sample_by_index_array(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn ep(h: &mut Hippocampus, bits: &[u32], target: usize, conf: f32, now: u64) {
        h.store(vec![target], bits.to_vec(), vec![], target, conf, now, 0);
    }

    /// The `stored_at` stamps of the episodes one replay draw visits,
    /// in visiting order.
    fn replayed(
        h: &mut Hippocampus,
        k: usize,
        phase: u64,
        prefer_other: bool,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        let mut stamps = Vec::new();
        h.replay_each(k, phase, prefer_other, rng, &mut |e| {
            stamps.push(e.stored_at)
        });
        stamps
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 3 });
        for i in 0..8u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
            // The newest episode always sits in the last slot.
            assert_eq!(h.episodes().last().map(|e| e.stored_at), Some(i));
        }
        assert_eq!(h.stored(), 3);
        let mut stored: Vec<u64> = h.episodes().iter().map(|e| e.stored_at).collect();
        stored.sort_unstable();
        assert_eq!(stored, vec![5, 6, 7]);
    }

    #[test]
    fn capacity_zero_keeps_nothing() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 0 });
        for i in 0..3u64 {
            ep(&mut h, &[1], 0, 0.5, i);
        }
        assert_eq!(h.stored(), 0);
        assert_eq!(h.offered(), 3);
    }

    #[test]
    fn sampling_is_without_replacement_and_in_range() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 64 });
        for i in 0..20u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let s = replayed(&mut h, 8, 0, false, &mut rng);
        assert_eq!(s.len(), 8);
        let set: std::collections::HashSet<u64> = s.iter().copied().collect();
        assert_eq!(set.len(), 8);
        assert!(s.iter().all(|&i| i < 20));
        // k > n returns everything.
        assert_eq!(replayed(&mut h, 100, 0, false, &mut rng).len(), 20);
        // Empty store returns nothing.
        let mut empty = Hippocampus::new(CapacityPolicy::Ring { capacity: 64 });
        assert!(replayed(&mut empty, 5, 0, false, &mut rng).is_empty());
    }

    #[test]
    fn other_phase_sampling_prefers_old_phases() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 64 });
        for i in 0..10u64 {
            h.store(
                vec![0],
                vec![i as u32],
                vec![],
                0,
                0.5,
                i,
                if i < 5 { 1 } else { 2 },
            );
        }
        let mut rng = StdRng::seed_from_u64(2);
        let s = replayed(&mut h, 3, 2, true, &mut rng);
        assert_eq!(s.len(), 3);
        // Phase-1 episodes were stored at steps 0..5.
        assert!(s.iter().all(|&stored_at| stored_at < 5), "{s:?}");
    }

    #[test]
    fn exact_backend_implements_the_trait_equivalently() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 16 });
        for t in 0..10usize {
            h.store_episode(Episode {
                history: vec![t],
                pattern: vec![t as u32],
                recurrent: vec![1, 5],
                target: t,
                confidence: 0.5,
                stored_at: 0,
                phase: 0,
                replays: 0,
                weight: 1,
            });
        }
        assert_eq!(h.stored(), 10);
        assert_eq!(h.offered(), 10);
        let mut rng = StdRng::seed_from_u64(2);
        let mut targets = Vec::new();
        h.replay_each(3, 0, false, &mut rng, &mut |e| targets.push(e.target));
        assert_eq!(targets.len(), 3);
        // Visited in descending index order, and each stored target
        // is its index.
        assert!(targets.windows(2).all(|w| w[0] > w[1]), "{targets:?}");
        assert!(h.episodes().iter().filter(|e| e.replays == 1).count() == 3);
        assert!(h.storage_bytes() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The age queue, the index-free sampler and the recycled
        /// `store_ref` vectors are invisible: the ring keeps the same
        /// episodes in the same slots, samples and replays the same
        /// indices, and consumes the same RNG stream as the scans.
        #[test]
        fn queue_and_sampler_match_the_scans(
            capacity in 1usize..64,
            seed in any::<u64>(),
            // (kind, index or k, phase, prefer other phases)
            ops in proptest::collection::vec((0u8..7, 0usize..64, 0u64..3, any::<bool>()), 1..300),
        ) {
            let policy = CapacityPolicy::Ring { capacity };
            let mut fast = Hippocampus::new(policy);
            let mut reference = Hippocampus::with_scans(policy);
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            for (now, (kind, n, phase, prefer_other)) in ops.into_iter().enumerate() {
                let k = 1 + n % 7;
                if kind <= 3 {
                    // The fast store stores every other episode through
                    // `store_ref`, recycling evicted vectors of another
                    // length.
                    let recurrent: Vec<u32> = (0..n as u32 % 5).collect();
                    let (target, now) = (n % 8, now as u64);
                    reference.store(vec![n], vec![n as u32], recurrent.clone(), target, 0.5, now, phase);
                    if kind % 2 == 0 {
                        fast.store(vec![n], vec![n as u32], recurrent, target, 0.5, now, phase);
                    } else {
                        fast.store_ref(EpisodeRef {
                            history: &[n],
                            pattern: &[n as u32],
                            recurrent: &recurrent,
                            target,
                            confidence: 0.5,
                            stored_at: now,
                            phase,
                        });
                    }
                } else {
                    prop_assert_eq!(
                        replayed(&mut fast, k, phase, prefer_other, &mut fast_rng),
                        replayed(&mut reference, k, phase, prefer_other, &mut reference_rng)
                    );
                }
                prop_assert_eq!(fast.episodes(), reference.episodes());
                prop_assert_eq!(fast_rng.clone().next_u64(), reference_rng.clone().next_u64());
            }
        }
    }
}
