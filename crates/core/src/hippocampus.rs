//! The hippocampal episodic store (§3.2, §5.4).
//!
//! The hippocampus in CLS theory "quickly memorizes the information it
//! encounters ... in a compressed format" and later feeds replay. The
//! paper's experiments assume unlimited storage; §5.4 lists the
//! practical policies a real implementation must choose between, all
//! of which are implemented here:
//!
//! * [`CapacityPolicy::Unbounded`] — the paper's experimental setup;
//! * [`CapacityPolicy::Ring`] — a fixed-size buffer, oldest (first
//!   stored) evicted;
//! * [`CapacityPolicy::ConfidenceFiltered`] — skip well-learned
//!   examples on entry, evict the highest-confidence first;
//! * [`CapacityPolicy::Consolidating`] — free episodes that have been
//!   replayed enough ("already consolidated due to replay, thus not
//!   needed further");
//! * [`CapacityPolicy::Averaging`] — merge similar episodes into
//!   weighted prototypes ("average similar examples, producing single
//!   representative cases").
//!
//! Storing and uniform sampling are O(1) per episode on the `Ring`
//! path: an age queue names the eviction victim and the sampler draws
//! without building an index array (DESIGN.md §12.6). The other
//! bounded policies scan the store to pick a victim.
//!
//! Neither allocates in steady state: [`EpisodicStore::store_ref`]
//! copies a borrowed episode into the vectors of the last evicted one,
//! and replay visits the drawn episodes in place through index scratch
//! the store owns (DESIGN.md §12.2).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use crate::episodic::EpisodicStore;

/// One stored training episode: the encoded input pattern and its
/// observed next-token target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Episode {
    /// The raw token history whose encoding is `pattern` (kept so
    /// generative replay can re-roll sequences and so episodes can be
    /// re-encoded under a different encoder).
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
    /// Merge weight (number of raw episodes behind a prototype).
    pub weight: u32,
}

impl Episode {
    /// The episode as a borrowed record.
    pub fn view(&self) -> EpisodeRef<'_> {
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityPolicy {
    /// Store everything (the paper's idealized setup).
    Unbounded,
    /// Fixed capacity; the episode stored first is evicted first.
    Ring {
        /// Maximum episodes.
        capacity: usize,
    },
    /// Skip examples the model already predicts with confidence above
    /// `skip_above`; when full, evict the highest-confidence episode.
    ConfidenceFiltered {
        /// Maximum episodes.
        capacity: usize,
        /// Entry filter threshold.
        skip_above: f32,
    },
    /// Drop episodes once replayed `max_replays` times; when full,
    /// evict the most-replayed episode.
    Consolidating {
        /// Maximum episodes.
        capacity: usize,
        /// Replays after which an episode is considered consolidated.
        max_replays: u32,
    },
    /// Merge a new episode into an existing same-target prototype when
    /// their pattern overlap (Jaccard) reaches `merge_overlap`; when
    /// full, evict the lightest prototype.
    Averaging {
        /// Maximum prototypes.
        capacity: usize,
        /// Jaccard similarity required to merge.
        merge_overlap: f64,
    },
}

/// The episodic store.
#[derive(Debug, Clone)]
pub struct Hippocampus {
    policy: CapacityPolicy,
    episodes: Vec<Episode>,
    /// Under [`CapacityPolicy::Ring`], the positions in `episodes`,
    /// first stored first. Eviction `swap_remove`s the front's
    /// position and every store pushes, so the last slot always holds
    /// the newest episode, `age.back()`. Empty under other policies.
    age: VecDeque<usize>,
    /// The episode a `Ring` evicted last, kept so
    /// [`EpisodicStore::store_ref`] can reuse its vectors.
    spare: Option<Episode>,
    /// Replay draw scratch: the drawn indices.
    replay_idx: Vec<usize>,
    /// Reference mode: evict by scanning for the smallest `stored_at`
    /// and sample over an index array, as the store did before `age`.
    #[cfg(test)]
    scan: bool,
    /// Raw episodes offered (including skipped/merged).
    offered: u64,
    /// Episodes rejected by the confidence filter.
    skipped: u64,
}

impl Hippocampus {
    /// Creates an empty store under `policy`.
    pub fn new(policy: CapacityPolicy) -> Self {
        Self {
            policy,
            episodes: Vec::new(),
            age: VecDeque::new(),
            spare: None,
            replay_idx: Vec::new(),
            #[cfg(test)]
            scan: false,
            offered: 0,
            skipped: 0,
        }
    }

    /// A store that evicts and samples by the O(n) scans: the
    /// reference the age queue and the index-free sampler are
    /// differential-tested against.
    #[cfg(test)]
    pub(crate) fn with_scans(policy: CapacityPolicy) -> Self {
        let mut h = Self::new(policy);
        h.scan = true;
        h
    }

    /// The storage policy.
    pub fn policy(&self) -> CapacityPolicy {
        self.policy
    }

    /// Stored episode count.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Raw episodes offered via [`store`](Self::store).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Episodes rejected by the confidence filter.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Read access to the stored episodes.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Offers an episode to the store; the policy decides whether and
    /// how it is kept. A bounded policy at capacity 0 keeps nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn store(
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

    /// The policy decision behind [`store`](Self::store) and
    /// [`EpisodicStore::store_ref`].
    fn insert(&mut self, episode: Episode) {
        self.offered += 1;
        match self.policy {
            CapacityPolicy::Unbounded => self.episodes.push(episode),
            CapacityPolicy::Ring { capacity } => {
                if self.episodes.len() >= capacity && !self.evict_oldest() {
                    return;
                }
                self.age.push_back(self.episodes.len());
                self.episodes.push(episode);
            }
            CapacityPolicy::ConfidenceFiltered {
                capacity,
                skip_above,
            } => {
                if episode.confidence > skip_above {
                    self.skipped += 1;
                    return;
                }
                if self.episodes.len() >= capacity {
                    let worst = self
                        .episodes
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.confidence.total_cmp(&b.1.confidence))
                        .map(|(i, _)| i);
                    // None only for an empty store at capacity 0.
                    let Some(worst) = worst else { return };
                    self.episodes.swap_remove(worst);
                }
                self.episodes.push(episode);
            }
            CapacityPolicy::Consolidating { capacity, .. } => {
                if self.episodes.len() >= capacity {
                    let most_replayed = self
                        .episodes
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, e)| e.replays)
                        .map(|(i, _)| i);
                    let Some(most_replayed) = most_replayed else {
                        return;
                    };
                    self.episodes.swap_remove(most_replayed);
                }
                self.episodes.push(episode);
            }
            CapacityPolicy::Averaging {
                capacity,
                merge_overlap,
            } => {
                if let Some(i) = self.find_mergeable(&episode, merge_overlap) {
                    self.episodes[i].weight += 1;
                    // Refresh recency/confidence toward the new sight.
                    self.episodes[i].stored_at = episode.stored_at;
                    self.episodes[i].confidence =
                        0.5 * (self.episodes[i].confidence + episode.confidence);
                    return;
                }
                if self.episodes.len() >= capacity {
                    let lightest = self
                        .episodes
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.weight)
                        .map(|(i, _)| i);
                    let Some(lightest) = lightest else { return };
                    self.episodes.swap_remove(lightest);
                }
                self.episodes.push(episode);
            }
        }
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

    /// Marks an episode as replayed once; under
    /// [`CapacityPolicy::Consolidating`] the episode is freed when it
    /// reaches the replay budget. Returns whether the episode was
    /// freed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn mark_replayed(&mut self, index: usize) -> bool {
        let e = &mut self.episodes[index];
        e.replays += 1;
        if let CapacityPolicy::Consolidating { max_replays, .. } = self.policy {
            if e.replays >= max_replays {
                self.episodes.swap_remove(index);
                return true;
            }
        }
        false
    }

    /// Clears all stored episodes.
    pub fn clear(&mut self) {
        self.episodes.clear();
        self.age.clear();
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

    /// The pre-queue eviction: the first position with the smallest
    /// `stored_at`. The queue is popped only to keep its length, which
    /// scan mode never reads otherwise.
    #[cfg(test)]
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

    fn find_mergeable(&self, episode: &Episode, threshold: f64) -> Option<usize> {
        self.episodes.iter().position(|e| {
            e.target == episode.target && jaccard(&e.pattern, &episode.pattern) >= threshold
        })
    }
}

impl EpisodicStore for Hippocampus {
    /// Copies the episode into the vectors of the last episode the
    /// store let go of. Once a bounded store is full every store evicts
    /// one, so a stream of similar episodes stores without allocating.
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
    /// each replayed after its visit: descending, so a `Consolidating`
    /// free (`swap_remove`) cannot move an episode still to be visited.
    /// No allocation once the index scratch has capacity, for
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
            self.mark_replayed(i);
        }
        self.replay_idx = idx;
    }

    fn stored(&self) -> usize {
        self.len()
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

/// Jaccard similarity of two sorted bit-index lists.
fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
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
    fn unbounded_keeps_everything() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
        for i in 0..1000u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
        }
        assert_eq!(h.len(), 1000);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 3 });
        for i in 0..8u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
            // The newest episode always sits in the last slot.
            assert_eq!(h.episodes().last().map(|e| e.stored_at), Some(i));
        }
        assert_eq!(h.len(), 3);
        let mut stored: Vec<u64> = h.episodes().iter().map(|e| e.stored_at).collect();
        stored.sort_unstable();
        assert_eq!(stored, vec![5, 6, 7]);
    }

    #[test]
    fn capacity_zero_keeps_nothing() {
        for policy in [
            CapacityPolicy::Ring { capacity: 0 },
            CapacityPolicy::ConfidenceFiltered {
                capacity: 0,
                skip_above: 0.9,
            },
            CapacityPolicy::Consolidating {
                capacity: 0,
                max_replays: 2,
            },
            CapacityPolicy::Averaging {
                capacity: 0,
                merge_overlap: 0.6,
            },
        ] {
            let mut h = Hippocampus::new(policy);
            for i in 0..3u64 {
                ep(&mut h, &[1], 0, 0.5, i);
            }
            assert!(h.is_empty(), "{policy:?}");
            assert_eq!(h.offered(), 3, "{policy:?}");
        }
    }

    #[test]
    fn confidence_filter_skips_well_learned() {
        let mut h = Hippocampus::new(CapacityPolicy::ConfidenceFiltered {
            capacity: 10,
            skip_above: 0.9,
        });
        ep(&mut h, &[1], 0, 0.95, 0); // Skipped.
        ep(&mut h, &[2], 0, 0.5, 1); // Kept.
        assert_eq!(h.len(), 1);
        assert_eq!(h.skipped(), 1);
    }

    #[test]
    fn confidence_filter_evicts_highest_confidence() {
        let mut h = Hippocampus::new(CapacityPolicy::ConfidenceFiltered {
            capacity: 2,
            skip_above: 0.9,
        });
        ep(&mut h, &[1], 0, 0.8, 0);
        ep(&mut h, &[2], 0, 0.2, 1);
        ep(&mut h, &[3], 0, 0.5, 2);
        assert_eq!(h.len(), 2);
        assert!(h.episodes().iter().all(|e| e.confidence < 0.8));
    }

    #[test]
    fn consolidation_frees_replayed_episodes() {
        let mut h = Hippocampus::new(CapacityPolicy::Consolidating {
            capacity: 10,
            max_replays: 2,
        });
        ep(&mut h, &[1], 0, 0.5, 0);
        assert!(!h.mark_replayed(0));
        assert!(h.mark_replayed(0), "second replay consolidates");
        assert!(h.is_empty());
    }

    #[test]
    fn averaging_merges_similar_same_target_episodes() {
        let mut h = Hippocampus::new(CapacityPolicy::Averaging {
            capacity: 10,
            merge_overlap: 0.6,
        });
        ep(&mut h, &[1, 2, 3, 4], 7, 0.5, 0);
        ep(&mut h, &[1, 2, 3, 5], 7, 0.7, 1); // Jaccard 3/5 = 0.6.
        assert_eq!(h.len(), 1);
        assert_eq!(h.episodes()[0].weight, 2);
        // Different target never merges.
        ep(&mut h, &[1, 2, 3, 4], 9, 0.5, 2);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn sampling_is_without_replacement_and_in_range() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
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
        let mut empty = Hippocampus::new(CapacityPolicy::Unbounded);
        assert!(replayed(&mut empty, 5, 0, false, &mut rng).is_empty());
    }

    #[test]
    fn other_phase_sampling_prefers_old_phases() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The age queue, the index-free sampler and the recycled
        /// `store_ref` vectors are invisible: the store keeps the same
        /// episodes in the same slots, samples and replays the same
        /// indices, and consumes the same RNG stream as the scans.
        #[test]
        fn queue_and_sampler_match_the_scans(
            capacity in 1usize..64,
            policy_pick in 0u8..3,
            seed in any::<u64>(),
            // (kind, index or k, phase, prefer other phases)
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0u64..3, any::<bool>()), 1..300),
        ) {
            let policy = match policy_pick {
                0 => CapacityPolicy::Ring { capacity },
                1 => CapacityPolicy::Unbounded,
                _ => CapacityPolicy::Consolidating { capacity, max_replays: 3 },
            };
            let mut fast = Hippocampus::new(policy);
            let mut reference = Hippocampus::with_scans(policy);
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            for (now, (kind, n, phase, prefer_other)) in ops.into_iter().enumerate() {
                let k = 1 + n % 7;
                match kind {
                    // The fast store stores every other episode through
                    // `store_ref`, recycling evicted vectors of another
                    // length.
                    0..=3 => {
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
                    }
                    4..=6 => prop_assert_eq!(
                        replayed(&mut fast, k, phase, prefer_other, &mut fast_rng),
                        replayed(&mut reference, k, phase, prefer_other, &mut reference_rng)
                    ),
                    _ if n < fast.len() => {
                        prop_assert_eq!(fast.mark_replayed(n), reference.mark_replayed(n))
                    }
                    _ => {}
                }
                prop_assert_eq!(fast.episodes(), reference.episodes());
                prop_assert_eq!(fast_rng.clone().next_u64(), reference_rng.clone().next_u64());
            }
        }
    }

    #[test]
    fn jaccard_corner_cases() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-9);
    }
}
