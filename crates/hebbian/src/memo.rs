//! Memo of the fixed hidden layer's winner sets (DESIGN.md §12.4).
//!
//! Layer 1 never learns, so the k-WTA winner set of a forward pass is
//! a pure function of the active-input set. Online prefetching
//! presents the same few hundred input sets over and over, so
//! [`HebbianNetwork`](crate::HebbianNetwork) keeps the last winner set
//! seen for each input set in a direct-mapped table and skips layer 1
//! and k-WTA on a hit.
//!
//! Each slot also caches the layer-2 output scores of its winner set,
//! stamped with the network's layer-2 update clock, so a hit can
//! refresh only the output rows that changed since (DESIGN.md §12.4).
//!
//! Exactness: every lookup compares the full key, so a hit never
//! returns another input set's winners; `import_state`, the only
//! layer-1 change, bumps the generation, so a hit never returns
//! winners of older weights;
//! every store of new winners drops the slot's cached scores, so
//! scores are only ever returned for the winners they were computed
//! from.

/// Table slots; a power of two so the hash's top bits index it.
const SLOT_BITS: u32 = 10;
const SLOTS: usize = 1 << SLOT_BITS;

/// A remembered layer-1 result.
pub(crate) struct Hit<'a> {
    /// Winner bitset words over the hidden layer.
    pub winners: &'a [u64],
    /// Layer-1 ops of the pass that computed the entry.
    pub layer1_ops: usize,
    /// The slot holding the entry, for [`HiddenMemo::scores`] and
    /// [`HiddenMemo::put_scores`].
    pub slot: usize,
}

/// Layer-2 output scores cached with an entry.
pub(crate) struct CachedScores<'a> {
    /// One score per output class.
    pub scores: &'a [i32],
    /// Layer-2 ops of the full scatter that produced them.
    pub layer2_ops: usize,
    /// Layer-2 update clock at which the scores were exact.
    pub clock: u64,
}

/// Fixed-capacity, direct-mapped table from active-input set to
/// hidden winners and their output scores. Every buffer is allocated
/// at construction; lookups and stores never allocate.
#[derive(Clone)]
pub(crate) struct HiddenMemo {
    key_words: usize,
    winner_words: usize,
    outputs: usize,
    /// Layer-1 generation; slots stamped with another one are stale.
    generation: u64,
    /// Per-slot generation stamp; 0 marks a never-filled slot.
    stamps: Vec<u64>,
    keys: Vec<u64>,
    winners: Vec<u64>,
    layer1_ops: Vec<usize>,
    out_scores: Vec<i32>,
    layer2_ops: Vec<usize>,
    /// Per-slot layer-2 clock of the cached scores; 0 marks a slot
    /// whose winners have no scores yet.
    score_clocks: Vec<u64>,
    /// Disables lookups, so every pass recomputes layer 1: the
    /// reference path of the differential tests.
    #[cfg(test)]
    pub bypass: bool,
    /// Lookups answered from the table.
    #[cfg(test)]
    pub hits: u64,
}

impl HiddenMemo {
    /// A table for keys of `input_bits`, winner sets over `hidden`
    /// units, and scores over `outputs` classes.
    pub fn new(input_bits: usize, hidden: usize, outputs: usize) -> Self {
        let key_words = input_bits.div_ceil(64);
        let winner_words = hidden.div_ceil(64);
        Self {
            key_words,
            winner_words,
            outputs,
            generation: 1,
            stamps: vec![0; SLOTS],
            keys: vec![0; SLOTS * key_words],
            winners: vec![0; SLOTS * winner_words],
            layer1_ops: vec![0; SLOTS],
            out_scores: vec![0; SLOTS * outputs],
            layer2_ops: vec![0; SLOTS],
            score_clocks: vec![0; SLOTS],
            #[cfg(test)]
            bypass: false,
            #[cfg(test)]
            hits: 0,
        }
    }

    /// Forgets every entry: layer 1 was overwritten. O(1) — stale slots are
    /// recognised by their stamp and overwritten on their next store.
    pub fn invalidate(&mut self) {
        self.generation += 1;
    }

    /// The entry for `key` (active-input bitset words), if present and
    /// current.
    pub fn get(&mut self, key: &[u64]) -> Option<Hit<'_>> {
        #[cfg(test)]
        if self.bypass {
            return None;
        }
        let s = slot_of(key);
        let k = s * self.key_words;
        if self.stamps[s] != self.generation || self.keys[k..k + self.key_words] != *key {
            return None;
        }
        #[cfg(test)]
        {
            self.hits += 1;
        }
        let w = s * self.winner_words;
        Some(Hit {
            winners: &self.winners[w..w + self.winner_words],
            layer1_ops: self.layer1_ops[s],
            slot: s,
        })
    }

    /// Records the layer-1 result for `key`, evicting whatever shared
    /// its slot, and returns the slot. The entry has no cached scores
    /// until [`put_scores`](Self::put_scores).
    ///
    /// # Panics
    ///
    /// Panics if a slice length does not match the table geometry.
    pub fn put(&mut self, key: &[u64], winners: &[u64], layer1_ops: usize) -> usize {
        let s = slot_of(key);
        self.stamps[s] = self.generation;
        self.score_clocks[s] = 0;
        self.keys[s * self.key_words..(s + 1) * self.key_words].copy_from_slice(key);
        self.winners[s * self.winner_words..(s + 1) * self.winner_words].copy_from_slice(winners);
        self.layer1_ops[s] = layer1_ops;
        s
    }

    /// The output scores cached with the entry in `slot` (as returned
    /// by [`get`](Self::get) or [`put`](Self::put)), if any.
    pub fn scores(&self, slot: usize) -> Option<CachedScores<'_>> {
        let clock = self.score_clocks[slot];
        if clock == 0 {
            return None;
        }
        let o = slot * self.outputs;
        Some(CachedScores {
            scores: &self.out_scores[o..o + self.outputs],
            layer2_ops: self.layer2_ops[slot],
            clock,
        })
    }

    /// Caches `scores`, exact at layer-2 clock `clock` (nonzero), with
    /// the entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `scores` does not match the table geometry.
    pub fn put_scores(&mut self, slot: usize, scores: &[i32], layer2_ops: usize, clock: u64) {
        debug_assert!(clock > 0, "clock 0 marks an empty score cache");
        self.out_scores[slot * self.outputs..(slot + 1) * self.outputs].copy_from_slice(scores);
        self.layer2_ops[slot] = layer2_ops;
        self.score_clocks[slot] = clock;
    }
}

/// Deterministic multiplicative hash of the key words; the top
/// `SLOT_BITS` bits pick the slot.
fn slot_of(key: &[u64]) -> usize {
    let h = key.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    (h >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_same_key_and_generation() {
        let mut m = HiddenMemo::new(70, 130, 3);
        let key = [0b1011u64, 1];
        assert!(m.get(&key).is_none());
        m.put(&key, &[7, 0, 9], 42);
        let hit = m.get(&key).expect("stored");
        assert_eq!((hit.winners, hit.layer1_ops), (&[7, 0, 9][..], 42));
        assert!(m.get(&[0b1011, 0]).is_none(), "different key");
        m.invalidate();
        assert!(m.get(&key).is_none(), "stale generation");
    }

    #[test]
    fn colliding_keys_evict_each_other() {
        let mut m = HiddenMemo::new(64, 64, 1);
        let a = [1u64];
        let b = (2u64..)
            .map(|w| [w])
            .find(|k| slot_of(k) == slot_of(&a))
            .expect("some key collides");
        m.put(&a, &[1], 1);
        m.put(&b, &[2], 2);
        assert!(m.get(&a).is_none());
        assert_eq!(m.get(&b).expect("newest wins").winners, &[2]);
    }

    #[test]
    fn new_winners_drop_cached_scores() {
        let mut m = HiddenMemo::new(64, 64, 2);
        let s = m.put(&[1], &[1], 1);
        assert!(m.scores(s).is_none(), "a fresh entry has no scores");
        m.put_scores(s, &[5, -3], 9, 4);
        let hit = m.get(&[1]).expect("stored");
        assert_eq!(hit.slot, s);
        let cached = m.scores(s).expect("cached");
        assert_eq!(
            (cached.scores, cached.layer2_ops, cached.clock),
            (&[5, -3][..], 9, 4)
        );
        m.invalidate();
        assert_eq!(m.put(&[1], &[2], 1), s);
        assert!(m.scores(s).is_none(), "re-stored winners drop the scores");
    }
}
