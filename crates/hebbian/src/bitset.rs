//! A fixed-capacity bitset for active-unit membership tests.

/// A fixed-size bitset over `len` bits backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

// `len` is bit capacity, so an `is_empty` would mislead.
#[allow(clippy::len_without_is_empty)]
impl BitSet {
    /// Creates an empty bitset over `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Bit capacity.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The backing `u64` words, least-significant bits first: bit `i`
    /// lives at `words()[i / 64] & (1 << (i % 64))`. Exposed for
    /// word-at-a-time kernels (the Eq.-1 update walk in
    /// [`crate::sparse::SparseLayer::hebbian_update`]).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites every word with `words` (as returned by
    /// [`BitSet::words`] on a set of the same capacity).
    ///
    /// # Panics
    ///
    /// Panics if the word counts differ.
    pub(crate) fn copy_words_from(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {} out of range ({})", i, self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {} out of range ({})", i, self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {} out of range ({})", i, self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set-bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Number of bits set in both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn overlap(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
impl BitSet {
    /// Builds a bitset over `len` bits with the given bits set.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub(crate) fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut s = Self::new(len);
        for &i in indices {
            s.insert(i as usize);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(129));
        s.insert(129);
        s.insert(0);
        s.insert(64);
        assert!(s.contains(129) && s.contains(0) && s.contains(64));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = BitSet::from_indices(200, &[5, 190, 63, 64, 65]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![5, 63, 64, 65, 190]);
    }

    #[test]
    fn overlap_counts_intersection() {
        let a = BitSet::from_indices(100, &[1, 2, 3, 50]);
        let b = BitSet::from_indices(100, &[2, 3, 4, 99]);
        assert_eq!(a.overlap(&b), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = BitSet::from_indices(70, &[0, 69]);
        assert_ne!(s.count(), 0);
        s.clear();
        assert_eq!(s.count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }
}
