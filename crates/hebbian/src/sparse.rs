//! Sparsely connected integer weight layers with the Eq.-1 Hebbian
//! update.
//!
//! Connectivity is fixed at construction: every output unit draws a
//! fixed-size random subset of input units (the paper's "a node
//! connects to only 1-25 % of the nodes in adjacent layers"). Weights
//! are `i16`, clamped to a configurable magnitude; all arithmetic on
//! the forward and update paths is integer.
//!
//! The layer keeps one canonical slot-ordered weight array plus an
//! input-major view of it:
//!
//! * **input-major CSR** for the forward pass (which iterates the few
//!   *active* inputs): flat per-edge arrays bucketed by input via
//!   `offsets` — input `i`'s fan-out occupies positions
//!   `offsets[i]..offsets[i + 1]` of `edge_out`, `edge_slot`, and
//!   `edge_weights`. The weight *mirror* makes the inner accumulation
//!   loop read two sequential streams (output index + weight) with no
//!   random load at all; the canonical slot-ordered `weights` array
//!   would otherwise cost a scattered 48-KB-range fetch per edge. The
//!   update paths write weights through `edge_of_slot` to keep the
//!   mirror coherent.
//! * **slot order** for the Eq.-1 update and the row gather (which
//!   walk all incoming connections of one output): one pass over the
//!   row's canonical slots `o * fan_in..(o + 1) * fan_in`, reading
//!   each source's activity as `(words[src >> 6] >> (src & 63)) & 1`
//!   from the active-input words and folding it into the arithmetic,
//!   so the loop has no data-dependent branch. The update clamps in
//!   `i32`, which equals the `i16` saturate-then-clamp for any clamp
//!   up to `i16::MAX`, and stores the mirror unconditionally
//!   (DESIGN.md §12.1).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::bitset::BitSet;

/// A sparse integer-weight layer.
#[derive(Debug, Clone)]
pub struct SparseLayer {
    inputs: usize,
    outputs: usize,
    /// Incoming connections per output unit.
    fan_in: usize,
    /// Weight magnitude clamp.
    clamp: i16,
    /// Flat weight storage, one slot per connection, grouped by output:
    /// slot `o * fan_in + j` is output `o`'s `j`-th incoming weight.
    weights: Vec<i16>,
    /// `sources[o * fan_in + j]` = input index of that connection.
    sources: Vec<u32>,
    /// CSR: output unit of each edge, grouped by input.
    edge_out: Vec<u32>,
    /// CSR: canonical weight slot of each edge.
    edge_slot: Vec<u32>,
    /// CSR: weight mirror in edge order (kept coherent with `weights`
    /// by every update path), so `forward` streams sequentially.
    edge_weights: Vec<i16>,
    /// Inverse of `edge_slot`: the edge position of each weight slot.
    edge_of_slot: Vec<u32>,
    /// CSR bucket bounds: input `i` owns edge positions
    /// `offsets[i] as usize .. offsets[i + 1] as usize` (length
    /// `inputs + 1`).
    offsets: Vec<u32>,
}

impl SparseLayer {
    /// Builds a layer of `outputs` units, each sampling
    /// `ceil(connectivity * inputs)` distinct incoming connections,
    /// with initial weights uniform in `[-init_mag, init_mag]`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero, `connectivity` is outside
    /// `(0, 1]`, or `init_mag` is negative or above `clamp` (every
    /// weight stays within the clamp, which the branch-free updates
    /// rely on).
    pub fn new(
        inputs: usize,
        outputs: usize,
        // hnp-lint: allow(integer_purity): construction-time geometry
        connectivity: f64,
        clamp: i16,
        init_mag: i16,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(inputs > 0 && outputs > 0, "zero-sized layer");
        assert!(
            // hnp-lint: allow(integer_purity): construction-time geometry
            connectivity > 0.0 && connectivity <= 1.0,
            "connectivity must be in (0, 1]"
        );
        assert!(clamp > 0, "clamp must be positive");
        assert!(
            (0..=clamp).contains(&init_mag),
            "init_mag must be in 0..=clamp"
        );
        // hnp-lint: allow(integer_purity): construction-time geometry
        let fan_in = ((inputs as f64 * connectivity).ceil() as usize).max(1);
        let mut weights = vec![0i16; outputs * fan_in];
        let mut sources = vec![0u32; outputs * fan_in];
        let mut pool: Vec<u32> = (0..inputs as u32).collect();
        for o in 0..outputs {
            pool.shuffle(rng);
            for (j, &i) in pool[..fan_in].iter().enumerate() {
                let slot = o * fan_in + j;
                sources[slot] = i;
                // Random initial weights break winner ties; wider
                // ranges give a fixed layer better pattern separation.
                weights[slot] = rng.gen_range(-init_mag..=init_mag);
            }
        }

        // Input-major CSR: count fan-out per input, prefix-sum into
        // bucket offsets, then fill in (output, slot) order — the same
        // edge order the old jagged `Vec<Vec<_>>` produced, so forward
        // accumulation (and its ops count) is bit-identical.
        let mut offsets = vec![0u32; inputs + 1];
        for &src in &sources {
            offsets[src as usize + 1] += 1;
        }
        for i in 0..inputs {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..inputs].to_vec();
        let mut edge_out = vec![0u32; sources.len()];
        let mut edge_slot = vec![0u32; sources.len()];
        let mut edge_of_slot = vec![0u32; sources.len()];
        for o in 0..outputs {
            for j in 0..fan_in {
                let slot = o * fan_in + j;
                let src = sources[slot] as usize;
                let e = cursor[src] as usize;
                edge_out[e] = o as u32;
                edge_slot[e] = slot as u32;
                edge_of_slot[slot] = e as u32;
                cursor[src] += 1;
            }
        }
        let edge_weights: Vec<i16> = edge_slot.iter().map(|&s| weights[s as usize]).collect();

        Self {
            inputs,
            outputs,
            fan_in,
            clamp,
            weights,
            sources,
            edge_out,
            edge_slot,
            edge_weights,
            edge_of_slot,
            offsets,
        }
    }

    /// Incoming connections per output unit.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Total number of connections (the layer's parameter count).
    pub fn param_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of outgoing connections of input `i` (its CSR bucket
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[cfg(test)]
    pub(crate) fn fan_out(&self, input: u32) -> usize {
        let i = input as usize;
        assert!(i < self.inputs, "input out of range");
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Accumulates `scores[o] += w(i, o)` for every present connection
    /// from each active input `i`. Returns the number of integer
    /// operations performed.
    ///
    /// # Panics
    ///
    /// Panics if `scores` has the wrong length or an input index is out
    /// of range.
    pub fn forward(&self, active_inputs: &[u32], scores: &mut [i32]) -> usize {
        assert_eq!(scores.len(), self.outputs, "score buffer length mismatch");
        let mut ops = 0;
        for &i in active_inputs {
            let lo = self.offsets[i as usize] as usize;
            let hi = self.offsets[i as usize + 1] as usize;
            for (&o, &w) in self.edge_out[lo..hi].iter().zip(&self.edge_weights[lo..hi]) {
                scores[o as usize] += w as i32;
            }
            ops += hi - lo;
        }
        ops
    }

    /// The canonical slot range of `output`'s incoming connections.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `active_inputs` has the
    /// wrong capacity.
    fn row(&self, output: u32, active_inputs: &BitSet) -> std::ops::Range<usize> {
        assert!((output as usize) < self.outputs, "output out of range");
        assert_eq!(active_inputs.len(), self.inputs, "bitset capacity mismatch");
        let base = output as usize * self.fan_in;
        base..base + self.fan_in
    }

    /// The score [`forward`](Self::forward) would accumulate into
    /// `output` from the inputs in `active_inputs`: the sum of the
    /// row's weights from active sources, gathered in slot order. Lets
    /// a caller refresh a few rows of a cached score vector without
    /// re-scattering every active input.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `active_inputs` has the
    /// wrong capacity.
    pub fn row_score(&self, output: u32, active_inputs: &BitSet) -> i32 {
        let row = self.row(output, active_inputs);
        let words = active_inputs.words();
        self.weights[row.clone()]
            .iter()
            .zip(&self.sources[row])
            .map(|(&w, &src)| w as i32 * active_bit(words, src))
            .sum()
    }

    /// Applies the paper's Eq.-1 Hebbian update for one active output:
    /// every incoming weight from an active input is incremented by
    /// `pot` (potentiation), every incoming weight from an inactive
    /// input decremented by `dep` (depression), saturating at the
    /// clamp. Returns integer ops performed.
    ///
    /// One branch-free pass over the row's slots: the source's bit
    /// selects the delta arithmetically, the sum is clamped in `i32`
    /// (equal to the `i16` saturate-then-clamp for any clamp up to
    /// `i16::MAX`, so extreme clamps cannot overflow), and the mirror
    /// is stored whether or not the value changed.
    ///
    /// Eq. 1 as printed is symmetric (`pot == dep`); asymmetric
    /// magnitudes (LTP > LTD, as in biological synapses) are required
    /// when one output class must respond in several distinct contexts,
    /// because symmetric depression cancels everything outside the
    /// intersection of the contexts' winner sets. See DESIGN.md.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `active_inputs` has the
    /// wrong capacity.
    pub fn hebbian_update(
        &mut self,
        output: u32,
        active_inputs: &BitSet,
        pot: i16,
        dep: i16,
    ) -> usize {
        let row = self.row(output, active_inputs);
        let words = active_inputs.words();
        let (pot, ltd) = (pot as i32, dep.saturating_neg() as i32);
        let clamp = self.clamp as i32;
        for ((w, &src), &edge) in self.weights[row.clone()]
            .iter_mut()
            .zip(&self.sources[row.clone()])
            .zip(&self.edge_of_slot[row])
        {
            let delta = ltd + active_bit(words, src) * (pot - ltd);
            *w = (*w as i32 + delta).clamp(-clamp, clamp) as i16;
            self.edge_weights[edge as usize] = *w;
        }
        2 * self.fan_in
    }

    /// Anti-Hebbian depression of one output: decrements incoming
    /// weights from *active* inputs by `step` (used to push down a
    /// false winner), saturating at the clamp. Returns integer ops
    /// performed: two per active input. Branch-free like
    /// [`hebbian_update`](Self::hebbian_update).
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `active_inputs` has the
    /// wrong capacity.
    pub fn anti_update(&mut self, output: u32, active_inputs: &BitSet, step: i16) -> usize {
        let row = self.row(output, active_inputs);
        let words = active_inputs.words();
        let (step, clamp) = (step as i32, self.clamp as i32);
        let mut active = 0;
        for ((w, &src), &edge) in self.weights[row.clone()]
            .iter_mut()
            .zip(&self.sources[row.clone()])
            .zip(&self.edge_of_slot[row])
        {
            let bit = active_bit(words, src);
            active += bit;
            *w = (*w as i32 - bit * step).clamp(-clamp, clamp) as i16;
            self.edge_weights[edge as usize] = *w;
        }
        2 * active as usize
    }

    /// Flat view of every connection weight, grouped by output unit
    /// (slot `o * fan_in + j`). Connectivity is reproduced from the
    /// construction seed, so this is the layer's entire learned state;
    /// pair with [`SparseLayer::set_weights`] for snapshot/restore.
    /// The slot layout is independent of the adjacency encoding, so
    /// snapshots taken before the CSR refactor restore unchanged.
    pub fn weights(&self) -> &[i16] {
        &self.weights
    }

    /// Whether `w` could be installed by
    /// [`SparseLayer::set_weights`]: right length, every value within
    /// the clamp.
    pub fn accepts_weights(&self, w: &[i16]) -> bool {
        w.len() == self.weights.len() && w.iter().all(|&v| (-self.clamp..=self.clamp).contains(&v))
    }

    /// Overwrites all connection weights from a flat slice previously
    /// read via [`SparseLayer::weights`] on an identically-shaped
    /// layer. Returns `false` — leaving the layer untouched — when
    /// [`SparseLayer::accepts_weights`] rejects the slice.
    pub fn set_weights(&mut self, w: &[i16]) -> bool {
        if !self.accepts_weights(w) {
            return false;
        }
        self.weights.copy_from_slice(w);
        for (mirror, &slot) in self.edge_weights.iter_mut().zip(&self.edge_slot) {
            *mirror = self.weights[slot as usize];
        }
        true
    }
}

#[cfg(test)]
impl SparseLayer {
    /// The weight of the connection into `output` from `input`, if the
    /// connection exists.
    pub(crate) fn weight(&self, input: u32, output: u32) -> Option<i16> {
        let base = output as usize * self.fan_in;
        (0..self.fan_in)
            .find(|&j| self.sources[base + j] == input)
            .map(|j| self.weights[base + j])
    }
}

/// Bit `src` of the active-input words as 0 or 1.
#[inline(always)]
fn active_bit(words: &[u64], src: u32) -> i32 {
    ((words[(src >> 6) as usize] >> (src & 63)) & 1) as i32
}

/// Pre-optimization reference kernels, kept verbatim for the
/// differential proptests (`crate::differential`): the jagged-walk
/// forward and the per-connection-branch Eq.-1 update, operating on
/// the same slot layout as the optimized layer.
///
/// The update references write only the canonical `weights` array and
/// leave the `edge_weights` mirror stale — a layer driven through them
/// must also be probed through [`forward_ref`], never the optimized
/// `forward`.
#[cfg(test)]
pub(crate) mod reference {
    use super::SparseLayer;
    use crate::bitset::BitSet;

    /// The old input-major forward: walk every active input's edge
    /// list in identical order, loading each weight through the
    /// canonical slot-ordered array (the random-access path the
    /// `edge_weights` mirror replaced).
    pub(crate) fn forward_ref(layer: &SparseLayer, active_inputs: &[u32], scores: &mut [i32]) {
        assert_eq!(scores.len(), layer.outputs);
        for &i in active_inputs {
            let lo = layer.offsets[i as usize] as usize;
            let hi = layer.offsets[i as usize + 1] as usize;
            for (&o, &slot) in layer.edge_out[lo..hi].iter().zip(&layer.edge_slot[lo..hi]) {
                scores[o as usize] += layer.weights[slot as usize] as i32;
            }
        }
    }

    /// The old Eq.-1 update: slot-order walk with a per-connection
    /// `BitSet::contains` branch (plus the saturating-add bugfix, so
    /// extreme clamps compare equal too).
    pub(crate) fn hebbian_update_ref(
        layer: &mut SparseLayer,
        output: u32,
        active_inputs: &BitSet,
        pot: i16,
        dep: i16,
    ) {
        let base = output as usize * layer.fan_in;
        for j in 0..layer.fan_in {
            let slot = base + j;
            let src = layer.sources[slot] as usize;
            let delta = if active_inputs.contains(src) {
                pot
            } else {
                dep.saturating_neg()
            };
            layer.weights[slot] = layer.weights[slot]
                .saturating_add(delta)
                .clamp(-layer.clamp, layer.clamp);
        }
    }

    /// The old anti-Hebbian update, per-connection branch form.
    pub(crate) fn anti_update_ref(
        layer: &mut SparseLayer,
        output: u32,
        active_inputs: &BitSet,
        step: i16,
    ) {
        let base = output as usize * layer.fan_in;
        for j in 0..layer.fan_in {
            let slot = base + j;
            if active_inputs.contains(layer.sources[slot] as usize) {
                layer.weights[slot] = layer.weights[slot]
                    .saturating_sub(step)
                    .clamp(-layer.clamp, layer.clamp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(inputs: usize, outputs: usize, conn: f64) -> SparseLayer {
        let mut rng = StdRng::seed_from_u64(11);
        SparseLayer::new(inputs, outputs, conn, 64, 1, &mut rng)
    }

    #[test]
    fn connectivity_fixes_fan_in() {
        let l = layer(256, 100, 0.125);
        assert_eq!(l.fan_in(), 32);
        assert_eq!(l.param_count(), 3200);
    }

    #[test]
    fn forward_only_touches_active_fan_out() {
        let l = layer(64, 32, 0.25);
        let mut scores = vec![0i32; 32];
        let ops = l.forward(&[3], &mut scores);
        // Input 3's fan-out is roughly connectivity * outputs; ops must
        // equal the edges touched exactly.
        assert_eq!(ops, l.fan_out(3));
    }

    #[test]
    fn csr_buckets_partition_all_edges() {
        let l = layer(64, 32, 0.25);
        let total: usize = (0..64).map(|i| l.fan_out(i)).sum();
        assert_eq!(total, l.param_count());
        assert_eq!(l.offsets[0], 0);
        assert_eq!(*l.offsets.last().unwrap() as usize, l.edge_out.len());
        // The mirror and its inverse map agree with the canonical
        // slot-ordered weights.
        for e in 0..l.edge_slot.len() {
            let slot = l.edge_slot[e] as usize;
            assert_eq!(l.edge_of_slot[slot] as usize, e);
            assert_eq!(l.edge_weights[e], l.weights[slot]);
        }
    }

    #[test]
    fn hebbian_update_potentiates_active_and_depresses_inactive() {
        let mut l = layer(16, 4, 1.0); // Full connectivity for determinism.
        let active = BitSet::from_indices(16, &[2, 5]);
        let w2_before = l.weight(2, 1).unwrap();
        let w7_before = l.weight(7, 1).unwrap();
        l.hebbian_update(1, &active, 3, 3);
        assert_eq!(l.weight(2, 1).unwrap(), (w2_before + 3).clamp(-64, 64));
        assert_eq!(l.weight(7, 1).unwrap(), (w7_before - 3).clamp(-64, 64));
    }

    #[test]
    fn weights_clamp_at_bounds() {
        let mut l = layer(8, 2, 1.0);
        let active = BitSet::from_indices(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        for _ in 0..100 {
            l.hebbian_update(0, &active, 10, 10);
        }
        for i in 0..8 {
            assert_eq!(l.weight(i, 0).unwrap(), 64);
        }
    }

    #[test]
    fn update_saturates_at_extreme_clamp() {
        // Regression: with `clamp` near `i16::MAX` the old
        // `weights[slot] + delta` overflowed `i16` (panic in debug,
        // wrap in release) before the clamp could apply.
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = SparseLayer::new(8, 2, 1.0, i16::MAX, 0, &mut rng);
        let active = BitSet::from_indices(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        for _ in 0..3 {
            l.hebbian_update(0, &active, i16::MAX, 0);
        }
        for i in 0..8 {
            assert_eq!(l.weight(i, 0).unwrap(), i16::MAX);
        }
        // And the depression/anti side saturates at the negative end.
        let none = BitSet::new(8);
        for _ in 0..3 {
            l.hebbian_update(1, &none, 0, i16::MAX);
        }
        for i in 0..8 {
            assert_eq!(l.weight(i, 1).unwrap(), -i16::MAX);
        }
        for _ in 0..3 {
            l.anti_update(1, &active, i16::MAX);
        }
        for i in 0..8 {
            assert_eq!(l.weight(i, 1).unwrap(), -i16::MAX);
        }
    }

    #[test]
    fn anti_update_only_touches_active_inputs() {
        let mut l = layer(8, 2, 1.0);
        let active = BitSet::from_indices(8, &[1]);
        let w1 = l.weight(1, 0).unwrap();
        let w2 = l.weight(2, 0).unwrap();
        l.anti_update(0, &active, 5);
        assert_eq!(l.weight(1, 0).unwrap(), (w1 - 5).clamp(-64, 64));
        assert_eq!(l.weight(2, 0).unwrap(), w2);
    }

    #[test]
    fn repeated_association_raises_score() {
        let mut l = layer(32, 8, 0.5);
        let active_vec: Vec<u32> = vec![4, 9, 13];
        let active = BitSet::from_indices(32, &active_vec);
        let mut before = vec![0i32; 8];
        l.forward(&active_vec, &mut before);
        for _ in 0..10 {
            l.hebbian_update(6, &active, 1, 1);
        }
        let mut after = vec![0i32; 8];
        l.forward(&active_vec, &mut after);
        assert!(
            after[6] > before[6],
            "association should strengthen: {} -> {}",
            before[6],
            after[6]
        );
    }

    #[test]
    fn row_score_equals_the_forward_scatter() {
        let mut l = layer(150, 9, 0.25);
        let active_vec: Vec<u32> = vec![0, 5, 63, 64, 100, 127, 128, 149];
        let active = BitSet::from_indices(150, &active_vec);
        for o in [2, 7] {
            l.hebbian_update(o, &active, 3, 1);
        }
        let mut scores = vec![0i32; 9];
        l.forward(&active_vec, &mut scores);
        for (o, &s) in scores.iter().enumerate() {
            assert_eq!(l.row_score(o as u32, &active), s, "row {o}");
        }
    }

    #[test]
    fn deterministic_construction_from_seed() {
        let a = layer(64, 64, 0.125);
        let b = layer(64, 64, 0.125);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.edge_out, b.edge_out);
        assert_eq!(a.edge_slot, b.edge_slot);
        assert_eq!(a.offsets, b.offsets);
    }

    const INPUTS: usize = 24;
    const OUTPUTS: usize = 10;
    const CLAMP: i16 = 16;

    /// A set over the layer's inputs with the given bits set.
    fn input_set(active: &[u32]) -> BitSet {
        let mut set = BitSet::new(INPUTS);
        for &i in active {
            set.insert(i as usize);
        }
        set
    }

    /// A dense shadow of the sparse layer: `None` where no connection
    /// exists.
    fn dense_shadow(layer: &SparseLayer) -> Vec<Vec<Option<i16>>> {
        (0..OUTPUTS as u32)
            .map(|o| (0..INPUTS as u32).map(|i| layer.weight(i, o)).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Under arbitrary Hebbian/anti update sequences: weights stay
        /// clamped, connectivity never changes, and forward scores equal
        /// the dense-model dot product.
        #[test]
        fn sparse_layer_matches_dense_model(
            seed in 0u64..64,
            ops in proptest::collection::vec(
                (0u32..OUTPUTS as u32, proptest::collection::vec(0u32..INPUTS as u32, 0..6), 1i16..4, any::<bool>()),
                1..40,
            ),
            probe in proptest::collection::vec(0u32..INPUTS as u32, 0..8),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layer = SparseLayer::new(INPUTS, OUTPUTS, 0.5, CLAMP, 1, &mut rng);
            let connectivity_before = dense_shadow(&layer)
                .iter()
                .map(|row| row.iter().filter(|w| w.is_some()).count())
                .collect::<Vec<_>>();
            let mut model = dense_shadow(&layer);
            for (out, active, step, anti) in &ops {
                let set = input_set(active);
                if *anti {
                    layer.anti_update(*out, &set, *step);
                    for (i, w) in model[*out as usize].iter_mut().enumerate() {
                        if let Some(v) = w {
                            if active.contains(&(i as u32)) {
                                *v = (*v - step).clamp(-CLAMP, CLAMP);
                            }
                        }
                    }
                } else {
                    layer.hebbian_update(*out, &set, *step, 1);
                    for (i, w) in model[*out as usize].iter_mut().enumerate() {
                        if let Some(v) = w {
                            let delta = if active.contains(&(i as u32)) { *step } else { -1 };
                            *v = (*v + delta).clamp(-CLAMP, CLAMP);
                        }
                    }
                }
            }
            // Weights match the dense model and respect the clamp.
            let after = dense_shadow(&layer);
            for (o, row) in after.iter().enumerate() {
                let present = row.iter().filter(|w| w.is_some()).count();
                prop_assert_eq!(present, connectivity_before[o], "connectivity is fixed");
                for (i, w) in row.iter().enumerate() {
                    prop_assert_eq!(*w, model[o][i], "weight ({}, {})", i, o);
                    if let Some(v) = w {
                        prop_assert!(v.abs() <= CLAMP);
                    }
                }
            }
            // Forward equals the dense dot product over active inputs.
            let mut probe_sorted = probe.clone();
            probe_sorted.sort_unstable();
            probe_sorted.dedup();
            let mut scores = vec![0i32; OUTPUTS];
            layer.forward(&probe_sorted, &mut scores);
            for (o, &s) in scores.iter().enumerate() {
                let expect: i32 = probe_sorted
                    .iter()
                    .filter_map(|&i| model[o][i as usize])
                    .map(i32::from)
                    .sum();
                prop_assert_eq!(s, expect, "score for output {}", o);
            }
        }
    }
}
