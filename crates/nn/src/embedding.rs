//! Token embedding table.

use rand::Rng;

use crate::init;
use crate::matrix::Matrix;

/// A learned `vocab x dim` embedding table.
///
/// Prefetch models index this table with delta-vocabulary tokens; the
/// paper notes (§5.3) that this table dominates storage in prior DL
/// prefetchers, which is why the vocabulary is kept bounded here.
#[derive(Clone, Debug)]
pub struct Embedding {
    weights: Matrix,
    grads: Matrix,
}

impl Embedding {
    /// Creates an embedding table with Xavier-uniform rows.
    pub fn new(vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weights: init::xavier_uniform(vocab, dim, rng),
            grads: Matrix::zeros(vocab, dim),
        }
    }

    /// The embedding vector for `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of the vocabulary.
    pub fn lookup(&self, token: usize) -> &[f32] {
        self.weights.row(token)
    }

    /// Accumulates the gradient `g` into the row for `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary or `g` has the wrong length.
    pub fn accumulate_grad(&mut self, token: usize, g: &[f32]) {
        let row = self.grads.row_mut(token);
        assert_eq!(row.len(), g.len(), "gradient length mismatch");
        for (r, &v) in row.iter_mut().zip(g.iter()) {
            *r += v;
        }
    }

    /// Applies accumulated gradients with a plain SGD step and clears
    /// them. `clip` bounds each gradient element.
    pub fn apply_grads(&mut self, lr: f32, clip: f32) {
        self.grads.clip(clip);
        self.weights.axpy(-lr, &self.grads);
        self.grads.fill_zero();
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len()
    }

    /// Read-only access to the weights (used by quantization).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_dim_sized_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = Embedding::new(16, 8, &mut rng);
        assert_eq!(e.lookup(0).len(), 8);
        assert_eq!(e.param_count(), 128);
    }

    #[test]
    fn sgd_moves_only_touched_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = Embedding::new(4, 2, &mut rng);
        let before0 = e.lookup(0).to_vec();
        let before1 = e.lookup(1).to_vec();
        e.accumulate_grad(1, &[1.0, -1.0]);
        e.apply_grads(0.1, 10.0);
        assert_eq!(e.lookup(0), before0.as_slice());
        assert!((e.lookup(1)[0] - (before1[0] - 0.1)).abs() < 1e-6);
        assert!((e.lookup(1)[1] - (before1[1] + 0.1)).abs() < 1e-6);
    }

    #[test]
    fn grads_clear_after_apply() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = Embedding::new(4, 2, &mut rng);
        e.accumulate_grad(2, &[5.0, 5.0]);
        e.apply_grads(0.1, 1.0);
        let w = e.lookup(2).to_vec();
        // A second apply with no new gradient must be a no-op.
        e.apply_grads(0.1, 1.0);
        assert_eq!(e.lookup(2), w.as_slice());
    }
}
