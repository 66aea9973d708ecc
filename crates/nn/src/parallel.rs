//! A tiny scoped-thread helper for row-sliced matrix-vector products.
//!
//! Fig. 2 of the paper compares one- and two-thread LSTM inference and
//! finds multi-threading ineffective because the LSTM's dependent,
//! small matrix-vector products leave little parallel work relative to
//! the coordination overhead. This module reproduces exactly that
//! deployment choice: each matrix-vector product is split by rows over
//! `threads` OS threads created per call (no persistent pool, matching
//! a naive deployment), so the overhead the paper observes is present
//! and measurable.

use crate::matrix::Matrix;

/// Splits matrix-vector products across a fixed thread count.
#[derive(Debug, Clone)]
pub struct ThreadSlicer {
    threads: usize,
}

impl ThreadSlicer {
    /// Creates a slicer over `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "threads must be >= 1");
        Self { threads }
    }

    /// `out += m * x`, split by row blocks across the configured
    /// threads. Falls back to the sequential kernel for one thread or
    /// small matrices.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_acc(&self, m: &Matrix, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), m.cols(), "vector length mismatch");
        assert_eq!(out.len(), m.rows(), "output length mismatch");
        if self.threads == 1 || m.rows() < 2 * self.threads {
            m.matvec_acc(x, out);
            return;
        }
        let rows = m.rows();
        let chunk = rows.div_ceil(self.threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, out_chunk) in out.chunks_mut(chunk).enumerate() {
                let start = i * chunk;
                let end = (start + out_chunk.len()).min(rows);
                handles.push(scope.spawn(move || {
                    for (r, o) in (start..end).zip(out_chunk.iter_mut()) {
                        let row = m.row(r);
                        let mut acc = 0.0f32;
                        for (&w, &v) in row.iter().zip(x.iter()) {
                            acc += w * v;
                        }
                        *o += acc;
                    }
                }));
            }
            for h in handles {
                // hnp-lint: allow(panic_hygiene): re-raise worker panics
                h.join().expect("matvec worker panicked");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let m = Matrix::from_fn(64, 17, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let x: Vec<f32> = (0..17).map(|i| (i as f32) * 0.3 - 2.0).collect();
        let mut seq = vec![0.5; 64];
        m.matvec_acc(&x, &mut seq);
        for threads in [2, 3, 4] {
            let slicer = ThreadSlicer::new(threads);
            let mut par = vec![0.5; 64];
            slicer.matvec_acc(&m, &x, &mut par);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert!((a - b).abs() < 1e-5, "{threads} threads: {a} vs {b}");
            }
        }
    }

    #[test]
    fn small_matrices_fall_back_to_sequential() {
        let slicer = ThreadSlicer::new(4);
        let m = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let mut out = vec![0.0; 3];
        slicer.matvec_acc(&m, &[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![3.0, 6.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_rejected() {
        let _ = ThreadSlicer::new(0);
    }
}
