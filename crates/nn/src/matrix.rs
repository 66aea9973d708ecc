//! Dense row-major matrix arithmetic.
//!
//! A deliberately small, allocation-conscious matrix type. Hot paths
//! (`matmul_into`, `matvec_into`) avoid temporary allocation and use an
//! i-k-j loop order so the innermost loop walks both operands
//! sequentially.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f32` matrix.
///
/// Storage is a single `Vec<f32>` of length `rows * cols`; element
/// `(r, c)` lives at `r * cols + c`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols);
        // hnp-lint: allow(panic_hygiene): documented construction contract
        let len = len.expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// `self += other`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// `self += alpha * other`, elementwise (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// `out = self * other` (matrix product), reusing `out`'s storage.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` has the wrong shape.
    fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "inner dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.rows, self.rows, "output row mismatch");
        assert_eq!(out.cols, other.cols, "output col mismatch");
        out.fill_zero();
        // The i-k-j order keeps the inner loop sequential over both
        // `other` and `out` rows.
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self * other` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out += self * x` where `x` is a dense vector (`cols` long) and
    /// `out` is `rows` long.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (&w, &v) in row.iter().zip(x.iter()) {
                acc += w * v;
            }
            *o += acc;
        }
    }

    /// `out += self^T * x` where `x` is `rows` long and `out` is `cols`
    /// long. Used for backward passes without materializing transposes.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_t_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "vector length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        for (r, &v) in x.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &w) in out.iter_mut().zip(row.iter()) {
                *o += w * v;
            }
        }
    }

    /// Rank-1 accumulation: `self += alpha * a * b^T` where `a` is
    /// `rows` long and `b` is `cols` long. The workhorse of gradient
    /// accumulation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn rank1_acc(&mut self, alpha: f32, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.rows, "outer-product row length mismatch");
        assert_eq!(b.len(), self.cols, "outer-product col length mismatch");
        for (r, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let coef = alpha * av;
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, &bv) in row.iter_mut().zip(b.iter()) {
                *w += coef * bv;
            }
        }
    }

    /// Clips every element into `[-limit, limit]`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is negative or NaN.
    pub fn clip(&mut self, limit: f32) {
        assert!(limit >= 0.0, "clip limit must be non-negative");
        for x in &mut self.data {
            *x = x.clamp(-limit, limit);
        }
    }

    fn assert_same_shape(&self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from a row-major data vector.
    fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix::from_fn(rows, cols, |r, c| data[r * cols + c])
    }

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_fills_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_acc_matches_matmul() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.5);
        let x = [1.0, -2.0, 3.0];
        let mut out = vec![0.0; 4];
        a.matvec_acc(&x, &mut out);
        let xm = from_vec(3, 1, x.to_vec());
        let expect = a.matmul(&xm);
        for (o, e) in out.iter().zip(expect.as_slice()) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn matvec_t_acc_matches_transpose_product() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.25);
        let x = [1.0, 0.5, -1.0, 2.0];
        let mut out = vec![0.0; 3];
        a.matvec_t_acc(&x, &mut out);
        let at = a.transpose();
        let mut expect = vec![0.0; 3];
        at.matvec_acc(&x, &mut expect);
        for (o, e) in out.iter().zip(expect.iter()) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn rank1_acc_matches_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        m.rank1_acc(2.0, &[1.0, -1.0], &[3.0, 0.0, 5.0]);
        assert_eq!(m.as_slice(), &[6.0, 0.0, 10.0, -6.0, 0.0, -10.0]);
    }

    #[test]
    fn clip_bounds_elements() {
        let mut m = from_vec(1, 4, vec![-10.0, -0.5, 0.5, 10.0]);
        m.clip(1.0);
        assert_eq!(m.as_slice(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = from_vec(1, 2, vec![1.0, 2.0]);
        let b = from_vec(1, 2, vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }
}
