//! RMS normalization with a learned gain.
//!
//! Used by the transformer baseline. RMSNorm (Zhang & Sennrich) is
//! chosen over LayerNorm for its simpler, well-conditioned backward
//! pass: `y_i = g_i * x_i / rms(x)` with `rms(x) = sqrt(mean(x^2) +
//! eps)`.

#![allow(clippy::needless_range_loop)] // Index loops mirror the math.

/// RMS normalization over the last dimension, with learned gains.
#[derive(Debug, Clone)]
pub struct RmsNorm {
    gain: Vec<f32>,
    grad_gain: Vec<f32>,
    eps: f32,
}

/// Cached forward values needed by the backward pass.
#[derive(Debug, Clone)]
pub struct RmsNormCache {
    /// The input row.
    x: Vec<f32>,
    /// The computed rms value.
    rms: f32,
}

impl RmsNorm {
    /// Creates a norm over `dim`-wide rows with unit gains.
    pub fn new(dim: usize) -> Self {
        Self {
            gain: vec![1.0; dim],
            grad_gain: vec![0.0; dim],
            eps: 1e-5,
        }
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.gain.len()
    }

    /// Normalizes one row; returns the output and the backward cache.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, RmsNormCache) {
        assert_eq!(x.len(), self.gain.len(), "width mismatch");
        let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
        let rms = (ms + self.eps).sqrt();
        let y = x
            .iter()
            .zip(self.gain.iter())
            .map(|(&v, &g)| g * v / rms)
            .collect();
        (y, RmsNormCache { x: x.to_vec(), rms })
    }

    /// Backward: accumulates the gain gradient and returns `dx`.
    ///
    /// With `n = dim`, `r = rms(x)`:
    /// `dx_i = g_i/r * dy_i - x_i / (n r^3) * sum_j dy_j g_j x_j`.
    pub fn backward(&mut self, cache: &RmsNormCache, dy: &[f32]) -> Vec<f32> {
        let n = cache.x.len() as f32;
        let r = cache.rms;
        let mut dot = 0.0f32;
        for j in 0..cache.x.len() {
            dot += dy[j] * self.gain[j] * cache.x[j];
            self.grad_gain[j] += dy[j] * cache.x[j] / r;
        }
        cache
            .x
            .iter()
            .zip(dy.iter())
            .zip(self.gain.iter())
            .map(|((&x, &d), &g)| g / r * d - x * dot / (n * r * r * r))
            .collect()
    }

    /// Applies and clears accumulated gain gradients.
    pub fn apply_grads(&mut self, lr: f32, clip: f32) {
        for (g, d) in self.gain.iter_mut().zip(self.grad_gain.iter_mut()) {
            *g -= lr * d.clamp(-clip, clip);
            *d = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_has_unit_rms_before_gain() {
        let n = RmsNorm::new(8);
        let x: Vec<f32> = (0..8).map(|i| i as f32 - 3.0).collect();
        let (y, _) = n.forward(&x);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 8.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3, "rms {rms}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut n = RmsNorm::new(5);
        // Non-trivial gains.
        for (i, g) in n.gain.iter_mut().enumerate() {
            *g = 0.5 + 0.3 * i as f32;
        }
        let x = [0.4f32, -1.2, 2.0, 0.1, -0.7];
        // Loss = sum(w_i * y_i) for fixed weights w.
        let w = [0.3f32, -0.8, 0.5, 1.1, -0.2];
        let (y, cache) = n.forward(&x);
        let _ = y;
        let dx = n.backward(&cache, &w);
        let eps = 1e-3;
        for i in 0..5 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let lp: f32 = n
                .forward(&xp)
                .0
                .iter()
                .zip(w.iter())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = n
                .forward(&xm)
                .0
                .iter()
                .zip(w.iter())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx[i] - numeric).abs() < 1e-3,
                "dx[{i}] analytic {} vs numeric {}",
                dx[i],
                numeric
            );
        }
    }

    #[test]
    fn gain_gradient_matches_finite_differences() {
        let x = [0.4f32, -1.2, 2.0];
        let w = [1.0f32, -0.5, 0.25];
        let mut n = RmsNorm::new(3);
        let (_, cache) = n.forward(&x);
        n.backward(&cache, &w);
        let analytic = n.grad_gain.clone();
        let eps = 1e-3;
        for i in 0..3 {
            let mut np = RmsNorm::new(3);
            np.gain[i] += eps;
            let mut nm = RmsNorm::new(3);
            nm.gain[i] -= eps;
            let lp: f32 = np
                .forward(&x)
                .0
                .iter()
                .zip(w.iter())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = nm
                .forward(&x)
                .0
                .iter()
                .zip(w.iter())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 1e-3,
                "dgain[{i}] {} vs {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn zero_input_is_safe() {
        let n = RmsNorm::new(4);
        let (y, _) = n.forward(&[0.0; 4]);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
