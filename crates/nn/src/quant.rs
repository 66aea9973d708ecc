//! Post-training INT8 quantization of the LSTM for the Fig. 2
//! experiment.
//!
//! The paper quantizes the LSTM's parameters (FP32 -> INT8) for
//! inference and finds latency improves but remains far above the 1-10
//! microsecond target. This module implements dynamic quantization in
//! the style used by production CPU runtimes: weights are quantized
//! symmetrically per row ahead of time; activations are quantized per
//! vector at run time; accumulation is `i32`.

use crate::activations::{argmax, sigmoid, tanh};
use crate::lstm::{LstmNetwork, LstmState};
use crate::matrix::Matrix;

/// A row-quantized INT8 matrix with per-row symmetric scales.
#[derive(Debug, Clone)]
struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// Per-row dequantization scales.
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` row-wise: each row is scaled so its maximum
    /// absolute value maps to 127.
    fn from_matrix(m: &Matrix) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = m.row(r);
            let max = row.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
            let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
            scales.push(scale);
            for &x in row {
                data.push((x / scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        Self {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage for the quantized weights, in bytes (i8 weights + f32
    /// row scales).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len()
    }

    /// `out += self * x` using INT8 arithmetic with i32 accumulation.
    /// `x` is quantized per call (dynamic quantization).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        let (qx, sx) = quantize_vector(x);
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc: i32 = 0;
            for (&w, &v) in row.iter().zip(qx.iter()) {
                acc += (w as i32) * (v as i32);
            }
            *o += acc as f32 * self.scales[r] * sx;
        }
    }
}

/// Quantizes a vector symmetrically to i8, returning the values and the
/// dequantization scale.
fn quantize_vector(x: &[f32]) -> (Vec<i8>, f32) {
    let max = x.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    let q = x
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (q, scale)
}

/// An INT8-quantized snapshot of an [`LstmNetwork`] for inference.
///
/// Gate layout matches the float model: `[i, f, g, o]`.
pub struct QuantizedLstm {
    hidden: usize,
    vocab: usize,
    embed: QuantizedMatrix,
    w_x: QuantizedMatrix,
    w_h: QuantizedMatrix,
    b: Vec<f32>,
    w_out: QuantizedMatrix,
    b_out: Vec<f32>,
    state: LstmState,
}

impl QuantizedLstm {
    /// Quantizes the current weights of `net`. The online state starts
    /// at zero.
    pub fn from_network(net: &LstmNetwork) -> Self {
        let (embedding, w_x, w_h, b, w_out, b_out) = net.tensors();
        Self {
            hidden: net.config().hidden,
            vocab: net.config().vocab,
            embed: QuantizedMatrix::from_matrix(embedding.weights()),
            w_x: QuantizedMatrix::from_matrix(w_x),
            w_h: QuantizedMatrix::from_matrix(w_h),
            b: b.to_vec(),
            w_out: QuantizedMatrix::from_matrix(w_out),
            b_out: b_out.to_vec(),
            state: LstmState::zeros(net.config().hidden),
        }
    }

    /// Total quantized storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.embed.storage_bytes()
            + self.w_x.storage_bytes()
            + self.w_h.storage_bytes()
            + self.w_out.storage_bytes()
            + 4 * (self.b.len() + self.b_out.len())
    }

    /// Autoregressive rollout of `steps` future predictions (Fig. 2's
    /// x-axis) without disturbing the online state.
    pub fn rollout(&self, token: usize, steps: usize) -> Vec<usize> {
        let mut h = self.state.h.clone();
        let mut c = self.state.c.clone();
        let mut tok = token;
        let mut preds = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (h_new, c_new, logits) = self.cell_forward(tok, &h, &c);
            let Some(p) = argmax(&logits) else { break };
            preds.push(p);
            h = h_new;
            c = c_new;
            tok = p;
        }
        preds
    }

    fn cell_forward(&self, token: usize, h: &[f32], c: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        assert!(token < self.vocab, "token {} out of vocabulary", token);
        let hd = self.hidden;
        // Dequantize the embedding row.
        let x: Vec<f32> = (0..self.embed.cols())
            .map(|j| {
                self.embed.data[token * self.embed.cols() + j] as f32 * self.embed.scales[token]
            })
            .collect();
        let mut z = self.b.clone();
        self.w_x.matvec_acc(&x, &mut z);
        self.w_h.matvec_acc(h, &mut z);
        let mut c_new = vec![0.0; hd];
        let mut h_new = vec![0.0; hd];
        for j in 0..hd {
            let i = sigmoid(z[j]);
            let f = sigmoid(z[hd + j]);
            let g = tanh(z[2 * hd + j]);
            let o = sigmoid(z[3 * hd + j]);
            c_new[j] = f * c[j] + i * g;
            h_new[j] = o * tanh(c_new[j]);
        }
        let mut logits = self.b_out.clone();
        self.w_out.matvec_acc(&h_new, &mut logits);
        (h_new, c_new, logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::softmax_in_place;
    use crate::lstm::LstmConfig;

    impl QuantizedLstm {
        /// Consumes `token`, advances the state, and returns the
        /// post-softmax distribution over the next token.
        fn infer_advance(&mut self, token: usize) -> Vec<f32> {
            let (h, c) = (self.state.h.clone(), self.state.c.clone());
            let (h_new, c_new, logits) = self.cell_forward(token, &h, &c);
            self.state.h = h_new;
            self.state.c = c_new;
            let mut probs = logits;
            softmax_in_place(&mut probs);
            probs
        }
    }

    #[test]
    fn quantization_roundtrip_error_is_small() {
        let m = Matrix::from_fn(8, 16, |r, c| ((r * 13 + c * 7) % 29) as f32 / 29.0 - 0.5);
        let q = QuantizedMatrix::from_matrix(&m);
        let d = Matrix::from_fn(q.rows, q.cols, |r, c| {
            q.data[r * q.cols + c] as f32 * q.scales[r]
        });
        for (a, b) in m.as_slice().iter().zip(d.as_slice()) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_matvec_approximates_float() {
        let m = Matrix::from_fn(6, 10, |r, c| ((r + c) as f32).sin() * 0.3);
        let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut fx = vec![0.0; 6];
        m.matvec_acc(&x, &mut fx);
        let q = QuantizedMatrix::from_matrix(&m);
        let mut qx = vec![0.0; 6];
        q.matvec_acc(&x, &mut qx);
        for (a, b) in fx.iter().zip(qx.iter()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_row_quantizes_safely() {
        let m = Matrix::zeros(3, 4);
        let q = QuantizedMatrix::from_matrix(&m);
        let mut out = vec![0.0; 3];
        q.matvec_acc(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn quantized_model_agrees_with_float_model_on_trained_task() {
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let cycle = [1usize, 4, 2, 7, 5, 3];
        for _ in 0..300 {
            net.reset_state();
            for w in 0..cycle.len() {
                net.train_step(cycle[w], cycle[(w + 1) % cycle.len()], 0.1);
            }
        }
        let mut q = QuantizedLstm::from_network(&net);
        net.reset_state();
        // Warm both models on one cycle, then compare predictions.
        let mut agree = 0;
        let mut total = 0;
        for _ in 0..3 {
            for (w, &tok) in cycle.iter().enumerate() {
                let pf = net.train_step(tok, cycle[(w + 1) % cycle.len()], 0.0).probs;
                let pq = q.infer_advance(tok);
                let af = crate::activations::argmax(&pf).unwrap();
                let aq = crate::activations::argmax(&pq).unwrap();
                total += 1;
                if af == aq {
                    agree += 1;
                }
            }
        }
        assert!(
            agree as f32 / total as f32 > 0.8,
            "quantized model diverged: {agree}/{total}"
        );
    }

    #[test]
    fn quantized_storage_is_roughly_quarter_of_fp32() {
        let net = LstmNetwork::new(LstmConfig::paper_table2());
        let q = QuantizedLstm::from_network(&net);
        let fp32 = net.param_count() * 4;
        assert!(
            q.storage_bytes() < fp32 / 3,
            "expected ~4x compression: {} vs {}",
            q.storage_bytes(),
            fp32
        );
    }

    #[test]
    fn rollout_is_deterministic() {
        let net = LstmNetwork::new(LstmConfig::tiny());
        let q = QuantizedLstm::from_network(&net);
        assert_eq!(q.rollout(3, 5), q.rollout(3, 5));
    }
}
