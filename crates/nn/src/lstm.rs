//! An LSTM sequence model for next-delta prediction.
//!
//! This is the paper's deep-learning baseline (§2.1): an embedding
//! table feeding a single LSTM cell feeding a linear projection over
//! the delta vocabulary, trained online with softmax cross-entropy.
//! It mirrors the "compressed to ~1 MB / ~170 k parameters" deployment
//! model the paper measures in Fig. 2 and Table 2.
//!
//! Gate layout in all `4H`-row weight matrices is `[i, f, g, o]`
//! (input, forget, candidate, output).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::activations::{
    argmax, sigmoid, sigmoid_deriv_from_output, tanh, tanh_deriv_from_output, top_k,
};
use crate::embedding::Embedding;
use crate::init;
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_grad, SoftmaxLoss};
use crate::matrix::Matrix;
use crate::ops::OpCounts;
use crate::parallel::ThreadSlicer;

/// Hyper-parameters of the LSTM prefetch model.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Delta-vocabulary size (number of output classes).
    pub vocab: usize,
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Hidden-state width.
    pub hidden: usize,
    /// Learning rate for online SGD.
    pub learning_rate: f32,
    /// Per-element gradient clip.
    pub grad_clip: f32,
    /// Worker threads used in forward matrix-vector products (Fig. 2's
    /// one-vs-two-thread comparison). `1` means fully sequential.
    pub threads: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            vocab: 512,
            embed_dim: 64,
            hidden: 128,
            learning_rate: 0.05,
            grad_clip: 1.0,
            threads: 1,
            seed: 0x5eed,
        }
    }
}

impl LstmConfig {
    /// Configuration matching the paper's Table-2 row (~170 k
    /// parameters): vocab 500, embedding 50, hidden 128.
    pub fn paper_table2() -> Self {
        Self {
            vocab: 500,
            embed_dim: 50,
            hidden: 128,
            ..Self::default()
        }
    }

    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            vocab: 12,
            embed_dim: 6,
            hidden: 10,
            learning_rate: 0.1,
            ..Self::default()
        }
    }
}

/// Cached per-timestep activations needed by the backward pass.
#[derive(Clone)]
struct StepCache {
    token: usize,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    c: Vec<f32>,
    tanh_c: Vec<f32>,
    h: Vec<f32>,
}

/// The recurrent state carried between online steps.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden activation `h`.
    pub h: Vec<f32>,
    /// Cell state `c`.
    pub c: Vec<f32>,
}

impl LstmState {
    /// All-zero state of width `hidden`.
    pub fn zeros(hidden: usize) -> Self {
        Self {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

/// The LSTM prefetch network: embedding -> LSTM cell -> projection.
pub struct LstmNetwork {
    cfg: LstmConfig,
    embedding: Embedding,
    /// Input weights, `4H x E`.
    w_x: Matrix,
    /// Recurrent weights, `4H x H`.
    w_h: Matrix,
    /// Gate biases, length `4H`.
    b: Vec<f32>,
    /// Output projection, `V x H`.
    w_out: Matrix,
    /// Output biases, length `V`.
    b_out: Vec<f32>,
    // Gradient accumulators, mirroring the parameters above.
    gw_x: Matrix,
    gw_h: Matrix,
    gb: Vec<f32>,
    gw_out: Matrix,
    gb_out: Vec<f32>,
    /// Online recurrent state carried between `train_step` calls.
    state: LstmState,
    slicer: ThreadSlicer,
}

impl LstmNetwork {
    /// Builds a network from `cfg`, initializing weights from
    /// `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `threads == 0`.
    pub fn new(cfg: LstmConfig) -> Self {
        assert!(cfg.vocab > 0 && cfg.embed_dim > 0 && cfg.hidden > 0);
        assert!(cfg.threads > 0, "threads must be >= 1");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let h = cfg.hidden;
        let embedding = Embedding::new(cfg.vocab, cfg.embed_dim, &mut rng);
        let w_x = init::xavier_uniform(4 * h, cfg.embed_dim, &mut rng);
        let w_h = init::xavier_uniform(4 * h, h, &mut rng);
        // Forget-gate bias starts at 1.0, the standard trick that keeps
        // early cell states alive.
        let mut b = vec![0.0; 4 * h];
        for v in &mut b[h..2 * h] {
            *v = 1.0;
        }
        let w_out = init::xavier_uniform(cfg.vocab, h, &mut rng);
        let b_out = vec![0.0; cfg.vocab];
        Self {
            gw_x: Matrix::zeros(4 * h, cfg.embed_dim),
            gw_h: Matrix::zeros(4 * h, h),
            gb: vec![0.0; 4 * h],
            gw_out: Matrix::zeros(cfg.vocab, h),
            gb_out: vec![0.0; cfg.vocab],
            state: LstmState::zeros(h),
            slicer: ThreadSlicer::new(cfg.threads),
            embedding,
            w_x,
            w_h,
            b,
            w_out,
            b_out,
            cfg,
        }
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &LstmConfig {
        &self.cfg
    }

    /// Total learned parameter count (embedding + cell + projection).
    pub fn param_count(&self) -> usize {
        self.embedding.param_count()
            + self.w_x.len()
            + self.w_h.len()
            + self.b.len()
            + self.w_out.len()
            + self.b_out.len()
    }

    /// Exact multiply-accumulate/elementwise operation counts, used to
    /// regenerate Table 2.
    pub fn op_counts(&self) -> OpCounts {
        OpCounts::lstm(self.cfg.vocab, self.cfg.embed_dim, self.cfg.hidden)
    }

    /// Resets the online recurrent state to zeros.
    pub fn reset_state(&mut self) {
        self.state = LstmState::zeros(self.cfg.hidden);
    }

    /// A copy of the current online recurrent state.
    pub fn state(&self) -> LstmState {
        self.state.clone()
    }

    /// One LSTM cell evaluation from `(h_prev, c_prev)` consuming
    /// `token`; returns the cache needed for backward.
    fn cell_forward(&self, token: usize, h_prev: &[f32], c_prev: &[f32]) -> StepCache {
        let h = self.cfg.hidden;
        let x = self.embedding.lookup(token);
        let mut z = self.b.clone();
        self.slicer.matvec_acc(&self.w_x, x, &mut z);
        self.slicer.matvec_acc(&self.w_h, h_prev, &mut z);
        let mut i = vec![0.0; h];
        let mut f = vec![0.0; h];
        let mut g = vec![0.0; h];
        let mut o = vec![0.0; h];
        for j in 0..h {
            i[j] = sigmoid(z[j]);
            f[j] = sigmoid(z[h + j]);
            g[j] = tanh(z[2 * h + j]);
            o[j] = sigmoid(z[3 * h + j]);
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for j in 0..h {
            c[j] = f[j] * c_prev[j] + i[j] * g[j];
            tanh_c[j] = tanh(c[j]);
            h_new[j] = o[j] * tanh_c[j];
        }
        StepCache {
            token,
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            c,
            tanh_c,
            h: h_new,
        }
    }

    /// Projects a hidden state to logits over the vocabulary.
    fn project(&self, h: &[f32]) -> Vec<f32> {
        let mut logits = self.b_out.clone();
        self.slicer.matvec_acc(&self.w_out, h, &mut logits);
        logits
    }

    /// Runs inference from the current online state without mutating
    /// it, returning the post-softmax distribution over the next token.
    pub fn infer(&self, token: usize) -> Vec<f32> {
        let cache = self.cell_forward(token, &self.state.h, &self.state.c);
        let mut logits = self.project(&cache.h);
        crate::activations::softmax_in_place(&mut logits);
        logits
    }

    /// Advances the online state by consuming `token` and returns the
    /// probability distribution over the next token.
    pub fn infer_advance(&mut self, token: usize) -> Vec<f32> {
        let cache = self.cell_forward(token, &self.state.h, &self.state.c);
        self.state.h = cache.h.clone();
        self.state.c = cache.c.clone();
        let mut logits = self.project(&cache.h);
        crate::activations::softmax_in_place(&mut logits);
        logits
    }

    /// Multi-step rollout: starting from the current online state,
    /// consumes `token` and then autoregressively feeds back its own
    /// argmax prediction, producing `steps` future-token predictions.
    ///
    /// This is the "number of future predictions" axis of Fig. 2; the
    /// cost is inherently sequential, one cell evaluation per step.
    pub fn rollout(&self, token: usize, steps: usize) -> Vec<usize> {
        let mut preds = Vec::with_capacity(steps);
        let mut h = self.state.h.clone();
        let mut c = self.state.c.clone();
        let mut tok = token;
        for _ in 0..steps {
            let cache = self.cell_forward(tok, &h, &c);
            let logits = self.project(&cache.h);
            let Some(p) = argmax(&logits) else { break };
            preds.push(p);
            h = cache.h;
            c = cache.c;
            tok = p;
        }
        preds
    }

    /// Like [`rollout`](Self::rollout) but returns the `width` most
    /// probable tokens at each step (feeding back the top-1), and the
    /// softmax probability of the first step's top prediction, for
    /// confidence-gated issuing (§5.2).
    pub fn rollout_top_k_with_confidence(
        &self,
        token: usize,
        steps: usize,
        width: usize,
    ) -> (Vec<Vec<usize>>, f32) {
        let mut preds = Vec::with_capacity(steps);
        let mut h = self.state.h.clone();
        let mut c = self.state.c.clone();
        let mut tok = token;
        let mut first_conf = 0.0;
        for step in 0..steps {
            let cache = self.cell_forward(tok, &h, &c);
            let logits = self.project(&cache.h);
            let ks = top_k(&logits, width);
            let Some(&first) = ks.first() else { break };
            tok = first;
            if step == 0 {
                let mut probs = logits.clone();
                crate::activations::softmax_in_place(&mut probs);
                first_conf = probs[tok];
            }
            preds.push(ks);
            h = cache.h;
            c = cache.c;
        }
        (preds, first_conf)
    }

    /// One online training step: consume `token`, predict, compute the
    /// loss against `target`, backpropagate (truncated at this step:
    /// the carried state is treated as constant), and apply SGD.
    ///
    /// Returns the loss/confidence of the pre-update prediction.
    pub fn train_step(&mut self, token: usize, target: usize) -> SoftmaxLoss {
        let cache = self.cell_forward(token, &self.state.h, &self.state.c);
        let logits = self.project(&cache.h);
        let loss = softmax_cross_entropy(&logits, target);
        let dlogits = softmax_cross_entropy_grad(&loss.probs, target);
        self.backward_through(std::slice::from_ref(&cache), &dlogits);
        self.apply_grads(self.cfg.learning_rate);
        self.state.h = cache.h;
        self.state.c = cache.c;
        loss
    }

    /// Trains on a history window with full BPTT: consumes
    /// `tokens[0..n]` from a zero state and fits `target` at the final
    /// step. Does not disturb the online state.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn train_window(&mut self, tokens: &[usize], target: usize, lr: f32) -> SoftmaxLoss {
        assert!(!tokens.is_empty(), "empty training window");
        let mut caches = Vec::with_capacity(tokens.len());
        let mut h = vec![0.0; self.cfg.hidden];
        let mut c = vec![0.0; self.cfg.hidden];
        for &t in tokens {
            let cache = self.cell_forward(t, &h, &c);
            h = cache.h.clone();
            c = cache.c.clone();
            caches.push(cache);
        }
        let logits = self.project(&h);
        let loss = softmax_cross_entropy(&logits, target);
        let dlogits = softmax_cross_entropy_grad(&loss.probs, target);
        self.backward_through(&caches, &dlogits);
        self.apply_grads(lr);
        loss
    }

    /// Accumulates gradients for a batch of `(window, target)` examples
    /// and applies one averaged update — the "training batch size" axis
    /// of Fig. 2. Returns the mean loss.
    pub fn train_batch(&mut self, examples: &[(Vec<usize>, usize)], lr: f32) -> f32 {
        if examples.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (tokens, target) in examples {
            assert!(!tokens.is_empty(), "empty training window");
            let mut caches = Vec::with_capacity(tokens.len());
            let mut h = vec![0.0; self.cfg.hidden];
            let mut c = vec![0.0; self.cfg.hidden];
            for &t in tokens {
                let cache = self.cell_forward(t, &h, &c);
                h = cache.h.clone();
                c = cache.c.clone();
                caches.push(cache);
            }
            let logits = self.project(&h);
            let loss = softmax_cross_entropy(&logits, *target);
            total += loss.loss;
            let dlogits = softmax_cross_entropy_grad(&loss.probs, *target);
            self.backward_through(&caches, &dlogits);
        }
        self.apply_grads(lr / examples.len() as f32);
        total / examples.len() as f32
    }

    /// [`train_batch`](Self::train_batch) with fused batched matrix
    /// products: all examples are advanced through the cell together,
    /// one `B x *` matmul per gate product instead of `B` separate
    /// matrix-vector products. Requires equal window lengths (falls
    /// back to the per-example path otherwise). Gradients are
    /// mathematically identical to [`train_batch`](Self::train_batch)
    /// up to floating-point summation order.
    pub fn train_batch_fused(&mut self, examples: &[(Vec<usize>, usize)], lr: f32) -> f32 {
        let Some(first) = examples.first() else {
            return 0.0;
        };
        let t_len = first.0.len();
        assert!(t_len > 0, "empty training window");
        if examples.iter().any(|(w, _)| w.len() != t_len) {
            return self.train_batch(examples, lr);
        }
        let b = examples.len();
        let hdim = self.cfg.hidden;
        let edim = self.cfg.embed_dim;
        // Transposed weights for row-major batched products.
        let wx_t = self.w_x.transpose(); // E x 4H
        let wh_t = self.w_h.transpose(); // H x 4H
        let wout_t = self.w_out.transpose(); // H x V
                                             // Forward.
        let mut h = Matrix::zeros(b, hdim);
        let mut c = Matrix::zeros(b, hdim);
        struct BatchStep {
            x: Matrix,
            h_prev: Matrix,
            c_prev: Matrix,
            i: Matrix,
            f: Matrix,
            g: Matrix,
            o: Matrix,
            tanh_c: Matrix,
        }
        let mut steps: Vec<BatchStep> = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let mut x = Matrix::zeros(b, edim);
            for (r, (tokens, _)) in examples.iter().enumerate() {
                x.row_mut(r)
                    .copy_from_slice(self.embedding.lookup(tokens[t]));
            }
            let mut z = x.matmul(&wx_t);
            z.add_assign(&h.matmul(&wh_t));
            for r in 0..b {
                let row = z.row_mut(r);
                for (v, &bias) in row.iter_mut().zip(self.b.iter()) {
                    *v += bias;
                }
            }
            let mut gi = Matrix::zeros(b, hdim);
            let mut gf = Matrix::zeros(b, hdim);
            let mut gg = Matrix::zeros(b, hdim);
            let mut go = Matrix::zeros(b, hdim);
            let mut c_new = Matrix::zeros(b, hdim);
            let mut tanh_c = Matrix::zeros(b, hdim);
            let mut h_new = Matrix::zeros(b, hdim);
            for r in 0..b {
                for j in 0..hdim {
                    let iv = sigmoid(z[(r, j)]);
                    let fv = sigmoid(z[(r, hdim + j)]);
                    let gv = tanh(z[(r, 2 * hdim + j)]);
                    let ov = sigmoid(z[(r, 3 * hdim + j)]);
                    let cv = fv * c[(r, j)] + iv * gv;
                    gi[(r, j)] = iv;
                    gf[(r, j)] = fv;
                    gg[(r, j)] = gv;
                    go[(r, j)] = ov;
                    c_new[(r, j)] = cv;
                    tanh_c[(r, j)] = tanh(cv);
                    h_new[(r, j)] = ov * tanh_c[(r, j)];
                }
            }
            steps.push(BatchStep {
                x,
                h_prev: h,
                c_prev: c,
                i: gi,
                f: gf,
                g: gg,
                o: go,
                tanh_c,
            });
            h = h_new;
            c = c_new;
        }
        // Projection + loss.
        let mut logits = h.matmul(&wout_t); // B x V
        let mut total = 0.0;
        let mut dlogits = Matrix::zeros(b, self.cfg.vocab);
        for (r, (_, target)) in examples.iter().enumerate() {
            let row = logits.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(self.b_out.iter()) {
                *v += bias;
            }
            let loss = softmax_cross_entropy(row, *target);
            total += loss.loss;
            let g = softmax_cross_entropy_grad(&loss.probs, *target);
            dlogits.row_mut(r).copy_from_slice(&g);
        }
        // Backward: projection.
        let dlogits_t = dlogits.transpose();
        self.gw_out.add_assign(&dlogits_t.matmul(&h)); // V x H
        for r in 0..b {
            for (gbo, &d) in self.gb_out.iter_mut().zip(dlogits.row(r).iter()) {
                *gbo += d;
            }
        }
        let mut dh = dlogits.matmul(&self.w_out); // B x H
        let mut dc = Matrix::zeros(b, hdim);
        for (t, step) in steps.iter().enumerate().rev() {
            let mut dz = Matrix::zeros(b, 4 * hdim);
            for r in 0..b {
                for j in 0..hdim {
                    let do_ = dh[(r, j)] * step.tanh_c[(r, j)];
                    let dc_j = dc[(r, j)]
                        + dh[(r, j)] * step.o[(r, j)] * tanh_deriv_from_output(step.tanh_c[(r, j)]);
                    let di = dc_j * step.g[(r, j)];
                    let df = dc_j * step.c_prev[(r, j)];
                    let dg = dc_j * step.i[(r, j)];
                    dz[(r, j)] = di * sigmoid_deriv_from_output(step.i[(r, j)]);
                    dz[(r, hdim + j)] = df * sigmoid_deriv_from_output(step.f[(r, j)]);
                    dz[(r, 2 * hdim + j)] = dg * tanh_deriv_from_output(step.g[(r, j)]);
                    dz[(r, 3 * hdim + j)] = do_ * sigmoid_deriv_from_output(step.o[(r, j)]);
                    dc[(r, j)] = dc_j * step.f[(r, j)];
                }
            }
            let dz_t = dz.transpose(); // 4H x B
            self.gw_x.add_assign(&dz_t.matmul(&step.x)); // 4H x E
            self.gw_h.add_assign(&dz_t.matmul(&step.h_prev)); // 4H x H
            for r in 0..b {
                for (gb, &d) in self.gb.iter_mut().zip(dz.row(r).iter()) {
                    *gb += d;
                }
            }
            let dx = dz.matmul(&self.w_x); // B x E
            for (r, (tokens, _)) in examples.iter().enumerate() {
                self.embedding.accumulate_grad(tokens[t], dx.row(r));
            }
            dh = dz.matmul(&self.w_h); // B x H
        }
        self.apply_grads(lr / b as f32);
        total / b as f32
    }

    /// Evaluates confidence (probability assigned to `target`) on a
    /// window without learning or disturbing the online state.
    pub fn eval_window(&self, tokens: &[usize], target: usize) -> SoftmaxLoss {
        assert!(!tokens.is_empty(), "empty evaluation window");
        let mut h = vec![0.0; self.cfg.hidden];
        let mut c = vec![0.0; self.cfg.hidden];
        for &t in tokens {
            let cache = self.cell_forward(t, &h, &c);
            h = cache.h;
            c = cache.c;
        }
        let logits = self.project(&h);
        softmax_cross_entropy(&logits, target)
    }

    /// Backpropagates `dlogits` (at the final step) through the cached
    /// steps, accumulating parameter gradients.
    fn backward_through(&mut self, caches: &[StepCache], dlogits: &[f32]) {
        let hdim = self.cfg.hidden;
        let Some(last) = caches.last() else { return };
        // Projection layer.
        self.gw_out.rank1_acc(1.0, dlogits, &last.h);
        for (g, &d) in self.gb_out.iter_mut().zip(dlogits.iter()) {
            *g += d;
        }
        let mut dh = vec![0.0; hdim];
        self.w_out.matvec_t_acc(dlogits, &mut dh);
        let mut dc = vec![0.0; hdim];
        // Walk the steps backwards.
        for cache in caches.iter().rev() {
            let mut dz = vec![0.0; 4 * hdim];
            for j in 0..hdim {
                let do_ = dh[j] * cache.tanh_c[j];
                let dc_j = dc[j] + dh[j] * cache.o[j] * tanh_deriv_from_output(cache.tanh_c[j]);
                let di = dc_j * cache.g[j];
                let df = dc_j * cache.c_prev[j];
                let dg = dc_j * cache.i[j];
                dz[j] = di * sigmoid_deriv_from_output(cache.i[j]);
                dz[hdim + j] = df * sigmoid_deriv_from_output(cache.f[j]);
                dz[2 * hdim + j] = dg * tanh_deriv_from_output(cache.g[j]);
                dz[3 * hdim + j] = do_ * sigmoid_deriv_from_output(cache.o[j]);
                // Carry dc to the previous step.
                dc[j] = dc_j * cache.f[j];
            }
            let x = self.embedding.lookup(cache.token).to_vec();
            self.gw_x.rank1_acc(1.0, &dz, &x);
            self.gw_h.rank1_acc(1.0, &dz, &cache.h_prev);
            for (g, &d) in self.gb.iter_mut().zip(dz.iter()) {
                *g += d;
            }
            let mut dx = vec![0.0; self.cfg.embed_dim];
            self.w_x.matvec_t_acc(&dz, &mut dx);
            self.embedding.accumulate_grad(cache.token, &dx);
            dh = vec![0.0; hdim];
            self.w_h.matvec_t_acc(&dz, &mut dh);
        }
    }

    /// Applies and clears accumulated gradients with per-element
    /// clipping.
    fn apply_grads(&mut self, lr: f32) {
        let clip = self.cfg.grad_clip;
        self.gw_x.clip(clip);
        self.gw_h.clip(clip);
        self.gw_out.clip(clip);
        self.w_x.axpy(-lr, &self.gw_x);
        self.w_h.axpy(-lr, &self.gw_h);
        self.w_out.axpy(-lr, &self.gw_out);
        for (w, g) in self.b.iter_mut().zip(self.gb.iter()) {
            *w -= lr * g.clamp(-clip, clip);
        }
        for (w, g) in self.b_out.iter_mut().zip(self.gb_out.iter()) {
            *w -= lr * g.clamp(-clip, clip);
        }
        self.gw_x.fill_zero();
        self.gw_h.fill_zero();
        self.gw_out.fill_zero();
        self.gb.iter_mut().for_each(|g| *g = 0.0);
        self.gb_out.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Read-only access to the weight tensors, in the order
    /// `(embedding, w_x, w_h, b, w_out, b_out)`. Used by quantization.
    pub fn tensors(&self) -> (&Embedding, &Matrix, &Matrix, &[f32], &Matrix, &[f32]) {
        (
            &self.embedding,
            &self.w_x,
            &self.w_h,
            &self.b,
            &self.w_out,
            &self.b_out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains the network on a deterministic cyclic token sequence and
    /// expects near-perfect next-token confidence.
    #[test]
    fn learns_a_cycle_online() {
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let cycle = [1usize, 4, 2, 7, 5, 3];
        let mut last_conf = 0.0;
        for epoch in 0..300 {
            for w in 0..cycle.len() {
                let token = cycle[w];
                let target = cycle[(w + 1) % cycle.len()];
                let l = net.train_step(token, target);
                if epoch > 250 {
                    last_conf = l.confidence;
                }
            }
        }
        assert!(
            last_conf > 0.9,
            "expected high confidence after training, got {last_conf}"
        );
    }

    #[test]
    fn rollout_reproduces_learned_cycle() {
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let cycle = [1usize, 4, 2, 7];
        for _ in 0..400 {
            for w in 0..cycle.len() {
                net.train_step(cycle[w], cycle[(w + 1) % cycle.len()]);
            }
        }
        // Warm the state on most of a cycle, then roll out.
        for &t in &cycle[..3] {
            net.infer_advance(t);
        }
        let preds = net.rollout(cycle[3], 4);
        assert_eq!(preds, vec![1, 4, 2, 7]);
    }

    /// Finite-difference gradient check on every tensor through a
    /// 3-step BPTT window.
    #[test]
    fn gradients_match_finite_differences() {
        let cfg = LstmConfig {
            vocab: 6,
            embed_dim: 4,
            hidden: 5,
            learning_rate: 0.0,
            grad_clip: 1e9,
            threads: 1,
            seed: 42,
        };
        let tokens = vec![1usize, 3, 2];
        let target = 4usize;

        // Analytic gradients.
        let mut net = LstmNetwork::new(cfg.clone());
        let mut caches = Vec::new();
        let mut h = vec![0.0; cfg.hidden];
        let mut c = vec![0.0; cfg.hidden];
        for &t in &tokens {
            let cache = net.cell_forward(t, &h, &c);
            h = cache.h.clone();
            c = cache.c.clone();
            caches.push(cache);
        }
        let logits = net.project(&h);
        let loss = softmax_cross_entropy(&logits, target);
        let dlogits = softmax_cross_entropy_grad(&loss.probs, target);
        net.backward_through(&caches, &dlogits);
        let gw_x = net.gw_x.clone();
        let gw_h = net.gw_h.clone();
        let gw_out = net.gw_out.clone();
        let gb = net.gb.clone();

        let eval = |net: &LstmNetwork| -> f32 {
            let mut h = vec![0.0; cfg.hidden];
            let mut c = vec![0.0; cfg.hidden];
            for &t in &tokens {
                let cache = net.cell_forward(t, &h, &c);
                h = cache.h;
                c = cache.c;
            }
            softmax_cross_entropy(&net.project(&h), target).loss
        };

        let eps = 1e-3;
        // Spot-check a spread of coordinates in each tensor.
        for &(r, cidx) in &[(0usize, 0usize), (3, 2), (10, 1), (19, 3)] {
            let mut plus = LstmNetwork::new(cfg.clone());
            plus.w_x[(r, cidx)] += eps;
            let mut minus = LstmNetwork::new(cfg.clone());
            minus.w_x[(r, cidx)] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            assert!(
                (gw_x[(r, cidx)] - numeric).abs() < 2e-2,
                "w_x({r},{cidx}): analytic {} vs numeric {}",
                gw_x[(r, cidx)],
                numeric
            );
        }
        for &(r, cidx) in &[(0usize, 0usize), (7, 4), (15, 2)] {
            let mut plus = LstmNetwork::new(cfg.clone());
            plus.w_h[(r, cidx)] += eps;
            let mut minus = LstmNetwork::new(cfg.clone());
            minus.w_h[(r, cidx)] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            assert!(
                (gw_h[(r, cidx)] - numeric).abs() < 2e-2,
                "w_h({r},{cidx}): analytic {} vs numeric {}",
                gw_h[(r, cidx)],
                numeric
            );
        }
        for &(r, cidx) in &[(0usize, 0usize), (4, 3), (5, 1)] {
            let mut plus = LstmNetwork::new(cfg.clone());
            plus.w_out[(r, cidx)] += eps;
            let mut minus = LstmNetwork::new(cfg.clone());
            minus.w_out[(r, cidx)] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            assert!(
                (gw_out[(r, cidx)] - numeric).abs() < 2e-2,
                "w_out({r},{cidx}): analytic {} vs numeric {}",
                gw_out[(r, cidx)],
                numeric
            );
        }
        for &j in &[0usize, 6, 12, 19] {
            let mut plus = LstmNetwork::new(cfg.clone());
            plus.b[j] += eps;
            let mut minus = LstmNetwork::new(cfg.clone());
            minus.b[j] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            assert!(
                (gb[j] - numeric).abs() < 2e-2,
                "b({j}): analytic {} vs numeric {}",
                gb[j],
                numeric
            );
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let cfg = LstmConfig::paper_table2();
        let net = LstmNetwork::new(cfg.clone());
        let expect = cfg.vocab * cfg.embed_dim
            + 4 * cfg.hidden * (cfg.embed_dim + cfg.hidden + 1)
            + cfg.vocab * cfg.hidden
            + cfg.vocab;
        assert_eq!(net.param_count(), expect);
        // The paper's Table 2 lists ~170 k parameters.
        assert!(
            (150_000..220_000).contains(&net.param_count()),
            "paper-scale model should be ~170k params, got {}",
            net.param_count()
        );
    }

    #[test]
    fn infer_does_not_mutate_state_but_infer_advance_does() {
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let s0 = net.state();
        let _ = net.infer(3);
        assert_eq!(net.state(), s0);
        let _ = net.infer_advance(3);
        assert_ne!(net.state(), s0);
    }

    #[test]
    fn two_thread_forward_matches_single_thread() {
        let mut cfg = LstmConfig::tiny();
        cfg.threads = 2;
        let net2 = LstmNetwork::new(cfg);
        let net1 = LstmNetwork::new(LstmConfig::tiny());
        let p1 = net1.infer(5);
        let p2 = net2.infer(5);
        for (a, b) in p1.iter().zip(p2.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_training_reduces_loss() {
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let examples: Vec<(Vec<usize>, usize)> = (0..8)
            .map(|i| (vec![i % 4, (i + 1) % 4], (i + 2) % 4))
            .collect();
        let first = net.train_batch(&examples, 0.2);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_batch(&examples, 0.2);
        }
        assert!(last < first * 0.5, "batch loss {first} -> {last}");
    }

    #[test]
    fn fused_batch_matches_per_example_batch() {
        let examples: Vec<(Vec<usize>, usize)> = (0..6)
            .map(|i| (vec![i % 4, (i + 1) % 4, (i + 2) % 4], (i + 3) % 4))
            .collect();
        let mut loop_net = LstmNetwork::new(LstmConfig::tiny());
        let mut fused_net = LstmNetwork::new(LstmConfig::tiny());
        for _ in 0..20 {
            let a = loop_net.train_batch(&examples, 0.1);
            let b = fused_net.train_batch_fused(&examples, 0.1);
            assert!((a - b).abs() < 1e-3, "losses {a} vs {b}");
        }
        // After 20 identical updates, evaluations agree closely.
        for (w, t) in &examples {
            let la = loop_net.eval_window(w, *t).confidence;
            let lb = fused_net.eval_window(w, *t).confidence;
            assert!((la - lb).abs() < 1e-2, "{la} vs {lb}");
        }
    }

    #[test]
    fn fused_batch_falls_back_on_ragged_windows() {
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let examples = vec![(vec![1usize, 2], 3usize), (vec![1], 2)];
        let loss = net.train_batch_fused(&examples, 0.1);
        assert!(loss.is_finite());
    }

    #[test]
    fn train_window_fits_multi_step_dependency() {
        // Target depends on the token two steps back: needs BPTT.
        let mut net = LstmNetwork::new(LstmConfig::tiny());
        let data = [(vec![2usize, 0, 0], 5usize), (vec![3, 0, 0], 7)];
        for _ in 0..400 {
            for (w, t) in &data {
                net.train_window(w, *t, 0.1);
            }
        }
        for (w, t) in &data {
            let l = net.eval_window(w, *t);
            assert!(l.confidence > 0.8, "confidence {}", l.confidence);
        }
    }
}
