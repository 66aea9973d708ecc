//! A small decoder-only transformer for next-delta prediction.
//!
//! §2 of the paper lists transformer-based prefetchers among the prior
//! DL work it critiques; this model makes that comparison point
//! concrete. One pre-norm block (causal self-attention + ReLU MLP with
//! residuals), learned positional embeddings, and a projection over
//! the delta vocabulary. The API mirrors [`LstmNetwork`]'s windowed
//! training so the Fig.-3 protocol and the prefetcher wrapper apply
//! unchanged: `train_window` takes its learning rate, gradients are
//! clipped per element at 1.0, and `rollout_top_k_with_confidence` is
//! the one rollout.
//!
//! [`LstmNetwork`]: crate::lstm::LstmNetwork

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attention::{AttentionCache, CausalSelfAttention};
use crate::embedding::Embedding;
use crate::init;
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_grad, SoftmaxLoss};
use crate::matrix::Matrix;
use crate::norm::{RmsNorm, RmsNormCache};

/// Per-element gradient clip applied before every update.
const GRAD_CLIP: f32 = 1.0;

/// Transformer hyper-parameters.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Vocabulary (delta classes).
    pub vocab: usize,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP hidden width.
    pub ff: usize,
    /// Context window (sequence length).
    pub window: usize,
    /// Init seed.
    pub seed: u64,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self {
            vocab: 130,
            dim: 48,
            heads: 2,
            ff: 96,
            window: 8,
            seed: 0x7f0,
        }
    }
}

/// The transformer network.
pub struct TransformerNetwork {
    cfg: TransformerConfig,
    embedding: Embedding,
    /// Learned positional embeddings, `window x dim`.
    pos: Matrix,
    gpos: Matrix,
    norm1: RmsNorm,
    attn: CausalSelfAttention,
    norm2: RmsNorm,
    /// MLP weights.
    w1: Matrix,
    w2: Matrix,
    gw1: Matrix,
    gw2: Matrix,
    /// Output projection, `vocab x dim` (+ bias).
    w_out: Matrix,
    b_out: Vec<f32>,
    gw_out: Matrix,
    gb_out: Vec<f32>,
}

/// Forward cache for one window.
struct ForwardCache {
    tokens: Vec<usize>,
    n1_caches: Vec<RmsNormCache>,
    attn_cache: AttentionCache,
    n2_caches: Vec<RmsNormCache>,
    n2: Matrix,
    /// Pre-activation MLP hidden, `S x ff`.
    z: Matrix,
    x2: Matrix,
    logits: Vec<f32>,
}

impl TransformerNetwork {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions.
    pub fn new(cfg: TransformerConfig) -> Self {
        assert!(cfg.vocab > 0 && cfg.dim > 0 && cfg.ff > 0 && cfg.window > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            embedding: Embedding::new(cfg.vocab, cfg.dim, &mut rng),
            pos: init::uniform(cfg.window, cfg.dim, 0.05, &mut rng),
            gpos: Matrix::zeros(cfg.window, cfg.dim),
            norm1: RmsNorm::new(cfg.dim),
            attn: CausalSelfAttention::new(cfg.dim, cfg.heads, &mut rng),
            norm2: RmsNorm::new(cfg.dim),
            w1: init::xavier_uniform(cfg.dim, cfg.ff, &mut rng),
            w2: init::xavier_uniform(cfg.ff, cfg.dim, &mut rng),
            gw1: Matrix::zeros(cfg.dim, cfg.ff),
            gw2: Matrix::zeros(cfg.ff, cfg.dim),
            w_out: init::xavier_uniform(cfg.vocab, cfg.dim, &mut rng),
            b_out: vec![0.0; cfg.vocab],
            gw_out: Matrix::zeros(cfg.vocab, cfg.dim),
            gb_out: vec![0.0; cfg.vocab],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.embedding.param_count()
            + self.pos.len()
            + self.norm1.param_count()
            + self.attn.param_count()
            + self.norm2.param_count()
            + self.w1.len()
            + self.w2.len()
            + self.w_out.len()
            + self.b_out.len()
    }

    /// Forward over a token window (at most `window` tokens; shorter
    /// windows are allowed and use the leading positions).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than the window, or out of
    /// vocabulary.
    fn forward(&self, tokens: &[usize]) -> ForwardCache {
        assert!(
            !tokens.is_empty() && tokens.len() <= self.cfg.window,
            "window must hold 1..={} tokens",
            self.cfg.window
        );
        let s = tokens.len();
        let d = self.cfg.dim;
        let mut x0 = Matrix::zeros(s, d);
        for (i, &t) in tokens.iter().enumerate() {
            let e = self.embedding.lookup(t);
            for c in 0..d {
                x0[(i, c)] = e[c] + self.pos[(i, c)];
            }
        }
        // Pre-norm attention with residual.
        let mut n1 = Matrix::zeros(s, d);
        let mut n1_caches = Vec::with_capacity(s);
        for i in 0..s {
            let (row, cache) = self.norm1.forward(x0.row(i));
            n1.row_mut(i).copy_from_slice(&row);
            n1_caches.push(cache);
        }
        let (a, attn_cache) = self.attn.forward(&n1);
        let mut x1 = x0;
        x1.add_assign(&a);
        // Pre-norm MLP with residual.
        let mut n2 = Matrix::zeros(s, d);
        let mut n2_caches = Vec::with_capacity(s);
        for i in 0..s {
            let (row, cache) = self.norm2.forward(x1.row(i));
            n2.row_mut(i).copy_from_slice(&row);
            n2_caches.push(cache);
        }
        let z = n2.matmul(&self.w1);
        let mut r = z.clone();
        r.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
        let f = r.matmul(&self.w2);
        let mut x2 = x1;
        x2.add_assign(&f);
        // Project the last position.
        let mut logits = self.b_out.clone();
        self.w_out.matvec_acc(x2.row(s - 1), &mut logits);
        ForwardCache {
            tokens: tokens.to_vec(),
            n1_caches,
            attn_cache,
            n2_caches,
            n2,
            z,
            x2,
            logits,
        }
    }

    /// Evaluates confidence on `(tokens, target)` without learning.
    pub fn eval_window(&self, tokens: &[usize], target: usize) -> SoftmaxLoss {
        let cache = self.forward(tokens);
        softmax_cross_entropy(&cache.logits, target)
    }

    /// One training step on `(tokens, target)` at learning rate `lr`.
    pub fn train_window(&mut self, tokens: &[usize], target: usize, lr: f32) -> SoftmaxLoss {
        let cache = self.forward(tokens);
        let loss = softmax_cross_entropy(&cache.logits, target);
        let dlogits = softmax_cross_entropy_grad(&loss.probs, target);
        self.backward(&cache, &dlogits);
        self.apply_grads(lr);
        loss
    }

    /// Autoregressive rollout from a context window: predicts `steps`
    /// future tokens (`width` candidates each), feeding back the top-1
    /// through a sliding window. Also returns the first step's top
    /// confidence.
    pub fn rollout_top_k_with_confidence(
        &self,
        context: &[usize],
        steps: usize,
        width: usize,
    ) -> (Vec<Vec<usize>>, f32) {
        let mut window: Vec<usize> = context
            .iter()
            .copied()
            .rev()
            .take(self.cfg.window)
            .collect();
        window.reverse();
        let mut preds = Vec::with_capacity(steps);
        let mut first_conf = 0.0;
        for step in 0..steps {
            let cache = self.forward(&window);
            let mut probs = cache.logits.clone();
            crate::activations::softmax_in_place(&mut probs);
            let top = crate::activations::top_k(&probs, width);
            if step == 0 {
                first_conf = probs[top[0]];
            }
            let next = top[0];
            preds.push(top);
            window.push(next);
            if window.len() > self.cfg.window {
                window.remove(0);
            }
        }
        (preds, first_conf)
    }

    fn backward(&mut self, cache: &ForwardCache, dlogits: &[f32]) {
        let s = cache.tokens.len();
        let d = self.cfg.dim;
        // Output projection.
        self.gw_out.rank1_acc(1.0, dlogits, cache.x2.row(s - 1));
        for (g, &v) in self.gb_out.iter_mut().zip(dlogits.iter()) {
            *g += v;
        }
        let mut dx2 = Matrix::zeros(s, d);
        {
            let mut dh = vec![0.0; d];
            self.w_out.matvec_t_acc(dlogits, &mut dh);
            dx2.row_mut(s - 1).copy_from_slice(&dh);
        }
        // MLP backward: x2 = x1 + relu(n2 W1) W2.
        let mut dx1 = dx2.clone();
        let mut dn2 = Matrix::zeros(s, d);
        {
            // r = relu(z); f = r W2; df = dx2.
            let mut r = cache.z.clone();
            r.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
            let rt = r.transpose();
            self.gw2.add_assign(&rt.matmul(&dx2));
            let mut dr = dx2.matmul(&self.w2.transpose());
            // ReLU gate.
            for (dv, &zv) in dr.as_mut_slice().iter_mut().zip(cache.z.as_slice()) {
                if zv <= 0.0 {
                    *dv = 0.0;
                }
            }
            let n2t = cache.n2.transpose();
            self.gw1.add_assign(&n2t.matmul(&dr));
            dn2.add_assign(&dr.matmul(&self.w1.transpose()));
        }
        for i in 0..s {
            let dxrow = self.norm2.backward(&cache.n2_caches[i], dn2.row(i));
            for c in 0..d {
                dx1[(i, c)] += dxrow[c];
            }
        }
        // Attention backward: x1 = x0 + attn(n1).
        let mut dx0 = dx1.clone();
        let dn1 = self.attn.backward(&cache.attn_cache, &dx1);
        for i in 0..s {
            let dxrow = self.norm1.backward(&cache.n1_caches[i], dn1.row(i));
            for c in 0..d {
                dx0[(i, c)] += dxrow[c];
            }
        }
        // Embedding and positional gradients.
        for (i, &t) in cache.tokens.iter().enumerate() {
            self.embedding.accumulate_grad(t, dx0.row(i));
            for c in 0..d {
                self.gpos[(i, c)] += dx0[(i, c)];
            }
        }
    }

    fn apply_grads(&mut self, lr: f32) {
        let clip = GRAD_CLIP;
        self.embedding.apply_grads(lr, clip);
        self.gpos.clip(clip);
        self.pos.axpy(-lr, &self.gpos);
        self.gpos.fill_zero();
        self.norm1.apply_grads(lr, clip);
        self.norm2.apply_grads(lr, clip);
        self.attn.apply_grads(lr, clip);
        for (w, g) in [(&mut self.w1, &mut self.gw1), (&mut self.w2, &mut self.gw2)] {
            g.clip(clip);
            w.axpy(-lr, g);
            g.fill_zero();
        }
        self.gw_out.clip(clip);
        self.w_out.axpy(-lr, &self.gw_out);
        self.gw_out.fill_zero();
        for (w, g) in self.b_out.iter_mut().zip(self.gb_out.iter_mut()) {
            *w -= lr * g.clamp(-clip, clip);
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TransformerConfig {
        /// A small configuration for unit tests.
        fn tiny() -> Self {
            Self {
                vocab: 12,
                dim: 16,
                heads: 2,
                ff: 32,
                window: 4,
                ..Self::default()
            }
        }
    }

    #[test]
    fn learns_a_fixed_mapping() {
        let mut net = TransformerNetwork::new(TransformerConfig::tiny());
        // Window [1, 2, 3] -> 7; window [3, 2, 1] -> 4.
        let data = [(vec![1usize, 2, 3], 7usize), (vec![3, 2, 1], 4)];
        for _ in 0..300 {
            for (w, t) in &data {
                net.train_window(w, *t, 0.1);
            }
        }
        for (w, t) in &data {
            let l = net.eval_window(w, *t);
            assert!(l.confidence > 0.9, "confidence {}", l.confidence);
        }
    }

    #[test]
    fn learns_a_cycle_and_rolls_it_out() {
        let mut net = TransformerNetwork::new(TransformerConfig::tiny());
        let cycle = [1usize, 4, 2, 7, 5, 3];
        for _ in 0..400 {
            for i in 0..cycle.len() {
                let w: Vec<usize> = (0..4).map(|k| cycle[(i + k) % cycle.len()]).collect();
                let target = cycle[(i + 4) % cycle.len()];
                net.train_window(&w, target, 0.1);
            }
        }
        let ctx: Vec<usize> = (0..4).map(|k| cycle[k % cycle.len()]).collect();
        let (preds, conf) = net.rollout_top_k_with_confidence(&ctx, 4, 2);
        assert_eq!(preds.len(), 4);
        assert!(conf > 0.8, "rollout confidence {conf}");
        assert_eq!(preds[0][0], cycle[4]);
        assert_eq!(preds[1][0], cycle[5]);
    }

    /// End-to-end finite-difference check through the full block via
    /// the embedding path.
    #[test]
    fn end_to_end_gradients_match_finite_differences() {
        let cfg = TransformerConfig {
            vocab: 6,
            dim: 8,
            heads: 2,
            ff: 12,
            window: 3,
            seed: 9,
        };
        let tokens = vec![1usize, 3, 2];
        let target = 4usize;
        let net = TransformerNetwork::new(cfg.clone());
        let cache = net.forward(&tokens);
        let loss = softmax_cross_entropy(&cache.logits, target);
        let dlogits = softmax_cross_entropy_grad(&loss.probs, target);
        let mut net_g = TransformerNetwork::new(cfg.clone());
        net_g.backward(&cache, &dlogits);
        // Check positional-embedding gradients (they sit at the very
        // bottom of the graph, so correctness implies the whole chain).
        let eps = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (1, 4), (2, 7)] {
            let mut plus = TransformerNetwork::new(cfg.clone());
            plus.pos[(r, c)] += eps;
            let mut minus = TransformerNetwork::new(cfg.clone());
            minus.pos[(r, c)] -= eps;
            let lp = plus.eval_window(&tokens, target).loss;
            let lm = minus.eval_window(&tokens, target).loss;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (net_g.gpos[(r, c)] - numeric).abs() < 2e-2,
                "gpos({r},{c}): {} vs {}",
                net_g.gpos[(r, c)],
                numeric
            );
        }
    }

    #[test]
    fn short_windows_are_accepted() {
        let net = TransformerNetwork::new(TransformerConfig::tiny());
        let l = net.eval_window(&[2], 3);
        assert!(l.confidence >= 0.0);
    }

    #[test]
    fn param_count_is_consistent() {
        let cfg = TransformerConfig::tiny();
        let net = TransformerNetwork::new(cfg.clone());
        let expect = cfg.vocab * cfg.dim       // embedding
            + cfg.window * cfg.dim             // positions
            + 2 * cfg.dim                      // two norms
            + 4 * cfg.dim * cfg.dim            // attention
            + 2 * cfg.dim * cfg.ff             // mlp
            + cfg.vocab * cfg.dim + cfg.vocab; // output
        assert_eq!(net.param_count(), expect);
    }

    #[test]
    #[should_panic(expected = "window must hold")]
    fn oversized_window_panics() {
        let net = TransformerNetwork::new(TransformerConfig::tiny());
        let _ = net.eval_window(&[1, 2, 3, 4, 5], 0);
    }
}
