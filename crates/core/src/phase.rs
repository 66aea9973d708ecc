//! Online phase detection (§5.4).
//!
//! "Another approach, also inspired by cognitive theories, is to
//! identify contexts or phases using clustering of abstract
//! representations." The detector clusters windows of the delta-token
//! stream: each window becomes a normalized token histogram; windows
//! are matched to the nearest phase centroid by cosine similarity, and
//! a new phase is opened when nothing is close enough. Centroids track
//! their members with an exponential moving average, so phases adapt
//! slowly (like neocortical representations) while detection is fast.

/// Cosine similarity required to join an existing phase.
const SIMILARITY_THRESHOLD: f64 = 0.6;
/// EMA weight of a new window in its phase centroid.
const CENTROID_ALPHA: f64 = 0.2;
/// Maximum tracked phases (oldest merged away beyond this).
const MAX_PHASES: usize = 16;

/// A reported phase transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PhaseChange {
    /// Phase before the change.
    pub from: u64,
    /// Phase after the change.
    pub to: u64,
    /// Whether `to` was newly created.
    pub is_new: bool,
}

/// The online phase detector.
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    /// Tokens per detection window.
    window: usize,
    vocab_len: usize,
    /// Token counts of the window being filled; normalized in place
    /// when it completes.
    current_window: Vec<f64>,
    filled: usize,
    /// Phase ids, oldest first, one per centroid.
    ids: Vec<u64>,
    /// The centroids, `vocab_len` values each, in `ids` order. Room
    /// for `MAX_PHASES` is reserved at construction, so opening and
    /// retiring phases never allocates.
    centroids: Vec<f64>,
    next_id: u64,
    current_phase: u64,
}

impl PhaseDetector {
    /// Creates a detector over a `vocab_len`-token alphabet that
    /// assigns a phase to every `window` tokens.
    ///
    /// # Panics
    ///
    /// Panics on a zero vocabulary or window.
    pub fn new(vocab_len: usize, window: usize) -> Self {
        assert!(vocab_len > 0 && window > 0);
        Self {
            current_window: vec![0.0; vocab_len],
            filled: 0,
            ids: Vec::with_capacity(MAX_PHASES),
            centroids: Vec::with_capacity(MAX_PHASES * vocab_len),
            next_id: 1,
            current_phase: 0,
            vocab_len,
            window,
        }
    }

    /// The current phase id (0 until the first window completes).
    pub fn current_phase(&self) -> u64 {
        self.current_phase
    }

    /// Feeds one token; returns a change event when a window completes
    /// and the phase assignment changes.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary.
    pub(crate) fn observe(&mut self, token: usize) -> Option<PhaseChange> {
        assert!(token < self.vocab_len, "token out of vocabulary");
        self.current_window[token] += 1.0;
        self.filled += 1;
        if self.filled < self.window {
            return None;
        }
        let change = self.assign_window();
        self.current_window.iter_mut().for_each(|x| *x = 0.0);
        self.filled = 0;
        change
    }

    /// Normalizes the complete window and matches it to the nearest
    /// centroid, joining that phase or opening a new one.
    fn assign_window(&mut self) -> Option<PhaseChange> {
        normalize(&mut self.current_window);
        let hist = &self.current_window;
        let (best, best_sim) = self
            .centroids
            .chunks_exact(self.vocab_len)
            .enumerate()
            .map(|(i, c)| (i, cosine(hist, c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unzip();
        let old = self.current_phase;
        if let (Some(i), Some(sim)) = (best, best_sim) {
            if sim >= SIMILARITY_THRESHOLD {
                // Join and update the centroid.
                let alpha = CENTROID_ALPHA;
                let id = self.ids[i];
                let centroid = &mut self.centroids[i * self.vocab_len..(i + 1) * self.vocab_len];
                for (c, h) in centroid.iter_mut().zip(hist.iter()) {
                    *c = (1.0 - alpha) * *c + alpha * h;
                }
                self.current_phase = id;
                return (old != id).then_some(PhaseChange {
                    from: old,
                    to: id,
                    is_new: false,
                });
            }
        }
        // Open a new phase, retiring the oldest beyond the budget.
        if self.ids.len() >= MAX_PHASES {
            self.ids.remove(0);
            self.centroids.drain(..self.vocab_len);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.centroids.extend_from_slice(hist);
        self.current_phase = id;
        Some(PhaseChange {
            from: old,
            to: id,
            is_new: true,
        })
    }
}

/// Scales `v` to unit length in place (a zero vector stays zero).
fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm != 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_distinct_phases_and_recognizes_returns() {
        let mut d = PhaseDetector::new(8, 16);
        let mut changes = Vec::new();
        // Phase A: token 1 dominates. Phase B: token 5 dominates.
        for _ in 0..64 {
            if let Some(c) = d.observe(1) {
                changes.push(c);
            }
        }
        let phase_a = d.current_phase();
        for _ in 0..64 {
            if let Some(c) = d.observe(5) {
                changes.push(c);
            }
        }
        let phase_b = d.current_phase();
        assert_ne!(phase_a, phase_b);
        // Return to A: the detector recognizes the old phase.
        for _ in 0..64 {
            d.observe(1);
        }
        assert_eq!(d.current_phase(), phase_a, "must recognize the old phase");
        assert_eq!(d.ids.len(), 2);
        assert!(changes.iter().any(|c| c.is_new));
    }

    #[test]
    fn no_change_within_a_stable_phase() {
        let mut d = PhaseDetector::new(4, 16);
        let mut changes = 0;
        for _ in 0..160 {
            if d.observe(2).is_some() {
                changes += 1;
            }
        }
        assert_eq!(changes, 1, "only the initial phase creation");
    }

    #[test]
    fn mixed_windows_join_nearest_phase() {
        let mut d = PhaseDetector::new(4, 16);
        for _ in 0..32 {
            d.observe(0);
        }
        let a = d.current_phase();
        // A window of mostly-0 with some noise joins phase A.
        for i in 0..16 {
            d.observe(if i % 4 == 0 { 1 } else { 0 });
        }
        assert_eq!(d.current_phase(), a);
    }

    #[test]
    fn phase_budget_is_bounded() {
        // Each one-hot window is orthogonal to every centroid, so each
        // opens a new phase: twice the budget overflows it.
        let mut d = PhaseDetector::new(2 * MAX_PHASES, 8);
        for tok in 0..2 * MAX_PHASES {
            for _ in 0..8 {
                d.observe(tok);
            }
        }
        assert!(d.ids.len() <= MAX_PHASES);
    }

    #[test]
    #[should_panic(expected = "token out of vocabulary")]
    fn oov_token_panics() {
        let mut d = PhaseDetector::new(4, 16);
        d.observe(4);
    }
}
