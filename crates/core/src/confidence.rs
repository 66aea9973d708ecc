//! Confidence and accuracy tracking.
//!
//! Used by the CLS prefetcher's accuracy report and epoch summaries,
//! and by the availability protocol (§5.5: "redeployed when the live
//! model's confidence/accuracy decreases"). The rolling accuracy is
//! [`hnp_memsim::OutcomeWindow`], the window the resilience wrapper
//! judges prefetch outcomes with.

use hnp_memsim::OutcomeWindow;

/// An exponential moving average of model confidence plus a windowed
/// accuracy counter.
#[derive(Debug, Clone)]
pub struct ConfidenceTracker {
    alpha: f32,
    ema: f32,
    recent: OutcomeWindow,
}

impl ConfidenceTracker {
    /// Creates a tracker with EMA smoothing `alpha` (weight of the new
    /// observation) and a rolling accuracy window of `window` steps.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `window == 0`.
    pub fn new(alpha: f32, window: usize) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            alpha,
            ema: 0.0,
            recent: OutcomeWindow::new(window),
        }
    }

    /// Records one prediction outcome.
    pub fn record(&mut self, confidence: f32, correct: bool) {
        self.ema = (1.0 - self.alpha) * self.ema + self.alpha * confidence;
        self.recent.push(correct);
    }

    /// Smoothed confidence.
    pub fn ema(&self) -> f32 {
        self.ema
    }

    /// Accuracy over the rolling window (0 before any observation).
    /// The f64 quotient rounds to the f32 one: f64 carries more than
    /// twice f32's precision.
    pub fn windowed_accuracy(&self) -> f32 {
        self.recent.accuracy() as f32
    }

    /// Observations recorded so far, capped at the window size.
    pub fn window_fill(&self) -> usize {
        self.recent.filled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_converges_to_constant_input() {
        let mut t = ConfidenceTracker::new(0.1, 10);
        for _ in 0..200 {
            t.record(0.8, true);
        }
        assert!((t.ema() - 0.8).abs() < 0.01);
    }

    #[test]
    fn windowed_accuracy_tracks_recent_flips() {
        let mut t = ConfidenceTracker::new(0.5, 4);
        for _ in 0..4 {
            t.record(1.0, true);
        }
        assert_eq!(t.windowed_accuracy(), 1.0);
        for _ in 0..4 {
            t.record(0.0, false);
        }
        assert_eq!(t.windowed_accuracy(), 0.0);
        t.record(1.0, true);
        assert_eq!(t.windowed_accuracy(), 0.25);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = ConfidenceTracker::new(0.2, 8);
        assert_eq!(t.ema(), 0.0);
        assert_eq!(t.windowed_accuracy(), 0.0);
        assert_eq!(t.window_fill(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn bad_alpha_rejected() {
        let _ = ConfidenceTracker::new(0.0, 5);
    }
}
