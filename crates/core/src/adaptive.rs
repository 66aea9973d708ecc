//! Feedback-driven geometry adaptation (§5.2).
//!
//! "Configuring the prefetch length, width, and the access history
//! will require intelligent co-design." This controller closes the
//! loop: prefetch-outcome feedback ([`PrefetchFeedback`]) steers the
//! width (accuracy budget) and lookahead (timeliness budget) online.
//!
//! * Width: grow while accuracy (useful / (useful + unused)) is high —
//!   bandwidth is being converted into coverage; shrink when accuracy
//!   drops — the §5.2 "highly selective" regime.
//! * Lookahead: grow while prefetches keep arriving *late* (the model
//!   is right but not early enough — exactly the paper's "predict a
//!   sequence of misses further into the future"); shrink back when
//!   nothing is late.
//!
//! [`PrefetchFeedback`]: hnp_memsim::prefetcher::PrefetchFeedback

use hnp_memsim::prefetcher::PrefetchFeedback;

/// Inclusive width bounds.
const WIDTH_RANGE: (usize, usize) = (1, 4);
/// Inclusive lookahead bounds.
const LOOKAHEAD_RANGE: (usize, usize) = (1, 8);
/// Feedback events per adaptation decision.
const PERIOD: u32 = 256;
/// Grow width above this accuracy.
const GROW_ACCURACY: f64 = 0.75;
/// Shrink width below this accuracy.
const SHRINK_ACCURACY: f64 = 0.4;
/// Grow lookahead above this late fraction.
const LATE_FRACTION: f64 = 0.25;

/// The online width/lookahead controller.
#[derive(Debug, Clone)]
pub struct AdaptiveGeometry {
    width: usize,
    lookahead: usize,
    useful: u32,
    unused: u32,
    late: u32,
    seen: u32,
    /// Total adaptation decisions taken (reporting).
    pub adaptations: u64,
}

impl AdaptiveGeometry {
    /// Starts at the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the start point is outside the width (1..=4) or
    /// lookahead (1..=8) range.
    pub fn new(width: usize, lookahead: usize) -> Self {
        assert!(
            (WIDTH_RANGE.0..=WIDTH_RANGE.1).contains(&width),
            "start width out of range"
        );
        assert!(
            (LOOKAHEAD_RANGE.0..=LOOKAHEAD_RANGE.1).contains(&lookahead),
            "start lookahead out of range"
        );
        Self {
            width,
            lookahead,
            useful: 0,
            unused: 0,
            late: 0,
            seen: 0,
            adaptations: 0,
        }
    }

    /// Current prefetch width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current lookahead.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Consumes one feedback event; adapts every 256 events.
    pub fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        match feedback {
            PrefetchFeedback::Useful { .. } => self.useful += 1,
            // A cancelled prefetch wasted bandwidth without helping,
            // exactly like pollution: count it against accuracy.
            PrefetchFeedback::Unused { .. } | PrefetchFeedback::Cancelled { .. } => {
                self.unused += 1
            }
            PrefetchFeedback::Late { .. } => self.late += 1,
        }
        self.seen += 1;
        if self.seen < PERIOD {
            return;
        }
        let covered = self.useful + self.unused;
        if covered > 0 {
            let accuracy = self.useful as f64 / covered as f64;
            if accuracy >= GROW_ACCURACY && self.width < WIDTH_RANGE.1 {
                self.width += 1;
            } else if accuracy <= SHRINK_ACCURACY && self.width > WIDTH_RANGE.0 {
                self.width -= 1;
            }
        }
        let timed = self.useful + self.late;
        if timed > 0 {
            let late_frac = self.late as f64 / timed as f64;
            if late_frac >= LATE_FRACTION && self.lookahead < LOOKAHEAD_RANGE.1 {
                self.lookahead += 1;
            } else if late_frac < LATE_FRACTION / 4.0 && self.lookahead > LOOKAHEAD_RANGE.0 {
                self.lookahead -= 1;
            }
        }
        self.useful = 0;
        self.unused = 0;
        self.late = 0;
        self.seen = 0;
        self.adaptations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One adaptation period's worth of feedback, `PERIOD` events in
    /// all: `useful` and `late` are counts, the rest are unused.
    fn period(g: &mut AdaptiveGeometry, useful: u32, late: u32) {
        feed(g, useful, PERIOD - useful - late, late);
    }

    fn feed(g: &mut AdaptiveGeometry, useful: u32, unused: u32, late: u32) {
        for _ in 0..useful {
            g.on_feedback(&PrefetchFeedback::Useful { page: 0 });
        }
        for _ in 0..unused {
            g.on_feedback(&PrefetchFeedback::Unused { page: 0 });
        }
        for _ in 0..late {
            g.on_feedback(&PrefetchFeedback::Late {
                page: 0,
                remaining: 1,
            });
        }
    }

    #[test]
    fn high_accuracy_grows_width() {
        let mut g = AdaptiveGeometry::new(1, 1);
        period(&mut g, PERIOD, 0);
        assert_eq!(g.width(), 2);
        period(&mut g, PERIOD, 0);
        assert_eq!(g.width(), 3);
    }

    #[test]
    fn low_accuracy_shrinks_width_to_the_floor() {
        let mut g = AdaptiveGeometry::new(4, 1);
        for _ in 0..5 {
            period(&mut g, PERIOD / 10, 0); // 10% accurate.
        }
        assert_eq!(g.width(), 1, "clamped at the floor");
    }

    #[test]
    fn lateness_grows_lookahead_and_recovery_shrinks_it() {
        let mut g = AdaptiveGeometry::new(1, 1);
        period(&mut g, PERIOD / 2, PERIOD / 2); // 50% late.
        assert_eq!(g.lookahead(), 2);
        period(&mut g, PERIOD / 2, PERIOD / 2);
        assert_eq!(g.lookahead(), 3);
        // All on time now: decays back.
        period(&mut g, PERIOD, 0);
        assert_eq!(g.lookahead(), 2);
    }

    #[test]
    fn no_feedback_no_adaptation() {
        let mut g = AdaptiveGeometry::new(2, 2);
        feed(&mut g, 3, 0, 0); // Below the period.
        assert_eq!(g.width(), 2);
        assert_eq!(g.adaptations, 0);
    }

    #[test]
    #[should_panic(expected = "start width out of range")]
    fn bad_start_rejected() {
        let _ = AdaptiveGeometry::new(9, 1);
    }
}
