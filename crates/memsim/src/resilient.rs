//! Graceful degradation for learned prefetchers.
//!
//! A learned model trained on the fair-weather miss stream keeps
//! issuing confident-but-wrong prefetches when the system underneath
//! it degrades — and under a degraded link every wasted prefetch
//! competes with demand traffic. [`ResilientPrefetcher`] wraps any
//! [`Prefetcher`] with a watchdog that tracks the wrapped model's
//! recent outcome accuracy and walks a health ladder:
//!
//! ```text
//! Healthy ──▶ Throttled ──▶ Fallback ──▶ Disabled
//!    ◀─────────  (hysteresis-gated recovery)  ◀──┘
//! ```
//!
//! * **Healthy** — the inner model's candidates pass through.
//! * **Throttled** — candidates are capped at a reduced issue width.
//! * **Fallback** — the inner model is benched; a cheap stride
//!   heuristic covers the regular part of the workload while the
//!   inner model keeps training and is probed periodically.
//! * **Disabled** — nothing is issued; after a cooldown the wrapper
//!   re-enters Fallback and tries again.
//!
//! Downward transitions are immediate (a misbehaving model is pulled
//! fast); upward transitions require several consecutive good
//! evaluation windows (hysteresis), so the wrapper does not flap at a
//! threshold boundary.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hnp_obs::{Event, Registry};

use crate::prefetcher::{MissEvent, PrefetchFeedback, Prefetcher};

/// Outcome-window length per source (inner / fallback).
const WINDOW: usize = 64;
/// Minimum outcomes in a window before it is judged.
const MIN_OBSERVATIONS: usize = 16;
/// Healthy → Throttled when inner accuracy drops below this.
const THROTTLE_BELOW: f64 = 0.45;
/// → Fallback when inner accuracy drops below this.
const FALLBACK_BELOW: f64 = 0.25;
/// Fallback → Disabled when even stride accuracy drops below this
/// (the access stream itself is hostile — stop prefetching).
const DISABLE_BELOW: f64 = 0.10;
/// Accuracy required for an upward step.
const RECOVER_ABOVE: f64 = 0.60;
/// Consecutive good evaluations required for an upward step.
const HYSTERESIS: u32 = 2;
/// Feedback events between evaluations.
const EVAL_PERIOD: usize = 8;
/// Candidate cap while Throttled.
const THROTTLED_MAX_ISSUE: usize = 1;
/// Misses to sit out while Disabled before retrying Fallback.
const DISABLED_COOLDOWN: usize = 64;
/// In Fallback, every `PROBE_PERIOD`-th miss also issues the inner
/// model's top candidate to measure whether it has recovered.
const PROBE_PERIOD: usize = 16;
/// Cap on remembered issued-page attributions.
const TRACK_LIMIT: usize = 4096;

/// The wrapper's position on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Inner model passes through untouched.
    Healthy,
    /// Inner model capped at a reduced issue width.
    Throttled,
    /// Inner model benched; stride fallback issues, inner is probed.
    Fallback,
    /// No prefetches at all; waiting out a cooldown.
    Disabled,
}

impl HealthState {
    /// Stable lowercase label (used in JSON reports).
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Throttled => "throttled",
            HealthState::Fallback => "fallback",
            HealthState::Disabled => "disabled",
        }
    }
}

impl serde::Serialize for HealthState {
    fn to_value(&self) -> serde::Value {
        self.label().to_string().to_value()
    }
}

/// What the watchdog did over a run (for reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ResilienceStats {
    /// State transitions taken.
    pub transitions: u64,
    /// Misses observed while Healthy.
    pub misses_healthy: u64,
    /// Misses observed while Throttled.
    pub misses_throttled: u64,
    /// Misses observed while Fallback.
    pub misses_fallback: u64,
    /// Misses observed while Disabled.
    pub misses_disabled: u64,
    /// Fault notifications received.
    pub faults_seen: u64,
}

/// Which issuer a tracked prefetch came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Inner,
    Fallback,
}

/// A bounded sliding window of prefetch outcomes.
#[derive(Debug, Default)]
struct OutcomeWindow {
    outcomes: VecDeque<bool>,
    cap: usize,
}

impl OutcomeWindow {
    fn new(cap: usize) -> Self {
        Self {
            outcomes: VecDeque::with_capacity(cap),
            cap,
        }
    }

    fn push(&mut self, good: bool) {
        if self.outcomes.len() == self.cap {
            self.outcomes.pop_front();
        }
        self.outcomes.push_back(good);
    }

    fn len(&self) -> usize {
        self.outcomes.len()
    }

    fn accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|&&g| g).count() as f64 / self.outcomes.len() as f64
    }

    fn clear(&mut self) {
        self.outcomes.clear();
    }
}

/// Per-stream state for the built-in stride fallback (a deliberately
/// boring heuristic: two confirmations of the same delta, then issue
/// the next two pages along it).
#[derive(Debug, Default, Clone, Copy)]
struct StrideState {
    last_page: Option<u64>,
    delta: i64,
    streak: u32,
}

impl StrideState {
    fn observe(&mut self, page: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(last) = self.last_page {
            // Two's-complement delta: total over `u64` pages.
            let d = page.wrapping_sub(last) as i64;
            if d != 0 && d == self.delta {
                self.streak += 1;
            } else {
                self.delta = d;
                self.streak = u32::from(d != 0);
            }
            if self.streak >= 2 {
                // Two steps along the stride, stopping at either end
                // of the page space.
                let mut cand = page;
                for _ in 0..2 {
                    let Some(next) = cand.checked_add_signed(self.delta) else {
                        break;
                    };
                    cand = next;
                    out.push(cand);
                }
            }
        }
        self.last_page = Some(page);
        out
    }
}

/// Wraps any [`Prefetcher`] with fault-aware graceful degradation.
pub struct ResilientPrefetcher<P: Prefetcher> {
    inner: P,
    /// Observer registry ladder transitions are emitted into
    /// ([`Event::Degradation`]).
    obs: Registry,
    name: String,
    state: HealthState,
    /// Outcome windows indexed by source: [inner, fallback].
    windows: [OutcomeWindow; 2],
    /// Inner-probe outcomes while in Fallback.
    probe_window: OutcomeWindow,
    /// Issued page → source, bounded FIFO.
    issued: BTreeMap<u64, Source>,
    issue_order: VecDeque<u64>,
    /// Pages issued as Fallback-mode probes of the inner model.
    probes: BTreeSet<u64>,
    stride: BTreeMap<u16, StrideState>,
    feedback_seen: usize,
    good_evals: u32,
    misses_since_disable: usize,
    misses_since_probe: usize,
    /// What-happened counters.
    pub(crate) stats: ResilienceStats,
}

impl<P: Prefetcher> ResilientPrefetcher<P> {
    /// Wraps `inner`, unobserved.
    pub fn new(inner: P) -> Self {
        Self::with_observer(inner, Registry::default())
    }

    /// Wraps `inner`; ladder transitions are emitted into `obs` as
    /// [`Event::Degradation`].
    pub fn with_observer(inner: P, obs: Registry) -> Self {
        let name = format!("resilient({})", inner.name());
        Self {
            inner,
            obs,
            name,
            state: HealthState::Healthy,
            windows: [OutcomeWindow::new(WINDOW), OutcomeWindow::new(WINDOW)],
            probe_window: OutcomeWindow::new(WINDOW / 2),
            issued: BTreeMap::new(),
            issue_order: VecDeque::new(),
            probes: BTreeSet::new(),
            stride: BTreeMap::new(),
            feedback_seen: 0,
            good_evals: 0,
            misses_since_disable: 0,
            misses_since_probe: 0,
            stats: ResilienceStats::default(),
        }
    }

    /// Current ladder position.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The wrapped prefetcher.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped prefetcher — the serving layer's
    /// snapshot/restore path reaches the model state through this.
    /// Health accounting is untouched; callers mutating model state
    /// should leave the feedback stream to the wrapper.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    fn transition(&mut self, to: HealthState) {
        if to == self.state {
            return;
        }
        self.obs.emit(&Event::Degradation {
            at: self.feedback_seen as u64,
            from: self.state.label(),
            to: to.label(),
        });
        self.state = to;
        self.stats.transitions += 1;
        self.good_evals = 0;
        self.windows[0].clear();
        self.windows[1].clear();
        self.probe_window.clear();
        self.misses_since_disable = 0;
        self.misses_since_probe = 0;
    }

    fn track(&mut self, page: u64, source: Source, probe: bool) {
        if self.issued.len() >= TRACK_LIMIT {
            if let Some(old) = self.issue_order.pop_front() {
                self.issued.remove(&old);
                self.probes.remove(&old);
            }
        }
        if self.issued.insert(page, source).is_none() {
            self.issue_order.push_back(page);
        }
        if probe {
            self.probes.insert(page);
        }
    }

    /// Applies the state machine after a feedback batch.
    fn evaluate(&mut self) {
        if !self.feedback_seen.is_multiple_of(EVAL_PERIOD) {
            return;
        }
        match self.state {
            HealthState::Healthy | HealthState::Throttled => {
                let w = &self.windows[Source::Inner as usize];
                if w.len() < MIN_OBSERVATIONS {
                    return;
                }
                let acc = w.accuracy();
                if acc < FALLBACK_BELOW {
                    self.transition(HealthState::Fallback);
                } else if acc < THROTTLE_BELOW {
                    // Within Throttled this resets recovery credit
                    // rather than transitioning again.
                    self.good_evals = 0;
                    self.transition(HealthState::Throttled);
                } else if self.state == HealthState::Throttled && acc >= RECOVER_ABOVE {
                    self.good_evals += 1;
                    if self.good_evals >= HYSTERESIS {
                        self.transition(HealthState::Healthy);
                    }
                } else {
                    self.good_evals = 0;
                }
            }
            HealthState::Fallback => {
                let fw = &self.windows[Source::Fallback as usize];
                if fw.len() >= MIN_OBSERVATIONS && fw.accuracy() < DISABLE_BELOW {
                    self.transition(HealthState::Disabled);
                    return;
                }
                // Recovery is judged on the probe stream only: the
                // benched model must prove itself before being
                // re-trusted.
                if self.probe_window.len() >= MIN_OBSERVATIONS / 2
                    && self.probe_window.accuracy() >= RECOVER_ABOVE
                {
                    self.good_evals += 1;
                    if self.good_evals >= HYSTERESIS {
                        self.transition(HealthState::Throttled);
                    }
                } else {
                    self.good_evals = 0;
                }
            }
            HealthState::Disabled => {}
        }
    }
}

impl<P: Prefetcher> Prefetcher for ResilientPrefetcher<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        match self.state {
            HealthState::Healthy => self.stats.misses_healthy += 1,
            HealthState::Throttled => self.stats.misses_throttled += 1,
            HealthState::Fallback => self.stats.misses_fallback += 1,
            HealthState::Disabled => self.stats.misses_disabled += 1,
        }
        // The inner model always sees the miss stream (it keeps
        // training even while benched); the stride tracker likewise.
        let inner_out = self.inner.on_miss(miss);
        let stride_out = self
            .stride
            .entry(miss.stream)
            .or_default()
            .observe(miss.page);
        match self.state {
            HealthState::Healthy => {
                for &p in &inner_out {
                    self.track(p, Source::Inner, false);
                }
                inner_out
            }
            HealthState::Throttled => {
                let capped: Vec<u64> = inner_out.into_iter().take(THROTTLED_MAX_ISSUE).collect();
                for &p in &capped {
                    self.track(p, Source::Inner, false);
                }
                capped
            }
            HealthState::Fallback => {
                let mut out = stride_out;
                for &p in &out {
                    self.track(p, Source::Fallback, false);
                }
                self.misses_since_probe += 1;
                if self.misses_since_probe >= PROBE_PERIOD {
                    self.misses_since_probe = 0;
                    if let Some(&probe) = inner_out.first() {
                        if !out.contains(&probe) {
                            self.track(probe, Source::Inner, true);
                            out.push(probe);
                        }
                    }
                }
                out
            }
            HealthState::Disabled => {
                self.misses_since_disable += 1;
                if self.misses_since_disable >= DISABLED_COOLDOWN {
                    self.transition(HealthState::Fallback);
                }
                Vec::new()
            }
        }
    }

    fn on_hit(&mut self, page: u64, tick: u64) {
        self.inner.on_hit(page, tick);
    }

    fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        let (page, good) = match *feedback {
            PrefetchFeedback::Useful { page } => (page, true),
            PrefetchFeedback::Late { page, .. } => (page, false),
            PrefetchFeedback::Unused { page } => (page, false),
            PrefetchFeedback::Cancelled { page } => (page, false),
        };
        if let Some(source) = self.issued.remove(&page) {
            let probe = self.probes.remove(&page);
            if probe {
                self.probe_window.push(good);
            } else {
                self.windows[source as usize].push(good);
            }
            // The inner model only hears about its own prefetches:
            // fallback outcomes would corrupt its self-assessment.
            if source == Source::Inner {
                self.inner.on_feedback(feedback);
            }
            self.feedback_seen += 1;
            self.evaluate();
        } else {
            // Untracked (evicted from the FIFO): still the inner
            // model's business if it is the active issuer.
            if self.state == HealthState::Healthy || self.state == HealthState::Throttled {
                self.inner.on_feedback(feedback);
            }
        }
    }

    fn reset_state(&mut self) {
        self.inner.reset_state();
        self.windows[0].clear();
        self.windows[1].clear();
        self.probe_window.clear();
        self.issued.clear();
        self.issue_order.clear();
        self.probes.clear();
        self.stride.clear();
        self.good_evals = 0;
        self.misses_since_disable = 0;
        self.misses_since_probe = 0;
    }

    fn on_fault(&mut self, tick: u64) {
        self.stats.faults_seen += 1;
        self.inner.on_fault(tick);
        // A restart invalidates the accuracy windows along with the
        // attribution maps: they describe the pre-fault model, and the
        // inner model just lost its transient state.
        let demote = self.state == HealthState::Healthy;
        self.reset_state();
        if demote {
            // A restarted node's model predicts from cold state; start
            // it back up cautiously.
            self.transition(HealthState::Throttled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use hnp_trace::Pattern;

    /// Issues `page + 1`; name for reports.
    struct NextLine;
    impl Prefetcher for NextLine {
        fn name(&self) -> &str {
            "next-line"
        }
        fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
            vec![miss.page + 1]
        }
    }

    fn miss(page: u64, tick: u64) -> MissEvent {
        MissEvent {
            page,
            tick,
            stream: 0,
        }
    }

    /// Feeds `n` outcomes for pages the wrapper just issued. Misses
    /// fall on the squares, whose deltas never repeat, so the stride
    /// fallback stays silent and only the inner model is judged.
    fn drive(p: &mut ResilientPrefetcher<NextLine>, n: usize, good: bool, tick0: &mut u64) {
        for _ in 0..n {
            let out = p.on_miss(&miss(*tick0 * *tick0, *tick0));
            *tick0 += 1;
            for page in out {
                let fb = if good {
                    PrefetchFeedback::Useful { page }
                } else {
                    PrefetchFeedback::Unused { page }
                };
                p.on_feedback(&fb);
            }
        }
    }

    #[test]
    fn healthy_passes_through_and_stays_healthy() {
        let mut p = ResilientPrefetcher::new(NextLine);
        assert_eq!(p.name(), "resilient(next-line)");
        let mut t = 1;
        drive(&mut p, 40, true, &mut t);
        assert_eq!(p.state(), HealthState::Healthy);
        assert_eq!(p.stats.transitions, 0);
        let out = p.on_miss(&miss(7, 999));
        assert_eq!(out, vec![8], "healthy = inner verbatim");
    }

    #[test]
    fn sustained_pollution_walks_down_to_fallback() {
        let mut p = ResilientPrefetcher::new(NextLine);
        let mut t = 1;
        drive(&mut p, 60, false, &mut t);
        assert_eq!(p.state(), HealthState::Fallback);
        assert!(p.stats.transitions >= 1);
    }

    #[test]
    fn fallback_issues_strides_not_inner() {
        let mut p = ResilientPrefetcher::new(NextLine);
        let mut t = 1;
        drive(&mut p, 60, false, &mut t);
        assert_eq!(p.state(), HealthState::Fallback);
        // A clean stride stream: fallback must issue along the delta.
        let mut got_stride = false;
        for k in 0..8u64 {
            let out = p.on_miss(&miss(1000 + 4 * k, 5000 + k));
            if out.contains(&(1000 + 4 * k + 4)) {
                got_stride = true;
            }
            // Never the raw inner candidate stream (page+1), except a
            // periodic tagged probe.
            assert!(out.len() <= 3);
        }
        assert!(got_stride, "stride fallback kicks in on regular streams");
    }

    #[test]
    fn recovery_requires_hysteresis() {
        let mut p = ResilientPrefetcher::new(NextLine);
        let mut t = 1;
        // Down to Throttled: mix of good/bad below THROTTLE_BELOW but
        // above FALLBACK_BELOW (~35% good).
        for k in 0..60usize {
            let out = p.on_miss(&miss(t * 10, t));
            t += 1;
            for page in out {
                let fb = if k % 3 == 0 {
                    PrefetchFeedback::Useful { page }
                } else {
                    PrefetchFeedback::Unused { page }
                };
                p.on_feedback(&fb);
            }
        }
        assert_eq!(p.state(), HealthState::Throttled);
        let transitions_before = p.stats.transitions;
        drive(&mut p, 8, true, &mut t);
        assert_eq!(p.state(), HealthState::Throttled);
        // One good evaluation is not enough (hysteresis = 2)...
        for _ in 0..64 {
            if p.good_evals == 1 {
                break;
            }
            drive(&mut p, 1, true, &mut t);
        }
        assert_eq!(p.good_evals, 1);
        assert_eq!(p.state(), HealthState::Throttled);
        // ...a second one, an evaluation period later, is.
        drive(&mut p, EVAL_PERIOD, true, &mut t);
        assert_eq!(p.state(), HealthState::Healthy);
        assert_eq!(p.stats.transitions, transitions_before + 1);
    }

    #[test]
    fn hostile_stream_disables_then_cooldown_reenters_fallback() {
        let mut p = ResilientPrefetcher::new(NextLine);
        let mut t = 1;
        drive(&mut p, 60, false, &mut t);
        assert_eq!(p.state(), HealthState::Fallback);
        // Strided misses so the fallback issues — then poison every
        // outcome so even the fallback looks useless.
        for k in 0..80u64 {
            let out = p.on_miss(&miss(10_000 + 4 * k, t));
            t += 1;
            for page in out {
                p.on_feedback(&PrefetchFeedback::Unused { page });
            }
            if p.state() == HealthState::Disabled {
                break;
            }
        }
        assert_eq!(p.state(), HealthState::Disabled);
        // Disabled issues nothing, then re-enters Fallback after the
        // cooldown.
        for k in 0..DISABLED_COOLDOWN as u64 {
            let out = p.on_miss(&miss(50_000 + k, t));
            t += 1;
            assert!(out.is_empty(), "disabled must stay silent");
        }
        assert_eq!(p.state(), HealthState::Fallback);
    }

    #[test]
    fn benched_model_recovers_through_probes() {
        let mut p = ResilientPrefetcher::new(NextLine);
        let mut t = 1;
        drive(&mut p, 60, false, &mut t);
        assert_eq!(p.state(), HealthState::Fallback);
        // Only the periodic probes judge the benched model: two good
        // evaluations of a full probe window bring it back, throttled.
        let mut probes = 0;
        while p.state() == HealthState::Fallback && t < 1000 {
            let out = p.on_miss(&miss(t * t, t));
            t += 1;
            for page in out {
                probes += 1;
                p.on_feedback(&PrefetchFeedback::Useful { page });
            }
        }
        assert_eq!(p.state(), HealthState::Throttled);
        assert!(probes >= MIN_OBSERVATIONS / 2, "{probes} probes");
    }

    #[test]
    fn on_fault_resets_and_demotes_healthy() {
        let mut p = ResilientPrefetcher::new(NextLine);
        let mut t = 1;
        drive(&mut p, 20, true, &mut t);
        assert_eq!(p.state(), HealthState::Healthy);
        p.on_fault(12345);
        assert_eq!(
            p.state(),
            HealthState::Throttled,
            "cold restart is cautious"
        );
        assert_eq!(p.stats.faults_seen, 1);
        // Degraded states are not promoted by a fault.
        drive(&mut p, 60, false, &mut t);
        let state = p.state();
        p.on_fault(23456);
        assert_eq!(p.state(), state);
    }

    #[test]
    fn cancelled_feedback_counts_against_the_model() {
        let mut p = ResilientPrefetcher::new(NextLine);
        for t in 1..=60u64 {
            let out = p.on_miss(&miss(t * 10, t));
            for page in out {
                p.on_feedback(&PrefetchFeedback::Cancelled { page });
            }
            if p.state() != HealthState::Healthy {
                break;
            }
        }
        assert_ne!(
            p.state(),
            HealthState::Healthy,
            "a fault-cancelled prefetch stream must degrade the wrapper"
        );
    }

    #[test]
    fn throttled_caps_issue_width() {
        struct Wide;
        impl Prefetcher for Wide {
            fn name(&self) -> &str {
                "wide"
            }
            fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
                (1..=8).map(|k| miss.page + k).collect()
            }
        }
        let mut p = ResilientPrefetcher::new(Wide);
        let mut t = 1u64;
        // Degrade to Throttled with ~1/3 accuracy.
        for k in 0..60usize {
            let out = p.on_miss(&miss(t * 100, t));
            t += 1;
            for page in out {
                let fb = if k % 3 == 0 {
                    PrefetchFeedback::Useful { page }
                } else {
                    PrefetchFeedback::Unused { page }
                };
                p.on_feedback(&fb);
            }
            if p.state() == HealthState::Throttled {
                break;
            }
        }
        assert_eq!(p.state(), HealthState::Throttled);
        let out = p.on_miss(&miss(9_999_999, t));
        assert_eq!(out.len(), 1, "throttled = reduced issue width");
    }

    #[test]
    fn stride_fallback_is_total_over_u64_pages() {
        // Regression: `page as i64 - last as i64` overflowed on pages
        // either side of 2^63, and `page as i64 + delta * k` ran past
        // the ends of the page space.
        let half = 1u64 << 63;
        let mut s = StrideState::default();
        s.observe(half - 2);
        s.observe(half - 1);
        assert_eq!(s.observe(half), vec![half + 1, half + 2]);
        let mut top = StrideState::default();
        top.observe(u64::MAX - 3);
        top.observe(u64::MAX - 2);
        assert_eq!(top.observe(u64::MAX - 1), vec![u64::MAX]);
        let mut jump = StrideState::default();
        for page in [0, half, 0, half, u64::MAX, 0, u64::MAX] {
            jump.observe(page);
        }
    }

    /// Keeps every event it observes.
    #[derive(Clone, Default)]
    struct Collect(std::rc::Rc<std::cell::RefCell<Vec<Event>>>);

    impl hnp_obs::Observer for Collect {
        fn on_event(&mut self, ev: &Event) {
            self.0.borrow_mut().push(ev.clone());
        }
    }

    fn report_fingerprint(rep: &crate::sim::SimReport) -> String {
        serde_json::to_string(rep).unwrap_or_default()
    }

    #[test]
    fn degradation_ladder_transitions_are_observable_and_inert() {
        /// A polluter: always-wrong candidates walk the wrapper down the
        /// ladder.
        struct Polluter;
        impl Prefetcher for Polluter {
            fn name(&self) -> &str {
                "polluter"
            }
            fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
                vec![miss.page + 500_000]
            }
        }

        let trace = Pattern::Stride.generate(3000, 0);
        let sim = Simulator::new(SimConfig {
            capacity_pages: 32,
            ..SimConfig::default()
        });

        let mut plain = ResilientPrefetcher::new(Polluter);
        let unobserved = sim.run(&trace, &mut plain);

        let reg = Registry::new();
        let tracer = Collect::default();
        reg.attach(tracer.clone());
        let mut wrapped = ResilientPrefetcher::with_observer(Polluter, reg);
        let observed = sim.run(&trace, &mut wrapped);

        assert_eq!(
            report_fingerprint(&unobserved),
            report_fingerprint(&observed)
        );
        assert_eq!(plain.stats, wrapped.stats);
        let transitions: Vec<_> = tracer
            .0
            .take()
            .into_iter()
            .filter(|e| matches!(e, Event::Degradation { .. }))
            .collect();
        assert_eq!(
            transitions.len() as u64,
            wrapped.stats.transitions,
            "every ladder move must be emitted"
        );
        assert!(
            matches!(
                transitions.first(),
                Some(Event::Degradation {
                    from: "healthy",
                    ..
                })
            ),
            "first transition leaves Healthy"
        );
    }
}
