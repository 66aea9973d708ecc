//! The simulation driver and its metrics.
//!
//! Reproduces the paper's evaluation loop (§3.1): a trace is replayed
//! against a capacity-bounded memory (sized at a fraction of the
//! trace footprint); every demand miss is reported to the prefetcher,
//! whose predictions are fetched subject to latency and bandwidth
//! limits. "% of misses removed" compares against a no-prefetch
//! baseline run of the same trace.
//!
//! ## Timing model
//!
//! Time advances one tick per access, plus `miss_latency` on a full
//! miss, plus the residual wait on a late prefetch. A prefetch issued
//! at tick `t` becomes resident at `t + prefetch_latency`; a demand
//! for an in-flight page stalls only for the remainder (partial
//! latency hiding). This is what makes §5.2's "a perfect but slow
//! model always prefetches too late" measurable.

use serde::Serialize;

use hnp_obs::{Event, FeedbackKind, Registry};
use hnp_trace::Trace;

use crate::prefetcher::{MissEvent, Prefetcher};
use crate::residency::{Access, Admit, Dispatch, EventFold, Residency};

/// Simulator parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Local-memory capacity in pages. The paper sizes this at 50 % of
    /// the trace footprint.
    pub capacity_pages: usize,
    /// Stall ticks for a full demand miss (remote fetch).
    pub miss_latency: u64,
    /// Ticks for a prefetch to arrive, counted from the miss that
    /// triggered it (the request leaves concurrently with the demand
    /// fetch).
    pub prefetch_latency: u64,
    /// Model-inference ticks added before a prefetch can be issued
    /// (§5.2: if inference is slower than the inter-miss gap, even a
    /// perfect model prefetches too late).
    pub inference_latency: u64,
    /// Maximum outstanding prefetches (link bandwidth proxy).
    pub max_inflight: usize,
    /// Maximum prefetches accepted per miss (prefetch width cap).
    pub max_issue_per_miss: usize,
    /// Observer registry the run emits events into. Empty by default;
    /// an empty registry is a near-free no-op and keeps the run
    /// bit-identical to an unobserved one (determinism contract,
    /// hnp-obs crate docs).
    pub obs: Registry,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            capacity_pages: 1024,
            miss_latency: 100,
            prefetch_latency: 100,
            inference_latency: 0,
            max_inflight: 16,
            max_issue_per_miss: 4,
            obs: Registry::default(),
        }
    }
}

impl SimConfig {
    /// Attaches an observer registry; the run emits an [`Event`] at
    /// every decision point into it.
    pub fn with_observer(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }

    /// Sizes the memory at `fraction` of `trace`'s footprint (at least
    /// one page), as in the paper's "memory sized at 50 % of the
    /// trace's footprint".
    pub fn sized_to(mut self, trace: &Trace, fraction: f64) -> Self {
        let pages = ((trace.footprint_pages() as f64 * fraction) as usize).max(1);
        self.capacity_pages = pages;
        self
    }
}

/// Counters and derived metrics from one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SimReport {
    /// Prefetcher name.
    pub prefetcher: String,
    /// Total accesses replayed.
    pub accesses: usize,
    /// Demand accesses served from resident pages.
    pub hits: usize,
    /// Full demand misses (page neither resident nor in flight).
    pub full_misses: usize,
    /// Demand accesses that caught an in-flight prefetch (late).
    pub late_prefetch_hits: usize,
    /// Prefetches issued.
    pub prefetches_issued: usize,
    /// Prefetches dropped at the bandwidth cap.
    pub prefetches_dropped: usize,
    /// Prefetched pages demanded while resident (useful).
    pub prefetches_useful: usize,
    /// Prefetched pages evicted untouched (pollution).
    pub prefetches_unused: usize,
    /// Final simulated tick count.
    pub total_ticks: u64,
}

impl SimReport {
    /// Misses as the paper counts them: the page was not resident when
    /// demanded (late prefetches still count as misses).
    pub fn misses(&self) -> usize {
        self.full_misses + self.late_prefetch_hits
    }

    /// Miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// The Fig.-5 metric: percentage of the baseline's misses that
    /// this run eliminated.
    pub fn pct_misses_removed(&self, baseline: &SimReport) -> f64 {
        if baseline.misses() == 0 {
            0.0
        } else {
            100.0 * (baseline.misses() as f64 - self.misses() as f64) / baseline.misses() as f64
        }
    }

    /// Fraction of issued prefetches that were demanded while resident.
    pub fn accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }

    /// Mean ticks per access (latency proxy; lower is better).
    pub fn avg_access_ticks(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_ticks as f64 / self.accesses as f64
        }
    }
}

impl EventFold for SimReport {
    #[inline]
    fn apply(&mut self, ev: &Event) {
        match *ev {
            Event::Hit { .. } => {
                self.accesses += 1;
                self.hits += 1;
            }
            Event::Miss { late, .. } => {
                self.accesses += 1;
                if late {
                    self.late_prefetch_hits += 1;
                } else {
                    self.full_misses += 1;
                }
            }
            Event::PrefetchIssued { .. } => self.prefetches_issued += 1,
            Event::PrefetchDropped { .. } => self.prefetches_dropped += 1,
            Event::Feedback { kind, .. } => match kind {
                FeedbackKind::Useful => self.prefetches_useful += 1,
                FeedbackKind::Unused => self.prefetches_unused += 1,
                FeedbackKind::Late | FeedbackKind::Cancelled => {}
            },
            Event::RunEnd { ticks, .. } => self.total_ticks = ticks,
            _ => {}
        }
    }
}

/// The simulator.
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.capacity_pages > 0, "capacity must be positive");
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Replays `trace` against `prefetcher` and returns the report.
    pub fn run(&self, trace: &Trace, prefetcher: &mut dyn Prefetcher) -> SimReport {
        self.run_with_checkpoints(trace, prefetcher, &[]).0
    }

    /// [`run`](Self::run) that additionally records the cumulative
    /// miss count (full + late) at each access index in `checkpoints`
    /// (ascending). Segment-wise miss counts — e.g. "how many misses
    /// in the phase after a pattern returns" — are differences of
    /// consecutive checkpoints; the §5.4 replay ablation uses this to
    /// measure retention.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is not sorted ascending.
    pub fn run_with_checkpoints(
        &self,
        trace: &Trace,
        prefetcher: &mut dyn Prefetcher,
        checkpoints: &[usize],
    ) -> (SimReport, Vec<usize>) {
        assert!(
            checkpoints.windows(2).all(|w| w[0] <= w[1]),
            "checkpoints must be sorted"
        );
        // Index of the next checkpoint to record.
        let mut next = 0;
        let mut res = Residency::new(self.cfg.capacity_pages);
        let mut now: u64 = 0;
        let mut report = SimReport {
            prefetcher: prefetcher.name().to_string(),
            ..SimReport::default()
        };
        let shift = trace.page_shift();
        let mut marks = Vec::with_capacity(checkpoints.len());
        let mut out = Dispatch {
            obs: &self.cfg.obs,
            report: &mut report,
            model: prefetcher,
        };
        for access in trace.accesses() {
            while next < checkpoints.len() && checkpoints[next] <= out.report.accesses {
                marks.push(out.report.misses());
                next += 1;
            }
            let page = access.page(shift);
            now += 1;
            res.land_due(now, &mut out);
            let miss_tick = now;
            match res.access(page, now, &mut out) {
                Access::Hit => {}
                Access::Late { arrival } => {
                    // Wait out the remainder.
                    let remaining = arrival.saturating_sub(now);
                    now += remaining;
                    out.send(Event::Miss {
                        tick: miss_tick,
                        page,
                        late: true,
                        stall: remaining,
                    });
                    res.fill(page, true, now, &mut out);
                }
                // Nothing is lost on this simulator's link.
                Access::Miss | Access::Lost { .. } => {
                    // The prefetcher is consulted at miss start so its
                    // requests travel concurrently with the demand fetch.
                    now += self.cfg.miss_latency;
                    out.send(Event::Miss {
                        tick: miss_tick,
                        page,
                        late: false,
                        stall: self.cfg.miss_latency,
                    });
                    res.fill(page, false, now, &mut out);
                    let candidates = out.model.on_miss(&MissEvent {
                        page,
                        tick: miss_tick,
                        stream: access.stream,
                    });
                    let arrival =
                        miss_tick + self.cfg.inference_latency + self.cfg.prefetch_latency;
                    res.offer(
                        candidates,
                        self.cfg.max_issue_per_miss,
                        self.cfg.max_inflight,
                        miss_tick,
                        &mut out,
                        |_, _| Admit::Issue { arrival },
                    );
                }
            }
        }
        // Checkpoints at or past the end record the final count.
        marks.resize(checkpoints.len(), out.report.misses());
        let end = Event::RunEnd {
            ticks: now,
            accesses: out.report.accesses as u64,
            hits: out.report.hits as u64,
            misses: out.report.misses() as u64,
        };
        out.send(end);
        (report, marks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::NoPrefetcher;
    use hnp_trace::Pattern;

    /// An oracle that always prefetches `page + 1` (perfect for the
    /// +1-stride pattern).
    struct NextLineOracle;

    impl Prefetcher for NextLineOracle {
        fn name(&self) -> &str {
            "next-line-oracle"
        }

        fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
            vec![miss.page + 1, miss.page + 2]
        }
    }

    fn stride_trace() -> Trace {
        // 64-page loop, 2000 accesses; with capacity 32 every access
        // misses under LRU (loop > capacity).
        Pattern::Stride.generate(2000, 0)
    }

    fn small_cfg() -> SimConfig {
        SimConfig {
            capacity_pages: 32,
            miss_latency: 50,
            prefetch_latency: 50,
            max_inflight: 8,
            max_issue_per_miss: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn baseline_thrahes_on_oversized_loop() {
        let sim = Simulator::new(small_cfg());
        let rep = sim.run(&stride_trace(), &mut NoPrefetcher);
        assert_eq!(rep.prefetches_issued, 0);
        assert!(
            rep.miss_rate() > 0.95,
            "LRU must thrash on a loop larger than memory, got {}",
            rep.miss_rate()
        );
    }

    #[test]
    fn oracle_removes_most_stride_misses() {
        let sim = Simulator::new(small_cfg());
        let base = sim.run(&stride_trace(), &mut NoPrefetcher);
        let rep = sim.run(&stride_trace(), &mut NextLineOracle);
        let removed = rep.pct_misses_removed(&base);
        assert!(removed > 60.0, "oracle removed only {removed:.1}%");
        assert!(rep.accuracy() > 0.8, "accuracy {}", rep.accuracy());
        assert!(rep.total_ticks < base.total_ticks, "latency must improve");
    }

    #[test]
    fn higher_prefetch_latency_means_more_lateness_fewer_misses_removed() {
        let base = Simulator::new(small_cfg()).run(&stride_trace(), &mut NoPrefetcher);
        let fast = Simulator::new(small_cfg()).run(&stride_trace(), &mut NextLineOracle);
        let mut slow_cfg = small_cfg();
        slow_cfg.prefetch_latency = 2_000;
        let slow = Simulator::new(slow_cfg).run(&stride_trace(), &mut NextLineOracle);
        assert!(
            slow.late_prefetch_hits + slow.full_misses > fast.late_prefetch_hits + fast.full_misses,
            "slow prefetches must miss more: slow {} vs fast {}",
            slow.late_prefetch_hits + slow.full_misses,
            fast.late_prefetch_hits + fast.full_misses
        );
        assert!(
            slow.pct_misses_removed(&base) < fast.pct_misses_removed(&base),
            "slow {:.1}% vs fast {:.1}%",
            slow.pct_misses_removed(&base),
            fast.pct_misses_removed(&base)
        );
    }

    #[test]
    fn inference_latency_degrades_timeliness() {
        // §5.2: with inference slower than the inter-miss gap, the same
        // perfect predictor removes fewer misses.
        let base = Simulator::new(small_cfg()).run(&stride_trace(), &mut NoPrefetcher);
        let fast = Simulator::new(small_cfg()).run(&stride_trace(), &mut NextLineOracle);
        let mut slow_cfg = small_cfg();
        slow_cfg.inference_latency = 500;
        let slow = Simulator::new(slow_cfg).run(&stride_trace(), &mut NextLineOracle);
        assert!(slow.pct_misses_removed(&base) < fast.pct_misses_removed(&base));
    }

    #[test]
    fn bandwidth_cap_drops_excess_prefetches() {
        let mut cfg = small_cfg();
        cfg.max_inflight = 1;
        cfg.prefetch_latency = 1_000; // Keep the slot occupied.
        let sim = Simulator::new(cfg);
        let rep = sim.run(&stride_trace(), &mut NextLineOracle);
        assert!(rep.prefetches_dropped > 0);
        assert!(rep.prefetches_issued < 2 * rep.full_misses);
    }

    #[test]
    fn pollution_is_counted_for_unused_prefetches() {
        /// Prefetches garbage pages far from the working set.
        struct Polluter;
        impl Prefetcher for Polluter {
            fn name(&self) -> &str {
                "polluter"
            }
            fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
                vec![miss.page + 100_000]
            }
        }
        let sim = Simulator::new(small_cfg());
        let base = sim.run(&stride_trace(), &mut NoPrefetcher);
        let rep = sim.run(&stride_trace(), &mut Polluter);
        assert!(rep.prefetches_unused > 0, "pollution must be visible");
        assert_eq!(rep.prefetches_useful, 0);
        // Pollution cannot *remove* misses.
        assert!(rep.pct_misses_removed(&base) <= 0.0 + 1e-9);
    }

    #[test]
    fn reports_are_deterministic() {
        let sim = Simulator::new(small_cfg());
        let a = sim.run(&stride_trace(), &mut NextLineOracle);
        let b = sim.run(&stride_trace(), &mut NextLineOracle);
        assert_eq!(a.full_misses, b.full_misses);
        assert_eq!(a.prefetches_issued, b.prefetches_issued);
        assert_eq!(a.total_ticks, b.total_ticks);
    }

    #[test]
    fn capacity_sizing_helper_uses_footprint() {
        let t = stride_trace();
        let cfg = SimConfig::default().sized_to(&t, 0.5);
        assert_eq!(cfg.capacity_pages, t.footprint_pages() / 2);
    }

    #[test]
    fn within_capacity_loop_has_only_cold_misses() {
        let mut cfg = small_cfg();
        cfg.capacity_pages = 128; // Loop of 64 fits.
        let sim = Simulator::new(cfg);
        let rep = sim.run(&stride_trace(), &mut NoPrefetcher);
        assert_eq!(rep.full_misses, 64, "only cold misses");
        assert_eq!(rep.hits, rep.accesses - 64);
    }

    #[test]
    fn checkpoints_record_cumulative_misses() {
        let sim = Simulator::new(small_cfg());
        let t = stride_trace();
        let (rep, marks) = sim.run_with_checkpoints(
            &t,
            &mut NoPrefetcher,
            &[0, 500, 500, 1000, 2000, 9999, 9999],
        );
        assert_eq!(marks.len(), 7, "one mark per checkpoint");
        assert_eq!(marks[0], 0, "no misses before the first access");
        assert_eq!(marks[1], marks[2], "a duplicate checkpoint fires twice");
        assert!(marks[2] <= marks[3] && marks[3] <= marks[4], "monotone");
        assert_eq!(marks[4], rep.misses(), "checkpoint at trace end");
        assert_eq!(marks[5], rep.misses(), "past-end checkpoints drain");
        assert_eq!(marks[6], rep.misses(), "past-end checkpoints drain");
    }

    #[test]
    #[should_panic(expected = "checkpoints must be sorted")]
    fn unsorted_checkpoints_rejected() {
        let sim = Simulator::new(small_cfg());
        let _ = sim.run_with_checkpoints(&stride_trace(), &mut NoPrefetcher, &[10, 5]);
    }

    #[test]
    fn report_metrics_handle_empty_trace() {
        let sim = Simulator::new(small_cfg());
        let rep = sim.run(&Trace::from_addrs(Vec::new()), &mut NoPrefetcher);
        assert_eq!(rep.accesses, 0);
        assert_eq!(rep.miss_rate(), 0.0);
        assert_eq!(rep.avg_access_ticks(), 0.0);
    }
}
