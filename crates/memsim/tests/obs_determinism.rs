//! The observability determinism contract, pinned.
//!
//! 1. Attaching *any* observer set leaves simulator state bit-identical
//!    to the no-observer run (observers are read-only taps).
//! 2. A counter sink aggregating the event stream reproduces the
//!    `SimReport` numbers exactly (the report *is* an event fold).

use proptest::prelude::*;

use hnp_memsim::{MissEvent, PrefetchFeedback, Prefetcher, SimConfig, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

use hnp_obs::{Counters, Event, Histogram, JsonlExporter, Metric, Observer, Registry};
use hnp_trace::Pattern;

/// A feedback-sensitive prefetcher: issue width shrinks while recent
/// outcomes are bad. If an observer could perturb the feedback path,
/// this prefetcher's behaviour (and thus the report) would drift.
struct Adaptive {
    width: u64,
    score: i64,
}

impl Adaptive {
    fn new() -> Self {
        Self { width: 4, score: 0 }
    }
}

impl Prefetcher for Adaptive {
    fn name(&self) -> &str {
        "adaptive-test"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        (1..=self.width).map(|k| miss.page + k).collect()
    }

    fn on_hit(&mut self, _page: u64, _tick: u64) {
        self.score += 1;
    }

    fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        match feedback {
            PrefetchFeedback::Useful { .. } => self.score += 2,
            _ => self.score -= 1,
        }
        self.width = if self.score < 0 { 1 } else { 4 };
    }
}

/// Keeps every event it observes.
#[derive(Clone, Default)]
struct Collect(Rc<RefCell<Vec<Event>>>);

impl Observer for Collect {
    fn on_event(&mut self, ev: &Event) {
        self.0.borrow_mut().push(ev.clone());
    }
}

fn run(cfg: SimConfig, accesses: usize, seed: u64) -> hnp_memsim::SimReport {
    let trace = Pattern::Stride.generate(accesses, seed);
    Simulator::new(cfg).run(&trace, &mut Adaptive::new())
}

fn report_fingerprint(rep: &hnp_memsim::SimReport) -> String {
    serde_json::to_string(rep).unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn observers_never_change_simulator_state(
        capacity in 8usize..64,
        miss_latency in 1u64..200,
        prefetch_latency in 1u64..200,
        max_inflight in 1usize..8,
        max_issue in 1usize..4,
        accesses in 200usize..600,
        seed in 0u64..16,
        attach_counters in any::<bool>(),
        attach_hist in any::<bool>(),
        attach_tracer in any::<bool>(),
        attach_jsonl in any::<bool>(),
    ) {
        let base = SimConfig {
            capacity_pages: capacity,
            miss_latency,
            prefetch_latency,
            max_inflight,
            max_issue_per_miss: max_issue,
            ..SimConfig::default()
        };

        let unobserved = run(base.clone(), accesses, seed);

        let reg = Registry::new();
        let counters = Counters::new();
        if attach_counters {
            reg.attach(counters.clone());
        }
        if attach_hist {
            reg.attach(Histogram::exponential(Metric::MissStall, 12));
        }
        if attach_tracer {
            reg.attach(Collect::default());
        }
        if attach_jsonl {
            reg.attach(JsonlExporter::new());
        }
        let observed = run(base.with_observer(reg), accesses, seed);

        prop_assert_eq!(
            report_fingerprint(&unobserved),
            report_fingerprint(&observed),
            "observer set must not perturb the run"
        );
        if attach_counters {
            prop_assert_eq!(counters.get("hit") as usize, observed.hits);
            prop_assert_eq!(counters.get("miss_full") as usize, observed.full_misses);
            prop_assert_eq!(counters.get("miss_late") as usize, observed.late_prefetch_hits);
            prop_assert_eq!(counters.get("prefetch_issued") as usize, observed.prefetches_issued);
            prop_assert_eq!(counters.get("prefetch_dropped") as usize, observed.prefetches_dropped);
            prop_assert_eq!(counters.get("feedback_useful") as usize, observed.prefetches_useful);
            prop_assert_eq!(counters.get("feedback_unused") as usize, observed.prefetches_unused);
            prop_assert_eq!(counters.get("ticks"), observed.total_ticks);
            prop_assert_eq!(
                counters.get("hit") + counters.get("miss") ,
                observed.accesses as u64
            );
        }
    }
}

#[test]
fn event_stream_ends_with_run_end_totals() {
    let tracer = Collect::default();
    let reg = Registry::new();
    reg.attach(tracer.clone());
    let cfg = SimConfig {
        capacity_pages: 32,
        ..SimConfig::default()
    }
    .with_observer(reg);
    let rep = run(cfg, 400, 0);
    let last = tracer.0.borrow_mut().pop().expect("events were emitted");
    assert_eq!(
        last,
        Event::RunEnd {
            ticks: rep.total_ticks,
            accesses: rep.accesses as u64,
            hits: rep.hits as u64,
            misses: rep.misses() as u64,
        }
    );
}
