//! The simulators share one residency model, so prefetch outcomes do
//! not depend on which driver runs the trace: a one-node cluster with
//! an uncontended switch replays the memsim `Simulator` event for
//! event, pollution reaches the UVM driver's model as it does
//! everywhere else, and a late miss is no model consultation in
//! either driver.

use std::cell::RefCell;
use std::rc::Rc;

use hnp_memsim::{MissEvent, PrefetchFeedback, Prefetcher, SimConfig, Simulator};
use hnp_obs::{Event, FeedbackKind, Observer, Registry};
use hnp_systems::{
    DisaggConfig, DisaggregatedCluster, FaultInjector, FaultSchedule, UvmConfig, UvmSim,
};
use hnp_trace::apps::AppWorkload;
use hnp_trace::{Pattern, Trace};

/// Prefetches the next three pages.
struct NextThree;
impl Prefetcher for NextThree {
    fn name(&self) -> &str {
        "next-3"
    }
    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        (1..=3).map(|k| miss.page + k).collect()
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

fn observed() -> (Registry, Collect) {
    let (obs, events) = (Registry::new(), Collect::default());
    obs.attach(events.clone());
    (obs, events)
}

/// The `(kind, page)` of every access, issue decision and outcome.
fn decisions(events: &Collect) -> Vec<(&'static str, u64)> {
    events
        .0
        .borrow()
        .iter()
        .filter_map(|ev| match *ev {
            Event::Hit { page, .. } => Some(("hit", page)),
            Event::Miss { page, .. } => Some(("miss", page)),
            Event::PrefetchIssued { page, .. } => Some(("issued", page)),
            Event::PrefetchDropped { page, .. } => Some(("dropped", page)),
            Event::Feedback { page, kind, .. } => Some((kind.label(), page)),
            _ => None,
        })
        .collect()
}

#[test]
fn one_node_cluster_replays_the_simulator() {
    let mut divergent = Vec::new();
    for (i, app) in AppWorkload::FIG5.into_iter().enumerate() {
        let trace = app.generate(20_000, 70 + i as u64);

        let (obs, sim_events) = observed();
        let cfg = SimConfig {
            max_inflight: 16,
            max_issue_per_miss: 4,
            miss_latency: 100,
            prefetch_latency: 100,
            ..SimConfig::default()
        }
        .sized_to(&trace, 0.5)
        .with_observer(obs);
        Simulator::new(cfg).run(&trace, &mut NextThree);

        let (obs, node_events) = observed();
        let cluster = DisaggregatedCluster::new(DisaggConfig::default().with_observer(obs));
        let mut pfs: Vec<Box<dyn Prefetcher>> = vec![Box::new(NextThree)];
        cluster.run_decentralized(&[trace], &mut pfs);

        let (sim, node) = (decisions(&sim_events), decisions(&node_events));
        assert!(
            sim.iter().any(|&(kind, _)| kind == "unused"),
            "{}: the run must exercise pollution",
            app.name()
        );
        if let Some(k) = (0..sim.len().max(node.len())).find(|&k| sim.get(k) != node.get(k)) {
            divergent.push(format!(
                "{}: event {k} is {:?} in the simulator but {:?} in the cluster",
                app.name(),
                sim.get(k),
                node.get(k)
            ));
        }
    }
    assert!(divergent.is_empty(), "{}", divergent.join("\n"));
}

/// Suggests a page no warp ever touches and records the pollution it
/// hears of.
#[derive(Default)]
struct Polluter {
    unused: Vec<u64>,
}

const FAR: u64 = 1 << 30;

impl Prefetcher for Polluter {
    fn name(&self) -> &str {
        "polluter"
    }
    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        vec![miss.page + FAR]
    }
    fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        if let PrefetchFeedback::Unused { page } = *feedback {
            self.unused.push(page);
        }
    }
}

#[test]
fn uvm_pollution_reaches_the_model_naming_the_victim() {
    let warps: Vec<Trace> = (0..4)
        .map(|i| {
            Pattern::Stride
                .generate(800, i as u64)
                .with_stream(i as u16)
        })
        .collect();
    let (obs, events) = observed();
    let mut model = Polluter::default();
    UvmSim::new(UvmConfig::default().with_observer(obs)).run(&warps, &mut model);

    assert!(
        !model.unused.is_empty(),
        "evicted prefetches must be reported"
    );
    // Each report names a page that landed strictly before it was
    // evicted: the victim, never the page whose landing evicted it.
    let mut landed_at = std::collections::BTreeMap::new();
    let mut heard = Vec::new();
    for ev in events.0.borrow().iter() {
        match *ev {
            Event::PrefetchIssued { page, arrival, .. } => {
                landed_at.insert(page, arrival);
            }
            Event::Feedback {
                tick,
                page,
                kind: FeedbackKind::Unused,
                ..
            } => {
                assert!(page >= FAR, "only suggested pages pollute");
                let arrival = landed_at.remove(&page).expect("an issued page");
                assert!(arrival < tick, "page {page} evicted as it landed");
                heard.push(page);
            }
            _ => {}
        }
    }
    assert_eq!(heard, model.unused, "the model hears every eviction");
}

/// Prefetches the next three pages and records every miss it is
/// consulted on.
#[derive(Clone, Default)]
struct RecordingNextThree(Rc<RefCell<Vec<u64>>>);
impl Prefetcher for RecordingNextThree {
    fn name(&self) -> &str {
        "recording-next-3"
    }
    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        self.0.borrow_mut().push(miss.page);
        NextThree.on_miss(miss)
    }
}

#[test]
fn a_late_miss_is_not_a_model_consultation_in_the_cluster() {
    let trace = Pattern::Stride.generate(4_000, 5);
    let (obs, events) = observed();
    let model = RecordingNextThree::default();
    let mut pfs: Vec<Box<dyn Prefetcher>> = vec![Box::new(model.clone())];
    // Jitter lets a prefetch land after the demand fetch it raced.
    let schedule = FaultSchedule::none().with_latency_spike(0, 1 << 20, 40, 200);
    DisaggregatedCluster::new(DisaggConfig::default().with_observer(obs))
        .run_decentralized_with_faults(&[trace], &mut pfs, &mut FaultInjector::new(schedule, 3));

    let (mut full, mut late) = (Vec::new(), 0);
    for ev in events.0.borrow().iter() {
        match *ev {
            Event::Miss {
                page, late: false, ..
            } => full.push(page),
            Event::Miss { late: true, .. } => late += 1,
            _ => {}
        }
    }
    assert!(late > 0, "the spike must produce late misses");
    let heard = model.0.borrow();
    assert_eq!(
        heard.len(),
        full.len(),
        "one on_miss per full miss, none per late miss ({late} late)"
    );
    assert!(*heard == full, "on_miss sees the full misses in order");
}
