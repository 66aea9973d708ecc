//! The system simulators' event streams, cross-checked against their
//! reports, and the observer inertness contract under fault injection.

use hnp_memsim::{MissEvent, NoPrefetcher, Prefetcher};
use hnp_obs::{Counters, Registry};
use hnp_systems::{
    DisaggConfig, DisaggregatedCluster, FaultInjector, FaultSchedule, UvmConfig, UvmSim,
};
use hnp_trace::{Pattern, Trace};

struct NextLine;
impl Prefetcher for NextLine {
    fn name(&self) -> &str {
        "next-line"
    }
    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        vec![miss.page + 1, miss.page + 2, miss.page + 3]
    }
}

fn traces(n: usize) -> Vec<Trace> {
    (0..n)
        .map(|i| Pattern::Stride.generate(1200, i as u64))
        .collect()
}

fn boxed(n: usize) -> Vec<Box<dyn Prefetcher>> {
    (0..n)
        .map(|_| Box::new(NextLine) as Box<dyn Prefetcher>)
        .collect()
}

#[test]
fn disagg_event_counts_reproduce_report() {
    let ts = traces(3);
    let reg = Registry::new();
    let counters = Counters::new();
    reg.attach(counters.clone());
    // A tight switch so the drop path fires too.
    let sim = DisaggregatedCluster::new(
        DisaggConfig {
            shared_link_slots: 3,
            ..DisaggConfig::default()
        }
        .with_observer(reg),
    );
    let mut pfs = boxed(3);
    let rep = sim.run_decentralized(&ts, &mut pfs);

    let accesses: u64 = rep.nodes.iter().map(|n| n.accesses as u64).sum();
    let issued: u64 = rep.nodes.iter().map(|n| n.prefetches_issued as u64).sum();
    let dropped: u64 = rep.nodes.iter().map(|n| n.prefetches_dropped as u64).sum();
    let useful: u64 = rep.nodes.iter().map(|n| n.prefetches_useful as u64).sum();
    assert_eq!(counters.get("hit") + counters.get("miss"), accesses);
    assert_eq!(counters.get("miss"), rep.total_misses() as u64);
    assert_eq!(counters.get("stall_ticks"), rep.total_stall());
    assert_eq!(counters.get("prefetch_issued"), issued);
    assert_eq!(counters.get("prefetch_dropped"), dropped);
    assert_eq!(counters.get("feedback_useful"), useful);
    assert_eq!(counters.get("ticks"), rep.total_ticks);
    assert!(dropped > 0, "tight switch should drop prefetches");
}

#[test]
fn disagg_observers_are_inert_under_faults() {
    let ts = traces(2);
    let schedule = FaultSchedule::none()
        .with_lossy_link(100, 4000, 0.3)
        .with_crash(2000, 500, 0);
    let sim = DisaggregatedCluster::new(DisaggConfig::default());
    let mut pfs = boxed(2);
    let mut inj = FaultInjector::new(schedule.clone(), 7);
    let plain = sim.run_decentralized_with_faults(&ts, &mut pfs, &mut inj);

    let reg = Registry::new();
    let counters = Counters::new();
    reg.attach(counters.clone());
    let observed_sim = DisaggregatedCluster::new(DisaggConfig::default().with_observer(reg));
    let mut pfs2 = boxed(2);
    let mut inj2 = FaultInjector::new(schedule, 7);
    let observed = observed_sim.run_decentralized_with_faults(&ts, &mut pfs2, &mut inj2);

    assert_eq!(plain, observed, "observers must not perturb the run");
    let restarts: u64 = observed.nodes.iter().map(|n| n.restarts as u64).sum();
    let retries: u64 = observed.nodes.iter().map(|n| n.retries as u64).sum();
    let timeouts: u64 = observed.nodes.iter().map(|n| n.timeouts as u64).sum();
    assert_eq!(counters.get("fault_crash"), restarts);
    assert_eq!(counters.get("fault_retry"), retries);
    assert_eq!(counters.get("fault_timeout"), timeouts);
    assert!(restarts > 0, "the scheduled crash must land");
}

#[test]
fn uvm_event_counts_reproduce_report() {
    let ws: Vec<Trace> = (0..4)
        .map(|i| {
            Pattern::Stride
                .generate(800, i as u64)
                .with_stream(i as u16)
        })
        .collect();
    let reg = Registry::new();
    let counters = Counters::new();
    reg.attach(counters.clone());
    let sim = UvmSim::new(UvmConfig::default().with_observer(reg));
    let mut pf = NextLine;
    let rep = sim.run(&ws, &mut pf);

    assert_eq!(
        counters.get("hit") + counters.get("miss"),
        rep.accesses as u64
    );
    assert_eq!(
        counters.get("prefetch_issued"),
        rep.prefetches_issued as u64
    );
    assert_eq!(
        counters.get("feedback_useful"),
        rep.prefetches_useful as u64
    );
    assert_eq!(counters.get("ticks"), rep.total_ticks);
    assert!(counters.get("miss") > 0);
}

#[test]
fn uvm_observers_are_inert() {
    let ws: Vec<Trace> = (0..3)
        .map(|i| {
            Pattern::Stride
                .generate(600, i as u64)
                .with_stream(i as u16)
        })
        .collect();
    let plain = UvmSim::new(UvmConfig::default()).run(&ws, &mut NoPrefetcher);
    let reg = Registry::new();
    reg.attach(Counters::new());
    let observed = UvmSim::new(UvmConfig::default().with_observer(reg)).run(&ws, &mut NoPrefetcher);
    assert_eq!(plain, observed);
}
