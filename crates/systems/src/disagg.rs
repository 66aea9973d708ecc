//! The disaggregated-memory cluster simulator.
//!
//! Modeled after the paper's first target (§4, Fig. 6 left): compute
//! nodes hold a small local memory and fault pages over the network
//! from a remote memory pool. "CPU cores fault only on one page at a
//! time, indicating that the prefetcher should be optimized to hide
//! latency", and "scarce resources on the switch necessitate a
//! decentralized approach with a separate prefetcher per node".
//!
//! Two placements are simulated:
//!
//! * **decentralized** — one private prefetcher per node, each seeing
//!   only its node's miss stream;
//! * **centralized** — a single prefetcher at the switch, seeing all
//!   nodes' miss streams interleaved (stream-tagged), as a resource-
//!   constrained alternative.

use serde::Serialize;

use hnp_memsim::prefetcher::{MissEvent, Prefetcher};
use hnp_memsim::{Access, Admit, Dispatch, EventFold, Residency};
use hnp_obs::{Event, FaultKind as ObsFaultKind, FeedbackKind, Registry};
use hnp_trace::Trace;

use crate::fault::FaultInjector;

/// Prefetches accepted per miss.
const MAX_ISSUE_PER_MISS: usize = 4;
/// Base backoff in ticks before retrying a demand fetch dropped by a
/// lossy link (doubles per attempt).
const RETRY_BACKOFF: u64 = 25;
/// Extra stall charged when demand-fetch retries are exhausted (the
/// recovery path — the fetch then completes out-of-band).
const TIMEOUT_PENALTY: u64 = 500;

/// Cluster parameters.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Local-memory capacity per node, as a fraction of that node's
    /// trace footprint.
    pub local_capacity_frac: f64,
    /// One-way network latency in ticks (remote fetch = stall).
    pub link_latency: u64,
    /// Outstanding prefetches per node.
    pub max_inflight: usize,
    /// Cluster-wide cap on concurrent transfers through the shared
    /// switch (demand fetches + prefetches); `0` = uncontended. When
    /// the switch is saturated, new prefetches are dropped and demand
    /// fetches queue (§5.2: "systems where the network is the
    /// bottleneck require a prefetcher that is highly selective").
    pub shared_link_slots: usize,
    /// Extra stall ticks per queued transfer ahead of a demand fetch
    /// on a saturated switch.
    pub contention_penalty: u64,
    /// Observer registry; every decision point in the run emits a
    /// typed event into it. An empty registry keeps the run
    /// bit-identical to an unobserved one.
    pub obs: Registry,
}

impl Default for DisaggConfig {
    fn default() -> Self {
        Self {
            local_capacity_frac: 0.5,
            link_latency: 100,
            max_inflight: 16,
            shared_link_slots: 0,
            contention_penalty: 10,
            obs: Registry::new(),
        }
    }
}

impl DisaggConfig {
    /// Attaches an observer registry to the cluster run.
    pub fn with_observer(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }
}

/// Per-node counters from one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Accesses replayed.
    pub accesses: usize,
    /// Misses (page absent at access, late prefetches included).
    pub misses: usize,
    /// Prefetches issued for this node.
    pub prefetches_issued: usize,
    /// Useful prefetches.
    pub prefetches_useful: usize,
    /// Prefetches dropped at the saturated shared switch or at the
    /// node's `max_inflight` cap.
    pub prefetches_dropped: usize,
    /// In-flight prefetches cancelled by faults (lossy link, crash).
    pub prefetches_cancelled: usize,
    /// Demand-fetch retries after fault-dropped transfers.
    pub retries: usize,
    /// Demand fetches that exhausted their retries.
    pub timeouts: usize,
    /// Crash/restart cycles this node went through.
    pub restarts: usize,
    /// Ticks this node spent stalled on the link.
    pub stall_ticks: u64,
}

impl EventFold for NodeReport {
    #[inline]
    fn apply(&mut self, ev: &Event) {
        match *ev {
            Event::Hit { .. } => self.accesses += 1,
            Event::Miss { stall, .. } => {
                self.accesses += 1;
                self.misses += 1;
                self.stall_ticks += stall;
            }
            Event::PrefetchIssued { .. } => self.prefetches_issued += 1,
            Event::PrefetchDropped { .. } => self.prefetches_dropped += 1,
            Event::Feedback { kind, .. } => match kind {
                FeedbackKind::Useful => self.prefetches_useful += 1,
                FeedbackKind::Cancelled => self.prefetches_cancelled += 1,
                FeedbackKind::Late | FeedbackKind::Unused => {}
            },
            Event::Fault { kind, .. } => match kind {
                ObsFaultKind::Retry => self.retries += 1,
                ObsFaultKind::Timeout => self.timeouts += 1,
                ObsFaultKind::Crash => self.restarts += 1,
                ObsFaultKind::Restart | ObsFaultKind::Drop => {}
            },
            _ => {}
        }
    }
}

/// Aggregate cluster report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DisaggReport {
    /// Placement label ("decentralized" / "centralized").
    pub placement: String,
    /// Per-node details.
    pub nodes: Vec<NodeReport>,
    /// Wall-clock ticks for the whole run (nodes progress in
    /// lockstep rounds).
    pub total_ticks: u64,
}

impl DisaggReport {
    /// Total misses across nodes.
    pub fn total_misses(&self) -> usize {
        self.nodes.iter().map(|n| n.misses).sum()
    }

    /// Total stall ticks across nodes.
    pub fn total_stall(&self) -> u64 {
        self.nodes.iter().map(|n| n.stall_ticks).sum()
    }

    /// Mean stall ticks per access across the cluster (the latency
    /// metric §4 cares about).
    pub fn avg_stall_per_access(&self) -> f64 {
        let acc: usize = self.nodes.iter().map(|n| n.accesses).sum();
        if acc == 0 {
            0.0
        } else {
            self.total_stall() as f64 / acc as f64
        }
    }

    /// Percentage of `baseline`'s misses removed.
    pub fn pct_misses_removed(&self, baseline: &DisaggReport) -> f64 {
        let b = baseline.total_misses();
        if b == 0 {
            0.0
        } else {
            100.0 * (b as f64 - self.total_misses() as f64) / b as f64
        }
    }
}

/// Per-node simulation state.
struct NodeState {
    res: Residency,
    cursor: usize,
    /// Tick at which this node finishes its current stall.
    busy_until: u64,
    report: NodeReport,
}

/// The cluster simulator.
pub struct DisaggregatedCluster {
    cfg: DisaggConfig,
}

impl DisaggregatedCluster {
    /// Creates a cluster simulator.
    pub fn new(cfg: DisaggConfig) -> Self {
        Self { cfg }
    }

    /// Runs with one private prefetcher per node (the paper's
    /// recommended placement). `prefetchers` must have one entry per
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != prefetchers.len()` or either is
    /// empty.
    pub fn run_decentralized(
        &self,
        traces: &[Trace],
        prefetchers: &mut [Box<dyn Prefetcher>],
    ) -> DisaggReport {
        self.run_decentralized_with_faults(traces, prefetchers, &mut FaultInjector::disabled())
    }

    /// [`Self::run_decentralized`] under a fault injector. With an
    /// empty schedule the report is bit-identical to the fault-free
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != prefetchers.len()` or either is
    /// empty.
    pub fn run_decentralized_with_faults(
        &self,
        traces: &[Trace],
        prefetchers: &mut [Box<dyn Prefetcher>],
        injector: &mut FaultInjector,
    ) -> DisaggReport {
        assert!(!traces.is_empty(), "no nodes");
        assert_eq!(traces.len(), prefetchers.len(), "one prefetcher per node");
        let mut refs: Vec<&mut (dyn Prefetcher + '_)> =
            prefetchers.iter_mut().map(|p| p.as_mut() as _).collect();
        self.run_inner(traces, &mut refs, false, "decentralized", injector)
    }

    /// Runs with a single shared prefetcher observing the interleaved
    /// miss stream of all nodes (stream-tagged).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn run_centralized(
        &self,
        traces: &[Trace],
        prefetcher: &mut dyn Prefetcher,
    ) -> DisaggReport {
        assert!(!traces.is_empty(), "no nodes");
        let mut single: Vec<&mut dyn Prefetcher> = vec![prefetcher];
        let mut injector = FaultInjector::disabled();
        self.run_inner(traces, &mut single, true, "centralized", &mut injector)
    }

    /// The lockstep-round driver. Nodes advance one access per round
    /// unless stalled; stalls last `link_latency` ticks. With
    /// `shared == true` all misses go to `prefetchers[0]`. The
    /// injector shapes every transfer; when its schedule is empty it
    /// returns base latencies and never touches its RNG, keeping the
    /// run arithmetically identical to a fault-free one.
    fn run_inner(
        &self,
        traces: &[Trace],
        prefetchers: &mut [&mut dyn Prefetcher],
        shared: bool,
        label: &str,
        injector: &mut FaultInjector,
    ) -> DisaggReport {
        let mut nodes: Vec<NodeState> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let cap =
                    ((t.footprint_pages() as f64 * self.cfg.local_capacity_frac) as usize).max(1);
                NodeState {
                    res: Residency::new(cap),
                    cursor: 0,
                    busy_until: 0,
                    report: NodeReport {
                        node: i,
                        ..NodeReport::default()
                    },
                }
            })
            .collect();
        let obs = &self.cfg.obs;
        let mut now: u64 = 0;
        loop {
            let mut all_done = true;
            // Brownouts can tighten (or impose) the slot budget.
            let slots = injector.effective_slots(now, self.cfg.shared_link_slots);
            // Shared-switch occupancy snapshot for this round: nodes
            // mid-demand-fetch plus all in-flight prefetches.
            let mut occupancy = nodes.iter().filter(|n| n.busy_until > now).count()
                + nodes.iter().map(|n| n.res.in_flight()).sum::<usize>();
            for (i, node) in nodes.iter_mut().enumerate() {
                let trace = &traces[i];
                if node.cursor >= trace.len() {
                    continue;
                }
                all_done = false;
                let pf_idx = if shared { 0 } else { i };
                let mut out = Dispatch {
                    obs,
                    report: &mut node.report,
                    model: &mut *prefetchers[pf_idx],
                };
                let fault = |kind| Event::Fault {
                    tick: now,
                    domain: i as u64,
                    kind,
                };
                // Crash/restart: flush local memory, cancel in-flight
                // prefetches, reset the prefetcher's transient state,
                // and hold the node down until the event ends.
                if let Some(restart) = injector.take_crash(i, now) {
                    node.res.crash(now, &mut out);
                    out.send(fault(ObsFaultKind::Crash));
                    node.busy_until = node.busy_until.max(restart);
                }
                if node.busy_until > now {
                    continue; // Still stalled on the link.
                }
                // Land arrived prefetches; a transfer the lossy link
                // killed reaches its arrival deadline instead, where
                // the node discovers the loss and releases the slot.
                node.res.land_due(now, &mut out);
                // One access this round.
                let access = trace.accesses()[node.cursor];
                let page = access.page(trace.page_shift());
                node.cursor += 1;
                // Fault: one page at a time, node stalls for the link.
                let (late, mut stall) = match node.res.access(page, now, &mut out) {
                    Access::Hit => continue,
                    Access::Late { arrival } => (true, arrival.saturating_sub(now)),
                    missed => {
                        // A demand for a transfer the lossy link
                        // already killed waits out the promised
                        // arrival, then falls back to a fresh fetch.
                        let wait = match missed {
                            Access::Lost { arrival } => arrival.saturating_sub(now),
                            _ => 0,
                        };
                        // A fresh remote fetch, retried over a lossy
                        // link until it lands or times out.
                        let fetch = injector.fetch(
                            now + wait,
                            self.cfg.link_latency,
                            RETRY_BACKOFF,
                            TIMEOUT_PENALTY,
                        );
                        for _ in 0..fetch.retries {
                            out.send(fault(ObsFaultKind::Retry));
                        }
                        if fetch.timed_out {
                            out.send(fault(ObsFaultKind::Timeout));
                            // Retry exhaustion means the node tears
                            // down and re-establishes its fabric
                            // connection (the recovery path behind
                            // `TIMEOUT_PENALTY`): every outstanding
                            // transfer dies with it, and the
                            // cancellations are the model's only
                            // signal. Local memory survives the reset.
                            node.res.cancel_all(now, &mut out);
                        }
                        (false, wait + fetch.ticks)
                    }
                };
                // Demand fetches queue behind a saturated switch.
                if slots > 0 && occupancy > slots {
                    stall += self.cfg.contention_penalty * (occupancy - slots) as u64;
                }
                occupancy += 1;
                out.send(Event::Miss {
                    tick: now,
                    page,
                    late,
                    stall,
                });
                node.busy_until = now + stall;
                node.res.fill(page, late, now, &mut out);
                // A late miss only waits out a prefetch already in
                // flight: as in `Simulator`, it reaches the model as
                // that prefetch's `Late` outcome, not as a miss.
                if late {
                    continue;
                }
                // Consult the prefetcher at fault time.
                let candidates = out.model.on_miss(&MissEvent {
                    page,
                    tick: now,
                    stream: i as u16,
                });
                node.res.offer(
                    candidates,
                    MAX_ISSUE_PER_MISS,
                    self.cfg.max_inflight,
                    now,
                    &mut out,
                    |_, out| {
                        // Prefetches never queue at a healthy switch:
                        // its admission control drops them (they are
                        // not correctness-critical). A browned-out
                        // switch has lost that QoS path, so prefetch
                        // packets queue behind demand traffic instead —
                        // and arrive late.
                        let mut arrival =
                            now + injector.transfer_latency(now, self.cfg.link_latency);
                        if slots > 0 && occupancy >= slots {
                            if !injector.in_brownout(now) {
                                return Admit::Drop;
                            }
                            arrival += self.cfg.contention_penalty * (occupancy + 1 - slots) as u64;
                        }
                        occupancy += 1;
                        // A lossy link eats prefetches mid-flight: the
                        // dead transfer still crosses the switch, so it
                        // holds its slot and issue budget until its
                        // scheduled arrival.
                        if injector.transfer_dropped(now) {
                            out.send(fault(ObsFaultKind::Drop));
                            return Admit::Lose { arrival };
                        }
                        Admit::Issue { arrival }
                    },
                );
            }
            if all_done {
                break;
            }
            now += 1;
        }
        let accesses: u64 = nodes.iter().map(|n| n.report.accesses as u64).sum();
        let misses: u64 = nodes.iter().map(|n| n.report.misses as u64).sum();
        obs.emit(&Event::RunEnd {
            ticks: now,
            accesses,
            hits: accesses - misses,
            misses,
        });
        DisaggReport {
            placement: label.to_string(),
            nodes: nodes.into_iter().map(|n| n.report).collect(),
            total_ticks: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_memsim::NoPrefetcher;
    use hnp_trace::Pattern;

    fn traces(n: usize) -> Vec<Trace> {
        (0..n)
            .map(|i| Pattern::Stride.generate(1500, i as u64))
            .collect()
    }

    struct NextLine;
    impl Prefetcher for NextLine {
        fn name(&self) -> &str {
            "next-line"
        }
        fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
            vec![miss.page + 1, miss.page + 2]
        }
    }

    #[test]
    fn baseline_cluster_thrashes() {
        let ts = traces(3);
        let sim = DisaggregatedCluster::new(DisaggConfig::default());
        let mut pfs: Vec<Box<dyn Prefetcher>> = (0..3)
            .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
            .collect();
        let rep = sim.run_decentralized(&ts, &mut pfs);
        assert_eq!(rep.nodes.len(), 3);
        let total_acc: usize = rep.nodes.iter().map(|n| n.accesses).sum();
        assert_eq!(total_acc, 4500);
        assert!(
            rep.avg_stall_per_access() > 40.0,
            "thrash under 50% capacity"
        );
    }

    #[test]
    fn prefetching_reduces_stall_and_misses() {
        let ts = traces(3);
        let sim = DisaggregatedCluster::new(DisaggConfig::default());
        let mut none: Vec<Box<dyn Prefetcher>> = (0..3)
            .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
            .collect();
        let base = sim.run_decentralized(&ts, &mut none);
        let mut nl: Vec<Box<dyn Prefetcher>> = (0..3)
            .map(|_| Box::new(NextLine) as Box<dyn Prefetcher>)
            .collect();
        let rep = sim.run_decentralized(&ts, &mut nl);
        assert!(rep.pct_misses_removed(&base) > 40.0);
        assert!(rep.total_stall() < base.total_stall());
        assert!(
            rep.total_ticks < base.total_ticks,
            "latency hiding speeds the run"
        );
    }

    #[test]
    fn centralized_sees_interleaved_streams() {
        /// Records the stream tags it sees.
        struct TagRecorder(std::collections::HashSet<u16>);
        impl Prefetcher for TagRecorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
                self.0.insert(miss.stream);
                Vec::new()
            }
        }
        let ts = traces(3);
        let sim = DisaggregatedCluster::new(DisaggConfig::default());
        let mut rec = TagRecorder(Default::default());
        let rep = sim.run_centralized(&ts, &mut rec);
        assert_eq!(rec.0.len(), 3, "all three streams reach the prefetcher");
        assert_eq!(rep.placement, "centralized");
    }

    #[test]
    fn higher_link_latency_amplifies_prefetch_benefit() {
        let ts = traces(2);
        let benefit = |latency: u64| {
            let sim = DisaggregatedCluster::new(DisaggConfig {
                link_latency: latency,
                ..DisaggConfig::default()
            });
            let mut none: Vec<Box<dyn Prefetcher>> = (0..2)
                .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
                .collect();
            let base = sim.run_decentralized(&ts, &mut none);
            let mut nl: Vec<Box<dyn Prefetcher>> = (0..2)
                .map(|_| Box::new(NextLine) as Box<dyn Prefetcher>)
                .collect();
            let rep = sim.run_decentralized(&ts, &mut nl);
            base.total_stall() as i64 - rep.total_stall() as i64
        };
        assert!(
            benefit(400) > benefit(50),
            "absolute stall savings grow with link latency"
        );
    }

    #[test]
    fn switch_contention_queues_demand_and_drops_prefetches() {
        let ts = traces(4);
        let free = DisaggregatedCluster::new(DisaggConfig::default());
        let tight = DisaggregatedCluster::new(DisaggConfig {
            shared_link_slots: 3,
            contention_penalty: 20,
            ..DisaggConfig::default()
        });
        let mk = || -> Vec<Box<dyn Prefetcher>> {
            (0..4)
                .map(|_| Box::new(NextLine) as Box<dyn Prefetcher>)
                .collect()
        };
        let mut a = mk();
        let rep_free = free.run_decentralized(&ts, &mut a);
        let mut b = mk();
        let rep_tight = tight.run_decentralized(&ts, &mut b);
        let dropped: usize = rep_tight.nodes.iter().map(|n| n.prefetches_dropped).sum();
        assert!(dropped > 0, "saturated switch must drop prefetches");
        assert!(
            rep_tight.total_stall() > rep_free.total_stall(),
            "contention must add stall: {} vs {}",
            rep_tight.total_stall(),
            rep_free.total_stall()
        );
        let dropped_free: usize = rep_free.nodes.iter().map(|n| n.prefetches_dropped).sum();
        assert_eq!(dropped_free, 0, "uncontended switch drops nothing");
    }

    #[test]
    fn lost_transfer_is_not_reissued_while_outstanding() {
        /// Suggests the same far-away page on every miss.
        struct SamePage;
        impl Prefetcher for SamePage {
            fn name(&self) -> &str {
                "same-page"
            }
            fn on_miss(&mut self, _miss: &MissEvent) -> Vec<u64> {
                vec![1 << 40]
            }
        }
        // The first miss falls in a 100 %-loss window: its demand fetch
        // retries until the window closes, and its prefetch dies. A
        // browned-out switch queues that dead transfer so long that it
        // is still outstanding at every later miss of the run.
        let counters = hnp_obs::Counters::new();
        let obs = Registry::new();
        obs.attach(counters.clone());
        let cluster = DisaggregatedCluster::new(DisaggConfig {
            contention_penalty: 1_000_000,
            obs,
            ..DisaggConfig::default()
        });
        let schedule = crate::FaultSchedule::none()
            .with_lossy_link(0, 700, 1.0)
            .with_brownout(0, u64::MAX, 1);
        let trace = Trace::from_addrs((0..200).map(|k| k * 4096).collect());
        let mut pfs: Vec<Box<dyn Prefetcher>> = vec![Box::new(SamePage)];
        let mut inj = FaultInjector::new(schedule, 7);
        let rep = cluster.run_decentralized_with_faults(&[trace], &mut pfs, &mut inj);
        assert_eq!(
            counters.get("fault_drop") + counters.get("prefetch_issued"),
            1,
            "one outstanding transfer of the page, however often it is suggested"
        );
        assert_eq!(rep.nodes[0].misses, 200);
        assert_eq!(counters.get("fault_timeout"), 0);
        assert_eq!(counters.get("feedback_cancelled"), 0, "nothing lands");
    }

    #[test]
    #[should_panic(expected = "one prefetcher per node")]
    fn mismatched_prefetcher_count_panics() {
        let ts = traces(2);
        let sim = DisaggregatedCluster::new(DisaggConfig::default());
        let mut pfs: Vec<Box<dyn Prefetcher>> = vec![Box::new(NoPrefetcher)];
        let _ = sim.run_decentralized(&ts, &mut pfs);
    }
}
