//! The CPU-GPU unified-virtual-memory simulator.
//!
//! Models the paper's second target (§4, Fig. 6 right): warps execute
//! in lockstep against a shared GPU memory; a step in which any warp
//! faults stalls the whole machine while the batch of faulting pages
//! migrates over the interconnect ("the SIMT execution can produce
//! many concurrent faults, and the lockstep execution model means that
//! a single fault can stall many threads"). Prefetch decisions are
//! made centrally in the CPU-side driver, which sees all warps' fault
//! streams interleaved — hence the paper's suggestion that UVM wants a
//! *throughput*-optimized, wide prefetcher.

use std::collections::BTreeSet;

use serde::Serialize;

use hnp_memsim::memory::LocalMemory;
use hnp_memsim::prefetcher::{MissEvent, Prefetcher};
use hnp_memsim::PrefetchLedger;
use hnp_obs::{Event, FaultKind as ObsFaultKind, FeedbackKind, Registry};
use hnp_trace::Trace;

use crate::fault::FaultInjector;
use crate::notify;

/// GPU-memory capacity as a fraction of the combined footprint.
const CAPACITY_FRAC: f64 = 0.5;
/// Ticks to service a fault batch (one migration round trip; the batch
/// migrates together).
const FAULT_LATENCY: u64 = 200;
/// Extra ticks per page in a batch beyond the first (PCIe
/// serialization).
const PER_PAGE_LATENCY: u64 = 5;
/// Outstanding prefetched pages.
const MAX_INFLIGHT: usize = 64;
/// Prefetches accepted per fault.
const MAX_ISSUE_PER_FAULT: usize = 4;
/// Base backoff in ticks before retrying a fault-batch migration
/// dropped by a lossy interconnect (doubles per attempt, capped at
/// `RETRY_BACKOFF_CAP`).
const RETRY_BACKOFF: u64 = 50;
/// Ceiling for the exponential retry backoff.
const RETRY_BACKOFF_CAP: u64 = 800;
/// Dropped-migration retries before declaring a timeout.
const MAX_RETRIES: u32 = 4;
/// Extra stall charged when migration retries are exhausted (the
/// recovery path — the batch then completes out-of-band).
const TIMEOUT_PENALTY: u64 = 1000;

/// UVM simulator parameters. The machine itself (capacity, latencies,
/// issue caps, retry policy) is fixed; see the constants above.
#[derive(Debug, Clone, Default)]
pub struct UvmConfig {
    /// Observer registry; every decision point in the run emits a
    /// typed event into it. An empty registry keeps the run
    /// bit-identical to an unobserved one.
    pub obs: Registry,
}

impl UvmConfig {
    /// Attaches an observer registry to the run.
    pub fn with_observer(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }
}

/// Counters from one UVM run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UvmReport {
    /// Prefetcher name.
    pub prefetcher: String,
    /// Lockstep steps executed.
    pub steps: u64,
    /// Total accesses across warps.
    pub accesses: usize,
    /// Fault batches serviced.
    pub fault_batches: usize,
    /// Total faulting pages.
    pub faults: usize,
    /// Largest fault batch.
    pub max_batch: usize,
    /// Prefetches issued.
    pub prefetches_issued: usize,
    /// Useful prefetches.
    pub prefetches_useful: usize,
    /// In-flight prefetches cancelled by faults (lossy link, device
    /// reset).
    pub prefetches_cancelled: usize,
    /// Fault-batch migration retries after dropped transfers.
    pub retries: usize,
    /// Migrations that exhausted their retries.
    pub timeouts: usize,
    /// Device resets (crash events) survived.
    pub restarts: usize,
    /// Total ticks (the throughput metric: lower = higher throughput).
    pub total_ticks: u64,
}

impl UvmReport {
    /// Throughput in accesses per kilo-tick.
    pub fn throughput(&self) -> f64 {
        if self.total_ticks == 0 {
            0.0
        } else {
            1000.0 * self.accesses as f64 / self.total_ticks as f64
        }
    }

    /// Percentage of `baseline`'s faults removed.
    pub fn pct_faults_removed(&self, baseline: &UvmReport) -> f64 {
        if baseline.faults == 0 {
            0.0
        } else {
            100.0 * (baseline.faults as f64 - self.faults as f64) / baseline.faults as f64
        }
    }
}

/// The UVM simulator.
pub struct UvmSim {
    cfg: UvmConfig,
}

impl UvmSim {
    /// Creates a simulator.
    pub fn new(cfg: UvmConfig) -> Self {
        Self { cfg }
    }

    /// Runs `warps` (one trace per warp) against the centralized
    /// `prefetcher`.
    ///
    /// # Panics
    ///
    /// Panics if `warps` is empty.
    pub fn run(&self, warps: &[Trace], prefetcher: &mut dyn Prefetcher) -> UvmReport {
        self.run_with_faults(warps, prefetcher, &mut FaultInjector::disabled())
    }

    /// [`Self::run`] under a fault injector. The GPU is one failure
    /// domain: any crash event resets the whole device (memory
    /// flushed, in-flight prefetches cancelled, prefetcher transient
    /// state dropped). With an empty schedule the report is
    /// bit-identical to the fault-free run.
    ///
    /// # Panics
    ///
    /// Panics if `warps` is empty.
    pub fn run_with_faults(
        &self,
        warps: &[Trace],
        prefetcher: &mut dyn Prefetcher,
        injector: &mut FaultInjector,
    ) -> UvmReport {
        assert!(!warps.is_empty(), "no warps");
        let combined_footprint: usize = {
            let mut pages = BTreeSet::new();
            for w in warps {
                pages.extend(w.pages());
            }
            pages.len()
        };
        let capacity = ((combined_footprint as f64 * CAPACITY_FRAC) as usize).max(1);
        let mut memory = LocalMemory::new(capacity);
        let mut inflight = PrefetchLedger::new();
        let mut cursors = vec![0usize; warps.len()];
        let mut now: u64 = 0;
        let mut report = UvmReport {
            prefetcher: prefetcher.name().to_string(),
            steps: 0,
            accesses: 0,
            fault_batches: 0,
            faults: 0,
            max_batch: 0,
            prefetches_issued: 0,
            prefetches_useful: 0,
            prefetches_cancelled: 0,
            retries: 0,
            timeouts: 0,
            restarts: 0,
            total_ticks: 0,
        };
        let obs = &self.cfg.obs;
        let mut demand_misses: u64 = 0;
        loop {
            // Device reset: the GPU is a single failure domain, so any
            // crash event flushes memory, cancels all in-flight
            // prefetches, and drops the driver model's transient
            // state; the device stays down until the event ends.
            if let Some(restart) = injector.take_crash_any(now) {
                report.restarts += 1;
                cancel_all(obs, prefetcher, &mut inflight, &mut report, now);
                memory.flush();
                notify(
                    obs,
                    prefetcher,
                    Event::Fault {
                        tick: now,
                        domain: 0,
                        kind: ObsFaultKind::Crash,
                    },
                );
                now = now.max(restart);
            }
            // Land arrived prefetches.
            inflight.drain_due(now, |page| {
                let _ = memory.insert(page, true);
            });
            // One lockstep step: every unfinished warp issues its next
            // access.
            let mut faults: Vec<(usize, u64)> = Vec::new();
            let mut any_active = false;
            for (w, trace) in warps.iter().enumerate() {
                if cursors[w] >= trace.len() {
                    continue;
                }
                any_active = true;
                let access = trace.accesses()[cursors[w]];
                let page = access.page(trace.page_shift());
                report.accesses += 1;
                if let Some(before) = memory.touch(page) {
                    if before.prefetched && !before.touched {
                        report.prefetches_useful += 1;
                        notify(
                            obs,
                            prefetcher,
                            Event::Feedback {
                                tick: now,
                                page,
                                kind: FeedbackKind::Useful,
                                remaining: 0,
                            },
                        );
                    }
                    obs.emit(&Event::Hit { tick: now, page });
                    cursors[w] += 1;
                } else {
                    faults.push((w, page));
                    // The warp retries this access after the batch.
                }
            }
            if !any_active {
                break;
            }
            report.steps += 1;
            now += 1;
            if faults.is_empty() {
                continue;
            }
            // Service the fault batch: the whole GPU stalls while the
            // batch migrates together.
            let mut batch_pages: BTreeSet<u64> = faults.iter().map(|&(_, p)| p).collect();
            report.fault_batches += 1;
            report.faults += batch_pages.len();
            report.max_batch = report.max_batch.max(batch_pages.len());
            let base_service = FAULT_LATENCY + PER_PAGE_LATENCY * (batch_pages.len() as u64 - 1);
            // A lossy interconnect can drop the whole batch migration:
            // each drop costs the wasted (shaped) round trip plus a
            // capped exponential backoff; exhausted retries time out
            // and the recovery path completes the batch with a flat
            // penalty so warps always make progress.
            let mut service = 0u64;
            let mut attempt = 0u32;
            loop {
                if !injector.transfer_dropped(now + service) {
                    service += injector.transfer_latency(now + service, base_service);
                    break;
                }
                service += injector.transfer_latency(now + service, base_service);
                if attempt >= MAX_RETRIES {
                    report.timeouts += 1;
                    service += TIMEOUT_PENALTY;
                    obs.emit(&Event::Fault {
                        tick: now,
                        domain: 0,
                        kind: ObsFaultKind::Timeout,
                    });
                    // The recovery path tears down and re-establishes
                    // the interconnect: every outstanding prefetch
                    // migration dies with it. The cancellations are
                    // the model's only signal — a transport-level
                    // reset stays below its horizon.
                    cancel_all(obs, prefetcher, &mut inflight, &mut report, now);
                    break;
                }
                report.retries += 1;
                obs.emit(&Event::Fault {
                    tick: now,
                    domain: 0,
                    kind: ObsFaultKind::Retry,
                });
                service += (RETRY_BACKOFF << attempt.min(16)).min(RETRY_BACKOFF_CAP);
                attempt += 1;
            }
            // Driver-side prefetching: consult the model per faulting
            // page (interleaved streams), issue concurrently with the
            // migration.
            let arrival = now + service;
            for &(w, page) in &faults {
                demand_misses += 1;
                obs.emit(&Event::Miss {
                    tick: now,
                    page,
                    late: false,
                    stall: service,
                });
                // Deduplicate: only the first warp faulting a page
                // reports it (the driver coalesces duplicate faults).
                if !batch_pages.remove(&page) {
                    continue;
                }
                let miss = MissEvent {
                    page,
                    tick: now,
                    stream: w as u16,
                };
                let candidates = prefetcher.on_miss(&miss);
                let mut accepted = 0;
                for cand in candidates {
                    if accepted >= MAX_ISSUE_PER_FAULT {
                        break;
                    }
                    if memory.contains(cand) || inflight.contains(cand) {
                        continue;
                    }
                    if inflight.len() >= MAX_INFLIGHT {
                        break;
                    }
                    // Lossy interconnects silently eat prefetches; the
                    // model learns of the cancellation so it can back
                    // off (hnp_memsim::resilient reacts to these).
                    if injector.transfer_dropped(now) {
                        report.prefetches_cancelled += 1;
                        obs.emit(&Event::Fault {
                            tick: now,
                            domain: 0,
                            kind: ObsFaultKind::Drop,
                        });
                        notify(
                            obs,
                            prefetcher,
                            Event::Feedback {
                                tick: now,
                                page: cand,
                                kind: FeedbackKind::Cancelled,
                                remaining: 0,
                            },
                        );
                        continue;
                    }
                    inflight.issue(cand, arrival);
                    report.prefetches_issued += 1;
                    obs.emit(&Event::PrefetchIssued {
                        tick: now,
                        page: cand,
                        arrival,
                    });
                    accepted += 1;
                }
                memory.insert(page, false);
                memory.touch(page);
            }
            now += service;
        }
        report.total_ticks = now;
        obs.emit(&Event::RunEnd {
            ticks: now,
            accesses: report.accesses as u64,
            hits: report.accesses as u64 - demand_misses,
            misses: demand_misses,
        });
        report
    }
}

/// Cancels every outstanding prefetch (device reset or interconnect
/// teardown), telling the model about each one in page order.
fn cancel_all(
    obs: &Registry,
    prefetcher: &mut dyn Prefetcher,
    inflight: &mut PrefetchLedger,
    report: &mut UvmReport,
    now: u64,
) {
    report.prefetches_cancelled += inflight.len();
    inflight.drain_all(|page| {
        notify(
            obs,
            prefetcher,
            Event::Feedback {
                tick: now,
                page,
                kind: FeedbackKind::Cancelled,
                remaining: 0,
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_memsim::NoPrefetcher;
    use hnp_trace::Pattern;

    fn warps(n: usize) -> Vec<Trace> {
        (0..n)
            .map(|i| {
                Pattern::Stride
                    .generate(800, i as u64)
                    .with_stream(i as u16)
            })
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
    fn all_warps_complete() {
        let ws = warps(4);
        let sim = UvmSim::new(UvmConfig::default());
        let rep = sim.run(&ws, &mut NoPrefetcher);
        assert!(rep.accesses >= 4 * 800, "retries recount accesses");
        assert!(rep.steps >= 800);
        assert!(rep.fault_batches > 0);
    }

    #[test]
    fn concurrent_faults_batch_together() {
        // Four warps over disjoint regions: lockstep misses coincide.
        let ws: Vec<Trace> = (0..4)
            .map(|i| {
                let base = 0x1000_0000u64 * (i + 1) as u64;
                Trace::from_addrs((0..500).map(|k| base + k * 4096).collect())
            })
            .collect();
        let sim = UvmSim::new(UvmConfig::default());
        let rep = sim.run(&ws, &mut NoPrefetcher);
        assert!(rep.max_batch >= 2, "batches form: max {}", rep.max_batch);
    }

    #[test]
    fn prefetching_improves_throughput() {
        let ws = warps(4);
        let sim = UvmSim::new(UvmConfig::default());
        let base = sim.run(&ws, &mut NoPrefetcher);
        let rep = sim.run(&ws, &mut NextLine);
        assert!(
            rep.throughput() > base.throughput(),
            "prefetch {} vs base {}",
            rep.throughput(),
            base.throughput()
        );
        assert!(rep.pct_faults_removed(&base) > 30.0);
    }

    #[test]
    fn per_page_latency_penalizes_big_batches() {
        // Warps over disjoint regions fault in lockstep, one batch of
        // all warps per access; each batch costs a faulting step, the
        // migration and the retried step.
        let ws: Vec<Trace> = (0..8)
            .map(|i| {
                let base = 0x1000_0000u64 * (i + 1) as u64;
                Trace::from_addrs((0..300).map(|k| base + k * 4096).collect())
            })
            .collect();
        let sim = UvmSim::new(UvmConfig::default());
        let one = sim.run(&ws[..1], &mut NoPrefetcher);
        let eight = sim.run(&ws, &mut NoPrefetcher);
        assert_eq!((one.max_batch, eight.max_batch), (1, 8));
        let per_batch = |r: &UvmReport| r.total_ticks / r.fault_batches as u64;
        assert_eq!(per_batch(&one), 2 + FAULT_LATENCY);
        assert_eq!(per_batch(&eight) - per_batch(&one), 7 * PER_PAGE_LATENCY);
    }

    #[test]
    fn report_metrics_are_consistent() {
        let ws = warps(2);
        let sim = UvmSim::new(UvmConfig::default());
        let rep = sim.run(&ws, &mut NextLine);
        assert!(rep.faults > 0);
        assert!(rep.prefetches_useful <= rep.prefetches_issued);
    }
}
