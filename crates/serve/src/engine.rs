//! The serving engine: a batched, lock-step epoch loop over OS worker
//! threads (DESIGN.md §11).
//!
//! Each epoch the main thread ingests arrivals through per-shard
//! admission control, flushes one bounded batch per shard, and hands
//! the batches to the workers that own those shards. Workers hold all
//! live tenant state — models are *constructed inside* the owning
//! worker from the shared [`PrefetcherFactory`], because prefetcher
//! configs carry thread-local observer registries and must never
//! migrate. The epoch barrier (every worker acknowledges before the
//! next epoch starts) plus shard-ordered merging of results is what
//! makes the emitted event stream and the final report bit-identical
//! for any worker count.
//!
//! Observability stays on the main thread: workers return plain
//! integer payloads and the engine emits `hnp-obs` events from the
//! merged, shard-ordered view.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;

use hnp_memsim::{MissEvent, PrefetchFeedback, PrefetchLedger};
use hnp_obs::{Event, FaultKind, Registry};

use crate::shard::{shard_of, Offer, ShardQueue};
use crate::snapshot::{decode, encode};
use crate::tenant::{PrefetcherFactory, TenantId, TenantModel, TenantRegistry};
use crate::workload::ServeRequest;

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards tenants hash onto.
    pub shards: usize,
    /// Worker threads (clamped to `1..=shards` at run time).
    pub workers: usize,
    /// Per-shard pending-queue capacity (admission control sheds
    /// beyond it).
    pub queue_depth: usize,
    /// Maximum requests drained per shard per epoch (the batch size).
    /// Each epoch ingests `shards * flush_per_shard` arrivals from the
    /// request stream (a balanced offered load).
    pub flush_per_shard: usize,
    /// Snapshot every N epochs (plus a closing capture); `0` disables
    /// snapshotting.
    pub snapshot_interval: u64,
    /// Seed of the tenant→shard placement hash.
    pub hash_seed: u64,
    /// Crash schedule: at the start of epoch `e` (1-based), the given
    /// tenant loses its live state and warm-starts from its last
    /// snapshot if one exists.
    pub crashes: Vec<(u64, TenantId)>,
    /// Outstanding-prediction window per tenant for coverage
    /// accounting.
    pub pred_window: usize,
    /// Requests after which an unconsumed prediction expires (counted
    /// on the owning tenant's stream) and is fed back as pollution.
    pub pred_horizon: u64,
    /// Observer registry; the engine emits serve events into it from
    /// the main thread. Empty by default — and, per the workspace
    /// determinism contract, attaching observers never changes a run.
    pub obs: Registry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            workers: 1,
            queue_depth: 64,
            flush_per_shard: 32,
            snapshot_interval: 0,
            hash_seed: 0x5e44e,
            crashes: Vec::new(),
            pred_window: 64,
            pred_horizon: 256,
            obs: Registry::new(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Schedules a tenant crash at the start of the given 1-based
    /// epoch.
    pub fn with_crash(mut self, epoch: u64, tenant: TenantId) -> Self {
        self.crashes.push((epoch, tenant));
        self
    }

    /// Attaches an observer registry.
    pub fn with_observer(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }
}

/// Per-tenant serving totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: TenantId,
    /// Shard the tenant hashed to.
    pub shard: u64,
    /// Model family label.
    pub model: String,
    /// Requests processed.
    pub requests: u64,
    /// Requests whose page was in the prediction window (covered).
    pub covered: u64,
    /// Predictions issued into the window.
    pub issued: u64,
    /// Predictions expired unconsumed (pollution).
    pub expired: u64,
    /// Final health-ladder label.
    pub health: String,
    /// Crashes the tenant suffered.
    pub crashes: u64,
}

impl TenantReport {
    /// Covered share of processed requests, in thousandths.
    pub fn coverage_milli(&self) -> u64 {
        (self.covered * 1000)
            .checked_div(self.requests)
            .unwrap_or(0)
    }
}

/// Per-shard queue totals.
#[derive(Debug, Clone, PartialEq, Eq)]
// hnp-lint: allow(unused_pub) caller: hnpctl and perfbench compare `ServeReport::shards`
pub struct ShardReport {
    /// Shard index.
    pub shard: u64,
    /// Requests admitted.
    pub enqueued: u64,
    /// Requests shed.
    pub shed: u64,
    /// Requests flushed to the worker.
    pub flushed: u64,
}

/// Closing totals of one serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Epochs the engine ran (excluding the closing snapshot pass).
    pub epochs: u64,
    /// Requests offered by the workload.
    pub offered: u64,
    /// Requests admitted by the shard queues.
    pub admitted: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests processed by workers.
    pub processed: u64,
    /// Tenant crashes injected.
    pub crashes: u64,
    /// Successful warm-start restores.
    pub restores: u64,
    /// Snapshots captured.
    pub snapshots: u64,
    /// Per-tenant totals, ascending tenant id.
    pub tenants: Vec<TenantReport>,
    /// Per-shard totals, ascending shard index.
    pub shards: Vec<ShardReport>,
}

impl ServeReport {
    /// Covered share of all processed requests, in thousandths.
    pub fn coverage_milli(&self) -> u64 {
        let covered: u64 = self.tenants.iter().map(|t| t.covered).sum();
        (covered * 1000).checked_div(self.processed).unwrap_or(0)
    }
}

/// Everything a run produces: the report plus the latest snapshot
/// blob per tenant (the warm-start archive, ready to write to disk).
#[derive(Debug)]
pub struct ServeOutcome {
    /// Closing totals.
    pub report: ServeReport,
    /// Latest snapshot per tenant, ascending id.
    pub archive: BTreeMap<TenantId, Vec<u8>>,
}

/// Coverage-model knobs shipped to workers.
#[derive(Debug, Clone, Copy)]
struct CoverageParams {
    window: usize,
    horizon: u64,
}

/// One epoch of work for a worker: every owned shard's batch (empty
/// batches included — the acknowledgement is the barrier), crash
/// directives with optional warm-start blobs, and the snapshot flag.
struct EpochTask {
    batches: Vec<(usize, Vec<ServeRequest>)>,
    crashes: Vec<(TenantId, Option<Vec<u8>>)>,
    snapshot: bool,
}

enum ToWorker {
    Epoch(EpochTask),
    Finish,
}

/// Per-epoch acknowledgement: snapshots captured and restores
/// attempted this epoch (tenant, blob bytes, success).
struct EpochAck {
    snapshots: Vec<(TenantId, Vec<u8>)>,
    restores: Vec<(TenantId, u64, bool)>,
}

/// Closing per-tenant totals from one worker.
struct TenantFinal {
    tenant: TenantId,
    requests: u64,
    covered: u64,
    issued: u64,
    expired: u64,
    health: &'static str,
}

enum FromWorker {
    Epoch(EpochAck),
    Final(Vec<TenantFinal>),
}

/// Live per-tenant state, owned by exactly one worker.
struct TenantState {
    model: TenantModel,
    /// Outstanding predictions, due (expired) once more than
    /// `pred_horizon` requests have passed since issue.
    predictions: PrefetchLedger,
    seq: u64,
    requests: u64,
    covered: u64,
    issued: u64,
    expired: u64,
}

impl TenantState {
    fn fresh(model: TenantModel) -> Self {
        Self {
            model,
            predictions: PrefetchLedger::new(),
            seq: 0,
            requests: 0,
            covered: 0,
            issued: 0,
            expired: 0,
        }
    }

    /// Serves one demand request: settle the prediction window, then
    /// consult the model and refill it.
    fn process(&mut self, page: u64, pred: &CoverageParams) {
        self.seq += 1;
        self.predictions.drain_due(self.seq, |p| {
            self.model
                .on_feedback(&PrefetchFeedback::Unused { page: p });
            self.expired += 1;
        });
        if self.predictions.take(page).is_some() {
            self.model.on_feedback(&PrefetchFeedback::Useful { page });
            self.covered += 1;
        }
        let miss = MissEvent {
            page,
            tick: self.seq,
            stream: 0,
        };
        for cand in self.model.on_miss(&miss) {
            if self.predictions.len() >= pred.window {
                break;
            }
            if cand != page && !self.predictions.contains(cand) {
                let due = self.seq.saturating_add(pred.horizon).saturating_add(1);
                self.predictions.issue(cand, due);
                self.issued += 1;
            }
        }
        self.requests += 1;
    }
}

fn worker_loop(
    rx: Receiver<ToWorker>,
    tx: Sender<FromWorker>,
    registry: Arc<TenantRegistry>,
    factory: PrefetcherFactory,
    pred: CoverageParams,
) {
    let mut states: BTreeMap<TenantId, TenantState> = BTreeMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Epoch(task) => {
                let mut ack = EpochAck {
                    snapshots: Vec::new(),
                    restores: Vec::new(),
                };
                // Crashes land before the epoch's batches: live state
                // (hippocampus, prediction window, health) is lost;
                // the consolidated cortex warm-starts from the blob.
                for (tenant, blob) in task.crashes {
                    states.remove(&tenant);
                    let (Some(blob), Some(spec)) = (blob, registry.get(tenant)) else {
                        continue;
                    };
                    let mut st = TenantState::fresh(factory.build(spec));
                    let ok = match decode(&blob) {
                        Ok(snap) if snap.tenant == tenant => st.model.import_net_state(&snap.state),
                        _ => false,
                    };
                    ack.restores.push((tenant, blob.len() as u64, ok));
                    states.insert(tenant, st);
                }
                for (_, batch) in task.batches {
                    for req in batch {
                        let Some(spec) = registry.get(req.tenant) else {
                            continue;
                        };
                        let st = states
                            .entry(req.tenant)
                            .or_insert_with(|| TenantState::fresh(factory.build(spec)));
                        st.process(req.page, &pred);
                    }
                }
                if task.snapshot {
                    // BTreeMap iteration: snapshots leave in tenant
                    // order within each worker.
                    for (&tenant, st) in states.iter_mut() {
                        let (Some(net), Some(spec)) =
                            (st.model.export_net_state(), registry.get(tenant))
                        else {
                            continue;
                        };
                        ack.snapshots
                            .push((tenant, encode(tenant, spec.model, &net)));
                    }
                }
                if tx.send(FromWorker::Epoch(ack)).is_err() {
                    return;
                }
            }
            ToWorker::Finish => {
                let finals = states
                    .iter()
                    .map(|(&tenant, st)| TenantFinal {
                        tenant,
                        requests: st.requests,
                        covered: st.covered,
                        issued: st.issued,
                        expired: st.expired,
                        health: st.model.health().label(),
                    })
                    .collect();
                let _ = tx.send(FromWorker::Final(finals));
                return;
            }
        }
    }
}

/// The sharded multi-tenant serving engine.
pub struct ServeEngine {
    cfg: ServeConfig,
    registry: Arc<TenantRegistry>,
    factory: PrefetcherFactory,
}

impl ServeEngine {
    /// Builds an engine over `registry` with models built by
    /// `factory`.
    pub fn new(cfg: ServeConfig, registry: TenantRegistry, factory: PrefetcherFactory) -> Self {
        Self {
            cfg,
            registry: Arc::new(registry),
            factory,
        }
    }

    /// The tenant control plane.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Serves `requests` to completion (every admitted request is
    /// processed; the run ends when the arrival stream and all queues
    /// are drained). Byte-deterministic in the report, the archive,
    /// and the emitted event stream for any worker count.
    pub fn run(&self, requests: &[ServeRequest]) -> ServeOutcome {
        let shards = self.cfg.shards.max(1);
        let workers = self.cfg.workers.clamp(1, shards);
        let flush = self.cfg.flush_per_shard.max(1);
        let ingest = shards * flush;
        let pred = CoverageParams {
            window: self.cfg.pred_window.max(1),
            horizon: self.cfg.pred_horizon.max(1),
        };
        let obs = &self.cfg.obs;

        let mut queues: Vec<ShardQueue> = (0..shards)
            .map(|_| ShardQueue::new(self.cfg.queue_depth))
            .collect();
        let mut report = ServeReport {
            epochs: 0,
            offered: requests.len() as u64,
            admitted: 0,
            shed: 0,
            processed: 0,
            crashes: 0,
            restores: 0,
            snapshots: 0,
            tenants: Vec::new(),
            shards: Vec::new(),
        };
        let mut archive: BTreeMap<TenantId, Vec<u8>> = BTreeMap::new();
        let mut crash_plan = self.cfg.crashes.clone();
        crash_plan.sort_unstable();
        let mut tenant_crashes: BTreeMap<TenantId, u64> = BTreeMap::new();
        let mut finals: BTreeMap<TenantId, TenantFinal> = BTreeMap::new();

        thread::scope(|s| {
            let mut to_workers: Vec<Sender<ToWorker>> = Vec::with_capacity(workers);
            let mut from_workers: Vec<Receiver<FromWorker>> = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx_t, rx_t) = channel::<ToWorker>();
                let (tx_r, rx_r) = channel::<FromWorker>();
                let registry = Arc::clone(&self.registry);
                let factory = self.factory;
                s.spawn(move || worker_loop(rx_t, tx_r, registry, factory, pred));
                to_workers.push(tx_t);
                from_workers.push(rx_r);
            }

            // Dispatches one epoch task per worker and merges the
            // shard-ordered acknowledgements into events + report.
            let run_epoch =
                |epoch: u64,
                 per_worker: Vec<EpochTask>,
                 report: &mut ServeReport,
                 archive: &mut BTreeMap<TenantId, Vec<u8>>| {
                    for (w, task) in per_worker.into_iter().enumerate() {
                        let _ = to_workers[w].send(ToWorker::Epoch(task));
                    }
                    let mut snapshots: Vec<(TenantId, Vec<u8>)> = Vec::new();
                    let mut restores: Vec<(TenantId, u64, bool)> = Vec::new();
                    for rx in &from_workers {
                        if let Ok(FromWorker::Epoch(ack)) = rx.recv() {
                            snapshots.extend(ack.snapshots);
                            restores.extend(ack.restores);
                        }
                    }
                    restores.sort_unstable_by_key(|&(t, _, _)| t);
                    for (tenant, bytes, ok) in restores {
                        if ok {
                            report.restores += 1;
                            obs.emit(&Event::Snapshot {
                                epoch,
                                tenant,
                                bytes,
                                restored: true,
                            });
                        }
                    }
                    snapshots.sort_unstable_by_key(|&(t, _)| t);
                    for (tenant, blob) in snapshots {
                        report.snapshots += 1;
                        obs.emit(&Event::Snapshot {
                            epoch,
                            tenant,
                            bytes: blob.len() as u64,
                            restored: false,
                        });
                        archive.insert(tenant, blob);
                    }
                };

            let mut next = 0usize;
            let mut epoch: u64 = 0;
            while next < requests.len() || queues.iter().any(|q| !q.is_empty()) {
                epoch += 1;
                // 1. Ingest this epoch's arrivals through admission.
                let end = (next + ingest).min(requests.len());
                for req in &requests[next..end] {
                    let sh = shard_of(req.tenant, shards, self.cfg.hash_seed);
                    match queues[sh].offer(*req) {
                        Offer::Enqueued(depth) => {
                            report.admitted += 1;
                            obs.emit(&Event::ServeEnqueue {
                                epoch,
                                tenant: req.tenant,
                                shard: sh as u64,
                                depth: depth as u64,
                            });
                        }
                        Offer::Shed => {
                            report.shed += 1;
                            obs.emit(&Event::ServeShed {
                                epoch,
                                tenant: req.tenant,
                                shard: sh as u64,
                            });
                        }
                    }
                }
                next = end;
                // 2. Crash directives scheduled for this epoch.
                let mut crash_now: Vec<TenantId> = Vec::new();
                crash_plan.retain(|&(e, t)| {
                    if e == epoch {
                        crash_now.push(t);
                        false
                    } else {
                        true
                    }
                });
                crash_now.sort_unstable();
                for &t in &crash_now {
                    report.crashes += 1;
                    *tenant_crashes.entry(t).or_insert(0) += 1;
                    obs.emit(&Event::Fault {
                        tick: epoch,
                        domain: shard_of(t, shards, self.cfg.hash_seed) as u64,
                        kind: FaultKind::Crash,
                    });
                }
                // 3. Flush one batch per shard and dispatch.
                let interval = self.cfg.snapshot_interval;
                let snapshot_due = interval > 0 && epoch.is_multiple_of(interval);
                let mut per_worker: Vec<EpochTask> = (0..workers)
                    .map(|_| EpochTask {
                        batches: Vec::new(),
                        crashes: Vec::new(),
                        snapshot: snapshot_due,
                    })
                    .collect();
                let mut batch_sizes = vec![0u64; shards];
                for (sh, queue) in queues.iter_mut().enumerate() {
                    let batch = queue.flush(flush);
                    batch_sizes[sh] = batch.len() as u64;
                    if !batch.is_empty() {
                        obs.emit(&Event::ServeFlush {
                            epoch,
                            shard: sh as u64,
                            batch: batch.len() as u64,
                        });
                    }
                    per_worker[sh % workers].batches.push((sh, batch));
                }
                for t in crash_now {
                    let sh = shard_of(t, shards, self.cfg.hash_seed);
                    per_worker[sh % workers]
                        .crashes
                        .push((t, archive.get(&t).cloned()));
                }
                run_epoch(epoch, per_worker, &mut report, &mut archive);
                // 4. Close the epoch per shard, in shard order.
                for (sh, queue) in queues.iter().enumerate() {
                    report.processed += batch_sizes[sh];
                    obs.emit(&Event::ShardEpoch {
                        epoch,
                        shard: sh as u64,
                        processed: batch_sizes[sh],
                        queued: queue.len() as u64,
                    });
                }
                report.epochs = epoch;
            }
            // Closing snapshot pass: one extra barrier with no
            // batches, so the archive holds every tenant's final
            // cortex for warm-starting the next run.
            if self.cfg.snapshot_interval > 0 {
                let per_worker: Vec<EpochTask> = (0..workers)
                    .map(|_| EpochTask {
                        batches: Vec::new(),
                        crashes: Vec::new(),
                        snapshot: true,
                    })
                    .collect();
                run_epoch(epoch + 1, per_worker, &mut report, &mut archive);
            }
            for tx in &to_workers {
                let _ = tx.send(ToWorker::Finish);
            }
            for rx in &from_workers {
                if let Ok(FromWorker::Final(list)) = rx.recv() {
                    for f in list {
                        finals.insert(f.tenant, f);
                    }
                }
            }
        });

        for spec in self.registry.iter() {
            let sh = shard_of(spec.id, shards, self.cfg.hash_seed) as u64;
            let (requests, covered, issued, expired, health) = match finals.get(&spec.id) {
                Some(f) => (f.requests, f.covered, f.issued, f.expired, f.health),
                None => (0, 0, 0, 0, "healthy"),
            };
            report.tenants.push(TenantReport {
                tenant: spec.id,
                shard: sh,
                model: spec.model.label().to_string(),
                requests,
                covered,
                issued,
                expired,
                health: health.to_string(),
                crashes: tenant_crashes.get(&spec.id).copied().unwrap_or(0),
            });
        }
        for (sh, queue) in queues.iter().enumerate() {
            let s = queue.stats();
            report.shards.push(ShardReport {
                shard: sh as u64,
                enqueued: s.enqueued,
                shed: s.shed,
                flushed: s.flushed,
            });
        }
        ServeOutcome { report, archive }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{ModelKind, TenantSpec};
    use crate::workload::synthesize;
    use hnp_trace::apps::AppWorkload;

    fn small_registry() -> TenantRegistry {
        let mut reg = TenantRegistry::new();
        let kinds = [ModelKind::Hebbian, ModelKind::Stride, ModelKind::Markov];
        let loads = [
            AppWorkload::McfLike,
            AppWorkload::KvStoreLike,
            AppWorkload::TensorFlowLike,
        ];
        for id in 0..6u64 {
            reg.register(TenantSpec {
                id,
                model: kinds[id as usize % kinds.len()],
                workload: loads[id as usize % loads.len()],
                seed: 900 + id,
            });
        }
        reg
    }

    #[test]
    fn serves_every_admitted_request() {
        let reg = small_registry();
        let requests = synthesize(&reg, 200, 3);
        let engine = ServeEngine::new(ServeConfig::default(), reg, PrefetcherFactory::new());
        let out = engine.run(&requests);
        let r = &out.report;
        assert_eq!(r.offered, requests.len() as u64);
        assert_eq!(r.admitted + r.shed, r.offered);
        assert_eq!(r.processed, r.admitted, "queues fully drained");
        assert!(r.epochs > 0);
        let tenant_sum: u64 = r.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(tenant_sum, r.processed);
    }

    #[test]
    fn snapshot_interval_populates_archive() {
        let reg = small_registry();
        let requests = synthesize(&reg, 150, 3);
        let cfg = ServeConfig {
            snapshot_interval: 4,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(cfg, reg, PrefetcherFactory::new());
        let out = engine.run(&requests);
        // Hebbian-family tenants (ids 0 and 3) snapshot; baselines
        // do not.
        let ids: Vec<TenantId> = out.archive.keys().copied().collect();
        assert_eq!(ids, vec![0, 3]);
        assert!(out.report.snapshots >= 2);
        for blob in out.archive.values() {
            assert!(crate::snapshot::decode(blob).is_ok());
        }
    }

    #[test]
    fn crash_without_snapshot_rebuilds_cold() {
        let reg = small_registry();
        let requests = synthesize(&reg, 100, 3);
        let cfg = ServeConfig::default().with_crash(2, 0).with_crash(3, 1);
        let engine = ServeEngine::new(cfg, reg, PrefetcherFactory::new());
        let out = engine.run(&requests);
        assert_eq!(out.report.crashes, 2);
        assert_eq!(out.report.restores, 0, "no snapshots to warm-start from");
        let t0 = &out.report.tenants[0];
        assert_eq!(t0.crashes, 1);
    }

    #[test]
    fn crash_after_snapshot_warm_starts() {
        let reg = small_registry();
        let requests = synthesize(&reg, 200, 3);
        let cfg = ServeConfig {
            snapshot_interval: 2,
            ..ServeConfig::default()
        }
        .with_crash(5, 0);
        let engine = ServeEngine::new(cfg, reg, PrefetcherFactory::new());
        let out = engine.run(&requests);
        assert_eq!(out.report.crashes, 1);
        assert_eq!(
            out.report.restores, 1,
            "tenant 0 restores from epoch-4 snapshot"
        );
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        let reg = small_registry();
        let requests = synthesize(&reg, 120, 9);
        let run = |workers: usize| {
            let cfg = ServeConfig {
                snapshot_interval: 3,
                ..ServeConfig::default()
            }
            .with_workers(workers)
            .with_crash(4, 3);
            let engine = ServeEngine::new(cfg, small_registry(), PrefetcherFactory::new());
            engine.run(&requests)
        };
        let _ = reg;
        let base = run(1);
        for workers in [2, 4] {
            let other = run(workers);
            assert_eq!(other.report, base.report, "workers={workers}");
            assert_eq!(other.archive, base.archive, "workers={workers}");
        }
    }
}
