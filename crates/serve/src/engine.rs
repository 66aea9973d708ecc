//! The serving engine: plan, serve, merge (DESIGN.md §11).
//!
//! 1. **Plan.** The main thread runs admission over the whole request
//!    stream before any model runs, epoch by epoch: it offers a slice
//!    of arrivals to the per-shard queues, then flushes one bounded
//!    batch per shard. Admission reads only the stream and the queue
//!    depths, so nothing a worker computes can change it.
//! 2. **Serve.** One scoped OS thread per worker serves its shards'
//!    batches, crashes and snapshots epoch by epoch, and is joined
//!    once. Models are *constructed inside* the owning worker from the
//!    shared [`PrefetcherFactory`]: their configs carry thread-local
//!    observer registries and must never migrate.
//! 3. **Merge.** The main thread folds the plan and the workers' logs
//!    into the report and emits the `hnp-obs` events in a fixed order.
//!
//! Tenant→shard→worker pinning plus that order make the event stream,
//! the report and the archive bit-identical for any worker count.

use std::collections::{BTreeMap, VecDeque};
use std::{panic, thread};

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

/// Coverage-model knobs a worker serves with.
#[derive(Debug, Clone, Copy)]
struct CoverageParams {
    window: usize,
    horizon: u64,
}

/// Admission's record of a whole run: flat arrays of stream indices
/// and counts, never a copy of a request. Indices and depths are
/// `u32`, which keeps the plan at 8 bytes per request and bounds a run
/// at 2³² − 1 requests (64 GiB of them).
struct Plan {
    shards: usize,
    /// Arrivals offered per epoch, `shards × flush_per_shard`.
    ingest: usize,
    /// Epochs the run takes, excluding the closing snapshot pass.
    epochs: u64,
    snapshot_interval: u64,
    /// Per offered request, in arrival order: the queue depth after
    /// its enqueue (at least 1), or `0` if it was shed.
    depths: Vec<u32>,
    /// Stream indices of the admitted requests in serving order:
    /// epoch by epoch, shard by shard, FIFO within each batch.
    order: Vec<u32>,
    /// Per epoch and shard, epoch-major: the batch flushed and the
    /// queue length left behind it.
    batches: Vec<(usize, usize)>,
    /// The crashes that land, as (epoch, tenant, shard) in ascending
    /// epoch then tenant order.
    crashes: Vec<(u64, TenantId, usize)>,
    /// Per-shard queue totals, ascending shard index.
    shard_reports: Vec<ShardReport>,
}

impl Plan {
    /// Runs admission epoch by epoch until the stream and every queue
    /// are drained.
    fn new(cfg: &ServeConfig, requests: &[ServeRequest]) -> Self {
        assert!(
            requests.len() <= u32::MAX as usize,
            "a run offers at most 2^32 - 1 requests"
        );
        let shards = cfg.shards.max(1);
        let flush = cfg.flush_per_shard.max(1);
        let ingest = shards * flush;
        let mut queues: Vec<ShardQueue> = (0..shards)
            .map(|_| ShardQueue::new(cfg.queue_depth))
            .collect();
        // The stream indices behind each queue's pending requests.
        let mut pending: Vec<VecDeque<u32>> = vec![VecDeque::new(); shards];
        let mut depths = Vec::with_capacity(requests.len());
        let mut order = Vec::with_capacity(requests.len());
        let mut batches = Vec::new();
        let mut arrivals = requests.iter().enumerate().peekable();
        while arrivals.peek().is_some() || queues.iter().any(|q| !q.is_empty()) {
            for (i, req) in arrivals.by_ref().take(ingest) {
                let sh = shard_of(req.tenant, shards, cfg.hash_seed);
                depths.push(match queues[sh].offer(*req) {
                    Offer::Enqueued(depth) => {
                        pending[sh].push_back(i as u32);
                        depth as u32
                    }
                    Offer::Shed => 0,
                });
            }
            for (queue, pending) in queues.iter_mut().zip(&mut pending) {
                let n = queue.flush(flush).len();
                order.extend(pending.drain(..n));
                batches.push((n, queue.len()));
            }
        }
        let epochs = (batches.len() / shards) as u64;
        let mut crashes: Vec<(u64, TenantId, usize)> = cfg
            .crashes
            .iter()
            .filter(|&&(epoch, _)| (1..=epochs).contains(&epoch))
            .map(|&(epoch, t)| (epoch, t, shard_of(t, shards, cfg.hash_seed)))
            .collect();
        crashes.sort_unstable();
        let shard_reports = (0..).zip(&queues).map(|(shard, queue)| {
            let s = queue.stats();
            ShardReport {
                shard,
                enqueued: s.enqueued,
                shed: s.shed,
                flushed: s.flushed,
            }
        });
        Self {
            shards,
            ingest,
            epochs,
            snapshot_interval: cfg.snapshot_interval,
            depths,
            order,
            batches,
            crashes,
            shard_reports: shard_reports.collect(),
        }
    }

    /// True when snapshots are taken at the end of `epoch`; the closing
    /// pass is epoch `epochs + 1`.
    fn snapshot_due(&self, epoch: u64) -> bool {
        self.snapshot_interval > 0
            && (epoch.is_multiple_of(self.snapshot_interval) || epoch > self.epochs)
    }
}

/// A warm-start restored or a snapshot taken: (epoch, `false` for a
/// restore or `true` for a snapshot, tenant, blob bytes). Sorted, this
/// is the merge's order: by epoch, restores first, then by tenant.
type SnapshotEntry = (u64, bool, TenantId, u64);

/// A tenant's closing totals: requests, covered, issued, expired and
/// the health-ladder label.
type TenantFinal = (u64, u64, u64, u64, &'static str);

/// What one worker returns when it is joined.
#[derive(Default)]
struct WorkerLog {
    snapshots: Vec<SnapshotEntry>,
    /// Latest snapshot of each of the worker's tenants.
    archive: BTreeMap<TenantId, Vec<u8>>,
    finals: BTreeMap<TenantId, TenantFinal>,
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

/// Serves worker `w`'s part of the plan: the shards with
/// `shard % workers == w` and the tenants pinned to them. Each epoch
/// applies the worker's crashes, serves its batches and takes the due
/// snapshots. Tenant→shard→worker pinning means the worker's own
/// archive holds every blob its crashed tenants can warm-start from.
fn serve_worker(
    w: usize,
    workers: usize,
    plan: &Plan,
    requests: &[ServeRequest],
    registry: &TenantRegistry,
    factory: PrefetcherFactory,
    pred: CoverageParams,
) -> WorkerLog {
    let mut states: BTreeMap<TenantId, TenantState> = BTreeMap::new();
    let mut log = WorkerLog::default();
    let mut crashes = plan
        .crashes
        .iter()
        .filter(|c| c.2 % workers == w)
        .peekable();
    let mut served = 0usize;
    for epoch in 1..=plan.epochs + 1 {
        // Crashes land before the epoch's batches: live state
        // (hippocampus, prediction window, health) is lost; the
        // consolidated cortex warm-starts from the tenant's last blob.
        while let Some(&(_, tenant, _)) = crashes.next_if(|c| c.0 == epoch) {
            states.remove(&tenant);
            let (Some(blob), Some(spec)) = (log.archive.get(&tenant), registry.get(tenant)) else {
                continue;
            };
            let mut st = TenantState::fresh(factory.build(spec));
            let snap = decode(blob);
            if snap.is_ok_and(|s| s.tenant == tenant && st.model.import_net_state(&s.state)) {
                log.snapshots
                    .push((epoch, false, tenant, blob.len() as u64));
            }
            states.insert(tenant, st);
        }
        let start = (epoch as usize - 1) * plan.shards;
        let batches = plan.batches.get(start..start + plan.shards).unwrap_or(&[]);
        for (sh, &(n, _)) in batches.iter().enumerate() {
            let batch = &plan.order[served..served + n];
            served += n;
            if sh % workers != w {
                continue;
            }
            for &i in batch {
                let req = requests[i as usize];
                let Some(spec) = registry.get(req.tenant) else {
                    continue;
                };
                states
                    .entry(req.tenant)
                    .or_insert_with(|| TenantState::fresh(factory.build(spec)))
                    .process(req.page, &pred);
            }
        }
        if plan.snapshot_due(epoch) {
            for (&tenant, st) in states.iter_mut() {
                let (Some(net), Some(spec)) = (st.model.export_net_state(), registry.get(tenant))
                else {
                    continue;
                };
                let blob = encode(tenant, spec.model, &net);
                log.snapshots.push((epoch, true, tenant, blob.len() as u64));
                log.archive.insert(tenant, blob);
            }
        }
    }
    for (tenant, st) in states {
        let health = st.model.health().label();
        let totals = (st.requests, st.covered, st.issued, st.expired, health);
        log.finals.insert(tenant, totals);
    }
    log
}

/// Emits the run's events epoch by epoch. Within an epoch: arrivals
/// (`serve_enqueue` / `serve_shed`) in arrival order, crash `fault`s,
/// `serve_flush` per non-empty shard, restores then snapshots each by
/// tenant, and `shard_epoch` per shard. Then the closing snapshots.
fn emit_events(
    cfg: &ServeConfig,
    plan: &Plan,
    requests: &[ServeRequest],
    snapshots: &[SnapshotEntry],
) {
    let obs = &cfg.obs;
    let mut arrivals = requests.iter().zip(&plan.depths);
    let mut crashes = plan.crashes.iter().peekable();
    let mut snapshots = snapshots.iter().peekable();
    let mut emit_snapshots = |epoch: u64| {
        while let Some(&(_, snapshot, tenant, bytes)) = snapshots.next_if(|e| e.0 == epoch) {
            obs.emit(&Event::Snapshot {
                epoch,
                tenant,
                bytes,
                restored: !snapshot,
            });
        }
    };
    for (e, batches) in plan.batches.chunks(plan.shards).enumerate() {
        let epoch = e as u64 + 1;
        for (req, &depth) in arrivals.by_ref().take(plan.ingest) {
            let shard = shard_of(req.tenant, plan.shards, cfg.hash_seed) as u64;
            obs.emit(&if depth > 0 {
                Event::ServeEnqueue {
                    epoch,
                    tenant: req.tenant,
                    shard,
                    depth: depth as u64,
                }
            } else {
                Event::ServeShed {
                    epoch,
                    tenant: req.tenant,
                    shard,
                }
            });
        }
        while let Some(&(_, _, shard)) = crashes.next_if(|c| c.0 == epoch) {
            obs.emit(&Event::Fault {
                tick: epoch,
                domain: shard as u64,
                kind: FaultKind::Crash,
            });
        }
        for (shard, &(batch, _)) in batches.iter().enumerate() {
            if batch > 0 {
                obs.emit(&Event::ServeFlush {
                    epoch,
                    shard: shard as u64,
                    batch: batch as u64,
                });
            }
        }
        emit_snapshots(epoch);
        for (shard, &(processed, queued)) in batches.iter().enumerate() {
            obs.emit(&Event::ShardEpoch {
                epoch,
                shard: shard as u64,
                processed: processed as u64,
                queued: queued as u64,
            });
        }
    }
    emit_snapshots(plan.epochs + 1);
}

/// The sharded multi-tenant serving engine.
pub struct ServeEngine {
    cfg: ServeConfig,
    registry: TenantRegistry,
    factory: PrefetcherFactory,
}

impl ServeEngine {
    /// Builds an engine over `registry` with models built by
    /// `factory`.
    pub fn new(cfg: ServeConfig, registry: TenantRegistry, factory: PrefetcherFactory) -> Self {
        Self {
            cfg,
            registry,
            factory,
        }
    }

    /// Serves `requests` to completion (every admitted request is
    /// processed; the run ends when the arrival stream and all queues
    /// are drained). Byte-deterministic in the report, the archive,
    /// and the emitted event stream for any worker count.
    ///
    /// Three phases: plan admission on this thread, serve the plan on
    /// one scoped thread per worker (each joined once; a worker's
    /// panic re-raises here), then merge the workers' logs into the
    /// event stream and the report.
    pub fn run(&self, requests: &[ServeRequest]) -> ServeOutcome {
        let plan = Plan::new(&self.cfg, requests);
        let workers = self.cfg.workers.clamp(1, plan.shards);
        let pred = CoverageParams {
            window: self.cfg.pred_window.max(1),
            horizon: self.cfg.pred_horizon.max(1),
        };
        let (plan_ref, registry, factory) = (&plan, &self.registry, self.factory);
        let logs: Vec<WorkerLog> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        serve_worker(w, workers, plan_ref, requests, registry, factory, pred)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        });

        let mut snapshots: Vec<SnapshotEntry> = Vec::new();
        let mut archive: BTreeMap<TenantId, Vec<u8>> = BTreeMap::new();
        let mut finals: BTreeMap<TenantId, TenantFinal> = BTreeMap::new();
        for log in logs {
            snapshots.extend(log.snapshots);
            archive.extend(log.archive);
            finals.extend(log.finals);
        }
        snapshots.sort_unstable();
        emit_events(&self.cfg, &plan, requests, &snapshots);

        let restores = snapshots.iter().filter(|e| !e.1).count() as u64;
        let shard_total = |f: fn(&ShardReport) -> u64| plan.shard_reports.iter().map(f).sum();
        let tenants = self.registry.iter().map(|spec| {
            let (requests, covered, issued, expired, health) = finals
                .get(&spec.id)
                .copied()
                .unwrap_or((0, 0, 0, 0, "healthy"));
            TenantReport {
                tenant: spec.id,
                shard: shard_of(spec.id, plan.shards, self.cfg.hash_seed) as u64,
                model: spec.model.label().to_string(),
                requests,
                covered,
                issued,
                expired,
                health: health.to_string(),
                crashes: plan.crashes.iter().filter(|c| c.1 == spec.id).count() as u64,
            }
        });
        let report = ServeReport {
            epochs: plan.epochs,
            offered: requests.len() as u64,
            admitted: shard_total(|s| s.enqueued),
            shed: shard_total(|s| s.shed),
            processed: shard_total(|s| s.flushed),
            crashes: plan.crashes.len() as u64,
            restores,
            snapshots: snapshots.len() as u64 - restores,
            tenants: tenants.collect(),
            shards: plan.shard_reports,
        };
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
