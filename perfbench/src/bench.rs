//! The four workloads: inputs made from the seed, one measured pass
//! through the public driver, the pass's correctness checks, and the
//! end-to-end quality numbers of its report.

use std::collections::BTreeMap;

use hnp_baselines::{StrideConfig, StridePrefetcher};
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{DemuxPrefetcher, NoPrefetcher, Prefetcher, SimConfig, SimReport, Simulator};
use hnp_obs::{Counters, Registry};
use hnp_serve::{
    synthesize, ModelKind, PrefetcherFactory, ServeConfig, ServeEngine, ServeReport, ServeRequest,
    TenantId, TenantRegistry, TenantSpec,
};
use hnp_systems::{UvmConfig, UvmReport, UvmSim};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

use crate::calib::Calibrated;
use crate::span::{Timed, Tracer};
use crate::stats::{mix, pct};

/// Accesses per Fig.-5 application trace (four apps per pass).
pub const FIG5_ACCESSES: usize = 25_000;
/// Lockstep warps of the UVM workload.
pub const UVM_WARPS: u64 = 8;
/// Accesses per UVM warp.
pub const UVM_ACCESSES: usize = 20_000;
/// Tenants of the serve workload.
pub const SERVE_TENANTS: u64 = 64;
/// Requests synthesized per serve tenant.
pub const SERVE_PER_TENANT: usize = 2_000;
/// The one scheduled serve crash: (1-based epoch, tenant).
const SERVE_CRASH: (u64, TenantId) = (50, 1);
/// Serve tenant model mix, cycled by tenant id.
const SERVE_MODELS: [ModelKind; 4] = [
    ModelKind::Stride,
    ModelKind::Markov,
    ModelKind::NextN,
    ModelKind::None,
];
/// Serve tenant apps, cycled by tenant id.
const SERVE_APPS: [AppWorkload; 5] = [
    AppWorkload::McfLike,
    AppWorkload::TensorFlowLike,
    AppWorkload::PageRankLike,
    AppWorkload::Graph500Like,
    AppWorkload::KvStoreLike,
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Simulator::run` with the CLS prefetcher on the Fig.-5 apps.
    Fig5Cls,
    /// The same traces with the stride baseline.
    Fig5Stride,
    /// `ServeEngine::run` over a 64-tenant baseline mix.
    Serve,
    /// `UvmSim::run` with one stride model per warp.
    Uvm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Cls,
        Workload::Fig5Stride,
        Workload::Serve,
        Workload::Uvm,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Cls => "fig5-cls",
            Workload::Fig5Stride => "fig5-stride",
            Workload::Serve => "serve-baselines",
            Workload::Uvm => "uvm-demux-stride",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The model behind `Prefetcher` in a Fig.-5 workload.
#[derive(Debug, Clone, Copy)]
pub enum Model {
    /// `ClsConfig::default()`: 1000-hidden cortex, replay, ring
    /// hippocampus, phase detector.
    Cls,
    /// `StrideConfig::default()`.
    Stride,
}

impl Model {
    /// A fresh, untrained instance.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            Model::Cls => Box::new(ClsPrefetcher::new(ClsConfig::default())),
            Model::Stride => stride(),
        }
    }
}

fn stride() -> Box<dyn Prefetcher> {
    Box::new(StridePrefetcher::with_config(StrideConfig::default()))
}

/// The four Fig.-5 application traces for `seed`.
pub fn fig5_traces(seed: u64) -> Vec<Trace> {
    AppWorkload::FIG5
        .iter()
        .zip(0u64..)
        .map(|(app, i)| app.generate(FIG5_ACCESSES, mix(seed, i)))
        .collect()
}

/// Fig.-5 inputs: per-app trace and simulator config, plus the
/// no-prefetch reference reports.
pub struct Fig5 {
    /// (trace, config) per app.
    pub apps: Vec<(Trace, SimConfig)>,
    /// No-prefetch reports, per app.
    pub base: Vec<SimReport>,
    /// The model each pass builds per app.
    pub model: Model,
}

impl Fig5 {
    /// Generates the traces and runs the reference pass.
    pub fn new(seed: u64, model: Model) -> Self {
        let apps: Vec<(Trace, SimConfig)> = fig5_traces(seed)
            .into_iter()
            .map(|t| {
                let cfg = SimConfig {
                    miss_latency: 100,
                    prefetch_latency: 100,
                    max_issue_per_miss: 4,
                    max_inflight: 32,
                    ..SimConfig::default()
                }
                .sized_to(&t, 0.5);
                (t, cfg)
            })
            .collect();
        let base = apps
            .iter()
            .map(|(t, cfg)| Simulator::new(cfg.clone()).run(t, &mut NoPrefetcher))
            .collect();
        Self { apps, base, model }
    }
}

/// UVM inputs: stream-tagged warp traces and the reference report.
pub struct Uvm {
    /// One trace per warp.
    pub warps: Vec<Trace>,
    /// Default `UvmConfig`.
    pub cfg: UvmConfig,
    /// No-prefetch report.
    pub base: UvmReport,
}

impl Uvm {
    /// Generates the warps and runs the reference pass.
    pub fn new(seed: u64) -> Self {
        let warps: Vec<Trace> = (0..UVM_WARPS)
            .map(|i| {
                let app = AppWorkload::FIG5[(i % 4) as usize];
                app.generate(UVM_ACCESSES, mix(seed, 100 + i))
                    .with_stream(i as u16)
            })
            .collect();
        let cfg = UvmConfig::default();
        let base = UvmSim::new(cfg.clone()).run(&warps, &mut NoPrefetcher);
        Self { warps, cfg, base }
    }

    /// The driver-side model: one stride model per warp.
    pub fn model() -> Box<dyn Prefetcher> {
        Box::new(DemuxPrefetcher::new("stride", |_| stride()))
    }
}

/// Serve inputs: the tenant registry, the synthesized request stream,
/// the engine, and the all-`none` reference report.
pub struct Serve {
    /// Tenants, models cycling over [`SERVE_MODELS`].
    pub registry: TenantRegistry,
    /// Interleaved request stream.
    pub requests: Vec<ServeRequest>,
    /// Engine config (2 workers, 16 shards, depth 128, flush 32, one
    /// crash).
    pub cfg: ServeConfig,
    /// The engine built from `cfg`.
    pub engine: ServeEngine,
    /// Report of the same stream with every tenant `ModelKind::None`.
    pub base: ServeReport,
}

impl Serve {
    /// The tenant registry for `seed`; `all_none` swaps every model for
    /// `ModelKind::None` (the engine-only reference).
    pub fn registry(seed: u64, all_none: bool) -> TenantRegistry {
        let mut reg = TenantRegistry::new();
        for id in 0..SERVE_TENANTS {
            reg.register(TenantSpec {
                id,
                model: if all_none {
                    ModelKind::None
                } else {
                    SERVE_MODELS[(id % SERVE_MODELS.len() as u64) as usize]
                },
                workload: SERVE_APPS[(id % SERVE_APPS.len() as u64) as usize],
                seed: mix(seed, 1000 + id),
            });
        }
        reg
    }

    /// The engine config with `workers` worker threads.
    pub fn config(workers: usize) -> ServeConfig {
        ServeConfig {
            shards: 16,
            workers,
            queue_depth: 128,
            flush_per_shard: 32,
            ..ServeConfig::default()
        }
        .with_crash(SERVE_CRASH.0, SERVE_CRASH.1)
    }

    /// Synthesizes the stream, builds the engine and runs the
    /// reference pass.
    pub fn new(seed: u64) -> Self {
        let registry = Self::registry(seed, false);
        let requests = synthesize(&registry, SERVE_PER_TENANT, seed);
        let cfg = Self::config(2);
        let engine = ServeEngine::new(cfg.clone(), registry.clone(), PrefetcherFactory::new());
        let base = Self::engine_only(seed).run(&requests).report;
        Self {
            registry,
            requests,
            cfg,
            engine,
            base,
        }
    }

    /// The same engine over the all-`none` registry.
    pub fn engine_only(seed: u64) -> ServeEngine {
        ServeEngine::new(
            Self::config(2),
            Self::registry(seed, true),
            PrefetcherFactory::new(),
        )
    }

    /// This engine's registry at a different worker count.
    pub fn with_workers(&self, workers: usize) -> ServeEngine {
        ServeEngine::new(
            self.cfg.clone().with_workers(workers),
            self.registry.clone(),
            PrefetcherFactory::new(),
        )
    }
}

/// A workload's inputs, ready to run.
pub enum Bench {
    /// `fig5-cls` / `fig5-stride`.
    Fig5(Fig5),
    /// `uvm-demux-stride`.
    Uvm(Uvm),
    /// `serve-baselines`.
    Serve(Serve),
}

/// What a pass produced: everything that must repeat exactly.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// One report per Fig.-5 app.
    Sim(Vec<SimReport>),
    /// The UVM report.
    Uvm(UvmReport),
    /// The serve report and snapshot archive.
    Serve(ServeReport, BTreeMap<TenantId, Vec<u8>>),
}

/// One measured pass.
pub struct Pass {
    /// Wall time inside the driver calls, ns.
    pub ns: u64,
    /// The same time scaled to the reference host speed (equal to `ns`
    /// for a traced pass).
    pub scaled_ns: f64,
    /// Demand accesses processed (trace accesses, or processed serve
    /// requests).
    pub accesses: u64,
    /// The pass's reports.
    pub outcome: Outcome,
}

impl Pass {
    /// Driver-call wall ns per demand access.
    pub fn ns_per_access(&self) -> f64 {
        self.ns as f64 / self.accesses.max(1) as f64
    }

    /// Driver-call ns per demand access at the reference host speed.
    pub fn scaled_ns_per_access(&self) -> f64 {
        self.scaled_ns / self.accesses.max(1) as f64
    }
}

/// The simulated end-to-end numbers of one outcome.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Share of the reference's misses (faults) removed, %.
    pub misses_removed_pct: f64,
    /// Useful (covered) ÷ issued prefetches, %.
    pub prefetch_accuracy_pct: f64,
    /// Demand accesses a prefetch covered ÷ accesses processed, %.
    pub coverage_pct: f64,
    /// Simulated time ÷ accesses processed.
    pub sim_ticks_per_access: f64,
}

/// How a pass times its driver calls: scaled to the reference host
/// speed when untraced, as root spans when traced.
enum Clock<'a> {
    Calibrated(Calibrated),
    Traced(&'a Tracer),
}

impl<'a> Clock<'a> {
    fn new(tracer: Option<&'a Tracer>) -> Self {
        match tracer {
            Some(t) => Clock::Traced(t),
            None => Clock::Calibrated(Calibrated::new()),
        }
    }

    /// Runs one driver call; returns its result, wall ns and scaled ns
    /// (wall ns when traced).
    fn time<R>(&mut self, root: &'static str, f: impl FnOnce() -> R) -> (R, u64, f64) {
        match self {
            Clock::Traced(t) => {
                let (out, ns) = t.root(root, f);
                (out, ns, ns as f64)
            }
            Clock::Calibrated(c) => c.time(f),
        }
    }
}

/// Wraps `model` in the timing wrapper when tracing.
fn traced_model(model: Box<dyn Prefetcher>, tracer: Option<&Tracer>) -> Box<dyn Prefetcher> {
    match tracer {
        Some(t) => Box::new(Timed::new(model, t.clone())),
        None => model,
    }
}

impl Bench {
    /// Builds `w`'s inputs from `seed`, including model and engine
    /// construction and the no-prefetch reference pass.
    pub fn setup(w: Workload, seed: u64) -> Self {
        match w {
            Workload::Fig5Cls | Workload::Fig5Stride => {
                let model = if w == Workload::Fig5Cls {
                    Model::Cls
                } else {
                    Model::Stride
                };
                let f = Fig5::new(seed, model);
                for _ in &f.apps {
                    std::hint::black_box(model.build());
                }
                Bench::Fig5(f)
            }
            Workload::Uvm => {
                let u = Uvm::new(seed);
                std::hint::black_box(Uvm::model());
                Bench::Uvm(u)
            }
            Workload::Serve => Bench::Serve(Serve::new(seed)),
        }
    }

    /// Runs one pass. With `tracer`, each driver call is a root span
    /// and each model call a child span; with `obs`, the registry is
    /// attached to the driver.
    pub fn pass(&self, tracer: Option<&Tracer>, obs: Option<&Registry>) -> Pass {
        match self {
            Bench::Fig5(f) => {
                let mut clock = Clock::new(tracer);
                let (mut ns, mut scaled_ns) = (0, 0.0);
                let mut accesses = 0;
                let mut reports = Vec::with_capacity(f.apps.len());
                for (trace, cfg) in &f.apps {
                    let mut cfg = cfg.clone();
                    if let Some(r) = obs {
                        cfg = cfg.with_observer(r.clone());
                    }
                    let sim = Simulator::new(cfg);
                    let mut model = traced_model(f.model.build(), tracer);
                    let (rep, dt, scaled) =
                        clock.time("memsim.run", || sim.run(trace, model.as_mut()));
                    ns += dt;
                    scaled_ns += scaled;
                    accesses += trace.len() as u64;
                    reports.push(rep);
                }
                Pass {
                    ns,
                    scaled_ns,
                    accesses,
                    outcome: Outcome::Sim(reports),
                }
            }
            Bench::Uvm(u) => {
                let mut cfg = u.cfg.clone();
                if let Some(r) = obs {
                    cfg = cfg.with_observer(r.clone());
                }
                let sim = UvmSim::new(cfg);
                let mut model = traced_model(Uvm::model(), tracer);
                let (rep, ns, scaled_ns) =
                    Clock::new(tracer).time("systems.run", || sim.run(&u.warps, model.as_mut()));
                Pass {
                    ns,
                    scaled_ns,
                    accesses: u.warps.iter().map(|w| w.len() as u64).sum(),
                    outcome: Outcome::Uvm(rep),
                }
            }
            Bench::Serve(s) => {
                let observed;
                let engine = match obs {
                    Some(r) => {
                        observed = ServeEngine::new(
                            s.cfg.clone().with_observer(r.clone()),
                            s.registry.clone(),
                            PrefetcherFactory::new(),
                        );
                        &observed
                    }
                    None => &s.engine,
                };
                let (out, ns, scaled_ns) =
                    Clock::new(tracer).time("serve.run", || engine.run(&s.requests));
                Pass {
                    ns,
                    scaled_ns,
                    accesses: out.report.processed,
                    outcome: Outcome::Serve(out.report, out.archive),
                }
            }
        }
    }

    /// Checks one outcome's internal accounting.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        match (self, outcome) {
            (Bench::Fig5(f), Outcome::Sim(reps)) => {
                for ((trace, _), r) in f.apps.iter().zip(reps) {
                    if r.accesses != trace.len()
                        || r.hits + r.full_misses + r.late_prefetch_hits != r.accesses
                        || r.prefetches_useful + r.prefetches_unused > r.prefetches_issued
                    {
                        return Err(format!("inconsistent SimReport {r:?}"));
                    }
                }
                Ok(())
            }
            (Bench::Uvm(u), Outcome::Uvm(r)) => {
                let accesses: usize = u.warps.iter().map(Trace::len).sum();
                if r.accesses < accesses || r.prefetches_useful > r.prefetches_issued {
                    return Err(format!("inconsistent UvmReport {r:?}"));
                }
                Ok(())
            }
            (Bench::Serve(s), Outcome::Serve(r, _)) => {
                // A crashed tenant's earlier requests leave its report
                // with its live state, so tenants may sum to less.
                let tenant_sum: u64 = r.tenants.iter().map(|t| t.requests).sum();
                if r.offered != s.requests.len() as u64
                    || r.admitted + r.shed != r.offered
                    || r.processed != r.admitted
                    || tenant_sum > r.processed
                {
                    return Err(format!(
                        "inconsistent ServeReport: offered {} admitted {} shed {} processed {}",
                        r.offered, r.admitted, r.shed, r.processed
                    ));
                }
                Ok(())
            }
            _ => Err("outcome of another workload".into()),
        }
    }

    /// Checks an observed pass's `Counters` against its report: the
    /// two are independent folds of the same event stream.
    pub fn check_counters(&self, outcome: &Outcome, c: &Counters) -> Result<(), String> {
        let ok = match outcome {
            Outcome::Sim(reps) => {
                let issued: usize = reps.iter().map(|r| r.prefetches_issued).sum();
                let accesses: usize = reps.iter().map(|r| r.accesses).sum();
                c.get("prefetch_issued") == issued as u64
                    && c.get("hit") + c.get("miss") == accesses as u64
            }
            Outcome::Uvm(r) => {
                c.get("prefetch_issued") == r.prefetches_issued as u64
                    && c.get("hit") + c.get("miss") == r.accesses as u64
            }
            Outcome::Serve(r, _) => {
                c.get("serve_shed") == r.shed && c.get("serve_enqueue") == r.admitted
            }
        };
        if ok {
            Ok(())
        } else {
            Err("event-stream counters disagree with the report".into())
        }
    }

    /// The end-to-end quality numbers of `outcome`.
    pub fn quality(&self, outcome: &Outcome) -> Quality {
        match (self, outcome) {
            (Bench::Fig5(f), Outcome::Sim(reps)) => {
                let sum = |g: fn(&SimReport) -> usize| reps.iter().map(g).sum::<usize>() as f64;
                let base: usize = f.base.iter().map(SimReport::misses).sum();
                let accesses = sum(|r| r.accesses);
                Quality {
                    misses_removed_pct: pct(base as f64 - sum(SimReport::misses), base as f64),
                    prefetch_accuracy_pct: pct(
                        sum(|r| r.prefetches_useful),
                        sum(|r| r.prefetches_issued),
                    ),
                    coverage_pct: pct(
                        sum(|r| r.prefetches_useful + r.late_prefetch_hits),
                        accesses,
                    ),
                    sim_ticks_per_access: reps.iter().map(|r| r.total_ticks).sum::<u64>() as f64
                        / accesses.max(1.0),
                }
            }
            (Bench::Uvm(u), Outcome::Uvm(r)) => {
                let accesses = u.warps.iter().map(Trace::len).sum::<usize>() as f64;
                Quality {
                    misses_removed_pct: r.pct_faults_removed(&u.base),
                    prefetch_accuracy_pct: pct(
                        r.prefetches_useful as f64,
                        r.prefetches_issued as f64,
                    ),
                    coverage_pct: pct(r.prefetches_useful as f64, accesses),
                    sim_ticks_per_access: r.total_ticks as f64 / accesses.max(1.0),
                }
            }
            (Bench::Serve(s), Outcome::Serve(r, _)) => {
                let covered =
                    |rep: &ServeReport| rep.tenants.iter().map(|t| t.covered).sum::<u64>();
                let issued: u64 = r.tenants.iter().map(|t| t.issued).sum();
                let processed = r.processed as f64;
                Quality {
                    misses_removed_pct: pct(covered(r) as f64 - covered(&s.base) as f64, processed),
                    prefetch_accuracy_pct: pct(covered(r) as f64, issued as f64),
                    coverage_pct: pct(covered(r) as f64, processed),
                    sim_ticks_per_access: r.epochs as f64 / processed.max(1.0),
                }
            }
            _ => unreachable!("a workload's passes produce its own outcome kind"),
        }
    }
}
