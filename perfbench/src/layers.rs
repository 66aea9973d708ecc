//! The traced pass and the per-layer probes.
//!
//! Every probe calls the layer's public functions and times only
//! those calls; nothing inside the program is instrumented.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use hnp_baselines::{StrideConfig, StridePrefetcher};
use hnp_core::hippocampus::Episode;
use hnp_core::neocortex::{Neocortex, NeocortexConfig};
use hnp_core::replay::{ReplayConfig, ReplayScheduler};
use hnp_core::{CapacityPolicy, ClsConfig, Encoder, EncoderKind, EpisodicStore, Hippocampus};
use hnp_hebbian::{HebbianConfig, HebbianNetwork, NetStats};
use hnp_memsim::deltas::DeltaVocab;
use hnp_memsim::{MissEvent, PrefetchFeedback, Prefetcher, ResilientPrefetcher, Simulator};
use hnp_obs::{Counters, JsonlExporter, Registry};
use hnp_serve::{
    shard_of, Offer, PrefetcherFactory, ServeConfig, ServeReport, ServeRequest, ShardQueue,
};

use crate::bench::{fig5_traces, Bench, Fig5, Outcome, Serve, FIG5_ACCESSES};
use crate::span::{Fold, Tracer, ON_EVENT, ON_MISS};
use crate::stats::{median, pct, percentile};

/// Rounds of each alternating probe measurement.
const PROBE_ROUNDS: usize = 5;
/// Delta tokens replayed through the hnp-core components, per app.
const CORE_TOKENS_PER_APP: usize = 2_500;
/// Timed calls per Hebbian kernel (rollouts: an eighth of this).
const KERNEL_ITERS: usize = 2_000;

/// Alternating untraced and traced passes of one workload.
pub struct Rounds {
    /// Untraced ns per access, one per pass.
    pub untraced: Vec<f64>,
    /// Traced ns per access, one per pass.
    pub traced: Vec<f64>,
    /// Driver self ns per access, one per traced pass.
    pub self_ns: Vec<f64>,
    /// Every model span, pooled over the traced passes.
    pub fold: Fold,
    /// Traced passes folded into `fold`.
    pub traced_passes: u64,
    /// Demand accesses per pass.
    pub accesses: u64,
    /// The first untraced pass's reports.
    pub outcome: Outcome,
    /// Accesses attempted over every pass.
    pub attempted: u64,
    /// Accesses of passes whose checks failed.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
}

impl Rounds {
    /// Traced passes that ran.
    pub fn passes(&self) -> u64 {
        self.traced_passes.max(1)
    }
}

/// Runs untraced/traced pass pairs until `budget` has elapsed and at
/// least `min_rounds` pairs ran. Each untraced pass must repeat the
/// first exactly, and each traced pass must equal the untraced one
/// (the timing wrapper is inert).
pub fn rounds(bench: &Bench, budget: Duration, min_rounds: usize) -> Rounds {
    let start = Instant::now();
    let tracer = Tracer::new();
    let mut r: Option<Rounds> = None;
    let mut n = 0;
    while n < min_rounds || start.elapsed() < budget {
        n += 1;
        let bare = bench.pass(None, None);
        let traced = bench.pass(Some(&tracer), None);
        let fold = Fold::of(&tracer.take());
        let mut err = bench.check(&bare.outcome).err();
        if r.as_ref().is_some_and(|st| st.outcome != bare.outcome) {
            err = Some("an untraced pass differs from the first".into());
        }
        if traced.outcome != bare.outcome {
            err = Some("the traced pass differs from the untraced pass".into());
        }
        let (bare_ns, accesses) = (bare.ns_per_access(), bare.accesses);
        let st = r.get_or_insert_with(|| Rounds {
            untraced: Vec::new(),
            traced: Vec::new(),
            self_ns: Vec::new(),
            fold: Fold::default(),
            traced_passes: 0,
            accesses,
            outcome: bare.outcome,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        });
        st.attempted += accesses + traced.accesses;
        if let Some(e) = err {
            st.failed += accesses + traced.accesses;
            st.errors.push(e);
        }
        st.untraced.push(bare_ns);
        st.traced.push(traced.ns_per_access());
        st.self_ns
            .push(fold.self_ns() as f64 / traced.accesses.max(1) as f64);
        st.fold.root_ns += fold.root_ns;
        st.fold.child_ns += fold.child_ns;
        st.fold.on_miss_ns.extend(fold.on_miss_ns);
        st.fold.on_event_calls += fold.on_event_calls;
        st.fold.on_event_ns += fold.on_event_ns;
        st.traced_passes += 1;
    }
    r.expect("at least one round ran")
}

/// Runs one pass with `Counters` attached, checks the counters against
/// its report and the report against `reference` (attaching an
/// observer must not change the run).
pub fn observed(bench: &Bench, reference: &Outcome) -> (u64, Result<(), String>) {
    let counters = Counters::new();
    let obs = Registry::new();
    obs.attach(counters.clone());
    let p = bench.pass(None, Some(&obs));
    let res = bench.check_counters(&p.outcome, &counters).and_then(|()| {
        if &p.outcome == reference {
            Ok(())
        } else {
            Err("attaching Counters changed the report".into())
        }
    });
    (p.accesses, res)
}

/// Model-layer numbers of one workload.
pub struct ModelLayer {
    /// `on_miss` calls per pass.
    pub on_miss_calls: u64,
    /// Median `on_miss` ns.
    pub on_miss_p50: u64,
    /// 99th-percentile `on_miss` ns.
    pub on_miss_p99: u64,
    /// `on_miss` samples behind the percentiles.
    pub on_miss_samples: u64,
    /// Model spans ÷ driver spans, %.
    pub share_pct: f64,
    /// `on_event` calls per pass.
    pub on_event_calls: u64,
    /// Mean ns per `on_event` call.
    pub on_event_ns_per_call: f64,
}

impl ModelLayer {
    /// Folds pooled model spans; `driver_ns` is the driver time the
    /// model share is taken of, over the same `passes`.
    pub fn of(fold: &Fold, driver_ns: u64, passes: u64) -> Self {
        let mut on_miss = fold.on_miss_ns.clone();
        let samples = on_miss.len() as u64;
        Self {
            on_miss_calls: samples / passes,
            on_miss_p50: percentile(&mut on_miss, 50.0),
            on_miss_p99: percentile(&mut on_miss, 99.0),
            on_miss_samples: samples,
            share_pct: pct(fold.child_ns as f64, driver_ns as f64),
            on_event_calls: fold.on_event_calls / passes,
            on_event_ns_per_call: fold.on_event_ns as f64 / fold.on_event_calls.max(1) as f64,
        }
    }
}

/// Drives every serve tenant's factory-built model off-engine, over its
/// share of the request stream in arrival order, with the engine's
/// prediction-window rule, and spans around each model call. The
/// engine's workers own their models, so this is how the model layer
/// behind serve is seen from outside.
pub fn tenant_replay(s: &Serve) -> Fold {
    let tracer = Tracer::new();
    let factory = PrefetcherFactory::new();
    let window = s.cfg.pred_window.max(1);
    let horizon = s.cfg.pred_horizon.max(1);
    let mut tenants: BTreeMap<u64, (hnp_serve::TenantModel, BTreeMap<u64, u64>, u64)> = s
        .registry
        .iter()
        .map(|spec| (spec.id, (factory.build(spec), BTreeMap::new(), 0)))
        .collect();
    tracer.root("serve.tenant_replay", || {
        for req in &s.requests {
            let Some((model, preds, seq)) = tenants.get_mut(&req.tenant) else {
                continue;
            };
            *seq += 1;
            let now = *seq;
            let expired: Vec<u64> = preds
                .iter()
                .filter(|&(_, &at)| now.saturating_sub(at) > horizon)
                .map(|(&p, _)| p)
                .collect();
            for p in expired {
                preds.remove(&p);
                tracer.child(ON_EVENT, || {
                    model.on_feedback(&PrefetchFeedback::Unused { page: p })
                });
            }
            if preds.remove(&req.page).is_some() {
                tracer.child(ON_EVENT, || {
                    model.on_feedback(&PrefetchFeedback::Useful { page: req.page })
                });
            }
            let miss = MissEvent {
                page: req.page,
                tick: now,
                stream: 0,
            };
            for cand in tracer.child(ON_MISS, || model.on_miss(&miss)) {
                if preds.len() >= window {
                    break;
                }
                if cand != req.page {
                    preds.entry(cand).or_insert(now);
                }
            }
        }
    });
    Fold::of(&tracer.take())
}

/// Price of observing: fig5-stride with `Counters` or a
/// `JsonlExporter` attached, against the bare pass.
pub struct ObsLayer {
    /// Counters-attached over bare ns per access, % extra.
    pub counters_overhead_pct: f64,
    /// JSONL-attached over bare ns per access, % extra.
    pub jsonl_overhead_pct: f64,
    /// Events emitted per access.
    pub events_per_access: f64,
}

/// Measures [`ObsLayer`] on `bench` (fig5-stride inputs); checks the
/// counters against each report and every report against the bare one.
pub fn obs_layer(bench: &Bench) -> (ObsLayer, Result<(), String>) {
    let (mut bare, mut counted, mut jsonl) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0;
    let mut accesses = 1;
    let mut res = Ok(());
    for _ in 0..PROBE_ROUNDS {
        let b = bench.pass(None, None);
        let counters = Counters::new();
        let obs = Registry::new();
        obs.attach(counters.clone());
        let c = bench.pass(None, Some(&obs));
        let exporter = JsonlExporter::new();
        let obs = Registry::new();
        obs.attach(exporter.clone());
        let j = bench.pass(None, Some(&obs));
        events = exporter.len() as u64;
        accesses = b.accesses.max(1);
        if res.is_ok() {
            res = bench.check_counters(&c.outcome, &counters);
        }
        if c.outcome != b.outcome || j.outcome != b.outcome {
            res = Err("an attached observer changed the report".into());
        }
        bare.push(b.scaled_ns_per_access());
        counted.push(c.scaled_ns_per_access());
        jsonl.push(j.scaled_ns_per_access());
    }
    let base = median(&bare);
    let layer = ObsLayer {
        counters_overhead_pct: pct(median(&counted) - base, base),
        jsonl_overhead_pct: pct(median(&jsonl) - base, base),
        events_per_access: events as f64 / accesses as f64,
    };
    (layer, res)
}

/// hnp-core component costs and counts.
pub struct CoreLayer {
    /// Median ns of `Encoder::encode`.
    pub encode_ns: u64,
    /// Median ns of `Neocortex::train`.
    pub train_ns: u64,
    /// Median ns of `predict_with_confidence` (lookahead 2, width 2).
    pub predict_ns: u64,
    /// Median ns of `ReplayScheduler::after_train`.
    pub replay_ns: u64,
    /// Median ns of `EpisodicStore::store_episode`.
    pub store_episode_ns: u64,
    /// Calls behind each median.
    pub samples: u64,
    /// Episodes replayed.
    pub replayed: u64,
    /// Training steps taken.
    pub trained: u64,
    /// Examples the sampler skipped (every miss trains, as in
    /// `ClsConfig::default`).
    pub skipped: u64,
    /// Episodes in the stores at the end.
    pub episodes_stored: u64,
    /// Summed cortex counters.
    pub net: NetStats,
}

/// Records the miss stream a run produced, prefetching nothing.
#[derive(Default)]
struct MissRecorder(Vec<u64>);

impl Prefetcher for MissRecorder {
    fn name(&self) -> &str {
        "none"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        self.0.push(miss.page);
        Vec::new()
    }
}

fn time_ns<R>(samples: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_nanos() as u64);
    out
}

/// Replays each app's delta-token stream (from its no-prefetch miss
/// stream) through the components `ClsPrefetcher` assembles, in the
/// order its `on_miss` calls them, timing each call. The phase
/// detector is left out (phase 0).
pub fn core_layer(f: &Fig5) -> CoreLayer {
    let cls = ClsConfig::default();
    let (mut enc, mut train, mut pred, mut rep, mut store) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut out = CoreLayer {
        encode_ns: 0,
        train_ns: 0,
        predict_ns: 0,
        replay_ns: 0,
        store_episode_ns: 0,
        samples: 0,
        replayed: 0,
        trained: 0,
        skipped: 0,
        episodes_stored: 0,
        net: NetStats::default(),
    };
    for (trace, cfg) in &f.apps {
        let mut misses = MissRecorder::default();
        Simulator::new(cfg.clone()).run(trace, &mut misses);
        let vocab = DeltaVocab::new(cls.delta_range);
        let encoder = Encoder::new(EncoderKind::OneHot, vocab.len());
        let mut cortex = Neocortex::new(&encoder, vocab.len(), &NeocortexConfig::default());
        let mut hippo = Hippocampus::new(CapacityPolicy::Ring { capacity: 4096 });
        let mut replay = ReplayScheduler::new(ReplayConfig::default());
        let window = encoder.window();
        let mut history: VecDeque<usize> = VecDeque::new();
        let last_n = |h: &VecDeque<usize>| -> Vec<usize> {
            h.iter()
                .skip(h.len().saturating_sub(window))
                .copied()
                .collect()
        };
        for (step, pair) in misses.0.windows(2).take(CORE_TOKENS_PER_APP).enumerate() {
            let token = vocab.token_of(pair[1] as i64 - pair[0] as i64);
            let ctx = last_n(&history);
            history.push_back(token);
            while history.len() > window + 1 {
                history.pop_front();
            }
            if !ctx.is_empty() {
                let pattern = time_ns(&mut enc, || encoder.encode(&ctx));
                let recurrent = cortex.recurrent_state();
                let outcome = time_ns(&mut train, || cortex.train(&pattern, token));
                out.trained += 1;
                let episode = Episode {
                    history: ctx,
                    pattern,
                    recurrent,
                    target: token,
                    confidence: outcome.confidence,
                    stored_at: step as u64,
                    phase: 0,
                    replays: 0,
                    weight: 1,
                };
                time_ns(&mut store, || hippo.store_episode(episode));
                time_ns(&mut rep, || {
                    replay.after_train(&mut cortex, &mut hippo, &encoder, 0)
                });
            }
            let hist = last_n(&history);
            black_box(time_ns(&mut pred, || {
                cortex.predict_with_confidence(&hist, &encoder, cls.lookahead, cls.width)
            }));
        }
        out.replayed += replay.replayed;
        out.episodes_stored += hippo.stored() as u64;
        let s = cortex.stats();
        out.net.steps += s.steps;
        out.net.overlap_sum += s.overlap_sum;
        out.net.winner_slots += s.winner_slots;
        out.net.weight_updates += s.weight_updates;
        out.net.update_ops += s.update_ops;
    }
    out.samples = enc.len() as u64;
    out.encode_ns = percentile(&mut enc, 50.0);
    out.train_ns = percentile(&mut train, 50.0);
    out.predict_ns = percentile(&mut pred, 50.0);
    out.replay_ns = percentile(&mut rep, 50.0);
    out.store_episode_ns = percentile(&mut store, 50.0);
    out
}

/// Hebbian kernel medians at `paper_table2` scale.
pub struct HebbianLayer {
    /// Median ns of `infer_advance`.
    pub forward_ns: u64,
    /// Median ns of `train_step`.
    pub train_ns: u64,
    /// Median ns of an 8-step `rollout`.
    pub rollout8_ns: u64,
    /// Timed calls behind the forward and train medians.
    pub samples: u64,
}

/// The same calls as `hnp_bench::kernels`, timed one by one.
pub fn hebbian_layer() -> HebbianLayer {
    let cfg = HebbianConfig::paper_table2();
    let pattern_bits = cfg.pattern_bits as u32;
    let outputs = cfg.outputs;
    let mut net = HebbianNetwork::new(cfg);
    for i in 0..256u32 {
        let cur = i % 64;
        net.train_step(&[cur], ((cur + 1) % 64) as usize);
    }
    let (mut train, mut fwd, mut roll) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..KERNEL_ITERS as u32 {
        let k = i % 64;
        black_box(time_ns(&mut train, || {
            net.train_step(&[k], ((k + 1) % 64) as usize)
        }));
    }
    for i in 0..KERNEL_ITERS as u32 {
        let j = i % 64;
        black_box(time_ns(&mut fwd, || {
            net.infer_advance(&[j], ((j + 1) % 64) as usize % outputs)
        }));
    }
    for _ in 0..KERNEL_ITERS / 8 {
        black_box(time_ns(&mut roll, || {
            net.rollout(&[1], 8, |t| vec![t as u32 % pattern_bits])
        }));
    }
    HebbianLayer {
        forward_ns: percentile(&mut fwd, 50.0),
        train_ns: percentile(&mut train, 50.0),
        rollout8_ns: percentile(&mut roll, 50.0),
        samples: KERNEL_ITERS as u64,
    }
}

/// `ResilientPrefetcher<stride>::on_miss` minus bare stride `on_miss`,
/// ns per miss, one model per tenant over the serve request stream.
pub fn resilient_ns_per_miss(requests: &[ServeRequest]) -> f64 {
    let tenants = requests.iter().map(|r| r.tenant).max().map_or(0, |t| t + 1) as usize;
    let stride = || StridePrefetcher::with_config(StrideConfig::default());
    fn drive<P: Prefetcher>(models: &mut [P], requests: &[ServeRequest]) -> f64 {
        let start = Instant::now();
        for (i, r) in requests.iter().enumerate() {
            let miss = MissEvent {
                page: r.page,
                tick: i as u64,
                stream: 0,
            };
            black_box(models[r.tenant as usize].on_miss(&miss));
        }
        start.elapsed().as_nanos() as f64 / requests.len().max(1) as f64
    }
    let (mut bare, mut wrapped) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_ROUNDS {
        let mut b: Vec<_> = (0..tenants).map(|_| stride()).collect();
        bare.push(drive(&mut b, requests));
        let mut w: Vec<_> = (0..tenants)
            .map(|_| ResilientPrefetcher::new(stride()))
            .collect();
        wrapped.push(drive(&mut w, requests));
    }
    median(&wrapped) - median(&bare)
}

/// hnp-serve layer costs.
pub struct ServeLayer {
    /// Engine ns per processed request with every tenant `none`.
    pub engine_ns_per_req: f64,
    /// `shard_of` + `ShardQueue::offer`/`flush` ns per offered request.
    pub admission_ns_per_req: f64,
    /// Engine ns per request at 1 worker.
    pub workers1_ns_per_req: f64,
    /// 1-worker ÷ 2-worker ns per request.
    pub speedup_2v1: f64,
    /// The 2-worker report.
    pub report: ServeReport,
}

/// Replays the engine's admission path alone: per epoch, offer the
/// epoch's arrivals to their shard queues, then flush one batch per
/// shard. Returns the requests shed.
fn admission(requests: &[ServeRequest], cfg: &ServeConfig) -> u64 {
    let shards = cfg.shards.max(1);
    let flush = cfg.flush_per_shard.max(1);
    let mut queues: Vec<ShardQueue> = (0..shards)
        .map(|_| ShardQueue::new(cfg.queue_depth))
        .collect();
    let (mut next, mut shed) = (0, 0);
    while next < requests.len() || queues.iter().any(|q| !q.is_empty()) {
        let end = (next + shards * flush).min(requests.len());
        for req in &requests[next..end] {
            let sh = shard_of(req.tenant, shards, cfg.hash_seed);
            if let Offer::Shed = queues[sh].offer(*req) {
                shed += 1;
            }
        }
        next = end;
        for q in &mut queues {
            black_box(q.flush(flush));
        }
    }
    shed
}

/// Measures [`ServeLayer`]; checks that 1 and 2 workers give identical
/// reports and archives and that the admission replay sheds what the
/// engine shed.
pub fn serve_layer(s: &Serve, seed: u64) -> (ServeLayer, u64, Result<(), String>) {
    let none = Serve::engine_only(seed);
    let one = s.with_workers(1);
    let per_req = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let (mut e, mut a, mut w1, mut w2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut res = Ok(());
    let mut attempted = 0;
    let mut report = None;
    for _ in 0..PROBE_ROUNDS {
        let t = Instant::now();
        let base = none.run(&s.requests);
        e.push(per_req(
            t.elapsed().as_nanos() as u64,
            base.report.processed,
        ));
        let t = Instant::now();
        let shed = admission(&s.requests, &s.cfg);
        a.push(per_req(
            t.elapsed().as_nanos() as u64,
            s.requests.len() as u64,
        ));
        let t = Instant::now();
        let single = one.run(&s.requests);
        w1.push(per_req(
            t.elapsed().as_nanos() as u64,
            single.report.processed,
        ));
        let t = Instant::now();
        let double = s.engine.run(&s.requests);
        w2.push(per_req(
            t.elapsed().as_nanos() as u64,
            double.report.processed,
        ));
        attempted += single.report.processed + double.report.processed;
        if single.report != double.report || single.archive != double.archive {
            res = Err("serve outcome differs between 1 and 2 workers".into());
        }
        if shed != double.report.shed {
            res = Err("admission replay disagrees with the engine's shed count".into());
        }
        report = Some(double.report);
    }
    let layer = ServeLayer {
        engine_ns_per_req: median(&e),
        admission_ns_per_req: median(&a),
        workers1_ns_per_req: median(&w1),
        speedup_2v1: median(&w1) / median(&w2).max(f64::MIN_POSITIVE),
        report: report.expect("at least one round ran"),
    };
    (layer, attempted, res)
}

/// Median ns per generated access of the Fig.-5 trace generators.
pub fn trace_gen_ns_per_access(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            black_box(fig5_traces(seed));
            t.elapsed().as_nanos() as f64 / (4 * FIG5_ACCESSES) as f64
        })
        .collect();
    median(&samples)
}
