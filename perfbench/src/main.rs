//! The repository benchmark: per-access cost and prefetch quality of
//! the hnp stack on four workloads, plus a traced pass that splits the
//! cost by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets the workload up several times, then
//! repeats untraced passes through the workload's public driver
//! (`Simulator::run`, `UvmSim::run` or `ServeEngine::run`) for
//! `--seconds` and reports the end-to-end metrics as medians over the
//! passes. With `--trace 1` it alternates untraced and traced passes
//! for `--seconds`, then runs the per-layer probes, and reports the
//! per-layer metrics. Every pass is checked; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A human-readable table goes to standard error.

mod bench;
mod calib;
mod layers;
mod span;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{Bench, Outcome, Serve, Workload};
use layers::ModelLayer;
use stats::{median, pct, quartiles};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest untraced passes an end-to-end run makes.
const MIN_PASSES: usize = 3;
/// Fewest untraced/traced pairs a traced run makes.
const MIN_ROUNDS: usize = 2;
/// Pairs the traced run makes of a layer's canonical workload when the
/// run's own workload does not go through that layer.
const LAYER_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line, accumulated over a run.
struct Out {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Out {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Counts `accesses` as attempted, and as failed if `res` is an
    /// error.
    fn checked(&mut self, accesses: u64, res: Result<(), String>) {
        self.attempted += accesses;
        if let Err(e) = res {
            self.failed += accesses;
            self.errors.push(e);
        }
    }

    /// Takes over the counts and errors of a run of pass pairs.
    fn absorb(&mut self, r: &layers::Rounds) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.errors.extend(r.errors.iter().cloned());
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let correct = self.failed == 0 && self.errors.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets the workload up [`SETUPS`] times; returns the last set-up and
/// the median set-up time in seconds at the reference host speed.
fn setup(w: Workload, seed: u64) -> (Bench, f64) {
    let mut clock = calib::Calibrated::new();
    let mut times = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let (b, _, scaled_ns) = clock.time(|| Bench::setup(w, seed));
        bench = Some(b);
        times.push(scaled_ns / 1e9);
    }
    (bench.expect("SETUPS > 0"), median(&times))
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untraced passes for `seconds`; the end-to-end metrics.
fn end_to_end(args: &Args) -> Out {
    let (bench, setup_s) = setup(args.workload, args.seed);
    let mut out = Out::new();
    let (mut samples, mut raw) = (Vec::new(), Vec::new());
    let (mut scaled_ns, mut accesses) = (0.0, 0);
    let mut first: Option<Outcome> = None;
    let start = Instant::now();
    while samples.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(args.seconds) {
        let p = bench.pass(None, None);
        let res = bench.check(&p.outcome).and_then(|()| match &first {
            Some(f) if *f != p.outcome => Err("a pass differs from the first pass".into()),
            _ => Ok(()),
        });
        out.checked(p.accesses, res);
        scaled_ns += p.scaled_ns;
        accesses += p.accesses;
        samples.push(p.scaled_ns_per_access());
        raw.push(p.ns_per_access());
        first.get_or_insert(p.outcome);
    }
    let outcome = first.expect("MIN_PASSES > 0");
    if let (Bench::Serve(s), Outcome::Serve(report, archive)) = (&bench, &outcome) {
        let single = s.with_workers(1).run(&s.requests);
        let same = single.report == *report && single.archive == *archive;
        out.checked(
            single.report.processed,
            if same {
                Ok(())
            } else {
                Err("serve outcome differs between 1 and 2 workers".into())
            },
        );
    }
    let q = bench.quality(&outcome);
    for (what, v) in [("scaled", &samples), ("wall", &raw)] {
        let (q1, q3) = quartiles(v);
        eprintln!(
            "{}: {what} ns/access over {} passes: q1 {q1:.1}, median {:.1}, q3 {q3:.1}, mean {:.1}",
            args.workload.name(),
            v.len(),
            median(v),
            v.iter().sum::<f64>() / v.len() as f64
        );
    }
    // Ratio of sums over the passes: the 2-worker serve engine's
    // per-pass times are bimodal (thread wake-ups), which makes their
    // median jump between modes from run to run.
    out.metric("ns_per_access", scaled_ns / accesses.max(1) as f64, "ns");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("misses_removed_pct", q.misses_removed_pct, "%");
    out.metric("prefetch_accuracy_pct", q.prefetch_accuracy_pct, "%");
    out.metric("coverage_pct", q.coverage_pct, "%");
    out.metric("sim_ticks_per_access", q.sim_ticks_per_access, "ticks");
    out
}

/// The traced run: the workload's own untraced/traced pairs, then one
/// probe per layer; the per-layer metrics.
fn per_layer(args: &Args) -> Out {
    let w = args.workload;
    let seed = args.seed;
    let mut out = Out::new();
    let (bench, _) = setup(w, seed);
    // Half the run for the workload's own pairs, so the probes after
    // them keep the whole run near `--seconds`.
    let own = layers::rounds(&bench, Duration::from_secs(args.seconds) / 2, MIN_ROUNDS);
    out.absorb(&own);
    let (n, res) = layers::observed(&bench, &own.outcome);
    out.checked(n, res);

    // Layers the workload does not drive are measured on the workload
    // that does, built from the same seed.
    let stride_own = (w != Workload::Fig5Stride).then(|| Bench::setup(Workload::Fig5Stride, seed));
    let stride_bench = stride_own.as_ref().unwrap_or(&bench);
    let Bench::Fig5(fig5) = stride_bench else {
        unreachable!("fig5-stride sets up Fig.-5 inputs")
    };
    let fig5_rounds = match w {
        Workload::Fig5Cls | Workload::Fig5Stride => None,
        _ => Some(layers::rounds(stride_bench, Duration::ZERO, LAYER_ROUNDS)),
    };
    let memsim = fig5_rounds.as_ref().unwrap_or(&own);
    let uvm_rounds = (w != Workload::Uvm).then(|| {
        layers::rounds(
            &Bench::setup(Workload::Uvm, seed),
            Duration::ZERO,
            LAYER_ROUNDS,
        )
    });
    let systems = uvm_rounds.as_ref().unwrap_or(&own);
    for r in [&fig5_rounds, &uvm_rounds].into_iter().flatten() {
        out.absorb(r);
    }

    let serve_own;
    let serve = match &bench {
        Bench::Serve(s) => s,
        _ => {
            serve_own = Serve::new(seed);
            &serve_own
        }
    };

    let (obs, res) = layers::obs_layer(stride_bench);
    out.checked(0, res);
    let core = layers::core_layer(fig5);
    let heb = layers::hebbian_layer();
    let resilient = layers::resilient_ns_per_miss(&serve.requests);
    let (sv, n, res) = layers::serve_layer(serve, seed);
    out.checked(n, res);
    let trace_gen = layers::trace_gen_ns_per_access(seed);

    let model = match &bench {
        Bench::Serve(s) => {
            let fold = layers::tenant_replay(s);
            let engine_ns = median(&own.traced) * own.accesses as f64;
            ModelLayer::of(&fold, engine_ns as u64, 1)
        }
        _ => ModelLayer::of(&own.fold, own.fold.root_ns, own.passes()),
    };
    let (sim_counts, uvm_report) = match (&memsim.outcome, &systems.outcome) {
        (Outcome::Sim(reps), Outcome::Uvm(u)) => (reps.clone(), u.clone()),
        _ => unreachable!("memsim and systems layers come from their own workloads"),
    };
    let sum = |g: fn(&hnp_memsim::SimReport) -> usize| -> f64 {
        sim_counts.iter().map(g).sum::<usize>() as f64
    };
    let shed = sv.report.shed as f64;
    let tenants = |g: fn(&hnp_serve::TenantReport) -> u64| -> f64 {
        sv.report.tenants.iter().map(g).sum::<u64>() as f64
    };
    let error_rate = match w {
        Workload::Serve => {
            pct(shed, sv.report.offered as f64) + pct(out.failed as f64, out.attempted as f64)
        }
        _ => pct(out.failed as f64, out.attempted as f64),
    };

    let passes = memsim.passes() as f64;
    out.metric("memsim.self_ns_per_access", median(&memsim.self_ns), "ns");
    out.metric(
        "memsim.events_per_access",
        memsim.fold.on_event_calls as f64 / passes / memsim.accesses.max(1) as f64,
        "count",
    );
    out.metric("memsim.full_misses", sum(|r| r.full_misses), "count");
    out.metric("memsim.late_hits", sum(|r| r.late_prefetch_hits), "count");
    out.metric(
        "memsim.prefetches_issued",
        sum(|r| r.prefetches_issued),
        "count",
    );
    out.metric(
        "memsim.prefetches_dropped",
        sum(|r| r.prefetches_dropped),
        "count",
    );
    out.metric(
        "memsim.prefetches_useful",
        sum(|r| r.prefetches_useful),
        "count",
    );
    out.metric(
        "memsim.prefetches_unused",
        sum(|r| r.prefetches_unused),
        "count",
    );
    out.metric("memsim.resilient_ns_per_miss", resilient, "ns");

    out.metric("model.on_miss_calls", model.on_miss_calls as f64, "count");
    out.metric("model.on_miss_ns_p50", model.on_miss_p50 as f64, "ns");
    out.metric("model.on_miss_ns_p99", model.on_miss_p99 as f64, "ns");
    out.metric(
        "model.on_miss_samples",
        model.on_miss_samples as f64,
        "count",
    );
    out.metric("model.share_pct", model.share_pct, "%");
    out.metric("model.on_event_calls", model.on_event_calls as f64, "count");
    out.metric(
        "model.on_event_ns_per_call",
        model.on_event_ns_per_call,
        "ns",
    );

    out.metric("core.encode_ns", core.encode_ns as f64, "ns");
    out.metric("core.train_ns", core.train_ns as f64, "ns");
    out.metric("core.predict_ns", core.predict_ns as f64, "ns");
    out.metric("core.replay_ns", core.replay_ns as f64, "ns");
    out.metric("core.store_episode_ns", core.store_episode_ns as f64, "ns");
    out.metric("core.samples", core.samples as f64, "count");
    out.metric("core.replayed", core.replayed as f64, "count");
    out.metric("core.trained", core.trained as f64, "count");
    out.metric("core.skipped", core.skipped as f64, "count");
    out.metric("core.episodes_stored", core.episodes_stored as f64, "count");

    out.metric("hebbian.forward_ns", heb.forward_ns as f64, "ns");
    out.metric("hebbian.train_ns", heb.train_ns as f64, "ns");
    out.metric("hebbian.rollout8_ns", heb.rollout8_ns as f64, "ns");
    out.metric("hebbian.samples", heb.samples as f64, "count");
    out.metric("hebbian.update_ops", core.net.update_ops as f64, "count");
    out.metric(
        "hebbian.overlap_milli",
        core.net.overlap_milli() as f64,
        "milli",
    );

    out.metric("obs.counters_overhead_pct", obs.counters_overhead_pct, "%");
    out.metric("obs.jsonl_overhead_pct", obs.jsonl_overhead_pct, "%");
    out.metric("obs.events_per_access", obs.events_per_access, "count");

    out.metric("systems.self_ns_per_access", median(&systems.self_ns), "ns");
    out.metric(
        "systems.fault_batches",
        uvm_report.fault_batches as f64,
        "count",
    );
    out.metric("systems.max_batch", uvm_report.max_batch as f64, "count");
    out.metric(
        "systems.prefetches_issued",
        uvm_report.prefetches_issued as f64,
        "count",
    );
    out.metric(
        "systems.prefetches_useful",
        uvm_report.prefetches_useful as f64,
        "count",
    );

    out.metric("serve.engine_ns_per_req", sv.engine_ns_per_req, "ns");
    out.metric("serve.admission_ns_per_req", sv.admission_ns_per_req, "ns");
    out.metric("serve.workers1_ns_per_req", sv.workers1_ns_per_req, "ns");
    out.metric("serve.speedup_2v1", sv.speedup_2v1, "x");
    out.metric("serve.epochs", sv.report.epochs as f64, "count");
    out.metric("serve.shed", shed, "count");
    out.metric("serve.issued", tenants(|t| t.issued), "count");
    out.metric("serve.expired", tenants(|t| t.expired), "count");
    out.metric("serve.covered", tenants(|t| t.covered), "count");

    out.metric("trace.gen_ns_per_access", trace_gen, "ns");
    let untraced = median(&own.untraced);
    out.metric(
        "bench.trace_overhead_pct",
        pct(median(&own.traced) - untraced, untraced),
        "%",
    );
    out.metric("bench.error_rate_pct", error_rate, "%");
    out.metric("bench.untraced_ns_per_access", untraced, "ns");
    out.metric("bench.untraced_passes", own.untraced.len() as f64, "count");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for (name, value, unit) in &out.metrics {
        eprintln!("{name:<32} {value:>16.4} {unit}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
