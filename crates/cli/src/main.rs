//! `hnpctl` — the HNP command line.
//!
//! ```text
//! hnpctl trace-gen  --workload pagerank --accesses 100000 --seed 1 --out t.hnpt
//! hnpctl trace-stats --trace t.hnpt
//! hnpctl run        --trace t.hnpt --prefetcher cls-hebbian [--capacity-frac 0.5]
//!                   [--obs events.jsonl]   (alias: sim)
//! hnpctl stats      --events events.jsonl
//! hnpctl stats      --trace t.hnpt [--prefetcher NAME]
//! hnpctl compare    --trace t.hnpt [--capacity-frac 0.5]
//! hnpctl patterns   [--accesses 1000]
//! hnpctl faults     --workload pagerank --schedule lossy:5000:40000:0.5 \
//!                   [--target disagg|uvm] [--resilient true]
//! hnpctl lint       [--root DIR] [--json FILE] [--quiet true]
//! hnpctl serve-bench [--tenants 32] [--accesses 200] [--threads 1,2,4]
//!                   [--shards 8] [--obs events.jsonl] [--snapshot-dir DIR]
//! ```
//!
//! Workloads: `tensorflow`, `pagerank`, `mcf`, `graph500`, `kv-store`,
//! or any Table-1 pattern (`stride`, `pointer-chase`, `indirect-stride`,
//! `indirect-index`, `pointer-offset`).
//! Prefetchers: `none`, `stride`, `markov`, `next-n`, `lstm`,
//! `transformer`, `hebbian`, `cls-hebbian`.

mod args;

use std::path::Path;
use std::process::ExitCode;

use args::Args;
use hnp_bench::fig5::build_prefetcher;
use hnp_lint as lint;
use hnp_memsim::{NoPrefetcher, Prefetcher, ResilientPrefetcher, SimConfig, Simulator};
use hnp_obs::{jsonl_kind, jsonl_u64, Counters, Histogram, JsonlExporter, Metric, Registry};
use hnp_serve::{
    synthesize, ModelKind, PrefetcherFactory, ServeConfig, ServeEngine, TenantRegistry, TenantSpec,
};
use hnp_systems::{
    DisaggConfig, DisaggregatedCluster, FaultInjector, FaultSchedule, UvmConfig, UvmSim,
};
use hnp_trace::apps::AppWorkload;
use hnp_trace::stats::TraceStats;
use hnp_trace::{io, Pattern, Trace};

const USAGE: &str =
    "usage: hnpctl <trace-gen|trace-stats|run|stats|compare|patterns|faults|lint|serve-bench> [--key value ...]
  trace-gen   --workload NAME --accesses N [--seed S] --out FILE
  trace-stats --trace FILE [--csv true]
  run         --trace FILE --prefetcher NAME [--capacity-frac F] [--seed S] [--json true]
              [--obs FILE]  (writes the event stream as JSON Lines; alias: sim)
  stats       --events FILE  (aggregate a --obs JSONL stream)
              | --trace FILE [--prefetcher NAME] [--capacity-frac F] [--seed S]
  compare     --trace FILE [--capacity-frac F] [--seed S]
  patterns    [--accesses N]
  faults      --workload NAME [--target disagg|uvm] [--nodes K] [--accesses N]
              [--prefetcher NAME] [--resilient true] [--schedule DSL]
              [--seed S] [--fault-seed S] [--json true]
              (DSL: comma-separated spike:S:D:EXTRA[:JIT] lossy:S:D:P
               brownout:S:D:SLOTS slow:S:D:F crash:S:D:NODE)
  lint        [--root DIR] [--json FILE] [--quiet true]
  serve-bench [--tenants N] [--accesses N] [--threads LIST] [--shards N]
              [--queue-depth N] [--batch N] [--snapshot-interval N]
              [--model mix|NAME] [--crashes E:T,E:T] [--seed S]
              [--obs FILE] [--snapshot-dir DIR]
              (multi-tenant serving engine: scaling table + determinism
               check across thread counts)";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "trace-gen" => cmd_trace_gen(&args),
        "trace-stats" => cmd_trace_stats(&args),
        "sim" | "run" => cmd_sim(&args),
        "stats" => cmd_stats(&args),
        "compare" => cmd_compare(&args),
        "patterns" => cmd_patterns(&args),
        "faults" => cmd_faults(&args),
        "lint" => cmd_lint(&args),
        "serve-bench" => cmd_serve_bench(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Builds a workload by name.
fn workload(name: &str, accesses: usize, seed: u64) -> Result<Trace, String> {
    let app = match name {
        "tensorflow" => Some(AppWorkload::TensorFlowLike),
        "pagerank" => Some(AppWorkload::PageRankLike),
        "mcf" => Some(AppWorkload::McfLike),
        "graph500" => Some(AppWorkload::Graph500Like),
        "kv-store" => Some(AppWorkload::KvStoreLike),
        _ => None,
    };
    if let Some(app) = app {
        return Ok(app.generate(accesses, seed));
    }
    let pattern = Pattern::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(pattern.generate(accesses, seed))
}

fn load_trace(args: &Args) -> Result<Trace, String> {
    // `--trace FILE`, or the first positional argument.
    let path = match args.options.get("trace") {
        Some(p) => p.as_str(),
        None => args
            .positional
            .first()
            .map(String::as_str)
            .ok_or("--trace FILE (or a positional path) is required")?,
    };
    io::read_binary(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

fn sim_cfg_for(trace: &Trace, args: &Args) -> Result<SimConfig, String> {
    let frac: f64 = args.get_num("capacity-frac", 0.5)?;
    if !(0.0..=1.0).contains(&frac) || frac == 0.0 {
        return Err("--capacity-frac must be in (0, 1]".into());
    }
    Ok(SimConfig::default().sized_to(trace, frac))
}

fn cmd_trace_gen(args: &Args) -> Result<(), String> {
    let name = args.require("workload")?;
    let accesses: usize = args.get_num("accesses", 100_000)?;
    let seed: u64 = args.get_num("seed", 1)?;
    let out = args.require("out")?;
    let trace = workload(name, accesses, seed)?;
    io::write_binary(&trace, Path::new(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} accesses, {} pages footprint",
        trace.len(),
        trace.footprint_pages()
    );
    Ok(())
}

fn cmd_trace_stats(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
    let s = TraceStats::compute(&trace);
    if args.get("csv", "false") == "true" {
        println!("{}", TraceStats::csv_header());
        println!("{}", s.csv_row());
        return Ok(());
    }
    println!("accesses:        {}", s.len);
    println!("footprint pages: {}", s.footprint_pages);
    println!("unique deltas:   {}", s.unique_deltas);
    println!("delta entropy:   {:.2} bits", s.delta_entropy_bits);
    for k in [1usize, 4, 16, 64] {
        println!("top-{k:<3} coverage: {:.3}", s.top_delta_coverage(k));
    }
    println!("top deltas:      {:?}", s.top_deltas(8));
    Ok(())
}

fn cmd_sim(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
    let seed: u64 = args.get_num("seed", 1)?;
    let name = args.get("prefetcher", "cls-hebbian");
    let cfg = sim_cfg_for(&trace, args)?;
    // Only the prefetcher run is observed; the baseline would double
    // every event in the stream.
    let base = Simulator::new(cfg.clone()).run(&trace, &mut NoPrefetcher);
    let obs_path = args.get("obs", "");
    let exporter = JsonlExporter::new();
    let reg = Registry::new();
    if !obs_path.is_empty() {
        reg.attach(exporter.clone());
    }
    let sim = Simulator::new(cfg.with_observer(reg));
    let mut p = build_prefetcher(name, seed)?;
    let rep = sim.run(&trace, p.as_mut());
    if !obs_path.is_empty() {
        std::fs::write(obs_path, exporter.render())
            .map_err(|e| format!("cannot write {obs_path}: {e}"))?;
        println!("wrote {obs_path}: {} events", exporter.len());
    }
    if args.get("json", "false") == "true" {
        println!(
            "{}",
            serde_json::to_string_pretty(&rep).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("prefetcher:      {}", rep.prefetcher);
    println!("capacity:        {} pages", sim.config().capacity_pages);
    println!(
        "baseline misses: {} ({:.1}% miss rate)",
        base.misses(),
        100.0 * base.miss_rate()
    );
    println!(
        "misses:          {} ({:.1}% miss rate)",
        rep.misses(),
        100.0 * rep.miss_rate()
    );
    println!("misses removed:  {:.1}%", rep.pct_misses_removed(&base));
    println!(
        "prefetches:      {} issued, {} useful (accuracy {:.2}), {} unused",
        rep.prefetches_issued,
        rep.prefetches_useful,
        rep.accuracy(),
        rep.prefetches_unused
    );
    println!(
        "latency:         {:.1} -> {:.1} avg ticks/access",
        base.avg_access_ticks(),
        rep.avg_access_ticks()
    );
    Ok(())
}

/// Aggregates an observability event stream: either a `--obs` JSONL
/// file written by `hnpctl run`, or a fresh observed run over
/// `--trace` with counter and histogram sinks attached.
fn cmd_stats(args: &Args) -> Result<(), String> {
    let events_path = args.get("events", "");
    if !events_path.is_empty() {
        return stats_from_file(events_path);
    }
    let trace = load_trace(args)?;
    let seed: u64 = args.get_num("seed", 1)?;
    let name = args.get("prefetcher", "cls-hebbian");
    let counters = Counters::new();
    let stalls = Histogram::exponential(Metric::MissStall, 16);
    let leads = Histogram::exponential(Metric::PrefetchLead, 16);
    let reg = Registry::new();
    reg.attach(counters.clone());
    reg.attach(stalls.clone());
    reg.attach(leads.clone());
    let sim = Simulator::new(sim_cfg_for(&trace, args)?.with_observer(reg));
    let mut p = build_prefetcher(name, seed)?;
    let rep = sim.run(&trace, p.as_mut());
    println!("prefetcher:      {}", rep.prefetcher);
    println!("event counters:");
    for (key, v) in counters.snapshot() {
        println!("  {key:<22} {v}");
    }
    print_hist("miss stall ticks", &stalls);
    print_hist("prefetch lead ticks", &leads);
    Ok(())
}

fn print_hist(label: &str, h: &Histogram) {
    if h.total() == 0 {
        println!("{label}: no samples");
        return;
    }
    println!(
        "{label}: {} samples, mean {:.3}",
        h.total(),
        h.mean_milli() as f64 / 1000.0
    );
    for (bound, count) in h.buckets() {
        if count == 0 {
            continue;
        }
        if bound == u64::MAX {
            println!("  >  rest       {count}");
        } else {
            println!("  <  {bound:<10} {count}");
        }
    }
}

/// Offline aggregation of a JSONL event stream (the `--obs` artifact).
fn stats_from_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut kinds: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut stall_sum = 0u64;
    let mut late = 0u64;
    let mut run_end: Option<(u64, u64, u64, u64)> = None;
    let mut malformed = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Some(kind) = jsonl_kind(line) else {
            malformed += 1;
            continue;
        };
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
        match kind {
            "miss" => {
                stall_sum += jsonl_u64(line, "stall").unwrap_or(0);
                if line.contains("\"late\":true") {
                    late += 1;
                }
            }
            "run_end" => {
                run_end = Some((
                    jsonl_u64(line, "ticks").unwrap_or(0),
                    jsonl_u64(line, "accesses").unwrap_or(0),
                    jsonl_u64(line, "hits").unwrap_or(0),
                    jsonl_u64(line, "misses").unwrap_or(0),
                ));
            }
            _ => {}
        }
    }
    println!("events by kind:");
    for (k, v) in &kinds {
        println!("  {k:<22} {v}");
    }
    println!("late misses:     {late}");
    println!("stall ticks:     {stall_sum}");
    if let Some((ticks, accesses, hits, misses)) = run_end {
        println!(
            "run totals:      {ticks} ticks, {accesses} accesses, {hits} hits, {misses} misses"
        );
    }
    if malformed > 0 {
        return Err(format!("{malformed} malformed line(s) in {path}"));
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
    let seed: u64 = args.get_num("seed", 1)?;
    let sim = Simulator::new(sim_cfg_for(&trace, args)?);
    let base = sim.run(&trace, &mut NoPrefetcher);
    println!(
        "{:<14} {:>10} {:>10} {:>9}",
        "prefetcher", "removed%", "issued", "accuracy"
    );
    for name in [
        "stride",
        "markov",
        "next-n",
        "lstm",
        "transformer",
        "hebbian",
        "cls-hebbian",
    ] {
        let mut p = build_prefetcher(name, seed)?;
        let rep = sim.run(&trace, p.as_mut());
        println!(
            "{:<14} {:>9.1}% {:>10} {:>9.2}",
            name,
            rep.pct_misses_removed(&base),
            rep.prefetches_issued,
            rep.accuracy()
        );
    }
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let name = args.get("workload", "pagerank");
    let accesses: usize = args.get_num("accesses", 20_000)?;
    let nodes: usize = args.get_num("nodes", 4)?;
    if nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    let seed: u64 = args.get_num("seed", 1)?;
    let fault_seed: u64 = args.get_num("fault-seed", 0xfa017)?;
    let pname = args.get("prefetcher", "cls-hebbian");
    let resilient = args.get("resilient", "false") == "true";
    let spec = args.get("schedule", "");
    let schedule = if spec.is_empty() {
        FaultSchedule::none()
    } else {
        FaultSchedule::parse(spec)?
    };
    let make = |seed: u64| -> Result<Box<dyn Prefetcher>, String> {
        let inner = build_prefetcher(pname, seed)?;
        Ok(if resilient {
            Box::new(ResilientPrefetcher::new(inner))
        } else {
            inner
        })
    };
    let mut inj = FaultInjector::new(schedule, fault_seed);
    let json = args.get("json", "false") == "true";
    match args.get("target", "disagg") {
        "disagg" => {
            let traces: Vec<Trace> = (0..nodes)
                .map(|i| workload(name, accesses, seed + i as u64))
                .collect::<Result<_, _>>()?;
            let mut pfs: Vec<Box<dyn Prefetcher>> = (0..nodes)
                .map(|i| make(seed + i as u64))
                .collect::<Result<_, _>>()?;
            let cluster = DisaggregatedCluster::new(DisaggConfig::default());
            let rep = cluster.run_decentralized_with_faults(&traces, &mut pfs, &mut inj);
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&rep).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            println!("target:          disagg ({nodes} nodes)");
            println!("total ticks:     {}", rep.total_ticks);
            println!("stall ticks:     {}", rep.total_stall());
            println!("misses:          {}", rep.total_misses());
            let sum = |f: fn(&hnp_systems::disagg::NodeReport) -> usize| -> usize {
                rep.nodes.iter().map(f).sum()
            };
            println!(
                "prefetches:      {} issued, {} useful, {} cancelled",
                sum(|n| n.prefetches_issued),
                sum(|n| n.prefetches_useful),
                sum(|n| n.prefetches_cancelled),
            );
            println!(
                "faults:          {} retries, {} timeouts, {} restarts",
                sum(|n| n.retries),
                sum(|n| n.timeouts),
                sum(|n| n.restarts),
            );
        }
        "uvm" => {
            let warps: Vec<Trace> = (0..nodes)
                .map(|i| workload(name, accesses, seed + i as u64).map(|t| t.with_stream(i as u16)))
                .collect::<Result<_, _>>()?;
            let mut p = make(seed)?;
            let sim = UvmSim::new(UvmConfig::default());
            let rep = sim.run_with_faults(&warps, p.as_mut(), &mut inj);
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&rep).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            println!("target:          uvm ({nodes} warps)");
            println!("total ticks:     {}", rep.total_ticks);
            println!(
                "faults:          {} in {} batches",
                rep.faults, rep.fault_batches
            );
            println!(
                "prefetches:      {} issued, {} useful, {} cancelled",
                rep.prefetches_issued, rep.prefetches_useful, rep.prefetches_cancelled,
            );
            println!(
                "recovery:        {} retries, {} timeouts, {} restarts",
                rep.retries, rep.timeouts, rep.restarts,
            );
        }
        other => return Err(format!("unknown target {other:?}")),
    }
    Ok(())
}

/// Parses a `--crashes epoch:tenant,epoch:tenant` schedule.
fn parse_crashes(spec: &str) -> Result<Vec<(u64, u64)>, String> {
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|part| {
            let (e, t) = part
                .split_once(':')
                .ok_or_else(|| format!("--crashes: {part:?} is not epoch:tenant"))?;
            let epoch = e
                .trim()
                .parse()
                .map_err(|_| format!("--crashes: bad epoch {e:?}"))?;
            let tenant = t
                .trim()
                .parse()
                .map_err(|_| format!("--crashes: bad tenant {t:?}"))?;
            Ok((epoch, tenant))
        })
        .collect()
}

/// Benchmarks the multi-tenant serving engine across thread counts,
/// checking the determinism contract (identical report and snapshot
/// archive at every count) while measuring wall-clock throughput.
fn cmd_serve_bench(args: &Args) -> Result<(), String> {
    let tenants: u64 = args.get_num("tenants", 32)?;
    if tenants == 0 {
        return Err("--tenants must be positive".into());
    }
    let accesses: usize = args.get_num("accesses", 200)?;
    let shards: usize = args.get_num("shards", 8)?;
    let queue_depth: usize = args.get_num("queue-depth", 64)?;
    let batch: usize = args.get_num("batch", 32)?;
    let snapshot_interval: u64 = args.get_num("snapshot-interval", 8)?;
    let seed: u64 = args.get_num("seed", 1)?;
    let model = args.get("model", "mix");
    let threads: Vec<usize> = args
        .get("threads", "1,2,4")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("--threads: cannot parse {s:?}"))
        })
        .collect::<Result<_, _>>()?;
    if threads.is_empty() {
        return Err("--threads needs at least one count".into());
    }
    let crashes = parse_crashes(args.get("crashes", ""))?;

    const MIX: [ModelKind; 5] = [
        ModelKind::Hebbian,
        ModelKind::Cls,
        ModelKind::Stride,
        ModelKind::Markov,
        ModelKind::NextN,
    ];
    const LOADS: [AppWorkload; 5] = [
        AppWorkload::McfLike,
        AppWorkload::TensorFlowLike,
        AppWorkload::PageRankLike,
        AppWorkload::Graph500Like,
        AppWorkload::KvStoreLike,
    ];
    let mut registry = TenantRegistry::new();
    for id in 0..tenants {
        let kind = if model == "mix" {
            MIX[(id % MIX.len() as u64) as usize]
        } else {
            ModelKind::parse(model).ok_or_else(|| format!("unknown model {model:?}"))?
        };
        registry.register(TenantSpec {
            id,
            model: kind,
            workload: LOADS[(id % LOADS.len() as u64) as usize],
            seed: seed.wrapping_add(id),
        });
    }
    let requests = synthesize(&registry, accesses, seed);
    println!(
        "serving {} requests from {tenants} tenants over {shards} shards (model: {model})",
        requests.len()
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "threads", "epochs", "wall ms", "epochs/s", "reqs/s", "speedup"
    );

    let obs_path = args.get("obs", "");
    let snap_dir = args.get("snapshot-dir", "");
    let mut reference: Option<hnp_serve::ServeOutcome> = None;
    let mut base_secs = 0.0f64;
    let build = |workers: usize, obs: Registry| {
        let cfg = ServeConfig {
            shards,
            workers,
            queue_depth,
            flush_per_shard: batch,
            snapshot_interval,
            hash_seed: seed ^ 0x5e44e,
            crashes: crashes.clone(),
            pred_window: 64,
            pred_horizon: 256,
            obs,
        };
        ServeEngine::new(cfg, registry.clone(), PrefetcherFactory::new())
    };
    for (i, &workers) in threads.iter().enumerate() {
        // One unobserved warm-up pass per count, so the first count is
        // not timed cold against warm later ones.
        let _ = build(workers, Registry::new()).run(&requests);
        let obs = Registry::new();
        let exporter = JsonlExporter::new();
        if i == 0 && !obs_path.is_empty() {
            obs.attach(exporter.clone());
        }
        let engine = build(workers, obs);
        let t0 = std::time::Instant::now();
        let out = engine.run(&requests);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        if i == 0 {
            base_secs = secs;
        }
        println!(
            "{:<8} {:>8} {:>10.1} {:>10.1} {:>10.0} {:>7.2}x",
            workers,
            out.report.epochs,
            secs * 1e3,
            out.report.epochs as f64 / secs,
            out.report.processed as f64 / secs,
            base_secs / secs
        );
        match &reference {
            None => {
                if !obs_path.is_empty() {
                    std::fs::write(obs_path, exporter.render())
                        .map_err(|e| format!("cannot write {obs_path}: {e}"))?;
                    println!("wrote {obs_path}: {} events", exporter.len());
                }
                if !snap_dir.is_empty() {
                    std::fs::create_dir_all(snap_dir)
                        .map_err(|e| format!("cannot create {snap_dir}: {e}"))?;
                    for (id, blob) in &out.archive {
                        let path = format!("{snap_dir}/tenant-{id}.hnpsnap");
                        std::fs::write(&path, blob)
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                    }
                    println!("wrote {} snapshot(s) to {snap_dir}/", out.archive.len());
                }
                reference = Some(out);
            }
            Some(first) => {
                if out.report != first.report || out.archive != first.archive {
                    return Err(format!(
                        "determinism violation: outcome at {workers} threads differs from {} threads",
                        threads[0]
                    ));
                }
            }
        }
    }
    if let Some(first) = reference {
        let r = &first.report;
        println!(
            "admitted {} / shed {} of {} offered; {} crashes, {} restores, {} snapshots",
            r.admitted, r.shed, r.offered, r.crashes, r.restores, r.snapshots
        );
        println!(
            "coverage: {:.1}% of processed requests hit the prediction window",
            r.coverage_milli() as f64 / 10.0
        );
        println!("outcome identical across thread counts {threads:?}");
    }
    Ok(())
}

/// Runs the hnp-lint workspace invariant checker (HNP01-HNP05) and
/// fails if any unsuppressed finding remains.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let root = match args.get("root", "") {
        "" => {
            lint::find_root(&std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?)
                .ok_or("no workspace root found; pass --root")?
        }
        dir => std::path::PathBuf::from(dir),
    };
    let report = lint::check_workspace(&root).map_err(|e| format!("lint failed: {e}"))?;
    let json_out = args.get("json", "");
    if !json_out.is_empty() {
        std::fs::write(json_out, lint::report::json(&report))
            .map_err(|e| format!("cannot write {json_out}: {e}"))?;
    }
    if args.get("quiet", "false") != "true" {
        print!("{}", lint::report::human(&report));
    }
    if report.unsuppressed_count() > 0 {
        return Err(format!(
            "{} unsuppressed finding(s)",
            report.unsuppressed_count()
        ));
    }
    Ok(())
}

fn cmd_patterns(args: &Args) -> Result<(), String> {
    let accesses: usize = args.get_num("accesses", 1000)?;
    println!(
        "{:<16} {:>8} {:>9} {:>10}",
        "pattern", "deltas", "entropy", "footprint"
    );
    for p in Pattern::ALL {
        let t = p.generate(accesses, 42);
        let s = TraceStats::compute(&t);
        println!(
            "{:<16} {:>8} {:>9.2} {:>10}",
            p.name(),
            s.unique_deltas,
            s.delta_entropy_bits,
            s.footprint_pages
        );
    }
    Ok(())
}
