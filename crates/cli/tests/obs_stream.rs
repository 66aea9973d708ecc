//! End-to-end check of the observability plumbing through the binary:
//! `hnpctl run --obs FILE` must write a JSONL stream in which every
//! line parses, and whose aggregated counts reproduce the run report
//! exactly (the report and the stream are two independent folds of
//! the same events).

use std::path::{Path, PathBuf};
use std::process::Command;

use hnp_obs::{jsonl_kind, jsonl_u64};

/// Extracts an integer field from the report's pretty-printed JSON
/// (which, unlike the JSONL stream, has whitespace after the colon).
fn report_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let rest = json
        .split_once(needle.as_str())
        .unwrap_or_else(|| panic!("report is missing {key}: {json}"))
        .1
        .trim_start();
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("")
        .parse()
        .unwrap_or_else(|_| panic!("report field {key} is not an integer"))
}

/// Writes a 20 000-access pagerank trace to `dir/t.hnpt` and returns
/// its path.
fn pagerank_trace(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("tmp dir");
    let trace = dir.join("t.hnpt");
    let gen = Command::new(env!("CARGO_BIN_EXE_hnpctl"))
        .args([
            "trace-gen",
            "--workload",
            "pagerank",
            "--accesses",
            "20000",
            "--seed",
            "1",
            "--out",
        ])
        .arg(&trace)
        .output()
        .expect("trace-gen spawns");
    assert!(
        gen.status.success(),
        "trace-gen failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    trace
}

#[test]
fn run_obs_stream_reproduces_report() {
    let dir = std::env::temp_dir().join("hnpctl-obs-stream-test");
    let trace = pagerank_trace(&dir);
    let events = dir.join("events.jsonl");

    let bin = env!("CARGO_BIN_EXE_hnpctl");
    let run = Command::new(bin)
        .arg("run")
        .arg("--trace")
        .arg(&trace)
        .args(["--prefetcher", "stride", "--json", "true", "--obs"])
        .arg(&events)
        .output()
        .expect("run spawns");
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = String::from_utf8_lossy(&run.stdout).into_owned();

    // Every line of the stream parses, and the aggregation reproduces
    // the report's counters exactly.
    let text = std::fs::read_to_string(&events).expect("events written");
    let (mut hits, mut misses, mut issued, mut stall) = (0u64, 0u64, 0u64, 0u64);
    let mut end_misses = None;
    for line in text.lines() {
        let kind = jsonl_kind(line).unwrap_or_else(|| panic!("unparseable event line: {line}"));
        match kind {
            "hit" => hits += 1,
            "miss" => {
                misses += 1;
                stall += jsonl_u64(line, "stall").expect("miss carries stall");
            }
            "prefetch_issued" => issued += 1,
            "run_end" => end_misses = jsonl_u64(line, "misses"),
            _ => {}
        }
    }
    assert_eq!(hits + misses, report_u64(&report, "accesses"));
    assert_eq!(hits, report_u64(&report, "hits"));
    assert_eq!(
        misses,
        report_u64(&report, "full_misses") + report_u64(&report, "late_prefetch_hits")
    );
    assert_eq!(issued, report_u64(&report, "prefetches_issued"));
    assert_eq!(
        end_misses,
        Some(misses),
        "run_end totals must close the stream"
    );
    assert!(stall > 0, "misses must account stall ticks");

    // The stats subcommand aggregates the same file without error.
    let stats_out = Command::new(bin)
        .args(["stats", "--events"])
        .arg(&events)
        .output()
        .expect("stats spawns");
    assert!(stats_out.status.success());
    let stats_text = String::from_utf8_lossy(&stats_out.stdout);
    assert!(stats_text.contains(&format!("{misses} misses")));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A CLS model run under `--obs` shares the simulator's registry, so
/// its replay steps and epoch summaries reach the stream.
#[test]
fn cls_run_obs_stream_carries_model_events() {
    let dir = std::env::temp_dir().join("hnpctl-obs-stream-cls-test");
    let trace = pagerank_trace(&dir);
    let events = dir.join("events.jsonl");
    let run = Command::new(env!("CARGO_BIN_EXE_hnpctl"))
        .arg("run")
        .arg("--trace")
        .arg(&trace)
        .args(["--prefetcher", "cls-hebbian", "--obs"])
        .arg(&events)
        .output()
        .expect("run spawns");
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&events).expect("events written");
    for kind in ["replay_step", "epoch_summary"] {
        assert!(
            text.lines().any(|line| jsonl_kind(line) == Some(kind)),
            "no {kind} event in the stream"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
