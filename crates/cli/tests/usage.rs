//! `hnpctl` rejects input it would not read: an option the subcommand
//! does not take, or a flag that is neither `true` nor `false`, exits 2
//! with a message naming the option, before the command does any work.

use std::process::{Command, Output};

fn hnpctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hnpctl"))
        .args(args)
        .output()
        .expect("hnpctl spawns")
}

/// Asserts a usage rejection: exit 2, `needle` on stderr, nothing on
/// stdout.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "stderr must name {needle}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no work before the rejection");
}

#[test]
fn misspelled_option_is_rejected() {
    let dir = std::env::temp_dir().join("hnpctl-usage-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("t.hnpt");
    let trace = trace.to_str().expect("utf-8 path");
    let gen = hnpctl(&[
        "trace-gen",
        "--workload",
        "pagerank",
        "--accesses",
        "4000",
        "--out",
        trace,
    ]);
    assert!(gen.status.success());
    let out = hnpctl(&[
        "run",
        "--trace",
        trace,
        "--prefetcher",
        "stride",
        "--capcity-frac",
        "0.3",
    ]);
    assert_rejected(&out, "--capcity-frac");
}

#[test]
fn flag_that_is_not_true_or_false_is_rejected() {
    let out = hnpctl(&[
        "faults",
        "--workload",
        "pagerank",
        "--accesses",
        "500",
        "--nodes",
        "1",
        "--prefetcher",
        "stride",
        "--resilient",
        "yes",
    ]);
    assert_rejected(&out, "--resilient");
}
