//! Smoke tests: every lightweight experiment harness must run to
//! completion with tiny parameters, its stdout table must depend only
//! on argv, and a malformed argument must fail the run.
//! (The trace-heavy harnesses — fig3/fig5/sys_* — are exercised via
//! the `hnp-bench` library tests instead; running them as processes
//! at debug-build speed would dominate CI time.)

use std::process::{Command, Output};

fn launch(cmd: &mut Command) -> Output {
    cmd.output()
        .unwrap_or_else(|e| panic!("cannot launch {cmd:?}: {e}"))
}

fn run(bin: &str, args: &[&str]) -> String {
    let out = launch(Command::new(bin).args(args));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_runs_and_lists_all_patterns() {
    let out = run(env!("CARGO_BIN_EXE_table1_patterns"), &["200"]);
    for name in [
        "stride",
        "pointer-chase",
        "indirect-stride",
        "indirect-index",
        "pointer-offset",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn capture_does_not_depend_on_the_build_directory() {
    let in_dir = |dir: std::path::PathBuf| {
        launch(
            Command::new(env!("CARGO_BIN_EXE_table1_patterns"))
                .arg("200")
                .env("CARGO_TARGET_DIR", dir),
        )
    };
    let a = in_dir("target".into());
    let b = in_dir(std::env::temp_dir().join("hnp-other-target"));
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout)
    );
}

#[test]
fn malformed_size_argument_fails_and_names_it() {
    let out = launch(Command::new(env!("CARGO_BIN_EXE_table1_patterns")).arg("2k"));
    assert!(
        !out.status.success(),
        "a malformed size must not run the default scale"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("accesses") && err.contains("2k"), "{err}");
    assert!(out.stdout.is_empty(), "no table is printed");
}

#[test]
fn table2_reports_both_models_and_ratios() {
    let out = run(env!("CARGO_BIN_EXE_table2_resources"), &[]);
    assert!(out.contains("LSTM"));
    assert!(out.contains("Hebbian"));
    assert!(out.contains("ratios:"));
}

#[test]
fn fig2_reports_latency_rows() {
    let out = run(env!("CARGO_BIN_EXE_fig2_latency"), &["2"]);
    assert!(out.contains("lstm-fp32-1t"));
    assert!(out.contains("lstm-int8-1t"));
    assert!(out.contains("hebbian-int-1t"));
    assert!(out.contains("transformer-fp32-1t"));
    assert!(out.contains("lstm-fp32-fused"));
}

#[test]
fn availability_reports_protocol_and_agreement() {
    let out = run(env!("CARGO_BIN_EXE_availability"), &["600"]);
    assert!(out.contains("redeployments"));
    assert!(out.contains("agreement"));
}

#[test]
fn interleaving_reports_all_conditions() {
    let out = run(env!("CARGO_BIN_EXE_interleaving"), &["100"]);
    assert!(out.contains("sequential"));
    assert!(out.contains("interleave-1"));
    assert!(out.contains("interleave-16"));
}
