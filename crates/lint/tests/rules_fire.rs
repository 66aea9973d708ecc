//! Proof that HNP05 fires through the public entry point: a fixture
//! workspace on disk, run through `check_workspace`. The per-file
//! fixtures of HNP01-HNP04 (under `tests/fixtures/`) are checked by
//! the unit tests in `src/workspace.rs`.

use std::fs;
use std::path::{Path, PathBuf};

use hnp_lint::rules::Rule;
use hnp_lint::{check_workspace, Finding};

/// A fresh fixture workspace named `name`: one library crate
/// `hnp-trace` whose `src/` holds `files`, plus `examples/` files.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/trace/src");
    fs::create_dir_all(&src).expect("create fixture crate");
    fs::create_dir_all(root.join("examples")).expect("create fixture examples");
    fs::write(
        root.join("crates/trace/Cargo.toml"),
        "[package]\nname = \"hnp-trace\"\n",
    )
    .expect("write fixture manifest");
    for (path, text) in files {
        fs::write(root.join(path), text).expect("write fixture file");
    }
    root
}

fn unused_pub(root: &Path) -> Vec<Finding> {
    let report = check_workspace(root).expect("lint engine must run");
    report
        .findings
        .into_iter()
        .filter(|f| f.rule == Rule::UnusedPub)
        .collect()
}

const LIB: &str = "pub mod stats;\npub use stats::mean;\n";

const STATS: &str = "\
/// Used by another file.
pub fn mean(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() / tail(xs) }
pub fn tail(xs: &[u64]) -> u64 { xs.len() as u64 }
pub(crate) fn private_enough() {}
pub struct Window { pub len: usize }
pub const fn spare() -> u32 { 0 }
#[cfg(test)]
mod tests {
    pub fn helper() { let _ = super::Window { len: 0 }; }
}
";

#[test]
fn unused_pub_fixture_trips_hnp05() {
    let root = fixture(
        "hnp05_fires",
        &[
            ("crates/trace/src/lib.rs", LIB),
            ("crates/trace/src/stats.rs", STATS),
            (
                "examples/demo.rs",
                "fn main() { hnp_trace::stats::mean(&[1]); }\n",
            ),
        ],
    );
    let findings = unused_pub(&root);
    let mut names: Vec<&str> = findings
        .iter()
        .map(|f| f.message.split('`').nth(3).unwrap_or_default())
        .collect();
    names.sort_unstable();
    // `mean` is used by the example; the re-export in lib.rs does not
    // count, nor does the test module's use of `Window`. `tail` is used
    // only in its own file; fields, `pub(crate)` and test code are not
    // checked.
    assert_eq!(names, ["Window", "spare", "tail"], "{findings:?}");
    assert!(findings.iter().all(|f| !f.suppressed));
    assert!(findings
        .iter()
        .all(|f| f.file == "crates/trace/src/stats.rs"));
    let tail = findings.iter().find(|f| f.message.contains("`tail`"));
    assert_eq!(tail.map(|f| f.line), Some(3));
}

#[test]
fn unused_pub_is_quiet_once_a_second_file_uses_the_name() {
    let root = fixture(
        "hnp05_quiet",
        &[
            ("crates/trace/src/lib.rs", LIB),
            ("crates/trace/src/stats.rs", STATS),
            (
                "examples/demo.rs",
                "use hnp_trace::stats::{mean, spare, tail, Window};\nfn main() { let _ = (mean(&[1]), tail(&[]), spare(), Window { len: 1 }); }\n",
            ),
        ],
    );
    let findings = unused_pub(&root);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unused_pub_pragma_must_name_the_caller() {
    let stats = "\
// hnp-lint: allow(unused_pub): kept for later
pub fn no_caller_named() {}
// hnp-lint: allow(unused_pub) caller:
pub fn empty_caller() {}
// hnp-lint: allow(unused_pub) caller: an out-of-tree consumer
pub fn caller_named() {}
";
    let root = fixture(
        "hnp05_pragma",
        &[
            ("crates/trace/src/lib.rs", "pub mod stats;\n"),
            ("crates/trace/src/stats.rs", stats),
        ],
    );
    let findings = unused_pub(&root);
    let unsuppressed: Vec<u32> = findings
        .iter()
        .filter(|f| !f.suppressed)
        .map(|f| f.line)
        .collect();
    assert_eq!(unsuppressed, [2, 4], "{findings:?}");
    assert_eq!(findings.iter().filter(|f| f.suppressed).count(), 1);
}
