//! Proof that HNP05 fires through the public entry point: a fixture
//! workspace on disk, run through `check_workspace`. The per-file
//! fixtures of HNP01-HNP04 (under `tests/fixtures/`) are checked by
//! the unit tests in `src/workspace.rs`.

use std::fs;
use std::path::{Path, PathBuf};

use hnp_lint::rules::Rule;
use hnp_lint::{check_workspace, Finding};

/// A fresh fixture workspace named `name`: one library crate
/// `hnp-trace`, a root package that depends on it, and `files`
/// (written last, so they may replace either manifest).
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
    fs::write(
        root.join("Cargo.toml"),
        "[package]\nname = \"fixture\"\n\n[dependencies]\nhnp-trace = { path = \"crates/trace\" }\n",
    )
    .expect("write fixture root manifest");
    for (path, text) in files {
        let path = root.join(path);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create fixture directory");
        }
        fs::write(path, text).expect("write fixture file");
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

const NN_MANIFEST: &str = "[package]\nname = \"hnp-nn\"\n";

/// Only this crate's tests call `LstmConfig::tiny`.
const NN_LIB: &str = "\
pub struct LstmConfig { pub hidden: usize }
impl LstmConfig {
    pub fn tiny() -> Self { LstmConfig { hidden: 4 } }
}
#[cfg(test)]
mod tests {
    #[test]
    fn tiny_is_small() { assert_eq!(super::LstmConfig::tiny().hidden, 4); }
}
";

const HEBBIAN_MANIFEST: &str =
    "[package]\nname = \"hnp-hebbian\"\n\n[dependencies]\nhnp-nn.workspace = true\n";

/// Depends on `hnp-nn` and defines a `tiny` of its own.
const HEBBIAN_LIB: &str = "\
pub struct HebbianConfig { pub hidden: usize }
impl HebbianConfig {
    pub fn tiny() -> Self { HebbianConfig { hidden: 8 } }
    pub fn like(lstm: &hnp_nn::LstmConfig) -> Self { HebbianConfig { hidden: lstm.hidden } }
}
";

#[test]
fn unused_pub_is_not_hidden_by_a_same_named_item_in_another_crate() {
    let files = |root_manifest, example| {
        [
            ("Cargo.toml", root_manifest),
            ("crates/nn/Cargo.toml", NN_MANIFEST),
            ("crates/nn/src/lib.rs", NN_LIB),
            ("crates/hebbian/Cargo.toml", HEBBIAN_MANIFEST),
            ("crates/hebbian/src/lib.rs", HEBBIAN_LIB),
            ("examples/demo.rs", example),
        ]
    };
    // The example depends on hnp-hebbian only, so its `tiny()` call is
    // `HebbianConfig::tiny`; hnp-hebbian's own `fn tiny` defines a name
    // and uses none. Nothing outside tests calls `LstmConfig::tiny`.
    let root = fixture(
        "hnp05_collision",
        &files(
            "[package]\nname = \"fixture\"\n\n[dependencies]\nhnp-hebbian = { path = \"crates/hebbian\" }\n",
            "use hnp_hebbian::HebbianConfig;\nfn main() { let _ = (HebbianConfig::tiny(), HebbianConfig::like); }\n",
        ),
    );
    let findings = unused_pub(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].file, "crates/nn/src/lib.rs");
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("`tiny`"));

    // Once a dependent of hnp-nn calls it, it is used.
    let root = fixture(
        "hnp05_collision_quiet",
        &files(
            "[package]\nname = \"fixture\"\n\n[dependencies]\nhnp-hebbian.workspace = true\nhnp-nn.workspace = true\n",
            "use hnp_hebbian::HebbianConfig;\nfn main() { let _ = (HebbianConfig::tiny(), HebbianConfig::like, hnp_nn::LstmConfig::tiny()); }\n",
        ),
    );
    let findings = unused_pub(&root);
    assert!(findings.is_empty(), "{findings:?}");
}

/// An accessor whose name is also a common local or field name.
const SLICER: &str = "\
pub struct Slicer { threads: usize }
impl Slicer {
    pub fn new(threads: usize) -> Self { Slicer { threads } }
    pub fn threads(&self) -> usize { self.threads }
}
";

#[test]
fn unused_pub_fn_is_not_hidden_by_a_same_named_local_or_field() {
    let files = |example| {
        [
            ("crates/trace/src/lib.rs", "pub mod slicer;\n"),
            ("crates/trace/src/slicer.rs", SLICER),
            ("examples/demo.rs", example),
        ]
    };
    // `threads` is a local and a field here, never a call: a `fn` is
    // used only where it is called or named by path.
    let root = fixture(
        "hnp05_fn_local",
        &files(
            "use hnp_trace::slicer::Slicer;\nstruct Pool { threads: usize }\nfn main() { let threads = 2; let p = Pool { threads }; let _ = Slicer::new(p.threads); }\n",
        ),
    );
    let findings = unused_pub(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].file, "crates/trace/src/slicer.rs");
    assert_eq!(findings[0].line, 4);
    assert!(findings[0].message.contains("`threads`"));

    // A method call or a path uses it.
    for (name, example) in [
        (
            "hnp05_fn_call",
            "use hnp_trace::slicer::Slicer;\nfn main() { let s = Slicer::new(2); let _ = s.threads(); }\n",
        ),
        (
            "hnp05_fn_path",
            "use hnp_trace::slicer::Slicer;\nfn main() { let _ = (Slicer::new, Slicer::threads); }\n",
        ),
    ] {
        let findings = unused_pub(&fixture(name, &files(example)));
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }
}
