//! Workspace discovery and the lint engine driver.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{
    check_file, check_manifest, check_unused_deps, check_unused_pub, Finding, Rule,
};
use crate::tokenizer::{lex, LexOutput};

/// One workspace member, as discovered on disk.
#[derive(Debug)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (e.g. `hnp-core`).
    pub name: String,
    /// Directory name under `crates/` (e.g. `core`).
    pub dir_name: String,
    /// `[dependencies]` package names.
    pub deps: Vec<String>,
    /// `[dev-dependencies]` package names.
    pub dev_deps: Vec<String>,
    /// Source files under `src/`, workspace-relative, sorted.
    pub files: Vec<PathBuf>,
    /// True when the crate has a library target (`src/lib.rs`).
    pub library: bool,
}

/// One lexed source file, as HNP05 reads it.
pub(crate) struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Tokens and pragmas.
    pub lexed: LexOutput,
    /// True for a library file (a library crate's `src/`, outside
    /// `main.rs` and `src/bin/`), whose `pub` items HNP05 checks.
    pub library: bool,
}

/// Full engine output.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Crates scanned, in scan order.
    pub crates: Vec<String>,
}

impl Report {
    /// Findings not covered by a pragma.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Count of unsuppressed findings.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Count of pragma-suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.suppressed).count()
    }
}

/// Minimal `Cargo.toml` scan: package name plus the `hnp-*` entries of
/// the dependency sections. (A full TOML parser would be an external
/// dependency; manifests in this workspace are machine-edited and
/// line-oriented.)
fn parse_manifest(text: &str) -> (String, Vec<String>, Vec<String>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut dev_deps = Vec::new();
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                _ => Section::Other,
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            Section::Package if key == "name" => {
                name = value.trim().trim_matches('"').to_string();
            }
            Section::Deps => deps.push(key.trim_end_matches(".workspace").to_string()),
            Section::DevDeps => dev_deps.push(key.trim_end_matches(".workspace").to_string()),
            _ => {}
        }
    }
    (name, deps, dev_deps)
}

/// Prefixes an I/O error with the path it happened at.
fn at(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// reproducible reports.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let entries = fs::read_dir(dir).map_err(at(dir))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Discovers the workspace members under `root/crates/`.
fn discover(root: &Path) -> io::Result<Vec<CrateInfo>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} does not contain a crates/ workspace", root.display()),
        ));
    }
    let entries = fs::read_dir(&crates_dir).map_err(at(&crates_dir))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    let mut crates = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let manifest_path = dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path).map_err(at(&manifest_path))?;
        let (name, deps, dev_deps) = parse_manifest(&manifest);
        let mut files = Vec::new();
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
        let library = src.join("lib.rs").is_file();
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        crates.push(CrateInfo {
            name,
            dir_name,
            deps,
            dev_deps,
            files,
            library,
        });
    }
    Ok(crates)
}

/// Applies pragmas: a `hnp-lint: allow(rule)` comment suppresses
/// findings of that rule on its own line and the next;
/// `allow-file(rule)` suppresses the whole file. An `unused_pub`
/// pragma counts only if it names the caller the lint cannot see
/// (`caller: <who>`).
fn apply_suppressions(
    findings: &mut [Finding],
    rel_path: &str,
    suppressions: &[crate::tokenizer::Suppression],
) {
    for f in findings.iter_mut().filter(|f| f.file == rel_path) {
        let name = f.rule.name();
        for s in suppressions {
            let rule_match = s.rules.iter().any(|r| r == name || r == "all");
            let names_caller = || {
                s.note
                    .split_once("caller:")
                    .is_some_and(|(_, who)| !who.trim().is_empty())
            };
            if !rule_match || f.rule == Rule::UnusedPub && !names_caller() {
                continue;
            }
            if s.whole_file || f.line == s.line || f.line == s.line + 1 {
                f.suppressed = true;
                break;
            }
        }
    }
}

/// Directories outside `crates/` whose files call into the library
/// crates: HNP05 counts their uses but does not lint them.
const CALLER_ROOTS: &[&str] = &["src", "examples", "perfbench/src"];

/// Runs every rule over the workspace at `root`.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let crates = discover(root)?;
    let rel_of = |file: &Path| {
        file.strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let read = |file: &Path| {
        fs::read_to_string(file)
            .map(|text| lex(&text))
            .map_err(at(file))
    };
    let mut findings = Vec::new();
    let mut all_files = Vec::new();
    for krate in &crates {
        check_manifest(krate, &mut findings);
        let first = all_files.len();
        for file in &krate.files {
            let rel = rel_of(file);
            let lexed = read(file)?;
            let before = findings.len();
            check_file(krate, &rel, &lexed, &mut findings);
            apply_suppressions(&mut findings[before..], &rel, &lexed.suppressions);
            let src = root.join("crates").join(&krate.dir_name).join("src");
            let library =
                krate.library && file != &src.join("main.rs") && !file.starts_with(src.join("bin"));
            all_files.push(SourceFile {
                rel,
                lexed,
                library,
            });
        }
        let sources: Vec<&LexOutput> = all_files[first..].iter().map(|f| &f.lexed).collect();
        check_unused_deps(krate, &sources, &mut findings);
    }
    for dir in CALLER_ROOTS
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
    {
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        for file in files {
            all_files.push(SourceFile {
                rel: rel_of(&file),
                lexed: read(&file)?,
                library: false,
            });
        }
    }
    let before = findings.len();
    check_unused_pub(&all_files, &mut findings);
    for file in &all_files {
        apply_suppressions(&mut findings[before..], &file.rel, &file.lexed.suppressions);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned: all_files.len(),
        crates: crates.iter().map(|c| c.name.clone()).collect(),
    })
}

/// Walks upward from `start` to find the workspace root (the first
/// ancestor containing both `Cargo.toml` and `crates/`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    /// Checks a single in-memory file against the rules of crate `name`.
    fn check_source(name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
        let krate = krate(name, &[], &[]);
        let lexed = lex(source);
        let mut findings = Vec::new();
        check_file(&krate, rel_path, &lexed, &mut findings);
        apply_suppressions(&mut findings, rel_path, &lexed.suppressions);
        findings
    }

    /// An in-memory crate with the given dependency edges.
    fn krate(name: &str, deps: &[&str], dev_deps: &[&str]) -> CrateInfo {
        CrateInfo {
            name: name.to_string(),
            dir_name: name.trim_start_matches("hnp-").to_string(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            dev_deps: dev_deps.iter().map(|d| d.to_string()).collect(),
            files: Vec::new(),
            library: true,
        }
    }

    /// Layer-checks an in-memory manifest description (HNP02).
    fn check_manifest_of(name: &str, deps: &[&str], dev_deps: &[&str]) -> Vec<Finding> {
        let mut findings = Vec::new();
        check_manifest(&krate(name, deps, dev_deps), &mut findings);
        findings
    }

    /// Checks an in-memory crate (its `[dependencies]` and the text of
    /// its `src/` files) for unused dependency edges (HNP02).
    fn check_unused_deps_of(name: &str, deps: &[&str], sources: &[&str]) -> Vec<Finding> {
        let lexed: Vec<_> = sources.iter().map(|s| lex(s)).collect();
        let lexed: Vec<_> = lexed.iter().collect();
        let mut findings = Vec::new();
        check_unused_deps(&krate(name, deps, &[]), &lexed, &mut findings);
        findings
    }

    fn count(findings: &[Finding], rule: Rule, suppressed: bool) -> usize {
        findings
            .iter()
            .filter(|f| f.rule == rule && f.suppressed == suppressed)
            .count()
    }

    #[test]
    fn manifest_parser_reads_name_and_dep_sections() {
        let toml = r#"
[package]
name = "hnp-demo"
version.workspace = true

[dependencies]
hnp-trace.workspace = true
serde = { version = "1" }

[dev-dependencies]
hnp-memsim.workspace = true
"#;
        let (name, deps, dev) = parse_manifest(toml);
        assert_eq!(name, "hnp-demo");
        assert_eq!(deps, vec!["hnp-trace", "serde"]);
        assert_eq!(dev, vec!["hnp-memsim"]);
    }

    #[test]
    fn suppression_covers_same_and_next_line_only() {
        let src = "\n// hnp-lint: allow(panic_hygiene)\nlet a = x.unwrap();\nlet b = y.unwrap();\n";
        let findings = check_source("hnp-core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].suppressed, "line after pragma is covered");
        assert!(!findings[1].suppressed, "two lines down is not");
    }

    #[test]
    fn allow_file_suppresses_everything() {
        let src = "// hnp-lint: allow-file(panic_hygiene)\nfn f() { x.unwrap(); y.unwrap(); }\n";
        let findings = check_source("hnp-core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.suppressed));
    }

    #[test]
    fn pragma_for_a_different_rule_does_not_suppress() {
        let src = "// hnp-lint: allow(determinism)\nlet a = x.unwrap();\n";
        let findings = check_source("hnp-core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].suppressed);
    }

    #[test]
    fn determinism_fixture_trips_hnp01() {
        let findings = check_source(
            "hnp-memsim",
            "fixtures/determinism.rs",
            include_str!("../tests/fixtures/determinism.rs"),
        );
        // Instant (x2: use + path + call), HashMap (x2), thread_rng,
        // HashSet — at least one finding per construct kind.
        let det = count(&findings, Rule::Determinism, false);
        assert!(det >= 6, "expected >= 6 determinism findings, got {det}");
        for needle in ["Instant", "HashMap", "HashSet", "thread_rng"] {
            assert!(
                findings.iter().any(|f| f.message.contains(needle)),
                "no finding mentions {needle}"
            );
        }
    }

    #[test]
    fn determinism_rule_only_applies_to_critical_crates() {
        let findings = check_source(
            "hnp-trace",
            "fixtures/determinism.rs",
            include_str!("../tests/fixtures/determinism.rs"),
        );
        assert_eq!(count(&findings, Rule::Determinism, false), 0);
    }

    #[test]
    fn panic_hygiene_fixture_trips_hnp03_outside_tests_only() {
        let findings = check_source(
            "hnp-core",
            "fixtures/panic_hygiene.rs",
            include_str!("../tests/fixtures/panic_hygiene.rs"),
        );
        // unwrap, expect, panic!, unreachable! — and nothing from the
        // #[cfg(test)] module or from unwrap_or.
        assert_eq!(count(&findings, Rule::PanicHygiene, false), 4);
        assert!(findings.iter().all(|f| f.line < 23), "test-mod leak");
    }

    #[test]
    fn panic_hygiene_does_not_apply_to_binaries() {
        let findings = check_source(
            "hnp-cli",
            "fixtures/panic_hygiene.rs",
            include_str!("../tests/fixtures/panic_hygiene.rs"),
        );
        assert_eq!(count(&findings, Rule::PanicHygiene, false), 0);
    }

    #[test]
    fn integer_purity_fixture_trips_hnp04() {
        let findings = check_source(
            "hnp-hebbian",
            "fixtures/integer_purity.rs",
            include_str!("../tests/fixtures/integer_purity.rs"),
        );
        let n = count(&findings, Rule::IntegerPurity, false);
        // f32 (type + cast), f64 (x3), 0.5, 8.0, 2.0 literals.
        assert!(n >= 6, "expected >= 6 purity findings, got {n}");
        // The integer fixed-point variant must be clean.
        assert!(
            !findings.iter().any(|f| (15..=17).contains(&f.line)),
            "fine_integer must not trip"
        );
    }

    #[test]
    fn integer_purity_only_applies_to_hebbian() {
        let findings = check_source(
            "hnp-core",
            "fixtures/integer_purity.rs",
            include_str!("../tests/fixtures/integer_purity.rs"),
        );
        assert_eq!(count(&findings, Rule::IntegerPurity, false), 0);
    }

    #[test]
    fn layering_fixture_trips_hnp02_in_source() {
        let findings = check_source(
            "hnp-memsim",
            "fixtures/layering.rs",
            include_str!("../tests/fixtures/layering.rs"),
        );
        let backs = count(&findings, Rule::Layering, false);
        assert_eq!(backs, 2, "hnp_systems and hnp_core are back-edges");
        assert!(
            !findings.iter().any(|f| f.message.contains("hnp-trace")),
            "downward reference must be fine"
        );
    }

    #[test]
    fn layering_manifest_back_edge_fails() {
        // A back-edge like the acceptance criterion's example: a low layer
        // depending on a higher one.
        let findings = check_manifest_of("hnp-memsim", &["hnp-trace", "hnp-core"], &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("back-edge"));
        // Same-layer edges are back-edges too (keeps the graph acyclic).
        let findings = check_manifest_of("hnp-core", &["hnp-baselines"], &[]);
        assert_eq!(findings.len(), 1);
        // The real edges are clean.
        let findings = check_manifest_of(
            "hnp-systems",
            &["hnp-core", "hnp-baselines", "hnp-memsim", "hnp-trace"],
            &["hnp-trace"],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn layering_flags_an_unused_dependency_edge() {
        let src = "use hnp_memsim::Prefetcher;\nfn f() -> u32 { rand::random() }\n";
        // `rand` and `hnp-memsim` are named (`-` read as `_`); `crossbeam`
        // is not, and a mention in a comment does not count.
        let findings = check_unused_deps_of(
            "hnp-core",
            &["hnp-memsim", "rand", "crossbeam"],
            &[src, "// crossbeam would go here\n"],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::Layering);
        assert!(findings[0].message.contains("unused dependency"));
        assert!(findings[0].message.contains("`crossbeam`"));
        // Every edge used: quiet.
        let findings = check_unused_deps_of("hnp-core", &["hnp-memsim", "rand"], &[src]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn layering_flags_unmapped_crates() {
        let findings = check_manifest_of("hnp-mystery", &[], &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no layer assignment"));
    }

    #[test]
    fn pragma_fixture_suppresses_two_of_three() {
        let findings = check_source(
            "hnp-core",
            "fixtures/pragmas.rs",
            include_str!("../tests/fixtures/pragmas.rs"),
        );
        assert_eq!(count(&findings, Rule::PanicHygiene, true), 2);
        assert_eq!(count(&findings, Rule::PanicHygiene, false), 1);
    }
}
