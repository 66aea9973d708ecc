//! Workspace discovery and the lint engine driver.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{check_file, check_manifest, check_unused_deps, Finding};
use crate::tokenizer::lex;

/// Engine errors (I/O, mostly).
#[derive(Debug)]
pub enum LintError {
    /// The root does not look like the hnp workspace.
    NotAWorkspace(PathBuf),
    /// An underlying read failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::NotAWorkspace(p) => {
                write!(f, "{} does not contain a crates/ workspace", p.display())
            }
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

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

/// Recursively collects `.rs` files under `dir`, sorted for
/// reproducible reports.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
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
pub fn discover(root: &Path) -> Result<Vec<CrateInfo>, LintError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    let entries = fs::read_dir(&crates_dir).map_err(|e| LintError::Io(crates_dir.clone(), e))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    let mut crates = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let manifest_path = dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| LintError::Io(manifest_path.clone(), e))?;
        let (name, deps, dev_deps) = parse_manifest(&manifest);
        let mut files = Vec::new();
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
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
        });
    }
    Ok(crates)
}

/// Applies pragmas: a `hnp-lint: allow(rule)` comment suppresses
/// findings of that rule on its own line and the next;
/// `allow-file(rule)` suppresses the whole file.
fn apply_suppressions(
    findings: &mut [Finding],
    rel_path: &str,
    suppressions: &[crate::tokenizer::Suppression],
) {
    for f in findings.iter_mut().filter(|f| f.file == rel_path) {
        let name = f.rule.name();
        for s in suppressions {
            let rule_match = s.rules.iter().any(|r| r == name || r == "all");
            if !rule_match {
                continue;
            }
            if s.whole_file || f.line == s.line || f.line == s.line + 1 {
                f.suppressed = true;
                break;
            }
        }
    }
}

/// Runs every rule over the workspace at `root`.
pub fn check_workspace(root: &Path) -> Result<Report, LintError> {
    let crates = discover(root)?;
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for krate in &crates {
        check_manifest(krate, &mut findings);
        let mut sources = Vec::with_capacity(krate.files.len());
        for file in &krate.files {
            let text = fs::read_to_string(file).map_err(|e| LintError::Io(file.clone(), e))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            let lexed = lex(&text);
            let before = findings.len();
            check_file(krate, &rel, &lexed, &mut findings);
            apply_suppressions(&mut findings[before..], &rel, &lexed.suppressions);
            sources.push(lexed);
            files_scanned += 1;
        }
        check_unused_deps(krate, &sources, &mut findings);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned,
        crates: crates.iter().map(|c| c.name.clone()).collect(),
    })
}

/// Checks a single in-memory file against the rules of crate `name` —
/// the fixture-test entry point.
pub fn check_source(name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    let krate = CrateInfo {
        name: name.to_string(),
        dir_name: name.trim_start_matches("hnp-").to_string(),
        deps: Vec::new(),
        dev_deps: Vec::new(),
        files: Vec::new(),
    };
    let lexed = lex(source);
    let mut findings = Vec::new();
    check_file(&krate, rel_path, &lexed, &mut findings);
    apply_suppressions(&mut findings, rel_path, &lexed.suppressions);
    findings
}

/// Layer-checks an in-memory manifest description — the fixture-test
/// entry point for HNP02.
pub fn check_manifest_of(name: &str, deps: &[&str], dev_deps: &[&str]) -> Vec<Finding> {
    let krate = CrateInfo {
        name: name.to_string(),
        dir_name: name.trim_start_matches("hnp-").to_string(),
        deps: deps.iter().map(|d| d.to_string()).collect(),
        dev_deps: dev_deps.iter().map(|d| d.to_string()).collect(),
        files: Vec::new(),
    };
    let mut findings = Vec::new();
    check_manifest(&krate, &mut findings);
    findings
}

/// Checks an in-memory crate (its `[dependencies]` and the text of its
/// `src/` files) for unused dependency edges — the fixture-test entry
/// point for HNP02's unused-edge check.
pub fn check_unused_deps_of(name: &str, deps: &[&str], sources: &[&str]) -> Vec<Finding> {
    let krate = CrateInfo {
        name: name.to_string(),
        dir_name: name.trim_start_matches("hnp-").to_string(),
        deps: deps.iter().map(|d| d.to_string()).collect(),
        dev_deps: Vec::new(),
        files: Vec::new(),
    };
    let lexed: Vec<_> = sources.iter().map(|s| lex(s)).collect();
    let mut findings = Vec::new();
    check_unused_deps(&krate, &lexed, &mut findings);
    findings
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

#[allow(unused_imports)]
pub use crate::rules::{Finding as RuleFinding, Rule as RuleKind};

#[cfg(test)]
mod tests {
    use super::*;

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
}
