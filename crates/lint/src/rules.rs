//! The invariant catalog (see DESIGN.md §9).
//!
//! | id    | rule             | scope                                  |
//! |-------|------------------|----------------------------------------|
//! | HNP01 | `determinism`    | core, hebbian, memsim, obs, systems    |
//! | HNP02 | `layering`       | every workspace crate                  |
//! | HNP03 | `panic_hygiene`  | library crates, outside `#[cfg(test)]` |
//! | HNP04 | `integer_purity` | hebbian, outside `#[cfg(test)]`        |
//! | HNP05 | `unused_pub`     | library `src/`, outside `#[cfg(test)]` |
//!
//! Each rule can be suppressed per-line with
//! `// hnp-lint: allow(<rule>)` (covering that line and the next) or
//! per-file with `// hnp-lint: allow-file(<rule>)`. An HNP05 pragma
//! must also name the caller the lint cannot see:
//! `// hnp-lint: allow(unused_pub) caller: <who>`.

use std::collections::BTreeSet;

use crate::tokenizer::{test_spans, LexOutput, Tok, TokKind};
use crate::workspace::{CrateInfo, SourceFile};

/// Rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// HNP01: no wall-clock, entropy seeding, or hash-order iteration
    /// in simulator/model state paths.
    Determinism,
    /// HNP02: the crate graph must follow the layered architecture
    /// with no back-edges, and declare no dependency its code never
    /// names.
    Layering,
    /// HNP03: no `unwrap`/`expect`/`panic!`-family calls in library
    /// code outside tests.
    PanicHygiene,
    /// HNP04: the Hebbian substrate stays integer-pure (Eq. 1 /
    /// Table 2 ops accounting).
    IntegerPurity,
    /// HNP05: no `pub` library item that only its own file or tests
    /// use.
    UnusedPub,
}

impl Rule {
    /// Stable pragma / report name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Layering => "layering",
            Rule::PanicHygiene => "panic_hygiene",
            Rule::IntegerPurity => "integer_purity",
            Rule::UnusedPub => "unused_pub",
        }
    }

    /// Stable short id.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "HNP01",
            Rule::Layering => "HNP02",
            Rule::PanicHygiene => "HNP03",
            Rule::IntegerPurity => "HNP04",
            Rule::UnusedPub => "HNP05",
        }
    }

    /// All rules, in id order.
    pub fn all() -> [Rule; 5] {
        [
            Rule::Determinism,
            Rule::Layering,
            Rule::PanicHygiene,
            Rule::IntegerPurity,
            Rule::UnusedPub,
        ]
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path (or `<crate>/Cargo.toml` for
    /// layering findings).
    pub file: String,
    /// 1-based line (0 when the finding is manifest-level).
    pub line: u32,
    /// Human-readable description with a suggested fix.
    pub message: String,
    /// True when an `hnp-lint: allow(...)` pragma covers it.
    pub suppressed: bool,
}

/// Crates whose runtime state must be bit-reproducible (HNP01).
const DETERMINISM_CRATES: &[&str] = &[
    "hnp-core",
    "hnp-hebbian",
    "hnp-memsim",
    "hnp-obs",
    "hnp-systems",
    "hnp-serve",
];

/// Library crates held to panic hygiene (HNP03). Binaries (`hnp-cli`,
/// `hnp-bench`, `hnp-lint`) may abort on operator error.
const LIBRARY_CRATES: &[&str] = &[
    "hnp-nn",
    "hnp-hebbian",
    "hnp-trace",
    "hnp-obs",
    "hnp-memsim",
    "hnp-core",
    "hnp-systems",
    "hnp-baselines",
    "hnp-serve",
];

/// Crates whose learning/inference arithmetic must be integer-only
/// (HNP04).
const INTEGER_PURE_CRATES: &[&str] = &["hnp-hebbian"];

/// The layered architecture (HNP02): a crate may depend only on
/// crates of a strictly lower layer. Leaves first:
/// `trace/nn/hebbian/lint/obs → memsim → core/baselines →
/// systems/serve → bench → cli`. (`hnp-obs` is a leaf so every layer above it can emit
/// events; `hnp-hebbian` shares its layer and therefore stays
/// observer-free — its stats surface through getters instead.)
const LAYERS: &[(&str, u32)] = &[
    ("hnp-trace", 0),
    ("hnp-nn", 0),
    ("hnp-hebbian", 0),
    ("hnp-lint", 0),
    ("hnp-obs", 0),
    ("hnp-memsim", 1),
    ("hnp-core", 2),
    ("hnp-baselines", 2),
    ("hnp-systems", 3),
    ("hnp-serve", 3),
    ("hnp-bench", 4),
    // hnpctl builds its models through `hnp_serve::ModelKind`; the CLI
    // sits above every library crate it drives.
    ("hnp-cli", 5),
];

fn layer_of(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, l)| l)
}

/// Identifiers banned by HNP01 and the suggested replacement.
const NONDETERMINISTIC_IDENTS: &[(&str, &str)] = &[
    ("Instant", "take tick counts from the simulation clock, not the wall clock"),
    ("SystemTime", "take timestamps from the simulation clock, not the wall clock"),
    ("thread_rng", "use `StdRng::seed_from_u64(cfg.seed)` so runs replay bit-identically"),
    ("from_entropy", "use `StdRng::seed_from_u64(cfg.seed)` so runs replay bit-identically"),
    ("RandomState", "use an order-stable collection (`BTreeMap`/`BTreeSet`)"),
    ("HashMap", "use `BTreeMap` (or collect and sort before iterating): hash order must not reach simulator state; for lookups only, an in-crate open-addressed table (like `hnp_memsim::memory`'s page index) avoids both"),
    ("HashSet", "use `BTreeSet` (or collect and sort before iterating): hash order must not reach simulator state; to count distinct pages use `hnp_trace::footprint_pages`, and for membership only an in-crate open-addressed table, which need neither"),
];

/// Macro names banned by HNP03 (when followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs all token-level rules on one source file of `krate`, appending
/// unsuppressed-yet findings (suppression is applied by the engine).
pub fn check_file(krate: &CrateInfo, rel_path: &str, lexed: &LexOutput, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let in_test = test_spans(toks);
    let name = krate.name.as_str();
    let deterministic = DETERMINISM_CRATES.contains(&name);
    let library = LIBRARY_CRATES.contains(&name);
    let int_pure = INTEGER_PURE_CRATES.contains(&name);

    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if deterministic && t.kind == TokKind::Ident {
            if let Some((_, fix)) = NONDETERMINISTIC_IDENTS
                .iter()
                .find(|(banned, _)| t.text == *banned)
            {
                out.push(Finding {
                    rule: Rule::Determinism,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!("`{}` in a determinism-critical crate: {fix}", t.text),
                    suppressed: false,
                });
            }
        }
        if library && t.kind == TokKind::Ident {
            let method_call = |name: &str| {
                (t.text == name)
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            };
            if method_call("unwrap") || method_call("expect") {
                out.push(Finding {
                    rule: Rule::PanicHygiene,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "`.{}()` in library code: return a typed error or handle the `None`/`Err` arm",
                        t.text
                    ),
                    suppressed: false,
                });
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(Finding {
                    rule: Rule::PanicHygiene,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}!` in library code: return a typed error (asserts with documented contracts are exempt via pragma)",
                        t.text
                    ),
                    suppressed: false,
                });
            }
        }
        if int_pure {
            let is_float_type = t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64");
            let is_float_lit = t.kind == TokKind::FloatLit;
            if is_float_type || is_float_lit {
                out.push(Finding {
                    rule: Rule::IntegerPurity,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "float `{}` in the integer-pure Hebbian substrate: Eq. 1 and the Table-2 ops count assume integer-only weight updates (use `LrScale` fixed-point)",
                        t.text
                    ),
                    suppressed: false,
                });
            }
        }
        // Source-level layering: `use hnp_foo::...` / `hnp_foo::` paths.
        if t.kind == TokKind::Ident && t.text.starts_with("hnp_") {
            let dep = t.text.replace('_', "-");
            if dep != name {
                if let (Some(me), Some(them)) = (layer_of(name), layer_of(&dep)) {
                    if them >= me {
                        out.push(Finding {
                            rule: Rule::Layering,
                            file: rel_path.to_string(),
                            line: t.line,
                            message: format!(
                                "back-edge: `{name}` (layer {me}) references `{dep}` (layer {them}); dependencies must point strictly downward"
                            ),
                            suppressed: false,
                        });
                    }
                }
            }
        }
    }
}

/// Checks one crate's manifest-declared dependency edges (HNP02).
pub fn check_manifest(krate: &CrateInfo, out: &mut Vec<Finding>) {
    let manifest = format!("crates/{}/Cargo.toml", krate.dir_name);
    let Some(me) = layer_of(&krate.name) else {
        out.push(Finding {
            rule: Rule::Layering,
            file: manifest,
            line: 0,
            message: format!(
                "crate `{}` has no layer assignment; add it to LAYERS in crates/lint/src/rules.rs",
                krate.name
            ),
            suppressed: false,
        });
        return;
    };
    for (dep, dev_only) in krate
        .deps
        .iter()
        .map(|d| (d, false))
        .chain(krate.dev_deps.iter().map(|d| (d, true)))
    {
        if !dep.starts_with("hnp-") {
            continue;
        }
        let Some(them) = layer_of(dep) else {
            out.push(Finding {
                rule: Rule::Layering,
                file: manifest.clone(),
                line: 0,
                message: format!(
                    "dependency `{dep}` has no layer assignment; add it to LAYERS in crates/lint/src/rules.rs"
                ),
                suppressed: false,
            });
            continue;
        };
        if them >= me {
            let kind = if dev_only {
                "dev-dependency"
            } else {
                "dependency"
            };
            out.push(Finding {
                rule: Rule::Layering,
                file: manifest.clone(),
                line: 0,
                message: format!(
                    "back-edge: `{}` (layer {me}) declares {kind} `{dep}` (layer {them}); the DAG is trace/nn/hebbian/lint/obs → memsim → core/baselines → systems/serve → bench → cli",
                    krate.name
                ),
                suppressed: false,
            });
        }
    }
}

/// Flags a `[dependencies]` edge whose crate name (`-` → `_`) is not an
/// identifier anywhere in the crate's `src/` files (HNP02): an edge no
/// code uses is deleted, or moved to `[dev-dependencies]` when only
/// tests use it. Dev-dependencies are not checked.
pub fn check_unused_deps(krate: &CrateInfo, sources: &[&LexOutput], out: &mut Vec<Finding>) {
    let idents: BTreeSet<&str> = sources
        .iter()
        .flat_map(|lexed| &lexed.tokens)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    for dep in &krate.deps {
        if idents.contains(dep.replace('-', "_").as_str()) {
            continue;
        }
        out.push(Finding {
            rule: Rule::Layering,
            file: format!("crates/{}/Cargo.toml", krate.dir_name),
            line: 0,
            message: format!(
                "unused dependency: `{}` declares `{dep}` but no file under src/ names it; delete the edge, or move it to [dev-dependencies] if only tests use it",
                krate.name
            ),
            suppressed: false,
        });
    }
}

/// Item keywords whose `pub` definitions HNP05 checks.
const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// Qualifiers that may sit between `pub` and the item keyword.
const ITEM_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// The keyword and name of the item a `pub` token at `i` opens, if it
/// is a plain `pub` (not `pub(crate)`) item of one of [`ITEM_KINDS`].
fn pub_item_name(toks: &[Tok], i: usize) -> Option<(&str, &Tok)> {
    let is_any = |t: &Tok, words: &[&str]| words.iter().any(|w| t.is_ident(w));
    let mut j = i + 1;
    // Skip `const fn`, `unsafe fn`, `extern "C" fn`; `const NAME` stops.
    while toks.get(j).is_some_and(|t| {
        t.kind == TokKind::StrLit
            || is_any(t, ITEM_QUALIFIERS)
                && toks.get(j + 1).is_some_and(|n| {
                    n.kind == TokKind::StrLit || is_any(n, ITEM_KINDS) || is_any(n, ITEM_QUALIFIERS)
                })
    }) {
        j += 1;
    }
    let kind = toks.get(j)?;
    if !is_any(kind, ITEM_KINDS) {
        return None;
    }
    let name = toks.get(j + 1).filter(|n| n.kind == TokKind::Ident)?;
    Some((kind.text.as_str(), name))
}

/// The identifiers one file uses outside `#[cfg(test)]` code, outside
/// re-export statements (`pub use …;`), which name an item without
/// using it, and other than the name an item definition declares
/// (`fn tiny`, `struct Window`).
struct Uses<'a> {
    /// Every such identifier: a use of a type, const or static.
    named: BTreeSet<&'a str>,
    /// Those that are called or named by path: followed by `(` or a
    /// turbofish `::<`, or preceded by `::`. Only these use a `fn`, so
    /// a `threads` local or a `self.dim` field does not hide a
    /// `pub fn threads` or `pub fn dim`.
    called: BTreeSet<&'a str>,
}

/// Collects the [`Uses`] of one lexed file.
fn used_idents(lexed: &LexOutput) -> Uses<'_> {
    let toks = &lexed.tokens;
    let in_test = test_spans(toks);
    let punct = |k: usize, ch: char| toks.get(k).is_some_and(|t| t.is_punct(ch));
    let mut uses = Uses {
        named: BTreeSet::new(),
        called: BTreeSet::new(),
    };
    let mut in_reexport = false;
    for (i, t) in toks.iter().enumerate() {
        if in_reexport {
            in_reexport = !t.is_punct(';');
            continue;
        }
        if t.is_ident("pub") {
            // `pub use` or `pub(crate) use`.
            let after = if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                toks[i + 1..]
                    .iter()
                    .position(|n| n.is_punct(')'))
                    .map(|p| i + p + 2)
            } else {
                Some(i + 1)
            };
            if after
                .and_then(|a| toks.get(a))
                .is_some_and(|n| n.is_ident("use"))
            {
                in_reexport = true;
                continue;
            }
        }
        // `*const T` names `T`; `const T: u8` defines it.
        let defines = i > 0
            && ITEM_KINDS.iter().any(|k| toks[i - 1].is_ident(k))
            && !(i > 1 && toks[i - 2].is_punct('*'));
        if !in_test[i] && t.kind == TokKind::Ident && !defines {
            uses.named.insert(t.text.as_str());
            let called = punct(i + 1, '(')
                || punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<')
                || i >= 2 && punct(i - 1, ':') && punct(i - 2, ':');
            if called {
                uses.called.insert(t.text.as_str());
            }
        }
    }
    uses
}

/// Flags each `pub` item of a library file whose name no *other*
/// file that can see the item uses (HNP05): a `fn` must be called or
/// named by path there, any other item named at all. A file
/// sees the items of its own crate and of the crates its manifest's
/// `[dependencies]` list, so a same-named item elsewhere cannot hide
/// an unused one. Uses inside `#[cfg(test)]` code and re-exports do
/// not count, and `tests/` directories are never read. An item only
/// its own file uses should be private; one nothing outside tests uses
/// should be deleted.
pub(crate) fn check_unused_pub(files: &[SourceFile], out: &mut Vec<Finding>) {
    let used: Vec<Uses> = files.iter().map(|f| used_idents(&f.lexed)).collect();
    for (me, file) in files.iter().enumerate().filter(|(_, f)| f.library) {
        let sees_me = |f: &SourceFile| f.krate == file.krate || f.deps.contains(&file.krate);
        let toks = &file.lexed.tokens;
        let in_test = test_spans(toks);
        for (i, t) in toks.iter().enumerate() {
            if in_test[i] || !t.is_ident("pub") {
                continue;
            }
            let Some((kind, name)) = pub_item_name(toks, i) else {
                continue;
            };
            let elsewhere = used.iter().enumerate().any(|(other, uses)| {
                let idents = if kind == "fn" {
                    &uses.called
                } else {
                    &uses.named
                };
                other != me && sees_me(&files[other]) && idents.contains(name.text.as_str())
            });
            if !elsewhere {
                out.push(Finding {
                    rule: Rule::UnusedPub,
                    file: file.rel.clone(),
                    line: name.line,
                    message: format!(
                        "`pub` item `{}` is used by no other non-test file of its crate or of a crate that depends on it: make it private (or `pub(crate)`), or delete it if only tests use it",
                        name.text
                    ),
                    suppressed: false,
                });
            }
        }
    }
}
