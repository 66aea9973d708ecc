//! Proof that each rule family actually fires: one fixture file per
//! rule (under `tests/fixtures/`) that must trip it, plus pragma
//! suppression semantics and layering back-edge detection at the
//! manifest level.

use hnp_lint::rules::Rule;
use hnp_lint::workspace::{check_manifest_of, check_source, check_unused_deps_of};

fn count(findings: &[hnp_lint::Finding], rule: Rule, suppressed: bool) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed == suppressed)
        .count()
}

#[test]
fn determinism_fixture_trips_hnp01() {
    let findings = check_source(
        "hnp-memsim",
        "fixtures/determinism.rs",
        include_str!("fixtures/determinism.rs"),
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
        include_str!("fixtures/determinism.rs"),
    );
    assert_eq!(count(&findings, Rule::Determinism, false), 0);
}

#[test]
fn panic_hygiene_fixture_trips_hnp03_outside_tests_only() {
    let findings = check_source(
        "hnp-core",
        "fixtures/panic_hygiene.rs",
        include_str!("fixtures/panic_hygiene.rs"),
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
        include_str!("fixtures/panic_hygiene.rs"),
    );
    assert_eq!(count(&findings, Rule::PanicHygiene, false), 0);
}

#[test]
fn integer_purity_fixture_trips_hnp04() {
    let findings = check_source(
        "hnp-hebbian",
        "fixtures/integer_purity.rs",
        include_str!("fixtures/integer_purity.rs"),
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
        include_str!("fixtures/integer_purity.rs"),
    );
    assert_eq!(count(&findings, Rule::IntegerPurity, false), 0);
}

#[test]
fn layering_fixture_trips_hnp02_in_source() {
    let findings = check_source(
        "hnp-memsim",
        "fixtures/layering.rs",
        include_str!("fixtures/layering.rs"),
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
        include_str!("fixtures/pragmas.rs"),
    );
    assert_eq!(count(&findings, Rule::PanicHygiene, true), 2);
    assert_eq!(count(&findings, Rule::PanicHygiene, false), 1);
}
