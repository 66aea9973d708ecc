//! # hnp-lint — workspace invariant checker
//!
//! The reproduction's headline numbers (Fig. 3 interference/replay
//! curves, Fig. 5 online accuracy, the bit-identical no-fault
//! property) are only trustworthy if every simulator run is
//! deterministic and the Hebbian path stays integer-pure. `hnp-lint`
//! machine-checks those conventions so refactors can't silently break
//! them:
//!
//! * **HNP01 `determinism`** — no wall-clock reads, entropy-seeded
//!   RNGs, or hash-ordered collections in `core`/`hebbian`/`memsim`/
//!   `systems`;
//! * **HNP02 `layering`** — the crate graph stays the acyclic
//!   `trace/nn/hebbian/lint → memsim → core/baselines → systems →
//!   bench/cli`, checked both in manifests and in source paths, and
//!   declares no `[dependencies]` edge its `src/` never names;
//! * **HNP03 `panic_hygiene`** — no `unwrap`/`expect`/`panic!`-family
//!   calls in library crates outside `#[cfg(test)]`;
//! * **HNP04 `integer_purity`** — no `f32`/`f64` arithmetic in the
//!   Hebbian substrate (Eq. 1 / Table 2 ops accounting).
//!
//! Violations that are deliberate carry a
//! `// hnp-lint: allow(<rule>)` pragma with a justification; the
//! report counts suppressions separately so they stay auditable.
//!
//! Run as `cargo run -p hnp-lint`, `hnpctl lint`, or through the
//! workspace integration test `crates/lint/tests/workspace_clean.rs`
//! (which is what puts it on the tier-1 `cargo test` path).

pub mod report;
pub mod rules;
pub mod tokenizer;
pub mod workspace;

pub use rules::{Finding, Rule};
pub use workspace::{check_source, check_workspace, find_root, LintError, Report};
