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
//!   Hebbian substrate (Eq. 1 / Table 2 ops accounting);
//! * **HNP05 `unused_pub`** — no `pub` item in a library's `src/` whose
//!   name no other non-test file (under `crates/*/src`, `src/`,
//!   `examples/` or `perfbench/src`) of its own crate or of a crate
//!   that depends on it uses: the surface only tests use is deleted,
//!   the surface only its own file uses is private.
//!
//! Violations that are deliberate carry a
//! `// hnp-lint: allow(<rule>)` pragma with a justification (for
//! HNP05, `caller: <who>` naming the caller the lint cannot see); the
//! report counts suppressions separately so they stay auditable.
//!
//! Run as `cargo run -p hnp-lint`, or through the
//! workspace integration test `crates/lint/tests/workspace_clean.rs`
//! (which is what puts it on the tier-1 `cargo test` path).

pub mod report;
pub mod rules;
pub mod tokenizer;
pub mod workspace;

pub use rules::{Finding, Rule};
pub use workspace::{check_workspace, find_root, Report};
