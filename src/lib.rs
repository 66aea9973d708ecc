//! # HNP — Hippocampal-Neocortical Prefetching
//!
//! A from-scratch Rust reproduction of *"Prefetching Using Principles
//! of Hippocampal-Neocortical Interaction"* (HotOS 2023): online
//! memory prefetchers built on Complementary Learning Systems theory —
//! a fast hippocampal episodic store feeding interleaved replay into a
//! slow, sparse Hebbian structure learner — evaluated against the
//! deep-learning (LSTM) baseline the paper compares to.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`nn`] — the neural substrate (matrices, LSTM, quantization);
//! * [`hebbian`] — sparse Hebbian networks (k-WTA, the Eq.-1 update);
//! * [`traces`] — Table-1 patterns and application-like workloads;
//! * [`memsim`] — the page-memory simulator and prefetcher interface;
//! * [`baselines`] — stride/Markov/next-N and the LSTM prefetcher;
//! * [`core`] — the CLS prefetcher (the paper's contribution);
//! * [`systems`] — disaggregated-memory and CPU-GPU UVM simulators.
//!
//! ## Quickstart
//!
//! ```
//! use hnp::core::{ClsConfig, ClsPrefetcher};
//! use hnp::memsim::{NoPrefetcher, SimConfig, Simulator};
//! use hnp::traces::Pattern;
//!
//! // A pointer-chasing workload, memory at 50 % of its footprint.
//! let trace = Pattern::PointerChase.generate(4_000, 7);
//! let sim = Simulator::new(SimConfig::default().sized_to(&trace, 0.5));
//!
//! let baseline = sim.run(&trace, &mut NoPrefetcher);
//! let mut cls = ClsPrefetcher::new(ClsConfig::default());
//! let report = sim.run(&trace, &mut cls);
//!
//! let removed = report.pct_misses_removed(&baseline);
//! assert!(removed > 10.0, "the CLS prefetcher learns the chase: {removed:.1}%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hnp_baselines as baselines;
pub use hnp_core as core;
pub use hnp_hebbian as hebbian;
pub use hnp_memsim as memsim;
pub use hnp_nn as nn;
pub use hnp_systems as systems;
pub use hnp_trace as traces;
