//! Page-granular memory-hierarchy simulator.
//!
//! This crate provides the substrate on which every prefetcher in the
//! HNP project is evaluated, mirroring the paper's Fig.-1 deployment:
//! a local memory holds a bounded set of pages; the miss stream feeds
//! a [`prefetcher::Prefetcher`]; predicted pages are
//! fetched ahead of demand subject to latency and bandwidth limits.
//!
//! * [`memory`] — the resident-page store: an LRU slab with one
//!   open-addressed page index;
//! * [`prefetcher`] — the prefetcher interface and feedback events;
//! * [`ledger`] — the book of outstanding prefetches;
//! * [`residency`] — local memory, outstanding prefetches and the
//!   prefetch-outcome rules, shared by this simulator and both
//!   `hnp-systems` targets, with the one event path ([`Dispatch`]) that
//!   folds each event into a report and tells the model;
//! * [`deltas`] — the bounded delta vocabulary and the translation of
//!   a predicted delta rollout into prefetch pages, shared by the
//!   learned prefetchers;
//! * [`sim`] — the driver loop and metrics (misses removed, accuracy,
//!   coverage, timeliness, pollution).
//!
//! Every driver emits a typed `hnp_obs::Event` at every decision point
//! into the registry configured via
//! [`SimConfig::with_observer`](sim::SimConfig::with_observer) (or the
//! `hnp-systems` configs); each report is derived from that event
//! stream, and an empty registry keeps runs bit-identical to unobserved
//! ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deltas;
pub mod ledger;
pub mod memory;
pub mod prefetcher;
pub mod residency;
pub mod resilient;
pub mod sim;

pub use deltas::DeltaVocab;
pub use ledger::PrefetchLedger;
pub use prefetcher::PrefetchFeedback;
pub use prefetcher::{DemuxPrefetcher, MissEvent, NoPrefetcher, Prefetcher};
pub use residency::{Access, Admit, Dispatch, EventFold, Residency};
pub use resilient::{HealthState, OutcomeWindow, ResilientPrefetcher};
pub use sim::{SimConfig, SimReport, Simulator};
