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
//! * [`ledger`] — the book of outstanding prefetches every driver
//!   (this simulator, `hnp-systems`, `hnp-serve`) keeps;
//! * [`deltas`] — the bounded delta vocabulary and the translation of
//!   a predicted delta rollout into prefetch pages, shared by the
//!   learned prefetchers;
//! * [`sim`] — the driver loop and metrics (misses removed, accuracy,
//!   coverage, timeliness, pollution).
//!
//! The driver emits a typed `hnp_obs::Event` at every decision point
//! into the registry configured via
//! [`SimConfig::with_observer`](sim::SimConfig::with_observer); the
//! report itself is derived from that event stream, and an empty
//! registry keeps runs bit-identical to unobserved ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod deltas;
pub mod ledger;
pub mod memory;
pub mod prefetcher;
pub mod resilient;
pub mod sim;

pub use checkpoint::CheckpointCursor;
pub use deltas::DeltaVocab;
pub use ledger::PrefetchLedger;
pub use prefetcher::PrefetchFeedback;
pub use prefetcher::{DemuxPrefetcher, MissEvent, NoPrefetcher, Prefetcher};
pub use resilient::{HealthState, ResilientPrefetcher};
pub use sim::{SimConfig, SimReport, Simulator};
