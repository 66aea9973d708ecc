//! Deterministic observability for the HNP simulator stack.
//!
//! Every simulator decision — a demand hit, a miss, an issued or
//! dropped prefetch, outcome feedback, a replay batch, a phase
//! transition, a fault, a degradation-ladder move — is described by a
//! typed [`Event`]. Components emit events through a fan-out
//! [`Registry`] of [`Observer`]s; sinks aggregate them into counters
//! ([`Counters`]), fixed-bucket histograms ([`Histogram`]), or a JSON
//! Lines export stream ([`JsonlExporter`]).
//!
//! ## Determinism contract
//!
//! Observers are strictly read-only taps: an [`Event`] is borrowed,
//! carries only plain integers (no floats — fractional quantities are
//! scaled to `*_milli` fixed-point), and nothing an observer does can
//! flow back into simulator or model state. A run with any observer
//! set attached is therefore bit-identical to a run with none; the
//! memsim property tests pin this. An empty registry costs one
//! `is_empty` check per event.
//!
//! This crate deliberately has **zero dependencies** (std only) so it
//! can sit at layer 0 of the workspace DAG and be used by every crate
//! above it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
mod export;
mod hist;
mod observer;

pub use counters::Counters;
pub use event::{Event, FaultKind, FeedbackKind, Field};
pub use export::{jsonl_kind, jsonl_u64, JsonlExporter};
pub use hist::{Histogram, Metric};
pub use observer::{Observer, Registry};
