//! Memory-access workloads for the HNP experiments.
//!
//! * [`access`] — the [`access::Trace`] container (raw addresses
//!   plus page geometry);
//! * [`patterns`] — the five Table-1 primitive access patterns;
//! * [`phased`] — phase composition and multi-stream interleaving;
//! * [`apps`] — application-like synthetic workloads standing in for
//!   the paper's TensorFlow / PageRank / mcf / graph500 / key-value
//!   traces (see DESIGN.md for the substitution argument);
//! * [`zipf`] — a Zipf sampler used by the app generators;
//! * [`stats`] — footprints, delta histograms and learnability
//!   diagnostics;
//! * [`io`] — binary trace serialization;
//! * [`error`] — the [`error::TraceError`] type those paths return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod apps;
pub mod error;
pub mod io;
pub mod patterns;
pub mod phased;
pub mod stats;
pub mod zipf;

pub use access::{Access, Trace, PAGE_SHIFT};
pub use error::TraceError;
pub use patterns::Pattern;
