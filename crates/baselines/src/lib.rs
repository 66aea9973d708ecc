//! Comparison prefetchers.
//!
//! * [`simple`] — the non-learning classics: next-N-line, stride
//!   detection, and a Markov correlation table;
//! * [`lstm`] — the paper's deep-learning baseline (§2.1): an online
//!   LSTM delta predictor deployed per Fig. 1;
//! * [`transformer`] — the other prior-DL family §2 cites: a small
//!   decoder-only transformer under the same deployment.
//!
//! All implement [`hnp_memsim::Prefetcher`] and are evaluated by the
//! same simulator as the CLS prefetcher in `hnp-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lstm;
pub mod simple;
pub mod transformer;

pub use lstm::LstmPrefetcher;
pub use simple::{MarkovPrefetcher, NextNPrefetcher, StrideConfig, StridePrefetcher};
pub use transformer::TransformerPrefetcher;
