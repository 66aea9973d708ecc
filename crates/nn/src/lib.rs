//! From-scratch neural-network substrate for the HNP project.
//!
//! This crate implements everything the paper's deep-learning baseline
//! needs, with no external ML dependencies:
//!
//! * dense row-major [`matrix::Matrix`] arithmetic,
//! * numerically stable [activations],
//! * an [embedding table](embedding::Embedding),
//! * an [LSTM](lstm) cell and sequence model trained with truncated BPTT,
//! * [post-training INT8 quantization](quant) for the Fig. 2 experiment,
//! * exact [operation accounting](ops) used to regenerate Table 2, and
//! * a small [scoped-thread parallel runtime](parallel) used for the
//!   one-vs-two-thread latency comparison in Fig. 2.
//!
//! The design goal is faithfulness to the paper's measured artifact (an
//! LSTM delta-prediction prefetcher of roughly 170 k parameters) rather
//! than framework generality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activations;
pub mod attention;
pub mod embedding;
pub mod init;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod norm;
pub mod ops;
pub mod parallel;
pub mod quant;
pub mod transformer;

pub use lstm::{LstmConfig, LstmNetwork};
pub use matrix::Matrix;
pub use ops::OpCounts;
pub use transformer::{TransformerConfig, TransformerNetwork};
