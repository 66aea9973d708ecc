//! Sparse Hebbian networks and associative memories.
//!
//! This crate is the "brain-inspired" substrate of the HNP project
//! (§3 of the paper):
//!
//! * [`bitset`] — a small fixed-size bitset used for active-unit sets;
//! * [`sparse`] — integer-weighted, sparsely connected layers with the
//!   paper's Eq.-1 Hebbian update;
//! * [`kwta`] — k-winners-take-all sparse activation;
//! * [`network`] — the prefetching Hebbian network: one hidden layer of
//!   1000 neurons, 12.5 % connectivity, 10 % hidden activity, and a
//!   recurrent state for sequence memory;
//! * [`lr`] — Q24 fixed-point learning-rate scales, keeping scaled
//!   (replay) updates on the integer path;
//! * [`assoc`] — pattern separation and Willshaw-style associative
//!   memories modelling the hippocampal fast store.
//!
//! All arithmetic on the inference/training path is integer, matching
//! the Table-2 accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod bitset;
#[cfg(test)]
mod differential;
pub mod kwta;
pub mod lr;
mod memo;
pub mod network;
pub mod sparse;

pub use lr::LrScale;
pub use network::{
    HebbianConfig, HebbianNetwork, HebbianOutcome, NetState, NetStats, Rollout, StateError,
};
