//! Target-system simulators for §4 of the paper.
//!
//! Two deployment contexts with opposite constraints:
//!
//! * [`disagg`] — a disaggregated-memory cluster (after MIND/LegoOS):
//!   compute nodes fault one page at a time against a remote pool, so
//!   prefetching is *latency*-oriented, and scarce switch resources
//!   argue for one small prefetcher per node;
//! * [`uvm`] — a CPU-GPU unified-virtual-memory system: lockstep SIMT
//!   execution produces *batches* of concurrent faults handled by a
//!   centralized driver-side prefetcher that sees all streams
//!   interleaved, so prefetching is *throughput*-oriented.
//!
//! Both accept any [`hnp_memsim::Prefetcher`] and keep their pages in
//! `hnp-memsim`'s [`Residency`](hnp_memsim::Residency), the residency
//! model `Simulator` uses too: it owns local memory, the outstanding
//! transfers and every prefetch-outcome rule, and each event reaches
//! the report, the model and observers through one
//! [`Dispatch`](hnp_memsim::Dispatch). The timing models, lockstep
//! retry, fault batching, switch slots and fault handling are each
//! simulator's own.
//!
//! The [`fault`] module adds scripted, seeded fault injection (link
//! spikes, lossy links, brownouts, slowdowns, node crashes) to both
//! simulators; an empty schedule leaves runs bit-identical to the
//! fault-free path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disagg;
pub mod fault;
pub mod uvm;

pub use disagg::{DisaggConfig, DisaggReport, DisaggregatedCluster};
pub use fault::{FaultInjector, FaultKind, FaultSchedule};
pub use uvm::{UvmConfig, UvmReport, UvmSim};
