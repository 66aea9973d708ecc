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
//! Both reuse the page-memory substrate of `hnp-memsim` and accept any
//! [`hnp_memsim::Prefetcher`].
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

use hnp_memsim::Prefetcher;
use hnp_obs::{Event, Registry};

/// The single prefetcher notification point of both simulators: every
/// occurrence the prefetcher is entitled to see goes through here as a
/// typed event, mirrored into the observer registry. Observer-only
/// events (misses, issue decisions, non-crash faults) are emitted
/// straight into the registry and never reach the prefetcher.
fn notify(obs: &Registry, prefetcher: &mut dyn Prefetcher, ev: Event) {
    prefetcher.on_event(&ev);
    obs.emit(&ev);
}
