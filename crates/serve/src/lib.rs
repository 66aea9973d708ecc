//! hnp-serve: a deterministic multi-tenant prefetch serving engine.
//!
//! The paper frames prefetching as a *service* the memory-tiering
//! driver runs on behalf of many concurrent applications; this crate
//! is that serving layer. It hosts one hippocampal-neocortical
//! prefetcher (or baseline) per tenant, shards tenants across worker
//! threads with a seeded placement hash, batches each shard's demand
//! misses through ladder-style admission control, and periodically
//! snapshots every tenant's consolidated cortex so a crashed tenant
//! warm-starts instead of relearning from scratch — consolidation as
//! durability, the same hippocampus→neocortex handoff the paper
//! borrows from CLS theory.
//!
//! The whole engine is byte-deterministic: given the same registry,
//! request stream, and [`ServeConfig`], the report, the snapshot
//! archive, and the emitted `hnp-obs` event stream are bit-identical
//! whether the engine runs on 1, 2, or 8 worker threads. See
//! DESIGN.md §11 for the architecture and the determinism contract.
//!
//! ```
//! use hnp_serve::{
//!     synthesize, ModelKind, PrefetcherFactory, ServeConfig, ServeEngine, TenantRegistry,
//!     TenantSpec,
//! };
//! use hnp_trace::apps::AppWorkload;
//!
//! let mut registry = TenantRegistry::new();
//! for id in 0..4 {
//!     registry.register(TenantSpec {
//!         id,
//!         model: if id % 2 == 0 { ModelKind::Hebbian } else { ModelKind::Stride },
//!         workload: AppWorkload::KvStoreLike,
//!         seed: 7 + id,
//!     });
//! }
//! let requests = synthesize(&registry, 100, 42);
//! let cfg = ServeConfig {
//!     snapshot_interval: 8,
//!     ..ServeConfig::default()
//! }
//! .with_workers(2);
//! let engine = ServeEngine::new(cfg, registry, PrefetcherFactory::new());
//! let outcome = engine.run(&requests);
//! assert_eq!(outcome.report.offered, 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod shard;
mod snapshot;
pub mod tenant;
pub mod workload;

pub use engine::{ServeConfig, ServeEngine, ServeOutcome, ServeReport, ShardReport, TenantReport};
pub use shard::{shard_of, Offer, ShardQueue};
pub use tenant::{ModelKind, PrefetcherFactory, TenantId, TenantModel, TenantRegistry, TenantSpec};
pub use workload::{synthesize, ServeRequest};
