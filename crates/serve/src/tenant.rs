//! Tenants: who is being served, with which model, on which stream.
//!
//! A *tenant* is one independent miss stream with its own prefetcher —
//! a node of the paper's disaggregated cluster or one GPU context of
//! the centralized UVM driver. The registry is the immutable control
//! plane handed to every worker; live model state is built lazily
//! inside the worker that owns the tenant's shard, because prefetcher
//! configs carry a thread-local observer registry and must never cross
//! threads.

use std::collections::BTreeMap;

use hnp_baselines::{
    LstmPrefetcher, LstmPrefetcherConfig, MarkovConfig, MarkovPrefetcher, NextNConfig,
    NextNPrefetcher, StrideConfig, StridePrefetcher,
};
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_hebbian::NetState;
use hnp_memsim::{
    HealthState, MissEvent, NoPrefetcher, PrefetchFeedback, Prefetcher, ResilientPrefetcher,
};
use hnp_trace::apps::AppWorkload;

/// Identifies a tenant across the engine, reports, and snapshots.
pub type TenantId = u64;

/// Which prefetcher family serves a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The full CLS prefetcher (hippocampus + replay + Hebbian cortex).
    Cls,
    /// Hebbian cortex only, no replay (the paper's ablation).
    Hebbian,
    /// Stride detector baseline.
    Stride,
    /// Markov-table baseline.
    Markov,
    /// Next-N-line baseline.
    NextN,
    /// LSTM baseline (the paper's deep-learning comparison point).
    Lstm,
    /// No prefetching (control tenants).
    None,
}

impl ModelKind {
    /// Stable lowercase label used in reports and snapshot headers.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Cls => "cls",
            ModelKind::Hebbian => "hebbian",
            ModelKind::Stride => "stride",
            ModelKind::Markov => "markov",
            ModelKind::NextN => "next-n",
            ModelKind::Lstm => "lstm",
            ModelKind::None => "none",
        }
    }

    /// Integer tag used in the snapshot wire format.
    pub fn tag(self) -> u8 {
        match self {
            ModelKind::Cls => 0,
            ModelKind::Hebbian => 1,
            ModelKind::Stride => 2,
            ModelKind::Markov => 3,
            ModelKind::NextN => 4,
            ModelKind::Lstm => 5,
            ModelKind::None => 6,
        }
    }

    /// Inverse of [`ModelKind::tag`].
    pub fn from_tag(tag: u8) -> Option<ModelKind> {
        Some(match tag {
            0 => ModelKind::Cls,
            1 => ModelKind::Hebbian,
            2 => ModelKind::Stride,
            3 => ModelKind::Markov,
            4 => ModelKind::NextN,
            5 => ModelKind::Lstm,
            6 => ModelKind::None,
            _ => return None,
        })
    }

    /// Parses a CLI-style name (see [`ModelKind::label`]).
    pub fn parse(name: &str) -> Option<ModelKind> {
        Some(match name {
            "cls" | "cls-hebbian" => ModelKind::Cls,
            "hebbian" => ModelKind::Hebbian,
            "stride" => ModelKind::Stride,
            "markov" => ModelKind::Markov,
            "next-n" => ModelKind::NextN,
            "lstm" => ModelKind::Lstm,
            "none" => ModelKind::None,
            _ => return None,
        })
    }
}

/// Immutable description of one tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Tenant identity.
    pub id: TenantId,
    /// Prefetcher family serving this tenant.
    pub model: ModelKind,
    /// Application-like workload shape driving its miss stream.
    pub workload: AppWorkload,
    /// Seed for model construction and trace synthesis.
    pub seed: u64,
}

/// The control plane: every tenant the engine serves, keyed by id.
/// `BTreeMap`-backed so iteration (and therefore every derived
/// schedule) is ordered and deterministic.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    tenants: BTreeMap<TenantId, TenantSpec>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a tenant. Returns `false` (and leaves the registry
    /// unchanged) when the id is already taken.
    pub fn register(&mut self, spec: TenantSpec) -> bool {
        if self.tenants.contains_key(&spec.id) {
            return false;
        }
        self.tenants.insert(spec.id, spec);
        true
    }

    /// Looks up a tenant.
    pub fn get(&self, id: TenantId) -> Option<&TenantSpec> {
        self.tenants.get(&id)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Tenants in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.values()
    }
}

/// Builds per-tenant prefetchers inside worker threads. Stateless
/// (`Send + Sync`); every instance a given spec produces is identical,
/// which is what makes crash-rebuild and thread-count-independence
/// work.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetcherFactory;

impl PrefetcherFactory {
    /// A factory.
    pub fn new() -> Self {
        Self
    }

    /// Builds the live model for `spec`, wrapped in a fresh
    /// [`ResilientPrefetcher`] health ladder.
    pub fn build(&self, spec: &TenantSpec) -> TenantModel {
        match spec.model {
            ModelKind::Cls => TenantModel::Cls(Box::new(ResilientPrefetcher::new(
                ClsPrefetcher::new(ClsConfig::small().with_seed(spec.seed)),
            ))),
            ModelKind::Hebbian => TenantModel::Cls(Box::new(ResilientPrefetcher::new(
                ClsPrefetcher::new(ClsConfig {
                    seed: spec.seed,
                    ..ClsConfig::hebbian_only()
                }),
            ))),
            ModelKind::Stride => TenantModel::boxed(Box::new(StridePrefetcher::with_config(
                StrideConfig::default(),
            ))),
            ModelKind::Markov => TenantModel::boxed(Box::new(MarkovPrefetcher::with_config(
                MarkovConfig::default(),
            ))),
            ModelKind::NextN => TenantModel::boxed(Box::new(NextNPrefetcher::with_config(
                NextNConfig::default(),
            ))),
            ModelKind::Lstm => {
                TenantModel::boxed(Box::new(LstmPrefetcher::new(LstmPrefetcherConfig {
                    seed: spec.seed,
                    ..LstmPrefetcherConfig::default()
                })))
            }
            ModelKind::None => TenantModel::boxed(Box::new(NoPrefetcher)),
        }
    }
}

/// A live, health-wrapped tenant model.
///
/// The CLS variant keeps its concrete type so the snapshot path can
/// reach the Hebbian network state; everything else is served through
/// the trait object.
pub enum TenantModel {
    /// CLS-family model with snapshot-able cortex. Both variants are
    /// boxed: the health-ladder wrapper is large, and the enum would
    /// otherwise pay the biggest variant's size for every tenant.
    Cls(Box<ResilientPrefetcher<ClsPrefetcher>>),
    /// Any other prefetcher.
    Other(Box<ResilientPrefetcher<Box<dyn Prefetcher>>>),
}

impl TenantModel {
    fn boxed(inner: Box<dyn Prefetcher>) -> Self {
        TenantModel::Other(Box::new(ResilientPrefetcher::new(inner)))
    }

    /// Forwards a miss through the health ladder.
    pub fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        match self {
            TenantModel::Cls(m) => m.on_miss(miss),
            TenantModel::Other(m) => m.on_miss(miss),
        }
    }

    /// Forwards prefetch-outcome feedback through the health ladder.
    pub fn on_feedback(&mut self, fb: &PrefetchFeedback) {
        match self {
            TenantModel::Cls(m) => m.on_feedback(fb),
            TenantModel::Other(m) => m.on_feedback(fb),
        }
    }

    /// Current position on the degradation ladder.
    pub fn health(&self) -> HealthState {
        match self {
            TenantModel::Cls(m) => m.state(),
            TenantModel::Other(m) => m.state(),
        }
    }

    /// Captures the consolidated Hebbian state, if this model has any.
    /// See [`hnp_hebbian::HebbianNetwork::export_state`] for the RNG
    /// re-key semantics.
    pub fn export_net_state(&mut self) -> Option<NetState> {
        match self {
            TenantModel::Cls(m) => Some(m.inner_mut().cortex_mut().network_mut().export_state()),
            TenantModel::Other(_) => None,
        }
    }

    /// Restores consolidated Hebbian state captured from an
    /// identically configured tenant. Returns `false` when this model
    /// has no cortex or the state does not fit.
    pub fn import_net_state(&mut self, state: &NetState) -> bool {
        match self {
            TenantModel::Cls(m) => m
                .inner_mut()
                .cortex_mut()
                .network_mut()
                .import_state(state)
                .is_ok(),
            TenantModel::Other(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_duplicate_ids() {
        let mut reg = TenantRegistry::new();
        let spec = TenantSpec {
            id: 7,
            model: ModelKind::Stride,
            workload: AppWorkload::McfLike,
            seed: 1,
        };
        assert!(reg.register(spec));
        assert!(!reg.register(spec));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn model_kind_labels_round_trip() {
        for kind in [
            ModelKind::Cls,
            ModelKind::Hebbian,
            ModelKind::Stride,
            ModelKind::Markov,
            ModelKind::NextN,
            ModelKind::Lstm,
            ModelKind::None,
        ] {
            assert_eq!(ModelKind::parse(kind.label()), Some(kind));
            assert_eq!(ModelKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(ModelKind::from_tag(200), None);
    }

    #[test]
    fn factory_builds_snapshotable_models_only_for_cls_family() {
        let factory = PrefetcherFactory::new();
        let mk = |model| TenantSpec {
            id: 1,
            model,
            workload: AppWorkload::McfLike,
            seed: 3,
        };
        let mut cls = factory.build(&mk(ModelKind::Cls));
        assert!(cls.export_net_state().is_some());
        let mut stride = factory.build(&mk(ModelKind::Stride));
        assert!(stride.export_net_state().is_none());
        assert_eq!(stride.health(), HealthState::Healthy);
    }

    #[test]
    fn rebuilt_model_with_imported_state_matches_original() {
        let factory = PrefetcherFactory::new();
        let spec = TenantSpec {
            id: 1,
            model: ModelKind::Hebbian,
            workload: AppWorkload::McfLike,
            seed: 9,
        };
        let mut original = factory.build(&spec);
        for i in 0..200u64 {
            let miss = MissEvent {
                page: 100 + (i % 8),
                tick: i,
                stream: 0,
            };
            let _ = original.on_miss(&miss);
        }
        let state = original.export_net_state().expect("cls family");
        let mut rebuilt = factory.build(&spec);
        assert!(rebuilt.import_net_state(&state));
        assert_eq!(
            rebuilt.export_net_state(),
            original.export_net_state(),
            "warm-started copy carries the learned cortex"
        );
    }
}
