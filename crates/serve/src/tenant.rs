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
    LstmPrefetcher, MarkovPrefetcher, NextNPrefetcher, StrideConfig, StridePrefetcher,
    TransformerPrefetcher,
};
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_hebbian::NetState;
use hnp_memsim::{
    HealthState, MissEvent, NoPrefetcher, PrefetchFeedback, Prefetcher, ResilientPrefetcher,
};
use hnp_obs::Registry;
use hnp_trace::apps::AppWorkload;

/// Identifies a tenant across the engine, reports, and snapshots.
pub type TenantId = u64;

/// A named prefetcher model: what `hnpctl`, the Fig.-5 harness and
/// the serving engine build from a name. Declared in `MODELS` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// No prefetching (the baseline, and control tenants).
    None,
    /// Stride detector baseline.
    Stride,
    /// Markov-table baseline.
    Markov,
    /// Next-N-line baseline.
    NextN,
    /// LSTM baseline (the paper's deep-learning comparison point).
    Lstm,
    /// Transformer baseline.
    Transformer,
    /// Hebbian cortex only, no replay: Fig. 5's paper series.
    Hebbian,
    /// The full CLS prefetcher (hippocampus + replay + Hebbian cortex)
    /// at its default size: Fig. 5's `cls-hebbian` series.
    ClsHebbian,
    /// The full CLS prefetcher at [`ClsConfig::small`]'s size: serve's
    /// tenant model, 2–4× cheaper to serve than `cls-hebbian` at the
    /// same coverage (DESIGN.md §11.1).
    Cls,
}

/// The one name→model table: every kind with its label and its
/// snapshot tag, one row per kind in declaration order. Tags 0–6 are
/// the `HNPS` wire format's; a new kind takes the next free tag.
const MODELS: [(ModelKind, &str, u8); 9] = [
    (ModelKind::None, "none", 6),
    (ModelKind::Stride, "stride", 2),
    (ModelKind::Markov, "markov", 3),
    (ModelKind::NextN, "next-n", 4),
    (ModelKind::Lstm, "lstm", 5),
    (ModelKind::Transformer, "transformer", 7),
    (ModelKind::Hebbian, "hebbian", 1),
    (ModelKind::ClsHebbian, "cls-hebbian", 8),
    (ModelKind::Cls, "cls", 0),
];

impl ModelKind {
    /// Every kind, in table order.
    pub fn all() -> impl Iterator<Item = ModelKind> {
        MODELS.iter().map(|&(kind, _, _)| kind)
    }

    /// Stable lowercase label used in reports, snapshot headers and on
    /// the command line.
    pub fn label(self) -> &'static str {
        MODELS[self as usize].1
    }

    /// Integer tag used in the snapshot wire format.
    pub fn tag(self) -> u8 {
        MODELS[self as usize].2
    }

    /// Inverse of [`ModelKind::tag`].
    pub fn from_tag(tag: u8) -> Option<ModelKind> {
        MODELS.iter().find(|row| row.2 == tag).map(|row| row.0)
    }

    /// Inverse of [`ModelKind::label`].
    pub fn parse(name: &str) -> Option<ModelKind> {
        MODELS.iter().find(|row| row.1 == name).map(|row| row.0)
    }

    /// The CLS-family kinds' configuration; `None` for the baselines.
    /// `ClsConfig` has no seed, so each is the same network for every
    /// tenant seed.
    fn cls_config(self) -> Option<ClsConfig> {
        match self {
            ModelKind::Hebbian => Some(ClsConfig::hebbian_only()),
            ModelKind::ClsHebbian => Some(ClsConfig::default()),
            ModelKind::Cls => Some(ClsConfig::small()),
            _ => None,
        }
    }

    /// Builds this model with its default configuration. `seed` seeds
    /// the LSTM and transformer weight init; the CLS kinds do not read
    /// it, and emit their replay, phase and epoch events into `obs`.
    pub fn build(self, seed: u64, obs: &Registry) -> Box<dyn Prefetcher> {
        if let Some(cfg) = self.cls_config() {
            return Box::new(ClsPrefetcher::new(ClsConfig {
                obs: obs.clone(),
                ..cfg
            }));
        }
        match self {
            ModelKind::Stride => Box::new(StridePrefetcher::with_config(StrideConfig::default())),
            ModelKind::Markov => Box::new(MarkovPrefetcher::new()),
            ModelKind::NextN => Box::new(NextNPrefetcher::new()),
            ModelKind::Lstm => Box::new(LstmPrefetcher::new(seed)),
            ModelKind::Transformer => Box::new(TransformerPrefetcher::new(seed)),
            // The CLS kinds were built above.
            ModelKind::None | ModelKind::Hebbian | ModelKind::ClsHebbian | ModelKind::Cls => {
                Box::new(NoPrefetcher)
            }
        }
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
        match spec.model.cls_config() {
            Some(cfg) => {
                TenantModel::Cls(Box::new(ResilientPrefetcher::new(ClsPrefetcher::new(cfg))))
            }
            None => TenantModel::Other(Box::new(ResilientPrefetcher::new(
                spec.model.build(spec.seed, &Registry::new()),
            ))),
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
    fn model_table_is_one_consistent_list() {
        let kinds: Vec<ModelKind> = ModelKind::all().collect();
        assert_eq!(kinds.len(), MODELS.len());
        let mut tags = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?} is declared out of table order");
            assert_eq!(ModelKind::parse(kind.label()), Some(kind));
            assert_eq!(ModelKind::from_tag(kind.tag()), Some(kind));
            tags.push(kind.tag());
        }
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len(), "tags are distinct");
        assert_eq!(ModelKind::parse("cls"), Some(ModelKind::Cls));
        assert_eq!(ModelKind::parse("nope"), None);
        assert_eq!(ModelKind::from_tag(200), None);
        // The `HNPS` wire format's tags.
        let wire = [
            ModelKind::Cls,
            ModelKind::Hebbian,
            ModelKind::Stride,
            ModelKind::Markov,
            ModelKind::NextN,
            ModelKind::Lstm,
            ModelKind::None,
        ];
        for (tag, kind) in wire.into_iter().enumerate() {
            assert_eq!(ModelKind::from_tag(tag as u8), Some(kind));
        }
    }

    #[test]
    fn factory_and_build_make_the_same_model() {
        let factory = PrefetcherFactory::new();
        for kind in ModelKind::all() {
            let spec = TenantSpec {
                id: 1,
                model: kind,
                workload: AppWorkload::McfLike,
                seed: 11,
            };
            let mut served = factory.build(&spec);
            let mut built = ResilientPrefetcher::new(kind.build(spec.seed, &Registry::new()));
            let mut issued = 0;
            for i in 0..200u64 {
                let miss = MissEvent {
                    page: 1_000 + (i % 13) * 3 + (i / 50) * 7,
                    tick: i,
                    stream: 0,
                };
                let candidates = served.on_miss(&miss);
                assert_eq!(
                    candidates,
                    built.on_miss(&miss),
                    "{} diverges at miss {i}",
                    kind.label()
                );
                issued += candidates.len();
            }
            assert_eq!(issued == 0, kind == ModelKind::None, "{}", kind.label());
        }
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
