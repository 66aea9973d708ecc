//! Satellite determinism contract: the serving engine's report,
//! snapshot archive, and emitted event stream are bit-identical at 1,
//! 2, 3, and 8 worker threads (3 splits the 8 shards unevenly).

use hnp_obs::{JsonlExporter, Registry};
use hnp_serve::{
    synthesize, ModelKind, PrefetcherFactory, ServeConfig, ServeEngine, TenantRegistry, TenantSpec,
};
use hnp_trace::apps::AppWorkload;

fn registry(tenants: u64) -> TenantRegistry {
    let kinds = [
        ModelKind::Hebbian,
        ModelKind::Cls,
        ModelKind::Stride,
        ModelKind::Markov,
        ModelKind::NextN,
    ];
    let loads = [
        AppWorkload::McfLike,
        AppWorkload::KvStoreLike,
        AppWorkload::TensorFlowLike,
        AppWorkload::Graph500Like,
    ];
    let mut reg = TenantRegistry::new();
    for id in 0..tenants {
        reg.register(TenantSpec {
            id,
            model: kinds[id as usize % kinds.len()],
            workload: loads[id as usize % loads.len()],
            seed: 4000 + id,
        });
    }
    reg
}

/// One full run at the given worker count, with snapshots and a
/// mid-run crash, capturing the JSONL event stream.
fn run(workers: usize) -> (String, hnp_serve::ServeReport, Vec<(u64, Vec<u8>)>) {
    let reg = registry(12);
    let requests = synthesize(&reg, 120, 77);
    let obs = Registry::new();
    let jsonl = JsonlExporter::new();
    obs.attach(jsonl.clone());
    let cfg = ServeConfig {
        snapshot_interval: 3,
        ..ServeConfig::default()
    }
    .with_workers(workers)
    .with_crash(4, 0)
    .with_crash(6, 5)
    .with_observer(obs);
    let engine = ServeEngine::new(cfg, reg, PrefetcherFactory::new());
    let out = engine.run(&requests);
    let archive: Vec<(u64, Vec<u8>)> = out.archive.into_iter().collect();
    (jsonl.render(), out.report, archive)
}

#[test]
fn bit_identical_across_1_2_8_workers() {
    let (events1, report1, archive1) = run(1);
    assert!(!events1.is_empty());
    assert!(report1.processed > 0);
    assert!(!archive1.is_empty());
    for workers in [2, 3, 8] {
        let (events, report, archive) = run(workers);
        assert_eq!(report, report1, "report differs at {workers} workers");
        assert_eq!(archive, archive1, "archive differs at {workers} workers");
        assert_eq!(events, events1, "event stream differs at {workers} workers");
    }
}

#[test]
fn crash_warm_start_is_observable_in_the_stream() {
    let (events, report, _) = run(1);
    assert_eq!(report.crashes, 2);
    // Tenants 0 and 5 both hash onto the Hebbian model family
    // (id % 5 == 0), so both have snapshots to warm-start from.
    assert_eq!(report.restores, 2);
    assert!(events.contains("\"restored\":true"));
    assert!(events.contains("\"event\":\"fault\""));
    assert!(events.contains("\"event\":\"serve_flush\""));
    assert!(events.contains("\"event\":\"shard_epoch\""));
}

#[test]
fn shed_requests_are_accounted_not_lost() {
    let reg = registry(16);
    let requests = synthesize(&reg, 200, 5);
    // Tiny queues + tiny batches force the admission ladder to shed.
    let cfg = ServeConfig {
        shards: 4,
        queue_depth: 8,
        flush_per_shard: 4,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(cfg, reg, PrefetcherFactory::new());
    let out = engine.run(&requests);
    let r = out.report;
    assert!(r.shed > 0, "expected shedding under overload");
    assert_eq!(r.admitted + r.shed, r.offered);
    assert_eq!(r.processed, r.admitted);
    let shard_shed: u64 = r.shards.iter().map(|s| s.shed).sum();
    assert_eq!(shard_shed, r.shed);
}
