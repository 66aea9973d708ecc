//! Golden-file test: one small serving run's event stream, report and
//! snapshot archive are frozen. `determinism.rs` only compares worker
//! counts with each other; this pins the output itself, so a change
//! that moves every worker count alike still fails here.
//!
//! The run sheds requests, takes periodic snapshots on two shards,
//! warm-starts two crashed tenants in one epoch, rebuilds one cold,
//! ignores a crash scheduled past the last epoch, and ends with the
//! closing snapshot pass.

use hnp_obs::{JsonlExporter, Registry};
use hnp_serve::{
    synthesize, ModelKind, PrefetcherFactory, ServeConfig, ServeEngine, TenantRegistry, TenantSpec,
};
use hnp_trace::apps::AppWorkload;

/// FNV-1a over a snapshot blob: the archive is pinned by length and
/// fingerprint, not by its bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The golden run at `workers` worker threads: the JSONL event stream
/// and the report's `Debug` text followed by one archive line per
/// tenant.
fn golden_run(workers: usize) -> (String, String) {
    let kinds = [
        ModelKind::Hebbian,
        ModelKind::Hebbian,
        ModelKind::Stride,
        ModelKind::Markov,
    ];
    let loads = [AppWorkload::McfLike, AppWorkload::KvStoreLike];
    let mut reg = TenantRegistry::new();
    for id in 0..6u64 {
        reg.register(TenantSpec {
            id,
            model: kinds[id as usize % kinds.len()],
            workload: loads[id as usize % loads.len()],
            seed: 300 + id,
        });
    }
    let requests = synthesize(&reg, 40, 11);
    let obs = Registry::new();
    let jsonl = JsonlExporter::new();
    obs.attach(jsonl.clone());
    let cfg = ServeConfig {
        shards: 3,
        queue_depth: 8,
        flush_per_shard: 4,
        snapshot_interval: 3,
        ..ServeConfig::default()
    }
    .with_workers(workers)
    .with_crash(2, 1)
    .with_crash(7, 5)
    .with_crash(7, 0)
    .with_crash(1000, 2)
    .with_observer(obs);
    let out = ServeEngine::new(cfg, reg, PrefetcherFactory::new()).run(&requests);
    let mut report = format!("{:#?}\n", out.report);
    for (tenant, blob) in &out.archive {
        report += &format!(
            "archive tenant={tenant} bytes={} fnv1a={:016x}\n",
            blob.len(),
            fnv1a(blob)
        );
    }
    (jsonl.render(), report)
}

#[test]
fn serve_run_matches_golden() {
    for workers in [1, 2, 3] {
        let (events, report) = golden_run(workers);
        assert_eq!(
            report,
            include_str!("golden/report.txt"),
            "report at {workers} workers"
        );
        assert_eq!(
            events,
            include_str!("golden/events.jsonl"),
            "events at {workers} workers"
        );
    }
}

#[test]
fn golden_run_covers_every_engine_path() {
    let (events, report) = golden_run(1);
    assert!(events.contains("\"event\":\"serve_shed\""), "sheds");
    assert!(events.contains("\"restored\":true"), "warm-starts");
    assert!(events.contains("\"restored\":false"), "snapshots");
    let last_epoch = events
        .lines()
        .filter(|l| hnp_obs::jsonl_kind(l) == Some("shard_epoch"))
        .filter_map(|l| hnp_obs::jsonl_u64(l, "epoch"))
        .max()
        .unwrap();
    let closing = events
        .lines()
        .rev()
        .find(|l| l.contains("\"restored\":false"));
    assert_eq!(
        closing.and_then(|l| hnp_obs::jsonl_u64(l, "epoch")),
        Some(last_epoch + 1),
        "the stream ends with the closing snapshot pass"
    );
    assert!(report.contains("archive tenant=0"));
}

/// Regeneration helper: `cargo test -p hnp-serve --test golden --
/// --ignored regen` rewrites both goldens from the current engine.
#[test]
#[ignore]
fn regen_goldens() {
    let (events, report) = golden_run(1);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(format!("{dir}/events.jsonl"), events).unwrap();
    std::fs::write(format!("{dir}/report.txt"), report).unwrap();
}
