//! Golden-file tests: the exporter wire format is frozen. If these
//! fail, downstream consumers of `events.jsonl` break — change the
//! golden only with a deliberate format bump.

use hnp_obs::{Event, FaultKind, FeedbackKind, JsonlExporter, Observer, Registry};

/// One event of every kind, in taxonomy order, with distinctive
/// payloads so column mix-ups are visible in the diff.
fn sample_stream() -> Vec<Event> {
    vec![
        Event::Hit { tick: 1, page: 10 },
        Event::Miss {
            tick: 2,
            page: 11,
            late: false,
            stall: 100,
        },
        Event::PrefetchIssued {
            tick: 3,
            page: 12,
            arrival: 103,
        },
        Event::PrefetchDropped { tick: 4, page: 13 },
        Event::Feedback {
            tick: 5,
            page: 12,
            kind: FeedbackKind::Late,
            remaining: 42,
        },
        Event::ReplayStep {
            step: 6,
            replayed: 8,
            pressure: 3,
        },
        Event::PhaseTransition {
            step: 7,
            from: -1,
            to: 2,
            novel: true,
        },
        Event::Fault {
            tick: 8,
            domain: 1,
            kind: FaultKind::Crash,
        },
        Event::Degradation {
            at: 9,
            from: "healthy",
            to: "throttled",
        },
        Event::EpochSummary {
            step: 10,
            confidence_milli: 875,
            accuracy_milli: 920,
            replayed: 64,
            overlap_milli: 333,
            weight_ops: 123456,
        },
        Event::RunEnd {
            ticks: 9999,
            accesses: 2000,
            hits: 1500,
            misses: 500,
        },
        Event::ServeEnqueue {
            epoch: 11,
            tenant: 3,
            shard: 2,
            depth: 5,
        },
        Event::ServeShed {
            epoch: 12,
            tenant: 4,
            shard: 1,
        },
        Event::ServeFlush {
            epoch: 13,
            shard: 2,
            batch: 16,
        },
        Event::ShardEpoch {
            epoch: 14,
            shard: 0,
            processed: 32,
            queued: 7,
        },
        Event::Snapshot {
            epoch: 15,
            tenant: 3,
            bytes: 40960,
            restored: true,
        },
    ]
}

#[test]
fn jsonl_export_matches_golden() {
    let reg = Registry::new();
    let jsonl = JsonlExporter::new();
    reg.attach(jsonl.clone());
    for ev in sample_stream() {
        reg.emit(&ev);
    }
    assert_eq!(jsonl.render(), include_str!("golden/events.jsonl"));
}

#[test]
fn kind_names_are_unique_and_snake_case() {
    let names: Vec<&str> = sample_stream().iter().map(Event::name).collect();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len());
    assert!(names
        .iter()
        .all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
}

#[test]
fn golden_jsonl_lines_parse_back() {
    for line in include_str!("golden/events.jsonl").lines() {
        assert!(
            hnp_obs::jsonl_kind(line).is_some(),
            "unparseable line: {line}"
        );
    }
}

/// One-off regeneration helper: `cargo test -p hnp-obs --test golden
/// -- --ignored regen` rewrites the golden from the current format.
#[test]
#[ignore]
fn regen_goldens() {
    let mut jsonl = JsonlExporter::new();
    for ev in sample_stream() {
        jsonl.on_event(&ev);
    }
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/events.jsonl"),
        jsonl.render(),
    )
    .unwrap();
}
