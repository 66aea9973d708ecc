//! End-to-end check of `hnpctl serve-bench` through the binary: the
//! command must succeed, verify the determinism contract across the
//! requested thread counts, write a parseable serve-event JSONL
//! stream, and persist decodable tenant snapshots.

use std::process::Command;

use hnp_obs::{jsonl_kind, jsonl_u64};

#[test]
fn serve_bench_writes_stream_and_snapshots() {
    let dir = std::env::temp_dir().join("hnpctl-serve-bench-test");
    let snaps = dir.join("snapshots");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let events = dir.join("serve-events.jsonl");

    let bin = env!("CARGO_BIN_EXE_hnpctl");
    let out = Command::new(bin)
        .args([
            "serve-bench",
            "--tenants",
            "10",
            "--accesses",
            "120",
            "--threads",
            "1,2",
            "--snapshot-interval",
            "4",
            "--crashes",
            "6:0",
            "--obs",
        ])
        .arg(&events)
        .arg("--snapshot-dir")
        .arg(&snaps)
        .output()
        .expect("serve-bench spawns");
    assert!(
        out.status.success(),
        "serve-bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("outcome identical across thread counts"),
        "determinism check missing from output: {stdout}"
    );

    // Every event line parses; enqueue/shed totals match the offered
    // request count, and the crash shows up as a fault + a restore.
    let text = std::fs::read_to_string(&events).expect("events written");
    let (mut enqueued, mut shed, mut faults, mut restores) = (0u64, 0u64, 0u64, 0u64);
    for line in text.lines() {
        let kind = jsonl_kind(line).unwrap_or_else(|| panic!("unparseable event line: {line}"));
        match kind {
            "serve_enqueue" => enqueued += 1,
            "serve_shed" => shed += 1,
            "fault" => faults += 1,
            "snapshot" => {
                if line.contains("\"restored\":true") {
                    restores += 1;
                }
                assert!(jsonl_u64(line, "bytes").expect("snapshot carries bytes") > 0);
            }
            _ => {}
        }
    }
    assert_eq!(enqueued + shed, 10 * 120, "every offered request accounted");
    assert_eq!(faults, 1, "one scheduled crash");
    assert_eq!(restores, 1, "tenant 0 (Hebbian) warm-starts");

    // Snapshots carry the tenants they were written for.
    let mut decoded = 0u64;
    for entry in std::fs::read_dir(&snaps).expect("snapshot dir written") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let id: u64 = name
            .strip_prefix("tenant-")
            .and_then(|s| s.strip_suffix(".hnpsnap"))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected snapshot file name {name}"));
        let blob = std::fs::read(&path).expect("snapshot readable");
        // The HNPS header (DESIGN.md §11.3): magic, then the tenant id
        // at bytes 8..16, little-endian.
        assert_eq!(&blob[..4], b"HNPS", "{name} is a snapshot");
        let tenant = u64::from_le_bytes(blob[8..16].try_into().expect("8-byte id"));
        assert_eq!(tenant, id, "{name} holds its own tenant's state");
        decoded += 1;
    }
    assert!(decoded > 0, "at least one tenant snapshot persisted");

    let _ = std::fs::remove_dir_all(&dir);
}
