//! `ReportSink`: the one place artifacts get written.
//!
//! Figures, the fault-injection reports, and the obs exporters all
//! used to hand-roll directory creation, error handling, and escaping.
//! `ReportSink` centralizes that: create-dir-if-needed, best-effort
//! writes (a read-only filesystem degrades a run to console output,
//! it never aborts one), and one `[artifact] <path>` line per file so
//! harnesses can collect outputs.

use std::fs;
use std::path::{Path, PathBuf};

/// A best-effort artifact writer rooted at one directory.
#[derive(Debug, Clone)]
pub struct ReportSink {
    dir: PathBuf,
}

impl ReportSink {
    /// A sink rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The conventional checked-in results directory (`results/`).
    pub fn results() -> Self {
        Self::new("results")
    }

    /// The conventional experiment scratch directory
    /// (`$CARGO_TARGET_DIR/experiments`, defaulting to
    /// `target/experiments`).
    pub fn experiments() -> Self {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        Self::new(Path::new(&target).join("experiments"))
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `contents` to `<dir>/<name>`, printing an
    /// `[artifact] <path>` marker. Failures are reported to stderr and
    /// swallowed (best effort); returns the path on success.
    pub fn write_text(&self, name: &str, contents: &str) -> Option<PathBuf> {
        let path = self.dir.join(name);
        if let Err(e) = fs::create_dir_all(&self.dir) {
            eprintln!("[report] cannot create {}: {e}", self.dir.display());
            return None;
        }
        match fs::write(&path, contents) {
            Ok(()) => {
                println!("[artifact] {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("[report] cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::export::JsonlExporter;
    use crate::observer::Observer;

    #[test]
    fn writes_under_the_root_and_returns_path() {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        let dir = Path::new(&target).join("obs-report-test");
        let sink = ReportSink::new(&dir);
        let path = sink.write_text("probe.txt", "hello\n").expect("writable");
        assert_eq!(fs::read_to_string(&path).unwrap(), "hello\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_roundtrip_through_sink() {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        let dir = Path::new(&target).join("obs-report-test-jsonl");
        let j = JsonlExporter::new();
        j.clone().on_event(&Event::Hit { tick: 1, page: 2 });
        let sink = ReportSink::new(&dir);
        let path = sink
            .write_text("events.jsonl", &j.render())
            .expect("writable");
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"event\":\"hit\",\"tick\":1,\"page\":2}\n");
        let _ = fs::remove_dir_all(&dir);
    }
}
