//! Experiment output: printed tables plus JSON artifacts.
//!
//! Artifact writing goes through [`hnp_obs::ReportSink`], the
//! workspace-wide writer: one `[artifact] <path>` marker per file,
//! best-effort semantics (a read-only filesystem degrades a run to
//! console output, it never aborts one).

use hnp_obs::ReportSink;
use serde::Serialize;

/// Serializes `value` to `target/experiments/<id>.json`. Prints the
/// path on success; errors are reported and swallowed (see
/// [`ReportSink::write_text`]).
pub fn write_json<T: Serialize>(id: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            ReportSink::experiments().write_text(&format!("{id}.json"), &s);
        }
        Err(e) => eprintln!("warning: cannot serialize {id}: {e}"),
    }
}

/// Prints a rule-of-dashes header for a table.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Reads a `usize` from argv position `i` (after the binary name) or
/// an environment variable, falling back to `default`.
pub fn arg_or(i: usize, env: &str, default: usize) -> usize {
    if let Some(v) = std::env::args().nth(i) {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    if let Ok(v) = std::env::var(env) {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_creates_artifact() {
        #[derive(Serialize)]
        struct T {
            x: u32,
        }
        write_json("unit-test-artifact", &T { x: 7 });
        let path = ReportSink::experiments()
            .dir()
            .join("unit-test-artifact.json");
        let text = std::fs::read_to_string(&path).expect("artifact written");
        assert!(text.contains("\"x\": 7"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn arg_or_falls_back_to_default() {
        assert_eq!(arg_or(99, "HNP_UNSET_ENV_VAR", 42), 42);
    }
}
