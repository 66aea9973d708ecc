//! JSONL / CSV export of the event stream, plus the escape helpers
//! shared by every report writer in the workspace (satellite: one
//! escape/format path).

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{Event, Field};
use crate::observer::Observer;

/// Escapes `s` for inclusion inside a double-quoted JSON string,
/// appending to `out`. Handles quotes, backslashes, and control
/// characters; everything else passes through (the exporters only
/// ever see ASCII labels, but correctness is cheap).
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                let hex = b"0123456789abcdef";
                out.push(hex[(b as usize >> 4) & 0xf] as char);
                out.push(hex[b as usize & 0xf] as char);
            }
            c => out.push(c),
        }
    }
}

/// Quotes a CSV field if (and only if) it contains a comma, quote, or
/// newline, doubling embedded quotes per RFC 4180.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

fn push_field(out: &mut String, f: Field) {
    match f {
        Field::U64(v) => out.push_str(&v.to_string()),
        Field::I64(v) => out.push_str(&v.to_string()),
        Field::Bool(v) => out.push_str(if v { "true" } else { "false" }),
        Field::Str(v) => {
            out.push('"');
            json_escape(v, out);
            out.push('"');
        }
    }
}

/// Renders one event as a single JSON object line
/// (`{"event":"miss","tick":7,...}`).
pub fn event_to_jsonl(ev: &Event) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"event\":\"");
    json_escape(ev.kind().name(), &mut out);
    out.push('"');
    for (name, value) in ev.fields() {
        out.push_str(",\"");
        json_escape(name, &mut out);
        out.push_str("\":");
        push_field(&mut out, value);
    }
    out.push('}');
    out
}

/// Extracts the `"event"` kind from a JSONL line produced by
/// [`event_to_jsonl`]. Returns `None` for malformed lines.
pub fn jsonl_kind(line: &str) -> Option<&str> {
    let rest = line.split_once("\"event\":\"")?.1;
    rest.split_once('"').map(|(kind, _)| kind)
}

/// Extracts an unsigned-integer field from a JSONL line produced by
/// [`event_to_jsonl`]. Returns `None` when the key is absent or the
/// value is not a bare integer.
pub fn jsonl_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = line.split_once(needle.as_str())?.1;
    let digits: &str = rest
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits.parse().ok()
}

/// Buffers the event stream as JSON Lines. Cloneable handle; render
/// with [`render`](JsonlExporter::render) or write via
/// [`ReportSink`](crate::ReportSink).
#[derive(Clone, Default)]
pub struct JsonlExporter {
    lines: Rc<RefCell<Vec<String>>>,
}

impl JsonlExporter {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered lines.
    pub fn len(&self) -> usize {
        self.lines.try_borrow().map(|l| l.len()).unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .try_borrow()
            .map(|l| l.clone())
            .unwrap_or_default()
    }

    /// The whole stream, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Ok(lines) = self.lines.try_borrow() {
            for l in lines.iter() {
                out.push_str(l);
                out.push('\n');
            }
        }
        out
    }
}

impl Observer for JsonlExporter {
    fn on_event(&mut self, ev: &Event) {
        if let Ok(mut l) = self.lines.try_borrow_mut() {
            l.push(event_to_jsonl(ev));
        }
    }
}

/// The fixed CSV schema: `event` plus the union of every payload
/// field, in taxonomy order. Events leave inapplicable columns blank.
pub const CSV_COLUMNS: &[&str] = &[
    "event",
    "tick",
    "step",
    "page",
    "late",
    "stall",
    "arrival",
    "outcome",
    "remaining",
    "replayed",
    "pressure",
    "from",
    "to",
    "novel",
    "domain",
    "fault",
    "at",
    "health_from",
    "health_to",
    "confidence_milli",
    "accuracy_milli",
    "overlap_milli",
    "weight_ops",
    "ticks",
    "accesses",
    "hits",
    "misses",
    "epoch",
    "tenant",
    "shard",
    "depth",
    "batch",
    "processed",
    "queued",
    "bytes",
    "restored",
];

/// Renders one event as a CSV row over [`CSV_COLUMNS`] (without the
/// header).
pub fn event_to_csv(ev: &Event) -> String {
    let fields = ev.fields();
    let mut cells: Vec<String> = Vec::with_capacity(CSV_COLUMNS.len());
    for &col in CSV_COLUMNS {
        if col == "event" {
            cells.push(csv_field(ev.kind().name()));
            continue;
        }
        match fields.iter().find(|&&(name, _)| name == col) {
            Some(&(_, Field::U64(v))) => cells.push(v.to_string()),
            Some(&(_, Field::I64(v))) => cells.push(v.to_string()),
            Some(&(_, Field::Bool(v))) => cells.push(if v { "true" } else { "false" }.to_string()),
            Some(&(_, Field::Str(v))) => cells.push(csv_field(v)),
            None => cells.push(String::new()),
        }
    }
    cells.join(",")
}

/// Buffers the event stream as CSV rows under the fixed
/// [`CSV_COLUMNS`] schema. Cloneable handle like [`JsonlExporter`].
#[derive(Clone, Default)]
pub struct CsvExporter {
    rows: Rc<RefCell<Vec<String>>>,
}

impl CsvExporter {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered data rows (header excluded).
    pub fn len(&self) -> usize {
        self.rows.try_borrow().map(|r| r.len()).unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Header plus all rows, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = CSV_COLUMNS.join(",");
        out.push('\n');
        if let Ok(rows) = self.rows.try_borrow() {
            for r in rows.iter() {
                out.push_str(r);
                out.push('\n');
            }
        }
        out
    }
}

impl Observer for CsvExporter {
    fn on_event(&mut self, ev: &Event) {
        if let Ok(mut r) = self.rows.try_borrow_mut() {
            r.push(event_to_csv(ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FeedbackKind;

    #[test]
    fn jsonl_line_is_flat_and_typed() {
        let line = event_to_jsonl(&Event::Feedback {
            tick: 9,
            page: 4,
            kind: FeedbackKind::Late,
            remaining: 12,
        });
        assert_eq!(
            line,
            r#"{"event":"feedback","tick":9,"page":4,"outcome":"late","remaining":12}"#
        );
        assert_eq!(jsonl_kind(&line), Some("feedback"));
        assert_eq!(jsonl_u64(&line, "remaining"), Some(12));
        assert_eq!(jsonl_u64(&line, "absent"), None);
        // A flat JSON line that is not an event has no kind.
        assert_eq!(jsonl_kind(r#"{"schema":1,"forward_ns":1234}"#), None);
    }

    #[test]
    fn json_escape_handles_specials() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_columns_cover_every_event_field() {
        let samples = [
            Event::Hit { tick: 0, page: 0 },
            Event::Miss {
                tick: 0,
                page: 0,
                late: false,
                stall: 0,
            },
            Event::PrefetchIssued {
                tick: 0,
                page: 0,
                arrival: 0,
            },
            Event::PrefetchDropped { tick: 0, page: 0 },
            Event::Feedback {
                tick: 0,
                page: 0,
                kind: FeedbackKind::Useful,
                remaining: 0,
            },
            Event::ReplayStep {
                step: 0,
                replayed: 0,
                pressure: 0,
            },
            Event::PhaseTransition {
                step: 0,
                from: -1,
                to: 0,
                novel: true,
            },
            Event::Fault {
                tick: 0,
                domain: 0,
                kind: crate::event::FaultKind::Crash,
            },
            Event::Degradation {
                at: 0,
                from: "healthy",
                to: "throttled",
            },
            Event::EpochSummary {
                step: 0,
                confidence_milli: 0,
                accuracy_milli: 0,
                replayed: 0,
                overlap_milli: 0,
                weight_ops: 0,
            },
            Event::RunEnd {
                ticks: 0,
                accesses: 0,
                hits: 0,
                misses: 0,
            },
            Event::ServeEnqueue {
                epoch: 0,
                tenant: 0,
                shard: 0,
                depth: 0,
            },
            Event::ServeShed {
                epoch: 0,
                tenant: 0,
                shard: 0,
            },
            Event::ServeFlush {
                epoch: 0,
                shard: 0,
                batch: 0,
            },
            Event::ShardEpoch {
                epoch: 0,
                shard: 0,
                processed: 0,
                queued: 0,
            },
            Event::Snapshot {
                epoch: 0,
                tenant: 0,
                bytes: 0,
                restored: false,
            },
        ];
        for ev in &samples {
            for (name, _) in ev.fields() {
                assert!(
                    CSV_COLUMNS.contains(&name),
                    "field `{name}` of {:?} missing from CSV_COLUMNS",
                    ev.kind()
                );
            }
            assert!(event_to_csv(ev).split(',').count() >= CSV_COLUMNS.len());
        }
    }

    #[test]
    fn exporters_buffer_in_order() {
        let j = JsonlExporter::new();
        let c = CsvExporter::new();
        let mut js = j.clone();
        let mut cs = c.clone();
        for i in 0..3u64 {
            let ev = Event::Hit { tick: i, page: i };
            js.on_event(&ev);
            cs.on_event(&ev);
        }
        assert_eq!(j.len(), 3);
        assert!(j.lines()[2].contains("\"tick\":2"));
        let csv = c.render();
        assert!(csv.starts_with("event,tick,"));
        assert_eq!(csv.lines().count(), 4, "header + 3 rows");
    }
}
