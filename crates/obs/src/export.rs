//! JSONL export of the event stream, plus the line readers `hnpctl`
//! uses to fold an exported stream back up.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{Event, Field};
use crate::observer::Observer;

/// Escapes `s` for inclusion inside a double-quoted JSON string,
/// appending to `out`. Handles quotes, backslashes, and control
/// characters; everything else passes through (the exporters only
/// ever see ASCII labels, but correctness is cheap).
fn json_escape(s: &str, out: &mut String) {
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
fn event_to_jsonl(ev: &Event) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"event\":\"");
    json_escape(ev.name(), &mut out);
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
/// [`JsonlExporter`]. Returns `None` for malformed lines.
pub fn jsonl_kind(line: &str) -> Option<&str> {
    let rest = line.split_once("\"event\":\"")?.1;
    rest.split_once('"').map(|(kind, _)| kind)
}

/// Extracts an unsigned-integer field from a JSONL line produced by
/// [`JsonlExporter`]. Returns `None` when the key is absent or the
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
/// with [`render`](JsonlExporter::render).
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
    fn exporters_buffer_in_order() {
        let j = JsonlExporter::new();
        let mut js = j.clone();
        for i in 0..3u64 {
            js.on_event(&Event::Hit { tick: i, page: i });
        }
        assert_eq!(j.len(), 3);
        assert!(j.lines()[2].contains("\"tick\":2"));
    }
}
