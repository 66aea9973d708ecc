//! Typed errors for trace serialization.

use std::fmt;

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The binary header's magic string did not match.
    BadMagic(String),
    /// The binary header line failed to parse.
    BadHeader(serde_json::Error),
    /// The binary header's page shift is 64 or more, which leaves no
    /// page bits in a `u64` address.
    BadPageShift(u32),
    /// The record stream ended before `expected` records were read.
    Truncated {
        /// Index of the record that could not be read.
        record: usize,
        /// Record count promised by the header.
        expected: usize,
    },
    /// The binary header failed to encode.
    Json(serde_json::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic(m) => write!(f, "bad trace magic {m:?}"),
            TraceError::BadHeader(e) => write!(f, "bad trace header: {e}"),
            TraceError::BadPageShift(s) => write!(f, "bad trace page shift {s} (must be < 64)"),
            TraceError::Truncated { record, expected } => {
                write!(f, "trace truncated at record {record} of {expected}")
            }
            TraceError::Json(e) => write!(f, "trace JSON error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::BadHeader(e) | TraceError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
