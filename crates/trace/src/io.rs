//! Trace serialization in a compact binary format (`.hnpt`): a
//! one-line JSON header with the page shift and length, then
//! little-endian `(u64 addr, u16 stream)` records — suitable for
//! multi-million-access traces.
//!
//! All fallible operations return [`TraceError`] rather than
//! panicking.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::access::{Access, Trace};
use crate::error::TraceError;

/// Header of the binary format.
#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    page_shift: u32,
    len: usize,
}

const MAGIC: &str = "hnp-trace";

/// Bytes per record: a `u64` address and a `u16` stream tag.
const RECORD_BYTES: u64 = 10;

/// Writes `trace` to `path` in the binary format.
///
/// # Errors
///
/// Returns any underlying I/O or header-encoding error.
pub fn write_binary(trace: &Trace, path: &Path) -> Result<(), TraceError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let header = Header {
        magic: MAGIC.to_string(),
        version: 1,
        page_shift: trace.page_shift(),
        len: trace.len(),
    };
    serde_json::to_writer(&mut w, &header).map_err(TraceError::Json)?;
    w.write_all(b"\n")?;
    for a in trace.accesses() {
        w.write_all(&a.addr.to_le_bytes())?;
        w.write_all(&a.stream.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a binary-format trace from `path`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on I/O failure, [`TraceError::BadMagic`]
/// / [`TraceError::BadHeader`] / [`TraceError::BadPageShift`] on
/// header problems, and [`TraceError::Truncated`] when the record
/// stream ends early.
pub fn read_binary(path: &Path) -> Result<Trace, TraceError> {
    let file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut header_line = String::new();
    r.read_line(&mut header_line)?;
    let header: Header =
        serde_json::from_str(header_line.trim_end()).map_err(TraceError::BadHeader)?;
    if header.magic != MAGIC {
        return Err(TraceError::BadMagic(header.magic));
    }
    if header.page_shift >= u64::BITS {
        return Err(TraceError::BadPageShift(header.page_shift));
    }
    // The header's `len` is untrusted: reserve only for the records
    // the file can actually hold.
    let in_file = file_bytes.saturating_sub(header_line.len() as u64) / RECORD_BYTES;
    let mut accesses = Vec::with_capacity(header.len.min(in_file as usize));
    let mut addr_bytes = [0u8; 8];
    let mut stream_bytes = [0u8; 2];
    for i in 0..header.len {
        let read = r
            .read_exact(&mut addr_bytes)
            .and_then(|()| r.read_exact(&mut stream_bytes));
        read.map_err(|_| TraceError::Truncated {
            record: i,
            expected: header.len,
        })?;
        accesses.push(Access {
            addr: u64::from_le_bytes(addr_bytes),
            stream: u16::from_le_bytes(stream_bytes),
        });
    }
    Ok(Trace::from_accesses(accesses, header.page_shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Pattern;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hnp-io-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn binary_roundtrip_preserves_trace() {
        let t = Pattern::PointerOffset.generate(1234, 5).with_stream(3);
        let path = temp_path("roundtrip.hnpt");
        write_binary(&t, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let t = Pattern::Stride.generate(100, 0);
        let path = temp_path("truncated.hnpt");
        write_binary(&t, &path).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let err = read_binary(&path).unwrap_err();
        match err {
            TraceError::Truncated { expected, .. } => assert_eq!(expected, 100),
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let path = temp_path("badmagic.hnpt");
        std::fs::write(
            &path,
            b"{\"magic\":\"nope\",\"version\":1,\"page_shift\":12,\"len\":0}\n",
        )
        .unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic(m) if m == "nope"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn huge_header_len_is_truncated_not_a_capacity_overflow() {
        let path = temp_path("hugelen.hnpt");
        std::fs::write(
            &path,
            b"{\"magic\":\"hnp-trace\",\"version\":1,\"page_shift\":12,\"len\":1152921504606846975}\n",
        )
        .unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated { record: 0, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_shift_of_64_or_more_is_a_typed_error() {
        let path = temp_path("badshift.hnpt");
        std::fs::write(
            &path,
            b"{\"magic\":\"hnp-trace\",\"version\":1,\"page_shift\":70,\"len\":0}\n",
        )
        .unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(matches!(err, TraceError::BadPageShift(70)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_maps_to_io() {
        let err = read_binary(Path::new("/nonexistent/hnp-nope.hnpt")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::from_addrs(Vec::new());
        let path = temp_path("empty.hnpt");
        write_binary(&t, &path).unwrap();
        assert_eq!(read_binary(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }
}
