//! Property tests for the binary trace reader: `read_binary` returns
//! a trace or a typed error on arbitrary file contents, and never
//! panics, whatever the header claims.

use std::path::PathBuf;

use hnp_trace::io::read_binary;
use proptest::prelude::*;

/// A per-case scratch file; proptest runs cases one after another.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("hnp-io-prop-{}-{name}.hnpt", std::process::id()));
    std::fs::write(&path, bytes).expect("write scratch trace");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn read_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let path = temp_file("soup", &bytes);
        let _ = read_binary(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_never_panics_on_arbitrary_header_numbers(
        version in any::<u32>(),
        page_shift in any::<u32>(),
        len in any::<u64>(),
        records in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = format!(
            "{{\"magic\":\"hnp-trace\",\"version\":{version},\"page_shift\":{page_shift},\"len\":{len}}}\n"
        )
        .into_bytes();
        bytes.extend_from_slice(&records);
        let path = temp_file("header", &bytes);
        if let Ok(trace) = read_binary(&path) {
            prop_assert!(trace.page_shift() < 64);
            prop_assert!(trace.len() as u64 <= len);
            // Every page is computable without an overflowing shift.
            prop_assert_eq!(trace.pages().count(), trace.len());
        }
        std::fs::remove_file(&path).ok();
    }
}
