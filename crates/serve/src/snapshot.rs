//! The versioned snapshot wire format (DESIGN.md §11.3).
//!
//! A snapshot captures one tenant's consolidated Hebbian state — the
//! [`NetState`] exported by the cortex — plus enough metadata to
//! validate a restore: magic, format version, model kind, tenant id.
//! Everything on the wire is a little-endian integer; there are no
//! floats anywhere in the format, matching the workspace integer-
//! purity rule for learned state.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "HNPS"
//! 4       2     version (currently 1)
//! 6       1     model-kind tag (ModelKind::tag)
//! 7       1     reserved (0)
//! 8       8     tenant id
//! 16      8     RNG key
//! 24      40    NetStats: steps, overlap_sum, winner_slots,
//!               weight_updates, update_ops (5 × u64)
//! 64      4+2n  layer-1 weights: count u32, then i16 each
//! …       4+2n  layer-2 weights: count u32, then i16 each
//! …       4+4n  recurrent bits: count u32, then u32 each
//! …       4+4n  previous winners: count u32, then u32 each
//! ```

use hnp_hebbian::{NetState, NetStats};

use crate::tenant::{ModelKind, TenantId};

/// File magic: "HNPS".
pub(crate) const MAGIC: [u8; 4] = *b"HNPS";
/// Current format version.
pub(crate) const VERSION: u16 = 1;

/// Why a snapshot blob could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotError {
    /// The blob is shorter than its headers or length fields claim.
    Truncated,
    /// The magic bytes are not `HNPS`.
    BadMagic,
    /// A version this build does not read.
    BadVersion(u16),
    /// An unknown model-kind tag.
    BadKind(u8),
    /// Trailing bytes after the last section.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a HNPS snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadKind(t) => write!(f, "unknown model-kind tag {t}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

/// A decoded snapshot: header metadata plus the captured state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TenantSnapshot {
    /// Tenant the state belongs to.
    pub tenant: TenantId,
    /// Model family that produced it.
    pub kind: ModelKind,
    /// The consolidated Hebbian state.
    pub state: NetState,
}

/// Encodes `state` for `tenant` into the versioned wire format.
pub(crate) fn encode(tenant: TenantId, kind: ModelKind, state: &NetState) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + 2 * state.layer1_weights.len()
            + 2 * state.layer2_weights.len()
            + 4 * state.recurrent.len()
            + 4 * state.prev_winners.len()
            + 16,
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.tag());
    out.push(0);
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&state.rng_key.to_le_bytes());
    for v in [
        state.stats.steps,
        state.stats.overlap_sum,
        state.stats.winner_slots,
        state.stats.weight_updates,
        state.stats.update_ops,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for weights in [&state.layer1_weights, &state.layer2_weights] {
        out.extend_from_slice(&(weights.len() as u32).to_le_bytes());
        for &w in weights.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    for bits in [&state.recurrent, &state.prev_winners] {
        out.extend_from_slice(&(bits.len() as u32).to_le_bytes());
        for &b in bits.iter() {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    out
}

/// Bounded little-endian reader over a snapshot blob.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn i16_vec(&mut self) -> Result<Vec<i16>, SnapshotError> {
        let n = self.u32()? as usize;
        let s = self.take(n.checked_mul(2).ok_or(SnapshotError::Truncated)?)?;
        Ok(s.chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect())
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.u32()? as usize;
        let s = self.take(n.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        Ok(s.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Decodes a blob produced by [`encode`]. Never panics on malformed
/// input — every failure mode is a typed [`SnapshotError`].
pub(crate) fn decode(buf: &[u8]) -> Result<TenantSnapshot, SnapshotError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let tag = r.u8()?;
    let kind = ModelKind::from_tag(tag).ok_or(SnapshotError::BadKind(tag))?;
    let _reserved = r.u8()?;
    let tenant = r.u64()?;
    let rng_key = r.u64()?;
    let stats = NetStats {
        steps: r.u64()?,
        overlap_sum: r.u64()?,
        winner_slots: r.u64()?,
        weight_updates: r.u64()?,
        update_ops: r.u64()?,
    };
    let layer1_weights = r.i16_vec()?;
    let layer2_weights = r.i16_vec()?;
    let recurrent = r.u32_vec()?;
    let prev_winners = r.u32_vec()?;
    if r.pos != buf.len() {
        return Err(SnapshotError::TrailingBytes);
    }
    Ok(TenantSnapshot {
        tenant,
        kind,
        state: NetState {
            layer1_weights,
            layer2_weights,
            recurrent,
            prev_winners,
            stats,
            rng_key,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_state() -> NetState {
        NetState {
            layer1_weights: vec![-3, 0, 7, 64],
            layer2_weights: vec![1, -1],
            recurrent: vec![2, 9, 31],
            prev_winners: vec![5, 17],
            stats: NetStats {
                steps: 10,
                overlap_sum: 4,
                winner_slots: 20,
                weight_updates: 9,
                update_ops: 1234,
            },
            rng_key: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let state = sample_state();
        let blob = encode(42, ModelKind::Cls, &state);
        let snap = decode(&blob).expect("well-formed blob");
        assert_eq!(snap.tenant, 42);
        assert_eq!(snap.kind, ModelKind::Cls);
        assert_eq!(snap.state, state);
    }

    #[test]
    fn decode_rejects_malformed_headers() {
        let state = sample_state();
        let blob = encode(1, ModelKind::Hebbian, &state);

        assert_eq!(decode(&blob[..3]), Err(SnapshotError::Truncated));

        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), Err(SnapshotError::BadMagic));

        let mut bad_version = blob.clone();
        bad_version[4] = 99;
        assert_eq!(decode(&bad_version), Err(SnapshotError::BadVersion(99)));

        let mut bad_kind = blob.clone();
        bad_kind[6] = 250;
        assert_eq!(decode(&bad_kind), Err(SnapshotError::BadKind(250)));

        let mut trailing = blob.clone();
        trailing.push(0);
        assert_eq!(decode(&trailing), Err(SnapshotError::TrailingBytes));

        let truncated = &blob[..blob.len() - 1];
        assert_eq!(decode(truncated), Err(SnapshotError::Truncated));
    }

    // Property tests: encode/decode is a lossless round trip for
    // arbitrary well-formed state, and `decode` never panics (or
    // over-reads) on arbitrary bytes.

    fn state_from(
        l1: Vec<i16>,
        l2: Vec<i16>,
        recurrent: Vec<u32>,
        winners: Vec<u32>,
        nums: (u64, u64, u64, u64, u64),
        rng_key: u64,
    ) -> NetState {
        NetState {
            layer1_weights: l1,
            layer2_weights: l2,
            recurrent,
            prev_winners: winners,
            stats: NetStats {
                steps: nums.0,
                overlap_sum: nums.1,
                winner_slots: nums.2,
                weight_updates: nums.3,
                update_ops: nums.4,
            },
            rng_key,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn round_trip_is_lossless(
            tenant in any::<u64>(),
            tag in 0u8..9,
            l1 in prop::collection::vec(any::<i16>(), 0..200),
            l2 in prop::collection::vec(any::<i16>(), 0..200),
            recurrent in prop::collection::vec(any::<u32>(), 0..64),
            winners in prop::collection::vec(any::<u32>(), 0..32),
            nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            rng_key in any::<u64>(),
        ) {
            let kind = ModelKind::from_tag(tag).expect("tags 0..9 are all valid");
            let state = state_from(l1, l2, recurrent, winners, nums, rng_key);
            let blob = encode(tenant, kind, &state);
            let snap = decode(&blob).expect("encoded blobs always decode");
            prop_assert_eq!(snap.tenant, tenant);
            prop_assert_eq!(snap.kind, kind);
            prop_assert_eq!(snap.state, state);
        }

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            // Any outcome is fine; panicking or over-reading is not.
            let _ = decode(&bytes);
        }

        #[test]
        fn truncation_is_always_detected(
            tenant in any::<u64>(),
            l1 in prop::collection::vec(any::<i16>(), 0..64),
            l2 in prop::collection::vec(any::<i16>(), 0..64),
            recurrent in prop::collection::vec(any::<u32>(), 0..16),
            winners in prop::collection::vec(any::<u32>(), 0..8),
        ) {
            let state = state_from(l1, l2, recurrent, winners, (1, 2, 3, 4, 5), 6);
            let blob = encode(tenant, ModelKind::Cls, &state);
            // Section lengths are explicit, so every strict prefix is
            // detectably incomplete — never a silent partial decode.
            for cut in 0..blob.len() {
                prop_assert_eq!(decode(&blob[..cut]), Err(SnapshotError::Truncated));
            }
        }
    }
}
