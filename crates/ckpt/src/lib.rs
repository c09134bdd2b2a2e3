//! # nscc-ckpt — deterministic, versioned checkpoints
//!
//! The recovery half of the NSCC story. `Global_Read`'s age bound means a
//! node restored from a snapshot ≤ `age` iterations old is
//! indistinguishable from a legitimately stale peer, so checkpoint/restore
//! is cheap *by construction*: no coordinated global snapshot, no replay —
//! just roll one node back to its last checkpoint and let bounded
//! staleness absorb the seam.
//!
//! This crate is the substrate every layer shares:
//!
//! * [`wire`] — a stable little-endian binary codec ([`Enc`]/[`Dec`])
//!   whose `f64` encoding is the IEEE bit pattern, so restored state is
//!   bit-identical to what was saved;
//! * [`Snapshot`] — the encode/decode trait ga/bayes/dsm/sim/obs types
//!   implement for their own state, all but three of them through
//!   `#[derive(Snapshot)]` (every field, in declaration order);
//! * [`seal`]/[`unseal`] — integrity framing (length + FNV-1a checksum)
//!   so a corrupt checkpoint is rejected with a structured [`CkptError`]
//!   instead of resurrecting garbage state;
//! * [`store`] — a directory of numbered checkpoint generations with
//!   atomic writes and corrupt-generation fallback;
//! * [`json`] — the one JSON module: the reader (reports, event dumps,
//!   fault plans, repros), the writer ([`json::ToJson`] and its derive),
//!   the typed reader ([`json::FromJson`] and its derive) and the string
//!   escape both share;
//! * [`hist`] — the log₂ [`Histogram`] every report carries, written and
//!   read back through [`json`].
//!
//! Std-only apart from the derive: the analyzer (equally light) lists and
//! verifies checkpoint directories without linking the simulator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// The derives behind `json::{ToJson, FromJson}` and `Snapshot`, found under this name
// by cargo and by the frozen `crates/perf/build-offline.sh` alike; the
// generated impls name `::nscc_ckpt`, which this crate derives too.
extern crate self as nscc_ckpt;
extern crate serde_derive;

pub mod cut;
pub mod hist;
pub mod json;
pub mod store;
pub mod wire;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub use cut::{save_cut, CutFrame, GlobalCut};
pub use hist::Histogram;
pub use store::{CkptKind, CkptStore, GenerationInfo};
pub use wire::{fnv1a, Dec, Enc};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 4] = *b"NSCK";

/// Version stamp of the checkpoint layout this build writes. Bump on any
/// encoding change; readers reject anything outside
/// [`MIN_CKPT_VERSION`]`..=`[`CKPT_VERSION`] rather than misinterpret
/// bytes. v2 appended a trailing generation-kind tag (stop-world vs.
/// consistent-cut); v1 files load as stop-world. Each codec byte pin in
/// the tests asserts `(CKPT_VERSION, digest)` as one pair, so a layout
/// change that moves a pin is also asked to bump this.
pub const CKPT_VERSION: u32 = 2;

/// Oldest checkpoint layout this build still reads.
pub const MIN_CKPT_VERSION: u32 = 1;

/// Structured checkpoint failure. Corrupt or truncated data is always one
/// of these — never a panic, never silently-wrong state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The layout version is not the one this build writes.
    BadVersion {
        /// Version found in the data.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The data ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The stored checksum does not match the content.
    Checksum {
        /// Checksum recorded in the frame.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// Structurally invalid content (bad bool byte, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CkptError::BadVersion { found, expected } => {
                write!(f, "checkpoint version {found}, expected {expected}")
            }
            CkptError::Truncated { needed, have } => {
                write!(
                    f,
                    "checkpoint truncated: needed {needed} byte(s), have {have}"
                )
            }
            CkptError::Checksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CkptError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// State that can be checkpointed: a stable binary encoding plus a
/// bounds-checked decode. The contract is exact roundtrip —
/// `decode(encode(x)) == x` — which the restore seams (byte-identical
/// resumed reports, deterministic warm restarts) rely on.
pub trait Snapshot: Sized {
    /// Append this value's encoding to `enc`.
    fn encode(&self, enc: &mut Enc);
    /// Decode one value from `dec`, consuming exactly what `encode` wrote.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError>;
}

/// `#[derive(Snapshot)]`: each field's own [`Snapshot`] impl, in
/// declaration order, with no framing of its own. It takes no attributes
/// and reads none, so `#[json(skip)]` or `#[json(rename)]` never drops a
/// field from a checkpoint.
///
/// ```
/// #[derive(Debug, PartialEq, nscc_ckpt::Snapshot)]
/// struct Tick(u64);
///
/// let bytes = nscc_ckpt::to_bytes(&Tick(5));
/// assert_eq!(bytes, nscc_ckpt::to_bytes(&5u64));
/// assert_eq!(nscc_ckpt::from_bytes::<Tick>(&bytes), Ok(Tick(5)));
/// ```
///
/// Named-field structs and one-field tuple structs only; anything else
/// fails at expansion:
///
/// ```compile_fail
/// #[derive(nscc_ckpt::Snapshot)]
/// enum Mode { Sync, Async }
/// ```
///
/// ```compile_fail
/// #[derive(nscc_ckpt::Snapshot)]
/// struct Wrapped<T> { inner: T }
/// ```
///
/// ```compile_fail
/// #[derive(nscc_ckpt::Snapshot)]
/// struct Pair(u32, u32);
/// ```
pub use serde_derive::Snapshot;

impl Snapshot for u8 {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u8(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        dec.u8()
    }
}

impl Snapshot for u32 {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        dec.u32()
    }
}

impl Snapshot for u64 {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        dec.u64()
    }
}

impl Snapshot for usize {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(*self as u64);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let v = dec.u64()?;
        usize::try_from(v).map_err(|_| CkptError::Malformed(format!("usize overflow: {v}")))
    }
}

impl Snapshot for f64 {
    fn encode(&self, enc: &mut Enc) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        dec.f64()
    }
}

impl Snapshot for bool {
    fn encode(&self, enc: &mut Enc) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        dec.bool()
    }
}

impl Snapshot for String {
    fn encode(&self, enc: &mut Enc) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        dec.str_()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n = dec.u64()?;
        // Cap the pre-allocation by what could possibly fit: corrupt
        // length prefixes must not become gigabyte allocations.
        let mut out = Vec::with_capacity((n as usize).min(dec.remaining().max(16)));
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            b => Err(CkptError::Malformed(format!("Option tag {b}"))),
        }
    }
}

/// A shared value encodes as the value itself (no pointer identity is
/// kept), so the same bytes come out whether a field is owned or shared.
impl<T: Snapshot> Snapshot for Arc<T> {
    fn encode(&self, enc: &mut Enc) {
        T::encode(self, enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        T::decode(dec).map(Arc::new)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

/// A map encodes as a `u64` length, then its `key, value` pairs in
/// ascending key order. Decode takes only that order: a key not greater
/// than the one before it is malformed, so a frame that decodes
/// re-encodes to the same bytes.
impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n = dec.u64()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(dec)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(CkptError::Malformed("map keys out of order".into()));
            }
            let v = V::decode(dec)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// Encode one value to raw bytes (no framing; pair with [`from_bytes`]).
pub fn to_bytes<T: Snapshot>(v: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    v.encode(&mut enc);
    enc.into_bytes()
}

/// Decode one value from raw bytes, requiring full consumption.
pub fn from_bytes<T: Snapshot>(bytes: &[u8]) -> Result<T, CkptError> {
    let mut dec = Dec::new(bytes);
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

/// Wrap a payload in the integrity frame: `len | fnv1a | payload`. This is
/// what in-memory checkpoints (island snapshots) use; [`CkptStore`] adds a
/// file header on top for on-disk generations.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(payload.len() as u64);
    enc.put_u64(fnv1a(payload));
    let mut out = enc.into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Verify and strip the [`seal`] frame, returning the payload.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], CkptError> {
    let mut dec = Dec::new(bytes);
    let len = dec.u64()? as usize;
    let stored = dec.u64()?;
    if dec.remaining() != len {
        return Err(CkptError::Truncated {
            needed: len,
            have: dec.remaining(),
        });
    }
    let payload = &bytes[16..];
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(CkptError::Checksum { stored, computed });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_roundtrip() {
        let v: Vec<(u64, Option<String>, f64)> = vec![
            (1, Some("a".into()), 0.5),
            (2, None, f64::NAN),
            (u64::MAX, Some(String::new()), -0.0),
        ];
        let bytes = to_bytes(&v);
        let back: Vec<(u64, Option<String>, f64)> = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], (1, Some("a".into()), 0.5));
        assert!(back[1].1.is_none() && back[1].2.is_nan());
        assert_eq!(back[2].2.to_bits(), (-0.0f64).to_bits());

        let map = BTreeMap::from([(2u32, "b".to_string()), (1, "a".to_string())]);
        assert_eq!(from_bytes(&to_bytes(&map)), Ok(map));
        // The same layout with a repeated or a descending key is no map
        // `encode` writes, and does not decode to one.
        for keys in [[1u32, 1], [2, 1]] {
            let pairs: Vec<(u32, String)> = keys.iter().map(|k| (*k, k.to_string())).collect();
            assert!(matches!(
                from_bytes::<BTreeMap<u32, String>>(&to_bytes(&pairs)),
                Err(CkptError::Malformed(_))
            ));
        }
    }

    /// JSON attributes, doc comments included, never touch the checkpoint.
    #[derive(Debug, PartialEq, json::ToJson, Snapshot)]
    struct Attributed {
        /// A documented field.
        first: u32,
        #[json(skip)]
        skipped: String,
        #[json(rename = "renamed")]
        last: Option<u64>,
    }

    #[test]
    fn derive_encodes_every_field_in_order_whatever_its_json_attributes() {
        let v = Attributed {
            first: 7,
            skipped: "kept".into(),
            last: Some(9),
        };
        let mut enc = Enc::new();
        enc.put_u32(7);
        enc.put_str("kept");
        enc.put_u8(1);
        enc.put_u64(9);
        let bytes = to_bytes(&v);
        assert_eq!(bytes, enc.into_bytes());
        assert_eq!(from_bytes::<Attributed>(&bytes), Ok(v));
    }

    #[test]
    fn shared_values_encode_as_the_value() {
        let owned: Vec<(u32, Vec<u64>)> = vec![(7, vec![1, 2, 3]), (9, Vec::new())];
        let shared: Vec<(u32, Arc<Vec<u64>>)> = owned
            .iter()
            .map(|(k, v)| (*k, Arc::new(v.clone())))
            .collect();
        assert_eq!(to_bytes(&shared), to_bytes(&owned));
        let back: Vec<(u32, Arc<Vec<u64>>)> = from_bytes(&to_bytes(&owned)).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn seal_roundtrip_and_rejection() {
        let payload = b"island state".to_vec();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).unwrap(), payload.as_slice());

        // One flipped payload bit => checksum error.
        let mut bad = sealed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(unseal(&bad), Err(CkptError::Checksum { .. })));

        // Truncation => truncation error, not a short read.
        assert!(matches!(
            unseal(&sealed[..sealed.len() - 1]),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn from_bytes_rejects_trailing_bytes() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }

    #[test]
    fn errors_display() {
        let e = CkptError::Checksum {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        assert!(CkptError::BadMagic.to_string().contains("magic"));
    }
}
