//! gr-snap — versioned, dependency-free binary snapshots and the
//! state-hash audit ladder.
//!
//! Every stateful layer of the simulator (timing wheel, RNG streams, DCF
//! state machines, TCP/UDP endpoints, misbehavior detectors) serializes
//! itself through this crate so a run can be checkpointed mid-flight and
//! resumed to a byte-identical finish. Three pieces:
//!
//! * a little-endian binary codec ([`Enc`]/[`Dec`]) with a magic/version
//!   header, so stale snapshots fail loudly instead of misparsing;
//! * the [`SnapValue`] trait (save/load by value) and the [`SnapState`]
//!   trait (save/restore in place, for layers whose wiring — trait
//!   objects, shared cells — is rebuilt from configuration rather than
//!   deserialized);
//! * the [`audit`] module: rolling FNV-1a digests of each layer's
//!   encoded state, sampled at virtual-time barriers into a *ladder*
//!   that two runs can diff layer-by-layer to localize the first
//!   divergent event.
//!
//! The format is deliberately free of external dependencies: snapshots
//! must stay readable by any future toolchain this workspace builds
//! offline.
//!
//! # Examples
//!
//! ```
//! use gr_snap::{Dec, Enc, SnapValue};
//!
//! let mut w = Enc::new();
//! (42u64, String::from("wheel")).save(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = Dec::new(&bytes);
//! let (n, s) = <(u64, String)>::load(&mut r)?;
//! assert_eq!((n, s.as_str()), (42, "wheel"));
//! # Ok::<(), gr_snap::SnapError>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

pub mod audit;

/// Magic bytes opening every snapshot container.
pub const MAGIC: &[u8; 6] = b"GRSNAP";

/// Current snapshot format version. Bump on any incompatible layout
/// change; readers reject mismatched versions instead of misparsing.
/// Version 2: pluggable congestion control (tagged controller state and
/// an RTT estimator inside the TCP sender, `cc` field in `Scenario`).
/// Version 3: detection-science window tracking (optional `WindowTrack`
/// appended to both GRC guard reports, `grc_windows` field in
/// `Scenario`).
/// Version 4: the network's frame arena keeps only frames that can still
/// overlap a pending reception, and the longest airtime so far
/// (`max_air`) follows it; the per-node transmission history is gone.
pub const FORMAT_VERSION: u16 = 4;

/// Errors arising while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the expected data.
    Eof,
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// Structurally invalid data (bad discriminant, impossible length…).
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a gr-snap container (bad magic)"),
            SnapError::BadVersion { found } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads {FORMAT_VERSION})"
            ),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Little-endian binary encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Creates an encoder that already carries the container header
    /// ([`MAGIC`] + [`FORMAT_VERSION`]).
    pub fn with_header() -> Self {
        let mut e = Enc::new();
        e.buf.extend_from_slice(MAGIC);
        e.u16(FORMAT_VERSION);
        e
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` via its exact bit pattern (`to_bits`), so values
    /// round-trip bit-for-bit, NaN payloads included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes_slice(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes_slice(v.as_bytes());
    }
}

/// Little-endian binary decoder over a borrowed buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Creates a decoder that first validates the container header.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`] or [`SnapError::BadVersion`] when the
    /// buffer was not written by a compatible [`Enc::with_header`].
    pub fn with_header(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut d = Dec::new(buf);
        if d.take(MAGIC.len())? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let found = d.u16()?;
        if found != FORMAT_VERSION {
            return Err(SnapError::BadVersion { found });
        }
        Ok(d)
    }

    /// Bytes remaining to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`; rejects values that do not fit).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes_slice(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let raw = self.bytes_slice()?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }
}

/// A value that can be written to and re-read from a snapshot.
///
/// Implement this for plain-data types (events, segments, frames,
/// handles). Layers that cannot be reconstructed by value — they hold
/// trait objects or shared cells rebuilt from configuration — implement
/// [`SnapState`] instead.
pub trait SnapValue: Sized {
    /// Serializes `self`.
    fn save(&self, w: &mut Enc);
    /// Deserializes one value.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from the underlying decoder, or
    /// [`SnapError::Corrupt`] for invalid discriminants.
    fn load(r: &mut Dec) -> Result<Self, SnapError>;
}

/// A stateful layer that saves and restores *in place*.
///
/// `snap_restore` overwrites the mutable state of an already-constructed
/// value: the caller rebuilds wiring (observers, recorders, shared
/// report cells) from configuration, then restores the dynamic state on
/// top. The default [`SnapState::snap_digest`] hashes the layer's
/// canonical encoding — the audit ladder's per-layer digest.
pub trait SnapState {
    /// Serializes the mutable state.
    fn snap_save(&self, w: &mut Enc);
    /// Overwrites the mutable state from a snapshot.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from the underlying decoder.
    fn snap_restore(&mut self, r: &mut Dec) -> Result<(), SnapError>;
    /// FNV-1a digest of the canonical encoding.
    fn snap_digest(&self) -> u64 {
        let mut w = Enc::new();
        self.snap_save(&mut w);
        fnv1a(w.bytes())
    }
}

macro_rules! snap_prim {
    ($ty:ty, $wr:ident, $rd:ident) => {
        impl SnapValue for $ty {
            fn save(&self, w: &mut Enc) {
                w.$wr(*self);
            }
            fn load(r: &mut Dec) -> Result<Self, SnapError> {
                r.$rd()
            }
        }
    };
}

snap_prim!(u8, u8, u8);
snap_prim!(u16, u16, u16);
snap_prim!(u32, u32, u32);
snap_prim!(u64, u64, u64);
snap_prim!(usize, usize, usize);
snap_prim!(f64, f64, f64);
snap_prim!(bool, bool, bool);

impl SnapValue for String {
    fn save(&self, w: &mut Enc) {
        w.str(self);
    }
    fn load(r: &mut Dec) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: SnapValue> SnapValue for Option<T> {
    fn save(&self, w: &mut Enc) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Dec) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: SnapValue> SnapValue for Vec<T> {
    fn save(&self, w: &mut Enc) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Dec) -> Result<Self, SnapError> {
        let n = r.usize()?;
        // Guard against absurd lengths from corrupt input: never reserve
        // more than the bytes that could plausibly remain.
        if n > r.remaining() {
            return Err(SnapError::Corrupt(format!("vec length {n} exceeds input")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: SnapValue, B: SnapValue> SnapValue for (A, B) {
    fn save(&self, w: &mut Enc) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Dec) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: SnapValue, B: SnapValue, C: SnapValue> SnapValue for (A, B, C) {
    fn save(&self, w: &mut Enc) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Dec) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One-shot FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

/// Rolling FNV-1a digest — the hash behind the audit ladder.
///
/// # Examples
///
/// ```
/// use gr_snap::{fnv1a, Digest};
///
/// let mut d = Digest::new();
/// d.update(b"wheel");
/// d.update(b"state");
/// assert_eq!(d.finish(), fnv1a(b"wheelstate"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` into the digest (little-endian bytes).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Enc::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX);
        w.usize(12);
        w.f64(-0.0);
        w.bool(true);
        w.str("snap");
        let b = w.into_bytes();
        let mut r = Dec::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 12);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "snap");
        assert!(r.is_done());
    }

    #[test]
    fn f64_round_trips_nan_bit_patterns() {
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = Enc::new();
        w.f64(weird);
        let b = w.into_bytes();
        assert_eq!(Dec::new(&b).f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn header_is_validated() {
        let w = Enc::with_header();
        let b = w.into_bytes();
        assert!(Dec::with_header(&b).is_ok());
        assert_eq!(
            Dec::with_header(b"NOTSNAP").unwrap_err(),
            SnapError::BadMagic
        );
        let mut bad = Enc::new();
        bad.buf.extend_from_slice(MAGIC);
        bad.u16(FORMAT_VERSION + 1);
        assert_eq!(
            Dec::with_header(bad.bytes()).unwrap_err(),
            SnapError::BadVersion {
                found: FORMAT_VERSION + 1
            }
        );
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let mut w = Enc::new();
        w.u64(1);
        let b = w.into_bytes();
        let mut r = Dec::new(&b[..4]);
        assert_eq!(r.u64().unwrap_err(), SnapError::Eof);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<(u32, String)>> =
            vec![None, Some((9, "a".into())), Some((0, String::new()))];
        let mut w = Enc::new();
        v.save(&mut w);
        let b = w.into_bytes();
        let mut r = Dec::new(&b);
        assert_eq!(<Vec<Option<(u32, String)>>>::load(&mut r).unwrap(), v);
    }

    #[test]
    fn corrupt_vec_length_rejected() {
        let mut w = Enc::new();
        w.u64(u64::MAX); // length prefix far beyond the buffer
        let b = w.into_bytes();
        let mut r = Dec::new(&b);
        assert!(matches!(
            <Vec<u8>>::load(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn snap_state_default_digest_hashes_encoding() {
        struct S(u64);
        impl SnapState for S {
            fn snap_save(&self, w: &mut Enc) {
                w.u64(self.0);
            }
            fn snap_restore(&mut self, r: &mut Dec) -> Result<(), SnapError> {
                self.0 = r.u64()?;
                Ok(())
            }
        }
        let s = S(5);
        assert_eq!(s.snap_digest(), fnv1a(&5u64.to_le_bytes()));
        let mut t = S(0);
        let mut w = Enc::new();
        s.snap_save(&mut w);
        let b = w.into_bytes();
        t.snap_restore(&mut Dec::new(&b)).unwrap();
        assert_eq!(t.0, 5);
    }
}
