//! Deterministic binary wire codec for the live runtime.
//!
//! Every wire value's [`WireCodec`] is either one of the primitive
//! implementations below or derived by one of three macros, and none is
//! written by hand:
//!
//! * [`wire_enum!`](crate::wire_enum) for every enum: one byte of **tag**
//!   (the variant's declaration index) followed by the variant's fields in
//!   declaration order. A variant is a unit variant, a single-payload tuple
//!   variant (a *lane*) or a struct-like variant;
//! * [`wire_struct_codec!`](crate::wire_struct_codec) for a named-field
//!   struct: its fields in declaration order;
//! * [`wire_newtype_codec!`](crate::wire_newtype_codec) for a newtype: its
//!   inner value.
//!
//! ## Encoding rules
//!
//! The format is deliberately boring, so that two builds of the workspace
//! always agree on the bytes:
//!
//! * integers are **fixed-width little-endian** (`u16`/`u32`/`u64`);
//! * `bool` is one byte, `0` or `1` — anything else is a decode error;
//! * `Option<T>` is a presence byte (`0`/`1`) followed by the value;
//! * collections (`String`, `Vec`, `BTreeSet`, `BTreeMap`) are a `u32`
//!   element count followed by the elements in iteration order (which is the
//!   canonical sorted order for the B-tree collections, so equal values
//!   always serialize to equal bytes);
//! * `Arc<T>` encodes as `T`; decoding allocates a fresh `Arc` — interning is
//!   a sender-side optimisation, and every cross-`Arc` comparison in the
//!   protocol stack falls back to value equality, so a non-interned decode is
//!   behaviour-identical;
//! * enums are a one-byte tag (declaration index) followed by the fields.
//!
//! Framing (length prefixes, protocol version, sender identity) lives one
//! level up, in `livenet`; this module is only concerned with the payload
//! bytes between the frame boundaries. The one versioning rule codec
//! implementors must follow: **never reorder or remove variants or fields** —
//! append new variants at the end, and bump `livenet`'s protocol version for
//! anything else (see `docs/LIVE.md`).
//!
//! ## Malformed input
//!
//! [`decode`](WireCodec::decode) never panics on malformed bytes: every error
//! path returns a typed [`DecodeError`]. Length claims are validated against
//! the bytes actually remaining *before* any allocation, so a hostile
//! four-byte header cannot make the decoder reserve gigabytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::process::ProcessId;

/// Hard cap on a single declared collection/string length. Anything above is
/// rejected as [`DecodeError::TooLarge`] even if the buffer could supply it.
pub const MAX_COLLECTION_LEN: usize = 1 << 24;

/// A typed decoding failure. All malformed input maps here; decoding never
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// An enum tag byte did not name any declared variant.
    UnknownLane {
        /// The enum type being decoded.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared length exceeds [`MAX_COLLECTION_LEN`].
    TooLarge {
        /// The declared element count.
        declared: usize,
        /// The enforced maximum.
        limit: usize,
    },
    /// A value was structurally invalid (bad bool byte, non-UTF-8 string,
    /// unordered/duplicate set elements, …).
    Invalid {
        /// What was being decoded.
        ty: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The value decoded cleanly but bytes were left over (only raised by
    /// [`WireCodec::from_bytes`], which requires exact consumption).
    Trailing {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            DecodeError::UnknownLane { ty, tag } => {
                write!(f, "unknown lane tag {tag} for {ty}")
            }
            DecodeError::TooLarge { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            DecodeError::Invalid { ty, reason } => write!(f, "invalid {ty}: {reason}"),
            DecodeError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an input buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes, or fails with [`DecodeError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32` element count and validates it: it must not exceed
    /// [`MAX_COLLECTION_LEN`], and — since every element encodes to at least
    /// `min_elem_bytes` bytes — it must be satisfiable by the bytes that
    /// remain. The check runs *before* any allocation.
    pub fn length(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u32()? as usize;
        if declared > MAX_COLLECTION_LEN {
            return Err(DecodeError::TooLarge {
                declared,
                limit: MAX_COLLECTION_LEN,
            });
        }
        let needed = declared.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(DecodeError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(declared)
    }
}

/// Deterministic binary encode/decode for one wire value.
///
/// Implemented here for the primitives and derived for everything else: by
/// [`wire_enum!`](crate::wire_enum) for every enum (unit, lane and
/// struct-like variants), by [`wire_struct_codec!`](crate::wire_struct_codec)
/// for named-field structs and by
/// [`wire_newtype_codec!`](crate::wire_newtype_codec) for newtypes.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from `r`, leaving the cursor after it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must consume `bytes` exactly; trailing bytes are
    /// a [`DecodeError::Trailing`] error.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(DecodeError::Trailing {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }
}

impl WireCodec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl WireCodec for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u16()
    }
}

impl WireCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid {
                ty: "bool",
                reason: "byte is neither 0 nor 1",
            }),
        }
    }
}

impl WireCodec for ProcessId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u32().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProcessId::new(r.u32()?))
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid {
            ty: "String",
            reason: "not valid UTF-8",
        })
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Invalid {
                ty: "Option",
                reason: "presence byte is neither 0 nor 1",
            }),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length(1)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: WireCodec + Ord> WireCodec for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length(1)?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            let item = T::decode(r)?;
            if !set.insert(item) {
                return Err(DecodeError::Invalid {
                    ty: "BTreeSet",
                    reason: "duplicate element",
                });
            }
        }
        Ok(set)
    }
}

impl<K: WireCodec + Ord, V: WireCodec> WireCodec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length(2)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if map.insert(k, v).is_some() {
                return Err(DecodeError::Invalid {
                    ty: "BTreeMap",
                    reason: "duplicate key",
                });
            }
        }
        Ok(map)
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: WireCodec> WireCodec for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

/// Implements [`WireCodec`] for a named-field struct, encoding the listed
/// fields in order. The field list must cover every field of the struct (the
/// generated constructor would fail to compile otherwise), which keeps the
/// codec honest when a struct grows.
///
/// ```
/// use simnet::wire_struct_codec;
///
/// #[derive(Debug, Clone, PartialEq, Eq)]
/// pub struct Probe { pub seq: u64, pub urgent: bool }
/// wire_struct_codec!(Probe { seq, urgent });
///
/// use simnet::codec::WireCodec;
/// let p = Probe { seq: 7, urgent: true };
/// assert_eq!(Probe::from_bytes(&p.to_bytes()), Ok(p));
/// ```
#[macro_export]
macro_rules! wire_struct_codec {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::codec::WireCodec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $( $crate::codec::WireCodec::encode(&self.$field, out); )*
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                ::std::result::Result::Ok(Self {
                    $( $field: $crate::codec::WireCodec::decode(r)?, )*
                })
            }
        }
    };
}

/// Implements [`WireCodec`] for a single-field tuple struct (newtype),
/// delegating to the inner type. Invoke it in the module that defines the
/// struct — it works through field `.0`, so the field may stay private.
///
/// ```
/// use simnet::wire_newtype_codec;
///
/// #[derive(Debug, Clone, PartialEq, Eq)]
/// pub struct Seq(u64);
/// wire_newtype_codec!(Seq(u64));
///
/// use simnet::codec::WireCodec;
/// assert_eq!(Seq::from_bytes(&Seq(9).to_bytes()), Ok(Seq(9)));
/// ```
#[macro_export]
macro_rules! wire_newtype_codec {
    ($ty:ident ( $inner:ty )) => {
        impl $crate::codec::WireCodec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::codec::WireCodec::encode(&self.0, out);
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                ::std::result::Result::Ok($ty(<$inner as $crate::codec::WireCodec>::decode(r)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes), Ok(value));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(ProcessId::new(42));
        roundtrip(String::from("héllo wörld"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip([3u32, 1, 2].into_iter().collect::<BTreeSet<_>>());
        roundtrip(
            [(1u32, 10u64), (2, 20)]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        );
        roundtrip((ProcessId::new(1), 7u64));
        roundtrip(Arc::new(vec![5u8, 6]));
    }

    #[test]
    fn integers_are_little_endian_fixed_width() {
        assert_eq!(0x0102_0304u32.to_bytes(), vec![4, 3, 2, 1]);
        assert_eq!(1u64.to_bytes(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let bytes = 0xDEAD_BEEFu32.to_bytes();
        assert!(matches!(
            u32::from_bytes(&bytes[..3]),
            Err(DecodeError::Truncated { .. })
        ));
        let s = String::from("hello").to_bytes();
        assert!(matches!(
            String::from_bytes(&s[..6]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_claims_are_rejected_before_allocation() {
        // Declares u32::MAX elements with a 4-byte body.
        let mut bytes = u32::MAX.to_bytes();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let err = Vec::<u64>::from_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::TooLarge { .. } | DecodeError::Truncated { .. }
        ));
        // A length just over the hard cap is TooLarge even if plausible.
        let mut bytes = ((MAX_COLLECTION_LEN + 1) as u32).to_bytes();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Vec::<u8>::from_bytes(&bytes),
            Err(DecodeError::TooLarge { .. })
        ));
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(DecodeError::Invalid { ty: "bool", .. })
        ));
        assert!(matches!(
            Option::<u8>::from_bytes(&[9, 0]),
            Err(DecodeError::Invalid { ty: "Option", .. })
        ));
        let mut bad_utf8 = 2u32.to_bytes();
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            String::from_bytes(&bad_utf8),
            Err(DecodeError::Invalid { ty: "String", .. })
        ));
        // Duplicate set elements are not silently merged.
        let mut dup = 2u32.to_bytes();
        dup.extend_from_slice(&[7, 7]);
        assert!(matches!(
            BTreeSet::<u8>::from_bytes(&dup),
            Err(DecodeError::Invalid { ty: "BTreeSet", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected_by_from_bytes() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes),
            Err(DecodeError::Trailing { remaining: 1 })
        );
    }
}
