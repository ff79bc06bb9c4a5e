//! The canonical byte codec every simulated message travels through.
//!
//! The paper states all its communication-complexity bounds as *bits
//! communicated by the honest parties*. To make those measurements exact
//! (rather than hand-estimated), every payload handed to the simulator is
//! serialised through this codec: the simulator encodes once per send (once
//! per *broadcast*, shared across all `n` deliveries), counts the encoded
//! length, and decodes at the delivery boundary. Byte-level adversaries
//! ([`crate::adversary::ByzantineStrategy`]) tamper with exactly these bytes.
//!
//! # Encoding rules
//!
//! The format is canonical: every value has exactly one valid encoding, and
//! [`WireDecode::decode`] rejects anything else (non-canonical booleans,
//! unknown enum tags, trailing bytes). Concretely:
//!
//! * `u8` — one byte; `u32`/`u64` — fixed-width little-endian;
//! * `bool` — one byte, `0` or `1` (any other value is a decode error);
//! * sequences — a `u32` little-endian length prefix followed by the
//!   elements;
//! * `Option<T>` — a presence byte (`0`/`1`) followed by the payload;
//! * enums — a one-byte variant tag followed by the variant's fields.
//!
//! Decoding is infallible-in, fallible-out: `decode(encode(m)) == m` for
//! every message (see `tests/codec_roundtrip.rs`), while arbitrary bytes
//! decode to a [`WireError`] that the simulator treats as Byzantine input
//! (the message is dropped and counted, never a panic).

use core::fmt;

use crate::path::InlinePath;

/// Why a byte string failed to decode as a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// An enum tag (or presence byte) had no corresponding variant.
    InvalidTag {
        /// The offending tag byte.
        tag: u8,
        /// The type being decoded, for diagnostics.
        context: &'static str,
    },
    /// A value was syntactically valid but not in canonical form (e.g. a
    /// boolean byte other than 0/1, or a field element `≥ p`).
    NonCanonical {
        /// The type being decoded, for diagnostics.
        context: &'static str,
    },
    /// A length prefix would require more bytes than the input holds
    /// (rejected early so corrupt prefixes cannot trigger huge allocations).
    LengthOverflow {
        /// The claimed element count.
        claimed: u64,
    },
    /// Decoding succeeded but bytes were left over; canonical encodings
    /// consume their input exactly.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            WireError::InvalidTag { tag, context } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            WireError::NonCanonical { context } => {
                write!(f, "non-canonical encoding of {context}")
            }
            WireError::LengthOverflow { claimed } => {
                write!(f, "length prefix {claimed} exceeds the remaining input")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a received byte string, used by [`WireDecode`]
/// implementations.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes (an opaque payload run whose length the caller
    /// already decoded — the TCP stream codec's record payloads).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a canonical boolean (`0` or `1`; anything else is an error).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::NonCanonical { context: "bool" }),
        }
    }

    /// Reads a sequence length prefix, rejecting prefixes that claim more
    /// elements than the remaining input could possibly hold (each element
    /// occupies at least `min_elem_bytes` bytes).
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let claimed = self.u32()? as u64;
        if claimed * min_elem_bytes.max(1) as u64 > self.remaining() as u64 {
            return Err(WireError::LengthOverflow { claimed });
        }
        Ok(claimed as usize)
    }

    /// Asserts that the input was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// Serialisation into the canonical wire format.
///
/// Implementations append bytes to a caller-provided buffer so composite
/// messages encode without intermediate allocations.
pub trait WireEncode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Size of the canonical encoding in bytes, used by
    /// [`WireEncode::encode`] to reserve the output buffer up front so large
    /// payloads (e.g. `ℓ`-element share batches) are written without
    /// re-growing it. Implementations should return the exact size when it
    /// is cheap to compute; any lower bound (including the default `0`) is
    /// correct.
    fn encoded_len_hint(&self) -> usize {
        0
    }

    /// The canonical encoding as a fresh byte vector, pre-reserved from
    /// [`WireEncode::encoded_len_hint`].
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_hint());
        self.encode_into(&mut out);
        out
    }

    /// Exact size of the canonical encoding, in bits. This is what the
    /// simulator's [`crate::Metrics::honest_bits`] accounting measures.
    fn encoded_bits(&self) -> u64 {
        self.encode().len() as u64 * 8
    }
}

/// Deserialisation from the canonical wire format.
pub trait WireDecode: Sized {
    /// Reads one value from the cursor (may leave trailing input for the
    /// caller — used when this value is a field of a larger message).
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Decodes a complete message: the whole input must be consumed.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl WireEncode for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn encoded_len_hint(&self) -> usize {
        1
    }
}

impl WireDecode for bool {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bool()
    }
}

impl WireEncode for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encoded_len_hint(&self) -> usize {
        1
    }
}

impl WireDecode for u8 {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl WireEncode for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn encoded_len_hint(&self) -> usize {
        4
    }
}

impl WireDecode for u32 {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl WireEncode for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn encoded_len_hint(&self) -> usize {
        8
    }
}

impl WireDecode for u64 {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.encode_into(out);
        }
    }

    fn encoded_len_hint(&self) -> usize {
        4 + self.iter().map(WireEncode::encoded_len_hint).sum::<usize>()
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Every element encoding is at least one byte, which bounds a corrupt
        // length prefix before any allocation happens.
        let len = r.seq_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_from(r)?);
        }
        Ok(out)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn encoded_len_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, WireEncode::encoded_len_hint)
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(WireError::InvalidTag {
                tag,
                context: "Option",
            }),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn encoded_len_hint(&self) -> usize {
        self.0.encoded_len_hint() + self.1.encoded_len_hint()
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

/// One message unpacked from a [`Frame`]: the instance path it is addressed
/// to, the decoded payload, and the exact wire size of the payload encoding
/// (path and frame framing excluded — the size the message would have if it
/// travelled alone).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameItem<M> {
    /// Instance path the message is addressed to. Handlers take it as a
    /// [`crate::PathSlice`]; only a recorded transcript needs the shared
    /// [`crate::Path`] form, built by whoever records.
    pub path: InlinePath,
    /// The decoded payload.
    pub msg: M,
    /// Exact size of the payload's canonical encoding, in bits.
    pub msg_bits: u64,
}

/// A coalesced batch of `(path, message)` pairs travelling from one sender to
/// one destination as a *single* simulator event.
///
/// The frame format is canonical like everything else in this module: a
/// `u32` item count, then per item a `u32`-length-prefixed path (segments as
/// little-endian `u32`s) followed by the message's canonical encoding (which
/// is self-delimiting). Frames are a *transport* construct of the simulator:
/// the paper-level bit accounting ([`crate::Metrics::honest_bits`]) counts
/// the contained messages exactly as if they had been sent individually, and
/// the frame header/path bytes are treated as scheduling metadata.
#[derive(Debug)]
pub struct Frame;

impl Frame {
    /// Decodes a complete frame, returning its items in emission order.
    /// The whole input must be consumed.
    pub fn decode<M: WireDecode>(bytes: &[u8]) -> Result<Vec<FrameItem<M>>, WireError> {
        let mut r = WireReader::new(bytes);
        // Every item needs at least a path length prefix and one payload byte.
        let count = r.seq_len(5)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let mut path = InlinePath::new();
            for _ in 0..r.seq_len(4)? {
                path.push(r.u32()?);
            }
            let before = r.remaining();
            let msg = M::decode_from(&mut r)?;
            let msg_bits = (before - r.remaining()) as u64 * 8;
            items.push(FrameItem {
                path,
                msg,
                msg_bits,
            });
        }
        r.finish()?;
        Ok(items)
    }
}

/// Incremental encoder for a [`Frame`]: messages are appended (and encoded)
/// one by one as a party's activation emits them, and [`FrameBuilder::finish`]
/// yields the canonical frame bytes without re-walking the messages.
#[derive(Debug)]
pub struct FrameBuilder {
    buf: Vec<u8>,
    count: u32,
}

impl FrameBuilder {
    /// An empty frame under construction.
    pub fn new() -> Self {
        FrameBuilder {
            // Placeholder for the item count, patched by `finish`.
            buf: vec![0; 4],
            count: 0,
        }
    }

    /// Number of messages appended so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no message has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends one `(path, message)` item and returns the byte range the
    /// message's canonical encoding occupies inside the growing frame — its
    /// length is the message's exact wire size, and the range lets a caller
    /// extract the standalone encoding (e.g. for a broadcast's self-copy)
    /// without encoding the message twice.
    pub fn push<M: WireEncode>(&mut self, path: &[u32], msg: &M) -> std::ops::Range<usize> {
        self.count += 1;
        self.buf
            .extend_from_slice(&(path.len() as u32).to_le_bytes());
        for &seg in path {
            self.buf.extend_from_slice(&seg.to_le_bytes());
        }
        let start = self.buf.len();
        self.buf.reserve(msg.encoded_len_hint());
        msg.encode_into(&mut self.buf);
        start..self.buf.len()
    }

    /// The bytes of a previously pushed message (range returned by
    /// [`FrameBuilder::push`]).
    pub fn message_bytes(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Finalises the frame into its canonical byte encoding.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[..4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for FrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.encode();
        assert_eq!(T::decode(&bytes).unwrap(), v);
        assert_eq!(v.encoded_bits(), bytes.len() as u64 * 8);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xABu8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u32>::None);
        roundtrip((3u32, vec![true, false]));
    }

    #[test]
    fn non_canonical_bool_rejected() {
        assert_eq!(
            bool::decode(&[2]),
            Err(WireError::NonCanonical { context: "bool" })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        assert_eq!(
            u8::decode(&[1, 2]),
            Err(WireError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn truncated_input_rejected() {
        assert!(matches!(
            u64::decode(&[1, 2, 3]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // Claims u32::MAX elements with a 5-byte body.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.push(0);
        assert!(matches!(
            Vec::<u64>::decode(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn option_tag_must_be_zero_or_one() {
        assert!(matches!(
            Option::<bool>::decode(&[9]),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn frame_round_trips_paths_and_messages() {
        let mut b = FrameBuilder::new();
        assert!(b.is_empty());
        let r1 = b.push(&[1, 2], &7u64);
        let r2 = b.push(&[], &true);
        let r3 = b.push(&[9], &vec![3u32, 4]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.message_bytes(r1.clone()), 7u64.encode().as_slice());
        let bytes = b.finish();
        let items = Frame::decode::<u64>(&bytes[..]).err();
        assert!(items.is_some(), "mixed types must not decode as one type");
        // Homogeneous frame decodes exactly.
        let mut b = FrameBuilder::new();
        b.push(&[1, 2], &7u64);
        b.push(&[], &8u64);
        let bytes = b.finish();
        let items = Frame::decode::<u64>(&bytes).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(&items[0].path[..], &[1, 2]);
        assert_eq!(items[0].msg, 7);
        assert_eq!(items[0].msg_bits, 64);
        assert_eq!(&items[1].path[..], &[] as &[u32]);
        assert_eq!(items[1].msg, 8);
        let _ = (r2, r3);
    }

    #[test]
    fn frame_paths_deeper_than_the_inline_capacity_round_trip() {
        let deep: Vec<u32> = (0..100).map(|seg| seg * 3 + 1).collect();
        let mut b = FrameBuilder::new();
        b.push(&deep, &7u64);
        b.push(&[4], &8u64);
        b.push(&deep[..50], &9u64);
        let items = Frame::decode::<u64>(&b.finish()).unwrap();
        let paths: Vec<&[u32]> = items.iter().map(|item| &item.path[..]).collect();
        assert_eq!(paths, [&deep[..], &[4], &deep[..50]]);
        let msgs: Vec<u64> = items.iter().map(|item| item.msg).collect();
        assert_eq!(msgs, [7, 8, 9]);
    }

    #[test]
    fn frame_path_length_prefix_bounded_before_allocation() {
        // One item whose path claims u32::MAX segments in a 6-byte body.
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(
            Frame::decode::<u8>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn frame_rejects_trailing_and_truncated_input() {
        let mut b = FrameBuilder::new();
        b.push(&[3], &1u8);
        let mut bytes = b.finish();
        bytes.push(0);
        assert!(matches!(
            Frame::decode::<u8>(&bytes),
            Err(WireError::TrailingBytes { .. })
        ));
        bytes.truncate(bytes.len() - 3);
        assert!(Frame::decode::<u8>(&bytes).is_err());
    }

    #[test]
    fn frame_count_prefix_bounded_before_allocation() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(
            Frame::decode::<u8>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }
}
