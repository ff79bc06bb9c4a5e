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
//! * [`Fp`] — its canonical representative in `[0, p)` as a little-endian
//!   `u64` (representatives `≥ p` are a decode error);
//! * sequences — a `u32` little-endian length prefix followed by the
//!   elements;
//! * `Option<T>` — a presence byte (`0`/`1`) followed by the payload;
//! * enums — a one-byte variant tag followed by the variant's fields.
//!
//! These primitive and generic impls are the only hand-written codec code.
//! Every message enum is declared once through [`wire_enum!`](crate::wire_enum),
//! which generates its encoder, decoder, size hint and [`WireSample`]
//! sampler from the variant list.
//!
//! Decoding is infallible-in, fallible-out: `decode(encode(m)) == m` for
//! every message (see `tests/codec_roundtrip.rs`), while arbitrary bytes
//! decode to a [`WireError`] that the simulator treats as Byzantine input
//! (the message is dropped and counted, never a panic).

use core::fmt;

use mpc_algebra::{Fp, MODULUS};
use rand::Rng;
pub use rand::RngCore;

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

    /// Reads a canonical field element (representatives `≥ p` are an
    /// error, so every element has exactly one encoding).
    pub fn fp(&mut self) -> Result<Fp, WireError> {
        match self.u64()? {
            v if v < MODULUS => Ok(Fp::from_u64(v)),
            _ => Err(WireError::NonCanonical {
                context: "field element",
            }),
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

    /// Reads an instance path written by [`put_path`], bounding its segment
    /// count by the remaining input before anything is stored.
    pub fn path(&mut self) -> Result<InlinePath, WireError> {
        let mut path = InlinePath::new();
        for _ in 0..self.seq_len(4)? {
            path.push(self.u32()?);
        }
        Ok(path)
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

/// Appends an instance path: a `u32` segment count, then the segments as
/// little-endian `u32`s. The prefix of every [`Frame`] item and of every
/// single-message packet of the real transports; read back by
/// [`WireReader::path`].
pub fn put_path(out: &mut Vec<u8>, path: &[u32]) {
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    for &seg in path {
        out.extend_from_slice(&seg.to_le_bytes());
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
    /// The fewest bytes any encoding of this type occupies. A sequence
    /// prefix claiming more elements than the remaining input holds at this
    /// size each is rejected before anything is reserved.
    const MIN_ENCODED_LEN: usize = 1;

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

/// A message type the media carry: its canonical codec, `Clone` for the
/// owned-delivery adapter ([`crate::Protocol::on_message_ref`]'s default),
/// and `Send + Sync` because the recipients of one frame borrow one decode,
/// possibly from different worker threads.
pub trait WireMessage: WireEncode + WireDecode + Clone + Send + Sync + 'static {}

impl<M: WireEncode + WireDecode + Clone + Send + Sync + 'static> WireMessage for M {}

/// Random values of a wire type, for property tests and fuzzing. Every
/// variant of a [`wire_enum!`](crate::wire_enum) type is equally likely.
pub trait WireSample {
    /// Draws one value. `size` bounds every collection's length and drops by
    /// one per `Vec`/`Option` level: at 0, all are empty or `None`.
    fn sample(rng: &mut dyn RngCore, size: usize) -> Self;
}

/// The fixed-width primitives: `type: encoded length, reader method, bytes`.
macro_rules! primitive {
    ($($t:ty: $len:literal, $read:ident, |$v:ident| $bytes:expr;)*) => {$(
        impl WireEncode for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                let $v = self;
                out.extend_from_slice(&$bytes);
            }

            fn encoded_len_hint(&self) -> usize {
                $len
            }
        }

        impl WireDecode for $t {
            const MIN_ENCODED_LEN: usize = $len;

            fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$read()
            }
        }

        impl WireSample for $t {
            fn sample(rng: &mut dyn RngCore, _size: usize) -> Self {
                rng.gen()
            }
        }
    )*};
}

primitive! {
    bool: 1, bool, |v| [*v as u8];
    u8: 1, u8, |v| [*v];
    u32: 4, u32, |v| v.to_le_bytes();
    u64: 8, u64, |v| v.to_le_bytes();
    Fp: 8, fp, |v| v.as_u64().to_le_bytes();
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
    const MIN_ENCODED_LEN: usize = 4;

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len(T::MIN_ENCODED_LEN)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_from(r)?);
        }
        Ok(out)
    }
}

impl<T: WireSample> WireSample for Vec<T> {
    fn sample(rng: &mut dyn RngCore, size: usize) -> Self {
        let len = rng.gen::<usize>() % (size + 1);
        (0..len).map(|_| T::sample(rng, size - 1)).collect()
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

impl<T: WireSample> WireSample for Option<T> {
    fn sample(rng: &mut dyn RngCore, size: usize) -> Self {
        (size > 0 && rng.gen()).then(|| T::sample(rng, size - 1))
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
    const MIN_ENCODED_LEN: usize = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN;

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

impl<A: WireSample, B: WireSample> WireSample for (A, B) {
    fn sample(rng: &mut dyn RngCore, size: usize) -> Self {
        (A::sample(rng, size), B::sample(rng, size))
    }
}

/// Declares a wire message enum once and generates its [`WireEncode`],
/// [`WireDecode`] and [`WireSample`] impls from that declaration.
///
/// Each variant is a unit, a one-field tuple or a struct variant, followed
/// by `= tag`, its one-byte wire tag — the only place the tag is written. A
/// variant encodes as its tag, then its fields in declaration order; an
/// unknown tag decodes to [`WireError::InvalidTag`] naming the type. The
/// sampler draws every declared variant, so a new variant is covered by
/// construction. Attributes (doc comments, derives) pass through.
///
/// ```
/// use mpc_net::wire::{WireDecode, WireEncode};
///
/// mpc_net::wire_enum! {
///     #[derive(Debug, PartialEq)]
///     pub enum Toy {
///         Ping = 0,
///         Echo(Vec<u32>) = 1,
///         Pair { a: u32, b: bool } = 2,
///     }
/// }
///
/// let msg = Toy::Pair { a: 7, b: true };
/// assert_eq!(msg.encode(), [2, 7, 0, 0, 0, 1]);
/// assert_eq!(Toy::decode(&msg.encode()), Ok(msg));
/// assert!(Toy::decode(&[3]).is_err());
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($body:tt)* }) => {
        $crate::wire_enum!(@variants [$(#[$meta])* $vis enum $name] [] $($body)*);
    };
    // Each variant is normalised to `[tag (declaration) name (fields)]`, a
    // field being `name: binding: type`; a tuple field is named `0`, which
    // struct-pattern and struct-expression syntax accept.
    (@variants $head:tt [$($done:tt)*]
        $(#[$vm:meta])* $v:ident = $tag:literal $(, $($rest:tt)*)?) => {
        $crate::wire_enum!(@variants $head [$($done)* [$tag ($(#[$vm])* $v) $v ()]]
            $($($rest)*)?);
    };
    (@variants $head:tt [$($done:tt)*]
        $(#[$vm:meta])* $v:ident($ty:ty) = $tag:literal $(, $($rest:tt)*)?) => {
        $crate::wire_enum!(@variants $head
            [$($done)* [$tag ($(#[$vm])* $v($ty)) $v (0: field: $ty)]] $($($rest)*)?);
    };
    (@variants $head:tt [$($done:tt)*]
        $(#[$vm:meta])* $v:ident { $($(#[$fm:meta])* $f:ident: $fty:ty),* $(,)? }
        = $tag:literal $(, $($rest:tt)*)?) => {
        $crate::wire_enum!(@variants $head [$($done)* [$tag
            ($(#[$vm])* $v { $($(#[$fm])* $f: $fty),* }) $v ($($f: $f: $fty),*)]]
            $($($rest)*)?);
    };
    (@variants [$(#[$meta:meta])* $vis:vis enum $name:ident]
        [$([$tag:literal ($($decl:tt)*) $v:ident ($($f:tt: $bind:ident: $fty:ty),*)])+]) => {
        $(#[$meta])*
        $vis enum $name {
            $($($decl)*,)+
        }

        impl $crate::wire::WireEncode for $name {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(Self::$v { $($f: $bind),* } => {
                        out.push($tag);
                        $($crate::wire::WireEncode::encode_into($bind, out);)*
                    })+
                }
            }

            fn encoded_len_hint(&self) -> usize {
                1 + match self {
                    $(Self::$v { $($f: $bind),* } => {
                        0 $(+ $crate::wire::WireEncode::encoded_len_hint($bind))*
                    })+
                }
            }
        }

        impl $crate::wire::WireDecode for $name {
            fn decode_from(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                match r.u8()? {
                    $($tag => ::core::result::Result::Ok(Self::$v {
                        $($f: <$fty as $crate::wire::WireDecode>::decode_from(r)?),*
                    }),)+
                    tag => ::core::result::Result::Err(
                        $crate::wire::WireError::InvalidTag { tag, context: stringify!($name) }),
                }
            }
        }

        impl $crate::wire::WireSample for $name {
            #[allow(unused_variables)] // `size`, when no variant has fields
            fn sample(rng: &mut dyn $crate::wire::RngCore, size: usize) -> Self {
                loop {
                    // A uniform byte, redrawn until it names a variant.
                    match <u8 as $crate::wire::WireSample>::sample(rng, 0) {
                        $($tag => break Self::$v {
                            $($f: $crate::wire::WireSample::sample(rng, size)),*
                        },)+
                        _ => {}
                    }
                }
            }
        }
    };
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
/// `u32` item count, then per item a path ([`put_path`]) followed by the
/// message's canonical encoding (which is self-delimiting). Frames are a
/// *transport* construct of the simulator: the paper-level bit accounting
/// ([`crate::Metrics::honest_bits`]) counts the contained messages exactly as
/// if they had been sent individually, and the frame header/path bytes are
/// treated as scheduling metadata.
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
            let path = r.path()?;
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
    /// An empty frame under construction. It allocates nothing until the
    /// first message is pushed: most activations leave most of their
    /// builders empty.
    pub fn new() -> Self {
        FrameBuilder {
            buf: Vec::new(),
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
    /// message's canonical encoding occupies inside the frame — its length
    /// is the message's exact wire size.
    pub fn push<M: WireEncode>(&mut self, path: &[u32], msg: &M) -> std::ops::Range<usize> {
        if self.buf.is_empty() {
            // Placeholder for the item count, patched by `finish`.
            self.buf
                .reserve(8 + 4 * path.len() + msg.encoded_len_hint());
            self.buf.extend_from_slice(&[0; 4]);
        }
        self.count += 1;
        put_path(&mut self.buf, path);
        let start = self.buf.len();
        self.buf.reserve(msg.encoded_len_hint());
        msg.encode_into(&mut self.buf);
        start..self.buf.len()
    }

    /// Finalises the frame into its canonical byte encoding.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.resize(self.buf.len().max(4), 0);
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
    use rand::SeedableRng;

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
    fn field_elements_round_trip_and_reject_non_canonical() {
        roundtrip(Fp::from_u64(MODULUS - 1));
        roundtrip(vec![vec![Fp::ONE, Fp::ZERO], vec![]]);
        assert_eq!(
            Fp::decode(&MODULUS.to_le_bytes()),
            Err(WireError::NonCanonical {
                context: "field element"
            })
        );
    }

    /// A length prefix is checked against the element type's minimum
    /// encoded length: two field elements or two rows cannot fit in 7 bytes.
    #[test]
    fn length_prefixes_are_bounded_by_the_element_size() {
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 7]);
        let overflow = WireError::LengthOverflow { claimed: 2 };
        assert_eq!(Vec::<Fp>::decode(&bytes).err(), Some(overflow.clone()));
        assert_eq!(Vec::<Vec<Fp>>::decode(&bytes).err(), Some(overflow));
        assert!(matches!(
            Vec::<u8>::decode(&bytes),
            Err(WireError::TrailingBytes { count: 5 })
        ));
    }

    #[test]
    fn sample_size_bounds_lengths_and_nesting() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..64 {
            assert!(Vec::<u32>::sample(&mut rng, 0).is_empty());
            assert_eq!(Option::<bool>::sample(&mut rng, 0), None);
            let rows = Vec::<Vec<Fp>>::sample(&mut rng, 2);
            assert!(rows.len() <= 2 && rows.iter().all(|row| row.len() <= 1));
        }
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
        let bytes = b.finish();
        assert_eq!(&bytes[r1], 7u64.encode().as_slice());
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
