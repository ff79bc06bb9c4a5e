//! Connection supervision for the TCP transport ([`crate::transport::tcp`])
//! as pure state machines with no socket in them: the per-link stream codec,
//! the exponential-backoff dial policy, the dialer side of a link
//! ([`LinkWriter`]: bounded replay buffer, write cursor, chaos verdicts) over
//! any `Write`, the listener's accept set ([`Handshakes`]) over any `Read`,
//! and the chaos shim mapping [`FaultPlan`] coordinates onto byte streams.
//! `tcp.rs` plugs in non-blocking `TcpStream`s; `tests/link_supervision.rs`
//! sinks that take three bytes at a time and peers that never say who they
//! are.
//!
//! # Stream protocol
//!
//! A directed link `i → r` is one dialed `TcpStream`: party `i` connects to
//! party `r`'s listener, writes a 12-byte handshake (`MAGIC`, `from`, `to`),
//! and from then on the stream carries length-prefixed *records*, each
//! `u32` body length followed by the body: a tag byte, tag-specific fields
//! in the canonical little-endian layout of [`crate::wire`], and a trailing
//! FNV-1a checksum over everything before it. Data and floor records carry
//! a per-link monotone sequence number assigned by the sender; the receiver
//! accepts exactly the next expected sequence, drops anything below it
//! (replay duplicates), and answers with cumulative acks. The sequence is
//! the stream-level realisation of the canonical `(from, send_tick, order)`
//! packet key: per link, records are emitted in exactly that order, so
//! dedup-by-sequence keeps the receiver's held-packet heap bit-identical to
//! the simulator oracle even under at-least-once redelivery.
//!
//! Any malformed body — bad tag, bad length, checksum mismatch, or a
//! truncated record at EOF — is *not* repaired in place: the decoder
//! reports a [`DecodeFault`], the receiver counts the abandoned bytes in
//! [`crate::Metrics::bytes_resynced`] and tears the connection down, and the
//! dialer re-establishes it and replays every unacked record from the start
//! of a record boundary. Teardown-and-replay *is* the resync mechanism.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::faults::{FaultOutcome, FaultPlan};
use crate::transport::{PartyId, Time};
use crate::wire::{WireError, WireReader};

/// Handshake magic: `"BoBW"` little-endian.
pub const MAGIC: u32 = 0x5742_6F42;

/// Hard cap on one record body (sanity bound against garbage lengths).
pub const MAX_RECORD_BYTES: usize = 1 << 26;

/// One record on a supervised link stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkRecord {
    /// A protocol packet: the PR 2 canonical frame (or path-prefixed single
    /// message) bytes plus the scheduling coordinates the receiver's heap
    /// orders by.
    Data {
        /// Per-link monotone sequence number (dedup key across replays).
        seq: u64,
        /// Sender-side emission tick.
        send_tick: Time,
        /// Emission index among the sender's packets of `send_tick`.
        order: u32,
        /// The tick the packet is stamped to arrive at.
        deliver_tick: Time,
        /// Whether `payload` is a complete wire frame (else a single
        /// path-prefixed message).
        framed: bool,
        /// The canonical wire bytes.
        payload: Vec<u8>,
    },
    /// A link-clock promise (Chandy–Misra null message) in transit.
    Floor {
        /// Per-link monotone sequence number, shared with data records.
        seq: u64,
        /// Nothing from this sender can arrive on this link before `floor`.
        floor: Time,
    },
    /// An idle-link liveness probe: re-announces the last promised floor
    /// (receiver-side a no-op, floors are max-monotonic) so a dead peer is
    /// detected by the write failing. Not sequenced, never replayed.
    Probe {
        /// The last floor promised on this link.
        floor: Time,
    },
    /// Cumulative acknowledgement, sent by the receiver back up the same
    /// stream: every sequence below `next_seq` has been processed, so the
    /// dialer can trim its replay buffer.
    Ack {
        /// The next sequence number the receiver expects.
        next_seq: u64,
    },
}

const TAG_DATA: u8 = 1;
const TAG_FLOOR: u8 = 2;
const TAG_PROBE: u8 = 3;
const TAG_ACK: u8 = 4;

/// FNV-1a over `bytes` — the per-record integrity check. Not cryptographic:
/// it guards against torn/duplicated byte runs, not an adversary (Byzantine
/// behaviour is modelled *above* the transport, by the wire strategies).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes the 12-byte connection handshake.
pub fn encode_handshake(from: PartyId, to: PartyId) -> [u8; 12] {
    let mut hs = [0u8; 12];
    hs[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    hs[4..8].copy_from_slice(&(from as u32).to_le_bytes());
    hs[8..12].copy_from_slice(&(to as u32).to_le_bytes());
    hs
}

/// Decodes and validates a connection handshake; returns `(from, to)`.
pub fn decode_handshake(bytes: &[u8; 12]) -> Option<(PartyId, PartyId)> {
    let [m0, m1, m2, m3, f0, f1, f2, f3, t0, t1, t2, t3] = *bytes;
    if u32::from_le_bytes([m0, m1, m2, m3]) != MAGIC {
        return None;
    }
    let from = u32::from_le_bytes([f0, f1, f2, f3]) as PartyId;
    let to = u32::from_le_bytes([t0, t1, t2, t3]) as PartyId;
    Some((from, to))
}

/// Encodes one record as its stream bytes: `u32` body length, body, with
/// the trailing FNV-1a checksum inside the body.
pub fn encode_record(rec: &LinkRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_record_into(&mut out, rec);
    out
}

/// Appends the stream bytes of `rec` to `out`.
pub fn encode_record_into(out: &mut Vec<u8>, rec: &LinkRecord) {
    let (tag, fields, count) = match rec {
        LinkRecord::Data {
            seq,
            send_tick,
            order,
            deliver_tick,
            framed,
            payload,
        } => {
            let stamp = (*send_tick, *order, *deliver_tick);
            return encode_data_into(out, *seq, stamp, *framed, payload);
        }
        LinkRecord::Floor { seq, floor } => (TAG_FLOOR, [*seq, *floor], 2),
        LinkRecord::Probe { floor } => (TAG_PROBE, [*floor, 0], 1),
        LinkRecord::Ack { next_seq } => (TAG_ACK, [*next_seq, 0], 1),
    };
    let start = begin_record(out, tag);
    for f in &fields[..count] {
        out.extend_from_slice(&f.to_le_bytes());
    }
    end_record(out, start);
}

/// Appends the stream bytes of a [`LinkRecord::Data`] straight from a
/// borrowed payload — the write path's encoder: no owned record, no
/// intermediate body buffer. `stamp` is `(send_tick, order, deliver_tick)`.
pub fn encode_data_into(
    out: &mut Vec<u8>,
    seq: u64,
    stamp: (Time, u32, Time),
    framed: bool,
    payload: &[u8],
) {
    let start = begin_record(out, TAG_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&stamp.0.to_le_bytes());
    out.extend_from_slice(&stamp.1.to_le_bytes());
    out.extend_from_slice(&stamp.2.to_le_bytes());
    out.push(u8::from(framed));
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    end_record(out, start);
}

fn begin_record(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, tag]);
    start
}

/// Seals the record begun at `start`: checksum over the body, then the
/// length prefix patched in.
fn end_record(out: &mut Vec<u8>, start: usize) {
    let sum = fnv1a(&out[start + 4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Why the incremental decoder gave up on a stream. Any fault means the
/// connection must be torn down and re-established at a record boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeFault {
    /// The body length prefix is below the minimum or above
    /// [`MAX_RECORD_BYTES`].
    BadLength(u32),
    /// The trailing FNV-1a checksum does not match the body.
    BadChecksum,
    /// The body failed to parse as any record (bad tag, short field,
    /// trailing bytes).
    Malformed,
}

impl std::fmt::Display for DecodeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFault::BadLength(l) => write!(f, "record length {l} out of bounds"),
            DecodeFault::BadChecksum => write!(f, "record checksum mismatch"),
            DecodeFault::Malformed => write!(f, "record body failed to parse"),
        }
    }
}

impl From<WireError> for DecodeFault {
    fn from(_: WireError) -> Self {
        DecodeFault::Malformed
    }
}

/// Incremental record decoder over a byte stream delivered in arbitrary
/// chunks ([`crate::wire::WireReader`] does the body parsing). Partial reads
/// buffer until a record completes; a malformed record is a [`DecodeFault`]
/// and poisons the stream — the caller must tear the connection down, since
/// a byte stream with garbage in it has no in-band record boundary to skip
/// to. Never panics on any input.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl RecordDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily so the buffer doesn't grow with the whole stream.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a successfully decoded record
    /// — what a teardown abandons (counted in
    /// [`crate::Metrics::bytes_resynced`]).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete record, `Ok(None)` if more bytes are
    /// needed, or a [`DecodeFault`] if the stream is poisoned.
    pub fn next_record(&mut self) -> Result<Option<LinkRecord>, DecodeFault> {
        let Some((len_bytes, rest)) = self.buf[self.pos..].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*len_bytes);
        // Minimum body: tag + 8-byte checksum.
        if (len as usize) < 9 || len as usize > MAX_RECORD_BYTES {
            return Err(DecodeFault::BadLength(len));
        }
        let Some(body) = rest.get(..len as usize) else {
            return Ok(None);
        };
        let Some((fields, sum_bytes)) = body.split_last_chunk::<8>() else {
            return Err(DecodeFault::BadLength(len));
        };
        let sum = u64::from_le_bytes(*sum_bytes);
        if fnv1a(fields) != sum {
            return Err(DecodeFault::BadChecksum);
        }
        let rec = Self::parse_fields(fields)?;
        self.pos += 4 + len as usize;
        Ok(Some(rec))
    }

    fn parse_fields(fields: &[u8]) -> Result<LinkRecord, DecodeFault> {
        let mut r = WireReader::new(fields);
        let rec = match r.u8()? {
            TAG_DATA => {
                let seq = r.u64()?;
                let send_tick = r.u64()?;
                let order = r.u32()?;
                let deliver_tick = r.u64()?;
                let framed = r.bool()?;
                let len = r.u32()? as usize;
                if len > r.remaining() {
                    return Err(DecodeFault::Malformed);
                }
                let payload = r.bytes(len)?.to_vec();
                LinkRecord::Data {
                    seq,
                    send_tick,
                    order,
                    deliver_tick,
                    framed,
                    payload,
                }
            }
            TAG_FLOOR => LinkRecord::Floor {
                seq: r.u64()?,
                floor: r.u64()?,
            },
            TAG_PROBE => LinkRecord::Probe { floor: r.u64()? },
            TAG_ACK => LinkRecord::Ack { next_seq: r.u64()? },
            _ => return Err(DecodeFault::Malformed),
        };
        if r.remaining() != 0 {
            return Err(DecodeFault::Malformed);
        }
        Ok(rec)
    }
}

/// Exponential backoff with deterministic jitter for dial retries. The
/// jitter is a pure function of `(seed, attempt)` — no wall-clock
/// randomness, so a failing dial schedule replays identically run to run.
#[derive(Clone, Debug)]
pub struct Backoff {
    seed: u64,
    attempt: u32,
}

/// First retry delay (doubles per attempt).
const BACKOFF_BASE_US: u64 = 200;
/// Retry delay ceiling.
const BACKOFF_CAP_US: u64 = 50_000;

impl Backoff {
    /// A fresh backoff sequence for one dial episode of one link.
    pub fn new(seed: u64) -> Self {
        Backoff { seed, attempt: 0 }
    }

    /// The next delay: `min(base · 2^attempt, cap)` plus up to 25%
    /// deterministic jitter (splitmix of `(seed, attempt)`).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(
            BACKOFF_CAP_US
                .ilog2()
                .saturating_sub(BACKOFF_BASE_US.ilog2()),
        );
        let base = (BACKOFF_BASE_US << exp).min(BACKOFF_CAP_US);
        let jitter = splitmix(self.seed ^ u64::from(self.attempt)) % (base / 4 + 1);
        self.attempt += 1;
        Duration::from_micros(base + jitter)
    }

    /// How many delays have been handed out.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bounded resend buffer behind reconnect-with-replay: the stream bytes
/// of every sequenced record of a link, concatenated in sequence order, from
/// the oldest one the receiver has not cumulatively acked. The byte bound is
/// enforced by *back-pressure* (the sender waits for acks before buffering
/// more), never by dropping — dropping an unacked record would break
/// at-least-once delivery.
#[derive(Debug, Default)]
struct ReplayBuffer {
    bytes: Vec<u8>,
    /// `(seq, end offset in bytes)` of each buffered record.
    ends: VecDeque<(u64, usize)>,
    next_seq: u64,
}

impl ReplayBuffer {
    /// Appends the next sequenced record, encoded in place by
    /// `encode(seq, out)`; returns its byte range in the buffer.
    fn push(&mut self, encode: impl FnOnce(u64, &mut Vec<u8>)) -> Range<usize> {
        let start = self.bytes.len();
        encode(self.next_seq, &mut self.bytes);
        self.ends.push_back((self.next_seq, self.bytes.len()));
        self.next_seq += 1;
        start..self.bytes.len()
    }

    /// Drops every record the cumulative ack `next_seq` covers that ends at
    /// or below byte `limit`; returns how many bytes went.
    fn trim(&mut self, next_seq: u64, limit: usize) -> usize {
        let mut cut = 0;
        while let Some(&(seq, end)) = self.ends.front() {
            if seq >= next_seq || end > limit {
                break;
            }
            cut = end;
            self.ends.pop_front();
        }
        if cut > 0 {
            self.bytes.drain(..cut);
            self.ends.iter_mut().for_each(|(_, end)| *end -= cut);
        }
        cut
    }

    /// The buffered (unacked) stream bytes.
    fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of buffered records that start below byte `offset`.
    fn records_below(&self, offset: usize) -> usize {
        let ends = self.ends.iter().map(|&(_, end)| end);
        let starts = std::iter::once(0).chain(ends).take(self.ends.len());
        starts.take_while(|&start| start < offset).count()
    }
}

/// The dialer side of one link as a pure state machine over any
/// [`Write`] sink: the replay buffer, a cursor over it (how much the
/// *current* connection has taken), and the chaos verdicts still ahead of
/// the cursor. A record is never torn or reordered by a short write — the
/// cursor simply stops — and a reconnect rewinds the cursor to the oldest
/// unacked record boundary.
#[derive(Debug, Default)]
pub struct LinkWriter {
    replay: ReplayBuffer,
    /// Bytes of `replay` the current connection has accepted.
    sent: usize,
    /// `(offset at which the action fires, start of its record, action)`,
    /// in stream order, all at or ahead of `sent`.
    chaos: VecDeque<(usize, usize, ChaosAction)>,
    /// The `stall` preset, per link: nothing is written before this instant,
    /// while the party keeps serving its other links.
    stalled_until: Option<Instant>,
}

impl LinkWriter {
    /// Queues the next sequenced record, encoded in place by
    /// `encode(seq, out)`, under the chaos verdict `act(encoded_len)` for
    /// its first transmission.
    pub fn queue(
        &mut self,
        encode: impl FnOnce(u64, &mut Vec<u8>),
        act: impl FnOnce(usize) -> ChaosAction,
    ) {
        let rec = self.replay.push(encode);
        let act = act(rec.len());
        let at = match act {
            ChaosAction::Clean => return,
            ChaosAction::Stall { .. } => rec.start,
            ChaosAction::Sever { prefix } => rec.start + prefix.min(rec.len()),
            ChaosAction::DuplicateRun => rec.end,
        };
        self.chaos.push_back((at, rec.start, act));
    }

    /// Buffered (unacked) bytes — what the replay cap bounds.
    pub fn backlog(&self) -> usize {
        self.replay.bytes().len()
    }

    /// Whether the current connection has taken everything queued.
    pub fn drained(&self) -> bool {
        self.sent == self.backlog()
    }

    /// Whether [`LinkWriter::flush`] has something to write at `now`.
    pub fn wants_write(&self, now: Instant) -> bool {
        self.sent < self.backlog() && self.stalled_until.is_none_or(|t| t <= now)
    }

    /// When a stalled link may write again.
    pub fn stalled_until(&self) -> Option<Instant> {
        self.stalled_until
    }

    /// Hands `sink` everything unsent in as few `write` calls as it takes,
    /// up to the next chaos point. `WouldBlock` is not an error (the rest
    /// stays queued); `Err` means the connection is gone, really or by
    /// chaos, and the caller must drop it and [`LinkWriter::reconnect`].
    pub fn flush(&mut self, sink: &mut impl Write, now: Instant) -> std::io::Result<()> {
        while self.wants_write(now) {
            self.stalled_until = None;
            let stop = self.chaos.front().map_or(self.backlog(), |c| c.0);
            while self.sent < stop {
                match sink.write(&self.replay.bytes()[self.sent..stop]) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(k) => self.sent += k,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            match self.chaos.pop_front() {
                None => {}
                Some((_, _, ChaosAction::Stall { dur })) => self.stalled_until = Some(now + dur),
                Some((at, start, act)) => {
                    if act == ChaosAction::DuplicateRun {
                        // A copy of the record's first bytes: garbage at the
                        // receiver, which must resync by teardown.
                        let run = (at - start).clamp(1, 24);
                        let _ = sink.write(&self.replay.bytes()[start..start + run]);
                    }
                    return Err(std::io::Error::new(
                        ErrorKind::ConnectionAborted,
                        "chaos sever",
                    ));
                }
            }
        }
        Ok(())
    }

    /// A cumulative ack arrived: trims what it covers — but only records the
    /// current connection has fully taken, so the stream stays on a record
    /// boundary.
    pub fn ack(&mut self, next_seq: u64) {
        let cut = self.replay.trim(next_seq, self.sent);
        self.sent -= cut;
        for (at, start, _) in &mut self.chaos {
            *at -= cut;
            *start = start.saturating_sub(cut);
        }
    }

    /// A fresh connection: rewinds to the oldest unacked record. Returns how
    /// many records the previous connection had (at least partly) taken and
    /// will now see again ([`crate::Metrics::frames_replayed`]). Chaos
    /// verdicts already fired are gone, so replays are written clean.
    pub fn reconnect(&mut self) -> u64 {
        let replayed = self.replay.records_below(self.sent);
        self.sent = 0;
        replayed as u64
    }
}

/// How long an accepted connection may take to present its handshake.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// The listener side's accept state machine: connections that have been
/// accepted but not yet identified. A stranger cannot park state here —
/// every entry has a deadline and the set is capped (oldest evicted, since
/// a genuine dialer sends its handshake with the connect and is long gone).
#[derive(Debug)]
pub struct Handshakes<S> {
    pending: VecDeque<Pending<S>>,
    cap: usize,
}

#[derive(Debug)]
struct Pending<S> {
    stream: S,
    hs: [u8; 12],
    got: usize,
    deadline: Instant,
}

impl<S: Read> Handshakes<S> {
    /// An empty set for a party with `n − 1` peers.
    pub fn new(n: usize) -> Self {
        Handshakes {
            pending: VecDeque::new(),
            cap: n + 3,
        }
    }

    /// Admits a freshly accepted connection.
    pub fn admit(&mut self, stream: S, now: Instant) {
        if self.pending.len() == self.cap {
            self.pending.pop_front();
        }
        self.pending.push_back(Pending {
            stream,
            hs: [0; 12],
            got: 0,
            deadline: now + HANDSHAKE_TIMEOUT,
        });
    }

    /// Closes every connection whose handshake deadline has passed.
    pub fn expire(&mut self, now: Instant) {
        self.pending.retain(|p| p.deadline > now);
    }

    /// The pending connections, in the index order
    /// [`Handshakes::advance`] takes.
    pub fn streams(&self) -> impl Iterator<Item = &S> {
        self.pending.iter().map(|p| &p.stream)
    }

    /// The earliest handshake deadline, if any connection is pending.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending.front().map(|p| p.deadline)
    }

    /// Reads what pending connection `idx` has to offer. A complete, valid
    /// handshake — naming `me` as its target and a real, other party as its
    /// source — hands the connection over as that party's. One still short
    /// of 12 bytes stays pending; EOF, an error or an invalid handshake
    /// closes the connection and changes nothing else.
    pub fn advance(&mut self, idx: usize, me: PartyId, n: usize) -> Option<(PartyId, S)> {
        let p = self.pending.get_mut(idx)?;
        while p.got < p.hs.len() {
            match p.stream.read(&mut p.hs[p.got..]) {
                Ok(0) => break,
                Ok(k) => p.got += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let p = self.pending.remove(idx)?;
        let (from, to) = decode_handshake(&p.hs)?;
        (p.got == p.hs.len() && to == me && from < n && from != me).then_some((from, p.stream))
    }
}

/// What the chaos shim does to one data record's first transmission. The
/// shim sits on the dialer's write path and translates the *logical* fault
/// vocabulary of a [`FaultPlan`] into byte-stream pathology; replays are
/// always written clean, so every action is survivable by
/// teardown-and-replay and chaos never changes the logical schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Write the record untouched.
    Clean,
    /// Write only the first `prefix` bytes, then sever the connection —
    /// a frame torn in half on the wire.
    Sever {
        /// Bytes actually written before the teardown.
        prefix: usize,
    },
    /// Hold the link — this record and everything behind it — for `dur`
    /// before writing on: a stalled peer, as seen from this one link. Long
    /// enough stalls push the receiver's conservative gate past its wedge
    /// deadline.
    Stall {
        /// Wall-clock write delay.
        dur: Duration,
    },
    /// Write the record, then duplicate its first bytes onto the stream and
    /// sever — the duplicated run is garbage at the receiver, which must
    /// resync by teardown.
    DuplicateRun,
}

/// Longest stall the shim will hold a link for one record, whatever the
/// plan's extra delay says — keeps pathological cells bounded in wall time while
/// still overshooting any test-sized wedge deadline.
pub(super) const STALL_CAP: Duration = Duration::from_millis(300);

/// Maps the chaos plan's verdict for one data record onto a byte-stream
/// action. The plan speaks the same `(from, to, send_tick, deliver_tick)`
/// coordinates as the logical fault plan; `record_len` is the encoded
/// stream length of the record being written.
pub(super) fn chaos_action(
    plan: &FaultPlan,
    from: PartyId,
    to: PartyId,
    send_tick: Time,
    deliver_tick: Time,
    tick_us: u64,
    record_len: usize,
) -> ChaosAction {
    match plan.resolve(from, to, send_tick, deliver_tick) {
        FaultOutcome::Drop => ChaosAction::Sever {
            // Tear mid-record: past the length prefix, short of the
            // checksum, so the receiver is left holding a half frame.
            prefix: (record_len / 2).max(4).min(record_len.saturating_sub(1)),
        },
        FaultOutcome::Deliver {
            duplicate: Some(_), ..
        } => ChaosAction::DuplicateRun,
        FaultOutcome::Deliver { at, .. } if at > deliver_tick => {
            let extra_ticks = at - deliver_tick;
            let dur = Duration::from_micros(extra_ticks.saturating_mul(tick_us));
            ChaosAction::Stall {
                dur: dur.min(STALL_CAP),
            }
        }
        FaultOutcome::Deliver { .. } => ChaosAction::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LinkRecord> {
        vec![
            LinkRecord::Data {
                seq: 0,
                send_tick: 3,
                order: 2,
                deliver_tick: 13,
                framed: true,
                payload: vec![1, 2, 3, 4, 5],
            },
            LinkRecord::Floor { seq: 1, floor: 40 },
            LinkRecord::Probe { floor: 41 },
            LinkRecord::Ack { next_seq: 2 },
            LinkRecord::Data {
                seq: 2,
                send_tick: 9,
                order: 0,
                deliver_tick: 11,
                framed: false,
                payload: vec![],
            },
        ]
    }

    #[test]
    fn records_roundtrip_across_arbitrary_chunking() {
        let recs = sample_records();
        let stream: Vec<u8> = recs.iter().flat_map(encode_record).collect();
        // Feed one byte at a time — the worst-case partial read.
        let mut dec = RecordDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.extend(std::slice::from_ref(b));
            while let Some(rec) = dec.next_record().expect("clean stream decodes") {
                got.push(rec);
            }
        }
        assert_eq!(got, recs);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn truncated_record_stays_pending_and_is_abandoned_on_teardown() {
        let bytes = encode_record(&sample_records()[0]);
        let mut dec = RecordDecoder::new();
        dec.extend(&bytes[..bytes.len() - 3]);
        assert_eq!(dec.next_record().expect("needs more bytes"), None);
        assert_eq!(dec.pending_bytes(), bytes.len() - 3);
    }

    #[test]
    fn corrupt_byte_is_a_decode_fault_not_a_panic() {
        let bytes = encode_record(&sample_records()[0]);
        for i in 4..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0x40;
            let mut dec = RecordDecoder::new();
            dec.extend(&garbled);
            assert!(
                dec.next_record().is_err(),
                "flipping body byte {i} must poison the stream"
            );
        }
    }

    #[test]
    fn duplicated_byte_run_poisons_the_stream() {
        // What the chaos shim's DuplicateRun writes: a full record followed
        // by a copy of its first bytes.
        let bytes = encode_record(&sample_records()[1]);
        let mut stream = bytes.clone();
        stream.extend_from_slice(&bytes[..bytes.len() / 2]);
        let mut dec = RecordDecoder::new();
        dec.extend(&stream);
        assert!(
            dec.next_record().unwrap().is_some(),
            "the real record decodes"
        );
        // The dup run is either an incomplete record (pending at EOF) or a
        // decode fault; both trigger resync-by-teardown, never a bogus
        // record.
        match dec.next_record() {
            Ok(Some(rec)) => panic!("dup run must not decode to {rec:?}"),
            Ok(None) => assert!(dec.pending_bytes() > 0),
            Err(_) => {}
        }
    }

    #[test]
    fn handshake_roundtrips_and_rejects_bad_magic() {
        let hs = encode_handshake(3, 1);
        assert_eq!(decode_handshake(&hs), Some((3, 1)));
        let mut bad = hs;
        bad[0] ^= 1;
        assert_eq!(decode_handshake(&bad), None);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let mut a = Backoff::new(7);
        let mut b = Backoff::new(7);
        let da: Vec<_> = (0..12).map(|_| a.next_delay()).collect();
        let db: Vec<_> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert!(da[0] >= Duration::from_micros(BACKOFF_BASE_US));
        for w in da.windows(2) {
            assert!(
                w[1] >= w[0].min(Duration::from_micros(BACKOFF_CAP_US)),
                "delays grow until the cap"
            );
        }
        assert!(da[11] <= Duration::from_micros(BACKOFF_CAP_US + BACKOFF_CAP_US / 4));
        let mut c = Backoff::new(8);
        let dc: Vec<_> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(da, dc, "different links jitter differently");
    }

    #[test]
    fn replay_buffer_trims_on_cumulative_ack() {
        let mut buf = ReplayBuffer::default();
        for _ in 0..5 {
            buf.push(|seq, out| out.extend_from_slice(&[seq as u8; 10]));
        }
        assert_eq!((buf.ends.len(), buf.bytes().len()), (5, 50));
        // The ack covers 0..3, but only 25 bytes have gone out on the
        // current connection: record 2 is still being written.
        assert_eq!(buf.trim(3, 25), 20);
        assert_eq!(buf.trim(3, 50), 10);
        assert_eq!(buf.bytes(), [[3u8; 10], [4u8; 10]].concat());
        assert_eq!(buf.records_below(11), 2);
        assert_eq!(buf.trim(100, 20), 20);
        assert_eq!((buf.ends.len(), buf.bytes().len()), (0, 0));
        assert_eq!(buf.push(|seq, out| out.push(seq as u8)), 0..1);
        assert_eq!(buf.bytes(), [5]);
    }

    #[test]
    fn chaos_mapping_covers_sever_stall_and_dup() {
        use crate::faults::FaultPlan;
        let sever = FaultPlan::none().drop_burst(Some(0), None, (0, 100));
        assert!(matches!(
            chaos_action(&sever, 0, 1, 5, 15, 1000, 40),
            ChaosAction::Sever { prefix } if (4..40).contains(&prefix)
        ));
        let stall = FaultPlan::none().delay_burst(Some(0), None, (0, 100), 50);
        match chaos_action(&stall, 0, 1, 5, 15, 1000, 40) {
            ChaosAction::Stall { dur } => {
                assert_eq!(dur, Duration::from_micros(50_000).min(STALL_CAP))
            }
            other => panic!("expected stall, got {other:?}"),
        }
        let dup = FaultPlan::none().duplicate_burst(Some(0), None, (0, 100), 2);
        assert_eq!(
            chaos_action(&dup, 0, 1, 5, 15, 1000, 40),
            ChaosAction::DuplicateRun
        );
        let none = FaultPlan::none();
        assert_eq!(
            chaos_action(&none, 0, 1, 5, 15, 1000, 40),
            ChaosAction::Clean
        );
        // Out-of-window coordinates are clean even under an active plan.
        assert_eq!(
            chaos_action(&sever, 0, 1, 500, 510, 1000, 40),
            ChaosAction::Clean
        );
    }
}
