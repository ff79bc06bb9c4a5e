//! The discrete-event simulator driving all protocol executions.
//!
//! Since PR 4 the simulator executes in deterministic *time slices*: all
//! events scheduled at the same simulated tick form one batch, the batch is
//! (optionally) pre-executed on worker threads grouped by destination party,
//! and the results are merged back in the exact canonical event order the
//! purely sequential engine would have produced — transcripts, [`Metrics`]
//! and bit accounting are bit-identical for every worker-thread count. See
//! the "Deterministic parallel execution" section of DESIGN.md for the
//! correctness argument.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{
    AdversaryStructure, ByzantineStrategy, CorruptionSet, Passive, WireAction, WireSend,
};
use crate::context::{Context, Effects, Path, Protocol};
use crate::faults::{FaultOutcome, FaultPlan};
use crate::metrics::Metrics;
use crate::scheduler::{FixedDelay, Scheduler, UniformDelay};
use crate::wire::{Frame, FrameBuilder, WireDecode, WireEncode};

pub use crate::transport::{PartyId, Time};

/// Which of the paper's two network models the execution runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Every message delivered within the publicly known bound `Δ`.
    Synchronous,
    /// Arbitrary finite, adversarially scheduled delays.
    Asynchronous,
}

/// The process-wide default worker-thread count, read once from the
/// `MPC_THREADS` environment variable (unset, empty or unparsable → 1).
fn env_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("MPC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1)
    })
}

/// The process-wide default for wire-frame coalescing, read once from the
/// `MPC_FRAMES` environment variable (`0`, `false` or `off` disable it;
/// anything else — including unset — enables it).
fn env_frames() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("MPC_FRAMES") {
        Ok(v) => {
            let v = v.trim();
            !(v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off"))
        }
        Err(_) => true,
    })
}

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Number of parties `n`.
    pub n: usize,
    /// The publicly known synchronous delivery bound `Δ` (in ticks).
    pub delta: Time,
    /// Network model.
    pub kind: NetworkKind,
    /// Master seed: party RNGs, the scheduler RNG and the common-coin oracle
    /// are all derived from it, making runs fully reproducible.
    pub seed: u64,
    /// Worker threads for same-time-slice pre-execution: `None` defers to
    /// the `MPC_THREADS` environment variable (default 1 = sequential).
    /// The thread count never changes the execution — only its wall-clock
    /// time — so this is purely a performance knob.
    pub threads: Option<usize>,
    /// Wire-frame coalescing: every honest party's sends/broadcasts of one
    /// time-slice activation travel as per-destination [`Frame`]s (one
    /// simulator event each) instead of one event per message. `None` defers
    /// to the `MPC_FRAMES` environment variable (default on). Framing keeps
    /// the paper-level bit accounting and all security-relevant behaviour
    /// intact but changes the event schedule, so the two modes produce
    /// different (individually deterministic) transcripts.
    pub frames: Option<bool>,
}

impl NetConfig {
    /// The default synchronous delivery bound `Δ`, in ticks.
    pub const DEFAULT_DELTA: Time = 10;
    /// The default master seed of a run.
    pub const DEFAULT_SEED: u64 = 0xB0B5;

    /// A network of `n` parties of the given kind with the default `Δ` and
    /// seed (override via [`NetConfig::with_delta`] / [`NetConfig::with_seed`]).
    pub fn for_kind(n: usize, kind: NetworkKind) -> Self {
        NetConfig {
            n,
            delta: Self::DEFAULT_DELTA,
            kind,
            seed: Self::DEFAULT_SEED,
            threads: None,
            frames: None,
        }
    }

    /// A synchronous network of `n` parties with `Δ = 10` ticks.
    pub fn synchronous(n: usize) -> Self {
        Self::for_kind(n, NetworkKind::Synchronous)
    }

    /// An asynchronous network of `n` parties (the protocol still believes
    /// `Δ = 10` when computing its time-outs — that belief is simply wrong).
    pub fn asynchronous(n: usize) -> Self {
        Self::for_kind(n, NetworkKind::Asynchronous)
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces `Δ`.
    pub fn with_delta(mut self, delta: Time) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the worker-thread count for same-time-slice pre-execution
    /// (values < 1 are clamped to 1). Overrides the `MPC_THREADS`
    /// environment variable.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The effective worker-thread count: the explicit
    /// [`NetConfig::with_threads`] value if set, else `MPC_THREADS`, else 1.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(env_threads).max(1)
    }

    /// Enables or disables wire-frame coalescing explicitly, overriding the
    /// `MPC_FRAMES` environment variable. Golden-transcript tests pin this so
    /// their fingerprints are environment-independent.
    pub fn with_frames(mut self, frames: bool) -> Self {
        self.frames = Some(frames);
        self
    }

    /// The effective frame-coalescing setting: the explicit
    /// [`NetConfig::with_frames`] value if set, else `MPC_FRAMES`, else on.
    pub fn resolved_frames(&self) -> bool {
        self.frames.unwrap_or_else(env_frames)
    }

    /// Seed of party `i`'s deterministic RNG. Shared by every
    /// [`crate::transport::Transport`] backend: the conformance oracle
    /// (threaded backend vs simulator) depends on both deriving identical
    /// per-party randomness from the master seed.
    pub fn party_rng_seed(&self, i: PartyId) -> u64 {
        self.seed.wrapping_mul(0x9E37).wrapping_add(i as u64)
    }

    /// Seed of the ideal common-coin oracle (shared across backends).
    pub fn coin_seed(&self) -> u64 {
        self.seed ^ 0x5EED_C011
    }

    /// Seed of the adversary RNG handed to [`ByzantineStrategy`] consults
    /// (shared across backends).
    pub fn adversary_seed(&self) -> u64 {
        self.seed ^ 0xBADA_D0E5
    }
}

#[derive(Clone, Debug)]
pub(crate) enum EventKind {
    Deliver {
        to: PartyId,
        from: PartyId,
        path: Path,
        /// The canonical encoding of the payload. A broadcast is encoded
        /// once and this `Arc` is shared across all `n` delivery events.
        payload: Arc<Vec<u8>>,
    },
    /// A coalesced [`Frame`] of messages from one honest sender: all the
    /// sends/broadcasts it emitted towards `to` during one time-slice
    /// activation, travelling as a *single* simulator event and unpacked at
    /// the delivery boundary. A broadcast frame's bytes are encoded once and
    /// this `Arc` is shared across all recipients.
    DeliverFrame {
        to: PartyId,
        from: PartyId,
        payload: Arc<Vec<u8>>,
    },
    Timer {
        party: PartyId,
        path: Path,
        id: u64,
    },
}

impl EventKind {
    /// The party that will handle this event.
    fn party(&self) -> PartyId {
        match self {
            EventKind::Deliver { to, .. } | EventKind::DeliverFrame { to, .. } => *to,
            EventKind::Timer { party, .. } => *party,
        }
    }
}

/// One processed event, as recorded by [`Simulation::record_transcript`].
///
/// Message payloads are summarised by their wire size; together with the
/// delivery order, times and instance paths this fingerprints an execution
/// tightly enough to assert replay determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Simulated time at which the event was processed.
    pub at: Time,
    /// The party that handled the event.
    pub party: PartyId,
    /// What happened.
    pub event: TranscriptEvent,
}

/// The observable payload of a [`TranscriptEntry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranscriptEvent {
    /// A message delivery.
    Deliver {
        /// Sending party.
        from: PartyId,
        /// Instance path the message was routed to.
        path: Path,
        /// Exact wire size of the payload: encoded byte length ×8.
        bits: u64,
    },
    /// A delivery whose bytes failed to decode as a protocol message and
    /// were dropped at the boundary as Byzantine input (see
    /// [`crate::Metrics::decode_failures`]).
    DroppedDeliver {
        /// Sending party.
        from: PartyId,
        /// Instance path the undecodable message was addressed to.
        path: Path,
        /// Exact wire size of the dropped payload: encoded byte length ×8.
        bits: u64,
    },
    /// A timer expiry.
    Timer {
        /// Instance path owning the timer.
        path: Path,
        /// Timer id within that instance.
        id: u64,
    },
}

#[derive(Debug)]
struct Event {
    at: Time,
    rank: u8,
    /// Instance-path depth; deeper timers fire first at equal times so that a
    /// parent's deadline observes the state its sub-protocols finalise at that
    /// same instant (e.g. `Π_BC` reading the SBA output at `T_BC`).
    depth: usize,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.rank, self.seq) == (other.at, other.rank, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.rank, std::cmp::Reverse(self.depth), self.seq).cmp(&(
            other.at,
            other.rank,
            std::cmp::Reverse(other.depth),
            other.seq,
        ))
    }
}

/// Calendar-queue event store: a ring of per-tick buckets spanning `Δ` ticks
/// from the current time plus an overflow heap for farther-out events.
///
/// The paper's protocols generate heavily clustered schedules (synchronous
/// rounds put *every* delivery of a round at the same tick), which makes the
/// classic binary-heap queue pay `O(log k)` per event for no benefit: within
/// one tick the (rank, depth, seq) order is what matters, and across ticks
/// the calendar ring finds the next non-empty tick in `O(Δ)`. Each bucket is
/// itself a small heap ordered by the canonical event order, so draining a
/// bucket yields exactly the sequence the old global heap produced.
struct EventQueue {
    /// `ring[(cursor + (t - base)) % ring.len()]` holds the events of tick
    /// `t` for `t ∈ [base, base + ring.len())`.
    ring: Vec<BinaryHeap<Reverse<Event>>>,
    /// Tick represented by `ring[cursor]`.
    base: Time,
    cursor: usize,
    /// Events at ticks `≥ base + ring.len()`.
    overflow: BinaryHeap<Reverse<Event>>,
    len: usize,
}

impl EventQueue {
    /// Ring width is `Δ` ticks, clamped to a sane range: correctness does
    /// not depend on the width (farther events overflow), only constant
    /// factors do.
    fn new(delta: Time) -> Self {
        let width = delta.clamp(1, 256) as usize;
        EventQueue {
            ring: (0..width).map(|_| BinaryHeap::new()).collect(),
            base: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, ev: Event) {
        debug_assert!(ev.at >= self.base, "events cannot be scheduled in the past");
        self.len += 1;
        let width = self.ring.len() as Time;
        if ev.at < self.base + width {
            let slot = (self.cursor + (ev.at - self.base) as usize) % self.ring.len();
            self.ring[slot].push(Reverse(ev));
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Moves overflow events that now fall inside the ring window into their
    /// buckets. Called whenever `base` advances.
    fn migrate_overflow(&mut self) {
        let width = self.ring.len() as Time;
        while let Some(Reverse(ev)) = self.overflow.peek() {
            if ev.at >= self.base + width {
                break;
            }
            let Some(Reverse(ev)) = self.overflow.pop() else {
                unreachable!("peeked above")
            };
            let slot = (self.cursor + (ev.at - self.base) as usize) % self.ring.len();
            self.ring[slot].push(Reverse(ev));
        }
    }

    /// Advances to and returns the earliest tick holding any event, or
    /// `None` when the queue is empty. Afterwards [`EventQueue::pop_current`]
    /// pops that tick's events in canonical order.
    fn next_time(&mut self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let width = self.ring.len();
        for off in 0..width {
            let slot = (self.cursor + off) % width;
            if !self.ring[slot].is_empty() {
                self.cursor = slot;
                self.base += off as Time;
                if off > 0 {
                    self.migrate_overflow();
                }
                return Some(self.base);
            }
        }
        // The ring is empty: jump straight to the earliest overflow tick.
        let t = self
            .overflow
            .peek()
            .map(|Reverse(ev)| ev.at)
            .expect("len > 0 but no events anywhere");
        self.base = t;
        self.migrate_overflow();
        Some(t)
    }

    /// Pops the canonically-next event of the *current* tick (the one the
    /// last [`EventQueue::next_time`] returned), if any remains.
    fn pop_current(&mut self) -> Option<Event> {
        let Reverse(ev) = self.ring[self.cursor].pop()?;
        self.len -= 1;
        Some(ev)
    }

    /// Iterates the *current* tick's pending events in arbitrary order
    /// (cheap pre-inspection without popping).
    fn current_events(&self) -> impl Iterator<Item = &Event> {
        self.ring[self.cursor].iter().map(|Reverse(ev)| ev)
    }
}

/// One pre-executed event of a party's same-time batch: the transcript entry
/// it produced plus its side effects with payloads already encoded. Produced
/// on worker threads, consumed by the canonical serial merge.
struct Step {
    /// 0 = delivery, 1 = timer — validated against the merged event.
    kind_tag: u8,
    transcript: Option<TranscriptEntry>,
    decode_failed: bool,
    /// `(to, path, canonical bytes)` unicasts, in emission order.
    sends: Vec<(PartyId, Path, Arc<Vec<u8>>)>,
    /// `(path, canonical bytes)` broadcasts, in emission order.
    broadcasts: Vec<(Path, Arc<Vec<u8>>)>,
    /// `(delay, path, id)` timer requests, in emission order.
    timers: Vec<(Time, Path, u64)>,
}

/// A worker-local event: same ordering key as [`Event`] restricted to one
/// tick and one party, with a local sequence surrogate whose relative order
/// matches the global sequence numbers the merge will assign.
struct LocalEv {
    rank: u8,
    depth: usize,
    lseq: u64,
    kind: LocalKind,
}

enum LocalKind {
    Deliver {
        from: PartyId,
        path: Path,
        payload: Arc<Vec<u8>>,
    },
    Frame {
        from: PartyId,
        payload: Arc<Vec<u8>>,
    },
    Timer {
        path: Path,
        id: u64,
    },
}

impl PartialEq for LocalEv {
    fn eq(&self, other: &Self) -> bool {
        (self.rank, self.depth, self.lseq) == (other.rank, other.depth, other.lseq)
    }
}
impl Eq for LocalEv {}
impl PartialOrd for LocalEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LocalEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.rank, Reverse(self.depth), self.lseq).cmp(&(
            other.rank,
            Reverse(other.depth),
            other.lseq,
        ))
    }
}

/// One party's work for one time slice, carved out of the simulation for a
/// worker thread: exclusive access to the party's state machine and RNG plus
/// its batch events in canonical order. Also the unit of work of the
/// threaded transport backend, which reuses [`run_party_batch`] verbatim —
/// that shared engine is what makes the two backends bit-conformant.
pub(crate) struct WorkerParty<'a, M> {
    pub(crate) party: PartyId,
    pub(crate) protocol: &'a mut Box<dyn Protocol<M>>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) events: Vec<EventKind>,
}

/// Pre-executes one party's full time-`t` batch — including the same-tick
/// cascades its own handlers spawn (self-sends, broadcast self-copies,
/// zero-delay timers) — and returns one [`Step`] per processed event, in the
/// party's canonical processing order.
///
/// This runs on a worker thread and touches nothing but the party's own
/// state and RNG, which is exactly why per-party pre-execution commutes: see
/// DESIGN.md, "Deterministic parallel execution".
fn run_party_slice<M: WireEncode + WireDecode + 'static>(
    wp: WorkerParty<'_, M>,
    t: Time,
    n: usize,
    delta: Time,
    coin_seed: u64,
    record: bool,
) -> (PartyId, VecDeque<Step>) {
    let WorkerParty {
        party,
        protocol,
        rng,
        events,
    } = wp;
    let mut queue: BinaryHeap<Reverse<LocalEv>> = BinaryHeap::with_capacity(events.len());
    let mut lseq = 0u64;
    for kind in events {
        debug_assert_eq!(kind.party(), party);
        let local = match kind {
            EventKind::Deliver {
                from,
                path,
                payload,
                ..
            } => LocalEv {
                rank: 0,
                depth: path.len(),
                lseq,
                kind: LocalKind::Deliver {
                    from,
                    path,
                    payload,
                },
            },
            EventKind::DeliverFrame { .. } => {
                unreachable!("frame events are only scheduled by the framed slice engine")
            }
            EventKind::Timer { path, id, .. } => LocalEv {
                rank: 1,
                depth: path.len(),
                lseq,
                kind: LocalKind::Timer { path, id },
            },
        };
        lseq += 1;
        queue.push(Reverse(local));
    }
    let mut steps = VecDeque::new();
    let mut scratch: Effects<M> = Effects::new();
    while let Some(Reverse(ev)) = queue.pop() {
        let mut step = Step {
            kind_tag: 0,
            transcript: None,
            decode_failed: false,
            sends: Vec::new(),
            broadcasts: Vec::new(),
            timers: Vec::new(),
        };
        match ev.kind {
            LocalKind::Deliver {
                from,
                path,
                payload,
            } => match M::decode(&payload) {
                Err(_) => {
                    step.decode_failed = true;
                    if record {
                        step.transcript = Some(TranscriptEntry {
                            at: t,
                            party,
                            event: TranscriptEvent::DroppedDeliver {
                                from,
                                path,
                                bits: payload.len() as u64 * 8,
                            },
                        });
                    }
                }
                Ok(msg) => {
                    if record {
                        step.transcript = Some(TranscriptEntry {
                            at: t,
                            party,
                            event: TranscriptEvent::Deliver {
                                from,
                                path: path.clone(),
                                bits: payload.len() as u64 * 8,
                            },
                        });
                    }
                    let mut ctx = Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                    protocol.on_message(&mut ctx, from, &path, msg);
                }
            },
            LocalKind::Frame { .. } => {
                unreachable!("frame events are only scheduled by the framed slice engine")
            }
            LocalKind::Timer { path, id } => {
                step.kind_tag = 1;
                if record {
                    step.transcript = Some(TranscriptEntry {
                        at: t,
                        party,
                        event: TranscriptEvent::Timer {
                            path: path.clone(),
                            id,
                        },
                    });
                }
                let mut ctx = Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                protocol.on_timer(&mut ctx, &path, id);
            }
        }
        // Resolve the effects: encode payloads here (off the serial merge
        // path) and feed the party's own same-tick cascades back into the
        // local queue, in the same relative order the merge's global
        // sequence numbers will induce (sends, then broadcast self-copies,
        // then timers — each in emission order).
        for (to, path, msg) in scratch.sends.drain(..) {
            let bytes = Arc::new(msg.encode());
            if to == party {
                lseq += 1;
                queue.push(Reverse(LocalEv {
                    rank: 0,
                    depth: path.len(),
                    lseq,
                    kind: LocalKind::Deliver {
                        from: party,
                        path: path.clone(),
                        payload: Arc::clone(&bytes),
                    },
                }));
            }
            step.sends.push((to, path, bytes));
        }
        for (path, msg) in scratch.broadcasts.drain(..) {
            let bytes = Arc::new(msg.encode());
            lseq += 1;
            queue.push(Reverse(LocalEv {
                rank: 0,
                depth: path.len(),
                lseq,
                kind: LocalKind::Deliver {
                    from: party,
                    path: path.clone(),
                    payload: Arc::clone(&bytes),
                },
            }));
            step.broadcasts.push((path, bytes));
        }
        for (delay, path, id) in scratch.timers.drain(..) {
            if delay == 0 {
                lseq += 1;
                queue.push(Reverse(LocalEv {
                    rank: 1,
                    depth: path.len(),
                    lseq,
                    kind: LocalKind::Timer {
                        path: path.clone(),
                        id,
                    },
                }));
            }
            step.timers.push((delay, path, id));
        }
        steps.push_back(step);
    }
    (party, steps)
}

/// Per-message accounting for one honest send: the exact wire size of the
/// message's canonical encoding (in bits) and the top-level path segment the
/// sending instance belongs to (for [`Metrics::honest_bits_by_root_segment`]).
pub(crate) type SendRecord = (u64, Option<u32>);

/// The outgoing wire frames of one honest party's activation: at most one
/// unicast frame per destination plus one broadcast frame whose encoding is
/// shared across all recipients. Accounting stays *per contained message* —
/// frames change the event schedule, never the paper-level bit counting.
pub(crate) struct FrameSet {
    /// Per-destination unicast frames with their per-message accounting,
    /// flushed in ascending destination order.
    pub(crate) unicast: BTreeMap<PartyId, (FrameBuilder, Vec<SendRecord>)>,
    /// The single broadcast frame (empty = no broadcasts this activation).
    pub(crate) broadcast: FrameBuilder,
    /// Per-message accounting of the broadcast frame, applied once per
    /// recipient at flush time.
    pub(crate) broadcast_meta: Vec<SendRecord>,
}

impl FrameSet {
    pub(crate) fn new() -> Self {
        FrameSet {
            unicast: BTreeMap::new(),
            broadcast: FrameBuilder::new(),
            broadcast_meta: Vec::new(),
        }
    }

    /// Appends one unicast to the destination's frame.
    pub(crate) fn add_send<M: WireEncode>(&mut self, to: PartyId, path: &Path, msg: &M) {
        let (builder, meta) = self
            .unicast
            .entry(to)
            .or_insert_with(|| (FrameBuilder::new(), Vec::new()));
        let span = builder.push(path, msg);
        meta.push((span.len() as u64 * 8, path.first().copied()));
    }

    /// Appends one broadcast message to the shared broadcast frame and
    /// returns its exact wire size plus a standalone copy of its encoding
    /// (for the sender's own same-tick delivery), without encoding twice.
    pub(crate) fn add_broadcast<M: WireEncode>(&mut self, path: &Path, msg: &M) -> (u64, Vec<u8>) {
        let span = self.broadcast.push(path, msg);
        let bits = span.len() as u64 * 8;
        self.broadcast_meta.push((bits, path.first().copied()));
        (bits, self.broadcast.message_bytes(span).to_vec())
    }
}

/// Everything one honest party's pre-executed time-slice batch produced under
/// the framed engine: event/transcript/decode accounting plus the coalesced
/// outgoing frames and future timers. Self-addressed messages and zero-delay
/// timers were already handled *inside* the batch (they can only concern the
/// batch's own party) and appear here only as accounting records.
pub(crate) struct BatchOutcome {
    pub(crate) party: PartyId,
    /// Events processed: initial batch events (a frame counts as one) plus
    /// every internal same-tick cascade step.
    pub(crate) events: u64,
    /// Timer expiries among the processed events (see
    /// [`crate::Metrics::timeouts_fired`]).
    pub(crate) timers_fired: u64,
    pub(crate) decode_failures: u64,
    pub(crate) transcript: Vec<TranscriptEntry>,
    /// Accounting for the sends delivered internally (self-sends and the
    /// sender's own copy of each broadcast).
    pub(crate) self_records: Vec<SendRecord>,
    pub(crate) frames: FrameSet,
    /// Timer requests with delay ≥ 1, in emission order.
    pub(crate) timers: Vec<(Time, Path, u64)>,
}

/// Feeds one handler invocation's effects back into a framed batch: unicasts
/// and broadcasts join the outgoing [`FrameSet`], the party's own same-tick
/// copies and zero-delay timers re-enter the local queue, and future timers
/// are recorded for the merge.
fn resolve_framed_effects<M: WireEncode>(
    party: PartyId,
    scratch: &mut Effects<M>,
    out: &mut BatchOutcome,
    queue: &mut BinaryHeap<Reverse<LocalEv>>,
    lseq: &mut u64,
) {
    for (to, path, msg) in scratch.sends.drain(..) {
        if to == party {
            let bytes = Arc::new(msg.encode());
            out.self_records
                .push((bytes.len() as u64 * 8, path.first().copied()));
            *lseq += 1;
            queue.push(Reverse(LocalEv {
                rank: 0,
                depth: path.len(),
                lseq: *lseq,
                kind: LocalKind::Deliver {
                    from: party,
                    path,
                    payload: bytes,
                },
            }));
        } else {
            out.frames.add_send(to, &path, &msg);
        }
    }
    for (path, msg) in scratch.broadcasts.drain(..) {
        let (bits, self_copy) = out.frames.add_broadcast(&path, &msg);
        out.self_records.push((bits, path.first().copied()));
        *lseq += 1;
        queue.push(Reverse(LocalEv {
            rank: 0,
            depth: path.len(),
            lseq: *lseq,
            kind: LocalKind::Deliver {
                from: party,
                path,
                payload: Arc::new(self_copy),
            },
        }));
    }
    for (delay, path, id) in scratch.timers.drain(..) {
        if delay == 0 {
            *lseq += 1;
            queue.push(Reverse(LocalEv {
                rank: 1,
                depth: path.len(),
                lseq: *lseq,
                kind: LocalKind::Timer { path, id },
            }));
        } else {
            out.timers.push((delay, path, id));
        }
    }
}

/// Pre-executes one honest party's full time-`t` batch under the framed
/// engine: frames are unpacked at the delivery boundary, same-tick cascades
/// run locally, and all outgoing cross-party traffic is coalesced into the
/// returned [`BatchOutcome`]'s frame set. Runs either inline (sequential
/// framed engine) or on a worker thread — the outcome is identical, which is
/// what keeps `threads = k` runs bit-identical to `threads = 1`.
pub(crate) fn run_party_batch<M: WireEncode + WireDecode + 'static>(
    wp: WorkerParty<'_, M>,
    t: Time,
    n: usize,
    delta: Time,
    coin_seed: u64,
    record: bool,
) -> BatchOutcome {
    let WorkerParty {
        party,
        protocol,
        rng,
        events,
    } = wp;
    let mut queue: BinaryHeap<Reverse<LocalEv>> = BinaryHeap::with_capacity(events.len());
    let mut lseq = 0u64;
    for kind in events {
        debug_assert_eq!(kind.party(), party);
        let local = match kind {
            EventKind::Deliver {
                from,
                path,
                payload,
                ..
            } => LocalEv {
                rank: 0,
                depth: path.len(),
                lseq,
                kind: LocalKind::Deliver {
                    from,
                    path,
                    payload,
                },
            },
            EventKind::DeliverFrame { from, payload, .. } => LocalEv {
                rank: 0,
                depth: 0,
                lseq,
                kind: LocalKind::Frame { from, payload },
            },
            EventKind::Timer { path, id, .. } => LocalEv {
                rank: 1,
                depth: path.len(),
                lseq,
                kind: LocalKind::Timer { path, id },
            },
        };
        lseq += 1;
        queue.push(Reverse(local));
    }
    let mut out = BatchOutcome {
        party,
        events: 0,
        timers_fired: 0,
        decode_failures: 0,
        transcript: Vec::new(),
        self_records: Vec::new(),
        frames: FrameSet::new(),
        timers: Vec::new(),
    };
    let mut scratch: Effects<M> = Effects::new();
    while let Some(Reverse(ev)) = queue.pop() {
        out.events += 1;
        match ev.kind {
            LocalKind::Deliver {
                from,
                path,
                payload,
            } => match M::decode(&payload) {
                Err(_) => {
                    out.decode_failures += 1;
                    if record {
                        out.transcript.push(TranscriptEntry {
                            at: t,
                            party,
                            event: TranscriptEvent::DroppedDeliver {
                                from,
                                path,
                                bits: payload.len() as u64 * 8,
                            },
                        });
                    }
                }
                Ok(msg) => {
                    if record {
                        out.transcript.push(TranscriptEntry {
                            at: t,
                            party,
                            event: TranscriptEvent::Deliver {
                                from,
                                path: path.clone(),
                                bits: payload.len() as u64 * 8,
                            },
                        });
                    }
                    let mut ctx = Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                    protocol.on_message(&mut ctx, from, &path, msg);
                    resolve_framed_effects(party, &mut scratch, &mut out, &mut queue, &mut lseq);
                }
            },
            LocalKind::Frame { from, payload } => match Frame::decode::<M>(&payload) {
                Err(_) => {
                    // Frames only come from honest senders, whose channels the
                    // adversary cannot touch — defensively drop, never panic.
                    out.decode_failures += 1;
                    if record {
                        out.transcript.push(TranscriptEntry {
                            at: t,
                            party,
                            event: TranscriptEvent::DroppedDeliver {
                                from,
                                path: Path::from(&[][..]),
                                bits: payload.len() as u64 * 8,
                            },
                        });
                    }
                }
                Ok(items) => {
                    for item in items {
                        if record {
                            out.transcript.push(TranscriptEntry {
                                at: t,
                                party,
                                event: TranscriptEvent::Deliver {
                                    from,
                                    path: Path::from(&item.path[..]),
                                    bits: item.msg_bits,
                                },
                            });
                        }
                        let mut ctx =
                            Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                        protocol.on_message(&mut ctx, from, &item.path, item.msg);
                        resolve_framed_effects(
                            party,
                            &mut scratch,
                            &mut out,
                            &mut queue,
                            &mut lseq,
                        );
                    }
                }
            },
            LocalKind::Timer { path, id } => {
                out.timers_fired += 1;
                if record {
                    out.transcript.push(TranscriptEntry {
                        at: t,
                        party,
                        event: TranscriptEvent::Timer {
                            path: path.clone(),
                            id,
                        },
                    });
                }
                let mut ctx = Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                protocol.on_timer(&mut ctx, &path, id);
                resolve_framed_effects(party, &mut scratch, &mut out, &mut queue, &mut lseq);
            }
        }
    }
    out
}

/// One cross-party wire message a corrupt party's batch put on the wire
/// (after its [`ByzantineStrategy`] was consulted), in consult order.
pub(crate) struct CorruptSend {
    pub(crate) to: PartyId,
    pub(crate) path: Path,
    pub(crate) payload: Arc<Vec<u8>>,
}

/// Everything one *corrupt* party's pre-executed time-`t` batch produced for
/// the threaded transport backend. Corrupt traffic is never framed — the
/// Byzantine strategy keeps its exact per-message view of the wire, matching
/// the simulator's corrupt dispatch path message for message.
pub(crate) struct CorruptOutcome {
    pub(crate) party: PartyId,
    pub(crate) events: u64,
    pub(crate) decode_failures: u64,
    pub(crate) transcript: Vec<TranscriptEntry>,
    /// Post-strategy cross-party messages, in consult order.
    pub(crate) sends: Vec<CorruptSend>,
    /// Strategy decisions, mirroring [`Metrics::adversary_drops`] /
    /// [`Metrics::adversary_tampered`] / [`Metrics::corrupt_messages`].
    pub(crate) drops: u64,
    pub(crate) tampered: u64,
    pub(crate) wire_messages: u64,
    /// Timer requests with delay ≥ 1, in emission order.
    pub(crate) timers: Vec<(Time, Path, u64)>,
}

/// Pre-executes one *corrupt* party's full time-`t` batch for the threaded
/// backend, mirroring the framed simulator engine's corrupt path exactly:
/// the initial batch events are processed to completion in canonical
/// `(rank, depth, lseq)` order first, then the same-tick cascades they
/// spawned (self-sends, broadcast self-copies, zero-delay timers) are
/// processed canonically among themselves — the same main-then-cascade order
/// `process_slice_framed` produces by routing corrupt cascades through the
/// global queue. Every send (including self-addressed copies) consults the
/// Byzantine strategy in emission order, as [`Simulation`]'s `dispatch` does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_corrupt_batch<M: WireEncode + WireDecode + 'static>(
    wp: WorkerParty<'_, M>,
    t: Time,
    n: usize,
    delta: Time,
    coin_seed: u64,
    record: bool,
    strategy: &mut dyn ByzantineStrategy,
    adv_rng: &mut StdRng,
) -> CorruptOutcome {
    let WorkerParty {
        party,
        protocol,
        rng,
        events,
    } = wp;
    let mut main: BinaryHeap<Reverse<LocalEv>> = BinaryHeap::with_capacity(events.len());
    let mut lseq = 0u64;
    for kind in events {
        debug_assert_eq!(kind.party(), party);
        let local = match kind {
            EventKind::Deliver {
                from,
                path,
                payload,
                ..
            } => LocalEv {
                rank: 0,
                depth: path.len(),
                lseq,
                kind: LocalKind::Deliver {
                    from,
                    path,
                    payload,
                },
            },
            EventKind::DeliverFrame { from, payload, .. } => LocalEv {
                rank: 0,
                depth: 0,
                lseq,
                kind: LocalKind::Frame { from, payload },
            },
            EventKind::Timer { path, id, .. } => LocalEv {
                rank: 1,
                depth: path.len(),
                lseq,
                kind: LocalKind::Timer { path, id },
            },
        };
        lseq += 1;
        main.push(Reverse(local));
    }
    let mut out = CorruptOutcome {
        party,
        events: 0,
        decode_failures: 0,
        transcript: Vec::new(),
        sends: Vec::new(),
        drops: 0,
        tampered: 0,
        wire_messages: 0,
        timers: Vec::new(),
    };
    let mut cascades: BinaryHeap<Reverse<LocalEv>> = BinaryHeap::new();
    let mut scratch: Effects<M> = Effects::new();
    // Routes one handler invocation's effects through the strategy: self
    // copies join the cascade queue, cross-party survivors join the wire.
    let apply = |scratch: &mut Effects<M>,
                 out: &mut CorruptOutcome,
                 cascades: &mut BinaryHeap<Reverse<LocalEv>>,
                 lseq: &mut u64,
                 strategy: &mut dyn ByzantineStrategy,
                 adv_rng: &mut StdRng| {
        let put = |to: PartyId,
                   path: &Path,
                   payload: &Arc<Vec<u8>>,
                   broadcast: bool,
                   out: &mut CorruptOutcome,
                   cascades: &mut BinaryHeap<Reverse<LocalEv>>,
                   lseq: &mut u64,
                   strategy: &mut dyn ByzantineStrategy,
                   adv_rng: &mut StdRng| {
            let send = WireSend {
                from: party,
                to,
                n,
                path,
                bytes: payload,
                broadcast,
            };
            let payload = match strategy.on_send(&send, adv_rng) {
                WireAction::Deliver => Arc::clone(payload),
                WireAction::Replace(bytes) => {
                    out.tampered += 1;
                    Arc::new(bytes)
                }
                WireAction::Drop => {
                    out.drops += 1;
                    return;
                }
            };
            out.wire_messages += 1;
            if to == party {
                *lseq += 1;
                cascades.push(Reverse(LocalEv {
                    rank: 0,
                    depth: path.len(),
                    lseq: *lseq,
                    kind: LocalKind::Deliver {
                        from: party,
                        path: path.clone(),
                        payload,
                    },
                }));
            } else {
                out.sends.push(CorruptSend {
                    to,
                    path: path.clone(),
                    payload,
                });
            }
        };
        for (to, path, msg) in scratch.sends.drain(..) {
            let payload = Arc::new(msg.encode());
            put(
                to, &path, &payload, false, out, cascades, lseq, strategy, adv_rng,
            );
        }
        for (path, msg) in scratch.broadcasts.drain(..) {
            let payload = Arc::new(msg.encode());
            for to in 0..n {
                put(
                    to, &path, &payload, true, out, cascades, lseq, strategy, adv_rng,
                );
            }
        }
        for (delay, path, id) in scratch.timers.drain(..) {
            if delay == 0 {
                *lseq += 1;
                cascades.push(Reverse(LocalEv {
                    rank: 1,
                    depth: path.len(),
                    lseq: *lseq,
                    kind: LocalKind::Timer { path, id },
                }));
            } else {
                out.timers.push((delay, path, id));
            }
        }
    };
    // Phase 1: the initial batch, then phase 2: its same-tick cascades (which
    // may spawn further cascades, merged canonically into the same queue).
    for phase in 0..2 {
        loop {
            let popped = if phase == 0 {
                main.pop()
            } else {
                cascades.pop()
            };
            let Some(Reverse(ev)) = popped else { break };
            out.events += 1;
            match ev.kind {
                LocalKind::Deliver {
                    from,
                    path,
                    payload,
                } => match M::decode(&payload) {
                    Err(_) => {
                        out.decode_failures += 1;
                        if record {
                            out.transcript.push(TranscriptEntry {
                                at: t,
                                party,
                                event: TranscriptEvent::DroppedDeliver {
                                    from,
                                    path,
                                    bits: payload.len() as u64 * 8,
                                },
                            });
                        }
                    }
                    Ok(msg) => {
                        if record {
                            out.transcript.push(TranscriptEntry {
                                at: t,
                                party,
                                event: TranscriptEvent::Deliver {
                                    from,
                                    path: path.clone(),
                                    bits: payload.len() as u64 * 8,
                                },
                            });
                        }
                        let mut ctx =
                            Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                        protocol.on_message(&mut ctx, from, &path, msg);
                        apply(
                            &mut scratch,
                            &mut out,
                            &mut cascades,
                            &mut lseq,
                            strategy,
                            adv_rng,
                        );
                    }
                },
                LocalKind::Frame { from, payload } => match Frame::decode::<M>(&payload) {
                    Err(_) => {
                        out.decode_failures += 1;
                        if record {
                            out.transcript.push(TranscriptEntry {
                                at: t,
                                party,
                                event: TranscriptEvent::DroppedDeliver {
                                    from,
                                    path: Path::from(&[][..]),
                                    bits: payload.len() as u64 * 8,
                                },
                            });
                        }
                    }
                    Ok(items) => {
                        // Effects are applied per item, exactly as the
                        // simulator's inline frame delivery does.
                        for item in items {
                            if record {
                                out.transcript.push(TranscriptEntry {
                                    at: t,
                                    party,
                                    event: TranscriptEvent::Deliver {
                                        from,
                                        path: Path::from(&item.path[..]),
                                        bits: item.msg_bits,
                                    },
                                });
                            }
                            let mut ctx =
                                Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                            protocol.on_message(&mut ctx, from, &item.path, item.msg);
                            apply(
                                &mut scratch,
                                &mut out,
                                &mut cascades,
                                &mut lseq,
                                strategy,
                                adv_rng,
                            );
                        }
                    }
                },
                LocalKind::Timer { path, id } => {
                    if record {
                        out.transcript.push(TranscriptEntry {
                            at: t,
                            party,
                            event: TranscriptEvent::Timer {
                                path: path.clone(),
                                id,
                            },
                        });
                    }
                    let mut ctx = Context::new(party, n, t, delta, &mut scratch, rng, coin_seed);
                    protocol.on_timer(&mut ctx, &path, id);
                    apply(
                        &mut scratch,
                        &mut out,
                        &mut cascades,
                        &mut lseq,
                        strategy,
                        adv_rng,
                    );
                }
            }
        }
    }
    out
}

/// Minimum same-tick events before the parallel path spawns workers; below
/// this the per-slice thread overhead outweighs any win and the slice runs
/// inline (the results are identical either way). At least two distinct
/// honest parties must also have work — see
/// [`Simulation::slice_worth_parallelising`].
const MIN_PARALLEL_EVENTS: usize = 4;

/// A deterministic discrete-event simulation of `n` parties running one root
/// [`Protocol`] instance each over the configured network.
///
/// Messages travel as their canonical byte encoding ([`crate::wire`]): the
/// simulator encodes each payload once at the send boundary (a broadcast is
/// encoded *once* and the bytes shared across all `n` deliveries), derives
/// the exact bit accounting from the encoded length, passes corrupt senders'
/// bytes through the configured
/// [`ByzantineStrategy`], and decodes at
/// the delivery boundary — bytes that fail to decode are dropped as
/// Byzantine input and counted in [`Metrics::decode_failures`].
///
/// Messages are delivered and timers fired in `(time, kind, sequence)` order;
/// at equal times, message deliveries precede timer expiries so that a party
/// whose timer is set to the network bound `Δ` observes every message that
/// was guaranteed to arrive by then — exactly the paper's synchronous round
/// abstraction.
///
/// With [`NetConfig::with_threads`] (or `MPC_THREADS`) > 1, each same-time
/// batch is pre-executed concurrently grouped by destination party and
/// merged back serially in canonical order; the execution — transcript,
/// metrics, bit accounting, outputs — is bit-identical to the sequential
/// one for every seed, network kind and Byzantine strategy.
pub struct Simulation<M> {
    config: NetConfig,
    threads: usize,
    /// Whether the framed slice engine is active: frame coalescing resolved
    /// from the config, gated on `Scheduler::min_delay() ≥ 1` (cross-party
    /// zero-delay schedulers fall back to the per-message engine, which is
    /// correct for them).
    framed: bool,
    parties: Vec<Box<dyn Protocol<M>>>,
    rngs: Vec<StdRng>,
    corruption: CorruptionSet,
    structure: Option<Arc<dyn AdversaryStructure>>,
    strategy: Box<dyn ByzantineStrategy>,
    scheduler: Box<dyn Scheduler>,
    faults: FaultPlan,
    sched_rng: StdRng,
    adv_rng: StdRng,
    queue: EventQueue,
    seq: u64,
    now: Time,
    metrics: Metrics,
    coin_seed: u64,
    initialized: bool,
    transcript: Option<Vec<TranscriptEntry>>,
    /// Reusable effects buffer: drained after every event instead of
    /// allocating a fresh `Effects` per [`Simulation::step`].
    scratch: Effects<M>,
}

impl<M: WireEncode + WireDecode + 'static> Simulation<M> {
    /// Creates a simulation with the default scheduler for the configured
    /// network kind: worst-case `Δ` delays when synchronous, uniform
    /// `[1, 20·Δ]` delays when asynchronous.
    pub fn new(
        config: NetConfig,
        corruption: CorruptionSet,
        parties: Vec<Box<dyn Protocol<M>>>,
    ) -> Self {
        let scheduler: Box<dyn Scheduler> = match config.kind {
            NetworkKind::Synchronous => Box::new(FixedDelay(config.delta)),
            NetworkKind::Asynchronous => Box::new(UniformDelay {
                min: 1,
                max: config.delta * 20,
            }),
        };
        Self::with_scheduler(config, corruption, scheduler, parties)
    }

    /// Creates a simulation with an explicit (possibly adversarial) scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `parties.len() != config.n`.
    pub fn with_scheduler(
        config: NetConfig,
        corruption: CorruptionSet,
        scheduler: Box<dyn Scheduler>,
        parties: Vec<Box<dyn Protocol<M>>>,
    ) -> Self {
        assert_eq!(
            parties.len(),
            config.n,
            "need exactly one root protocol per party"
        );
        let rngs = (0..config.n)
            .map(|i| StdRng::seed_from_u64(config.party_rng_seed(i)))
            .collect();
        let sched_rng = StdRng::seed_from_u64(config.seed ^ 0xDEAD_BEEF);
        let adv_rng = StdRng::seed_from_u64(config.adversary_seed());
        let coin_seed = config.coin_seed();
        let threads = config.resolved_threads();
        let framed = config.resolved_frames() && scheduler.min_delay() >= 1;
        let queue = EventQueue::new(config.delta);
        let mut metrics = Metrics::new();
        metrics.worker_threads = threads as u64;
        Simulation {
            config,
            threads,
            framed,
            parties,
            rngs,
            corruption,
            structure: None,
            strategy: Box::new(Passive),
            scheduler,
            faults: FaultPlan::none(),
            sched_rng,
            adv_rng,
            queue,
            seq: 0,
            now: 0,
            metrics,
            coin_seed,
            initialized: false,
            transcript: None,
            scratch: Effects::new(),
        }
    }

    /// Installs the wire-level Byzantine behaviour applied to every message
    /// sent by a corrupt party (default: [`Passive`], i.e. pass-through).
    /// Call before running.
    pub fn set_strategy(&mut self, strategy: Box<dyn ByzantineStrategy>) {
        self.strategy = strategy;
    }

    /// Installs an injected [`FaultPlan`] applied on top of the scheduler's
    /// link delays (default: the empty plan). Call before running. The same
    /// plan on the threaded backend yields the same per-message decisions —
    /// see the determinism contract in [`crate::faults`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The injected fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Attaches the [`AdversaryStructure`] the corruption set was validated
    /// against (descriptive only — see `Transport::set_adversary_structure`).
    pub fn set_adversary_structure(&mut self, structure: Arc<dyn AdversaryStructure>) {
        self.structure = Some(structure);
    }

    /// The attached adversary structure, if any.
    pub fn adversary_structure(&self) -> Option<&Arc<dyn AdversaryStructure>> {
        self.structure.as_ref()
    }

    /// Starts recording every processed event; call before running. Off by
    /// default because full transcripts of large runs are memory-heavy.
    pub fn record_transcript(&mut self) {
        self.transcript.get_or_insert_with(Vec::new);
    }

    /// The recorded transcript (empty unless [`Simulation::record_transcript`]
    /// was called before running).
    pub fn transcript(&self) -> &[TranscriptEntry] {
        self.transcript.as_deref().unwrap_or(&[])
    }

    /// The configuration the simulation was built with.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The effective worker-thread count of this run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the framed slice engine is active for this run (frame
    /// coalescing enabled *and* the scheduler guarantees cross-party delays
    /// of at least one tick).
    pub fn framed(&self) -> bool {
        self.framed
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Communication metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The corruption set.
    pub fn corruption(&self) -> &CorruptionSet {
        &self.corruption
    }

    /// Immutable access to party `i`'s root protocol instance.
    pub fn party(&self, i: PartyId) -> &dyn Protocol<M> {
        self.parties[i].as_ref()
    }

    /// Downcasts party `i`'s root protocol to a concrete type for inspecting
    /// outputs after (or during) the run.
    pub fn party_as<T: 'static>(&self, i: PartyId) -> Option<&T> {
        self.parties[i].as_any().downcast_ref::<T>()
    }

    /// Calls `init` on every party at time 0. Invoked automatically by the
    /// `run_*` methods if not done explicitly.
    pub fn init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for p in 0..self.config.n {
            let mut effects = std::mem::replace(&mut self.scratch, Effects::new());
            {
                let mut ctx = Context::new(
                    p,
                    self.config.n,
                    0,
                    self.config.delta,
                    &mut effects,
                    &mut self.rngs[p],
                    self.coin_seed,
                );
                self.parties[p].init(&mut ctx);
            }
            if self.framed && self.corruption.is_honest(p) {
                self.flush_framed_effects(p, &mut effects);
            } else {
                self.apply_effects(p, &mut effects);
            }
            self.scratch = effects;
        }
    }

    /// Processes the next single event. Returns `false` when the queue is
    /// empty. Always sequential — the parallel *and* framed engines operate
    /// on whole time slices via the `run_*` methods, so a single-stepped run
    /// delivers frames (unpacking them at the boundary) but dispatches its
    /// own output per message.
    pub fn step(&mut self) -> bool {
        self.init();
        let Some(t) = self.queue.next_time() else {
            return false;
        };
        let Some(ev) = self.queue.pop_current() else {
            unreachable!("next_time returned a tick without events")
        };
        debug_assert!(t >= self.now, "time must be monotone");
        self.now = t;
        self.metrics.events_processed += 1;
        self.execute_event(ev);
        true
    }

    /// Runs until `pred` returns `true`, the event queue drains, or the next
    /// pending event lies beyond `horizon`. Returns whether `pred` became
    /// true.
    ///
    /// `pred` is evaluated at *time-slice boundaries*: all events scheduled
    /// at the same simulated tick (including the same-tick cascades they
    /// spawn) are processed as one atomic batch before the predicate sees
    /// the state. A tick is the paper's indivisible unit of simultaneity —
    /// and slice atomicity is what lets the batch be pre-executed on worker
    /// threads without ever exposing a state the sequential engine would
    /// not also reach.
    pub fn run_until(&mut self, horizon: Time, mut pred: impl FnMut(&Self) -> bool) -> bool {
        self.init();
        if pred(self) {
            return true;
        }
        while let Some(t) = self.queue.next_time() {
            if t > horizon {
                return false;
            }
            self.process_slice(t);
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Runs until the event queue is empty or `horizon` is exceeded.
    pub fn run_to_quiescence(&mut self, horizon: Time) {
        let _ = self.run_until(horizon, |_| false);
    }

    /// Processes the complete batch of events scheduled at tick `t` — the
    /// events already queued for `t` plus every same-tick cascade they
    /// spawn. The caller must have positioned the queue via
    /// [`EventQueue::next_time`].
    fn process_slice(&mut self, t: Time) {
        self.now = t;
        let depth = self.queue.len() as u64;
        let before = self.metrics.events_processed;
        // Parallel pre-execution is sound only when cross-party messages
        // cannot be delivered within the same tick they are sent (see
        // `Scheduler::min_delay`): then every same-tick cascade stays on the
        // party that spawned it, and per-party batches commute. The framed
        // engine rests on the same property (it is gated on it at
        // construction) and exploits it twice: per-party batches *and*
        // per-destination frame coalescing of each batch's output. Whether
        // parallelism is *worth it* is decided by inspecting the live
        // bucket, so thin slices pay a single pop each rather than a
        // drain-and-reinsert.
        if self.framed {
            self.process_slice_framed(t);
        } else if self.threads > 1
            && self.scheduler.min_delay() >= 1
            && self.slice_worth_parallelising()
        {
            self.process_slice_parallel(t);
        } else {
            while let Some(ev) = self.queue.pop_current() {
                self.metrics.events_processed += 1;
                self.execute_event(ev);
            }
        }
        self.metrics
            .record_slice(self.metrics.events_processed - before, depth);
    }

    /// Cheap pre-check on the current bucket: spawn workers only for slices
    /// with at least [`MIN_PARALLEL_EVENTS`] initially queued events spread
    /// over at least two distinct honest parties. Purely a
    /// wall-clock heuristic — either engine produces identical results.
    fn slice_worth_parallelising(&self) -> bool {
        let mut events = 0usize;
        let mut first_honest: Option<PartyId> = None;
        let mut two_honest = false;
        for ev in self.queue.current_events() {
            events += 1;
            if !two_honest {
                let p = ev.kind.party();
                if self.corruption.is_honest(p) {
                    match first_honest {
                        None => first_honest = Some(p),
                        Some(q) => two_honest = q != p,
                    }
                }
            }
            if events >= MIN_PARALLEL_EVENTS && two_honest {
                return true;
            }
        }
        false
    }

    /// The parallel slice engine: drain the batch, pre-execute honest
    /// parties' events on worker threads grouped by party, then merge the
    /// pre-computed steps back by replaying the queue in canonical order
    /// (corrupt parties execute inline during the merge, because their
    /// sends consult the shared adversary RNG and strategy).
    fn process_slice_parallel(&mut self, t: Time) {
        let mut initial: Vec<Event> = Vec::new();
        while let Some(ev) = self.queue.pop_current() {
            initial.push(ev);
        }
        // Group the honest parties' events (canonical order per party; the
        // kind clones are cheap `Arc` bumps).
        let mut per_party: BTreeMap<PartyId, Vec<EventKind>> = BTreeMap::new();
        for ev in &initial {
            let p = ev.kind.party();
            if self.corruption.is_honest(p) {
                per_party.entry(p).or_default().push(ev.kind.clone());
            }
        }
        let workers = self.threads.min(per_party.len());
        let n = self.config.n;
        let delta = self.config.delta;
        let coin_seed = self.coin_seed;
        let record = self.transcript.is_some();
        // Carve disjoint `&mut` party/rng slots out of the simulation,
        // round-robin across workers (party ids ascend, so repeated
        // `split_at_mut` walks suffice — no unsafe).
        let mut groups: Vec<Vec<WorkerParty<'_, M>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut parties_tail = self.parties.as_mut_slice();
        let mut rngs_tail = self.rngs.as_mut_slice();
        let mut offset = 0usize;
        for (i, (party, events)) in per_party.into_iter().enumerate() {
            let (_, rest) = parties_tail.split_at_mut(party - offset);
            let Some((protocol, rest)) = rest.split_first_mut() else {
                unreachable!("party id within range")
            };
            parties_tail = rest;
            let (_, rest) = rngs_tail.split_at_mut(party - offset);
            let Some((rng, rest)) = rest.split_first_mut() else {
                unreachable!("party id within range")
            };
            rngs_tail = rest;
            offset = party + 1;
            groups[i % workers].push(WorkerParty {
                party,
                protocol,
                rng,
                events,
            });
        }
        let mut traces: Vec<Option<VecDeque<Step>>> = (0..n).map(|_| None).collect();
        let results: Vec<Vec<(PartyId, VecDeque<Step>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .into_iter()
                            .map(|wp| run_party_slice(wp, t, n, delta, coin_seed, record))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulation worker thread panicked"))
                .collect()
        });
        for (party, steps) in results.into_iter().flatten() {
            traces[party] = Some(steps);
        }
        // Canonical serial merge: replay the slice through the queue so the
        // global order — including cross-party interleavings of same-tick
        // cascades — is exactly what the sequential engine produces.
        for ev in initial {
            self.queue.push(ev);
        }
        while let Some(ev) = self.queue.pop_current() {
            self.metrics.events_processed += 1;
            let p = ev.kind.party();
            match traces.get_mut(p).and_then(Option::as_mut) {
                Some(steps) => {
                    let step = steps.pop_front().unwrap_or_else(|| {
                        panic!(
                            "parallel slice out of sync: party {p} received an unplanned \
                             same-tick event (is a cross-party delay-0 scheduler in use?)"
                        )
                    });
                    let tag = matches!(ev.kind, EventKind::Timer { .. }) as u8;
                    assert_eq!(
                        tag, step.kind_tag,
                        "parallel slice out of sync for party {p}: event kind mismatch"
                    );
                    self.metrics.timeouts_fired += u64::from(tag);
                    self.consume_step(p, step);
                }
                None => self.execute_event(ev),
            }
        }
        debug_assert!(
            traces
                .iter()
                .all(|t| t.as_ref().is_none_or(VecDeque::is_empty)),
            "every pre-executed step must be consumed by the merge"
        );
    }

    /// Applies one pre-executed step on the serial merge path: transcript,
    /// decode accounting and effect dispatch happen here, in canonical
    /// order, exactly as the sequential engine interleaves them.
    fn consume_step(&mut self, party: PartyId, step: Step) {
        if step.decode_failed {
            self.metrics.decode_failures += 1;
        }
        if let Some(transcript) = &mut self.transcript {
            if let Some(entry) = step.transcript {
                transcript.push(entry);
            }
        }
        for (to, path, bytes) in step.sends {
            self.dispatch(party, true, to, path, bytes, false);
        }
        for (path, bytes) in step.broadcasts {
            for to in 0..self.config.n {
                self.dispatch(party, true, to, path.clone(), Arc::clone(&bytes), true);
            }
        }
        for (delay, path, id) in step.timers {
            self.push_timer(party, delay, path, id);
        }
    }

    /// The framed slice engine: drain the tick, group events by party, run
    /// every honest party's batch through [`run_party_batch`] (inline, or on
    /// worker threads when the slice is wide enough), and merge the outcomes
    /// in ascending party order — flushing each batch's coalesced frames with
    /// one scheduler draw per frame event. Corrupt parties execute inline
    /// with per-message dispatch so Byzantine strategies keep their exact
    /// per-message semantics (and their shared adversary RNG draw order).
    fn process_slice_framed(&mut self, t: Time) {
        let mut per_party: BTreeMap<PartyId, Vec<Event>> = BTreeMap::new();
        let mut total = 0usize;
        while let Some(ev) = self.queue.pop_current() {
            total += 1;
            per_party.entry(ev.kind.party()).or_default().push(ev);
        }
        let record = self.transcript.is_some();
        let n = self.config.n;
        let delta = self.config.delta;
        let coin_seed = self.coin_seed;
        let mut outcomes: Vec<Option<BatchOutcome>> = (0..n).map(|_| None).collect();
        let honest_with_work = per_party
            .keys()
            .filter(|&&p| self.corruption.is_honest(p))
            .count();
        if self.threads > 1 && total >= MIN_PARALLEL_EVENTS && honest_with_work >= 2 {
            // Carve disjoint `&mut` party/rng slots for the honest parties
            // (ascending ids ⇒ repeated `split_at_mut` walks, no unsafe).
            let workers = self.threads.min(honest_with_work);
            let mut groups: Vec<Vec<WorkerParty<'_, M>>> =
                (0..workers).map(|_| Vec::new()).collect();
            let mut parties_tail = self.parties.as_mut_slice();
            let mut rngs_tail = self.rngs.as_mut_slice();
            let mut offset = 0usize;
            let mut slot = 0usize;
            for (&party, events) in &per_party {
                if !self.corruption.is_honest(party) {
                    continue;
                }
                let (_, rest) = parties_tail.split_at_mut(party - offset);
                let Some((protocol, rest)) = rest.split_first_mut() else {
                    unreachable!("party id within range")
                };
                parties_tail = rest;
                let (_, rest) = rngs_tail.split_at_mut(party - offset);
                let Some((rng, rest)) = rest.split_first_mut() else {
                    unreachable!("party id within range")
                };
                rngs_tail = rest;
                offset = party + 1;
                groups[slot % workers].push(WorkerParty {
                    party,
                    protocol,
                    rng,
                    events: events.iter().map(|ev| ev.kind.clone()).collect(),
                });
                slot += 1;
            }
            let results: Vec<Vec<BatchOutcome>> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|group| {
                        scope.spawn(move || {
                            group
                                .into_iter()
                                .map(|wp| run_party_batch(wp, t, n, delta, coin_seed, record))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("simulation worker thread panicked"))
                    .collect()
            });
            for outcome in results.into_iter().flatten() {
                let party = outcome.party;
                outcomes[party] = Some(outcome);
            }
        }
        for (party, events) in per_party {
            if self.corruption.is_honest(party) {
                let outcome = match outcomes[party].take() {
                    Some(outcome) => outcome,
                    None => {
                        let kinds: Vec<EventKind> = events.into_iter().map(|ev| ev.kind).collect();
                        run_party_batch(
                            WorkerParty {
                                party,
                                protocol: &mut self.parties[party],
                                rng: &mut self.rngs[party],
                                events: kinds,
                            },
                            t,
                            n,
                            delta,
                            coin_seed,
                            record,
                        )
                    }
                };
                self.apply_outcome(outcome);
            } else {
                for ev in events {
                    self.metrics.events_processed += 1;
                    self.execute_event(ev);
                }
            }
        }
        // Same-tick cascades of corrupt parties (their self-sends and
        // zero-delay timers go through the global queue); `min_delay ≥ 1`
        // keeps everything else out of the current tick.
        while let Some(ev) = self.queue.pop_current() {
            self.metrics.events_processed += 1;
            self.execute_event(ev);
        }
    }

    /// Applies one pre-executed framed batch on the merge path: accounting,
    /// transcript, frame dispatch (one scheduler draw per frame event) and
    /// timer scheduling, in the engine's canonical ascending-party order.
    fn apply_outcome(&mut self, outcome: BatchOutcome) {
        let BatchOutcome {
            party,
            events,
            timers_fired,
            decode_failures,
            transcript,
            self_records,
            frames,
            timers,
        } = outcome;
        self.metrics.events_processed += events;
        self.metrics.timeouts_fired += timers_fired;
        self.metrics.decode_failures += decode_failures;
        if let Some(recorded) = &mut self.transcript {
            recorded.extend(transcript);
        }
        for (bits, seg) in self_records {
            self.metrics.record_send(party, true, bits, seg);
        }
        self.flush_frame_set(party, frames);
        for (delay, path, id) in timers {
            self.push_timer(party, delay, path, id);
        }
    }

    /// Dispatches a [`FrameSet`]'s frames: unicast frames in ascending
    /// destination order, then the broadcast frame to every other party with
    /// its encoding `Arc`-shared. Per-message bit accounting is applied here
    /// (once per recipient channel), exactly as the unframed engine would.
    fn flush_frame_set(&mut self, sender: PartyId, frames: FrameSet) {
        let FrameSet {
            unicast,
            broadcast,
            broadcast_meta,
        } = frames;
        for (to, (builder, meta)) in unicast {
            for (bits, seg) in meta {
                self.metrics.record_send(sender, true, bits, seg);
            }
            self.dispatch_frame(sender, to, Arc::new(builder.finish()));
        }
        if !broadcast.is_empty() {
            let payload = Arc::new(broadcast.finish());
            for to in 0..self.config.n {
                if to == sender {
                    continue;
                }
                for &(bits, seg) in &broadcast_meta {
                    self.metrics.record_send(sender, true, bits, seg);
                }
                self.dispatch_frame(sender, to, Arc::clone(&payload));
            }
        }
    }

    /// Coalesces an *honest* party's out-of-slice effects (currently: its
    /// `init` effects) into frames and dispatches them. Self-addressed
    /// messages have no running batch to join, so they travel as plain
    /// zero-delay events instead.
    fn flush_framed_effects(&mut self, sender: PartyId, effects: &mut Effects<M>) {
        let mut frames = FrameSet::new();
        for (to, path, msg) in effects.sends.drain(..) {
            if to == sender {
                let payload = Arc::new(msg.encode());
                self.dispatch(sender, true, to, path, payload, false);
            } else {
                frames.add_send(to, &path, &msg);
            }
        }
        for (path, msg) in effects.broadcasts.drain(..) {
            let (_, self_copy) = frames.add_broadcast(&path, &msg);
            self.dispatch(sender, true, sender, path, Arc::new(self_copy), true);
        }
        self.flush_frame_set(sender, frames);
        for (delay, path, id) in effects.timers.drain(..) {
            self.push_timer(sender, delay, path, id);
        }
    }

    /// Schedules one frame event (honest senders only — corrupt parties'
    /// traffic is never framed, so Byzantine strategies keep their
    /// per-message view of the wire).
    fn dispatch_frame(&mut self, from: PartyId, to: PartyId, payload: Arc<Vec<u8>>) {
        debug_assert_ne!(to, from, "self-addressed traffic is delivered in-batch");
        self.metrics.frames_sent += 1;
        let delay = self
            .scheduler
            .delay(from, to, self.now, &mut self.sched_rng);
        // The fault plan acts on the network, after the sender's bit
        // accounting: a dropped frame was still sent.
        let (at, duplicate) = match self.faults.resolve(from, to, self.now, self.now + delay) {
            FaultOutcome::Drop => {
                self.metrics.fault_drops += 1;
                return;
            }
            FaultOutcome::Deliver { at, duplicate } => (at, duplicate),
        };
        self.seq += 1;
        self.queue.push(Event {
            at,
            rank: 0,
            depth: 0,
            seq: self.seq,
            kind: EventKind::DeliverFrame {
                to,
                from,
                payload: payload.clone(),
            },
        });
        if let Some(dup_at) = duplicate {
            self.metrics.fault_duplicates += 1;
            self.seq += 1;
            self.queue.push(Event {
                at: dup_at,
                rank: 0,
                depth: 0,
                seq: self.seq,
                kind: EventKind::DeliverFrame { to, from, payload },
            });
        }
    }

    /// Executes one event inline (sequential path and corrupt parties):
    /// decode boundary, transcript, handler, effect application.
    fn execute_event(&mut self, ev: Event) {
        if matches!(ev.kind, EventKind::Timer { .. }) {
            self.metrics.timeouts_fired += 1;
        }
        let (party, mut effects) = match ev.kind {
            EventKind::DeliverFrame { to, from, payload } => {
                // Frame delivery outside a framed batch: corrupt recipients
                // during a framed slice, and single-stepped runs. Unpack at
                // the boundary and handle the items back to back; effects are
                // applied per item with the unframed per-message dispatch.
                match Frame::decode::<M>(&payload) {
                    Err(_) => {
                        self.metrics.decode_failures += 1;
                        if let Some(transcript) = &mut self.transcript {
                            transcript.push(TranscriptEntry {
                                at: ev.at,
                                party: to,
                                event: TranscriptEvent::DroppedDeliver {
                                    from,
                                    path: Path::from(&[][..]),
                                    bits: payload.len() as u64 * 8,
                                },
                            });
                        }
                    }
                    Ok(items) => {
                        for item in items {
                            if let Some(transcript) = &mut self.transcript {
                                transcript.push(TranscriptEntry {
                                    at: ev.at,
                                    party: to,
                                    event: TranscriptEvent::Deliver {
                                        from,
                                        path: Path::from(&item.path[..]),
                                        bits: item.msg_bits,
                                    },
                                });
                            }
                            let mut effects = std::mem::replace(&mut self.scratch, Effects::new());
                            {
                                let mut ctx = Context::new(
                                    to,
                                    self.config.n,
                                    self.now,
                                    self.config.delta,
                                    &mut effects,
                                    &mut self.rngs[to],
                                    self.coin_seed,
                                );
                                self.parties[to].on_message(&mut ctx, from, &item.path, item.msg);
                            }
                            self.apply_effects(to, &mut effects);
                            self.scratch = effects;
                        }
                    }
                }
                return;
            }
            EventKind::Deliver {
                to,
                from,
                path,
                payload,
            } => {
                // The delivery boundary: bytes that do not decode as a
                // protocol message are Byzantine input — drop and count,
                // never panic, never reach the protocol.
                let Ok(msg) = M::decode(&payload) else {
                    self.metrics.decode_failures += 1;
                    if let Some(transcript) = &mut self.transcript {
                        transcript.push(TranscriptEntry {
                            at: ev.at,
                            party: to,
                            event: TranscriptEvent::DroppedDeliver {
                                from,
                                path,
                                bits: payload.len() as u64 * 8,
                            },
                        });
                    }
                    return;
                };
                if let Some(transcript) = &mut self.transcript {
                    transcript.push(TranscriptEntry {
                        at: ev.at,
                        party: to,
                        event: TranscriptEvent::Deliver {
                            from,
                            path: path.clone(),
                            bits: payload.len() as u64 * 8,
                        },
                    });
                }
                let mut effects = std::mem::replace(&mut self.scratch, Effects::new());
                {
                    let mut ctx = Context::new(
                        to,
                        self.config.n,
                        self.now,
                        self.config.delta,
                        &mut effects,
                        &mut self.rngs[to],
                        self.coin_seed,
                    );
                    self.parties[to].on_message(&mut ctx, from, &path, msg);
                }
                (to, effects)
            }
            EventKind::Timer { party, path, id } => {
                if let Some(transcript) = &mut self.transcript {
                    transcript.push(TranscriptEntry {
                        at: ev.at,
                        party,
                        event: TranscriptEvent::Timer {
                            path: path.clone(),
                            id,
                        },
                    });
                }
                let mut effects = std::mem::replace(&mut self.scratch, Effects::new());
                {
                    let mut ctx = Context::new(
                        party,
                        self.config.n,
                        self.now,
                        self.config.delta,
                        &mut effects,
                        &mut self.rngs[party],
                        self.coin_seed,
                    );
                    self.parties[party].on_timer(&mut ctx, &path, id);
                }
                (party, effects)
            }
        };
        self.apply_effects(party, &mut effects);
        self.scratch = effects;
    }

    /// Drains the effects buffer into the event queue (the buffer's
    /// allocations are kept alive for reuse by the next event).
    fn apply_effects(&mut self, sender: PartyId, effects: &mut Effects<M>) {
        let honest = self.corruption.is_honest(sender);
        for (to, path, msg) in effects.sends.drain(..) {
            let payload = Arc::new(msg.encode());
            self.dispatch(sender, honest, to, path, payload, false);
        }
        for (path, msg) in effects.broadcasts.drain(..) {
            // One encoding for the whole broadcast; every delivery event
            // shares the same bytes (and the same interned path) through
            // `Arc`s.
            let payload = Arc::new(msg.encode());
            for to in 0..self.config.n {
                self.dispatch(sender, honest, to, path.clone(), Arc::clone(&payload), true);
            }
        }
        for (delay, path, id) in effects.timers.drain(..) {
            self.push_timer(sender, delay, path, id);
        }
    }

    /// Schedules one timer expiry.
    fn push_timer(&mut self, party: PartyId, delay: Time, path: Path, id: u64) {
        self.seq += 1;
        self.queue.push(Event {
            at: self.now + delay,
            rank: 1,
            depth: path.len(),
            seq: self.seq,
            kind: EventKind::Timer { party, path, id },
        });
    }

    /// Puts one already-encoded message on the wire: consults the Byzantine
    /// strategy for corrupt senders, records the exact bit accounting, and
    /// schedules the delivery event.
    fn dispatch(
        &mut self,
        from: PartyId,
        honest: bool,
        to: PartyId,
        path: Path,
        payload: Arc<Vec<u8>>,
        broadcast: bool,
    ) {
        let payload = if honest {
            payload
        } else {
            let send = WireSend {
                from,
                to,
                n: self.config.n,
                path: &path,
                bytes: &payload,
                broadcast,
            };
            match self.strategy.on_send(&send, &mut self.adv_rng) {
                WireAction::Deliver => payload,
                WireAction::Replace(bytes) => {
                    self.metrics.adversary_tampered += 1;
                    Arc::new(bytes)
                }
                WireAction::Drop => {
                    self.metrics.adversary_drops += 1;
                    return;
                }
            }
        };
        let bits = payload.len() as u64 * 8;
        self.metrics
            .record_send(from, honest, bits, path.first().copied());
        let delay = if to == from {
            0
        } else {
            self.scheduler
                .delay(from, to, self.now, &mut self.sched_rng)
        };
        // Fault plan after the sender's accounting: sent bits count even
        // when the network then drops the message. Self-sends are exempt by
        // the plan's contract.
        let (at, duplicate) = match self.faults.resolve(from, to, self.now, self.now + delay) {
            FaultOutcome::Drop => {
                self.metrics.fault_drops += 1;
                return;
            }
            FaultOutcome::Deliver { at, duplicate } => (at, duplicate),
        };
        self.seq += 1;
        self.queue.push(Event {
            at,
            rank: 0,
            depth: path.len(),
            seq: self.seq,
            kind: EventKind::Deliver {
                to,
                from,
                path: path.clone(),
                payload: payload.clone(),
            },
        });
        if let Some(dup_at) = duplicate {
            self.metrics.fault_duplicates += 1;
            self.seq += 1;
            self.queue.push(Event {
                at: dup_at,
                rank: 0,
                depth: path.len(),
                seq: self.seq,
                kind: EventKind::Deliver {
                    to,
                    from,
                    path,
                    payload,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// A toy protocol: party 0 sends "ping" to everyone at init; everyone who
    /// receives a ping replies "pong" to the sender; party 0 counts pongs.
    #[derive(Debug, Default)]
    struct PingPong {
        pongs: usize,
        got_ping_at: Option<Time>,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    impl WireEncode for Msg {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(match self {
                Msg::Ping => 0,
                Msg::Pong => 1,
            });
        }
    }

    impl WireDecode for Msg {
        fn decode_from(
            r: &mut crate::wire::WireReader<'_>,
        ) -> Result<Self, crate::wire::WireError> {
            match r.u8()? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Pong),
                tag => Err(crate::wire::WireError::InvalidTag {
                    tag,
                    context: "test Msg",
                }),
            }
        }
    }

    impl Protocol<Msg> for PingPong {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me == 0 {
                ctx.broadcast(Msg::Ping);
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            _path: &[u32],
            msg: Msg,
        ) {
            match msg {
                Msg::Ping => {
                    self.got_ping_at = Some(ctx.now);
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _path: &[u32], _id: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn parties(n: usize) -> Vec<Box<dyn Protocol<Msg>>> {
        (0..n)
            .map(|_| Box::new(PingPong::default()) as Box<dyn Protocol<Msg>>)
            .collect()
    }

    #[test]
    fn ping_pong_completes_in_sync_network() {
        let n = 5;
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties(n));
        let done = sim.run_until(1000, |s| s.party_as::<PingPong>(0).unwrap().pongs == n);
        assert!(done);
        // all pings delivered within Δ
        for i in 1..n {
            let p = sim.party_as::<PingPong>(i).unwrap();
            assert!(p.got_ping_at.unwrap() <= sim.config().delta);
        }
    }

    #[test]
    fn sync_network_respects_delta_bound() {
        let n = 4;
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties(n));
        sim.run_to_quiescence(10_000);
        // ping at 0 → delivered by Δ; pong → by 2Δ; nothing after that.
        assert!(sim.now() <= 2 * sim.config().delta);
    }

    #[test]
    fn async_network_can_exceed_delta() {
        let n = 4;
        let cfg = NetConfig::asynchronous(n).with_seed(3);
        let delta = cfg.delta;
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties(n));
        sim.run_to_quiescence(100_000);
        let late =
            (1..n).any(|i| sim.party_as::<PingPong>(i).unwrap().got_ping_at.unwrap() > delta);
        assert!(
            late,
            "with the async scheduler some delivery should exceed Δ"
        );
    }

    #[test]
    fn metrics_count_honest_messages() {
        let n = 4;
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties(n));
        sim.run_to_quiescence(10_000);
        // n pings + (n-1) pongs + self-ping answered by self pong = n + n
        assert_eq!(sim.metrics().honest_messages, (n + n) as u64);
        assert_eq!(sim.metrics().honest_bits, (n + n) as u64 * 8);
    }

    #[test]
    fn corrupt_sender_messages_not_counted_as_honest() {
        let n = 4;
        let mut sim = Simulation::new(
            NetConfig::synchronous(n),
            CorruptionSet::new(vec![0]),
            parties(n),
        );
        sim.run_to_quiescence(10_000);
        // party 0 sends n pings plus the pong answering its own ping
        assert_eq!(sim.metrics().corrupt_messages, (n + 1) as u64);
        assert_eq!(sim.metrics().honest_messages, (n - 1) as u64); // the other pongs
    }

    #[test]
    fn crash_strategy_suppresses_all_corrupt_sends() {
        let n = 4;
        let mut sim = Simulation::new(
            NetConfig::synchronous(n),
            CorruptionSet::new(vec![0]),
            parties(n),
        );
        sim.set_strategy(Box::new(crate::adversary::Crash));
        sim.run_to_quiescence(10_000);
        // party 0's n-recipient ping broadcast is dropped on the wire, so no
        // pings arrive and nobody ever replies
        assert_eq!(sim.metrics().adversary_drops, n as u64);
        assert_eq!(sim.metrics().honest_messages, 0);
        assert_eq!(sim.metrics().corrupt_messages, 0);
    }

    #[test]
    fn garbling_corrupt_sender_never_panics() {
        let n = 4;
        let mut sim = Simulation::new(
            NetConfig::synchronous(n),
            CorruptionSet::new(vec![0]),
            parties(n),
        );
        sim.set_strategy(Box::new(crate::adversary::GarbleBytes));
        sim.run_to_quiescence(10_000);
        // every wire copy of party 0's broadcast was tampered with, and each
        // delivery either decoded to *some* message or was dropped cleanly
        assert!(sim.metrics().adversary_tampered >= n as u64);
        let answered: u64 = (0..n)
            .map(|i| sim.party_as::<PingPong>(i).unwrap().got_ping_at.is_some() as u64)
            .sum();
        assert!(answered + sim.metrics().decode_failures >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 6;
        let run = |seed: u64| {
            let mut sim = Simulation::new(
                NetConfig::asynchronous(n).with_seed(seed),
                CorruptionSet::none(),
                parties(n),
            );
            sim.run_to_quiescence(100_000);
            (sim.now(), sim.metrics().clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn timer_fires_after_messages_at_same_time() {
        // A protocol that sends itself a message with delay 0 and sets a timer
        // with delay 0; the message must be handled first.
        #[derive(Debug, Default)]
        struct Order {
            log: Vec<&'static str>,
        }
        impl Protocol<Msg> for Order {
            fn init(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(0, 1);
                ctx.send(ctx.me, Msg::Ping);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: PartyId, _p: &[u32], _m: Msg) {
                self.log.push("msg");
            }
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _p: &[u32], _id: u64) {
                self.log.push("timer");
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new(
            NetConfig::synchronous(1),
            CorruptionSet::none(),
            vec![Box::new(Order::default()) as Box<dyn Protocol<Msg>>],
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.party_as::<Order>(0).unwrap().log, vec!["msg", "timer"]);
    }

    /// The core tentpole guarantee at unit scale: a multi-threaded run is
    /// bit-identical to the sequential one — transcript, metrics, times.
    #[test]
    fn parallel_run_bit_identical_to_sequential() {
        let n = 8;
        let run = |threads: usize, kind: NetworkKind| {
            let cfg = NetConfig::for_kind(n, kind)
                .with_seed(5)
                .with_threads(threads);
            let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties(n));
            sim.record_transcript();
            sim.run_to_quiescence(100_000);
            (sim.transcript().to_vec(), sim.metrics().clone(), sim.now())
        };
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let seq = run(1, kind);
            for threads in [2, 4, 7] {
                let par = run(threads, kind);
                assert_eq!(seq.0, par.0, "{kind:?} transcript, threads={threads}");
                assert_eq!(seq.1, par.1, "{kind:?} metrics, threads={threads}");
                assert_eq!(seq.2, par.2, "{kind:?} end time, threads={threads}");
            }
        }
    }

    /// Same-tick cascade ordering (self-sends before timers, then deeper
    /// paths first) must survive parallel pre-execution.
    #[test]
    fn parallel_preserves_same_tick_cascade_order() {
        #[derive(Debug, Default)]
        struct Cascade {
            log: Vec<String>,
        }
        impl Protocol<Msg> for Cascade {
            fn init(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.broadcast(Msg::Ping);
                ctx.set_timer(0, 7);
            }
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, Msg>,
                from: PartyId,
                _p: &[u32],
                m: Msg,
            ) {
                self.log.push(format!("msg{from}:{m:?}"));
                if matches!(m, Msg::Ping) && from == ctx.me {
                    // same-tick self-cascade, one level deeper
                    ctx.scoped(3, |c| c.send(c.me, Msg::Pong));
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _p: &[u32], id: u64) {
                self.log.push(format!("timer{id}"));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let n = 6;
        let run = |threads: usize| {
            let cfg = NetConfig::synchronous(n).with_seed(9).with_threads(threads);
            let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
                .map(|_| Box::new(Cascade::default()) as Box<dyn Protocol<Msg>>)
                .collect();
            let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
            sim.record_transcript();
            sim.run_to_quiescence(10_000);
            let logs: Vec<Vec<String>> = (0..n)
                .map(|i| sim.party_as::<Cascade>(i).unwrap().log.clone())
                .collect();
            (sim.transcript().to_vec(), logs)
        };
        assert_eq!(run(1), run(4));
    }

    /// The calendar queue must behave exactly like the old global heap:
    /// strictly non-decreasing times, canonical order within a tick, and no
    /// lost events across the ring/overflow boundary.
    #[test]
    fn event_queue_orders_events_canonically() {
        let mk = |at: Time, rank: u8, depth: usize, seq: u64| Event {
            at,
            rank,
            depth,
            seq,
            kind: EventKind::Timer {
                party: 0,
                path: Path::from(vec![0u32; depth].as_slice()),
                id: seq,
            },
        };
        let mut q = EventQueue::new(10);
        // deliberately scattered times: in-ring, far overflow, same tick
        let mut expect: Vec<(Time, u8, Reverse<usize>, u64)> = Vec::new();
        let mut seq = 0;
        for &(at, rank, depth) in &[
            (5u64, 1u8, 0usize),
            (5, 0, 2),
            (5, 0, 0),
            (123, 0, 1),
            (42, 1, 3),
            (42, 1, 1),
            (7, 0, 0),
            (400, 0, 0),
            (42, 0, 0),
        ] {
            seq += 1;
            q.push(mk(at, rank, depth, seq));
            expect.push((at, rank, Reverse(depth), seq));
        }
        expect.sort();
        let mut got = Vec::new();
        while let Some(t) = q.next_time() {
            while let Some(ev) = q.pop_current() {
                assert_eq!(ev.at, t);
                got.push((ev.at, ev.rank, Reverse(ev.depth), ev.seq));
            }
        }
        assert_eq!(got, expect);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn event_queue_supports_same_tick_cascades() {
        let mut q = EventQueue::new(10);
        let mk = |at: Time, seq: u64| Event {
            at,
            rank: 0,
            depth: 0,
            seq,
            kind: EventKind::Timer {
                party: 0,
                path: Path::from(&[][..]),
                id: seq,
            },
        };
        q.push(mk(3, 1));
        assert_eq!(q.next_time(), Some(3));
        let first = q.pop_current().unwrap();
        assert_eq!(first.seq, 1);
        // cascade lands on the same tick and must be drainable immediately
        q.push(mk(3, 2));
        let second = q.pop_current().unwrap();
        assert_eq!(second.seq, 2);
        assert!(q.pop_current().is_none());
        // and the next tick still works after the in-slice push
        q.push(mk(4, 3));
        assert_eq!(q.next_time(), Some(4));
        assert_eq!(q.pop_current().unwrap().seq, 3);
    }

    #[test]
    fn threads_knob_resolution() {
        // explicit beats env; clamped to ≥ 1
        assert_eq!(
            NetConfig::synchronous(4).with_threads(0).resolved_threads(),
            1
        );
        assert_eq!(
            NetConfig::synchronous(4).with_threads(6).resolved_threads(),
            6
        );
        let sim = Simulation::new(
            NetConfig::synchronous(3).with_threads(2),
            CorruptionSet::none(),
            parties(3),
        );
        assert_eq!(sim.threads(), 2);
        assert_eq!(sim.metrics().worker_threads, 2);
    }
}
