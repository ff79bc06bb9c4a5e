//! The discrete-event simulator driving all protocol executions.
//!
//! The simulator runs one engine, in deterministic *time slices*: all events
//! scheduled at the same simulated tick form one slice, the slice is grouped
//! by destination party, every honest party's batch is executed (inline, or
//! on worker threads when the slice is wide enough) with its cross-party
//! output coalesced into per-destination wire [`Frame`]s, and the outcomes
//! are merged in ascending party order — transcripts, [`Metrics`] and bit
//! accounting are bit-identical for every worker-thread count. The batch
//! loop is also the unit of work of the threaded and TCP media, which is what
//! holds the three byte-identical. See the "Deterministic parallel execution"
//! section of DESIGN.md for the correctness argument.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
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

    /// Inert shim for the frozen benchmark ledger: frame coalescing is the
    /// only engine, so `true` is a no-op and `false` has nothing to select.
    #[doc(hidden)]
    pub fn with_frames(self, frames: bool) -> Self {
        assert!(
            frames,
            "with_frames(false): the unframed engine was removed in PR 22"
        );
        self
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

    /// The event's `(rank, depth)` ordering components: deliveries before
    /// timers, instance-path depth as documented on [`Event`].
    fn rank_depth(&self) -> (u8, usize) {
        match self {
            EventKind::Deliver { path, .. } => (0, path.len()),
            EventKind::DeliverFrame { .. } => (0, 0),
            EventKind::Timer { path, .. } => (1, path.len()),
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
}

/// A batch-local event: same ordering key as [`Event`] restricted to one
/// tick and one party, with a local sequence surrogate whose relative order
/// matches the global sequence numbers the merge will assign.
struct LocalEv {
    /// 0 = the slice's initial events (and cascades merged among them),
    /// 1 = cascades deferred until those have drained.
    phase: u8,
    rank: u8,
    depth: usize,
    lseq: u64,
    kind: EventKind,
}

impl LocalEv {
    fn key(&self) -> (u8, u8, Reverse<usize>, u64) {
        (self.phase, self.rank, Reverse(self.depth), self.lseq)
    }
}

impl PartialEq for LocalEv {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

/// One party's work list for one tick: the slice's initial events plus the
/// same-tick cascades the party's own handlers spawn (self-sends, broadcast
/// self-copies, zero-delay timers), popped in canonical
/// `(rank, depth, lseq)` order. An honest party's cascades merge canonically
/// among the remaining initial events; a corrupt party's are *deferred* —
/// the initial events drain first, then the cascades canonically among
/// themselves — which is the order the simulator's global queue gives them.
pub(crate) struct LocalQueue {
    party: PartyId,
    heap: BinaryHeap<Reverse<LocalEv>>,
    defer_cascades: bool,
    lseq: u64,
}

impl LocalQueue {
    fn new(party: PartyId, events: Vec<EventKind>, defer_cascades: bool) -> Self {
        let mut queue = LocalQueue {
            party,
            heap: BinaryHeap::with_capacity(events.len()),
            defer_cascades,
            lseq: 0,
        };
        for kind in events {
            debug_assert_eq!(kind.party(), party);
            queue.push(0, kind);
        }
        queue
    }

    fn push(&mut self, phase: u8, kind: EventKind) {
        let (rank, depth) = kind.rank_depth();
        self.lseq += 1;
        self.heap.push(Reverse(LocalEv {
            phase,
            rank,
            depth,
            lseq: self.lseq,
            kind,
        }));
    }

    /// Queues a same-tick cascade: the party's own copy of a message.
    fn cascade_deliver(&mut self, path: Path, payload: Arc<Vec<u8>>) {
        let (to, from) = (self.party, self.party);
        let kind = EventKind::Deliver {
            to,
            from,
            path,
            payload,
        };
        self.push(u8::from(self.defer_cascades), kind);
    }

    /// Queues a same-tick cascade: a zero-delay timer.
    fn cascade_timer(&mut self, path: Path, id: u64) {
        let party = self.party;
        let kind = EventKind::Timer { party, path, id };
        self.push(u8::from(self.defer_cascades), kind);
    }

    fn pop(&mut self) -> Option<EventKind> {
        self.heap.pop().map(|Reverse(ev)| ev.kind)
    }
}

/// One party's work for one time slice, carved out of the simulation for a
/// worker thread: exclusive access to the party's state machine and RNG plus
/// its batch events in canonical order. Also the unit of work of the
/// threaded and TCP media, which run the same [`run_batch`] — that shared
/// loop is what makes the three media bit-conformant.
pub(crate) struct WorkerParty<'a, M> {
    pub(crate) party: PartyId,
    pub(crate) protocol: &'a mut Box<dyn Protocol<M>>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) events: Vec<EventKind>,
}

/// The per-slice constants every activation's [`Context`] is built from.
#[derive(Clone, Copy)]
pub(crate) struct SliceEnv {
    pub(crate) t: Time,
    pub(crate) n: usize,
    pub(crate) delta: Time,
    pub(crate) coin_seed: u64,
    /// Whether transcript entries are recorded.
    pub(crate) record: bool,
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

/// What any party's pre-executed time-`t` batch produced, whichever
/// [`EffectSink`] its effects went to.
pub(crate) struct BatchCore {
    pub(crate) party: PartyId,
    /// Events processed: initial batch events (a frame counts as one) plus
    /// every same-tick cascade step run inside the batch.
    pub(crate) events: u64,
    /// Timer expiries among the processed events (see
    /// [`crate::Metrics::timeouts_fired`]).
    pub(crate) timers_fired: u64,
    pub(crate) decode_failures: u64,
    pub(crate) transcript: Vec<TranscriptEntry>,
    /// Timer requests with delay ≥ 1, in emission order.
    pub(crate) timers: Vec<(Time, Path, u64)>,
}

/// Where one activation's effects go — the only thing that differs between
/// an honest batch ([`FramedSends`]), a corrupt batch on a real medium
/// ([`StrategySink`]) and a corrupt batch inside the simulator ([`Network`]).
pub(crate) trait EffectSink<M> {
    /// Whether the party's same-tick cascades wait for the slice's initial
    /// events to drain (see [`LocalQueue`]).
    const DEFERS_CASCADES: bool;

    /// Drains `effects`: cross-party traffic leaves through the sink, the
    /// party's own same-tick copies and zero-delay timers re-enter `local`,
    /// future timers join `timers`.
    fn absorb(
        &mut self,
        party: PartyId,
        effects: &mut Effects<M>,
        local: &mut LocalQueue,
        timers: &mut Vec<(Time, Path, u64)>,
    );
}

/// Zero-delay timers cascade inside the batch, the rest wait for the merge.
fn absorb_timers<M>(
    effects: &mut Effects<M>,
    local: &mut LocalQueue,
    timers: &mut Vec<(Time, Path, u64)>,
) {
    for (delay, path, id) in effects.timers.drain(..) {
        if delay == 0 {
            local.cascade_timer(path, id);
        } else {
            timers.push((delay, path, id));
        }
    }
}

/// One batch in flight: a party's state, its work list and the sink its
/// effects drain into.
struct Batch<'a, M, S> {
    env: SliceEnv,
    protocol: &'a mut dyn Protocol<M>,
    rng: &'a mut StdRng,
    scratch: &'a mut Effects<M>,
    sink: &'a mut S,
    local: LocalQueue,
    core: BatchCore,
}

impl<M: WireEncode + WireDecode + 'static, S: EffectSink<M>> Batch<'_, M, S> {
    fn record(&mut self, event: impl FnOnce() -> TranscriptEvent) {
        if self.env.record {
            self.core.transcript.push(TranscriptEntry {
                at: self.env.t,
                party: self.core.party,
                event: event(),
            });
        }
    }

    /// Runs one handler under a fresh [`Context`] and drains its effects
    /// into the sink.
    fn handle(&mut self, call: impl FnOnce(&mut dyn Protocol<M>, &mut Context<'_, M>)) {
        let SliceEnv {
            t,
            n,
            delta,
            coin_seed,
            ..
        } = self.env;
        let party = self.core.party;
        let mut ctx = Context::new(party, n, t, delta, self.scratch, self.rng, coin_seed);
        call(self.protocol, &mut ctx);
        self.sink
            .absorb(party, self.scratch, &mut self.local, &mut self.core.timers);
    }

    /// The delivery boundary: bytes that do not decode as a protocol message
    /// (or frame) are Byzantine input — dropped and counted, never a panic,
    /// never seen by the protocol.
    fn dropped(&mut self, from: PartyId, path: Path, bits: u64) {
        self.core.decode_failures += 1;
        self.record(|| TranscriptEvent::DroppedDeliver { from, path, bits });
    }

    /// Processes one event: decode → transcript entry → handler → sink.
    fn activate(&mut self, ev: EventKind) {
        self.core.events += 1;
        match ev {
            EventKind::Deliver {
                from,
                path,
                payload,
                ..
            } => {
                let bits = payload.len() as u64 * 8;
                match M::decode(&payload) {
                    Err(_) => self.dropped(from, path, bits),
                    Ok(msg) => {
                        let path = &path;
                        self.record(|| TranscriptEvent::Deliver {
                            from,
                            path: path.clone(),
                            bits,
                        });
                        self.handle(|p, ctx| p.on_message(ctx, from, path, msg));
                    }
                }
            }
            EventKind::DeliverFrame { from, payload, .. } => match Frame::decode::<M>(&payload) {
                Err(_) => self.dropped(from, Path::from(&[][..]), payload.len() as u64 * 8),
                // Effects are drained per item, so a frame's messages behave
                // exactly like back-to-back single deliveries.
                Ok(items) => {
                    for item in items {
                        self.record(|| TranscriptEvent::Deliver {
                            from,
                            path: Path::from(&item.path[..]),
                            bits: item.msg_bits,
                        });
                        self.handle(|p, ctx| p.on_message(ctx, from, &item.path, item.msg));
                    }
                }
            },
            EventKind::Timer { path, id, .. } => {
                self.core.timers_fired += 1;
                let path = &path;
                self.record(|| TranscriptEvent::Timer {
                    path: path.clone(),
                    id,
                });
                self.handle(|p, ctx| p.on_timer(ctx, path, id));
            }
        }
    }
}

/// Executes one party's full time-`t` batch — frames unpacked at the
/// delivery boundary, same-tick cascades included — draining every
/// activation's effects into `sink`. The one batch loop of the crate: it
/// touches nothing but the party's own state and RNG (plus what the sink
/// owns), which is why per-party batches commute and `threads = k` is
/// bit-identical to `threads = 1`.
pub(crate) fn run_batch<M: WireEncode + WireDecode + 'static, S: EffectSink<M>>(
    wp: WorkerParty<'_, M>,
    env: SliceEnv,
    scratch: &mut Effects<M>,
    sink: &mut S,
) -> BatchCore {
    let WorkerParty {
        party,
        protocol,
        rng,
        events,
    } = wp;
    let mut batch = Batch {
        env,
        protocol: protocol.as_mut(),
        rng,
        scratch,
        sink,
        local: LocalQueue::new(party, events, S::DEFERS_CASCADES),
        core: BatchCore {
            party,
            events: 0,
            timers_fired: 0,
            decode_failures: 0,
            transcript: Vec::new(),
            timers: Vec::new(),
        },
    };
    while let Some(ev) = batch.local.pop() {
        batch.activate(ev);
    }
    batch.core
}

/// The honest sink: cross-party traffic is coalesced into a [`FrameSet`],
/// self-addressed messages are delivered inside the batch and appear here
/// only as accounting records.
pub(crate) struct FramedSends {
    /// Accounting for the sends delivered internally (self-sends and the
    /// sender's own copy of each broadcast).
    pub(crate) self_records: Vec<SendRecord>,
    pub(crate) frames: FrameSet,
}

impl<M: WireEncode> EffectSink<M> for FramedSends {
    const DEFERS_CASCADES: bool = false;

    fn absorb(
        &mut self,
        party: PartyId,
        effects: &mut Effects<M>,
        local: &mut LocalQueue,
        timers: &mut Vec<(Time, Path, u64)>,
    ) {
        for (to, path, msg) in effects.sends.drain(..) {
            if to == party {
                let payload = Arc::new(msg.encode());
                self.self_records
                    .push((payload.len() as u64 * 8, path.first().copied()));
                local.cascade_deliver(path, payload);
            } else {
                self.frames.add_send(to, &path, &msg);
            }
        }
        for (path, msg) in effects.broadcasts.drain(..) {
            let (bits, self_copy) = self.frames.add_broadcast(&path, &msg);
            self.self_records.push((bits, path.first().copied()));
            local.cascade_deliver(path, Arc::new(self_copy));
        }
        absorb_timers(effects, local, timers);
    }
}

/// Everything one honest party's pre-executed time-slice batch produced.
pub(crate) struct BatchOutcome {
    pub(crate) core: BatchCore,
    pub(crate) sent: FramedSends,
}

/// Pre-executes one honest party's full time-`t` batch. Runs either inline
/// or on a worker thread — the outcome is identical.
pub(crate) fn run_party_batch<M: WireEncode + WireDecode + 'static>(
    wp: WorkerParty<'_, M>,
    env: SliceEnv,
) -> BatchOutcome {
    let mut sent = FramedSends {
        self_records: Vec::new(),
        frames: FrameSet::new(),
    };
    let core = run_batch(wp, env, &mut Effects::new(), &mut sent);
    BatchOutcome { core, sent }
}

/// One cross-party wire message a corrupt party's batch put on the wire
/// (after its [`ByzantineStrategy`] was consulted), in consult order.
pub(crate) struct CorruptSend {
    pub(crate) to: PartyId,
    pub(crate) path: Path,
    pub(crate) payload: Arc<Vec<u8>>,
}

/// What a corrupt party's batch put on a real medium's wire. Corrupt traffic
/// is never framed — the Byzantine strategy keeps its exact per-message view
/// of the wire, matching the simulator's corrupt dispatch message for
/// message.
#[derive(Default)]
pub(crate) struct CorruptWire {
    /// Post-strategy cross-party messages, in consult order.
    pub(crate) sends: Vec<CorruptSend>,
    /// Strategy decisions, mirroring [`Metrics::adversary_drops`] /
    /// [`Metrics::adversary_tampered`] / [`Metrics::corrupt_messages`].
    pub(crate) drops: u64,
    pub(crate) tampered: u64,
    pub(crate) wire_messages: u64,
}

/// The corrupt sink of the real media: every send (self-addressed copies
/// included) consults the Byzantine strategy in emission order, as the
/// simulator's `dispatch` does; survivors addressed to the party itself
/// cascade, the rest join the wire.
struct StrategySink<'a> {
    n: usize,
    strategy: &'a mut dyn ByzantineStrategy,
    adv_rng: &'a mut StdRng,
    wire: CorruptWire,
}

impl StrategySink<'_> {
    fn put(
        &mut self,
        from: PartyId,
        to: PartyId,
        path: &Path,
        payload: &Arc<Vec<u8>>,
        broadcast: bool,
        local: &mut LocalQueue,
    ) {
        let send = WireSend {
            from,
            to,
            n: self.n,
            path,
            bytes: payload,
            broadcast,
        };
        let payload = match self.strategy.on_send(&send, self.adv_rng) {
            WireAction::Deliver => Arc::clone(payload),
            WireAction::Replace(bytes) => {
                self.wire.tampered += 1;
                Arc::new(bytes)
            }
            WireAction::Drop => {
                self.wire.drops += 1;
                return;
            }
        };
        self.wire.wire_messages += 1;
        let path = path.clone();
        if to == from {
            local.cascade_deliver(path, payload);
        } else {
            self.wire.sends.push(CorruptSend { to, path, payload });
        }
    }
}

impl<M: WireEncode> EffectSink<M> for StrategySink<'_> {
    const DEFERS_CASCADES: bool = true;

    fn absorb(
        &mut self,
        party: PartyId,
        effects: &mut Effects<M>,
        local: &mut LocalQueue,
        timers: &mut Vec<(Time, Path, u64)>,
    ) {
        for (to, path, msg) in effects.sends.drain(..) {
            let payload = Arc::new(msg.encode());
            self.put(party, to, &path, &payload, false, local);
        }
        for (path, msg) in effects.broadcasts.drain(..) {
            let payload = Arc::new(msg.encode());
            for to in 0..self.n {
                self.put(party, to, &path, &payload, true, local);
            }
        }
        absorb_timers(effects, local, timers);
    }
}

/// Everything one *corrupt* party's pre-executed time-`t` batch produced on
/// a real medium.
pub(crate) struct CorruptOutcome {
    pub(crate) core: BatchCore,
    pub(crate) wire: CorruptWire,
}

/// Pre-executes one *corrupt* party's full time-`t` batch for the real
/// media, reproducing the simulator's corrupt path exactly: the initial
/// events drain first, then their same-tick cascades canonically among
/// themselves.
pub(crate) fn run_corrupt_batch<M: WireEncode + WireDecode + 'static>(
    wp: WorkerParty<'_, M>,
    env: SliceEnv,
    strategy: &mut dyn ByzantineStrategy,
    adv_rng: &mut StdRng,
) -> CorruptOutcome {
    let mut sink = StrategySink {
        n: env.n,
        strategy,
        adv_rng,
        wire: CorruptWire::default(),
    };
    let core = run_batch(wp, env, &mut Effects::new(), &mut sink);
    CorruptOutcome {
        core,
        wire: sink.wire,
    }
}

/// Minimum same-tick events before a slice spawns workers; below this the
/// per-slice thread overhead outweighs any win and the slice runs inline
/// (the results are identical either way). At least two distinct honest
/// parties must also have work.
const MIN_PARALLEL_EVENTS: usize = 4;

/// The network half of a [`Simulation`] — adversary, scheduler, fault plan,
/// event queue, clock and metrics: everything a send or a timer request
/// touches. Split from the parties' state so that a corrupt party's batch
/// can hold its state machine while its effects are dispatched here (the
/// simulator-inline [`EffectSink`]).
struct Network {
    n: usize,
    strategy: Box<dyn ByzantineStrategy>,
    scheduler: Box<dyn Scheduler>,
    faults: FaultPlan,
    sched_rng: StdRng,
    adv_rng: StdRng,
    queue: EventQueue,
    seq: u64,
    now: Time,
    metrics: Metrics,
}

impl Network {
    fn push_event(&mut self, at: Time, kind: EventKind) {
        let (rank, depth) = kind.rank_depth();
        self.seq += 1;
        self.queue.push(Event {
            at,
            rank,
            depth,
            seq: self.seq,
            kind,
        });
    }

    /// Schedules one timer expiry.
    fn push_timer(&mut self, party: PartyId, delay: Time, path: Path, id: u64) {
        self.push_event(self.now + delay, EventKind::Timer { party, path, id });
    }

    /// Schedules one delivery event `delay` ticks from now, after the fault
    /// plan had its say. The plan acts on the network, after the sender's
    /// bit accounting: a dropped message was still sent. Self-sends are
    /// exempt by the plan's contract.
    fn schedule(&mut self, from: PartyId, to: PartyId, delay: Time, kind: EventKind) {
        let (at, duplicate) = match self.faults.resolve(from, to, self.now, self.now + delay) {
            FaultOutcome::Drop => {
                self.metrics.fault_drops += 1;
                return;
            }
            FaultOutcome::Deliver { at, duplicate } => (at, duplicate),
        };
        let duplicate = duplicate.map(|dup_at| (dup_at, kind.clone()));
        self.push_event(at, kind);
        if let Some((dup_at, kind)) = duplicate {
            self.metrics.fault_duplicates += 1;
            self.push_event(dup_at, kind);
        }
    }

    /// The scheduler's delay for one cross-party event, clamped to ≥ 1 tick:
    /// a message sent at local time `T` arrives in `(T, T+Δ]`, never at `T`
    /// itself — the property that keeps every same-tick cascade on the party
    /// that spawned it, and with it per-party batches commuting.
    fn cross_party_delay(&mut self, from: PartyId, to: PartyId) -> Time {
        self.scheduler
            .delay(from, to, self.now, &mut self.sched_rng)
            .max(1)
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
                n: self.n,
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
            self.cross_party_delay(from, to)
        };
        let kind = EventKind::Deliver {
            to,
            from,
            path,
            payload,
        };
        self.schedule(from, to, delay, kind);
    }

    /// Schedules one frame event (honest senders only — corrupt parties'
    /// traffic is never framed, so Byzantine strategies keep their
    /// per-message view of the wire).
    fn dispatch_frame(&mut self, from: PartyId, to: PartyId, payload: Arc<Vec<u8>>) {
        debug_assert_ne!(to, from, "self-addressed traffic is delivered in-batch");
        self.metrics.frames_sent += 1;
        let delay = self.cross_party_delay(from, to);
        self.schedule(
            from,
            to,
            delay,
            EventKind::DeliverFrame { to, from, payload },
        );
    }

    /// Dispatches a [`FrameSet`]'s frames: unicast frames in ascending
    /// destination order, then the broadcast frame to every other party with
    /// its encoding `Arc`-shared (one scheduler draw per frame event).
    /// Per-message bit accounting is applied here, once per recipient
    /// channel.
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
            for to in 0..self.n {
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

    /// Coalesces an *honest* party's `init` effects into frames and
    /// dispatches them. Self-addressed messages have no running batch to
    /// join, so they travel as plain zero-delay events instead.
    fn flush_honest_init<M: WireEncode>(&mut self, sender: PartyId, effects: &mut Effects<M>) {
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

    /// Drains a *corrupt* party's effects: every message goes through
    /// [`Network::dispatch`] (strategy consult, corrupt accounting, one
    /// event per message) and every timer into the global queue, so corrupt
    /// parties' same-tick cascades are interleaved in global canonical order
    /// — the order the shared adversary RNG is drawn in.
    fn dispatch_corrupt_effects<M: WireEncode>(
        &mut self,
        sender: PartyId,
        effects: &mut Effects<M>,
    ) {
        for (to, path, msg) in effects.sends.drain(..) {
            let payload = Arc::new(msg.encode());
            self.dispatch(sender, false, to, path, payload, false);
        }
        for (path, msg) in effects.broadcasts.drain(..) {
            // One encoding for the whole broadcast; every delivery event
            // shares the same bytes (and the same interned path) through
            // `Arc`s.
            let payload = Arc::new(msg.encode());
            for to in 0..self.n {
                self.dispatch(sender, false, to, path.clone(), Arc::clone(&payload), true);
            }
        }
        for (delay, path, id) in effects.timers.drain(..) {
            self.push_timer(sender, delay, path, id);
        }
    }
}

/// The simulator-inline corrupt sink: see [`Network::dispatch_corrupt_effects`].
impl<M: WireEncode> EffectSink<M> for Network {
    const DEFERS_CASCADES: bool = true;

    fn absorb(
        &mut self,
        party: PartyId,
        effects: &mut Effects<M>,
        _local: &mut LocalQueue,
        _timers: &mut Vec<(Time, Path, u64)>,
    ) {
        self.dispatch_corrupt_effects(party, effects);
    }
}

/// A deterministic discrete-event simulation of `n` parties running one root
/// [`Protocol`] instance each over the configured network.
///
/// Messages travel as their canonical byte encoding ([`crate::wire`]): an
/// honest party's sends and broadcasts of one time-slice activation leave as
/// per-destination [`Frame`]s (a broadcast frame is encoded *once* and the
/// bytes shared across all recipients), a corrupt party's messages one by
/// one through the configured [`ByzantineStrategy`]. Bit accounting is per
/// contained message, derived from the encoded length, and everything is
/// decoded at the delivery boundary — bytes that fail to decode are dropped
/// as Byzantine input and counted in [`Metrics::decode_failures`].
///
/// Messages are delivered and timers fired in `(time, kind, sequence)` order;
/// at equal times, message deliveries precede timer expiries so that a party
/// whose timer is set to the network bound `Δ` observes every message that
/// was guaranteed to arrive by then — exactly the paper's synchronous round
/// abstraction. A cross-party message never arrives in the tick it was sent
/// (see [`Scheduler::delay`]).
///
/// With [`NetConfig::with_threads`] (or `MPC_THREADS`) > 1, the honest
/// parties' batches of a wide slice are executed concurrently and merged
/// serially in ascending party order; the execution — transcript, metrics,
/// bit accounting, outputs — is bit-identical to the sequential one for
/// every seed, network kind and Byzantine strategy.
pub struct Simulation<M> {
    config: NetConfig,
    threads: usize,
    parties: Vec<Box<dyn Protocol<M>>>,
    rngs: Vec<StdRng>,
    corruption: CorruptionSet,
    structure: Option<Arc<dyn AdversaryStructure>>,
    net: Network,
    coin_seed: u64,
    initialized: bool,
    transcript: Option<Vec<TranscriptEntry>>,
    /// Reusable effects buffer of the inline paths (`init` and corrupt
    /// batches), drained after every activation.
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
        let threads = config.resolved_threads();
        let mut metrics = Metrics::new();
        metrics.worker_threads = threads as u64;
        let net = Network {
            n: config.n,
            strategy: Box::new(Passive),
            scheduler,
            faults: FaultPlan::none(),
            sched_rng: StdRng::seed_from_u64(config.seed ^ 0xDEAD_BEEF),
            adv_rng: StdRng::seed_from_u64(config.adversary_seed()),
            queue: EventQueue::new(config.delta),
            seq: 0,
            now: 0,
            metrics,
        };
        Simulation {
            coin_seed: config.coin_seed(),
            config,
            threads,
            parties,
            rngs,
            corruption,
            structure: None,
            net,
            initialized: false,
            transcript: None,
            scratch: Effects::new(),
        }
    }

    /// Installs the wire-level Byzantine behaviour applied to every message
    /// sent by a corrupt party (default: [`Passive`], i.e. pass-through).
    /// Call before running.
    pub fn set_strategy(&mut self, strategy: Box<dyn ByzantineStrategy>) {
        self.net.strategy = strategy;
    }

    /// Installs an injected [`FaultPlan`] applied on top of the scheduler's
    /// link delays (default: the empty plan). Call before running. The same
    /// plan on the threaded backend yields the same per-message decisions —
    /// see the determinism contract in [`crate::faults`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.faults = plan;
    }

    /// The injected fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.net.faults
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

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.net.now
    }

    /// Communication metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.net.metrics
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
            {
                let mut ctx = Context::new(
                    p,
                    self.config.n,
                    0,
                    self.config.delta,
                    &mut self.scratch,
                    &mut self.rngs[p],
                    self.coin_seed,
                );
                self.parties[p].init(&mut ctx);
            }
            if self.corruption.is_honest(p) {
                self.net.flush_honest_init(p, &mut self.scratch);
            } else {
                self.net.dispatch_corrupt_effects(p, &mut self.scratch);
            }
        }
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
        while let Some(t) = self.net.queue.next_time() {
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

    /// The slice engine: drain tick `t` (the caller positioned the queue via
    /// [`EventQueue::next_time`]), group its events by party, run every
    /// honest party's batch through [`run_party_batch`] (inline, or on
    /// worker threads when the slice is wide enough), and merge the outcomes
    /// in ascending party order — flushing each batch's coalesced frames
    /// with one scheduler draw per frame event. Corrupt parties execute
    /// inline with per-message dispatch so Byzantine strategies keep their
    /// exact per-message semantics (and their shared adversary RNG draw
    /// order).
    fn process_slice(&mut self, t: Time) {
        self.net.now = t;
        let depth = self.net.queue.len() as u64;
        let before = self.net.metrics.events_processed;
        let mut per_party: BTreeMap<PartyId, Vec<EventKind>> = BTreeMap::new();
        let mut total = 0usize;
        while let Some(ev) = self.net.queue.pop_current() {
            total += 1;
            per_party.entry(ev.kind.party()).or_default().push(ev.kind);
        }
        let env = SliceEnv {
            t,
            n: self.config.n,
            delta: self.config.delta,
            coin_seed: self.coin_seed,
            record: self.transcript.is_some(),
        };
        let mut outcomes: Vec<Option<BatchOutcome>> = (0..env.n).map(|_| None).collect();
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
            for (&party, events) in &mut per_party {
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
                    events: std::mem::take(events),
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
                                .map(|wp| run_party_batch(wp, env))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // A handler panic on a worker surfaces with its own payload,
                // exactly as it would at `threads = 1`.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });
            for outcome in results.into_iter().flatten() {
                let party = outcome.core.party;
                outcomes[party] = Some(outcome);
            }
        }
        for (party, events) in per_party {
            if self.corruption.is_honest(party) {
                let outcome = outcomes[party].take().unwrap_or_else(|| {
                    let wp = WorkerParty {
                        party,
                        protocol: &mut self.parties[party],
                        rng: &mut self.rngs[party],
                        events,
                    };
                    run_party_batch(wp, env)
                });
                self.apply_outcome(outcome);
            } else {
                self.run_corrupt_inline(party, events, env);
            }
        }
        // Same-tick cascades of corrupt parties (their self-sends and
        // zero-delay timers go through the global queue); nothing else can
        // land in the current tick.
        while let Some(ev) = self.net.queue.pop_current() {
            self.run_corrupt_inline(ev.kind.party(), vec![ev.kind], env);
        }
        self.net
            .metrics
            .record_slice(self.net.metrics.events_processed - before, depth);
    }

    /// Runs a corrupt party's events inline, its effects going straight to
    /// the [`Network`].
    fn run_corrupt_inline(&mut self, party: PartyId, events: Vec<EventKind>, env: SliceEnv) {
        debug_assert!(!self.corruption.is_honest(party));
        let wp = WorkerParty {
            party,
            protocol: &mut self.parties[party],
            rng: &mut self.rngs[party],
            events,
        };
        let core = run_batch(wp, env, &mut self.scratch, &mut self.net);
        self.merge_core(core);
    }

    /// Applies one pre-executed honest batch on the merge path: accounting,
    /// frame dispatch and timer scheduling, in the engine's canonical
    /// ascending-party order.
    fn apply_outcome(&mut self, outcome: BatchOutcome) {
        let BatchOutcome {
            core,
            sent: FramedSends {
                self_records,
                frames,
            },
        } = outcome;
        for (bits, seg) in self_records {
            self.net.metrics.record_send(core.party, true, bits, seg);
        }
        self.net.flush_frame_set(core.party, frames);
        self.merge_core(core);
    }

    /// Folds a batch's sink-independent results in: counters, transcript
    /// and future timers.
    fn merge_core(&mut self, core: BatchCore) {
        self.net.metrics.events_processed += core.events;
        self.net.metrics.timeouts_fired += core.timers_fired;
        self.net.metrics.decode_failures += core.decode_failures;
        if let Some(recorded) = &mut self.transcript {
            recorded.extend(core.transcript);
        }
        for (delay, path, id) in core.timers {
            self.net.push_timer(core.party, delay, path, id);
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
        /// `on_message` invocations.
        handled: usize,
        panic_on_ping: bool,
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
            self.handled += 1;
            match msg {
                Msg::Ping => {
                    assert!(!self.panic_on_ping, "party {} exploded", ctx.me);
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

    /// A handler panic on a worker thread surfaces with its own payload, as
    /// it does at `threads = 1`.
    #[test]
    fn worker_panic_keeps_its_message() {
        let n = 5;
        let mut ps = parties(n);
        ps[2] = Box::new(PingPong {
            panic_on_ping: true,
            ..PingPong::default()
        });
        let cfg = NetConfig::synchronous(n).with_threads(4);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), ps);
        let run = std::panic::AssertUnwindSafe(|| sim.run_to_quiescence(1_000));
        let payload = std::panic::catch_unwind(run).expect_err("party 2 panics");
        let msg = payload.downcast_ref::<String>().expect("formatted payload");
        assert!(msg.contains("party 2 exploded"), "{msg}");
    }

    /// Cross-party delivery is ≥ 1 tick by construction, so zero-delay
    /// schedulers run on the one engine: framed, and parallel when wide.
    #[test]
    fn zero_delay_schedulers_run_on_the_one_engine() {
        let n = 5;
        let schedulers: [fn() -> Box<dyn Scheduler>; 2] = [
            || Box::new(FixedDelay(0)),
            || Box::new(UniformDelay { min: 0, max: 3 }),
        ];
        for scheduler in schedulers {
            let run = |threads: usize| {
                let cfg = NetConfig::synchronous(n).with_seed(5).with_threads(threads);
                let mut sim =
                    Simulation::with_scheduler(cfg, CorruptionSet::none(), scheduler(), parties(n));
                sim.record_transcript();
                sim.run_to_quiescence(1_000);
                assert_eq!(sim.party_as::<PingPong>(0).unwrap().pongs, n);
                (sim.transcript().to_vec(), sim.metrics().clone())
            };
            let (transcript, metrics) = run(1);
            assert!(metrics.frames_sent > 0);
            for e in &transcript {
                if let TranscriptEvent::Deliver { from, .. } = e.event {
                    assert!(from == e.party || e.at >= 1, "same-tick delivery: {e:?}");
                }
            }
            assert_eq!(run(4), (transcript, metrics));
        }
    }

    /// Undecodable bytes — a whole frame or a single message — are dropped at
    /// the one delivery boundary identically whichever sink the batch drains
    /// into: one `DroppedDeliver` entry, one decode failure, no handler call,
    /// nothing sent.
    #[test]
    fn hostile_bytes_drop_identically_for_every_sink() {
        fn assert_dropped(
            label: &str,
            transcript: &[TranscriptEntry],
            decode_failures: u64,
            party: &dyn Protocol<Msg>,
            quiet: bool,
        ) {
            let dropped = TranscriptEvent::DroppedDeliver {
                from: 0,
                path: Path::from(&[][..]),
                bits: 56,
            };
            assert!(
                matches!(transcript, [e] if e.at == 3 && e.party == 1 && e.event == dropped),
                "{label}: {transcript:?}"
            );
            let handled = party.as_any().downcast_ref::<PingPong>().unwrap().handled;
            assert_eq!((decode_failures, handled, quiet), (1, 0, true), "{label}");
        }
        fn wp<'a>(
            protocol: &'a mut Box<dyn Protocol<Msg>>,
            rng: &'a mut StdRng,
            kind: &EventKind,
        ) -> WorkerParty<'a, Msg> {
            WorkerParty {
                party: 1,
                protocol,
                rng,
                events: vec![kind.clone()],
            }
        }
        let (to, from, payload) = (1, 0, Arc::new(vec![0xFFu8; 7]));
        let hostile = [
            EventKind::DeliverFrame {
                to,
                from,
                payload: Arc::clone(&payload),
            },
            EventKind::Deliver {
                to,
                from,
                path: Path::from(&[][..]),
                payload,
            },
        ];
        let env = SliceEnv {
            t: 3,
            n: 2,
            delta: 10,
            coin_seed: 0,
            record: true,
        };
        for (i, kind) in hostile.into_iter().enumerate() {
            let mut protocol: Box<dyn Protocol<Msg>> = Box::new(PingPong::default());
            let mut rng = StdRng::seed_from_u64(1);
            let BatchOutcome { core, sent } =
                run_party_batch(wp(&mut protocol, &mut rng, &kind), env);
            let quiet = sent.frames.unicast.is_empty()
                && sent.frames.broadcast.is_empty()
                && sent.self_records.is_empty()
                && core.timers.is_empty();
            let label = format!("honest sink, event {i}");
            assert_dropped(
                &label,
                &core.transcript,
                core.decode_failures,
                &*protocol,
                quiet,
            );

            let mut adv_rng = StdRng::seed_from_u64(2);
            let CorruptOutcome { core, wire } = run_corrupt_batch(
                wp(&mut protocol, &mut rng, &kind),
                env,
                &mut Passive,
                &mut adv_rng,
            );
            let quiet = wire.sends.is_empty() && wire.wire_messages == 0 && core.timers.is_empty();
            let label = format!("real-medium corrupt sink, event {i}");
            assert_dropped(
                &label,
                &core.transcript,
                core.decode_failures,
                &*protocol,
                quiet,
            );

            let cfg = NetConfig::synchronous(env.n);
            let mut sim = Simulation::new(cfg, CorruptionSet::new(vec![to]), parties(env.n));
            sim.record_transcript();
            sim.initialized = true; // no pings: the hostile event is the whole run
            sim.net.push_event(env.t, kind);
            sim.run_to_quiescence(1_000);
            let m = sim.metrics();
            let quiet = m.honest_messages + m.corrupt_messages + m.frames_sent == 0
                && m.events_processed == 1;
            let label = format!("simulator-inline corrupt sink, event {i}");
            assert_dropped(
                &label,
                sim.transcript(),
                m.decode_failures,
                sim.party(to),
                quiet,
            );
        }
    }
}
