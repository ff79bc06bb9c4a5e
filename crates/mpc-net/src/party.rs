//! One party's half of every medium.
//!
//! In the paper a party is one program whose only view of the network is
//! the order in which messages and `Δ`-timeouts reach it. This module is that
//! view, shared by the simulator and the real runtime:
//!
//! * the [`Inbox`] holds the party's pending deliveries, keyed by their
//!   [`Stamp`] `(deliver_tick, send_tick, from, order)`, and its timer heap,
//!   keyed `(fire, tseq)`;
//! * [`run_batch`] executes one activation (`init`, or everything due at one
//!   tick plus the same-tick cascades it spawns), draining the handlers'
//!   effects into one of two sinks — honest traffic coalesced into frames,
//!   corrupt traffic filtered by the Byzantine strategy;
//! * [`settle`] turns the activation's outcome into wire traffic (send
//!   accounting, frame flush, fault plan) through the medium's [`Wire`] and
//!   folds the rest back into the inbox.
//!
//! A medium only decides *when* a party's due tick runs and how stamped
//! deliveries reach the receiver's inbox: the simulator's virtual clock
//! pushes them straight in, the real runtime carries them as wire bytes.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;

use crate::adversary::{ByzantineStrategy, WireAction, WireSend};
use crate::context::{Context, Effects, Path, Protocol};
use crate::faults::{FaultOutcome, FaultPlan};
use crate::metrics::Metrics;
use crate::simulation::{TranscriptEntry, TranscriptEvent};
use crate::transport::{PartyId, Time};
use crate::wire::{Frame, FrameBuilder, FrameItem, WireDecode, WireEncode, WireError, WireMessage};

/// An honest sender's [`Frame`] as its recipients receive it: the encoded
/// bytes, and their decode, made by the first recipient that runs it and
/// borrowed by every one. On the simulator all recipients of a broadcast
/// frame hold the same `Arc`, so it is decoded once; the real media build
/// one per receiving party from the bytes off the link.
pub(crate) struct SharedFrame<M> {
    pub(crate) bytes: Arc<Vec<u8>>,
    decoded: OnceLock<Result<Vec<FrameItem<M>>, WireError>>,
}

impl<M> SharedFrame<M> {
    pub(crate) fn new(bytes: Arc<Vec<u8>>) -> Self {
        SharedFrame {
            bytes,
            decoded: OnceLock::new(),
        }
    }
}

impl<M: WireDecode> SharedFrame<M> {
    /// The frame's messages, decoded on the first call. Decoding is a pure
    /// function of the bytes, so which worker thread makes it does not
    /// matter.
    fn items(&self) -> Result<&[FrameItem<M>], &WireError> {
        let decoded = self.decoded.get_or_init(|| Frame::decode(&self.bytes));
        decoded.as_deref()
    }
}

/// One unit of work of a party.
#[derive(Clone)]
pub(crate) enum EventKind<M> {
    /// One path-addressed message of a corrupt sender, as bytes.
    Deliver {
        from: PartyId,
        path: Path,
        /// The canonical encoding of the payload, shared by every copy.
        payload: Arc<Vec<u8>>,
    },
    /// A coalesced frame of messages from one honest sender: all the
    /// sends/broadcasts it emitted towards the receiver during one
    /// activation, unpacked at the delivery boundary.
    DeliverFrame {
        from: PartyId,
        frame: Arc<SharedFrame<M>>,
    },
    /// An honest party's own copy of a message it sent itself or
    /// broadcast: delivered from the message it emitted, never encoded or
    /// decoded. `bits` is its wire size, for the transcript.
    DeliverOwn {
        path: Path,
        msg: M,
        bits: u64,
    },
    Timer {
        path: Path,
        id: u64,
    },
}

impl<M> EventKind<M> {
    /// The event's `(rank, depth)` ordering components within one batch:
    /// deliveries before timers, then deeper instance paths first, so that a
    /// parent's deadline observes the state its sub-protocols finalise at
    /// that same instant (e.g. `Π_BA` reading its broadcasts' regular
    /// outputs at `T_BC`: the root's SBA cluster hands them down at the
    /// broadcasts' own, deeper `T_BC` timer).
    fn rank_depth(&self) -> (u8, usize) {
        match self {
            EventKind::Deliver { path, .. } | EventKind::DeliverOwn { path, .. } => (0, path.len()),
            EventKind::DeliverFrame { .. } => (0, 0),
            EventKind::Timer { path, .. } => (1, path.len()),
        }
    }
}

/// Emission indices of a batch start here, those of `init` at 0. Every
/// party's `init` runs before any party's tick-0 batch, so `init` traffic
/// precedes batch traffic of the same send tick, whoever sent it; the bit
/// rides in the packet's `order` field across a real medium.
const BATCH_ORDER: u32 = 1 << 31;

/// Where a delivery sits in its receiver's inbox.
#[derive(Clone, Copy)]
pub(crate) struct Stamp {
    pub(crate) deliver_tick: Time,
    pub(crate) send_tick: Time,
    pub(crate) from: PartyId,
    /// Emission index among the sender's deliveries of `send_tick`.
    pub(crate) order: u32,
}

/// A heap payload that takes no part in the ordering — the keys declared
/// ahead of it in a derived `Ord` are unique among live entries.
struct Unordered<T>(T);

impl<T> PartialEq for Unordered<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for Unordered<T> {}
impl<T> PartialOrd for Unordered<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Unordered<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// A held delivery under the canonical receiver key
/// `(deliver_tick, send_tick, from, order)`, with `init` traffic ahead of
/// batch traffic of the same send tick (see [`BATCH_ORDER`]). Both media
/// push each send at its sender's merge, the senders of one tick in
/// ascending order, so this is the order in which the sends happened.
struct Held<M> {
    deliver_tick: Time,
    /// `(send_tick, order & BATCH_ORDER, from, order)`.
    sent: (Time, u32, PartyId, u32),
    kind: EventKind<M>,
}

// By the key alone: derived impls would ask `M: Ord` of the payload.
impl<M> Ord for Held<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_tick, self.sent).cmp(&(other.deliver_tick, other.sent))
    }
}
impl<M> PartialOrd for Held<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> PartialEq for Held<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<M> Eq for Held<M> {}

/// A pending timer, ordered by `(fire, tseq)` — `tseq` is the party's timer
/// scheduling order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeldTimer {
    fire: Time,
    tseq: u64,
    path: Path,
    id: u64,
}

/// One party's pending work on every medium: held deliveries and armed
/// timers. At a tick the deliveries due pop first, in [`Stamp`] order, then
/// the timers due, in `(fire, tseq)` order; the batch re-sorts them by
/// `(rank, depth)` with this order as the tiebreaker.
pub(crate) struct Inbox<M> {
    held: BinaryHeap<Reverse<Held<M>>>,
    timers: BinaryHeap<Reverse<HeldTimer>>,
    tseq: u64,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox {
            held: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            tseq: 0,
        }
    }
}

impl<M> Inbox<M> {
    /// Holds one delivery until its tick.
    pub(crate) fn hold(&mut self, stamp: Stamp, kind: EventKind<M>) {
        let Stamp {
            deliver_tick,
            send_tick,
            from,
            order,
        } = stamp;
        self.held.push(Reverse(Held {
            deliver_tick,
            sent: (send_tick, order & BATCH_ORDER, from, order),
            kind,
        }));
    }

    /// Deliveries held.
    pub(crate) fn held_len(&self) -> usize {
        self.held.len()
    }

    /// Events pending: deliveries held plus timers armed.
    pub(crate) fn pending(&self) -> usize {
        self.held.len() + self.timers.len()
    }

    /// The earliest tick with pending work, if any.
    pub(crate) fn next_due(&self) -> Option<Time> {
        let held = self.held.peek().map(|Reverse(h)| h.deliver_tick);
        let timer = self.timers.peek().map(|Reverse(tm)| tm.fire);
        match (held, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pops everything due by tick `t` in canonical order: deliveries, then
    /// timers.
    pub(crate) fn take_due(&mut self, t: Time) -> Vec<EventKind<M>> {
        let mut events = Vec::new();
        while let Some(top) = self.held.peek_mut().filter(|top| top.0.deliver_tick <= t) {
            events.push(PeekMut::pop(top).0.kind);
        }
        while let Some(top) = self.timers.peek_mut().filter(|top| top.0.fire <= t) {
            let Reverse(HeldTimer { path, id, .. }) = PeekMut::pop(top);
            events.push(EventKind::Timer { path, id });
        }
        events
    }

    /// Folds an activation's sink-independent results in: counters,
    /// transcript, the timers it armed and `init`'s tick-0 events, which
    /// are held at tick `t` like deliveries from the party itself.
    fn merge(
        &mut self,
        t: Time,
        core: BatchCore<M>,
        metrics: &mut Metrics,
        transcript: Option<&mut Vec<TranscriptEntry>>,
    ) {
        metrics.events_processed += core.events;
        metrics.timeouts_fired += core.timers_fired;
        metrics.decode_failures += core.decode_failures;
        if let Some(recorded) = transcript {
            recorded.extend(core.transcript);
        }
        for (delay, path, id) in core.timers {
            self.tseq += 1;
            self.timers.push(Reverse(HeldTimer {
                fire: t + delay,
                tseq: self.tseq,
                path,
                id,
            }));
        }
        for (order, kind) in (0..).zip(core.tick0.into_iter().flatten()) {
            let stamp = Stamp {
                deliver_tick: t,
                send_tick: t,
                from: core.party,
                order,
            };
            self.hold(stamp, kind);
        }
    }
}

/// One cross-party delivery on its way out: a sender's frame, or a single
/// path-addressed message of a corrupt sender.
#[derive(Clone)]
pub(crate) enum Outgoing<M> {
    Frame(Arc<SharedFrame<M>>),
    Single(Path, Arc<Vec<u8>>),
}

impl<M> Outgoing<M> {
    /// The event the receiver runs for this delivery.
    pub(crate) fn into_event(self, from: PartyId) -> EventKind<M> {
        match self {
            Outgoing::Frame(frame) => EventKind::DeliverFrame { from, frame },
            Outgoing::Single(path, payload) => EventKind::Deliver {
                from,
                path,
                payload,
            },
        }
    }
}

/// What a medium supplies to [`settle`]: link delays, the fault plan, a way
/// to reach the receiver, and the sender's own inbox.
pub(crate) trait Wire {
    /// The message type carried.
    type Msg: WireMessage;
    /// The delay of one cross-party delivery `from → to` sent at `now`;
    /// at least 1 tick, so a send never arrives in the tick it was sent.
    fn delay(&mut self, from: PartyId, to: PartyId, now: Time) -> Time;
    /// The injected fault plan.
    fn faults(&self) -> &FaultPlan;
    /// Hands one stamped delivery to the medium, towards `to`.
    fn put(&mut self, to: PartyId, stamp: Stamp, out: Outgoing<Self::Msg>);
    /// The sending party's own inbox.
    fn inbox(&mut self) -> &mut Inbox<Self::Msg>;
}

/// One activation's emissions: order stamps, accounting, fault plan.
struct Emitter<'a, W> {
    me: PartyId,
    t: Time,
    order: u32,
    wire: &'a mut W,
    metrics: &'a mut Metrics,
}

impl<W: Wire> Emitter<'_, W> {
    /// Counts honest sends: the one place any medium does.
    fn account(&mut self, records: &[SendRecord]) {
        for &(bits, seg) in records {
            self.metrics.record_send(self.me, true, bits, seg);
        }
    }

    /// Sends one honest frame, its contained messages accounted.
    fn frame(&mut self, to: PartyId, frame: Arc<SharedFrame<W::Msg>>, records: &[SendRecord]) {
        self.account(records);
        self.metrics.frames_sent += 1;
        self.post(to, Outgoing::Frame(frame));
    }

    /// Puts one delivery on the link after the fault plan had its say. The
    /// plan acts on the network, after the sender's accounting — a dropped
    /// message was still sent — and is a pure function of the message's
    /// coordinates, so every medium takes the same decision.
    fn post(&mut self, to: PartyId, out: Outgoing<W::Msg>) {
        debug_assert_ne!(to, self.me, "self-addressed traffic is delivered in-batch");
        let scheduled = self.t + self.wire.delay(self.me, to, self.t);
        let (at, duplicate) = match self.wire.faults().resolve(self.me, to, self.t, scheduled) {
            FaultOutcome::Drop => {
                self.metrics.fault_drops += 1;
                return;
            }
            FaultOutcome::Deliver { at, duplicate } => (at, duplicate),
        };
        let duplicate = duplicate.map(|dup_at| (dup_at, out.clone()));
        self.put(to, at, out);
        if let Some((dup_at, out)) = duplicate {
            self.metrics.fault_duplicates += 1;
            self.put(to, dup_at, out);
        }
    }

    fn put(&mut self, to: PartyId, deliver_tick: Time, out: Outgoing<W::Msg>) {
        let stamp = Stamp {
            deliver_tick,
            send_tick: self.t,
            from: self.me,
            order: self.order,
        };
        self.order += 1;
        self.wire.put(to, stamp, out);
    }
}

/// Settles one activation of party `core.party` at tick `env.t`: puts its
/// traffic on the wire — an honest party's frames, unicast in ascending
/// destination order then the broadcast frame to every other party; a
/// corrupt party's strategy-filtered messages one delivery each — and folds
/// the rest into its inbox, `metrics` and `transcript`.
pub(crate) fn settle<M: WireMessage>(
    env: SliceEnv,
    act: Activation<M>,
    wire: &mut impl Wire<Msg = M>,
    metrics: &mut Metrics,
    transcript: Option<&mut Vec<TranscriptEntry>>,
) {
    let Activation { core, traffic } = act;
    let me = core.party;
    let mut emit = Emitter {
        me,
        t: env.t,
        order: if core.tick0.is_some() { 0 } else { BATCH_ORDER },
        wire,
        metrics,
    };
    match traffic {
        Traffic::Framed(FramedSends {
            self_records,
            frames,
            ..
        }) => {
            let shared =
                |builder: FrameBuilder| Arc::new(SharedFrame::new(Arc::new(builder.finish())));
            emit.account(&self_records);
            // The sender's own copy of each broadcast was delivered in-batch.
            emit.account(&frames.broadcast_meta);
            for (to, (builder, records)) in frames.unicast {
                emit.frame(to, shared(builder), &records);
            }
            if !frames.broadcast.is_empty() {
                let frame = shared(frames.broadcast);
                for to in (0..env.n).filter(|&to| to != me) {
                    emit.frame(to, Arc::clone(&frame), &frames.broadcast_meta);
                }
            }
        }
        Traffic::Single(single) => {
            single.record(emit.metrics);
            for CorruptSend { to, path, payload } in single.sends {
                emit.post(to, Outgoing::Single(path, payload));
            }
        }
    }
    let Emitter { wire, metrics, .. } = emit;
    wire.inbox().merge(env.t, core, metrics, transcript);
}

/// A batch-local event under its key `(phase, rank, Reverse(depth), lseq)`:
/// the batch's `(rank, depth)` order with a local sequence surrogate that
/// keeps the inbox order as the tiebreaker. `phase` 0 holds the slice's
/// initial events (and cascades merged among them), 1 the cascades deferred
/// until those have drained.
type LocalEv<M> = ((u8, u8, Reverse<usize>, u64), Unordered<EventKind<M>>);

/// One party's work list for one tick: the slice's initial events plus the
/// same-tick cascades the party's own handlers spawn (self-sends, broadcast
/// self-copies, zero-delay timers), popped in canonical
/// `(rank, depth, lseq)` order. An honest party's cascades merge canonically
/// among the remaining initial events; a corrupt party's are *deferred* —
/// the initial events drain first, then the cascades canonically among
/// themselves — on every medium.
pub(crate) struct LocalQueue<M> {
    party: PartyId,
    heap: BinaryHeap<Reverse<LocalEv<M>>>,
    defer_cascades: bool,
    lseq: u64,
}

impl<M> LocalQueue<M> {
    fn new(party: PartyId, defer_cascades: bool) -> Self {
        LocalQueue {
            party,
            heap: BinaryHeap::new(),
            defer_cascades,
            lseq: 0,
        }
    }

    fn push(&mut self, phase: u8, kind: EventKind<M>) {
        let (rank, depth) = kind.rank_depth();
        self.lseq += 1;
        let key = (phase, rank, Reverse(depth), self.lseq);
        self.heap.push(Reverse((key, Unordered(kind))));
    }

    /// Queues a same-tick cascade: an honest party's own copy of a message.
    fn cascade_own(&mut self, path: Path, msg: M, bits: u64) {
        let kind = EventKind::DeliverOwn { path, msg, bits };
        self.push(u8::from(self.defer_cascades), kind);
    }

    /// Queues a same-tick cascade: a corrupt party's own copy of a message,
    /// as the bytes its strategy let through.
    fn cascade_deliver(&mut self, path: Path, payload: Arc<Vec<u8>>) {
        let from = self.party;
        let kind = EventKind::Deliver {
            from,
            path,
            payload,
        };
        self.push(u8::from(self.defer_cascades), kind);
    }

    /// Queues a same-tick cascade: a zero-delay timer.
    fn cascade_timer(&mut self, path: Path, id: u64) {
        let kind = EventKind::Timer { path, id };
        self.push(u8::from(self.defer_cascades), kind);
    }

    fn pop(&mut self) -> Option<EventKind<M>> {
        self.heap.pop().map(|Reverse((_, Unordered(kind)))| kind)
    }
}

/// One party's work for one activation, carved out of the medium for a
/// worker thread: exclusive access to the party's state machine and RNG plus
/// what to run.
pub(crate) struct WorkerParty<'a, M> {
    pub(crate) party: PartyId,
    pub(crate) protocol: &'a mut Box<dyn Protocol<M>>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) work: Work<M>,
}

/// What one activation of a party runs.
pub(crate) enum Work<M> {
    /// The party's `init`, at tick 0 (see [`BatchCore::tick0`]).
    Init,
    /// The party's events of one tick in canonical order, same-tick
    /// cascades included.
    Events(Vec<EventKind<M>>),
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
    /// returns its exact wire size.
    pub(crate) fn add_broadcast<M: WireEncode>(&mut self, path: &Path, msg: &M) -> u64 {
        let span = self.broadcast.push(path, msg);
        let bits = span.len() as u64 * 8;
        self.broadcast_meta.push((bits, path.first().copied()));
        bits
    }
}

/// What any party's activation produced, whichever [`EffectSink`] its
/// effects went to.
pub(crate) struct BatchCore<M> {
    pub(crate) party: PartyId,
    /// Events processed: initial batch events (a frame counts as one) plus
    /// every same-tick cascade step run inside the batch.
    pub(crate) events: u64,
    /// Timer expiries among the processed events, zero-delay cascades
    /// included (see [`crate::Metrics::timeouts_fired`]).
    pub(crate) timers_fired: u64,
    pub(crate) decode_failures: u64,
    pub(crate) transcript: Vec<TranscriptEntry>,
    /// Timer requests with delay ≥ 1, in emission order.
    pub(crate) timers: Vec<(Time, Path, u64)>,
    /// [`Work::Init`] only (`None` for a batch): the self-addressed
    /// deliveries and zero-delay timers `init` emitted, in canonical order —
    /// the party's tick-0 events. They are returned rather than cascaded, so
    /// `init`'s frames stay apart from those of the tick-0 batch.
    pub(crate) tick0: Option<Vec<EventKind<M>>>,
}

/// Where one activation's effects go — the only thing that differs between
/// an honest party ([`FramedSends`]) and a corrupt one ([`StrategySink`]),
/// on every medium.
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
        local: &mut LocalQueue<M>,
        timers: &mut Vec<(Time, Path, u64)>,
    );
}

/// Zero-delay timers cascade inside the batch, the rest wait for the merge.
fn absorb_timers<M>(
    effects: &mut Effects<M>,
    local: &mut LocalQueue<M>,
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
    /// One effects buffer for the whole batch, drained after every handler.
    scratch: Effects<M>,
    sink: &'a mut S,
    local: LocalQueue<M>,
    core: BatchCore<M>,
}

impl<M: WireMessage, S: EffectSink<M>> Batch<'_, M, S> {
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
        let mut ctx = Context::new(party, n, t, delta, &mut self.scratch, self.rng, coin_seed);
        call(self.protocol, &mut ctx);
        self.sink.absorb(
            party,
            &mut self.scratch,
            &mut self.local,
            &mut self.core.timers,
        );
    }

    /// The delivery boundary: bytes that do not decode as a protocol message
    /// (or frame) are Byzantine input — dropped and counted, never a panic,
    /// never seen by the protocol.
    fn dropped(&mut self, from: PartyId, path: Path, bits: u64) {
        self.core.decode_failures += 1;
        self.record(|| TranscriptEvent::DroppedDeliver { from, path, bits });
    }

    /// Runs the handler of one delivered message, borrowed, after its
    /// transcript entry.
    fn deliver(&mut self, from: PartyId, path: &[u32], msg: &M, bits: u64) {
        self.record(|| TranscriptEvent::Deliver {
            from,
            path: Path::from(path),
            bits,
        });
        self.handle(|p, ctx| p.on_message_ref(ctx, from, path, msg));
    }

    /// Processes one event: decode → transcript entry → handler → sink.
    fn activate(&mut self, ev: EventKind<M>) {
        self.core.events += 1;
        match ev {
            EventKind::Deliver {
                from,
                path,
                payload,
            } => {
                let bits = payload.len() as u64 * 8;
                match M::decode(&payload) {
                    Err(_) => self.dropped(from, path, bits),
                    Ok(msg) => self.deliver(from, &path, &msg, bits),
                }
            }
            // Every recipient counts its own failure of a shared decode.
            EventKind::DeliverFrame { from, frame } => match frame.items() {
                Err(_) => self.dropped(from, Path::from(&[][..]), frame.bytes.len() as u64 * 8),
                // Effects are drained per item, so a frame's messages behave
                // exactly like back-to-back single deliveries.
                Ok(items) => {
                    for item in items {
                        self.deliver(from, &item.path, &item.msg, item.msg_bits);
                    }
                }
            },
            EventKind::DeliverOwn { path, msg, bits } => {
                self.deliver(self.core.party, &path, &msg, bits);
            }
            EventKind::Timer { path, id } => {
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

    /// Runs `init` under the sink and hands back, instead of running them,
    /// the same-tick cascades it queued: they are the tick-0 events.
    fn init(mut self) -> BatchCore<M> {
        self.handle(|p, ctx| p.init(ctx));
        self.core.tick0 = Some(std::iter::from_fn(|| self.local.pop()).collect());
        self.core
    }

    /// Runs `events` and every same-tick cascade they spawn.
    fn drain(mut self, events: Vec<EventKind<M>>) -> BatchCore<M> {
        self.local.heap.reserve(events.len());
        for kind in events {
            self.local.push(0, kind);
        }
        while let Some(ev) = self.local.pop() {
            self.activate(ev);
        }
        self.core
    }
}

/// Executes one party's activation — its `init`, or its full time-`t`
/// batch with frames unpacked at the delivery boundary and same-tick
/// cascades included — draining every handler's effects into `sink`. The
/// one batch loop of the crate: it touches nothing but the party's own
/// state and RNG (plus what the sink owns), which is why per-party batches
/// commute and `threads = k` is bit-identical to `threads = 1`.
pub(crate) fn run_batch<M: WireMessage, S: EffectSink<M>>(
    wp: WorkerParty<'_, M>,
    env: SliceEnv,
    sink: &mut S,
) -> BatchCore<M> {
    let WorkerParty {
        party,
        protocol,
        rng,
        work,
    } = wp;
    let batch = Batch {
        env,
        protocol: protocol.as_mut(),
        rng,
        scratch: Effects::new(),
        sink,
        local: LocalQueue::new(party, S::DEFERS_CASCADES),
        core: BatchCore {
            party,
            events: 0,
            timers_fired: 0,
            decode_failures: 0,
            transcript: Vec::new(),
            timers: Vec::new(),
            tick0: None,
        },
    };
    match work {
        Work::Init => batch.init(),
        Work::Events(events) => batch.drain(events),
    }
}

/// The honest sink: cross-party traffic is coalesced into a [`FrameSet`],
/// self-addressed messages are delivered inside the batch, from the
/// message itself, and appear here only as accounting records.
pub(crate) struct FramedSends {
    /// Accounting for the self-sends delivered internally (the sender's own
    /// copy of each broadcast is accounted from the broadcast frame's).
    pub(crate) self_records: Vec<SendRecord>,
    pub(crate) frames: FrameSet,
    /// Where a self-send is encoded to measure it, reused.
    scratch: Vec<u8>,
}

impl<M: WireEncode> EffectSink<M> for FramedSends {
    const DEFERS_CASCADES: bool = false;

    fn absorb(
        &mut self,
        party: PartyId,
        effects: &mut Effects<M>,
        local: &mut LocalQueue<M>,
        timers: &mut Vec<(Time, Path, u64)>,
    ) {
        for (to, path, msg) in effects.sends.drain(..) {
            if to == party {
                self.scratch.clear();
                msg.encode_into(&mut self.scratch);
                let bits = self.scratch.len() as u64 * 8;
                self.self_records.push((bits, path.first().copied()));
                local.cascade_own(path, msg, bits);
            } else {
                self.frames.add_send(to, &path, &msg);
            }
        }
        for (path, msg) in effects.broadcasts.drain(..) {
            let bits = self.frames.add_broadcast(&path, &msg);
            local.cascade_own(path, msg, bits);
        }
        absorb_timers(effects, local, timers);
    }
}

/// Everything one activation produced: its sink-independent core and the
/// traffic its sink collected.
pub(crate) struct Activation<M> {
    pub(crate) core: BatchCore<M>,
    pub(crate) traffic: Traffic,
}

/// The cross-party traffic of one activation.
pub(crate) enum Traffic {
    /// An honest party's coalesced frames.
    Framed(FramedSends),
    /// A corrupt party's strategy-filtered messages.
    Single(CorruptWire),
}

/// Executes one honest party's activation. Runs either inline or on a
/// worker thread — the outcome is identical.
pub(crate) fn run_party_batch<M: WireMessage>(
    wp: WorkerParty<'_, M>,
    env: SliceEnv,
) -> Activation<M> {
    let mut sent = FramedSends {
        self_records: Vec::new(),
        frames: FrameSet::new(),
        scratch: Vec::new(),
    };
    let core = run_batch(wp, env, &mut sent);
    Activation {
        core,
        traffic: Traffic::Framed(sent),
    }
}

/// One cross-party wire message a corrupt party's batch put on the wire
/// (after its [`ByzantineStrategy`] was consulted), in consult order.
pub(crate) struct CorruptSend {
    pub(crate) to: PartyId,
    pub(crate) path: Path,
    pub(crate) payload: Arc<Vec<u8>>,
}

/// What a corrupt party's batch put on the wire. Corrupt traffic is never
/// framed — the Byzantine strategy keeps its exact per-message view of the
/// wire — so each send travels on its own.
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

impl CorruptWire {
    /// Adds the strategy's decisions to `metrics`.
    fn record(&self, metrics: &mut Metrics) {
        metrics.adversary_drops += self.drops;
        metrics.adversary_tampered += self.tampered;
        metrics.corrupt_messages += self.wire_messages;
    }
}

/// The corrupt sink: every send (self-addressed copies included) consults
/// the Byzantine strategy in emission order — the one place any medium
/// consults it; survivors addressed to the party itself cascade, the rest
/// join the wire.
struct StrategySink<'a> {
    n: usize,
    strategy: &'a mut dyn ByzantineStrategy,
    adv_rng: &'a mut StdRng,
    wire: CorruptWire,
}

impl StrategySink<'_> {
    fn put<M>(
        &mut self,
        from: PartyId,
        to: PartyId,
        path: &Path,
        payload: &Arc<Vec<u8>>,
        broadcast: bool,
        local: &mut LocalQueue<M>,
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
        local: &mut LocalQueue<M>,
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

/// Executes one *corrupt* party's activation: the initial events drain
/// first, then their same-tick cascades canonically among themselves. The
/// shared adversary RNG is therefore drawn party by party, in the order the
/// medium runs the corrupt parties.
pub(crate) fn run_corrupt_batch<M: WireMessage>(
    wp: WorkerParty<'_, M>,
    env: SliceEnv,
    strategy: &mut dyn ByzantineStrategy,
    adv_rng: &mut StdRng,
) -> Activation<M> {
    let mut sink = StrategySink {
        n: env.n,
        strategy,
        adv_rng,
        wire: CorruptWire::default(),
    };
    let core = run_batch(wp, env, &mut sink);
    Activation {
        core,
        traffic: Traffic::Single(sink.wire),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliveries pop in `(deliver_tick, send_tick, from, order)` order with
    /// `init` traffic first, timers in `(fire, tseq)` order after the
    /// deliveries of their tick, nothing far out is lost, and `init`'s
    /// tick-0 events are held at tick 0.
    #[test]
    fn inbox_pops_in_canonical_order() {
        let root = || Path::from(&[][..]);
        let frame = |from, tag: u8| EventKind::<u32>::DeliverFrame {
            from,
            frame: Arc::new(SharedFrame::new(Arc::new(vec![tag]))),
        };
        let label = |ev: &EventKind<u32>| match ev {
            EventKind::DeliverFrame { frame, .. } => format!("d{}", frame.bytes[0]),
            EventKind::Deliver { .. } | EventKind::DeliverOwn { .. } => {
                unreachable!("only frames are held here")
            }
            EventKind::Timer { id, .. } => format!("t{id}"),
        };
        let mut inbox = Inbox::default();
        let init = BatchCore {
            party: 2,
            events: 0,
            timers_fired: 0,
            decode_failures: 0,
            transcript: Vec::new(),
            timers: vec![(5, root(), 1), (300, root(), 2), (5, root(), 3)],
            tick0: Some(vec![
                frame(2, 0),
                EventKind::Timer {
                    path: root(),
                    id: 9,
                },
            ]),
        };
        inbox.merge(0, init, &mut Metrics::new(), None);
        let b = BATCH_ORDER;
        // (deliver_tick, send_tick, from, order, tag), pushed out of order.
        for (deliver_tick, send_tick, from, order, tag) in [
            (5, 3, 1, b + 1, 5),
            (400, 1, 0, b, 6),
            (5, 2, 0, b, 3),
            (5, 3, 1, b, 4),
            (5, 0, 1, b, 2),
            (5, 0, 3, 0, 1),
        ] {
            let stamp = Stamp {
                deliver_tick,
                send_tick,
                from,
                order,
            };
            inbox.hold(stamp, frame(from, tag));
        }
        assert_eq!(inbox.pending(), 11);
        let mut popped = Vec::new();
        while let Some(t) = inbox.next_due() {
            let due: Vec<String> = inbox.take_due(t).iter().map(label).collect();
            popped.push((t, due.join(" ")));
        }
        let expect = [
            (0, "d0 t9"),
            (5, "d1 d2 d3 d4 d5 t1 t3"),
            (300, "t2"),
            (400, "d6"),
        ];
        let expect: Vec<(Time, String)> = expect.map(|(t, s)| (t, s.to_string())).into();
        assert_eq!(popped, expect);
        assert_eq!(inbox.pending(), 0);
    }
}
