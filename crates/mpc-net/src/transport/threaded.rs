//! The real party runtime — one OS thread per party, canonical wire bytes,
//! wall-clock timeouts — and its in-memory backend.
//!
//! # Execution model
//!
//! A party is the per-party core every medium runs (`crate::party`): its
//! inbox and timer heap, the one batch loop, and the settle step that puts
//! an activation's traffic on the wire. This module adds only what the wall
//! clock needs: the mailbox, the link-clock gate, the late-packet clamp and
//! quiescence.
//!
//! Each party runs `PartyRuntime::run` on its own thread, and that thread is
//! the only one that touches the party's links: the runtime talks to a
//! narrow `Mailbox` seam (`send` / `flush` / `try_recv` / `recv(deadline)`),
//! and a backend is a [`Medium`] supplying the mailboxes — `mpsc` endpoints
//! for [`ThreadedNet`], the party's sockets under one `ppoll` for
//! [`super::tcp::TcpNet`]. Both nets are the one [`RealNet`] type, and a run
//! is `run_parties`: `n` scoped party threads plus the calling thread as
//! quiescence coordinator. Outbound traffic leaves a party as TCP-ready byte
//! strings — an honest sender's per-destination [`crate::wire::Frame`]s,
//! path-prefixed single-message packets for corrupt ones (whose
//! [`ByzantineStrategy`] keeps its exact per-message view of the wire).
//!
//! Time is paced against the wall clock: one logical tick is a fixed real
//! duration ([`RealNet::with_tick_micros`], default 1000 µs), and a party
//! processes the work due at tick `t` when `Mailbox::recv` reaches the
//! tick's real deadline — every timer expiry on this backend is a genuine
//! timeout, not a simulated event. Link latency comes from a [`LinkDelays`]
//! matrix: a packet sent at tick `t` over a link of `d` ticks is *stamped*
//! `deliver_tick = t + d` by the sender and held by the receiver until that
//! tick's wall deadline.
//! Logical "now" therefore flows in-band with the packets, never from the
//! wall clock — what the wall clock decides is *which event wins a race*:
//! a party whose `Δ`-timer deadline arrives before a slow sender's bytes
//! fires the timeout and takes the synchronous→asynchronous fallback path,
//! exactly as it would against a real slow network.
//!
//! On an oversubscribed host (debug builds, single core) a party can overrun
//! its tick budget, and a fixed wall schedule would then misdeliver its
//! packets as *late*. The runtime therefore layers a conservative link-clock
//! gate (Chandy–Misra null messages, `Inbound::Past`) on top of the wall
//! pacing: a due tick only fires once every incoming link promises nothing
//! earlier is still in flight. On a healthy schedule the promises run ahead
//! of the deadlines and the gate never waits; under load it converts
//! would-be lateness into back-pressure, bounded by the wedge timeout.
//!
//! # Conformance
//!
//! The simulator drives the same cores under a virtual clock: both media run
//! every activation — `init` included — through the same batch loop, stamp
//! its sends in the same settle step and hold them in the same inbox under
//! the same key, with a packet's delay read from the [`LinkDelays`] matrix
//! the simulator can use as its scheduler. For any seed, this backend and the
//! simulator produce byte-identical per-party outputs and identical
//! per-party bit accounting. See
//! `tests/transport_conformance.rs` and DESIGN.md, "Transport abstraction &
//! conformance oracle".

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{AdversaryStructure, ByzantineStrategy, CorruptionSet, Passive};
use crate::context::{Path, Protocol};
use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use crate::party::{
    run_corrupt_batch, run_party_batch, settle, EventKind, Inbox, Outgoing, SliceEnv, Stamp, Wire,
    Work, WorkerParty,
};
use crate::scheduler::LinkDelays;
use crate::simulation::{NetConfig, TranscriptEntry};
use crate::transport::{Backend, PartyId, PartyView, Time, Transport, TransportError};
use crate::wire::{put_path, WireDecode, WireEncode, WireError, WireReader};

/// The default real duration of one logical tick, in microseconds. Larger
/// ticks give party threads more wall-clock slack per tick (fewer late
/// packets under load); smaller ticks make runs faster.
const DEFAULT_TICK_MICROS: u64 = 1000;

/// What travels between party threads.
pub(super) enum Inbound {
    Packet(Packet),
    /// A link-clock promise (a Chandy–Misra null message): nothing the sender
    /// emits from here on can arrive on this link before `floor`. Channels
    /// are FIFO and per-link delays fixed, so once a receiver has read this
    /// it has also already received every packet of the link due earlier.
    Past {
        from: PartyId,
        floor: Time,
    },
    /// Global shutdown, sent by the coordinator at quiescence (or at the
    /// hard wall-clock cap).
    Stop,
}

/// One byte string on a channel. `bytes` is a complete [`crate::wire::Frame`]
/// when `framed`, else a path-prefixed single message (see
/// [`encode_single`]).
pub(super) struct Packet {
    pub(super) from: PartyId,
    pub(super) send_tick: Time,
    /// Emission index among the sender's packets of `send_tick` (its top
    /// bit marks a batch's packets, clear for `init`'s) — the
    /// receiver-side tiebreaker of the inbox key, see `party::Stamp`.
    pub(super) order: u32,
    pub(super) deliver_tick: Time,
    pub(super) framed: bool,
    pub(super) bytes: Arc<Vec<u8>>,
}

/// The seam between a party and its links: everything [`PartyRuntime`]
/// knows about the medium. The threaded backend implements it over `mpsc`
/// endpoints ([`ChannelMailbox`]), the TCP backend over the party's sockets
/// (`tcp::TcpMailbox`) — either way the party thread is the only thread
/// that touches them.
pub(super) trait Mailbox {
    /// Queues `msg` on the link to party `to`. `false` if that party is gone
    /// for good (the message will never be taken).
    fn send(&mut self, to: PartyId, msg: Inbound) -> bool;
    /// Called once per wake-up, after everything the wake-up produced has
    /// been [`Mailbox::send`]-queued: the point at which a buffering medium
    /// writes, so data and the floor promise behind it leave together.
    fn flush(&mut self) {}
    /// The next inbound message already at hand, without blocking.
    fn try_recv(&mut self) -> Option<Inbound>;
    /// Blocks until a message arrives or `deadline` passes (`None`: no
    /// deadline); `None` is the time-out. A closed mailbox reads as
    /// [`Inbound::Stop`].
    fn recv(&mut self, deadline: Option<Instant>) -> Option<Inbound>;
    /// Adds what the medium itself counted during the run (connection
    /// supervision) to the run's [`Metrics`].
    fn fold_stats(&self, _into: &mut Metrics) {}
}

/// [`Mailbox`] over in-memory channels: one inbox per party, every party
/// holding a sender to every inbox.
pub(super) struct ChannelMailbox {
    rx: Receiver<Inbound>,
    txs: Vec<Sender<Inbound>>,
}

impl Mailbox for ChannelMailbox {
    fn send(&mut self, to: PartyId, msg: Inbound) -> bool {
        self.txs[to].send(msg).is_ok()
    }
    fn try_recv(&mut self) -> Option<Inbound> {
        match self.rx.try_recv() {
            Ok(msg) => Some(msg),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Inbound::Stop),
        }
    }
    fn recv(&mut self, deadline: Option<Instant>) -> Option<Inbound> {
        let Some(deadline) = deadline else {
            return Some(self.rx.recv().unwrap_or(Inbound::Stop));
        };
        match self
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Inbound::Stop),
        }
    }
}

/// Coordination state shared by all party threads and the coordinator.
pub(super) struct Shared {
    /// Packets sent but not yet taken off their channel. Quiescence needs
    /// this at 0.
    pub(super) in_flight: AtomicI64,
    /// Per-party "blocked with nothing pending" flags.
    pub(super) idle: Vec<AtomicBool>,
    /// Bumped on every send, receive and processed tick; the coordinator's
    /// double-read of this counter makes its idle scan race-free.
    pub(super) activity: AtomicU64,
}

/// The wire-level adversary, shared by all corrupt parties' threads. With a
/// single corrupt party the lock is uncontended and the consult order equals
/// the simulator's; with several, strategies that draw from the shared RNG
/// stream should be wrapped in [`crate::ChannelDeterministic`] to stay
/// order-independent.
pub(super) struct AdvState {
    pub(super) strategy: Box<dyn ByzantineStrategy>,
    pub(super) rng: StdRng,
}

/// Encodes a single (non-framed) message for the wire: the path prefix
/// ([`put_path`], as inside a [`crate::Frame`]), then the payload bytes
/// verbatim.
pub(super) fn encode_single(path: &[u32], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + path.len() * 4 + payload.len());
    put_path(&mut buf, path);
    buf.extend_from_slice(payload);
    buf
}

/// Splits a single-message packet back into its path and payload bytes.
/// This backend writes the prefix after the Byzantine strategy acted, but a
/// packet that crossed a socket is still input: a prefix that does not
/// decode is an error, never a panic or an unbounded allocation.
pub(super) fn decode_single(bytes: &[u8]) -> Result<(Path, Arc<Vec<u8>>), WireError> {
    let mut r = WireReader::new(bytes);
    let path = r.path()?;
    let payload = r.bytes(r.remaining())?;
    Ok((Path::from(&path[..]), Arc::new(payload.to_vec())))
}

/// The per-thread party runtime. See the module docs for the model.
pub(super) struct PartyRuntime<'s, M, B> {
    me: PartyId,
    n: usize,
    /// The run's configuration: tick length, `Δ`, latency matrix, fault plan.
    spec: &'s NetSpec,
    horizon: Time,
    honest: bool,
    /// Wall-clock epoch: tick `t`'s deadline is `start + t·tick + guard`.
    /// Stamped after the post-init barrier so thread-spawn latency never
    /// eats into tick 0's budget.
    start: Instant,
    protocol: Box<dyn Protocol<M>>,
    rng: StdRng,
    mailbox: B,
    shared: &'s Shared,
    adv: &'s Mutex<AdvState>,
    inbox: Inbox,
    metrics: Metrics,
    transcript: Vec<TranscriptEntry>,
    /// Every tick below this has been processed; late packets clamp here.
    next_unprocessed: Time,
    last_tick: Time,
    processed_any: bool,
    stopping: bool,
    /// Per-sender link clock: the earliest tick at which a not-yet-received
    /// packet from that sender could still arrive (own slot unused). Raised
    /// by [`Inbound::Past`] promises; processing tick `t` waits until every
    /// slot exceeds `t`, so an overrun party (debug compute on an
    /// oversubscribed host) back-pressures its receivers instead of being
    /// ruled late — the wall clock still decides *when* a due tick fires,
    /// the floors only guarantee no link has earlier bytes in flight.
    chan_floor: Vec<Time>,
    /// Highest promise broadcast so far (the basis tick, before per-link
    /// delay is added); deduplicates [`Inbound::Past`] chatter.
    promised: Time,
    /// First wedge diagnosed by the gate (lagging peer, its last cleared
    /// tick); surfaced post-run as `TransportError::Wedged`.
    wedged: Option<(PartyId, Time)>,
}

/// The default zero-progress grace of the conservative gate (30 s). This is
/// a pathology net for a wedged peer, not a pacing knob: a single
/// debug-build batch on an oversubscribed single-core host can legitimately
/// compute for hundreds of milliseconds while emitting nothing, and bailing
/// on it surfaces as `late_packets` plus oracle divergence. The
/// coordinator's hard wall-clock cap remains the final backstop. Expiry is
/// not silent: it increments [`Metrics::wedges`] and surfaces a typed
/// [`TransportError::Wedged`] through `Transport::last_error`.
pub const fn default_wedge_timeout() -> Duration {
    Duration::from_secs(30)
}

/// The real media's [`Wire`]: link delays from the latency matrix, every
/// delivery one packet queued on the sender's mailbox.
struct RealWire<'a, B> {
    spec: &'a NetSpec,
    mailbox: &'a mut B,
    shared: &'a Shared,
    inbox: &'a mut Inbox,
}

impl<B: Mailbox> Wire for RealWire<'_, B> {
    fn delay(&mut self, from: PartyId, to: PartyId, _now: Time) -> Time {
        self.spec.links.get(from, to)
    }
    fn faults(&self) -> &FaultPlan {
        &self.spec.faults
    }
    fn put(&mut self, to: PartyId, stamp: Stamp, out: Outgoing) {
        let (framed, bytes) = match out {
            Outgoing::Frame(bytes) => (true, bytes),
            Outgoing::Single(path, payload) => (false, Arc::new(encode_single(&path, &payload))),
        };
        let packet = Packet {
            from: stamp.from,
            send_tick: stamp.send_tick,
            order: stamp.order,
            deliver_tick: stamp.deliver_tick,
            framed,
            bytes,
        };
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        if !self.mailbox.send(to, Inbound::Packet(packet)) {
            // Receiver already gone (forced stop): retract the claim.
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
    fn inbox(&mut self) -> &mut Inbox {
        self.inbox
    }
}

impl<M: WireEncode + WireDecode + 'static, B: Mailbox> PartyRuntime<'_, M, B> {
    fn deadline_of(&self, tick: Time) -> Instant {
        let tick_us = self.spec.tick_us;
        // The guard absorbs scheduling jitter between a sender's batch and
        // the receivers' tick deadlines without eating a whole tick.
        let guard = Duration::from_micros((tick_us / 4).max(50));
        self.start + Duration::from_micros(tick_us.saturating_mul(tick)) + guard
    }

    /// Records a link-clock promise from `from`; true if the clock advanced.
    fn note_past(&mut self, from: PartyId, floor: Time) -> bool {
        if floor > self.chan_floor[from] {
            self.chan_floor[from] = floor;
            return true;
        }
        false
    }

    /// A sender whose link clock does not yet clear tick `t`, if any.
    fn lagging_link(&self, t: Time) -> Option<PartyId> {
        (0..self.n).find(|&s| s != self.me && self.chan_floor[s] <= t)
    }

    /// Recomputes this party's output clock — the earliest tick it could
    /// still process, hence the earliest `send_tick` it could still stamp —
    /// and broadcasts the promise when it has advanced. The clock is the
    /// Chandy–Misra recurrence: own pending work, capped below by incoming
    /// link clocks (a future packet can reactivate an otherwise idle party),
    /// and never below what is already processed. Promises beyond the
    /// horizon are pointless (that work is discarded), so the basis is
    /// capped there — this also bounds the null-message chatter.
    fn update_promise(&mut self, next: Option<Time>) {
        let cap = self.horizon.saturating_add(1);
        let mut basis = next.unwrap_or(cap).min(cap);
        for s in 0..self.n {
            if s != self.me {
                basis = basis.min(self.chan_floor[s]);
            }
        }
        basis = basis.max(self.next_unprocessed).min(cap);
        if basis > self.promised {
            self.promised = basis;
            let from = self.me;
            for r in (0..self.n).filter(|&r| r != from) {
                let floor = basis.saturating_add(self.spec.links.get(from, r));
                self.mailbox.send(r, Inbound::Past { from, floor });
            }
        }
    }

    /// Takes one packet off the channel into the inbox.
    fn receive(&mut self, p: Packet) {
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
        let mut deliver = p.deliver_tick;
        if deliver < self.next_unprocessed {
            // Physically late: its logical tick is already processed. Clamp
            // forward (and diagnose) rather than lose or reorder it.
            self.metrics.late_packets += 1;
            deliver = self.next_unprocessed;
        }
        let kind = if p.framed {
            Ok(EventKind::DeliverFrame {
                from: p.from,
                payload: p.bytes,
            })
        } else {
            decode_single(&p.bytes).map(|(path, payload)| EventKind::Deliver {
                from: p.from,
                path,
                payload,
            })
        };
        match kind {
            Ok(kind) => {
                let stamp = Stamp {
                    deliver_tick: deliver,
                    send_tick: p.send_tick,
                    from: p.from,
                    order: p.order,
                };
                self.inbox.hold(stamp, kind);
                let depth = self.inbox.held_len() as u64;
                self.metrics.held_packets_peak = self.metrics.held_packets_peak.max(depth);
            }
            Err(_) => self.metrics.decode_failures += 1,
        }
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Runs one activation of this party through the shared batch loop at
    /// tick `t` and settles it: traffic onto the links, the rest into the
    /// inbox and the party's accounting.
    fn activate(&mut self, t: Time, work: Work) {
        let env = SliceEnv {
            t,
            n: self.n,
            delta: self.spec.config.delta,
            coin_seed: self.spec.config.coin_seed(),
            record: self.spec.record,
        };
        let wp = WorkerParty {
            party: self.me,
            protocol: &mut self.protocol,
            rng: &mut self.rng,
            work,
        };
        let act = if self.honest {
            run_party_batch(wp, env)
        } else {
            let mut adv = self.adv.lock().expect("adversary state poisoned");
            let AdvState { strategy, rng } = &mut *adv;
            run_corrupt_batch(wp, env, strategy.as_mut(), rng)
        };
        let mut wire = RealWire {
            spec: self.spec,
            mailbox: &mut self.mailbox,
            shared: self.shared,
            inbox: &mut self.inbox,
        };
        let transcript = self.spec.record.then_some(&mut self.transcript);
        settle(env, act, &mut wire, &mut self.metrics, transcript);
    }

    /// Processes everything due at tick `t` as one batch.
    fn process_tick(&mut self, t: Time) {
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
        let depth = self.inbox.pending() as u64;
        let before = self.metrics.events_processed;
        let events = self.inbox.take_due(t);
        self.activate(t, Work::Events(events));
        self.metrics
            .record_slice(self.metrics.events_processed - before, depth);
        self.next_unprocessed = t + 1;
        self.last_tick = t;
        self.processed_any = true;
    }

    /// Folds one inbound message in; true if it is progress a gate waits
    /// for (a packet, or a link clock that advanced).
    fn absorb(&mut self, msg: Inbound) -> bool {
        match msg {
            Inbound::Packet(p) => {
                // Clear the idle flag *before* folding the packet in (which
                // releases its in-flight claim): a party woken from the idle
                // wait by a promise keeps a stale idle=true through the next
                // drain, and a window where the flag is true while the
                // packet is neither in flight nor processed lets the
                // coordinator declare quiescence mid-run and truncate the
                // tail of a healthy schedule.
                self.shared.idle[self.me].store(false, Ordering::SeqCst);
                self.receive(p);
                true
            }
            // A promise creates no work: an idle party stays marked idle, so
            // the coordinator can declare quiescence through the end-of-run
            // promise exchange (floors creeping toward the horizon cap)
            // instead of waiting it out.
            Inbound::Past { from, floor } => self.note_past(from, floor),
            Inbound::Stop => {
                self.stopping = true;
                false
            }
        }
    }

    /// The party thread body: init, epoch barrier, then the paced event loop
    /// until the coordinator's `Stop`; hands the runtime back for the fold.
    fn run(mut self, barrier: &Barrier, epoch: &OnceLock<Instant>) -> Self {
        self.activate(0, Work::Init);
        // Init-time traffic (and, on sockets, the dials under it) leaves
        // before the epoch is stamped, outside tick 0's budget.
        self.mailbox.flush();
        barrier.wait();
        if self.me == 0 {
            // One tick of lead so tick 0's deadline is comfortably ahead.
            let _ = epoch.set(Instant::now() + Duration::from_micros(self.spec.tick_us));
        }
        barrier.wait();
        self.start = *epoch.get().expect("epoch stamped by party 0");
        let quantum = Duration::from_micros((self.spec.tick_us / 2).clamp(100, 1000));
        // How long the gate tolerates *zero* progress (no packet, no advancing
        // link clock) on a lagging link before processing anyway — see
        // [`default_wedge_timeout`].
        let wedge_timeout = Duration::from_millis(self.spec.wedge_ms.max(1));
        loop {
            while !self.stopping {
                let Some(msg) = self.mailbox.try_recv() else {
                    break;
                };
                self.absorb(msg);
            }
            if self.stopping {
                break;
            }
            let next = self.inbox.next_due();
            self.update_promise(next);
            self.mailbox.flush();
            // Keep the invariant local and self-evident: the flag is true
            // exactly while this party is blocked below with no work.
            self.shared.idle[self.me].store(next.is_none(), Ordering::SeqCst);
            match next {
                None => {
                    if let Some(msg) = self.mailbox.recv(None) {
                        self.absorb(msg);
                    }
                }
                Some(t) if t > self.horizon => {
                    // Mirror `Simulation::run_until`: work beyond the horizon
                    // stays unprocessed.
                    self.inbox = Inbox::default();
                }
                Some(t) => {
                    let deadline = self.deadline_of(t);
                    if Instant::now() < deadline {
                        // `None` is the real timeout: tick `t`'s deadline
                        // elapsed with no earlier-due bytes on the wire.
                        if let Some(msg) = self.mailbox.recv(Some(deadline)) {
                            self.absorb(msg);
                        }
                        continue;
                    }
                    // Conservative gate: tick `t` is due by the wall clock,
                    // but only fires once every incoming link clock clears it
                    // — i.e. no sender can still produce a packet that the
                    // simulator would have scheduled at or before `t`. On a
                    // healthy schedule floors run ahead of deadlines and this
                    // costs nothing; under load it converts would-be late
                    // packets into bounded back-pressure.
                    // The grace clock measures *stalled* time: a laggard
                    // grinding through a long compute burst keeps resetting
                    // it with every promise it emits, so the gate only bails
                    // on a genuinely dead peer, not on slow progress.
                    let mut stalled_since = Instant::now();
                    while self.lagging_link(t).is_some() && !self.stopping {
                        if stalled_since.elapsed() > wedge_timeout {
                            // Zero progress for the whole grace: diagnose the
                            // wedged peer, then process anyway (liveness) —
                            // the run surfaces the wedge as a typed error.
                            if let Some(peer) = self.lagging_link(t) {
                                self.metrics.wedges += 1;
                                if self.wedged.is_none() {
                                    self.wedged = Some((peer, self.chan_floor[peer]));
                                }
                            }
                            break;
                        }
                        let woken = self.mailbox.recv(Some(Instant::now() + quantum));
                        if woken.is_some_and(|msg| self.absorb(msg)) {
                            stalled_since = Instant::now();
                        }
                        // A risen incoming clock can raise our own promise,
                        // which a peer's gate may in turn be waiting on —
                        // re-broadcast from inside the gate or mutually
                        // gating parties would stall until the grace bail.
                        let nw = self.inbox.next_due();
                        self.update_promise(nw);
                        self.mailbox.flush();
                        // A packet taken during the gate may carry work due
                        // *before* `t`. Keep gating on the stale `t` and the
                        // promise basis pins at that earlier tick — which a
                        // peer's own gate may be waiting to see cleared:
                        // mutual deadlock until the grace bail. Re-enter the
                        // outer loop so the gate re-forms on the true
                        // earliest tick.
                        if nw != Some(t) {
                            break;
                        }
                    }
                    // A packet taken during the gate may be due before `t`;
                    // recompute rather than process out of order.
                    if self.stopping || self.inbox.next_due() != Some(t) {
                        continue;
                    }
                    self.process_tick(t);
                }
            }
        }
        self
    }
}

/// How the party threads of a real backend reach each other — the one thing
/// [`ThreadedNet`] and [`super::tcp::TcpNet`] differ in. A net starts from
/// the medium's `Default`.
pub trait Medium: Default {
    /// The [`Backend`] a net over this medium reports.
    const BACKEND: Backend;
    /// Runs the parties of `state` to quiescence, one thread each, over
    /// mailboxes of this medium (see [`run_parties`]).
    #[doc(hidden)]
    fn run<M: WireEncode + WireDecode + 'static>(
        &self,
        spec: &NetSpec,
        horizon: Time,
        state: &mut RunState<M>,
    );
}

/// The in-memory medium of [`ThreadedNet`]: `mpsc` channels carrying
/// TCP-ready frame bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Channels;

impl Medium for Channels {
    const BACKEND: Backend = Backend::Threaded;
    fn run<M: WireEncode + WireDecode + 'static>(
        &self,
        spec: &NetSpec,
        horizon: Time,
        state: &mut RunState<M>,
    ) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..spec.config.n).map(|_| mpsc::channel()).unzip();
        let mailboxes = rxs.into_iter().map(|rx| ChannelMailbox {
            rx,
            txs: txs.clone(),
        });
        let cap_slack = Duration::from_secs(2);
        run_parties(spec, horizon, cap_slack, state, mailboxes.collect(), || {
            for tx in &txs {
                let _ = tx.send(Inbound::Stop);
            }
        })
    }
}

/// A real (wall-clock, thread-per-party) [`Transport`] backend over medium
/// `L`; use it through its two aliases, [`ThreadedNet`] and
/// [`super::tcp::TcpNet`]. Construct with [`RealNet::new`] (latency matrix
/// derived from the [`NetConfig`]'s network kind and seed) or
/// [`RealNet::with_links`] (explicit matrix, e.g. the exact one handed to
/// the simulator oracle), then drive it through the [`Transport`] trait.
pub struct RealNet<M, L> {
    spec: NetSpec,
    structure: Option<Arc<dyn AdversaryStructure>>,
    pub(super) medium: L,
    /// Party states and accounting: initial until the run, its result after.
    state: RunState<M>,
    ran: bool,
}

/// What a [`RealNet`] is configured with before it runs (opaque outside
/// the crate: it exists in the public interface only to be handed through
/// [`Medium::run`]).
pub struct NetSpec {
    pub(super) config: NetConfig,
    pub(super) corruption: CorruptionSet,
    pub(super) links: LinkDelays,
    pub(super) faults: FaultPlan,
    pub(super) tick_us: u64,
    pub(super) wedge_ms: u64,
    pub(super) record: bool,
}

/// What a run works on: the party states in index order and, once
/// the run has folded it, the accounting (opaque, like [`NetSpec`]).
pub struct RunState<M> {
    parties: Vec<Option<Box<dyn Protocol<M>>>>,
    pub(super) metrics: Metrics,
    now: Time,
    transcript: Vec<TranscriptEntry>,
    strategy: Option<Box<dyn ByzantineStrategy>>,
    /// The first wedge any party's gate diagnosed, in party order.
    wedged: Option<TransportError>,
}

/// The threaded [`Transport`] backend ([`Backend::Threaded`]): one OS thread
/// per party, in-memory channels between them.
pub type ThreadedNet<M> = RealNet<M, Channels>;

impl<M: WireEncode + WireDecode + 'static, L: Medium> RealNet<M, L> {
    /// Creates a network with the default latency matrix for the configured
    /// network kind ([`LinkDelays::for_kind`]).
    pub fn new(
        config: NetConfig,
        corruption: CorruptionSet,
        parties: Vec<Box<dyn Protocol<M>>>,
    ) -> Self {
        let links = LinkDelays::for_kind(config.n, config.kind, config.delta, config.seed);
        Self::with_links(config, corruption, links, parties)
    }

    /// Creates a network with an explicit latency matrix.
    ///
    /// # Panics
    ///
    /// Panics if `parties.len() != config.n` or `links.n() != config.n`.
    pub fn with_links(
        config: NetConfig,
        corruption: CorruptionSet,
        links: LinkDelays,
        parties: Vec<Box<dyn Protocol<M>>>,
    ) -> Self {
        assert_eq!(
            parties.len(),
            config.n,
            "need exactly one root protocol per party"
        );
        assert_eq!(links.n(), config.n, "latency matrix size must match n");
        let mut metrics = Metrics::new();
        // One OS thread per party — the honest analogue of the simulator's
        // worker-thread knob.
        metrics.worker_threads = config.n as u64;
        RealNet {
            spec: NetSpec {
                tick_us: DEFAULT_TICK_MICROS,
                wedge_ms: default_wedge_timeout().as_millis() as u64,
                config,
                corruption,
                links,
                faults: FaultPlan::none(),
                record: false,
            },
            structure: None,
            medium: L::default(),
            state: RunState {
                parties: parties.into_iter().map(Some).collect(),
                metrics,
                now: 0,
                transcript: Vec::new(),
                strategy: None,
                wedged: None,
            },
            ran: false,
        }
    }

    /// Overrides the real duration of one logical tick (microseconds; `0`
    /// keeps the 1000 µs default). Call before running.
    pub fn with_tick_micros(mut self, micros: u64) -> Self {
        if micros > 0 {
            self.spec.tick_us = micros;
        }
        self
    }

    /// Overrides the conservative gate's zero-progress grace (milliseconds;
    /// `0` keeps the 30 s default). Call before running. A
    /// gate that waits this long without any progress on a lagging link
    /// counts a wedge in [`Metrics::wedges`] and surfaces
    /// [`TransportError::Wedged`] through [`Transport::last_error`] instead
    /// of silently stalling.
    pub fn with_wedge_millis(mut self, millis: u64) -> Self {
        if millis > 0 {
            self.spec.wedge_ms = millis;
        }
        self
    }

    /// Installs an injected *logical* [`FaultPlan`] applied on top of the
    /// link-latency matrix (default: the empty plan): drops, crashes,
    /// partitions at the message layer. Call before running — the same plan
    /// yields the same per-message decisions on the simulator.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.spec.faults = plan;
    }

    /// The injected fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.spec.faults
    }

    /// The latency matrix this network runs with.
    pub fn links(&self) -> &LinkDelays {
        &self.spec.links
    }

    /// The real duration of one logical tick, in microseconds.
    pub fn tick_micros(&self) -> u64 {
        self.spec.tick_us
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.spec.config
    }

    /// Downcasts party `i`'s root protocol to a concrete type for inspecting
    /// outputs after the run.
    pub fn party_as<T: 'static>(&self, i: PartyId) -> Option<&T> {
        PartyView::party(self, i).as_any().downcast_ref::<T>()
    }

    /// Spawns the party threads, runs to quiescence (no held packet, no
    /// pending timer, nothing in flight at any party, bounded by `horizon`
    /// logical ticks and a hard wall-clock cap), joins, and folds the
    /// per-party accounting. Subsequent calls are no-ops — a quiesced run
    /// has nothing left to resume.
    pub fn run_net_to_quiescence(&mut self, horizon: Time) {
        if self.ran {
            return;
        }
        self.ran = true;
        self.medium.run(&self.spec, horizon, &mut self.state);
    }
}

/// The run scaffold both real backends share: one scoped thread per party
/// around a [`PartyRuntime`] over its mailbox, the calling thread as the
/// quiescence coordinator (until quiescence, or by force `cap_slack` of wall
/// clock past the `horizon` tick schedule), `stop` to release the parties,
/// then join and fold. No other thread exists during a run.
pub(super) fn run_parties<M, B>(
    env: &NetSpec,
    horizon: Time,
    cap_slack: Duration,
    state: &mut RunState<M>,
    mailboxes: Vec<B>,
    stop: impl FnOnce(),
) where
    M: WireEncode + WireDecode + 'static,
    B: Mailbox + Send,
{
    let (n, tick_us) = (env.config.n, env.tick_us);
    let horizon_cap =
        Duration::from_micros(tick_us.saturating_mul(horizon.saturating_add(16))) + cap_slack;
    let shared = Shared {
        in_flight: AtomicI64::new(0),
        idle: (0..n).map(|_| AtomicBool::new(false)).collect(),
        activity: AtomicU64::new(0),
    };
    let adv = Mutex::new(AdvState {
        strategy: state.strategy.take().unwrap_or_else(|| Box::new(Passive)),
        rng: StdRng::seed_from_u64(env.config.adversary_seed()),
    });
    let barrier = Barrier::new(n);
    let epoch: OnceLock<Instant> = OnceLock::new();
    let results: Vec<PartyRuntime<'_, M, B>> = std::thread::scope(|scope| {
        let (shared, adv, barrier, epoch) = (&shared, &adv, &barrier, &epoch);
        let handles: Vec<_> = (state.parties.iter_mut())
            .map(|slot| slot.take().expect("party state present outside a run"))
            .zip(mailboxes)
            .enumerate()
            .map(|(i, (protocol, mailbox))| {
                let runtime = PartyRuntime {
                    me: i,
                    n,
                    spec: env,
                    horizon,
                    honest: env.corruption.is_honest(i),
                    start: Instant::now(), // re-stamped after the barrier
                    protocol,
                    rng: StdRng::seed_from_u64(env.config.party_rng_seed(i)),
                    mailbox,
                    shared,
                    adv,
                    inbox: Inbox::default(),
                    metrics: Metrics::new(),
                    transcript: Vec::new(),
                    next_unprocessed: 0,
                    last_tick: 0,
                    processed_any: false,
                    stopping: false,
                    // Initial link clocks: every peer starts at tick 0, so
                    // nothing can arrive on a link before its delay
                    // (init-time sends land exactly there).
                    chan_floor: (0..n)
                        .map(|s| match s == i {
                            true => Time::MAX,
                            false => env.links.get(s, i),
                        })
                        .collect(),
                    promised: 0,
                    wedged: None,
                };
                scope.spawn(move || runtime.run(barrier, epoch))
            })
            .collect();
        // Coordinator: poll for quiescence (a packet in transit on any
        // medium keeps its `in_flight` claim, so the scan is sound across a
        // kernel too), then release the parties.
        let poll = Duration::from_micros((tick_us / 2).clamp(100, 2000));
        let wall_start = Instant::now();
        loop {
            std::thread::sleep(poll);
            let a1 = shared.activity.load(Ordering::SeqCst);
            let quiet = shared.in_flight.load(Ordering::SeqCst) == 0
                && shared.idle.iter().all(|f| f.load(Ordering::SeqCst));
            let a2 = shared.activity.load(Ordering::SeqCst);
            if (quiet && a1 == a2) || wall_start.elapsed() > horizon_cap {
                break;
            }
        }
        stop();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    });
    for party in results {
        state.parties[party.me] = Some(party.protocol);
        state.metrics.merge(&party.metrics);
        party.mailbox.fold_stats(&mut state.metrics);
        if party.processed_any {
            state.now = state.now.max(party.last_tick);
        }
        if let (None, Some((peer, last_progress_tick))) = (&state.wedged, party.wedged) {
            state.wedged = Some(TransportError::Wedged {
                party: peer,
                last_progress_tick,
            });
        }
        state.transcript.extend(party.transcript);
    }
    // Stable by-tick sort over the party-ascending concatenation: each
    // party's subsequence is exactly its processing order.
    state.transcript.sort_by_key(|e| e.at);
    state.strategy = Some(adv.into_inner().expect("adversary state poisoned").strategy);
}

impl<M: WireEncode + WireDecode + 'static, L: Medium> PartyView<M> for RealNet<M, L> {
    fn n(&self) -> usize {
        self.spec.config.n
    }
    fn now(&self) -> Time {
        self.state.now
    }
    fn party(&self, i: PartyId) -> &dyn Protocol<M> {
        self.state.parties[i]
            .as_deref()
            .expect("party state present outside a run")
    }
}

impl<M: WireEncode + WireDecode + 'static, L: Medium> Transport<M> for RealNet<M, L> {
    fn backend(&self) -> Backend {
        L::BACKEND
    }
    fn set_strategy(&mut self, strategy: Box<dyn ByzantineStrategy>) {
        self.state.strategy = Some(strategy);
    }
    fn record_transcript(&mut self) {
        self.spec.record = true;
    }
    fn transcript(&self) -> &[TranscriptEntry] {
        &self.state.transcript
    }
    fn run_until_done(
        &mut self,
        horizon: Time,
        pred: &mut dyn FnMut(&dyn PartyView<M>) -> bool,
    ) -> bool {
        self.run_net_to_quiescence(horizon);
        pred(self)
    }
    fn run_to_quiescence(&mut self, horizon: Time) {
        self.run_net_to_quiescence(horizon);
    }
    fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }
    fn corruption(&self) -> &CorruptionSet {
        &self.spec.corruption
    }
    fn set_adversary_structure(&mut self, structure: Arc<dyn AdversaryStructure>) {
        self.structure = Some(structure);
    }
    fn adversary_structure(&self) -> Option<&Arc<dyn AdversaryStructure>> {
        self.structure.as_ref()
    }
    fn last_error(&self) -> Option<&TransportError> {
        self.state.wedged.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Crash, EquivocateBroadcast, GarbleBytes};
    use crate::context::Context;
    use crate::simulation::{NetworkKind, Simulation};
    use std::any::Any;
    use std::fmt::Debug;

    /// Ping-pong with a deadline: party 0 broadcasts `Ping` at init and arms
    /// a `2Δ` timer; everyone answers `Pong` to the sender; when the timer
    /// fires, party 0 freezes the count of pongs that beat the deadline —
    /// the toy analogue of the sync→async fallback decision.
    #[derive(Debug, Default, PartialEq)]
    struct DeadlinePing {
        pongs: usize,
        at_deadline: Option<usize>,
    }

    crate::wire_enum! {
        #[derive(Clone, Debug)]
        enum Msg {
            Ping = 0,
            Pong = 1,
        }
    }

    impl Protocol<Msg> for DeadlinePing {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me == 0 {
                ctx.broadcast(Msg::Ping);
                ctx.set_timer(2 * ctx.delta, 7);
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
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _path: &[u32], _id: u64) {
            self.at_deadline = Some(self.pongs);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Every party's `init` sends itself a `Ping`, broadcasts one and arms a
    /// zero-delay timer whose expiry broadcasts a `Pong`; each `Ping` is
    /// answered with a `Pong`. The log is the party's whole view of the run.
    #[derive(Debug, Default, PartialEq)]
    struct InitCascade {
        log: Vec<String>,
    }

    impl Protocol<Msg> for InitCascade {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(ctx.me, Msg::Ping);
            ctx.broadcast(Msg::Ping);
            ctx.set_timer(0, 1);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            _path: &[u32],
            msg: Msg,
        ) {
            self.log.push(format!("{} {from}:{msg:?}", ctx.now));
            if let Msg::Ping = msg {
                ctx.send(from, Msg::Pong);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _path: &[u32], id: u64) {
            self.log.push(format!("{} timer {id}", ctx.now));
            ctx.broadcast(Msg::Pong);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn parties(n: usize) -> Vec<Box<dyn Protocol<Msg>>> {
        (0..n)
            .map(|_| Box::new(DeadlinePing::default()) as Box<dyn Protocol<Msg>>)
            .collect()
    }

    /// Runs the same configuration on the simulator oracle and the threaded
    /// backend and asserts per-party state, metric, and per-party transcript
    /// conformance.
    fn assert_conformance(
        kind: NetworkKind,
        seed: u64,
        corruption: CorruptionSet,
        strategy: impl Fn() -> Box<dyn ByzantineStrategy>,
    ) {
        assert_conformance_with_plan::<DeadlinePing>(
            kind,
            seed,
            corruption,
            strategy,
            FaultPlan::none(),
        );
    }

    fn assert_conformance_with_plan<P: Protocol<Msg> + Default + PartialEq + Debug + 'static>(
        kind: NetworkKind,
        seed: u64,
        corruption: CorruptionSet,
        strategy: impl Fn() -> Box<dyn ByzantineStrategy>,
        plan: FaultPlan,
    ) {
        let n = 4;
        let horizon = 10_000;
        let cfg = NetConfig::for_kind(n, kind).with_seed(seed);
        let links = LinkDelays::for_kind(n, kind, cfg.delta, seed);
        let parties = || {
            (0..n)
                .map(|_| Box::new(P::default()) as Box<dyn Protocol<Msg>>)
                .collect()
        };

        let mut sim = Simulation::with_scheduler(
            cfg.clone(),
            corruption.clone(),
            Box::new(links.clone()),
            parties(),
        );
        sim.set_strategy(strategy());
        sim.set_fault_plan(plan.clone());
        sim.record_transcript();
        sim.run_to_quiescence(horizon);

        let mut th = ThreadedNet::with_links(cfg, corruption.clone(), links, parties())
            .with_tick_micros(300);
        Transport::set_strategy(&mut th, strategy());
        th.set_fault_plan(plan);
        Transport::record_transcript(&mut th);
        th.run_net_to_quiescence(horizon);

        for i in 0..n {
            assert_eq!(
                sim.party_as::<P>(i),
                th.party_as::<P>(i),
                "party {i} state (seed {seed})"
            );
        }
        assert_eq!(
            sim.metrics(),
            Transport::metrics(&th),
            "metrics fingerprint (seed {seed})"
        );
        for i in 0..n {
            let s: Vec<_> = sim.transcript().iter().filter(|e| e.party == i).collect();
            let t: Vec<_> = Transport::transcript(&th)
                .iter()
                .filter(|e| e.party == i)
                .collect();
            assert_eq!(s, t, "party {i} transcript projection (seed {seed})");
        }
    }

    #[test]
    fn threaded_matches_simulator_sync_honest() {
        for seed in [1, 7] {
            assert_conformance(
                NetworkKind::Synchronous,
                seed,
                CorruptionSet::none(),
                || Box::new(Passive),
            );
        }
    }

    #[test]
    fn threaded_matches_simulator_async_honest() {
        assert_conformance(NetworkKind::Asynchronous, 11, CorruptionSet::none(), || {
            Box::new(Passive)
        });
    }

    #[test]
    fn threaded_matches_simulator_with_garbling_corrupt_sender() {
        assert_conformance(
            NetworkKind::Synchronous,
            3,
            CorruptionSet::new(vec![3]),
            || Box::new(GarbleBytes),
        );
    }

    /// A corrupt party's `init` self-send, broadcast and zero-delay timer go
    /// through the same strategy sink on both engines, alone and with a
    /// second corrupt party drawing on the same adversary.
    #[test]
    fn threaded_matches_simulator_on_corrupt_init_cascades() {
        let strategies: [fn() -> Box<dyn ByzantineStrategy>; 2] = [
            || Box::new(Crash),
            || Box::new(EquivocateBroadcast { alt: vec![1] }),
        ];
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            for corrupt in [vec![2], vec![1, 3]] {
                for strategy in strategies {
                    assert_conformance_with_plan::<InitCascade>(
                        kind,
                        4,
                        CorruptionSet::new(corrupt.clone()),
                        strategy,
                        FaultPlan::none(),
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_matches_simulator_under_crash_fault() {
        // Party 2 fail-silent at the wire from tick 1: both backends must
        // drop the exact same messages (fault_drops is fingerprint) and
        // reach the same outputs.
        assert_conformance_with_plan::<DeadlinePing>(
            NetworkKind::Synchronous,
            5,
            CorruptionSet::none(),
            || Box::new(Passive),
            FaultPlan::none().crash(2, 1, None),
        );
    }

    #[test]
    fn threaded_matches_simulator_under_duplicate_and_delay_bursts() {
        assert_conformance_with_plan::<DeadlinePing>(
            NetworkKind::Synchronous,
            9,
            CorruptionSet::none(),
            || Box::new(Passive),
            FaultPlan::none()
                .duplicate_burst(None, None, (0, 64), 3)
                .delay_burst(Some(1), None, (0, 64), 5),
        );
    }

    #[test]
    fn threaded_matches_simulator_under_partition_heal() {
        assert_conformance_with_plan::<DeadlinePing>(
            NetworkKind::Asynchronous,
            13,
            CorruptionSet::none(),
            || Box::new(Passive),
            FaultPlan::none().partition(vec![0, 1], 2, Some(120)),
        );
    }

    #[test]
    fn wedge_timeout_is_configurable_and_typed() {
        let n = 4;
        let cfg = NetConfig::synchronous(n).with_seed(5);
        let links = LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed);
        let th = ThreadedNet::<Msg>::with_links(cfg, CorruptionSet::none(), links, parties(n))
            .with_wedge_millis(250);
        assert_eq!(th.spec.wedge_ms, 250);
        assert!(Transport::<Msg>::last_error(&th).is_none());
        let err = TransportError::Wedged {
            party: 2,
            last_progress_tick: 17,
        };
        assert_eq!(err.to_string(), "party 2 wedged (no progress past tick 17)");
    }

    #[test]
    fn threaded_timers_are_real_timeouts() {
        let n = 4;
        let cfg = NetConfig::synchronous(n).with_seed(5);
        let links = LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed);
        let mut th = ThreadedNet::with_links(cfg, CorruptionSet::none(), links, parties(n))
            .with_tick_micros(300);
        th.run_net_to_quiescence(10_000);
        // Party 0's 2Δ deadline fired via a real recv_timeout expiry.
        assert_eq!(Transport::<Msg>::metrics(&th).timeouts_fired, 1);
        assert_eq!(th.party_as::<DeadlinePing>(0).unwrap().at_deadline, Some(n));
    }

    /// Party 0's mailbox swaps the bytes of every single-message packet it
    /// takes for a hostile path prefix: two bytes, a `u32::MAX` segment
    /// count, a truncated segment. Each is dropped and counted, and the run
    /// still quiesces long before the horizon: a drop that left `in_flight`
    /// unbalanced would hold the coordinator to its wall-clock cap.
    #[test]
    fn hostile_single_packet_prefixes_are_dropped_and_counted() {
        const HOSTILE: [&[u8]; 3] = [&[1, 0], &[0xff, 0xff, 0xff, 0xff, 0], &[1, 0, 0, 0, 7]];
        for bytes in HOSTILE {
            assert!(decode_single(bytes).is_err());
        }
        struct Hostile(ChannelMailbox, Option<usize>);
        impl Hostile {
            fn tamper(&mut self, msg: Inbound) -> Inbound {
                match (msg, &mut self.1) {
                    (Inbound::Packet(mut p), Some(k)) if !p.framed => {
                        p.bytes = Arc::new(HOSTILE[*k % HOSTILE.len()].to_vec());
                        *k += 1;
                        Inbound::Packet(p)
                    }
                    (msg, _) => msg,
                }
            }
        }
        impl Mailbox for Hostile {
            fn send(&mut self, to: PartyId, msg: Inbound) -> bool {
                self.0.send(to, msg)
            }
            fn try_recv(&mut self) -> Option<Inbound> {
                self.0.try_recv().map(|m| self.tamper(m))
            }
            fn recv(&mut self, deadline: Option<Instant>) -> Option<Inbound> {
                self.0.recv(deadline).map(|m| self.tamper(m))
            }
        }
        let n = 4;
        let cfg = NetConfig::synchronous(n).with_seed(5);
        let links = LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed);
        // Corrupt parties send per message, so the three pongs to party 0
        // are its only single-message packets.
        let corrupt = CorruptionSet::new(vec![1, 2, 3]);
        let mut th = ThreadedNet::with_links(cfg, corrupt, links, parties(n));
        th.spec.tick_us = 300;
        let started = Instant::now();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        let mailboxes = (rxs.into_iter().enumerate())
            .map(|(i, rx)| {
                Hostile(
                    ChannelMailbox {
                        rx,
                        txs: txs.clone(),
                    },
                    (i == 0).then_some(0),
                )
            })
            .collect();
        run_parties(
            &th.spec,
            10_000,
            Duration::from_secs(2),
            &mut th.state,
            mailboxes,
            || {
                for tx in &txs {
                    let _ = tx.send(Inbound::Stop);
                }
            },
        );
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "the run hit its cap"
        );
        assert_eq!(th.state.metrics.decode_failures, 3);
        // Only party 0's own pong reached it.
        assert_eq!(th.party_as::<DeadlinePing>(0).unwrap().at_deadline, Some(1));
    }
}
