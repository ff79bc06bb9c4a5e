//! The TCP socket transport backend: the party runtime of
//! [`super::threaded`] with its mailbox on *supervised* loopback
//! `TcpStream`s instead of in-memory channels.
//!
//! # Execution model
//!
//! A run is one thread per party and nothing else. The party thread runs the
//! threaded backend's `PartyRuntime` unchanged — same tick pacing, same
//! link-clock gate, same batch engines, so every conformance property
//! carries over — and is the only thread that touches the party's sockets:
//! its listener, the `n − 1` streams it dialed (link `me → r`: records out,
//! acks back) and the `n − 1` it accepted (link `r → me`), all non-blocking.
//! Wherever the runtime would block on a channel, `TcpMailbox` blocks in one
//! `ppoll` over all of them, with the tick deadline as its time-out; what a
//! wake-up queues for a link (frames, then the floor promise behind them)
//! leaves in one `write` when the runtime flushes.
//!
//! Connection failure is per-link state, not a thread ([`super::supervisor`]
//! has the stream protocol and the pure state machines):
//!
//! * **Dial / reconnect-with-replay**: `OutConn::Down` re-dials at
//!   `retry_at` (exponential backoff, deterministic jitter,
//!   [`crate::Metrics::dial_retries`]); a re-established link
//!   ([`crate::Metrics::reconnects`]) writes its unacked tail again in order
//!   ([`crate::Metrics::frames_replayed`]). Delivery is at-least-once; the
//!   receiver dedupes by link sequence, so the party-side held heap stays
//!   bit-identical to the simulator oracle.
//! * **Acks** are cumulative and sent when the sender's buffer needs them: a
//!   quarter of the replay cap received, or one probe interval after the
//!   oldest unacked record — not once per read.
//! * **Liveness**: a link with nothing to write for a probe interval
//!   re-announces its last floor as an unsequenced probe, so a dead peer
//!   surfaces as a failed write; a closed one is seen at once, as EOF on
//!   the ack side of the same poll set.
//! * **Resync**: undecodable bytes (torn or duplicated runs) poison the
//!   stream; the receiver abandons them ([`crate::Metrics::bytes_resynced`])
//!   and closes the connection — replay restarts it at a record boundary.
//! * **Strangers**: an accepted connection is nobody until its 12-byte
//!   handshake checks out, within a deadline, in a capped pending set.
//!
//! A lost packet is replayed, not dropped, and link-clock floors queue
//! *behind* it in the same FIFO stream, so a receiver's gate can never clear
//! a tick that a lost-but-replayable packet belongs to: connection failure
//! becomes bounded back-pressure (at worst a wedge diagnosis), never logical
//! divergence.
//!
//! # Chaos shim
//!
//! [`TcpNet::set_chaos_plan`] installs a second [`FaultPlan`], interpreted
//! at the socket layer by `supervisor::chaos_action`: `Drop` severs the
//! connection mid-record, an extra delay stalls *that link's* writes past
//! the wedge deadline (the party keeps serving its other links), a duplicate
//! writes a garbled byte run that forces a resync. Chaos acts only on a
//! record's first transmission — replays are clean — so the logical schedule
//! (and the guarantee matrix verdict) is untouched; only the wall clock
//! stretches.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppoll::PollFd;

use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use crate::transport::supervisor::{
    chaos_action, encode_data_into, encode_handshake, encode_record, encode_record_into, Backoff,
    ChaosAction, Handshakes, LinkRecord, LinkWriter, RecordDecoder,
};
use crate::transport::threaded::{
    run_parties, Inbound, Mailbox, Medium, NetSpec, Packet, RealNet, RunState,
};
use crate::transport::{Backend, PartyId, Time};
use crate::wire::WireMessage;

/// The byte bound of a link's replay buffer: over it, a send waits (up to
/// [`BACKPRESSURE`]) for acks, and a receiver acks after a quarter of it.
const REPLAY_CAP: usize = 8 << 20;

/// How long a link may stay silent before it writes an idle probe, and the
/// latest a received record waits for its ack.
const PROBE: Duration = Duration::from_millis(25);

/// What the mailboxes of one run share.
struct NetCtx<'a> {
    /// Party `i` listens on `addrs[i]`.
    addrs: Vec<SocketAddr>,
    spec: &'a NetSpec,
    sockets: &'a Sockets,
    /// Raised by the coordinator *before* it wakes the parties; a mailbox
    /// looks at it ahead of its sockets, so the teardown of a finished peer
    /// is never mistaken for a connection to repair.
    stop: AtomicBool,
}

/// Bound on one blocking dial (loopback connects complete or are refused at
/// once; this only bounds how long a black-holed address can hold the
/// party's one I/O thread).
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Longest a send waits for acks once a link's replay buffer is over its
/// cap, before buffering on regardless.
const BACKPRESSURE: Duration = Duration::from_millis(200);

/// The dialer side of directed link `me → to`.
struct OutLink {
    conn: OutConn,
    writer: LinkWriter,
    /// Connections established so far; the second and later are reconnects.
    generation: u64,
    /// The highest floor queued; what an idle probe re-announces.
    last_floor: Time,
    /// Decoder of the current connection's ack back-channel.
    acks: RecordDecoder,
    /// When the link last wrote; a probe interval later it is idle.
    last_write: Instant,
}

/// `Down --dial ok--> Up`, `Down --dial failed--> Down` (later `retry_at`),
/// `Up --write/read error, EOF, bad ack stream, chaos sever--> Down`.
enum OutConn {
    /// No socket: dial (again) at `retry_at`.
    Down { retry_at: Instant, backoff: Backoff },
    /// Handshake written; non-blocking from here on.
    Up(TcpStream),
}

/// The listener side of directed link `from → me`.
#[derive(Default)]
struct InLink {
    /// The next sequence number to accept. Outlives connections: it is what
    /// turns at-least-once replay into exactly-once delivery.
    expected: u64,
    conn: Option<InConn>,
}

struct InConn {
    stream: TcpStream,
    dec: RecordDecoder,
    /// Stream bytes of sequenced records taken since the last ack.
    unacked: usize,
    /// When the oldest of them must be acked at the latest.
    ack_due: Option<Instant>,
}

/// What one entry of the poll set belongs to.
#[derive(Clone, Copy)]
enum Slot {
    Listener,
    In(PartyId),
    Out(PartyId),
    Pending(usize),
}

/// [`Mailbox`] over sockets: the party's listener, its `n − 1` dialed
/// streams and its `n − 1` accepted ones, all non-blocking, all driven from
/// the party thread by one `ppoll` per wait.
struct TcpMailbox<'a> {
    me: PartyId,
    ctx: &'a NetCtx<'a>,
    listener: TcpListener,
    /// By peer; `None` in the own slot.
    out: Vec<Option<OutLink>>,
    /// By peer; the own slot stays empty.
    inc: Vec<InLink>,
    pending: Handshakes<TcpStream>,
    /// Decoded inbound messages the runtime has not taken yet.
    ready: VecDeque<Inbound>,
    fds: Vec<PollFd>,
    slots: Vec<Slot>,
    chunk: Vec<u8>,
    /// The supervision counters (`reconnects`, `dial_retries`,
    /// `frames_replayed`, `bytes_resynced`) of this party's links.
    stats: Metrics,
}

fn dial(addr: &SocketAddr, from: PartyId, to: PartyId) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(addr, DIAL_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.write_all(&encode_handshake(from, to))?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One non-blocking read into `chunk`: `Ok(None)` if nothing is there yet,
/// `Err` on EOF or a broken connection.
fn read_some<'c>(stream: &mut TcpStream, chunk: &'c mut [u8]) -> std::io::Result<Option<&'c [u8]>> {
    match stream.read(chunk) {
        Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
        Ok(k) => Ok(Some(&chunk[..k])),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(None),
        Err(e) => Err(e),
    }
}

impl<'a> TcpMailbox<'a> {
    fn new(me: PartyId, ctx: &'a NetCtx<'a>, listener: TcpListener) -> Self {
        let now = Instant::now();
        let link = |to: PartyId| OutLink {
            conn: OutConn::Down {
                retry_at: now,
                backoff: Backoff::new(ctx.backoff_seed(me, to, 0)),
            },
            writer: LinkWriter::default(),
            generation: 0,
            last_floor: 0,
            acks: RecordDecoder::new(),
            last_write: now,
        };
        TcpMailbox {
            me,
            ctx,
            listener,
            out: (0..ctx.n())
                .map(|to| (to != me).then(|| link(to)))
                .collect(),
            inc: (0..ctx.n()).map(|_| InLink::default()).collect(),
            pending: Handshakes::new(ctx.n()),
            ready: VecDeque::new(),
            fds: Vec::new(),
            slots: Vec::new(),
            chunk: vec![0; 64 << 10],
            stats: Metrics::new(),
        }
    }

    /// Closes the connection of link `me → to`; the next service pass
    /// re-dials.
    fn drop_out(&mut self, to: PartyId, now: Instant) {
        let link = self.out[to].as_mut().expect("no link to self");
        link.conn = OutConn::Down {
            retry_at: now,
            backoff: Backoff::new(self.ctx.backoff_seed(self.me, to, link.generation)),
        };
    }

    /// Closes the accepted connection of link `from → me`, abandoning
    /// `resynced` undecodable bytes: resync is teardown — the dialer notices,
    /// reconnects and replays from a record boundary.
    fn drop_in(&mut self, from: PartyId, resynced: usize) {
        self.stats.bytes_resynced += resynced as u64;
        self.inc[from].conn = None;
    }

    /// Everything that is due at `now` without waiting: dials, writes the
    /// sockets will take, idle probes, owed acks, handshake expiry.
    fn service(&mut self, now: Instant) {
        for to in 0..self.ctx.n() {
            let Some(link) = self.out[to].as_mut() else {
                continue;
            };
            if let OutConn::Down { retry_at, backoff } = &mut link.conn {
                if *retry_at > now || self.ctx.stop.load(Ordering::SeqCst) {
                    continue;
                }
                let Ok(stream) = dial(&self.ctx.addrs[to], self.me, to) else {
                    self.stats.dial_retries += 1;
                    *retry_at = now + backoff.next_delay();
                    continue;
                };
                link.generation += 1;
                self.stats.reconnects += u64::from(link.generation > 1);
                self.stats.frames_replayed += link.writer.reconnect();
                link.acks = RecordDecoder::new();
                link.last_write = now;
                link.conn = OutConn::Up(stream);
            }
            let OutConn::Up(stream) = &mut link.conn else {
                continue;
            };
            let sent = if link.writer.wants_write(now) {
                link.last_write = now;
                link.writer.flush(stream, now)
            } else if link.writer.drained() && now >= link.last_write + PROBE {
                // Idle heartbeat: re-announce the last promised floor (a
                // receiver-side no-op, floors are max-monotonic) purely so a
                // dead peer shows up as a failed write. Only once every
                // queued record is out — a probe must not overtake the data
                // its floor vouches for.
                link.last_write = now;
                let floor = link.last_floor;
                write_whole(stream, &LinkRecord::Probe { floor }).map(drop)
            } else {
                Ok(())
            };
            if sent.is_err() {
                self.drop_out(to, now);
            }
        }
        for from in 0..self.ctx.n() {
            let due = self.inc[from].conn.as_ref().and_then(|c| c.ack_due);
            if due.is_some_and(|t| t <= now) {
                self.send_ack(from, now);
            }
        }
        self.pending.expire(now);
    }

    /// The earliest instant at which [`TcpMailbox::service`] has work again.
    fn next_timer(&self) -> Option<Instant> {
        let links = self
            .out
            .iter()
            .flatten()
            .filter_map(|link| match &link.conn {
                OutConn::Down { retry_at, .. } => Some(*retry_at),
                OutConn::Up(_) if link.writer.drained() => Some(link.last_write + PROBE),
                OutConn::Up(_) => link.writer.stalled_until(),
            });
        let acks = self.inc.iter().filter_map(|l| l.conn.as_ref()?.ack_due);
        links.chain(acks).chain(self.pending.next_deadline()).min()
    }

    /// Cumulative ack for link `from → me`, up its own connection.
    fn send_ack(&mut self, from: PartyId, now: Instant) {
        let InLink { expected, conn } = &mut self.inc[from];
        let Some(conn) = conn else { return };
        let next_seq = *expected;
        match write_whole(&mut conn.stream, &LinkRecord::Ack { next_seq }) {
            Ok(true) => (conn.unacked, conn.ack_due) = (0, None),
            Ok(false) => conn.ack_due = Some(now + PROBE),
            Err(_) => self.drop_in(from, 0),
        }
    }

    /// One `ppoll` over every socket of the party, then whatever the ready
    /// ones have to say. Inbound messages land in `self.ready`.
    fn poll_io(&mut self, timeout: Option<Duration>, now: Instant) {
        self.fds.clear();
        self.slots.clear();
        self.fds.push(PollFd::new(&self.listener, false));
        self.slots.push(Slot::Listener);
        for (from, link) in self.inc.iter().enumerate() {
            if let Some(conn) = &link.conn {
                self.fds.push(PollFd::new(&conn.stream, false));
                self.slots.push(Slot::In(from));
            }
        }
        for (to, link) in self.out.iter().enumerate() {
            if let Some((link, OutConn::Up(stream))) = link.as_ref().map(|l| (l, &l.conn)) {
                // Always readable-watched: acks, and the peer's teardown.
                self.fds
                    .push(PollFd::new(stream, link.writer.wants_write(now)));
                self.slots.push(Slot::Out(to));
            }
        }
        for (idx, stream) in self.pending.streams().enumerate() {
            self.fds.push(PollFd::new(stream, false));
            self.slots.push(Slot::Pending(idx));
        }
        if !matches!(ppoll::wait(&mut self.fds, timeout), Ok(k) if k > 0) {
            return;
        }
        let now = Instant::now();
        // Back to front: pending entries go highest index first (removal
        // leaves the lower ones in place) and before the listener admits
        // new ones; each link touches only its own state.
        for i in (0..self.fds.len()).rev() {
            if !self.fds[i].readable() {
                continue; // writable links are flushed by the next service pass
            }
            match self.slots[i] {
                Slot::Pending(idx) => self.advance(idx),
                Slot::Out(to) => self.read_acks(to, now),
                Slot::In(from) => self.read_records(from, now),
                Slot::Listener => self.accept(now),
            }
        }
    }

    fn accept(&mut self, now: Instant) {
        // Bounded per wake-up, so a connect flood cannot starve the links.
        for _ in 0..self.ctx.n() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        self.pending.admit(stream, now);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn advance(&mut self, idx: usize) {
        if let Some((from, stream)) = self.pending.advance(idx, self.me, self.ctx.n()) {
            // The dialer keeps one connection per link, so a new one means
            // the old one is dead: replace it (what it had not delivered
            // comes again, what it had is deduplicated by `expected`).
            self.inc[from].conn = Some(InConn {
                stream,
                dec: RecordDecoder::new(),
                unacked: 0,
                ack_due: None,
            });
        }
    }

    /// Drains the ack back-channel of link `me → to`.
    fn read_acks(&mut self, to: PartyId, now: Instant) {
        let link = self.out[to].as_mut().expect("no link to self");
        let OutConn::Up(stream) = &mut link.conn else {
            return;
        };
        let healthy = match read_some(stream, &mut self.chunk) {
            Ok(None) => return,
            Ok(Some(bytes)) => {
                link.acks.extend(bytes);
                loop {
                    match link.acks.next_record() {
                        Ok(Some(LinkRecord::Ack { next_seq })) => link.writer.ack(next_seq),
                        Ok(Some(_)) => {}
                        Ok(None) => break true,
                        Err(_) => break false,
                    }
                }
            }
            Err(_) => false,
        };
        if !healthy {
            self.drop_out(to, now);
        }
    }

    /// Reads link `from → me`: incremental decode, sequence dedup, inbound
    /// messages into `self.ready`, an ack when enough has piled up.
    fn read_records(&mut self, from: PartyId, now: Instant) {
        let InLink { expected, conn } = &mut self.inc[from];
        let Some(conn) = conn else { return };
        match read_some(&mut conn.stream, &mut self.chunk) {
            Ok(None) => return,
            Ok(Some(bytes)) => conn.dec.extend(bytes),
            // EOF mid-record: the truncated tail is abandoned — the dialer
            // replays the whole record on its next connection.
            Err(_) => {
                let torn = conn.dec.pending_bytes();
                return self.drop_in(from, torn);
            }
        }
        // `Err(n)`: tear the stream down, abandoning `n` bytes.
        let verdict = loop {
            let before = conn.dec.pending_bytes();
            let (seq, inbound) = match conn.dec.next_record() {
                Ok(None) => break Ok(()),
                // Garbage has no in-band record boundary to skip to.
                Err(_) => break Err(before),
                Ok(Some(LinkRecord::Data {
                    seq,
                    send_tick,
                    order,
                    deliver_tick,
                    framed,
                    payload,
                })) => {
                    let bytes = Arc::new(payload);
                    let packet = Packet {
                        from,
                        send_tick,
                        order,
                        deliver_tick,
                        framed,
                        bytes,
                    };
                    (seq, Inbound::Packet(packet))
                }
                Ok(Some(LinkRecord::Floor { seq, floor })) => (seq, Inbound::Past { from, floor }),
                Ok(Some(LinkRecord::Probe { floor })) => {
                    // Unsequenced liveness: floors are max-monotonic,
                    // re-delivery is harmless.
                    self.ready.push_back(Inbound::Past { from, floor });
                    continue;
                }
                // Acks flow receiver → dialer; one on this direction means
                // the stream is scrambled.
                Ok(Some(LinkRecord::Ack { .. })) => break Err(0),
            };
            if seq > *expected {
                break Err(0); // gap: impossible on a clean stream, resync
            }
            if seq == *expected {
                *expected += 1;
                self.ready.push_back(inbound);
            } // else a replay duplicate — already delivered, but ack it
            conn.unacked += before - conn.dec.pending_bytes();
            conn.ack_due.get_or_insert(now + PROBE);
        };
        match verdict {
            Err(torn) => self.drop_in(from, torn),
            // The sender's replay buffer is filling: do not wait for the
            // timer.
            Ok(()) if conn.unacked >= REPLAY_CAP / 4 => self.send_ack(from, now),
            Ok(()) => {}
        }
    }

    /// Serves the sockets once: what is due now, then one wait until
    /// `deadline` (or the next internal timer) for whatever is ready.
    fn pump(&mut self, deadline: Option<Instant>, now: Instant) {
        self.service(now);
        let wake = match (deadline, self.next_timer()) {
            (Some(d), Some(t)) => Some(d.min(t)),
            (d, t) => d.or(t),
        };
        self.poll_io(wake.map(|w| w.saturating_duration_since(now)), now);
    }

    /// Bounded back-pressure on link `me → to`: its replay buffer is over
    /// the cap, so serve the sockets (acks trim it) for a while before
    /// buffering more — never drop, that would break at-least-once delivery.
    fn await_acks(&mut self, to: PartyId) {
        let until = Instant::now() + BACKPRESSURE;
        loop {
            let now = Instant::now();
            let link = self.out[to].as_ref().expect("no link to self");
            let over = link.writer.backlog() > REPLAY_CAP;
            let up = matches!(link.conn, OutConn::Up(_));
            if !(over && up && now < until) || self.ctx.stop.load(Ordering::SeqCst) {
                return;
            }
            self.pump(Some(until), now);
        }
    }
}

/// Writes a small unsequenced record in one piece (`true`) or, if the socket
/// takes nothing right now, not at all (`false`). A torn one would scramble
/// the stream, so a partial write is an error: start the connection over.
fn write_whole(stream: &mut TcpStream, rec: &LinkRecord) -> std::io::Result<bool> {
    let bytes = encode_record(rec);
    match stream.write(&bytes) {
        Ok(k) if k == bytes.len() => Ok(true),
        Ok(_) => Err(ErrorKind::WriteZero.into()),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
        Err(e) => Err(e),
    }
}

impl NetCtx<'_> {
    fn n(&self) -> usize {
        self.addrs.len()
    }

    fn backoff_seed(&self, from: PartyId, to: PartyId, generation: u64) -> u64 {
        let link = (from * self.n() + to) as u64;
        (self.spec.config.seed.wrapping_mul(0x0100_0000_01b3)).wrapping_add(link)
            ^ generation.wrapping_mul(0x9E37)
    }
}

impl Mailbox for TcpMailbox<'_> {
    fn send(&mut self, to: PartyId, msg: Inbound) -> bool {
        let (me, ctx) = (self.me, self.ctx);
        let link = self.out[to].as_mut().expect("no link to self");
        match msg {
            Inbound::Packet(p) => link.writer.queue(
                |seq, out| {
                    let stamp = (p.send_tick, p.order, p.deliver_tick);
                    encode_data_into(out, seq, stamp, p.framed, &p.bytes)
                },
                // Chaos rules on a record's first transmission only; a
                // replay finds its verdict spent.
                |len| {
                    let (sent, due) = (p.send_tick, p.deliver_tick);
                    chaos_action(&ctx.sockets.chaos, me, to, sent, due, ctx.spec.tick_us, len)
                },
            ),
            Inbound::Past { floor, .. } => {
                link.last_floor = link.last_floor.max(floor);
                link.writer.queue(
                    |seq, out| encode_record_into(out, &LinkRecord::Floor { seq, floor }),
                    |_| ChaosAction::Clean,
                );
            }
            // Shutdown is an in-process control signal; it never crosses
            // the wire.
            Inbound::Stop => {}
        }
        if link.writer.backlog() > REPLAY_CAP {
            self.await_acks(to);
        }
        true
    }

    fn flush(&mut self) {
        self.service(Instant::now());
    }

    fn fold_stats(&self, into: &mut Metrics) {
        into.merge(&self.stats);
    }

    fn try_recv(&mut self) -> Option<Inbound> {
        let stopped = || self.ctx.stop.load(Ordering::SeqCst);
        let msg = self.ready.pop_front();
        msg.or_else(|| stopped().then_some(Inbound::Stop))
    }

    fn recv(&mut self, deadline: Option<Instant>) -> Option<Inbound> {
        loop {
            if let Some(msg) = self.try_recv() {
                return Some(msg);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| d <= now) {
                return None;
            }
            self.pump(deadline, now);
        }
    }
}

/// The socket medium of [`TcpNet`]: supervised loopback `TcpStream`s, plus
/// the chaos plan only sockets have.
#[derive(Default)]
pub struct Sockets {
    chaos: FaultPlan,
}

/// The socket transport: drop-in third [`Transport`](super::Transport)
/// backend ([`Backend::Tcp`]). Construct like
/// [`super::threaded::ThreadedNet`] (same conformance contract against the
/// simulator oracle), optionally install a socket-level chaos plan, then
/// drive it through the trait.
pub type TcpNet<M> = RealNet<M, Sockets>;

impl<M> TcpNet<M> {
    /// Installs the *socket-level* chaos plan interpreted by the supervisor
    /// shim (sever / stall / duplicate byte runs). Independent of
    /// [`RealNet::set_fault_plan`] — the logical plan decides what is
    /// dropped, the chaos plan only how rough the wire is.
    pub fn set_chaos_plan(&mut self, plan: FaultPlan) {
        self.medium.chaos = plan;
    }

    /// The installed chaos plan.
    pub fn chaos_plan(&self) -> &FaultPlan {
        &self.medium.chaos
    }
}

impl Medium for Sockets {
    const BACKEND: Backend = Backend::Tcp;

    /// Binds the listeners, runs one thread per party over its
    /// `TcpMailbox`, and folds the supervisor counters in.
    fn run<M: WireMessage>(&self, spec: &NetSpec, horizon: Time, state: &mut RunState<M>) {
        // Listeners first: every dial target exists before any thread runs.
        let listeners: Vec<TcpListener> = (0..spec.config.n)
            .map(|_| {
                let l = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
                l.set_nonblocking(true).expect("nonblocking listener");
                l
            })
            .collect();
        let ctx = NetCtx {
            addrs: listeners
                .iter()
                .map(|l| l.local_addr().expect("listener addr"))
                .collect(),
            spec,
            sockets: self,
            stop: AtomicBool::new(false),
        };
        let mailboxes = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| TcpMailbox::new(me, &ctx, listener))
            .collect();
        // More generous than the threaded cap: reconnect cycles and stalled
        // links legitimately stretch a chaotic run's wall clock.
        let cap_slack = Duration::from_secs(5);
        run_parties(spec, horizon, cap_slack, state, mailboxes, || {
            // A party may be blocked in `ppoll` with no deadline: raise the
            // flag, then make its listener readable.
            ctx.stop.store(true, Ordering::SeqCst);
            for addr in &ctx.addrs {
                let _ = TcpStream::connect_timeout(addr, DIAL_TIMEOUT);
            }
        });
    }
}
