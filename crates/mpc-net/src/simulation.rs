//! The discrete-event simulator: a virtual-clock driver over `n` parties.
//!
//! Each party is the same per-party core every medium runs (`crate::party`):
//! an inbox of stamped deliveries and armed timers, the one batch loop, and
//! the send path that settles an activation's outcome. The simulator only
//! supplies the clock: the next time slice is the earliest due tick across
//! all inboxes; every party with work due runs its batch (inline, or on
//! worker threads when the slice is wide enough), and the activations are
//! settled in ascending party order, each send drawing its delay from the
//! [`Scheduler`] and landing straight in the receiver's inbox. Transcripts,
//! [`Metrics`] and bit accounting are bit-identical for every worker-thread
//! count. See the "Deterministic parallel execution" section of DESIGN.md
//! for the correctness argument.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{ByzantineStrategy, CorruptionSet, Passive};
use crate::context::{Path, Protocol};
use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use crate::party::{
    self, run_corrupt_batch, run_party_batch, Activation, EventKind, Inbox, Outgoing, SliceEnv,
    Stamp, Wire, Work, WorkerParty,
};
use crate::scheduler::{FixedDelay, Scheduler, UniformDelay};
use crate::wire::WireMessage;

pub use crate::transport::{PartyId, Time};

/// Which of the paper's two network models the execution runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Every message delivered within the publicly known bound `Δ`.
    Synchronous,
    /// Arbitrary finite, adversarially scheduled delays.
    Asynchronous,
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
    /// Worker threads for same-time-slice pre-execution (default 1 =
    /// sequential). The thread count never changes the execution — only its
    /// wall-clock time — so this is purely a performance knob.
    pub threads: usize,
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
            threads: 1,
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
    /// (values < 1 are clamped to 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
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

/// Minimum same-tick events before a slice spawns workers; below this the
/// per-slice thread overhead outweighs any win and the slice runs inline
/// (the results are identical either way). At least two distinct honest
/// parties must also have work.
const MIN_PARALLEL_EVENTS: usize = 4;

/// The simulator's [`Wire`]: delays drawn from the [`Scheduler`] at merge
/// time, deliveries pushed straight into the receiver's inbox.
struct SimWire<'a, M> {
    me: PartyId,
    scheduler: &'a mut dyn Scheduler,
    rng: &'a mut StdRng,
    faults: &'a FaultPlan,
    inboxes: &'a mut [Inbox<M>],
}

impl<M: WireMessage> Wire for SimWire<'_, M> {
    type Msg = M;

    /// The scheduler's delay, clamped to ≥ 1 tick: a message sent at `T`
    /// arrives in `(T, T+Δ]`, never at `T` itself — the property that keeps
    /// every same-tick cascade on the party that spawned it, and with it
    /// per-party batches commuting.
    fn delay(&mut self, from: PartyId, to: PartyId, now: Time) -> Time {
        self.scheduler.delay(from, to, now, self.rng).max(1)
    }
    fn faults(&self) -> &FaultPlan {
        self.faults
    }
    fn put(&mut self, to: PartyId, stamp: Stamp, out: Outgoing<M>) {
        self.inboxes[to].hold(stamp, out.into_event(stamp.from));
    }
    fn inbox(&mut self) -> &mut Inbox<M> {
        &mut self.inboxes[self.me]
    }
}

/// A deterministic discrete-event simulation of `n` parties running one root
/// [`Protocol`] instance each over the configured network.
///
/// Messages travel as their canonical byte encoding ([`crate::wire`]): an
/// honest party's sends and broadcasts of one time-slice activation leave as
/// per-destination [`crate::Frame`]s (a broadcast frame is encoded *once* and the
/// bytes shared across all recipients), a corrupt party's messages one by
/// one through the configured [`ByzantineStrategy`]. Bit accounting is per
/// contained message, derived from the encoded length, and everything is
/// decoded at the delivery boundary — bytes that fail to decode are dropped
/// as Byzantine input and counted in [`Metrics::decode_failures`].
///
/// At equal times, message deliveries precede timer expiries so that a
/// party whose timer is set to the network bound `Δ` observes every message
/// that was guaranteed to arrive by then — exactly the paper's synchronous
/// round abstraction. A cross-party message never arrives in the tick it
/// was sent (see [`Scheduler::delay`]).
///
/// With [`NetConfig::with_threads`] > 1, the honest parties' batches of a
/// wide slice are executed concurrently and merged serially in ascending
/// party order; the execution — transcript, metrics, bit accounting,
/// outputs — is bit-identical to the sequential one for every seed, network
/// kind and Byzantine strategy.
pub struct Simulation<M> {
    config: NetConfig,
    /// The slots worker threads borrow, one per party.
    parties: Vec<Box<dyn Protocol<M>>>,
    rngs: Vec<StdRng>,
    /// Kept apart from the worker slots so that a merge can push into any
    /// receiver's inbox.
    inboxes: Vec<Inbox<M>>,
    corruption: CorruptionSet,
    strategy: Box<dyn ByzantineStrategy>,
    scheduler: Box<dyn Scheduler>,
    faults: FaultPlan,
    sched_rng: StdRng,
    adv_rng: StdRng,
    now: Time,
    metrics: Metrics,
    coin_seed: u64,
    initialized: bool,
    transcript: Option<Vec<TranscriptEntry>>,
}

impl<M: WireMessage> Simulation<M> {
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
        let mut metrics = Metrics::new();
        metrics.worker_threads = config.threads.max(1) as u64;
        Simulation {
            coin_seed: config.coin_seed(),
            parties,
            rngs,
            inboxes: (0..config.n).map(|_| Inbox::default()).collect(),
            corruption,
            strategy: Box::new(Passive),
            scheduler,
            faults: FaultPlan::none(),
            sched_rng: StdRng::seed_from_u64(config.seed ^ 0xDEAD_BEEF),
            adv_rng: StdRng::seed_from_u64(config.adversary_seed()),
            now: 0,
            metrics,
            initialized: false,
            transcript: None,
            config,
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
        self.config.threads.max(1)
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
        let env = self.slice_env(0);
        for party in 0..self.config.n {
            let act = self.run_inline(party, Work::Init, env);
            self.settle(act, env);
        }
    }

    /// The constants every activation at tick `t` is built from.
    fn slice_env(&self, t: Time) -> SliceEnv {
        SliceEnv {
            t,
            n: self.config.n,
            delta: self.config.delta,
            coin_seed: self.coin_seed,
            record: self.transcript.is_some(),
        }
    }

    /// Runs until `pred` returns `true`, every inbox drains, or the next
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
        while let Some(t) = self.inboxes.iter().filter_map(Inbox::next_due).min() {
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

    /// Runs until every inbox is empty or `horizon` is exceeded.
    pub fn run_to_quiescence(&mut self, horizon: Time) {
        let _ = self.run_until(horizon, |_| false);
    }

    /// The slice engine: take every party's work due at tick `t` (the
    /// earliest due tick of any inbox), run every honest party's batch
    /// through [`run_party_batch`] (inline, or on worker threads when the
    /// slice is wide enough), and settle the activations in ascending party
    /// order — each send drawing its delay from the scheduler as it is
    /// settled. Corrupt parties run inline at their place in that order
    /// through [`run_corrupt_batch`], so the shared adversary RNG is drawn
    /// party by party.
    fn process_slice(&mut self, t: Time) {
        self.now = t;
        let depth = self.inboxes.iter().map(Inbox::pending).sum::<usize>() as u64;
        let before = self.metrics.events_processed;
        let mut due: Vec<Vec<EventKind<M>>> =
            self.inboxes.iter_mut().map(|i| i.take_due(t)).collect();
        let env = self.slice_env(t);
        let mut outcomes: Vec<Option<Activation<M>>> = (0..env.n).map(|_| None).collect();
        let total: usize = due.iter().map(Vec::len).sum();
        let corruption = &self.corruption;
        let honest_with_work = (0..env.n)
            .filter(|&p| !due[p].is_empty() && corruption.is_honest(p))
            .count();
        let threads = self.threads();
        if threads > 1 && total >= MIN_PARALLEL_EVENTS && honest_with_work >= 2 {
            let workers = threads.min(honest_with_work);
            let mut groups: Vec<Vec<WorkerParty<'_, M>>> =
                (0..workers).map(|_| Vec::new()).collect();
            let slots = (self.parties.iter_mut().zip(&mut self.rngs).zip(&mut due))
                .enumerate()
                .filter(|(p, (_, events))| !events.is_empty() && corruption.is_honest(*p));
            for (slot, (party, ((protocol, rng), events))) in slots.enumerate() {
                groups[slot % workers].push(WorkerParty {
                    party,
                    protocol,
                    rng,
                    work: Work::Events(std::mem::take(events)),
                });
            }
            let results: Vec<Vec<Activation<M>>> = std::thread::scope(|scope| {
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
            for act in results.into_iter().flatten() {
                let party = act.core.party;
                outcomes[party] = Some(act);
            }
        }
        for (party, events) in due.into_iter().enumerate() {
            let act = match outcomes[party].take() {
                Some(act) => act,
                None if events.is_empty() => continue,
                None => self.run_inline(party, Work::Events(events), env),
            };
            self.settle(act, env);
        }
        self.metrics
            .record_slice(self.metrics.events_processed - before, depth);
    }

    /// Runs one party's activation inline through the sink its corruption
    /// status selects.
    fn run_inline(&mut self, party: PartyId, work: Work<M>, env: SliceEnv) -> Activation<M> {
        let wp = WorkerParty {
            party,
            protocol: &mut self.parties[party],
            rng: &mut self.rngs[party],
            work,
        };
        if self.corruption.is_honest(party) {
            run_party_batch(wp, env)
        } else {
            run_corrupt_batch(wp, env, self.strategy.as_mut(), &mut self.adv_rng)
        }
    }

    /// Settles one activation on the merge path (see [`party::settle`]).
    fn settle(&mut self, act: Activation<M>, env: SliceEnv) {
        let mut wire = SimWire {
            me: act.core.party,
            scheduler: self.scheduler.as_mut(),
            rng: &mut self.sched_rng,
            faults: &self.faults,
            inboxes: &mut self.inboxes,
        };
        party::settle(
            env,
            act,
            &mut wire,
            &mut self.metrics,
            self.transcript.as_mut(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::party::{SharedFrame, Traffic};
    use std::any::Any;
    use std::sync::Arc;

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

    crate::wire_enum! {
        #[derive(Clone, Debug)]
        enum Msg {
            Ping = 0,
            Pong = 1,
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

    /// Every party's `init` runs before any tick-0 batch, so at a receiver
    /// `init` traffic precedes tick-0 batch traffic arriving in the same
    /// tick, whoever sent it.
    #[test]
    fn init_traffic_precedes_tick0_batch_traffic() {
        #[derive(Debug, Default)]
        struct Relay {
            log: Vec<String>,
        }
        impl Protocol<Msg> for Relay {
            fn init(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.broadcast(Msg::Ping);
            }
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, Msg>,
                from: PartyId,
                _p: &[u32],
                m: Msg,
            ) {
                if from != ctx.me {
                    self.log.push(format!("{} {m:?}{from}", ctx.now));
                } else if let Msg::Ping = m {
                    ctx.broadcast(Msg::Pong);
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _p: &[u32], _id: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let parties = (0..3)
            .map(|_| Box::new(Relay::default()) as Box<dyn Protocol<Msg>>)
            .collect();
        let mut sim = Simulation::new(NetConfig::synchronous(3), CorruptionSet::none(), parties);
        sim.run_to_quiescence(100);
        let log = &sim.party_as::<Relay>(2).unwrap().log;
        assert_eq!(log[..4], ["10 Ping0", "10 Ping1", "10 Pong0", "10 Pong1"]);
    }

    /// Events reach each party in strictly non-decreasing time, timers of
    /// one tick in the order they were set, and nothing far out is lost,
    /// while the parties' inboxes interleave on the shared virtual clock.
    #[test]
    fn event_queue_orders_events_canonically() {
        const SCATTER: [(Time, u64); 9] = [
            (5, 1),
            (5, 2),
            (123, 3),
            (42, 4),
            (42, 5),
            (7, 6),
            (400, 7),
            (42, 8),
            (0, 9),
        ];
        #[derive(Debug, Default)]
        struct Scatter {
            log: Vec<(Time, u64)>,
        }
        impl Protocol<Msg> for Scatter {
            fn init(&mut self, ctx: &mut Context<'_, Msg>) {
                for (delay, id) in SCATTER {
                    ctx.set_timer(delay + ctx.me as Time, id);
                }
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: PartyId, _p: &[u32], _m: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _p: &[u32], id: u64) {
                self.log.push((ctx.now, id));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let n = 3;
        let parties = (0..n)
            .map(|_| Box::new(Scatter::default()) as Box<dyn Protocol<Msg>>)
            .collect();
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
        sim.run_to_quiescence(10_000);
        for me in 0..n {
            // sort by fire time; the stable sort keeps set order within a tick
            let mut expect: Vec<(Time, u64)> = SCATTER
                .iter()
                .map(|&(delay, id)| (delay + me as Time, id))
                .collect();
            expect.sort_by_key(|&(at, _)| at);
            assert_eq!(
                sim.party_as::<Scatter>(me).unwrap().log,
                expect,
                "party {me}"
            );
        }
        assert_eq!(sim.now(), 400 + (n - 1) as Time);
    }

    /// Work an activation spawns for its own tick (a self-send, a zero-delay
    /// timer) runs in that same tick, and the clock still advances to the
    /// next tick afterwards.
    #[test]
    fn event_queue_supports_same_tick_cascades() {
        #[derive(Debug, Default)]
        struct Cascade {
            log: Vec<(Time, &'static str)>,
        }
        impl Protocol<Msg> for Cascade {
            fn init(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(3, 1);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: PartyId, _p: &[u32], _m: Msg) {
                self.log.push((ctx.now, "msg"));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _p: &[u32], id: u64) {
                match id {
                    1 => {
                        self.log.push((ctx.now, "t1"));
                        ctx.send(ctx.me, Msg::Ping);
                        ctx.set_timer(0, 2);
                    }
                    2 => {
                        self.log.push((ctx.now, "t2"));
                        ctx.set_timer(1, 3);
                    }
                    _ => self.log.push((ctx.now, "t3")),
                }
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
            vec![Box::new(Cascade::default()) as Box<dyn Protocol<Msg>>],
        );
        sim.run_to_quiescence(100);
        assert_eq!(
            sim.party_as::<Cascade>(0).unwrap().log,
            [(3, "t1"), (3, "msg"), (3, "t2"), (4, "t3")]
        );
        assert_eq!(sim.now(), 4);
    }

    #[test]
    fn threads_knob_resolution() {
        // one by default; clamped to ≥ 1
        assert_eq!(NetConfig::synchronous(4).threads, 1);
        assert_eq!(NetConfig::synchronous(4).with_threads(0).threads, 1);
        assert_eq!(NetConfig::synchronous(4).with_threads(6).threads, 6);
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
    /// the one delivery boundary identically whichever of the two sinks the
    /// batch drains into: one `DroppedDeliver` entry, one decode failure, no
    /// handler call, nothing sent.
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
            kind: &EventKind<Msg>,
        ) -> WorkerParty<'a, Msg> {
            WorkerParty {
                party: 1,
                protocol,
                rng,
                work: Work::Events(vec![kind.clone()]),
            }
        }
        let (from, payload) = (0, Arc::new(vec![0xFFu8; 7]));
        let hostile = [
            EventKind::DeliverFrame {
                from,
                frame: Arc::new(SharedFrame::new(Arc::clone(&payload))),
            },
            EventKind::Deliver {
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
            let Activation { core, traffic } =
                run_party_batch(wp(&mut protocol, &mut rng, &kind), env);
            let Traffic::Framed(sent) = traffic else {
                panic!("an honest batch frames its traffic")
            };
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
            let Activation { core, traffic } = run_corrupt_batch(
                wp(&mut protocol, &mut rng, &kind),
                env,
                &mut Passive,
                &mut adv_rng,
            );
            let Traffic::Single(wire) = traffic else {
                panic!("a corrupt batch sends single messages")
            };
            let quiet = wire.sends.is_empty()
                && wire.wire_messages + wire.drops + wire.tampered == 0
                && core.timers.is_empty();
            let label = format!("corrupt sink, event {i}");
            assert_dropped(
                &label,
                &core.transcript,
                core.decode_failures,
                &*protocol,
                quiet,
            );
        }
    }
}
