//! Transport abstraction: the party runtime behind [`crate::Simulation`],
//! factored into a trait so the deterministic discrete-event simulator is
//! *one* backend and the real thread-per-party runtime
//! ([`threaded::RealNet`], over channels as [`threaded::ThreadedNet`] or
//! over sockets as [`tcp::TcpNet`]) is a second, conformant one.
//!
//! Both run the same per-party core — inbox, batch loop, settle step — over
//! the same canonical wire bytes ([`crate::wire`]) with the same per-party
//! seeded randomness ([`crate::NetConfig::party_rng_seed`]); the simulator
//! advances a virtual clock slice by slice, while the real runtime runs each
//! party as an OS thread paced against the *wall clock* — its timers are
//! real receive deadlines, so the synchronous→asynchronous fallback path is
//! driven by genuine timeouts rather than simulated `Δ` ticks.
//!
//! The conformance contract (see DESIGN.md, "Transport abstraction &
//! conformance oracle", and `tests/transport_conformance.rs`): for any seed
//! and any [`crate::scheduler::LinkDelays`] latency matrix, the two backends
//! produce byte-identical per-party outputs and identical per-party
//! honest-bit accounting. The simulator — bit-exact, replayable, adversarially
//! schedulable — thereby serves as a golden oracle for the real runtime.

pub mod supervisor;
pub mod tcp;
pub mod threaded;

use std::sync::Arc;

use crate::adversary::{AdversaryStructure, ByzantineStrategy, CorruptionSet};
use crate::context::Protocol;
use crate::metrics::Metrics;
use crate::simulation::{Simulation, TranscriptEntry};
use crate::wire::WireMessage;

/// Identifies one of the `n` parties (their indices are `0..n`).
pub type PartyId = usize;

/// Logical network time in ticks. On the simulator this is the virtual
/// event-queue clock; on the threaded backend one tick is a fixed wall-clock
/// duration (`RealNet::with_tick_micros`) and the value reported is the
/// highest tick a party actually processed.
pub type Time = u64;

/// Which party runtime executes a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic discrete-event simulator ([`Simulation`]):
    /// virtual time, bit-exact replay, adversarial schedulers.
    Simulator,
    /// The real threaded runtime ([`threaded::ThreadedNet`]): one OS thread
    /// per party, in-memory duplex channels carrying TCP-ready frame bytes,
    /// wall-clock timeouts.
    Threaded,
    /// The socket runtime ([`tcp::TcpNet`]): the threaded party runtime with
    /// every inter-party channel replaced by a supervised loopback
    /// `TcpStream`, all of a party's sockets driven from its own thread —
    /// retry/backoff dialing, reconnect-with-replay, and an incremental
    /// decoder that resyncs after torn frames.
    Tcp,
}

/// A typed, non-fatal failure a transport diagnosed during a run. Kept out
/// of the run methods' signatures (which stay `()`/`bool` for
/// object-safety and API stability) and surfaced post-run through
/// [`Transport::last_error`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The threaded backend's conservative delivery gate saw zero progress
    /// on a lagging link for the configured wedge timeout
    /// (`ThreadedNet::with_wedge_millis`) and processed anyway. Counted in
    /// [`Metrics::wedges`].
    Wedged {
        /// The peer whose link clock stopped advancing.
        party: PartyId,
        /// The last tick that peer's link clock had cleared when the gate
        /// gave up.
        last_progress_tick: Time,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Wedged {
                party,
                last_progress_tick,
            } => write!(
                f,
                "party {party} wedged (no progress past tick {last_progress_tick})"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// The read-only view of a run a [`Transport`] hands to completion
/// predicates and post-run inspection: party count, clock, and the party
/// state machines themselves.
pub trait PartyView<M> {
    /// Number of parties.
    fn n(&self) -> usize;
    /// Current logical time (see [`Time`] for the per-backend meaning).
    fn now(&self) -> Time;
    /// Immutable access to party `i`'s root protocol instance.
    fn party(&self, i: PartyId) -> &dyn Protocol<M>;
}

/// Downcasts party `i`'s root protocol to a concrete type — the typed lens
/// drivers use to read outputs out of a [`PartyView`].
pub fn party_as<T: 'static, M: 'static>(view: &dyn PartyView<M>, i: PartyId) -> Option<&T> {
    view.party(i).as_any().downcast_ref::<T>()
}

/// A party runtime: owns `n` protocol state machines, moves their canonical
/// wire bytes between them under some clock, and accounts the traffic.
///
/// Object-safe by design — drivers like `mpc-core`'s `MpcBuilder` hold a
/// `Box<dyn Transport<M>>` and stay agnostic of which backend runs the
/// protocol.
pub trait Transport<M>: PartyView<M> {
    /// Which backend this is.
    fn backend(&self) -> Backend;

    /// Installs the wire-level Byzantine behaviour applied to every message
    /// sent by a corrupt party. Call before running.
    fn set_strategy(&mut self, strategy: Box<dyn ByzantineStrategy>);

    /// Starts recording every processed event; call before running.
    fn record_transcript(&mut self);

    /// The recorded transcript. The *order* of entries is backend-specific
    /// (the threaded backend merges per-party logs), but each party's
    /// subsequence is part of the conformance contract.
    fn transcript(&self) -> &[TranscriptEntry];

    /// Runs until `pred` holds or no work at time ≤ `horizon` remains;
    /// returns whether the predicate held.
    ///
    /// The simulator evaluates the predicate after every processed time
    /// slice and can stop early. The threaded backend has no global barrier
    /// at which all party threads are simultaneously observable, so it runs
    /// to quiescence and evaluates the predicate once at the end.
    fn run_until_done(
        &mut self,
        horizon: Time,
        pred: &mut dyn FnMut(&dyn PartyView<M>) -> bool,
    ) -> bool;

    /// Runs until no event at time ≤ `horizon` remains. Used by the
    /// conformance harness to compare *complete* executions.
    fn run_to_quiescence(&mut self, horizon: Time);

    /// Communication metrics accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// The corruption set.
    fn corruption(&self) -> &CorruptionSet;

    /// Takes the [`AdversaryStructure`] the run's corruption set was
    /// validated against, and ignores it: the wire behaviour is fixed by the
    /// corruption set and strategy, and no backend reads the structure.
    fn set_adversary_structure(&mut self, structure: Arc<dyn AdversaryStructure>) {
        let _ = structure;
    }

    /// The first typed failure the backend diagnosed during the run, if any
    /// (e.g. [`TransportError::Wedged`] on the threaded backend). `None` on
    /// backends that cannot wedge (the simulator) and on clean runs.
    fn last_error(&self) -> Option<&TransportError> {
        None
    }
}

impl<M: WireMessage> PartyView<M> for Simulation<M> {
    fn n(&self) -> usize {
        self.config().n
    }
    fn now(&self) -> Time {
        Simulation::now(self)
    }
    fn party(&self, i: PartyId) -> &dyn Protocol<M> {
        Simulation::party(self, i)
    }
}

impl<M: WireMessage> Transport<M> for Simulation<M> {
    fn backend(&self) -> Backend {
        Backend::Simulator
    }
    fn set_strategy(&mut self, strategy: Box<dyn ByzantineStrategy>) {
        Simulation::set_strategy(self, strategy)
    }
    fn record_transcript(&mut self) {
        Simulation::record_transcript(self)
    }
    fn transcript(&self) -> &[TranscriptEntry] {
        Simulation::transcript(self)
    }
    fn run_until_done(
        &mut self,
        horizon: Time,
        pred: &mut dyn FnMut(&dyn PartyView<M>) -> bool,
    ) -> bool {
        self.run_until(horizon, |sim| pred(sim))
    }
    fn run_to_quiescence(&mut self, horizon: Time) {
        Simulation::run_to_quiescence(self, horizon)
    }
    fn metrics(&self) -> &Metrics {
        Simulation::metrics(self)
    }
    fn corruption(&self) -> &CorruptionSet {
        Simulation::corruption(self)
    }
}
