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
use crate::wire::{WireDecode, WireEncode};

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

impl Backend {
    /// Parses a backend name: `"sim"`/`"simulator"`, `"threaded"`, or
    /// `"tcp"` (ASCII case-insensitive). `None` on anything else.
    pub fn parse(name: &str) -> Option<Backend> {
        let name = name.trim();
        if name.eq_ignore_ascii_case("sim") || name.eq_ignore_ascii_case("simulator") {
            Some(Backend::Simulator)
        } else if name.eq_ignore_ascii_case("threaded") {
            Some(Backend::Threaded)
        } else if name.eq_ignore_ascii_case("tcp") {
            Some(Backend::Tcp)
        } else {
            None
        }
    }

    /// Resolves the backend from the `MPC_TRANSPORT` environment variable
    /// via [`Backend::parse`]. Unset or empty selects
    /// [`Backend::Simulator`]; a set-but-unparsable value panics with the
    /// offending text rather than silently falling back.
    pub fn from_env() -> Backend {
        match std::env::var("MPC_TRANSPORT") {
            Ok(v) if v.trim().is_empty() => Backend::Simulator,
            Ok(v) => Backend::parse(&v).unwrap_or_else(|| {
                panic!("MPC_TRANSPORT={v:?}: unknown backend (expected sim|threaded|tcp)")
            }),
            Err(_) => Backend::Simulator,
        }
    }
}

/// Parses a value of the `MPC_THREADS` environment variable, the
/// simulator's default worker-thread count: blank reads as 1, and `0` clamps
/// to 1 as `NetConfig::with_threads(0)` does.
///
/// # Panics
///
/// Panics with the offending text on anything that is not a thread count,
/// like [`Backend::from_env`] — a CI lane whose knob is misspelled must not
/// quietly stop exercising the worker pool.
pub(crate) fn parse_threads(value: &str) -> usize {
    let value = value.trim();
    if value.is_empty() {
        return 1;
    }
    value
        .parse::<usize>()
        .unwrap_or_else(|e| panic!("MPC_THREADS={value:?} is not a thread count: {e}"))
        .max(1)
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

    /// Attaches the [`AdversaryStructure`] the run's corruption set was
    /// validated against, so post-run analysis (the sweep harness) can ask
    /// which guarantee regime a placement falls under. Purely descriptive —
    /// the wire behaviour is fixed by the corruption set and strategy.
    fn set_adversary_structure(&mut self, structure: Arc<dyn AdversaryStructure>) {
        let _ = structure;
    }

    /// The attached adversary structure, if any.
    fn adversary_structure(&self) -> Option<&Arc<dyn AdversaryStructure>> {
        None
    }

    /// The first typed failure the backend diagnosed during the run, if any
    /// (e.g. [`TransportError::Wedged`] on the threaded backend). `None` on
    /// backends that cannot wedge (the simulator) and on clean runs.
    fn last_error(&self) -> Option<&TransportError> {
        None
    }
}

impl<M: WireEncode + WireDecode + 'static> PartyView<M> for Simulation<M> {
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

impl<M: WireEncode + WireDecode + 'static> Transport<M> for Simulation<M> {
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
    fn set_adversary_structure(&mut self, structure: Arc<dyn AdversaryStructure>) {
        Simulation::set_adversary_structure(self, structure)
    }
    fn adversary_structure(&self) -> Option<&Arc<dyn AdversaryStructure>> {
        Simulation::adversary_structure(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_knob_parses_clamps_and_refuses_garbage() {
        assert_eq!(parse_threads(""), 1);
        assert_eq!(parse_threads(" 4 "), 4);
        assert_eq!(parse_threads("0"), 1);
        for bad in ["four", "-2", "4.5"] {
            let payload = std::panic::catch_unwind(|| parse_threads(bad)).expect_err(bad);
            let msg = payload.downcast_ref::<String>().expect("formatted payload");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
    }

    #[test]
    fn backend_env_resolution_defaults_to_simulator() {
        // Can't mutate the process environment safely in a threaded test
        // runner; assert the pure parsing contract instead.
        match std::env::var("MPC_TRANSPORT") {
            Ok(v) if !v.trim().is_empty() => {
                assert_eq!(Backend::from_env(), Backend::parse(&v).unwrap())
            }
            _ => assert_eq!(Backend::from_env(), Backend::Simulator),
        }
    }

    #[test]
    fn backend_parse_accepts_all_names_and_rejects_typos() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Simulator));
        assert_eq!(Backend::parse("Simulator"), Some(Backend::Simulator));
        assert_eq!(Backend::parse("THREADED"), Some(Backend::Threaded));
        assert_eq!(Backend::parse(" tcp "), Some(Backend::Tcp));
        assert_eq!(Backend::parse("tpc"), None);
        assert_eq!(Backend::parse(""), None);
    }
}
