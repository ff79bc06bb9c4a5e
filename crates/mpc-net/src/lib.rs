//! Deterministic event-driven simulation of the paper's communication model.
//!
//! The paper (Section 2) assumes a complete network of pairwise private and
//! authentic channels between `n` parties, which is either
//!
//! * **synchronous** — every sent message is delivered within a publicly known
//!   bound `Δ`, and parties share a global clock; or
//! * **asynchronous** — messages are delayed arbitrarily (but finitely) and
//!   delivered in an order chosen by an adversarial scheduler.
//!
//! Crucially the parties do **not** know which of the two they are running in.
//! This crate provides:
//!
//! * [`Simulation`] — a discrete-event simulator over both network kinds with
//!   a pluggable [`scheduler::Scheduler`] (message-delay/ordering adversary);
//! * [`Protocol`] / [`Context`] — the state-machine interface protocol
//!   implementations are written against, with hierarchical instance-path
//!   routing so that sub-protocols compose exactly as in the paper;
//! * [`wire`] — the canonical byte codec every simulated message travels
//!   through, the source of the *exact* bit accounting;
//! * [`adversary`] — the static-corruption model and the pluggable
//!   wire-level [`adversary::ByzantineStrategy`] behaviours (crash,
//!   equivocation, byte garbling);
//! * [`metrics::Metrics`] — honest-party communication accounting used by the
//!   experiment suite;
//! * an ideal common-coin oracle used by the asynchronous Byzantine agreement
//!   substitute (see DESIGN.md, substitution S1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod context;
pub mod faults;
pub mod metrics;
pub mod path;
pub mod scheduler;
pub mod simulation;
pub mod transport;
pub mod wire;

pub use adversary::{
    AdversaryStructure, ByzantineStrategy, ChannelDeterministic, CorruptionSet, Crash,
    EquivocateBroadcast, GarbleBytes, GeneralAdversary, Passive, ThresholdAdversary, WireAction,
    WireSend,
};
pub use context::{Context, Effects, Path, PathSlice, Protocol};
pub use faults::{FaultOutcome, FaultPlan, FaultRule};
pub use metrics::Metrics;
pub use path::InlinePath;
pub use scheduler::{
    AsyncScheduler, FixedDelay, LinkDelays, Scheduler, SkewedAsyncScheduler, UniformDelay,
};
pub use simulation::{NetConfig, NetworkKind, Simulation, TranscriptEntry, TranscriptEvent};
pub use transport::{
    party_as, tcp::TcpNet, threaded::ThreadedNet, Backend, PartyId, PartyView, Time, Transport,
    TransportError,
};
pub use wire::{Frame, FrameBuilder, FrameItem, WireDecode, WireEncode, WireError, WireReader};
