//! The paper's main contribution: best-of-both-worlds perfectly-secure MPC.
//!
//! * [`circuit`] — arithmetic circuits over `GF(2^61-1)` (the function `f` to
//!   be evaluated, Section 2).
//! * [`openings`] — robust public reconstruction of `t_s`-shared values via
//!   online error correction (used by Beaver's protocol and the output phase).
//! * [`triples`] — Beaver's multiplication (`Π_Beaver`, Fig 6) and the local
//!   share arithmetic behind triple transformation/extraction (Figs 7, 9).
//! * [`cireval`] — `Π_CirEval` (Fig 11): input sharing via `Π_ACS`, the
//!   triple-generation preprocessing phase (`Π_TripSh`/`Π_PreProcessing`,
//!   Figs 8, 10), shared circuit evaluation and the termination phase.
//! * [`packing`] — the static plan behind the packed (Franklin–Yung) SIMD
//!   evaluation path: width-`ℓ` gate blocks, slot-position sets and the
//!   canonical deal layout.
//! * [`builder`] — [`MpcBuilder`], the one-call API used by the examples and
//!   the tests.
//!
//! The paper's guarantee matrix is checked cell by cell through that API by
//! the workspace's `tests/resilience.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod circuit;
pub mod cireval;
pub mod openings;
pub mod packing;
pub mod thresholds;
pub mod triples;

pub use builder::{MpcBuilder, MpcRunResult};
pub use circuit::{Circuit, Gate, Wire};
pub use cireval::CirEval;
pub use packing::PackedPlan;
