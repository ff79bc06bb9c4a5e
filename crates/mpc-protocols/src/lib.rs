//! Best-of-both-worlds building blocks of the paper (Sections 3–5):
//!
//! * [`acast`] — Bracha's asynchronous reliable broadcast `Π_ACast`.
//! * [`sba`] — the synchronous phase-king Byzantine agreement used as
//!   `Π_BGP` (DESIGN.md substitution S2), slot-wise over `k ≥ 1` values.
//! * [`aba`] — asynchronous Byzantine agreement with an ideal common coin
//!   (DESIGN.md substitution S1), providing the `Π_ABA` interface of
//!   Lemma 3.3.
//! * [`bc`] — the synchronous broadcast with asynchronous guarantees `Π_BC`
//!   (Fig 1), with regular and fallback output modes; one instance runs a
//!   lone broadcast or a lock-step group of `n` sharing one SBA.
//! * [`ba`] — the best-of-both-worlds Byzantine agreement `Π_BA` (Fig 2).
//! * [`star`] — the `(n,t)`-star finding algorithm `AlgStar` of \[13\].
//! * [`voteboard`] — reliable dissemination of the OK/NOK pairwise
//!   consistency votes that build the consistency graphs of `Π_WPS`/`Π_VSS`.
//! * [`wps`] — the weak polynomial sharing protocol `Π_WPS` (Fig 3) and
//!   [`vss`] — the verifiable secret sharing protocol `Π_VSS` (Fig 4): two
//!   thin shells over one crate-private dealer-verification core.
//! * [`acs`] — agreement on a common subset `Π_ACS` (Fig 5).
//! * [`byzantine`] — adversarial protocol implementations used by tests and
//!   experiments.
//!
//! All protocols are written against [`mpc_net::Protocol`] and compose by
//! instance-path routing; see the crate-level documentation of `mpc-net`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aba;
pub mod acast;
pub mod acs;
pub mod ba;
pub mod bc;
pub mod byzantine;
pub mod msg;
pub mod params;
pub mod sba;
pub(crate) mod sharing;
pub mod star;
pub(crate) mod tally;
#[cfg(test)]
pub(crate) mod testnet;
pub mod voteboard;
pub mod vss;
pub mod wps;

pub use msg::{AbaMsg, AcastMsg, BcValue, Msg, SbaMsg, Vote};
pub use params::Params;

/// Compile-time guard for the simulator's deterministic parallel engine:
/// every root protocol state machine (and the message tree they exchange)
/// must be `Send` so a time slice can hand ownership of a party to a worker
/// thread (`mpc_net::Protocol` has `Send` as a supertrait; this assertion
/// keeps the error message local to this crate if a future protocol ever
/// smuggles in a non-`Send` field).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Msg>();
    assert_send::<acast::Acast>();
    assert_send::<ba::Ba>();
    assert_send::<bc::Bc>();
    assert_send::<sba::Sba>();
    assert_send::<aba::Aba>();
    assert_send::<wps::Wps>();
    assert_send::<vss::Vss>();
    assert_send::<acs::Acs>();
    assert_send::<byzantine::SilentParty>();
};
