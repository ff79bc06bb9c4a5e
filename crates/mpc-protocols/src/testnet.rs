//! Test-only backend selection for protocol test harnesses.
//!
//! Harnesses that only assert protocol-level properties (agreement,
//! validity, termination) construct their network through [`transport_for`]
//! instead of naming [`Simulation`] directly, so the same tests double as a
//! real-runtime exercise under `MPC_TRANSPORT=threaded`. Harnesses that
//! assert simulator-specific behaviour (exact event schedules, adversarial
//! per-message scheduling) keep using [`Simulation`] explicitly.

use mpc_net::{
    Backend, CorruptionSet, LinkDelays, NetConfig, Protocol, Simulation, TcpNet, ThreadedNet,
    Transport,
};

use crate::Msg;

/// Builds the [`Transport`] selected by `MPC_TRANSPORT` (default: the
/// deterministic simulator). The threaded backend freezes the network kind's
/// default latency matrix ([`LinkDelays::for_kind`]). A malformed
/// `MPC_TRANSPORT` is the error of [`Backend::from_env`].
pub(crate) fn transport_for(
    cfg: NetConfig,
    corrupt: CorruptionSet,
    parties: Vec<Box<dyn Protocol<Msg>>>,
) -> Result<Box<dyn Transport<Msg>>, String> {
    Ok(match Backend::from_env()? {
        Backend::Simulator => Box::new(Simulation::new(cfg, corrupt, parties)),
        Backend::Threaded => {
            let links = LinkDelays::for_kind(cfg.n, cfg.kind, cfg.delta, cfg.seed);
            Box::new(ThreadedNet::with_links(cfg, corrupt, links, parties))
        }
        Backend::Tcp => {
            let links = LinkDelays::for_kind(cfg.n, cfg.kind, cfg.delta, cfg.seed);
            Box::new(TcpNet::with_links(cfg, corrupt, links, parties))
        }
    })
}
