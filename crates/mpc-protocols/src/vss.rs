//! `Π_VSS` — the best-of-both-worlds verifiable secret sharing protocol
//! (Fig 4, Theorem 4.16).
//!
//! `Π_WPS` with one step swapped: instead of exchanging plain points for the
//! pairwise consistency test, every party re-shares its row polynomial
//! through its own `Π_WPS` instance. The WPS-shares obtained from those
//! instances are what the consistency votes compare against — and they are
//! exactly what lets parties *outside* `W` reconstruct their row polynomials
//! later (the property `Π_WPS` alone cannot give for a corrupt dealer in a
//! synchronous network).
//!
//! This file is the shell over the dealer-verification core
//! (`crate::sharing`, which owns dealing, votes, `(W, E, F)`, `Π_BA` and
//! star): the `n` `Π_WPS` instances, started at `Δ`, come before the core's
//! children ([`VSS`], DESIGN.md "Instance tree"), votes are due at
//! `Δ + T_WPS`, the evidence about `P_j` is this party's WPS-share from
//! `Π_WPS^{(j)}`, and a party outside the direct set interpolates the
//! WPS-shares of `t_s + 1` parties of the support set at zero.

use mpc_algebra::{EvalDomain, Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Time};

use crate::msg::Msg;
use crate::params::Params;
use crate::sharing::{after, DealerCore};
use crate::tree::{Card, Event, Family, Kind, Name, Node, Routed};
use crate::voteboard::{self, Side};
use crate::wps::{Wps, WPS};

/// `Π_WPS^{(j)}` for every party `j`, then the core's children, the
/// late-vote batches of `1 + n` vote boards (its own and its `Π_WPS`s') and
/// the SBA clusters of `3 + 3n` `Π_BC`s.
pub static VSS: Kind = Kind::new("Vss", &LAYOUT);
const LAYOUT: [Family; 7] = after(Family::new(Name::Wps, &WPS, Card::N), [1, 1, 0], [3, 3, 0]);

const TIMER_START_WPS: u64 = 10;

/// One instance of `Π_VSS` for `L` polynomials.
#[derive(Debug)]
pub struct Vss {
    pub(crate) core: DealerCore,
    /// `Π_WPS^{(j)}` for every party `j`.
    wps: Vec<Wps>,
    /// Whether the `Π_WPS` instances have started (they all do, at `Δ`).
    wps_started: bool,
    /// The VSS-shares (one per polynomial) once computed.
    pub shares: Option<Vec<Fp>>,
    /// Local time at which the shares were output.
    pub output_at: Option<Time>,
}

impl Vss {
    fn over(core: DealerCore) -> Self {
        let (params, l_count) = (core.params, core.l_count);
        Vss {
            core,
            wps: (0..params.n)
                .map(|j| Wps::new(j, params, l_count))
                .collect(),
            wps_started: false,
            shares: None,
            output_at: None,
        }
    }

    /// Creates a participant instance.
    pub fn new(dealer: PartyId, params: Params, l_count: usize) -> Self {
        Self::over(DealerCore::new(dealer, params, l_count, &VSS))
    }

    /// Creates the dealer-side instance with its `L` polynomials of degree
    /// ≤ `t_s`.
    pub fn new_dealer(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self {
        Self::over(DealerCore::new_dealer(dealer, params, polynomials, &VSS))
    }

    /// The dealer of this instance.
    pub fn dealer(&self) -> PartyId {
        self.core.dealer
    }

    /// Votes on every party `j` still owed a vote whose `Π_WPS^{(j)}` has
    /// delivered this party's WPS-share.
    fn refresh_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        // The core's flat record comes first, as each `Π_WPS` is a large
        // struct.
        for (j, wps) in self.wps.iter().enumerate() {
            if !self.core.owes_vote(j) {
                continue;
            }
            if let Some(shares) = &wps.shares {
                self.core.cast_vote(ctx, j, shares);
            }
        }
    }

    /// Interpolates, at zero, the WPS-shares obtained in the instances of
    /// the first `t_s + 1` parties of `support_set` that delivered one.
    /// The same parties back all `L` reconstructions, and only the constant
    /// term is needed: one cached Lagrange-at-zero vector from the shared
    /// evaluation domain turns each into an O(t_s) dot product.
    fn reconstruct(&self, support_set: &[PartyId]) -> Option<Vec<Fp>> {
        let Params { n, ts, .. } = self.core.params;
        let held = support_set
            .iter()
            .filter_map(|&j| Some((j, self.wps.get(j)?.shares.as_ref()?)));
        let (selected, shares): (Vec<PartyId>, Vec<&Vec<Fp>>) = held.take(ts + 1).unzip();
        if selected.len() < ts + 1 {
            return None;
        }
        let lambda = EvalDomain::get(n).lagrange_at_zero(&selected);
        let share = |ell| shares.iter().zip(&lambda).map(|(s, &l)| l * s[ell]).sum();
        Some((0..self.core.l_count).map(share).collect())
    }

    /// The step after an own event or a child's progress; returns whether
    /// the shares appeared.
    fn check_progress(&mut self, ctx: &mut Context<'_, Msg>) -> bool {
        self.refresh_votes(ctx);
        self.core.progress(ctx);
        self.shares.is_none() && {
            self.shares = self
                .core
                .output(ctx.me, |support| self.reconstruct(support));
            self.output_at = self.shares.as_ref().map(|_| ctx.now);
            self.shares.is_some()
        }
    }

    /// Starts the `n` `Π_WPS` instances; this party's own deals its rows
    /// now if they are here, else when they arrive.
    fn start_wps(&mut self, ctx: &mut Context<'_, Msg>) {
        self.wps_started = true;
        self.deal_own_rows(ctx);
        for (j, wps) in self.wps.iter_mut().enumerate() {
            VSS.scoped(ctx, Name::Wps, j, |ctx| wps.init(ctx));
        }
    }

    fn deal_own_rows(&mut self, ctx: &mut Context<'_, Msg>) {
        if let (true, Some(rows)) = (self.wps_started, self.core.rows()) {
            let rows = rows
                .map(|row| Polynomial::from_coeffs(row.to_vec()))
                .collect();
            let (me, wps) = (ctx.me, &mut self.wps[ctx.me]);
            VSS.scoped(ctx, Name::Wps, me, |ctx| {
                wps.provide_dealer_input(ctx, rows)
            });
        }
    }
}

impl Node for Vss {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(ctx.delta, TIMER_START_WPS);
        self.core.init(ctx, ctx.delta + self.core.params.t_wps());
    }

    /// Runs the step on its own events and on a child's progress; progress
    /// is the shares appearing.
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool {
        match voteboard::route(self, &VSS, ctx, path, ev) {
            Routed::Own(Event::Message(from, Msg::RowPolys(rows))) => {
                if !self.core.accept_rows(from, rows) {
                    return false;
                }
                self.deal_own_rows(ctx);
            }
            Routed::Own(Event::Timer(TIMER_START_WPS)) => self.start_wps(ctx),
            Routed::Own(Event::Timer(id)) => self.core.on_phase_timer(ctx, id),
            // A late vote from the channel, if it is new.
            Routed::Own(Event::LateOk(j, k)) if self.core.votes.eventual.add_ok(j, k) => {}
            Routed::Child(_, _, true) => {}
            _ => return false,
        }
        self.check_progress(ctx)
    }

    fn child(&mut self, name: Name, index: usize) -> Option<&mut dyn Node> {
        match name {
            Name::Wps => Some(self.wps.get_mut(index)?),
            _ => self.core.child(name),
        }
    }

    fn side(&mut self) -> Option<&mut Side> {
        Some(&mut self.core.votes.side)
    }
}

crate::node_protocol!(Vss);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::testkit::{parties, polys, run_and_check, Shell};
    use mpc_net::{CorruptionSet, NetConfig, Simulation};

    impl Shell for Vss {
        fn participant(dealer: PartyId, params: Params, l_count: usize) -> Self {
            Vss::new(dealer, params, l_count)
        }
        fn dealing(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self {
            Vss::new_dealer(dealer, params, polynomials)
        }
        fn shares(&self) -> Option<&Vec<Fp>> {
            self.shares.as_ref()
        }
    }

    #[test]
    fn honest_dealer_sync_correctness() {
        let params = Params::new(4, 1, 0, 10);
        let polys = polys(7, params, &[31]);
        let cfg = NetConfig::synchronous(params.n);
        // VSS must complete within T_VSS for an honest dealer in sync network
        let horizon = params.t_vss() + params.delta;
        let sim = run_and_check::<Vss>(cfg, CorruptionSet::none(), params, 0, &polys, horizon);
        for i in 0..params.n {
            let p = sim.party_as::<Vss>(i).unwrap();
            assert!(p.output_at.unwrap() <= params.t_vss());
        }
    }

    #[test]
    fn honest_dealer_async_eventual_correctness() {
        let params = Params::new(5, 1, 1, 10);
        let polys = polys(8, params, &[64]);
        let cfg = NetConfig::asynchronous(params.n).with_seed(2);
        // honest parties must eventually receive VSS shares in async network
        run_and_check::<Vss>(
            cfg,
            CorruptionSet::new(vec![3]),
            params,
            0,
            &polys,
            100_000_000,
        );
    }

    #[test]
    fn silent_dealer_produces_no_output() {
        let params = Params::new(4, 1, 0, 10);
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![0]),
            parties::<Vss>(params, 0, None),
        );
        sim.run_to_quiescence(params.t_vss() * 3);
        for i in 1..params.n {
            assert!(sim.party_as::<Vss>(i).unwrap().shares.is_none());
        }
    }
}
