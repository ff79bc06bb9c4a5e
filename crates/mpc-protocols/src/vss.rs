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
//! star): the `n` `Π_WPS` instances are child segments `0..n` started at `Δ`
//! and the core's children follow from base `n`, votes are due at
//! `Δ + T_WPS`, the evidence about `P_j` is this party's WPS-share from
//! `Π_WPS^{(j)}`, and a party outside the direct set interpolates the
//! WPS-shares of `t_s + 1` parties of the support set at zero.

use std::any::Any;

use mpc_algebra::{EvalDomain, Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::msg::Msg;
use crate::params::Params;
use crate::sharing::DealerCore;
use crate::wps::Wps;

const TIMER_START_WPS: u64 = 10;

/// One instance of `Π_VSS` for `L` polynomials.
#[derive(Debug)]
pub struct Vss {
    core: DealerCore,
    /// `Π_WPS^{(j)}` at child segment `j`.
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
        Self::over(DealerCore::new(dealer, params, l_count, params.n as u32))
    }

    /// Creates the dealer-side instance with its `L` polynomials of degree
    /// ≤ `t_s`.
    pub fn new_dealer(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self {
        let base = params.n as u32;
        Self::over(DealerCore::new_dealer(dealer, params, polynomials, base))
    }

    /// The dealer of this instance.
    pub fn dealer(&self) -> PartyId {
        self.core.dealer
    }

    /// Votes on every party `j` still owed a vote whose `Π_WPS^{(j)}` has
    /// delivered this party's WPS-share.
    fn refresh_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        // Hot path: runs after every event of the instance. The core's flat
        // record comes first, as each `Π_WPS` is a large struct.
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

    fn check_progress(&mut self, ctx: &mut Context<'_, Msg>) {
        self.refresh_votes(ctx);
        self.core.progress(ctx);
        if self.shares.is_none() {
            self.shares = self
                .core
                .output(ctx.me, |support| self.reconstruct(support));
            self.output_at = self.shares.as_ref().map(|_| ctx.now);
        }
    }

    /// Starts the `n` `Π_WPS` instances; this party's own deals its rows
    /// now if they are here, else when they arrive.
    fn start_wps(&mut self, ctx: &mut Context<'_, Msg>) {
        self.wps_started = true;
        self.deal_own_rows(ctx);
        for (j, wps) in self.wps.iter_mut().enumerate() {
            ctx.scoped(j as u32, |ctx| wps.init(ctx));
        }
    }

    fn deal_own_rows(&mut self, ctx: &mut Context<'_, Msg>) {
        if let (true, Some(rows)) = (self.wps_started, self.core.rows()) {
            let (seg, wps) = (ctx.me as u32, &mut self.wps[ctx.me]);
            ctx.scoped(seg, |ctx| wps.provide_dealer_input(ctx, rows.to_vec()));
        }
    }
}

impl Protocol<Msg> for Vss {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(ctx.delta, TIMER_START_WPS);
        self.core.init(ctx, ctx.delta + self.core.params.t_wps());
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        match path.first() {
            None => {
                let Msg::RowPolys(rows) = msg else { return };
                if !self.core.accept_rows(from, rows) {
                    return;
                }
                self.deal_own_rows(ctx);
            }
            Some(&seg) if (seg as usize) < self.core.params.n => {
                let wps = &mut self.wps[seg as usize];
                let had_shares = wps.shares.is_some();
                ctx.scoped(seg, |ctx| wps.on_message(ctx, from, &path[1..], msg));
                if wps.shares.is_some() == had_shares {
                    return; // nothing `check_progress` reads has changed
                }
            }
            Some(_) => {
                if !self.core.on_message(ctx, from, path, msg) {
                    return;
                }
            }
        }
        self.check_progress(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        match path.first() {
            None if id == TIMER_START_WPS => return self.start_wps(ctx),
            Some(&seg) if (seg as usize) < self.core.params.n => {
                let wps = &mut self.wps[seg as usize];
                ctx.scoped(seg, |ctx| wps.on_timer(ctx, &path[1..], id));
            }
            _ => self.core.on_timer(ctx, path, id),
        }
        self.check_progress(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

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
