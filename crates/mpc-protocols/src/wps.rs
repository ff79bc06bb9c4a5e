//! `Π_WPS` — the best-of-both-worlds weak polynomial sharing protocol
//! (Fig 3, Theorem 4.8).
//!
//! A dealer `D` holds `L` polynomials of degree `t_s`. It embeds each into a
//! random symmetric bivariate polynomial and hands every party its row
//! polynomials; parties exchange the supposedly common points, publish
//! `OK`/`NOK` votes and build a consistency graph. The dealer then either
//! gets a `(W, E, F)` structure accepted within the synchronous schedule
//! (checked by a `Π_BA` vote), or the parties fall back to waiting for an
//! `(n, t_a)`-star, which the dealer finds and A-casts once enough votes have
//! accumulated. Either way every party that produces an output holds points
//! on the same `t_s`-degree polynomials (weak commitment: for a corrupt
//! dealer in a synchronous network, only at least `t_s + 1` honest parties
//! are guaranteed to succeed — fixing that is exactly what `Π_VSS` adds).
//!
//! This file is the shell over the dealer-verification core
//! (`crate::sharing`, which owns dealing, votes, `(W, E, F)`, `Π_BA` and
//! star): child segments from base 0, votes at `2Δ`, the evidence about
//! `P_j` is the [`Msg::Points`] it sent at the first `Δ`-boundary after its
//! rows arrived, and a party outside the direct set reconstructs by OEC on
//! the points of the support set.

use std::any::Any;
use std::collections::BTreeMap;

use mpc_algebra::evaluation_points::alpha;
use mpc_algebra::{rs, Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::msg::Msg;
use crate::params::Params;
use crate::sharing::DealerCore;

const TIMER_SEND_POINTS: u64 = 10;

/// One instance of `Π_WPS` for `L` polynomials.
#[derive(Debug)]
pub struct Wps {
    core: DealerCore,
    /// Points received from counterpart `j` (their evaluation of their row at
    /// my `α`), i.e. points on my row polynomials: `L` each.
    points_from: BTreeMap<PartyId, Vec<Fp>>,
    /// The WPS-shares (one per polynomial) once computed.
    pub shares: Option<Vec<Fp>>,
    /// Local time at which the shares were output.
    pub output_at: Option<Time>,
}

impl Wps {
    fn over(core: DealerCore) -> Self {
        Wps {
            core,
            points_from: BTreeMap::new(),
            shares: None,
            output_at: None,
        }
    }

    /// Creates a participant instance.
    pub fn new(dealer: PartyId, params: Params, l_count: usize) -> Self {
        Self::over(DealerCore::new(dealer, params, l_count, 0))
    }

    /// Creates the dealer-side instance with its `L` input polynomials
    /// (degree ≤ `t_s` each); the bivariate embeddings are sampled from the
    /// party RNG at `init`.
    pub fn new_dealer(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self {
        Self::over(DealerCore::new_dealer(dealer, params, polynomials, 0))
    }

    /// The dealer of this instance.
    pub fn dealer(&self) -> PartyId {
        self.core.dealer
    }

    /// Supplies the dealer's polynomials after creation (used by `Π_VSS`,
    /// where a party becomes a WPS dealer only once it has received its row
    /// polynomials from the VSS dealer).
    pub fn provide_dealer_input(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        polynomials: Vec<Polynomial>,
    ) {
        self.core.deal(ctx, polynomials);
    }

    fn send_points(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(rows) = self.core.rows() else { return };
        for j in 0..self.core.params.n {
            let pts: Vec<Fp> = rows.iter().map(|r| r.evaluate(alpha(j))).collect();
            ctx.send(j, Msg::Points(pts));
        }
    }

    /// Votes on every counterpart whose points have arrived (the core
    /// ignores those already voted on, and waits for this party's rows).
    fn refresh_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        for (&j, pts) in &self.points_from {
            self.core.cast_vote(ctx, j, pts);
        }
    }

    /// OEC(t_s, t_s, ·) on the common points received from `support_set`:
    /// every contributor sent a full batch, so all `L` values share one
    /// evaluation-point vector and one fast-path basis. `None` while there
    /// are not enough consistent points yet.
    fn reconstruct(&self, support_set: &[PartyId]) -> Option<Vec<Fp>> {
        let l_count = self.core.l_count;
        if l_count == 0 {
            return Some(Vec::new()); // nothing shared, nothing to wait for
        }
        let ts = self.core.params.ts;
        let held = support_set
            .iter()
            .filter_map(|&j| Some((alpha(j), self.points_from.get(&j)?)));
        let (xs, points): (Vec<Fp>, Vec<&Vec<Fp>>) = held.unzip();
        let columns: Vec<Vec<Fp>> = (0..l_count)
            .map(|ell| points.iter().map(|pts| pts[ell]).collect())
            .collect();
        let polys = rs::oec_decode_batch(ts, ts, &xs, &columns)?;
        Some(polys.iter().map(|p| p.constant_term()).collect())
    }

    fn check_progress(&mut self, ctx: &mut Context<'_, Msg>) {
        self.core.progress(ctx);
        if self.shares.is_none() {
            self.shares = self
                .core
                .output(ctx.me, |support| self.reconstruct(support));
            self.output_at = self.shares.as_ref().map(|_| ctx.now);
        }
    }
}

impl Protocol<Msg> for Wps {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.core.init(ctx, 2 * ctx.delta);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        if !path.is_empty() {
            self.core.on_message(ctx, from, path, msg);
            return self.check_progress(ctx);
        }
        match msg {
            Msg::RowPolys(rows) => {
                if !self.core.accept_rows(from, rows) {
                    return;
                }
                // the points go out at the next Δ-boundary
                let rem = ctx.now % ctx.delta;
                let delay = if rem == 0 { 0 } else { ctx.delta - rem };
                ctx.set_timer(delay, TIMER_SEND_POINTS);
            }
            // wrong length = silent, like a wrong-length opening
            Msg::Points(pts) if pts.len() == self.core.l_count => {
                self.points_from.entry(from).or_insert(pts);
            }
            _ => return,
        }
        self.refresh_votes(ctx);
        self.check_progress(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        if path.is_empty() && id == TIMER_SEND_POINTS {
            return self.send_points(ctx);
        }
        self.core.on_timer(ctx, path, id);
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
    use mpc_net::{CorruptionSet, NetConfig, NetworkKind, Simulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Shell for Wps {
        fn participant(dealer: PartyId, params: Params, l_count: usize) -> Self {
            Wps::new(dealer, params, l_count)
        }
        fn dealing(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self {
            Wps::new_dealer(dealer, params, polynomials)
        }
        fn shares(&self) -> Option<&Vec<Fp>> {
            self.shares.as_ref()
        }
    }

    #[test]
    fn honest_dealer_sync_correctness_within_t_wps() {
        let params = Params::new(4, 1, 0, 10);
        let polys = polys(42, params, &[77, 99]);
        let cfg = NetConfig::synchronous(params.n);
        // WPS must complete within T_WPS in a synchronous network
        let horizon = params.t_wps() + params.delta;
        let sim = run_and_check::<Wps>(cfg, CorruptionSet::none(), params, 0, &polys, horizon);
        for i in 0..params.n {
            let at = sim.party_as::<Wps>(i).unwrap().output_at.unwrap();
            assert!(
                at <= params.t_wps(),
                "output at {at} > T_WPS {}",
                params.t_wps()
            );
        }
    }

    #[test]
    fn honest_dealer_async_eventual_correctness() {
        let params = Params::new(5, 1, 1, 10);
        let polys = polys(43, params, &[123]);
        let cfg = NetConfig::asynchronous(params.n).with_seed(9);
        // honest parties must eventually output in an asynchronous network
        run_and_check::<Wps>(
            cfg,
            CorruptionSet::new(vec![4]),
            params,
            0,
            &polys,
            50_000_000,
        );
    }

    #[test]
    fn silent_dealer_produces_no_output() {
        let params = Params::new(4, 1, 0, 10);
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![0]),
            parties::<Wps>(params, 0, None),
        );
        sim.run_to_quiescence(params.t_wps() * 3);
        for i in 1..params.n {
            assert!(sim.party_as::<Wps>(i).unwrap().shares.is_none());
        }
    }

    #[test]
    fn privacy_any_ts_shares_leak_nothing() {
        // Structural privacy check backing Lemma 4.1: the shares of any t_s
        // parties are insufficient to reconstruct the secret (the adversary's
        // view — its t_s row polynomials — is consistent with every candidate
        // secret by Lemma 2.2).
        let params = Params::new(4, 1, 0, 10);
        let polys = polys(44, params, &[5]);
        let cfg = NetConfig::synchronous(params.n);
        let horizon = params.t_wps() + params.delta;
        let sim = run_and_check::<Wps>(cfg, CorruptionSet::none(), params, 2, &polys, horizon);
        // any t_s shares alone do not determine the degree-t_s polynomial
        let adversary_view: Vec<(usize, Fp)> = (0..params.ts)
            .map(|i| {
                (
                    i,
                    sim.party_as::<Wps>(i).unwrap().shares.as_ref().unwrap()[0],
                )
            })
            .collect();
        assert!(mpc_algebra::shamir::reconstruct(params.ts, &adversary_view).is_none());
    }

    #[test]
    fn works_in_async_network_for_both_network_kinds_same_code() {
        // the same party code runs in both network kinds (best-of-both-worlds)
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let params = Params::new(4, 1, 0, 10);
            let polys = polys(45, params, &[8]);
            let cfg = NetConfig::for_kind(params.n, kind).with_seed(3);
            run_and_check::<Wps>(cfg, CorruptionSet::none(), params, 1, &polys, 50_000_000);
        }
    }

    #[test]
    fn mis_sized_points_into_an_empty_sharing_are_dropped() {
        // Every linear circuit runs ACS #2 with L = 0. A one-element
        // `Points` used to be compared against `rows[0]` of no rows (panic);
        // a wrong length is now dropped at receipt, state untouched.
        use mpc_net::Effects;
        let params = Params::new(4, 1, 0, 10);
        let mut wps = Wps::new(0, params, 0);
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(1, params.n, 0, params.delta, &mut effects, &mut rng, 0);
        wps.on_message(&mut ctx, 0, &[], Msg::RowPolys(Vec::new()));
        let before = format!("{wps:?}");
        wps.on_message(&mut ctx, 2, &[], Msg::Points(vec![Fp::from_u64(7)]));
        assert_eq!(format!("{wps:?}"), before);
        assert!(effects.sends.is_empty() && effects.broadcasts.is_empty());
    }
}
