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
//! star): its children are the core's ([`WPS`], DESIGN.md "Instance
//! tree"), votes at `2Δ`, the evidence about
//! `P_j` is the [`Msg::Points`] it sent at the first `Δ`-boundary after its
//! rows arrived, and a party outside the direct set reconstructs by OEC on
//! the points of the support set.

use std::collections::BTreeMap;

use mpc_algebra::evaluation_points::alpha;
use mpc_algebra::{rs, Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Time};

use crate::msg::Msg;
use crate::params::Params;
use crate::sharing::{layout, DealerCore};
use crate::tree::{Event, Kind, Name, Node, Routed};
use crate::voteboard::{self, Side};

/// The core's children, from segment 0, then the late-vote batches of one
/// vote board and the SBA clusters of three `Π_BC`s.
pub static WPS: Kind = Kind::new("Wps", &layout([1, 0, 0], [3, 0, 0]));

const TIMER_SEND_POINTS: u64 = 10;

/// One instance of `Π_WPS` for `L` polynomials.
#[derive(Debug)]
pub struct Wps {
    pub(crate) core: DealerCore,
    /// Points received from counterpart `j` (their evaluation of their row at
    /// my `α`), i.e. points on my row polynomials: `L` each, the first per
    /// sender, kept only while no `OK` vote vouches for them — before this
    /// party's rows are here, or after a `NOK`. An `OK`'d sender's points
    /// are this party's rows at `α_j`, which [`Wps::reconstruct`]
    /// recomputes. Emptied for good once [`Wps::released`].
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
        Self::over(DealerCore::new(dealer, params, l_count, &WPS))
    }

    /// Creates the dealer-side instance with its `L` input polynomials
    /// (degree ≤ `t_s` each); the bivariate embeddings are sampled from the
    /// party RNG at `init`.
    pub fn new_dealer(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self {
        Self::over(DealerCore::new_dealer(dealer, params, polynomials, &WPS))
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
        for j in 0..self.core.params.n {
            let Some(points) = self.core.rows_at(alpha(j)) else {
                return;
            };
            ctx.send(j, Msg::Points(points.collect()));
        }
    }

    /// Whether the received points have done all they can: the shares are
    /// out, so nothing reconstructs from them, and the rows are here, so
    /// every vote they back has been cast.
    fn released(&self) -> bool {
        self.shares.is_some() && self.core.rows().is_some()
    }

    /// Votes on a sender's first `Points` (a repeat changes nothing) and
    /// keeps them only if no `OK` vouches for them and they may still be
    /// read: the rows are not here yet, or the vote is `NOK` and the shares
    /// are not out.
    fn on_points(&mut self, ctx: &mut Context<'_, Msg>, from: PartyId, points: &[Fp]) {
        if !self.core.has_voted(from) && !self.points_from.contains_key(&from) {
            self.core.cast_vote(ctx, from, points);
            if !self.core.vouches_for(from) && !self.released() {
                self.points_from.insert(from, points.to_vec());
            }
        }
    }

    /// Votes on every counterpart whose points have arrived (the core
    /// ignores those already voted on, and waits for this party's rows),
    /// then drops the points it vouched for.
    fn refresh_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        for (&j, pts) in &self.points_from {
            self.core.cast_vote(ctx, j, pts);
        }
        let core = &self.core;
        self.points_from.retain(|&j, _| !core.vouches_for(j));
    }

    /// OEC(t_s, t_s, ·) on the common points received from `support_set`:
    /// every contributor sent a full batch, so all `L` values share one
    /// evaluation-point vector and one fast-path basis. A member this party
    /// vouched for contributes its rows at `α_j`, the very values it sent.
    /// `None` while there are not enough consistent points yet — at once,
    /// before any column is built, below the `2·t_s + 1` OEC needs.
    fn reconstruct(&self, support_set: &[PartyId]) -> Option<Vec<Fp>> {
        let l_count = self.core.l_count;
        if l_count == 0 {
            return Some(Vec::new()); // nothing shared, nothing to wait for
        }
        let ts = self.core.params.ts;
        let held: Vec<PartyId> = support_set
            .iter()
            .copied()
            .filter(|&j| self.core.vouches_for(j) || self.points_from.contains_key(&j))
            .collect();
        if held.len() < 2 * ts + 1 {
            return None;
        }
        let mut columns = vec![Vec::with_capacity(held.len()); l_count];
        for &j in &held {
            let mut push = |points: &mut dyn Iterator<Item = Fp>| {
                columns.iter_mut().zip(points).for_each(|(c, p)| c.push(p));
            };
            match self.points_from.get(&j) {
                Some(points) => push(&mut points.iter().copied()),
                None => push(&mut self.core.rows_at(alpha(j))?),
            }
        }
        let xs: Vec<Fp> = held.iter().map(|&j| alpha(j)).collect();
        let polys = rs::oec_decode_batch(ts, ts, &xs, &columns)?;
        Some(polys.iter().map(|p| p.constant_term()).collect())
    }

    /// The step after an own event or a child's progress; returns whether
    /// the shares appeared.
    fn check_progress(&mut self, ctx: &mut Context<'_, Msg>) -> bool {
        self.core.progress(ctx);
        let appeared = self.shares.is_none() && {
            self.shares = self
                .core
                .output(ctx.me, |support| self.reconstruct(support));
            self.output_at = self.shares.as_ref().map(|_| ctx.now);
            self.shares.is_some()
        };
        if self.released() {
            self.points_from.clear();
        }
        appeared
    }
}

impl Node for Wps {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.core.init(ctx, 2 * ctx.delta);
    }

    /// Runs the step on its own events and on a child's progress; progress
    /// is the shares appearing.
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool {
        match voteboard::route(self, &WPS, ctx, path, ev) {
            Routed::Own(Event::Message(from, Msg::RowPolys(rows))) => {
                if !self.core.accept_rows(from, rows) {
                    return false;
                }
                // the points go out at the next Δ-boundary
                let rem = ctx.now % ctx.delta;
                let delay = if rem == 0 { 0 } else { ctx.delta - rem };
                ctx.set_timer(delay, TIMER_SEND_POINTS);
                self.refresh_votes(ctx);
            }
            // wrong length = silent, like a wrong-length opening
            Routed::Own(Event::Message(from, Msg::Points(pts)))
                if pts.len() == self.core.l_count =>
            {
                self.on_points(ctx, from, pts);
            }
            Routed::Own(Event::Timer(TIMER_SEND_POINTS)) => self.send_points(ctx),
            Routed::Own(Event::Timer(id)) => self.core.on_phase_timer(ctx, id),
            // A late vote from the channel, if it is new.
            Routed::Own(Event::LateOk(j, k)) if self.core.votes.eventual.add_ok(j, k) => {}
            Routed::Child(_, _, true) => {}
            _ => return false,
        }
        self.check_progress(ctx)
    }

    fn child(&mut self, name: Name, _: usize) -> Option<&mut dyn Node> {
        self.core.child(name)
    }

    fn side(&mut self) -> Option<&mut Side> {
        Some(&mut self.core.votes.side)
    }
}

crate::node_protocol!(Wps);

#[cfg(test)]
impl Wps {
    /// The vote board, for tests that read or set it directly.
    pub(crate) fn votes_mut(&mut self) -> &mut crate::voteboard::VoteBoard {
        &mut self.core.votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AcastMsg, BcValue, Vote};
    use crate::sharing::testkit::{parties, polys, run_and_check, Shell};
    use crate::voteboard::TIMER_FLUSH;
    use mpc_algebra::SymmetricBivariate;
    use mpc_net::{CorruptionSet, Effects, NetConfig, NetworkKind, Protocol, Simulation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Party 1 of a `Π_WPS` with `L = 2` dealt by party 0, driven event by
    /// event.
    struct One {
        wps: Wps,
        effects: Effects<Msg>,
        rng: StdRng,
        rows: Vec<Vec<Fp>>,
        /// `points[j]`: what party `j` sends party 1, `f_j(α_1)` per row.
        points: Vec<Vec<Fp>>,
        /// Whether the vote board has started.
        started: bool,
    }

    impl One {
        const ME: PartyId = 1;

        fn new(params: Params) -> Self {
            let mut rng = StdRng::seed_from_u64(5);
            let bivariates: Vec<_> = (0..2)
                .map(|_| SymmetricBivariate::random(&mut rng, params.ts))
                .collect();
            let powers = alpha(Self::ME).powers(params.ts + 1);
            let at = |j| {
                bivariates
                    .iter()
                    .map(move |b| b.evaluate(alpha(Self::ME), alpha(j)))
            };
            One {
                wps: Wps::new(0, params, 2),
                effects: Effects::new(),
                rng,
                rows: bivariates.iter().map(|b| b.row_coeffs(&powers)).collect(),
                points: (0..params.n).map(|j| at(j).collect()).collect(),
                started: false,
            }
        }

        /// Delivers `event`, then the late-vote flush it arms, and returns
        /// the votes it cast, as `(about, vote)`. The late `OK`s among them
        /// go out as one batch A-cast; a late `NOK` is not sent.
        fn step(&mut self, event: Result<(PartyId, Msg), u64>) -> Vec<(u32, Vote)> {
            self.effects = Effects::new();
            let (n, delta) = (self.wps.core.params.n, self.wps.core.params.delta);
            let before: Vec<bool> = (0..n).map(|j| self.wps.core.has_voted(j)).collect();
            let mut ctx = Context::new(Self::ME, n, 0, delta, &mut self.effects, &mut self.rng, 0);
            match event {
                Ok((from, msg)) => self.wps.on_message(&mut ctx, from, &[], msg),
                Err(timer) => self.wps.on_timer(&mut ctx, &[], timer),
            }
            if self
                .effects
                .timers
                .iter()
                .any(|&(_, _, id)| id == TIMER_FLUSH)
            {
                let mut ctx =
                    Context::new(Self::ME, n, 0, delta, &mut self.effects, &mut self.rng, 0);
                self.wps.on_timer(&mut ctx, &[], TIMER_FLUSH);
            }
            let board = &self.wps.core.votes;
            let cast = (0..n).filter(|&j| !before[j]).filter_map(|j| {
                let vote = board.vote_about(j)?.clone();
                Some((j as u32, vote))
            });
            let cast: Vec<(u32, Vote)> = cast.collect();
            let sent: Vec<u32> = self
                .effects
                .broadcasts
                .iter()
                .filter_map(|(_, msg)| match msg {
                    Msg::Acast(AcastMsg::Send(BcValue::VoteBatch(votes))) => Some(votes.clone()),
                    _ => None,
                })
                .flatten()
                .inspect(|&vote| assert!(vote < n as u32, "the instance's own board"))
                .collect();
            let late_oks = cast.iter().filter(|(_, vote)| *vote == Vote::Ok);
            let late_oks = late_oks.map(|&(k, _)| k).filter(|_| self.started);
            assert_eq!(sent, late_oks.collect::<Vec<_>>());
            cast
        }

        /// Delivers party `j`'s honest `Points`.
        fn points_from(&mut self, j: PartyId) -> Vec<(u32, Vote)> {
            let points = self.points[j].clone();
            self.step(Ok((j, Msg::Points(points))))
        }

        fn rows_arrive(&mut self) -> Vec<(u32, Vote)> {
            self.step(Ok((0, Msg::RowPolys(self.rows.clone()))))
        }

        /// Starts the vote board, so that every later `OK` is A-cast in the
        /// tick it is cast.
        fn start_votes(&mut self) {
            self.step(Err(11));
            self.started = true;
        }
    }

    #[test]
    fn points_after_the_output_vote_at_once_and_are_not_kept() {
        let params = Params::new(4, 1, 0, 10);
        let mut one = One::new(params);
        assert!(one.rows_arrive().is_empty());
        one.start_votes();
        assert_eq!(one.points_from(2), [(2, Vote::Ok)]);
        assert_eq!(one.wps.points_from.len(), 0, "no output yet");

        one.wps.shares = Some(vec![Fp::ZERO; 2]);
        let mut wrong = one.points[3].clone();
        let value = wrong[1];
        wrong[1] += Fp::ONE;
        let nok = Vote::Nok { ell: 1, value };
        let votes = one.step(Ok((3, Msg::Points(wrong))));
        assert_eq!(votes, [(3, nok)], "exactly one vote");
        assert!(one.wps.points_from.is_empty(), "released");
        assert_eq!(one.points_from(3), [], "a repeat casts none");
        assert_eq!(one.points_from(2), []);
        assert!(one.wps.points_from.is_empty());
    }

    #[test]
    fn an_ok_vote_keeps_no_points_and_a_nok_vote_keeps_them() {
        let params = Params::new(4, 1, 0, 10);
        let mut one = One::new(params);
        one.rows_arrive();
        one.start_votes();
        for j in [0, 2] {
            assert_eq!(one.points_from(j), [(j as u32, Vote::Ok)]);
        }
        assert!(one.wps.points_from.is_empty(), "vouched for, not kept");

        let mut wrong = one.points[3].clone();
        wrong[0] += Fp::ONE;
        let nok = Vote::Nok {
            ell: 0,
            value: one.points[3][0],
        };
        assert_eq!(one.step(Ok((3, Msg::Points(wrong.clone())))), [(3, nok)]);
        assert_eq!(one.points_from(3), [], "a repeat casts none");
        assert_eq!(one.wps.points_from.get(&3), Some(&wrong), "the first, kept");

        // OEC(1, 1, ·) on three points corrects none: the NOK'd points are
        // read as sent, and party 1's own vouched points complete a set.
        let shares: Vec<Fp> = one.wps.core.rows_at(Fp::ZERO).unwrap().collect();
        assert_eq!(one.wps.reconstruct(&[0, 2, 3]), None);
        assert_eq!(one.wps.reconstruct(&[0, 2, 1]), None, "1 has not sent");
        assert_eq!(one.points_from(1), [(1, Vote::Ok)]);
        assert_eq!(one.wps.reconstruct(&[0, 2, 1]), Some(shares.clone()));
        assert_eq!(one.wps.reconstruct(&[3, 0, 2, 1]), Some(shares));
    }

    /// What [`Wps::reconstruct`] returned when every sender's first
    /// `Points` was kept, vouched for or not.
    fn reconstruct_from_every_first(
        ts: usize,
        first: &BTreeMap<PartyId, Vec<Fp>>,
        support_set: &[PartyId],
    ) -> Option<Vec<Fp>> {
        let held = support_set
            .iter()
            .filter_map(|&j| Some((alpha(j), first.get(&j)?)));
        let (xs, points): (Vec<Fp>, Vec<&Vec<Fp>>) = held.unzip();
        let columns: Vec<Vec<Fp>> = (0..2)
            .map(|ell| points.iter().map(|pts| pts[ell]).collect())
            .collect();
        let polys = rs::oec_decode_batch(ts, ts, &xs, &columns)?;
        Some(polys.iter().map(|p| p.constant_term()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_reconstruct_equals_keeping_every_first_points(seed in any::<u64>()) {
            // n = 7, t_s = 2: OEC needs 5 points and corrects one error in 6.
            let params = Params::new(7, 2, 0, 10);
            let n = params.n;
            let mut one = One::new(params);
            let mut rng = StdRng::seed_from_u64(seed);
            // Random senders, some twice or more, some never; each `Points`
            // honest or off in one value (a NOK once the rows are here); the
            // rows arrive before, between or after them, or never.
            let sends = rng.gen_range(0..3 * n);
            let rows_at = rng.gen_range(0..sends + 2);
            let mut first = BTreeMap::new();
            for step in 0..=sends {
                if step == rows_at {
                    one.rows_arrive();
                }
                if step == sends {
                    break;
                }
                let j = rng.gen_range(0..n);
                let mut points = one.points[j].clone();
                if rng.gen_bool(0.3) {
                    points[rng.gen_range(0..2)] += Fp::ONE;
                }
                first.entry(j).or_insert_with(|| points.clone());
                one.step(Ok((j, Msg::Points(points))));
            }
            for &j in one.wps.points_from.keys() {
                prop_assert!(!one.wps.core.vouches_for(j), "{} kept though vouched for", j);
            }
            for _ in 0..4 {
                // A random subset in a random order.
                let mut support: Vec<(u64, PartyId)> =
                    (0..n).map(|j| (rng.gen::<u64>(), j)).collect();
                support.sort_unstable();
                support.truncate(rng.gen_range(2 * params.ts..n + 1));
                let support: Vec<PartyId> = support.into_iter().map(|(_, j)| j).collect();
                let expected = reconstruct_from_every_first(params.ts, &first, &support);
                prop_assert_eq!(one.wps.reconstruct(&support), expected, "support {:?}", support);
            }
        }
    }

    #[test]
    fn an_output_before_the_rows_still_votes_on_every_earlier_points() {
        // Outside the direct set, party 1 reconstructs its shares from the
        // support set's points before its own rows arrive.
        let params = Params::new(4, 1, 0, 10);
        let mut one = One::new(params);
        one.start_votes();
        for j in [3, 0, 2] {
            assert_eq!(one.points_from(j), [], "no rows, no vote");
        }
        one.wps.shares = Some(vec![Fp::ZERO; 2]);
        assert_eq!(one.points_from(0), []);
        assert_eq!(one.wps.points_from.len(), 3, "kept for the rows");

        let votes = [(0, Vote::Ok), (2, Vote::Ok), (3, Vote::Ok)];
        assert_eq!(one.rows_arrive(), votes);
        assert!(one.wps.points_from.is_empty(), "released");
    }

    #[test]
    fn a_quiescent_instance_holds_no_points() {
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let params = Params::new(4, 1, 0, 10);
            let polys = polys(46, params, &[8, 9]);
            let cfg = NetConfig::for_kind(params.n, kind).with_seed(4);
            let mut sim = Simulation::new(
                cfg,
                CorruptionSet::none(),
                parties::<Wps>(params, 1, Some(&polys)),
            );
            sim.run_to_quiescence(50_000_000);
            for i in 0..params.n {
                let wps = sim.party_as::<Wps>(i).unwrap();
                assert!(wps.shares.is_some(), "{kind:?}: party {i}");
                assert!(wps.points_from.is_empty(), "{kind:?}: party {i}");
            }
        }
    }

    #[test]
    fn mis_sized_points_into_an_empty_sharing_are_dropped() {
        // Every linear circuit runs ACS #2 with L = 0. A one-element
        // `Points` used to be compared against `rows[0]` of no rows (panic);
        // a wrong length is now dropped at receipt, state untouched.
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
