//! The dealer-verification core shared by `Π_WPS` (Fig 3) and `Π_VSS`
//! (Fig 4).
//!
//! The paper builds `Π_VSS` as `Π_WPS` with one step swapped, so everything
//! else lives here once: the dealer embeds its `L` polynomials of degree
//! `t_s` in random symmetric bivariate polynomials and hands every party its
//! rows (Phase I); the parties publish `OK`/`NOK` votes about each other on
//! a [`VoteBoard`] started at the vote time `t₀`; the dealer `Π_BC`s a
//! `(W, E, F)` structure at `t₀ + T_BC`; a `Π_BA` started at `t₀ + 2·T_BC`
//! decides between accepting it and the fallback, in which the dealer
//! A-casts an `(n, t_a)`-star of the eventual consistency graph. The shell
//! supplies the evidence a vote about `P_j` compares against
//! ([`DealerCore::cast_vote`]) and the reconstruction [`DealerCore::output`]
//! falls back on outside the direct set.
//!
//! Child segments, from the shell's segment base: `+0` the `(W, E, F)`
//! broadcast, `+1` the `Π_BA`, `+2` the star A-cast, `+3 …` the vote board.
//! Timer ids 11–13 at the instance's own path are the core's.
//!
//! Two rules hold at the single place input enters (DESIGN.md "`Π_WPS`/
//! `Π_VSS`: one dealer-verification core"): dealt rows count only if they
//! are exactly `L` polynomials of degree ≤ `t_s`, and a published index set
//! counts only if it names parties, each at most once. The broadcast, the `Π_BA` and the
//! star A-cast exist from construction and are only `init`-ed at their start
//! tick — the tower's one rule for timed children — so a peer whose clock
//! runs ahead is tallied on arrival, bounded by what the child keeps per
//! sender, and there is nothing to buffer or drop.

use mpc_algebra::evaluation_points::alpha;
use mpc_algebra::{Fp, Polynomial, SymmetricBivariate};
use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::acast::Acast;
use crate::ba::Ba;
use crate::bc::Bc;
use crate::msg::{BcValue, Msg, Vote};
use crate::params::Params;
use crate::voteboard::VoteBoard;

const SEG_WEF_BC: u32 = 0;
const SEG_BA: u32 = 1;
const SEG_STAR: u32 = 2;
const SEG_VOTES: u32 = 3;

const TIMER_VOTES: u64 = 11;
const TIMER_WEF: u64 = 12;
const TIMER_BA: u64 = 13;

type Wef = (Vec<PartyId>, Vec<PartyId>, Vec<PartyId>);

/// The party indices of a published set, or `None` if an entry is not a
/// party or names one twice: nothing downstream (graph lookups, share
/// tables, Lagrange coefficients) sees an index `≥ n` or a repeated one.
fn party_set(n: usize, raw: &[u32]) -> Option<Vec<PartyId>> {
    let mut seen = vec![false; n];
    let fresh = |&x: &u32| {
        let seen = seen.get_mut(x as usize)?;
        (!std::mem::replace(seen, true)).then_some(x as PartyId)
    };
    raw.iter().map(fresh).collect()
}

fn wire_set(set: &[PartyId]) -> Vec<u32> {
    set.iter().map(|&x| x as u32).collect()
}

/// Decodes a `(W, E, F)` broadcast value.
fn decode_wef(n: usize, value: &BcValue) -> Option<Wef> {
    match value {
        BcValue::Wef { w, e, f } => Some((party_set(n, w)?, party_set(n, e)?, party_set(n, f)?)),
        _ => None,
    }
}

/// Decodes an `(E′, F′)` star broadcast value.
fn decode_star(n: usize, value: &BcValue) -> Option<(Vec<PartyId>, Vec<PartyId>)> {
    match value {
        BcValue::Star { e, f } => Some((party_set(n, e)?, party_set(n, f)?)),
        _ => None,
    }
}

/// The receiver-side acceptance check for a `(W, E, F)` broadcast by the
/// dealer, based on votes received through regular mode (Local Computation
/// "Verifying and Accepting (W, E, F)").
fn accept_wef(params: &Params, votes: &VoteBoard, (w, e, f): &Wef) -> bool {
    let quorum = params.n - params.ts;
    if w.len() < quorum || votes.has_conflicting_noks(w) {
        return false;
    }
    let g = votes.graph_regular();
    if w.iter().any(|&j| g.degree(j) + 1 < quorum) {
        return false;
    }
    if w.iter().any(|&j| g.degree_within(j, w) + 1 < quorum) {
        return false;
    }
    g.is_star(params.ts, e, f, Some(w))
}

/// Phases I and III–V of one `Π_WPS`/`Π_VSS` instance (see the module docs).
#[derive(Debug)]
pub(crate) struct DealerCore {
    pub(crate) dealer: PartyId,
    pub(crate) params: Params,
    pub(crate) l_count: usize,
    base: u32,
    /// Dealer only: the input polynomials, held until `init` embeds them.
    input: Option<Vec<Polynomial>>,
    /// Dealer only: the embedded symmetric bivariate polynomials.
    bivariates: Vec<SymmetricBivariate>,
    /// Dealer only: whether the row polynomials have been distributed.
    dealt: bool,
    /// This party's row polynomials received from the dealer.
    rows: Option<Vec<Polynomial>>,
    votes: VoteBoard,
    /// The dealer's `(W, E, F)` broadcast, `init`-ed at `t₀ + T_BC`.
    wef_bc: Bc,
    /// The accept-or-star vote, `init`-ed with its input at `t₀ + 2·T_BC`.
    ba: Ba,
    /// The dealer's star A-cast; the dealer gives it its input on the star path.
    star_acast: Acast,
    accepted_wef: Option<Wef>,
    star_published: bool,
}

impl DealerCore {
    /// A participant's core whose children start at segment `base`.
    pub(crate) fn new(dealer: PartyId, params: Params, l_count: usize, base: u32) -> Self {
        DealerCore {
            dealer,
            params,
            l_count,
            base,
            input: None,
            bivariates: Vec::new(),
            dealt: false,
            rows: None,
            votes: VoteBoard::new(base + SEG_VOTES, params.ts, params),
            wef_bc: Bc::new(dealer, params.ts, params),
            ba: Ba::new(params.ts, params, None),
            star_acast: Acast::new(dealer, params.n, params.ts),
            accepted_wef: None,
            star_published: false,
        }
    }

    /// The dealer's core with its `L` input polynomials (degree ≤ `t_s`
    /// each), embedded and dealt by [`DealerCore::init`].
    pub(crate) fn new_dealer(
        dealer: PartyId,
        params: Params,
        polynomials: Vec<Polynomial>,
        base: u32,
    ) -> Self {
        let mut core = Self::new(dealer, params, polynomials.len(), base);
        core.input = Some(polynomials);
        core
    }

    /// This party's accepted row polynomials.
    pub(crate) fn rows(&self) -> Option<&[Polynomial]> {
        self.rows.as_deref()
    }

    /// Phase I: the dealer embeds each polynomial in a random symmetric
    /// bivariate polynomial and sends every party its rows. A no-op for
    /// everyone else and for a dealer that has dealt.
    pub(crate) fn deal(&mut self, ctx: &mut Context<'_, Msg>, polynomials: Vec<Polynomial>) {
        if ctx.me != self.dealer || self.dealt {
            return;
        }
        self.dealt = true;
        let ts = self.params.ts;
        self.bivariates = polynomials
            .iter()
            .map(|q| SymmetricBivariate::embedding(ctx.rng(), ts, q))
            .collect();
        for i in 0..self.params.n {
            let rows = self
                .bivariates
                .iter()
                .map(|b| b.row(alpha(i)).coeffs().to_vec());
            ctx.send(i, Msg::RowPolys(rows.collect()));
        }
    }

    /// Deals the polynomials given at construction and arms the phase
    /// timers: votes at `t0`, the `(W, E, F)` broadcast one `T_BC` later, the
    /// `Π_BA` one more.
    pub(crate) fn init(&mut self, ctx: &mut Context<'_, Msg>, t0: Time) {
        if let Some(polynomials) = self.input.take() {
            self.deal(ctx, polynomials);
        }
        ctx.set_timer(t0, TIMER_VOTES);
        ctx.set_timer(t0 + self.params.t_bc(), TIMER_WEF);
        ctx.set_timer(t0 + 2 * self.params.t_bc(), TIMER_BA);
    }

    /// Takes the dealer's `RowPolys` if it is what Fig 3/Fig 4 mean by
    /// "on receiving `t_s`-degree polynomials": the first one from the
    /// dealer, exactly `L` rows, each of degree ≤ `t_s`. Anything else is
    /// dropped, which leaves the dealer silent towards this party.
    pub(crate) fn accept_rows(&mut self, from: PartyId, rows: Vec<Vec<Fp>>) -> bool {
        if from != self.dealer || self.rows.is_some() || rows.len() != self.l_count {
            return false;
        }
        let rows: Vec<Polynomial> = rows.into_iter().map(Polynomial::from_coeffs).collect();
        if rows.iter().any(|r| r.degree() > self.params.ts) {
            return false;
        }
        self.rows = Some(rows);
        true
    }

    /// Whether a vote about `P_j` is still owed: the rows are here and at
    /// least one party has not been voted on. The shells' cheap way out of
    /// looking for evidence on every event once all `n` votes are cast.
    pub(crate) fn votes_owed(&self) -> bool {
        self.rows.is_some() && !self.votes.has_voted_on_all()
    }

    /// Casts this party's vote about `P_j`, once: `OK` if `evidence[ℓ]` —
    /// what `P_j` holds of the supposedly common point of row `ℓ` — equals
    /// this party's row `ℓ` at `α_j` for every `ℓ`, else `NOK` with the
    /// first differing row and this party's value. Waits for the rows.
    pub(crate) fn cast_vote(&mut self, ctx: &mut Context<'_, Msg>, j: PartyId, evidence: &[Fp]) {
        let Some(rows) = self.rows.as_ref().filter(|_| !self.votes.has_voted(j)) else {
            return;
        };
        let differing = rows
            .iter()
            .zip(evidence)
            .enumerate()
            .find_map(|(ell, (row, &p))| {
                let value = row.evaluate(alpha(j));
                (value != p).then_some(Vote::Nok {
                    ell: ell as u32,
                    value,
                })
            });
        let vote = differing.unwrap_or(Vote::Ok);
        self.votes.add_vote(ctx, j, vote);
    }

    /// Dealer-side computation of the `(W, E, F)` structure from the
    /// regular-mode consistency graph (Phase IV). A party whose published
    /// NOK value differs from the dealer's own bivariate polynomial is
    /// discarded first.
    fn dealer_compute_wef(&self) -> Option<Wef> {
        let quorum = self.params.n - self.params.ts;
        let mut g = self.votes.graph_regular();
        for i in 0..self.params.n {
            for (j, ell, v) in self.votes.regular_noks_of(i) {
                let truth = self.bivariates.get(ell as usize);
                if truth.is_none_or(|b| v != b.evaluate(alpha(j), alpha(i))) {
                    g.remove_vertex_edges(i);
                }
            }
        }
        // W = parties consistent with at least n - t_s parties (counting
        // themselves, as is standard for consistency graphs), then iteratively
        // prune parties not consistent with at least n - t_s parties of W.
        let mut w: Vec<PartyId> = (0..self.params.n)
            .filter(|&i| g.degree(i) + 1 >= quorum)
            .collect();
        loop {
            let before = w.len();
            w = w
                .iter()
                .copied()
                .filter(|&i| g.degree_within(i, &w) + 1 >= quorum)
                .collect();
            if w.len() == before {
                break;
            }
        }
        if w.len() < quorum {
            return None;
        }
        let (e, f) = g.find_star(self.params.ts, Some(&w))?;
        Some((w, e, f))
    }

    fn dealer_try_publish_wef(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.me != self.dealer || !self.dealt {
            return;
        }
        let Some((w, e, f)) = self.dealer_compute_wef() else {
            return;
        };
        let value = BcValue::Wef {
            w: wire_set(&w),
            e: wire_set(&e),
            f: wire_set(&f),
        };
        let bc = &mut self.wef_bc;
        ctx.scoped(self.base + SEG_WEF_BC, |ctx| bc.provide_input(ctx, value));
    }

    /// The dealer, once the `Π_BA` chose the star path, publishes a star as
    /// soon as the eventual graph has one. The shell calls this after every
    /// event, before asking for [`DealerCore::output`].
    pub(crate) fn progress(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.me != self.dealer || self.star_published || self.ba.output != Some(true) {
            return;
        }
        if let Some((e, f)) = self.votes.graph_any().find_star(self.params.ta, None) {
            self.star_published = true;
            let value = BcValue::Star {
                e: wire_set(&e),
                f: wire_set(&f),
            };
            let acast = &mut self.star_acast;
            ctx.scoped(self.base + SEG_STAR, |ctx| acast.provide_input(ctx, value));
        }
    }

    /// Once the `Π_BA` has decided and the path it chose has been
    /// validated: `(direct_set, support_set)` — the parties that output
    /// straight from their rows, and the parties whose evidence everyone
    /// else reconstructs from. `(W, F)` on the `(W, E, F)` path, `(F′, F′)`
    /// for a star `(E′, F′)` that holds in this party's eventual graph.
    fn decided(&self) -> Option<(Vec<PartyId>, Vec<PartyId>)> {
        let n = self.params.n;
        if !self.ba.output? {
            let published = || decode_wef(n, self.wef_bc.value()?);
            let (w, _e, f) = self.accepted_wef.clone().or_else(published)?;
            return Some((w, f));
        }
        let (e, f) = decode_star(n, self.star_acast.output.as_ref()?)?;
        let holds = self.votes.graph_any().is_star(self.params.ta, &e, &f, None);
        holds.then(|| (f.clone(), f))
    }

    /// This party's shares once [`DealerCore::decided`]: straight from its
    /// rows if it is in the direct set and holds them, else whatever the
    /// shell can `reconstruct` from the support set's evidence so far.
    pub(crate) fn output(
        &self,
        me: PartyId,
        reconstruct: impl FnOnce(&[PartyId]) -> Option<Vec<Fp>>,
    ) -> Option<Vec<Fp>> {
        let (direct_set, support_set) = self.decided()?;
        match self.rows.as_ref().filter(|_| direct_set.contains(&me)) {
            Some(rows) => Some(rows.iter().map(|r| r.constant_term()).collect()),
            None => reconstruct(&support_set),
        }
    }

    /// The child behind segment `seg`, if it is one of the core's three
    /// protocol children.
    fn child(&mut self, seg: u32) -> Option<&mut dyn Protocol<Msg>> {
        match seg.checked_sub(self.base)? {
            SEG_WEF_BC => Some(&mut self.wef_bc),
            SEG_BA => Some(&mut self.ba),
            SEG_STAR => Some(&mut self.star_acast),
            _ => None,
        }
    }

    /// Routes a message addressed below this instance (`path` non-empty) to
    /// the core's child it names; anything else is dropped.
    pub(crate) fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let Some(&seg) = path.first() else { return };
        if self.votes.owns_segment(seg) {
            self.votes.on_message(ctx, from, path, msg);
        } else if let Some(child) = self.child(seg) {
            ctx.scoped(seg, |ctx| child.on_message(ctx, from, &path[1..], msg));
        }
    }

    /// Handles the core's own phase timers and routes its children's.
    pub(crate) fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        let Some(&seg) = path.first() else {
            return self.on_phase_timer(ctx, id);
        };
        if self.votes.owns_segment(seg) {
            self.votes.on_timer(ctx, path, id);
        } else if let Some(child) = self.child(seg) {
            ctx.scoped(seg, |ctx| child.on_timer(ctx, &path[1..], id));
        }
    }

    fn on_phase_timer(&mut self, ctx: &mut Context<'_, Msg>, id: u64) {
        match id {
            TIMER_VOTES => self.votes.start(ctx),
            TIMER_WEF => {
                let bc = &mut self.wef_bc;
                ctx.scoped(self.base + SEG_WEF_BC, |ctx| bc.init(ctx));
                self.dealer_try_publish_wef(ctx);
            }
            TIMER_BA => {
                // acceptance check based on regular-mode votes
                let published = self.wef_bc.regular_value();
                self.accepted_wef = published
                    .and_then(|value| decode_wef(self.params.n, value))
                    .filter(|wef| accept_wef(&self.params, &self.votes, wef));
                let input = self.accepted_wef.is_none(); // 0 = accepted, 1 = go for star
                let ba = &mut self.ba;
                ctx.scoped(self.base + SEG_BA, |ctx| {
                    ba.init(ctx);
                    ba.provide_input(ctx, input);
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_sets_name_parties_at_most_once() {
        let star = |e: &[u32], f: &[u32]| BcValue::Star {
            e: e.to_vec(),
            f: f.to_vec(),
        };
        let sets = Some((vec![0, 2], vec![3, 0, 2]));
        assert_eq!(decode_star(4, &star(&[0, 2], &[3, 0, 2])), sets);
        assert_eq!(decode_star(4, &star(&[0, 4], &[3, 0, 4])), None);
        assert_eq!(decode_star(4, &star(&[0, 2], &[3, 0, 2, 3])), None);
        assert_eq!(decode_star(4, &BcValue::Bit(true)), None);
    }
}

/// What the stand-alone tests of the two shells share.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use mpc_net::{CorruptionSet, NetConfig, Simulation};
    use rand::{rngs::StdRng, SeedableRng};

    /// Either shell, as its tests see it.
    pub(crate) trait Shell: Protocol<Msg> + Sized {
        fn participant(dealer: PartyId, params: Params, l_count: usize) -> Self;
        fn dealing(dealer: PartyId, params: Params, polynomials: Vec<Polynomial>) -> Self;
        fn shares(&self) -> Option<&Vec<Fp>>;
    }

    /// Degree-`t_s` polynomials with the given constant terms, drawn in
    /// order from a generator seeded with `seed`.
    pub(crate) fn polys(seed: u64, params: Params, secrets: &[u64]) -> Vec<Polynomial> {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret =
            |&s| Polynomial::random_with_constant_term(&mut rng, params.ts, Fp::from_u64(s));
        secrets.iter().map(secret).collect()
    }

    /// `dealer` sharing `polys` (none: a participant like everyone else,
    /// i.e. a silent dealer once it is corrupt) among `n` parties.
    pub(crate) fn parties<P: Shell>(
        params: Params,
        dealer: PartyId,
        polys: Option<&[Polynomial]>,
    ) -> Vec<Box<dyn Protocol<Msg>>> {
        let party = |i| match polys {
            Some(polys) if i == dealer => P::dealing(dealer, params, polys.to_vec()),
            _ => P::participant(dealer, params, polys.map_or(1, <[_]>::len)),
        };
        (0..params.n).map(|i| Box::new(party(i)) as _).collect()
    }

    /// Runs `dealer` sharing `polys` until every honest party holds shares
    /// — which must happen by `horizon` — and checks that party `i` holds
    /// `polys[ℓ](α_i)` for every `ℓ`.
    pub(crate) fn run_and_check<P: Shell>(
        cfg: NetConfig,
        corrupt: CorruptionSet,
        params: Params,
        dealer: PartyId,
        polys: &[Polynomial],
        horizon: Time,
    ) -> Simulation<Msg> {
        let parties = parties::<P>(params, dealer, Some(polys));
        let mut sim = Simulation::new(cfg, corrupt.clone(), parties);
        let shares = |s: &Simulation<Msg>, i| s.party_as::<P>(i).unwrap().shares().cloned();
        let honest = || (0..params.n).filter(|&i| corrupt.is_honest(i));
        let done = sim.run_until(horizon, |s| honest().all(|i| shares(s, i).is_some()));
        assert!(done, "every honest party must hold shares by {horizon}");
        for i in honest() {
            let expected: Vec<Fp> = polys.iter().map(|q| q.evaluate(alpha(i))).collect();
            assert_eq!(shares(&sim, i), Some(expected), "party {i}");
        }
        sim
    }
}
