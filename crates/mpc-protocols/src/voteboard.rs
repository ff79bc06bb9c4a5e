//! Reliable dissemination of pairwise-consistency votes (`OK`/`NOK`) and the
//! consistency graphs built from them.
//!
//! `Π_WPS` and `Π_VSS` have every party make the results of its pairwise
//! consistency tests public and build a *consistency graph* from everyone's
//! published votes. Two delivery channels are used, mirroring the two ways
//! the paper consumes votes:
//!
//! * a **scheduled `Π_BC` broadcast per party** at the phase time fixed by the
//!   parent protocol — its *regular-mode* output is what the timed
//!   `(W, E, F)` acceptance checks look at. All `n` start in
//!   [`VoteBoard::start`], so they run as one lock-step [`Bc`] group (`n`
//!   A-casts, `n` slots of the root's SBA cluster for that tick). The
//!   group exists from construction and is only `init`-ed there — the
//!   tower's one rule for timed children (DESIGN.md "Timed children exist
//!   from construction") — so votes of a peer whose clock runs ahead are
//!   tallied on arrival, not lost;
//! * **late-vote batches** for the `OK` votes a party only establishes
//!   later (slow counterparts in an asynchronous network) — these only feed
//!   the *eventual* consistency graph used by the `(n, t_a)`-star fallback
//!   path. A board posts each to the late-vote channel of the root of the
//!   instance tree, which A-casts everything posted in one tick as one
//!   [`BcValue::VoteBatch`]: one batch per party per tick. A-cast provides
//!   exactly the consistency and eventual-delivery guarantees those paths
//!   need (the fallback mode of `Π_BC` is itself just the sender's A-cast),
//!   and an A-cast of a vector gives them to each of its elements; a late
//!   `NOK` is never read, so it is not sent. See DESIGN.md.
//!
//! The board's child is the `Votes` family of its shell's layout; the
//! root's `Batch` family holds the batch A-casts (DESIGN.md "Instance
//! tree"). The late-vote channel is one of the root's side channels
//! ([`Side`]); the other is the root's SBA clusters, and [`route`] runs
//! both.

use mpc_net::{Context, PartyId};

use crate::acast::Acast;
use crate::bc::{Bc, BcSlot, TIMER_START_SBA};
use crate::msg::{BcValue, Msg, Vote};
use crate::params::Params;
use crate::sba::Clusters;
use crate::star::ConsistencyGraph;
use crate::tree::{Event, Kind, Name, Node, Routed};

/// Vote dissemination and consistency-graph bookkeeping shared by
/// `Π_WPS`/`Π_VSS`.
#[derive(Debug)]
pub struct VoteBoard {
    /// This party's vote about each party.
    my_votes: Vec<Option<Vote>>,
    /// The scheduled broadcasts (slot `j` = party `j`), the board's child.
    pub(crate) scheduled: Bc,
    /// Whether [`VoteBoard::start`] has run.
    started: bool,
    /// The shell's side channels, where this party's late votes go.
    pub(crate) side: Side,
    /// The eventual consistency graph, kept up to date as votes are
    /// delivered. It only ever grows: a scheduled slot's value goes
    /// `None → ⊥ → v` and then never changes, a late `OK` is added once,
    /// and an edge needs an `OK` each way — a later vote, `NOK` included,
    /// can add an `OK` but never take one back. Folding each value in once,
    /// when it first appears, therefore yields exactly the graph a rebuild
    /// from every vote visible would, in whatever order they arrive.
    pub(crate) eventual: OkGraph,
    /// Whether scheduled slot `j`'s vote vector is in `eventual` already.
    folded: Vec<bool>,
}

/// A consistency graph grown one published `OK` at a time: an edge joins
/// `P_j` and `P_k` once each has published an `OK` about the other.
#[derive(Debug)]
pub(crate) struct OkGraph {
    /// `ok[j · n + k]`: party `j` has published an `OK` about party `k`.
    ok: Vec<bool>,
    graph: ConsistencyGraph,
}

impl OkGraph {
    fn new(n: usize) -> Self {
        OkGraph {
            ok: vec![false; n * n],
            graph: ConsistencyGraph::new(n),
        }
    }

    /// Adds party `j`'s `OK` about party `k`; returns whether it is new (a
    /// repeat, or a `k` that is not a party, is not). `j` must be a party.
    pub(crate) fn add_ok(&mut self, j: PartyId, k: PartyId) -> bool {
        let n = self.graph.n();
        if k >= n || std::mem::replace(&mut self.ok[j * n + k], true) {
            return false;
        }
        if self.ok[k * n + j] {
            self.graph.add_edge(j, k);
        }
        true
    }

    /// Folds the votes `value` carries as party `j`'s into the graph.
    fn fold(&mut self, j: PartyId, value: &BcValue) {
        let BcValue::Votes(votes) = value else { return };
        for (k, _) in votes.iter().filter(|(_, vote)| *vote == Vote::Ok) {
            self.add_ok(j, *k as PartyId);
        }
    }
}

impl VoteBoard {
    /// Creates a vote board whose broadcasts and late-vote batches run at
    /// threshold `t`.
    pub fn new(t: usize, params: Params) -> Self {
        VoteBoard {
            my_votes: vec![None; params.n],
            scheduled: Bc::new_group(t, params),
            started: false,
            side: Side::new(t),
            eventual: OkGraph::new(params.n),
            folded: vec![false; params.n],
        }
    }

    /// Whether this party has already cast its vote about `counterpart`
    /// (further [`VoteBoard::add_vote`] calls for it are no-ops — callers on
    /// hot paths use this to skip recomputing the vote).
    pub fn has_voted(&self, counterpart: PartyId) -> bool {
        self.my_votes.get(counterpart).is_some_and(Option::is_some)
    }

    /// Whether this party's vote about `counterpart` is `OK`.
    pub fn vouches_for(&self, counterpart: PartyId) -> bool {
        matches!(self.my_votes.get(counterpart), Some(Some(Vote::Ok)))
    }

    /// Records this party's vote about `counterpart`. Votes recorded before
    /// [`VoteBoard::start`] ride in the scheduled broadcast; a later `OK` is
    /// posted to the shell's late-vote channel, as board 0 of its tree. A
    /// vote about a non-party is dropped.
    pub fn add_vote(&mut self, ctx: &mut Context<'_, Msg>, counterpart: PartyId, vote: Vote) {
        let Some(mine @ None) = self.my_votes.get_mut(counterpart) else {
            return;
        };
        if self.started && vote == Vote::Ok {
            self.side.post(ctx, &[counterpart as u32], 0);
        }
        *mine = Some(vote);
    }

    /// Starts the scheduled per-party vote broadcasts where the shell's
    /// layout `kind` places its `Votes` family (called by the parent at the
    /// phase time it fixes, e.g. `2Δ` for `Π_WPS`).
    pub fn start(&mut self, ctx: &mut Context<'_, Msg>, kind: &Kind) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        let cast = |(k, v): (usize, &Option<Vote>)| Some((k as u32, v.clone()?));
        let votes = self.my_votes.iter().enumerate().filter_map(cast).collect();
        let bcs = &mut self.scheduled;
        kind.scoped(ctx, Name::Votes, 0, |ctx| {
            bcs.init(ctx);
            bcs.provide_input(ctx, BcValue::Votes(votes));
        });
    }

    /// Votes of party `j` received through the *regular mode* of its scheduled
    /// broadcast (empty until that broadcast's `T_BC`).
    pub fn regular_votes_of(&self, j: PartyId) -> Vec<(PartyId, Vote)> {
        let value = self.scheduled.slot(j).and_then(BcSlot::regular_value);
        let Some(BcValue::Votes(votes)) = value else {
            return Vec::new();
        };
        let to_party = |(k, vote): &(u32, Vote)| (*k as PartyId, vote.clone());
        votes.iter().map(to_party).collect()
    }

    /// The consistency graph built from votes received through regular mode
    /// only (what the timed `(W, E, F)` acceptance check inspects).
    pub fn graph_regular(&self) -> ConsistencyGraph {
        let n = self.my_votes.len();
        let mut regular = OkGraph::new(n);
        for j in 0..n {
            if let Some(value) = self.scheduled.slot(j).and_then(BcSlot::regular_value) {
                regular.fold(j, value);
            }
        }
        regular.graph
    }

    /// The consistency graph of every vote visible so far, through any mode
    /// (what the dealer's star search and the receivers' star check
    /// inspect). Late votes are in it from delivery; scheduled-slot values
    /// are folded in here, on demand, so a run that never asks pays nothing
    /// for them. The graph only grows, so its
    /// [`ConsistencyGraph::edge_count`] changes exactly when it does.
    pub fn graph_any(&mut self) -> &ConsistencyGraph {
        for (j, folded) in self.folded.iter_mut().enumerate().filter(|(_, f)| !**f) {
            if let Some(value) = self.scheduled.slot(j).and_then(BcSlot::value) {
                *folded = true;
                self.eventual.fold(j, value);
            }
        }
        &self.eventual.graph
    }

    /// The NOK votes of party `j` received through regular mode, as
    /// `(counterpart, polynomial index, claimed value)` triples. The only
    /// reader of `NOK`s: a late one is never read, and never sent.
    pub fn regular_noks_of(&self, j: PartyId) -> Vec<(PartyId, u32, mpc_algebra::Fp)> {
        self.regular_votes_of(j)
            .into_iter()
            .filter_map(|(k, vote)| match vote {
                Vote::Nok { ell, value } => Some((k, ell, value)),
                Vote::Ok => None,
            })
            .collect()
    }

    /// Checks the paper's "conflicting NOK" condition among the parties of
    /// `w`, based on regular-mode votes: a pair `P_j, P_k ∈ W` that NOK'd each
    /// other on the same polynomial index with different claimed values.
    pub fn has_conflicting_noks(&self, w: &[PartyId]) -> bool {
        let noks: Vec<_> = w.iter().map(|&j| (j, self.regular_noks_of(j))).collect();
        let of = |k| noks.iter().filter(move |p| p.0 == k).flat_map(|p| &p.1);
        // `P_j`'s NOK about `P_k`, `j < k`, and one of `P_k`'s about `P_j`.
        let conflict = |j, &(k, ell, v): &(PartyId, u32, mpc_algebra::Fp)| {
            j < k && of(k).any(|&(x, e, u)| x == j && e == ell && u != v)
        };
        let mut all = noks.iter().flat_map(|p| p.1.iter().map(|nok| (p.0, nok)));
        all.any(|(j, nok)| conflict(j, nok))
    }
}

/// The timer id of the root's flush, at the root's own path (the shells'
/// own steps use 10, the dealer core's phases 11–13).
pub(crate) const TIMER_FLUSH: u64 = 14;

/// The side channels of the root of an instance tree: this party's late
/// `OK` votes, on their way from the vote boards of the tree to the A-casts
/// that carry them (DESIGN.md "`Π_WPS`/`Π_VSS`: one dealer-verification
/// core"), and the SBA clusters of the tree's `Π_BC`s (`sba::Clusters`).
///
/// Every kind that can be a root and has a `Π_BC` below it — `Π_BC`,
/// `Π_BA`, `Π_WPS`, `Π_VSS`, `Π_ACS` and `Π_CirEval` — holds one
/// ([`Node::side`]) and routes its events through [`route`]. A late vote
/// in it is one `u32`, `board · n + counterpart`, its board numbered among
/// the holder's ([`Kind::board_path`]). The root's is the live channel: the
/// first vote posted to it arms a zero-delay timer at the root, which fires
/// after every delivery and every deeper timer of the tick, and [`route`]
/// then A-casts everything posted since as one [`BcValue::VoteBatch`] in
/// this party's next slot of the root's `Batch` family. So each party
/// A-casts at most one batch per tick, whatever the root's kind. Any other
/// holder's is an outbox, which [`route`] empties into its parent's after
/// routing an event to it; [`Kind::route`] drops a batch addressed below the
/// root. Only the root's clusters are used.
#[derive(Debug)]
pub struct Side {
    /// The threshold of the batch A-casts.
    t: usize,
    /// Posted and not yet A-cast (root) or taken by the parent (outbox).
    pending: Vec<u32>,
    /// `n` times the number of batches this party has A-cast.
    sent: usize,
    /// The batch A-casts, slot `k · n + sender`, each boxed on its first
    /// message. Routing bounds a slot by the family's `n · n · boards`, and
    /// this party's own `k` stays below `n · boards`, as each board posts a
    /// counterpart once: the table grows to the highest slot seen, at most
    /// the family's size.
    slots: Vec<Option<Box<Acast>>>,
    /// The SBA clusters.
    pub(crate) clusters: Clusters,
}

impl Side {
    /// Empty channels whose batch A-casts and cluster SBAs run at threshold
    /// `t`.
    pub fn new(t: usize) -> Self {
        Side {
            t,
            pending: Vec::new(),
            sent: 0,
            slots: Vec::new(),
            clusters: Clusters::new(t),
        }
    }

    /// Posts `votes`, whose boards are numbered from `first` among the
    /// holder's, and marks the event for the holders above
    /// ([`Context::collect`]); at the root, the first since the last flush
    /// arms the flush.
    fn post(&mut self, ctx: &mut Context<'_, Msg>, votes: &[u32], first: usize) {
        if self.pending.is_empty() && ctx.path().is_empty() {
            ctx.set_timer(0, TIMER_FLUSH);
        }
        ctx.collect = true;
        let shift = (first * ctx.n) as u32;
        self.pending.extend(votes.iter().map(|vote| vote + shift));
    }

    /// Slot `index` of the channel, made on first demand.
    // Not inlined: `Kind::route`, which every delivery runs, needs it only
    // for the root's batch traffic.
    #[inline(never)]
    pub(crate) fn slot(&mut self, n: usize, index: usize) -> &mut Acast {
        let len = self.slots.len().max(index + 1);
        self.slots.resize_with(len, || None);
        self.slots[index].get_or_insert_with(|| Box::new(Acast::new(index % n, n, self.t)))
    }
}

/// [`Kind::route`] for `node`, an instance of `kind` that holds side
/// channels ([`Node::side`]), then their step: the one owner path of every
/// holder kind.
///
/// - After an event at a child that holds late votes, if the event posted
///   one ([`Context::collect`]), the child's posts move into `node`'s,
///   numbered past the boards before that child (`Kind::first_board`). An
///   event that posted none, as in every synchronous run, pays that test.
/// - At the root, the flush timer A-casts what was posted since the last
///   flush as one batch, in this party's next slot.
/// - At the root, a delivered batch goes to its boards: each vote as an
///   [`Event::LateOk`] routed to the board's shell like any event, so that
///   the shell folds it and runs its step, and every instance on the way its
///   after-child step. A value that is no vote batch, or one longer than a
///   party's late votes, is dropped, and so is a vote that names no board.
/// - At the root, after a timer event, the step of the SBA clusters
///   (`clusters_step`).
///
/// Returns what is left for `node`'s own step: [`Routed::Dropped`] if the
/// channel took the event.
// `#[inline]` as `Kind::route` is: every delivery to a holder runs it.
#[inline]
pub fn route<'p, 'm>(
    node: &mut impl Node,
    kind: &Kind,
    ctx: &mut Context<'_, Msg>,
    path: &'p [u32],
    event: Event<'m>,
) -> Routed<'p, 'm> {
    let (n, routed) = (ctx.n, kind.route(node, ctx, path, event));
    if let (Event::Timer(id), true) = (event, ctx.path().is_empty()) {
        clusters_step(node, kind, ctx, id);
    }
    let index = match routed {
        Routed::Own(Event::Timer(TIMER_FLUSH)) => {
            if let Some(side) = node.side() {
                side.sent += n;
                let i = side.sent - n + ctx.me;
                let batch = BcValue::VoteBatch(std::mem::take(&mut side.pending));
                let acast = side.slot(n, i);
                kind.scoped(ctx, Name::Batch, i, |ctx| acast.provide_input(ctx, batch));
            }
            return Routed::Dropped;
        }
        Routed::Child(Name::Batch, index, true) => index,
        Routed::Child(name @ (Name::Wps | Name::Vss | Name::AcsInput | Name::AcsTriples), i, _)
            if ctx.collect =>
        {
            let outbox = node.child(name, i).and_then(|child| child.side());
            let votes = outbox.map(|outbox| std::mem::take(&mut outbox.pending));
            if let (Some(votes), Some(side)) = (votes.filter(|v| !v.is_empty()), node.side()) {
                side.post(ctx, &votes, kind.first_board(n, kind.segment(n, name, i)));
            }
            return routed;
        }
        _ => return routed,
    };
    let slot = node.side().and_then(|side| side.slots.get(index)?.as_ref());
    let votes = match slot.and_then(|acast| acast.output.as_ref()) {
        Some(BcValue::VoteBatch(votes)) if votes.len() <= n * kind.boards(n) => votes,
        _ => return Routed::Dropped,
    };
    let event = |&vote: &u32| {
        let board = kind.board_path(n, vote as usize / n)?;
        Some((board, Event::LateOk(index % n, vote as usize % n)))
    };
    for (board, ev) in votes.iter().filter_map(event).collect::<Vec<_>>() {
        node.on_event(ctx, &board, ev);
    }
    Routed::Dropped
}

/// The root's step of its SBA clusters ([`Clusters`]) after a timer event
/// `id`. The first timer event of a cluster's `T_BC` tick finishes the
/// cluster and hands each member its slots' agreed values as an
/// [`Event::Agreed`]: it comes after every delivery of the tick, and no
/// later than the members' own `T_BC` timers, which fire before those of
/// the instances above them that read the regular outputs. The first `3Δ`
/// timer of a `Π_BC` in a tick starts the cluster of every `Π_BC` whose
/// `3Δ` it is, found by a walk of the tree in path order, over their
/// inputs as they stand then (no timer of the tick delivers an A-cast).
fn clusters_step(node: &mut impl Node, kind: &Kind, ctx: &mut Context<'_, Msg>, id: u64) {
    let (n, now) = (ctx.n, ctx.now);
    let Some(side) = node.side() else { return };
    let fresh = id == TIMER_START_SBA && !side.clusters.started_at(now);
    if let Some((members, agreed)) = side.clusters.finish(ctx) {
        let mut agreed = &agreed[..];
        for (path, slots) in members {
            let (mine, rest) = agreed.split_at(slots.min(agreed.len()));
            node.on_event(ctx, &path, Event::Agreed(mine));
            agreed = rest;
        }
    }
    if fresh {
        let (mut members, mut inputs) = (Vec::new(), Vec::new());
        kind.each_bc(node, n, &mut Vec::new(), &mut |path, bc| {
            if bc.round1 == Some(now) {
                members.push((path.to_vec(), bc.sba_inputs().len()));
                inputs.extend(bc.sba_inputs());
            }
        });
        if let Some(side) = node.side() {
            side.clusters.start(ctx, kind, members, inputs);
        }
    }
}

#[cfg(test)]
impl VoteBoard {
    /// Scheduled slot `j`, for tests that set its output directly.
    pub(crate) fn scheduled_slot_mut(&mut self, j: PartyId) -> Option<&mut BcSlot> {
        self.scheduled.slot_mut(j)
    }

    /// This party's vote about `counterpart`, if cast.
    pub(crate) fn vote_about(&self, counterpart: PartyId) -> Option<&Vote> {
        self.my_votes.get(counterpart)?.as_ref()
    }
}

#[cfg(test)]
impl Side {
    /// How many slots the table holds, boxed or not.
    pub(crate) fn table_len(&self) -> usize {
        self.slots.len()
    }

    /// The value slot `index` delivered, if it has.
    pub(crate) fn output(&self, index: usize) -> Option<&BcValue> {
        self.slots.get(index)?.as_ref()?.output.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AcastMsg;
    use crate::wps::{Wps, WPS};
    use mpc_algebra::Fp;
    use mpc_net::Effects;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Party 0 of a stand-alone `Π_WPS`, whose live channel receives the
    /// batches: a delivered batch reaches the board through the shell.
    struct Receiver {
        wps: Wps,
        params: Params,
        effects: Effects<Msg>,
        rng: StdRng,
    }

    impl Receiver {
        fn new(params: Params) -> Self {
            Receiver {
                wps: Wps::new(1, params, 1),
                params,
                effects: Effects::new(),
                rng: StdRng::seed_from_u64(0),
            }
        }

        fn board(&mut self) -> &mut VoteBoard {
            self.wps.votes_mut()
        }

        /// Delivers `value` in batch slot `index` through the message path:
        /// `2t + 1` `Ready`s.
        fn deliver(&mut self, index: usize, value: &BcValue) {
            let Params { n, ts, delta, .. } = self.params;
            let seg = WPS.segment(n, Name::Batch, index);
            let ready = Msg::Acast(AcastMsg::Ready(value.clone()));
            let mut ctx = Context::new(0, n, 0, delta, &mut self.effects, &mut self.rng, 0);
            for from in 0..=2 * ts {
                self.wps
                    .on_event(&mut ctx, &[seg], Event::Message(from, &ready));
            }
        }

        /// All votes of party `j` visible so far, through any mode: its
        /// scheduled broadcast's regular or fallback output, then the `OK`s
        /// on this board of its delivered vote batches, slot by slot.
        fn all_votes_of(&mut self, j: PartyId) -> Vec<(PartyId, Vote)> {
            let n = self.params.n;
            let board = self.board();
            let mut votes = match board.scheduled.slot(j).and_then(BcSlot::value) {
                Some(BcValue::Votes(v)) => {
                    v.iter().map(|(k, v)| (*k as PartyId, v.clone())).collect()
                }
                _ => Vec::new(),
            };
            for index in (j..board.side.table_len()).step_by(n) {
                // Board 0 is the instance's own, the only one it has.
                if let Some(BcValue::VoteBatch(batch)) = board.side.output(index) {
                    let here = batch
                        .iter()
                        .filter(|&&vote| vote < n as u32 && batch.len() <= n);
                    votes.extend(here.map(|&k| (k as PartyId, Vote::Ok)));
                }
            }
            votes
        }
    }

    /// The consistency graph rebuilt from scratch out of each party's votes.
    fn rebuilt_graph(
        n: usize,
        mut votes_of: impl FnMut(PartyId) -> Vec<(PartyId, Vote)>,
    ) -> ConsistencyGraph {
        let mut ok = vec![vec![false; n]; n];
        for (j, row) in ok.iter_mut().enumerate() {
            for (k, vote) in votes_of(j) {
                if k < n && matches!(vote, Vote::Ok) {
                    row[k] = true;
                }
            }
        }
        let mut g = ConsistencyGraph::new(n);
        for (j, row_j) in ok.iter().enumerate() {
            for (k, &j_trusts_k) in row_j.iter().enumerate().skip(j + 1) {
                if j_trusts_k && ok[k][j] {
                    g.add_edge(j, k);
                }
            }
        }
        g
    }

    /// A random scheduled vote payload, hostile ones included: counterparts
    /// `≥ n`, several votes, `OK` and `NOK` about the same party,
    /// self-votes, and now and then no vote vector at all.
    fn random_payload(rng: &mut StdRng, n: usize) -> BcValue {
        if rng.gen_range(0..10) == 0 {
            return BcValue::Bit(true);
        }
        let votes = (0..rng.gen_range(0..4usize)).map(|_| {
            let k = rng.gen_range(0..n + 2) as u32;
            let vote = match rng.gen_range(0..3) {
                0 => Vote::Nok {
                    ell: rng.gen_range(0..2),
                    value: Fp::from_u64(rng.gen_range(0..3)),
                },
                _ => Vote::Ok,
            };
            (k, vote)
        });
        BcValue::Votes(votes.collect())
    }

    /// A random late-vote batch, hostile ones included: repeats,
    /// self-votes, boards a stand-alone `Π_WPS` does not have, and now and
    /// then a value that is no vote batch.
    fn random_batch(rng: &mut StdRng, n: usize) -> BcValue {
        if rng.gen_range(0..10) == 0 {
            return random_payload(rng, n);
        }
        let board = |rng: &mut StdRng| rng.gen_range(0..8usize).saturating_sub(6);
        let votes =
            (0..rng.gen_range(0..4usize)).map(|_| (board(rng) * n + rng.gen_range(0..n)) as u32);
        BcValue::VoteBatch(votes.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn incremental_graph_equals_the_graph_rebuilt_from_the_votes(
            seed in any::<u64>(),
            n in 4usize..9,
        ) {
            let t = (n - 1) / 3;
            let params = Params::new(n, t, 0, 10);
            let mut one = Receiver::new(params);
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..6 * n {
                let j = rng.gen_range(0..n);
                if rng.gen_bool(0.5) {
                    // A scheduled slot steps along None → ⊥ → v; once it
                    // holds a value, a repeated output is the same value.
                    // Its first output is its regular-mode one.
                    let payload = random_payload(&mut rng, n);
                    let slot = one.board().scheduled_slot_mut(j).unwrap();
                    slot.output = match slot.output.take() {
                        None if rng.gen_bool(0.3) => Some(None),
                        None | Some(None) => Some(Some(payload)),
                        held => held,
                    };
                    if slot.regular_output.is_none() {
                        slot.regular_output = slot.output.clone();
                    }
                } else {
                    // One of party j's first three batch slots, delivered
                    // again (with a different value, which the A-cast
                    // ignores) now and then.
                    let index = rng.gen_range(0..3) * n + j;
                    one.deliver(index, &random_batch(&mut rng, n));
                }
                let rebuilt = rebuilt_graph(n, |j| one.all_votes_of(j));
                prop_assert_eq!(one.board().graph_any(), &rebuilt, "step {}", step);
                let rebuilt = rebuilt_graph(n, |j| one.board().regular_votes_of(j));
                prop_assert_eq!(one.board().graph_regular(), rebuilt, "step {}", step);
            }

            // A second receiver gets every slot's delivered value in another
            // order, the scheduled outputs at a random point among them: the
            // fold is a union, so its graph is the first one's.
            let mut other = Receiver::new(params);
            let mut held: Vec<(usize, BcValue)> = Vec::new();
            for index in 0..one.board().side.table_len() {
                if let Some(value) = one.board().side.output(index) {
                    held.push((index, value.clone()));
                }
            }
            for i in (1..held.len()).rev() {
                held.swap(i, rng.gen_range(0..i + 1));
            }
            let scheduled_at = rng.gen_range(0..held.len() + 1);
            for (at, (index, value)) in held.iter().enumerate() {
                if at == scheduled_at {
                    copy_scheduled(&mut one, &mut other);
                }
                other.deliver(*index, value);
            }
            if scheduled_at == held.len() {
                copy_scheduled(&mut one, &mut other);
            }
            let graph = one.board().graph_any().clone();
            prop_assert_eq!(other.board().graph_any(), &graph);
        }
    }

    /// The paper's "conflicting NOK" condition read off its definition: a
    /// pair `P_j, P_k ∈ W`, `j < k`, that NOK'd each other on the same
    /// polynomial with different values.
    fn conflicting_by_definition(board: &VoteBoard, w: &[PartyId]) -> bool {
        let noks = |j| board.regular_noks_of(j);
        w.iter().any(|&j| {
            w.iter().filter(|&&k| j < k).any(|&k| {
                let (of_j, of_k) = (noks(j), noks(k));
                of_j.iter().any(|&(to, ell, v)| {
                    to == k && of_k.iter().any(|&(x, e, u)| x == j && e == ell && u != v)
                })
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn conflicting_noks_match_their_definition(seed in any::<u64>()) {
            let params = Params::new(5, 1, 1, 10);
            let mut one = Receiver::new(params);
            // Parties 0 and 1 NOK each other on polynomial 0, with 1 and 2.
            for (j, k, x) in [(0, 1, 1), (1, 0, 2)] {
                let nok = Vote::Nok { ell: 0, value: Fp::from_u64(x) };
                let slot = one.board().scheduled_slot_mut(j).unwrap();
                slot.regular_output = Some(Some(BcValue::Votes(vec![(k, nok)])));
            }
            prop_assert!(one.board().has_conflicting_noks(&[1, 2, 0]));
            prop_assert!(!one.board().has_conflicting_noks(&[1, 2]));
            let mut rng = StdRng::seed_from_u64(seed);
            for j in 0..params.n {
                let payload = random_payload(&mut rng, params.n);
                let slot = one.board().scheduled_slot_mut(j).unwrap();
                slot.regular_output = Some(Some(payload));
            }
            for _ in 0..8 {
                let mut w: Vec<PartyId> = (0..params.n).filter(|_| rng.gen_bool(0.7)).collect();
                w.reverse();
                let board = one.board();
                let expected = conflicting_by_definition(board, &w);
                prop_assert_eq!(board.has_conflicting_noks(&w), expected, "w {:?}", w);
            }
        }
    }

    /// Gives `to`'s scheduled slots `from`'s outputs.
    fn copy_scheduled(from: &mut Receiver, to: &mut Receiver) {
        for j in 0..from.params.n {
            let slot = from.board().scheduled_slot_mut(j).unwrap();
            let (output, regular) = (slot.output.clone(), slot.regular_output.clone());
            let slot = to.board().scheduled_slot_mut(j).unwrap();
            (slot.output, slot.regular_output) = (output, regular);
        }
    }
}
