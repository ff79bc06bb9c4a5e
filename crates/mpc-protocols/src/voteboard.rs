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
//!   A-casts, one `n`-slot SBA). The group exists from construction and is
//!   only `init`-ed there — the tower's one rule for timed children
//!   (DESIGN.md "Timed children exist from construction") — so votes of a
//!   peer whose clock runs ahead are tallied on arrival, not lost;
//! * **incremental A-casts** for votes a party only establishes later (slow
//!   counterparts in an asynchronous network) — these only feed the
//!   *eventual* consistency graph used by the `(n, t_a)`-star fallback path.
//!   A-cast provides exactly the consistency and eventual-delivery guarantees
//!   those paths need (the fallback mode of `Π_BC` is itself just the
//!   sender's A-cast), see DESIGN.md.

use std::collections::BTreeMap;

use mpc_net::{Context, PartyId, PathSlice, Protocol};

use crate::acast::Acast;
use crate::bc::{Bc, BcSlot};
use crate::msg::{BcValue, Msg, Vote};
use crate::params::Params;
use crate::star::ConsistencyGraph;

/// Vote dissemination and consistency-graph bookkeeping shared by
/// `Π_WPS`/`Π_VSS`.
#[derive(Debug)]
pub struct VoteBoard {
    base: u32,
    t: usize,
    params: Params,
    my_votes: BTreeMap<PartyId, Vote>,
    /// The scheduled broadcasts (slot `j` = party `j`).
    scheduled: Bc,
    /// Whether [`VoteBoard::start`] has run.
    started: bool,
    updates: BTreeMap<u32, Acast>,
}

impl VoteBoard {
    /// Creates a vote board whose children occupy the segment range
    /// `[base, base + 1 + n²)` of the parent protocol: `base` is the
    /// scheduled broadcast group and `base + 1 + sender · n + counterpart`
    /// the incremental A-cast of `sender`'s vote about `counterpart`.
    pub fn new(base: u32, t: usize, params: Params) -> Self {
        VoteBoard {
            base,
            t,
            params,
            my_votes: BTreeMap::new(),
            scheduled: Bc::new_group(t, params),
            started: false,
            updates: BTreeMap::new(),
        }
    }

    /// Number of child segments occupied by a vote board.
    pub fn segment_span(n: usize) -> u32 {
        (1 + n * n) as u32
    }

    /// Is `seg` one of this board's child segments?
    pub fn owns_segment(&self, seg: u32) -> bool {
        seg >= self.base && seg < self.base + Self::segment_span(self.params.n)
    }

    /// Whether this party has already cast its vote about `counterpart`
    /// (further [`VoteBoard::add_vote`] calls for it are no-ops — callers on
    /// hot paths use this to skip recomputing the vote).
    pub fn has_voted(&self, counterpart: PartyId) -> bool {
        self.my_votes.contains_key(&counterpart)
    }

    /// Whether this party has cast its vote about every party (nothing left
    /// for the hot paths that look for new evidence to vote on).
    pub fn has_voted_on_all(&self) -> bool {
        self.my_votes.len() == self.params.n
    }

    /// Records (and if already started, incrementally A-casts) this party's
    /// vote about `counterpart`. Votes recorded before [`VoteBoard::start`]
    /// ride in the scheduled broadcast.
    pub fn add_vote(&mut self, ctx: &mut Context<'_, Msg>, counterpart: PartyId, vote: Vote) {
        if self.my_votes.contains_key(&counterpart) {
            return;
        }
        self.my_votes.insert(counterpart, vote.clone());
        if self.started {
            let seg = self.update_segment(ctx.me, counterpart);
            let payload = BcValue::Votes(vec![(counterpart as u32, vote)]);
            let mut acast = Acast::new_sender(ctx.me, self.params.n, self.t, payload);
            ctx.scoped(seg, |ctx| acast.init(ctx));
            self.updates.insert(seg, acast);
        }
    }

    /// Starts the scheduled per-party vote broadcasts (called by the parent at
    /// the phase time it fixes, e.g. `2Δ` for `Π_WPS`).
    pub fn start(&mut self, ctx: &mut Context<'_, Msg>) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        let votes: Vec<(u32, Vote)> = self
            .my_votes
            .iter()
            .map(|(&k, v)| (k as u32, v.clone()))
            .collect();
        let bcs = &mut self.scheduled;
        ctx.scoped(self.base, |ctx| {
            bcs.init(ctx);
            bcs.provide_input(ctx, BcValue::Votes(votes));
        });
    }

    fn update_segment(&self, sender: PartyId, counterpart: PartyId) -> u32 {
        self.base + 1 + (sender * self.params.n + counterpart) as u32
    }

    fn update_sender(&self, seg: u32) -> PartyId {
        (seg - self.base - 1) as usize / self.params.n
    }

    /// Routes a message addressed to one of this board's children.
    pub fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let Some(&seg) = path.first() else { return };
        if seg == self.base {
            let bcs = &mut self.scheduled;
            ctx.scoped(seg, |ctx| bcs.on_message(ctx, from, &path[1..], msg));
        } else {
            let sender = self.update_sender(seg);
            let n = self.params.n;
            let t = self.t;
            let acast = self
                .updates
                .entry(seg)
                .or_insert_with(|| Acast::new(sender, n, t));
            ctx.scoped(seg, |ctx| acast.on_message(ctx, from, &path[1..], msg));
        }
    }

    /// Routes a timer event addressed to one of this board's children.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        let Some(&seg) = path.first() else { return };
        if seg == self.base {
            let bcs = &mut self.scheduled;
            ctx.scoped(seg, |ctx| bcs.on_timer(ctx, &path[1..], id));
        } else if let Some(acast) = self.updates.get_mut(&seg) {
            ctx.scoped(seg, |ctx| acast.on_timer(ctx, &path[1..], id));
        }
    }

    fn scheduled_slot(&self, j: PartyId) -> Option<&BcSlot> {
        self.scheduled.slot(j)
    }

    fn votes_in(value: Option<&BcValue>) -> Vec<(PartyId, Vote)> {
        match value {
            Some(BcValue::Votes(v)) => v
                .iter()
                .map(|(k, vote)| (*k as PartyId, vote.clone()))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Votes of party `j` received through the *regular mode* of its scheduled
    /// broadcast (empty until that broadcast's `T_BC`).
    pub fn regular_votes_of(&self, j: PartyId) -> Vec<(PartyId, Vote)> {
        Self::votes_in(self.scheduled_slot(j).and_then(BcSlot::regular_value))
    }

    /// All votes of party `j` visible so far, through any mode (scheduled
    /// broadcast regular/fallback output plus incremental A-casts).
    pub fn all_votes_of(&self, j: PartyId) -> Vec<(PartyId, Vote)> {
        let mut votes = Self::votes_in(self.scheduled_slot(j).and_then(BcSlot::value));
        // Sender `j`'s update segments are contiguous (see `update_segment`).
        let segs = self.update_segment(j, 0)..self.update_segment(j + 1, 0);
        for acast in self.updates.range(segs).map(|(_, acast)| acast) {
            votes.extend(Self::votes_in(acast.output.as_ref()));
        }
        votes
    }

    /// The consistency graph built from votes received through regular mode
    /// only (what the timed `(W, E, F)` acceptance check inspects).
    pub fn graph_regular(&self) -> ConsistencyGraph {
        self.graph(|j| self.regular_votes_of(j))
    }

    /// The consistency graph built from every vote visible so far (what the
    /// dealer's star search and the eventual verification paths inspect).
    pub fn graph_any(&self) -> ConsistencyGraph {
        self.graph(|j| self.all_votes_of(j))
    }

    fn graph(&self, votes_of: impl Fn(PartyId) -> Vec<(PartyId, Vote)>) -> ConsistencyGraph {
        let n = self.params.n;
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

    /// The NOK votes of party `j` received through regular mode, as
    /// `(counterpart, polynomial index, claimed value)` triples.
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
        for &j in w {
            let noks_j = self.regular_noks_of(j);
            for &k in w {
                if j >= k {
                    continue;
                }
                let noks_k = self.regular_noks_of(k);
                for &(kj, ell_j, v_j) in &noks_j {
                    if kj != k {
                        continue;
                    }
                    for &(jk, ell_k, v_k) in &noks_k {
                        if jk == j && ell_j == ell_k && v_j != v_k {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_algebra::Fp;

    /// What `all_votes_of` computed before it used the segment range: a scan
    /// of every update A-cast, filtered by sender.
    fn all_votes_by_full_scan(board: &VoteBoard, j: PartyId) -> Vec<(PartyId, Vote)> {
        let mut votes = VoteBoard::votes_in(board.scheduled_slot(j).and_then(BcSlot::value));
        for (seg, acast) in &board.updates {
            if board.update_sender(*seg) == j {
                votes.extend(VoteBoard::votes_in(acast.output.as_ref()));
            }
        }
        votes
    }

    #[test]
    fn all_votes_of_reads_exactly_the_senders_segment_range() {
        let params = Params::new(5, 1, 1, 10);
        let n = params.n;
        let mut board = VoteBoard::new(40, 1, params);
        // Delivered updates from several senders — including the first and
        // last segment of a sender's range and the board's last segment —
        // plus one that has not delivered yet.
        let nok = Vote::Nok {
            ell: 2,
            value: Fp::from_u64(77),
        };
        let delivered = [
            (0, 0, Vote::Ok),
            (0, n - 1, nok.clone()),
            (1, 0, Vote::Ok),
            (3, 2, nok),
            (3, 1, Vote::Ok),
            (n - 1, n - 1, Vote::Ok),
        ];
        for (sender, counterpart, vote) in delivered.clone() {
            let mut acast = Acast::new(sender, n, 1);
            acast.output = Some(BcValue::Votes(vec![(counterpart as u32, vote)]));
            board
                .updates
                .insert(board.update_segment(sender, counterpart), acast);
        }
        let pending = board.update_segment(1, 3);
        board.updates.insert(pending, Acast::new(1, n, 1));

        let mut total = 0;
        for j in 0..n {
            let votes = board.all_votes_of(j);
            assert_eq!(votes, all_votes_by_full_scan(&board, j), "sender {j}");
            total += votes.len();
        }
        assert_eq!(total, delivered.len());
        assert_eq!(
            board.all_votes_of(3),
            vec![(1, Vote::Ok), (2, delivered[3].2.clone())],
            "in segment order"
        );
    }
}
