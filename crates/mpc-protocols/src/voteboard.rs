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
//!
//! The board's children are the `Votes` and `Update` families of its
//! shell's layout (DESIGN.md "Instance tree").

use mpc_net::{Context, PartyId};

use crate::acast::Acast;
use crate::bc::{Bc, BcSlot};
use crate::msg::{BcValue, Msg, Vote};
use crate::params::Params;
use crate::star::ConsistencyGraph;
use crate::tree::{Kind, Name, Node};

/// Vote dissemination and consistency-graph bookkeeping shared by
/// `Π_WPS`/`Π_VSS`.
#[derive(Debug)]
pub struct VoteBoard {
    /// The shell's layout, which places the board's children.
    kind: &'static Kind,
    t: usize,
    params: Params,
    /// This party's vote about each party.
    my_votes: Vec<Option<Vote>>,
    /// The scheduled broadcasts (slot `j` = party `j`).
    scheduled: Bc,
    /// Whether [`VoteBoard::start`] has run.
    started: bool,
    /// The update table, allocated with its first entry.
    updates: Updates,
    /// The eventual consistency graph, kept up to date as votes are
    /// delivered. It only ever grows: a scheduled slot's value goes
    /// `None → ⊥ → v` and then never changes, an A-cast's output is set
    /// once, and an edge needs an `OK` each way — a later vote, `NOK`
    /// included, can add an `OK` but never take one back. Folding each value
    /// in once, when it first appears, therefore yields exactly the graph a
    /// rebuild from every vote visible would.
    eventual: OkGraph,
    /// Whether scheduled slot `j`'s vote vector is in `eventual` already.
    /// An update A-cast's is folded in when it delivers, which it does once.
    folded: Vec<bool>,
}

/// A consistency graph grown one published vote vector at a time: an edge
/// joins `P_j` and `P_k` once each has published an `OK` about the other.
#[derive(Debug)]
struct OkGraph {
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

    /// Folds the votes `value` carries as party `j`'s into the graph.
    fn fold(&mut self, j: PartyId, value: &BcValue) {
        let BcValue::Votes(votes) = value else { return };
        let n = self.graph.n();
        for (k, vote) in votes {
            let k = *k as PartyId;
            if k >= n
                || !matches!(vote, Vote::Ok)
                || std::mem::replace(&mut self.ok[j * n + k], true)
            {
                continue;
            }
            if self.ok[k * n + j] {
                self.graph.add_edge(j, k);
            }
        }
    }
}

/// The incremental vote A-casts, `sender · n + counterpart`, each boxed on
/// its first message.
type Updates = Vec<Option<Box<Acast>>>;

/// The entry of `table` at `idx`, sizing the table to `n²` entries first.
fn table_entry(table: &mut Updates, n: usize, idx: usize) -> Option<&mut Option<Box<Acast>>> {
    if table.is_empty() {
        table.resize_with(n * n, || None);
    }
    table.get_mut(idx)
}

impl VoteBoard {
    /// Creates a vote board whose children sit where the shell's layout
    /// `kind` places its `Votes` and `Update` families.
    pub fn new(kind: &'static Kind, t: usize, params: Params) -> Self {
        VoteBoard {
            kind,
            t,
            params,
            my_votes: vec![None; params.n],
            scheduled: Bc::new_group(t, params),
            started: false,
            updates: Vec::new(),
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

    /// Records (and if already started, incrementally A-casts) this party's
    /// vote about `counterpart`. Votes recorded before [`VoteBoard::start`]
    /// ride in the scheduled broadcast. A vote about a non-party is dropped.
    pub fn add_vote(&mut self, ctx: &mut Context<'_, Msg>, counterpart: PartyId, vote: Vote) {
        let Some(mine @ None) = self.my_votes.get_mut(counterpart) else {
            return;
        };
        *mine = Some(vote.clone());
        if !self.started {
            return;
        }
        let (n, kind) = (self.params.n, self.kind);
        let idx = ctx.me * n + counterpart;
        if let Some(entry) = table_entry(&mut self.updates, n, idx) {
            let payload = BcValue::Votes(vec![(counterpart as u32, vote)]);
            let acast = entry.insert(Box::new(Acast::new_sender(ctx.me, n, self.t, payload)));
            kind.scoped(ctx, Name::Update, idx, |ctx| acast.init(ctx));
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
            .enumerate()
            .filter_map(|(k, v)| Some((k as u32, v.clone()?)))
            .collect();
        let bcs = &mut self.scheduled;
        self.kind.scoped(ctx, Name::Votes, 0, |ctx| {
            bcs.init(ctx);
            bcs.provide_input(ctx, BcValue::Votes(votes));
        });
    }

    /// The board's child `index` of family `name`: the scheduled group, or
    /// an update A-cast, made on first demand.
    pub(crate) fn child(&mut self, name: Name, index: usize) -> Option<&mut dyn Node> {
        if name == Name::Votes {
            return Some(&mut self.scheduled);
        }
        let (n, t) = (self.params.n, self.t);
        let entry = table_entry(&mut self.updates, n, index)?;
        let acast = entry.get_or_insert_with(|| Box::new(Acast::new(index / n, n, t)));
        Some(&mut **acast)
    }

    /// Takes in the progress of the child `index` of family `name`: an
    /// update A-cast's votes join the eventual graph when it delivers them,
    /// which it does once.
    pub(crate) fn child_progressed(&mut self, name: Name, index: usize) {
        let update = self.updates.get(index).filter(|_| name == Name::Update);
        if let Some(value) = update.and_then(|a| a.as_ref()?.output.as_ref()) {
            self.eventual.fold(index / self.params.n, value);
        }
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
        Self::votes_in(self.scheduled.slot(j).and_then(BcSlot::regular_value))
    }

    /// The consistency graph built from votes received through regular mode
    /// only (what the timed `(W, E, F)` acceptance check inspects).
    pub fn graph_regular(&self) -> ConsistencyGraph {
        let mut regular = OkGraph::new(self.params.n);
        for j in 0..self.params.n {
            if let Some(value) = self.scheduled.slot(j).and_then(BcSlot::regular_value) {
                regular.fold(j, value);
            }
        }
        regular.graph
    }

    /// The consistency graph of every vote visible so far, through any mode
    /// (what the dealer's star search and the receivers' star check
    /// inspect). Update A-casts are in it from delivery; scheduled-slot
    /// values are folded in here, on demand, so a run that never asks pays
    /// nothing for them. The graph only grows, so its
    /// [`ConsistencyGraph::edge_count`] changes exactly when it does.
    pub fn graph_any(&mut self) -> &ConsistencyGraph {
        for (j, folded) in self.folded.iter_mut().enumerate() {
            if *folded {
                continue;
            }
            if let Some(value) = self.scheduled.slot(j).and_then(BcSlot::value) {
                *folded = true;
                self.eventual.fold(j, value);
            }
        }
        &self.eventual.graph
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
        let noks: Vec<_> = w.iter().map(|&j| self.regular_noks_of(j)).collect();
        for (&j, noks_j) in w.iter().zip(&noks) {
            for (&k, noks_k) in w.iter().zip(&noks) {
                if j >= k {
                    continue;
                }
                for &(kj, ell_j, v_j) in noks_j {
                    if kj != k {
                        continue;
                    }
                    for &(jk, ell_k, v_k) in noks_k {
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
impl VoteBoard {
    /// Scheduled slot `j`, for tests that set its output directly.
    pub(crate) fn scheduled_slot_mut(&mut self, j: PartyId) -> Option<&mut BcSlot> {
        self.scheduled.slot_mut(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AcastMsg;
    use crate::tree::Event;
    use crate::vss::VSS;
    use crate::wps::WPS;
    use mpc_algebra::Fp;
    use mpc_net::Effects;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// All votes of party `j` visible so far, through any mode: its
    /// scheduled broadcast's regular or fallback output, then its delivered
    /// update A-casts in counterpart order.
    fn all_votes_of(board: &VoteBoard, j: PartyId) -> Vec<(PartyId, Vote)> {
        let n = board.params.n;
        let mut votes = VoteBoard::votes_in(board.scheduled.slot(j).and_then(BcSlot::value));
        // Sender `j`'s updates are one contiguous row of the table.
        let row = board.updates.get(j * n..(j + 1) * n).unwrap_or_default();
        for acast in row.iter().flatten() {
            votes.extend(VoteBoard::votes_in(acast.output.as_ref()));
        }
        votes
    }

    /// A scan of every delivered update A-cast, filtered by sender.
    fn all_votes_by_full_scan(board: &VoteBoard, j: PartyId) -> Vec<(PartyId, Vote)> {
        let n = board.params.n;
        let mut votes = VoteBoard::votes_in(board.scheduled.slot(j).and_then(BcSlot::value));
        for (idx, acast) in board.updates.iter().enumerate() {
            if let Some(acast) = acast.as_ref().filter(|_| idx / n == j) {
                votes.extend(VoteBoard::votes_in(acast.output.as_ref()));
            }
        }
        votes
    }

    /// The consistency graph rebuilt from scratch out of each party's votes.
    fn rebuilt_graph(
        n: usize,
        votes_of: impl Fn(PartyId) -> Vec<(PartyId, Vote)>,
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

    /// Hands `msg` to update A-cast `idx` and, if it delivered, folds it,
    /// as the shell does on a child's progress; returns whether it
    /// delivered.
    fn to_update(
        board: &mut VoteBoard,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        idx: usize,
        msg: &Msg,
    ) -> bool {
        let acast = board.child(Name::Update, idx).expect("an update A-cast");
        let delivered = acast.on_event(ctx, &[], Event::Message(from, msg));
        if delivered {
            board.child_progressed(Name::Update, idx);
        }
        delivered
    }

    /// Delivers `value` as the output of `sender`'s update A-cast about
    /// `counterpart`, through the message path: `2t + 1` `Ready`s. Returns
    /// how many of them the A-cast reported as progress.
    fn deliver_update(
        board: &mut VoteBoard,
        ctx: &mut Context<'_, Msg>,
        (sender, counterpart): (PartyId, PartyId),
        value: &BcValue,
    ) -> usize {
        let idx = sender * board.params.n + counterpart;
        let ready = Msg::Acast(AcastMsg::Ready(value.clone()));
        (0..=2 * board.t)
            .filter(|&from| to_update(board, ctx, from, idx, &ready))
            .count()
    }

    #[test]
    fn all_votes_of_reads_exactly_the_senders_segment_range() {
        let params = Params::new(5, 1, 1, 10);
        let n = params.n;
        let mut board = VoteBoard::new(&VSS, 1, params);
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(0, n, 0, params.delta, &mut effects, &mut rng, 0);
        // Delivered updates from several senders — including the first and
        // last entry of a sender's row and the table's last entry — plus one
        // that has not delivered yet.
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
            let value = BcValue::Votes(vec![(counterpart as u32, vote)]);
            deliver_update(&mut board, &mut ctx, (sender, counterpart), &value);
        }
        let echo = Msg::Acast(AcastMsg::Echo(BcValue::Bit(true)));
        to_update(&mut board, &mut ctx, 2, n + 3, &echo);
        assert!(matches!(&board.updates[n + 3], Some(acast) if acast.output.is_none()));

        let mut total = 0;
        for j in 0..n {
            let votes = all_votes_of(&board, j);
            assert_eq!(votes, all_votes_by_full_scan(&board, j), "sender {j}");
            total += votes.len();
        }
        assert_eq!(total, delivered.len());
        assert_eq!(
            all_votes_of(&board, 3),
            vec![(1, Vote::Ok), (2, delivered[3].2.clone())],
            "in counterpart order"
        );
    }

    /// A random vote payload, hostile ones included: counterparts `≥ n`,
    /// several votes, `OK` and `NOK` about the same party, self-votes, and
    /// now and then no vote vector at all.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn incremental_graph_equals_the_graph_rebuilt_from_the_votes(
            seed in any::<u64>(),
            n in 4usize..9,
        ) {
            let t = (n - 1) / 3;
            let params = Params::new(n, t, 0, 10);
            let mut board = VoteBoard::new(&WPS, t, params);
            let mut effects = Effects::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net_rng = StdRng::seed_from_u64(0);
            let mut ctx = Context::new(0, n, 0, params.delta, &mut effects, &mut net_rng, 0);
            for step in 0..6 * n {
                let j = rng.gen_range(0..n);
                let payload = random_payload(&mut rng, n);
                if rng.gen_bool(0.5) {
                    // A scheduled slot steps along None → ⊥ → v; once it
                    // holds a value, a repeated output is the same value.
                    // Its first output is its regular-mode one.
                    let slot = board.scheduled_slot_mut(j).unwrap();
                    slot.output = match slot.output.take() {
                        None if rng.gen_bool(0.3) => Some(None),
                        None | Some(None) => Some(Some(payload)),
                        held => held,
                    };
                    if slot.regular_output.is_none() {
                        slot.regular_output = slot.output.clone();
                    }
                } else {
                    // Update A-casts, redelivered (with a different value,
                    // which the A-cast ignores) now and then. Only the
                    // message that delivers one reports progress.
                    let counterpart = rng.gen_range(0..n);
                    let entry = board.updates.get(j * n + counterpart).and_then(Option::as_ref);
                    let fresh = entry.is_none_or(|acast| acast.output.is_none());
                    let changes = deliver_update(&mut board, &mut ctx, (j, counterpart), &payload);
                    prop_assert_eq!(changes, usize::from(fresh));
                }
                let rebuilt = rebuilt_graph(n, |j| all_votes_of(&board, j));
                prop_assert_eq!(board.graph_any(), &rebuilt, "step {}", step);
                let rebuilt = rebuilt_graph(n, |j| board.regular_votes_of(j));
                prop_assert_eq!(board.graph_regular(), rebuilt, "step {}", step);
            }
        }
    }
}
