//! `Π_ACS` — agreement on a common subset (Fig 5, Lemma 5.1).
//!
//! Every party shares `L` polynomials of degree `t_s` through its own `Π_VSS`
//! instance; `n` `Π_BA` instances then decide which dealers make it into the
//! common subset `CS` (`|CS| ≥ n − t_s`, containing every honest party in a
//! synchronous network). Every honest party eventually holds its points on
//! the polynomials of every party in `CS`. Children: [`ACS`] (DESIGN.md
//! "Instance tree"). The `Π_BA` instances exist from construction and are
//! `init`-ed at `T_VSS` (DESIGN.md "Timed children exist from
//! construction"). The late votes of its `Π_VSS`s go to the root's
//! late-vote channel: its own when it is the root, its parent's otherwise
//! (`voteboard::Side`).

use mpc_algebra::{Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Time};

use crate::ba::{Ba, BA};
use crate::msg::Msg;
use crate::params::Params;
use crate::sba::SBA;
use crate::tree::{Card, Event, Family, Kind, Name, Node, Routed};
use crate::voteboard::{self, Side};
use crate::vss::{Vss, VSS};

/// Dealer `j`'s `Π_VSS`, then the `Π_BA` deciding whether `j` is in `CS`,
/// then the late-vote batches of the `n · (n + 1)` vote boards of the
/// `Π_VSS`s and the SBA clusters of the `4n + 3n²` `Π_BC`s below, which
/// only a root `Π_ACS` holds.
pub static ACS: Kind = Kind::new(
    "Acs",
    &[
        Family::new(Name::Vss, &VSS, Card::N),
        Family::new(Name::Ba, &BA, Card::N),
        Family::new(Name::Batch, &crate::acast::ACAST, Card::Batch([0, 1, 1])),
        Family::new(Name::Sba, &SBA, Card::Clusters([0, 4, 3])),
    ],
);

const TIMER_START_BAS: u64 = 10;

/// One instance of `Π_ACS` where every party inputs `L` polynomials.
#[derive(Debug)]
pub struct Acs {
    params: Params,
    my_polys: Vec<Polynomial>,
    vss: Vec<Vss>,
    bas: Vec<Ba>,
    bas_started: bool,
    /// The late votes of every `Π_VSS` and `Π_WPS` below (the channel at
    /// the root, else an outbox) and the root's SBA clusters.
    side: Side,
    /// The agreed common subset of dealers, once all `n` BA instances decided.
    pub common_subset: Option<Vec<PartyId>>,
    /// Local time at which `CS` was fixed.
    pub output_at: Option<Time>,
    /// How many times [`Acs::drive`] has run.
    #[cfg(test)]
    drives: usize,
}

impl Acs {
    /// Creates an instance with this party's own input polynomials (each of
    /// degree ≤ `t_s`).
    pub fn new(params: Params, my_polys: Vec<Polynomial>) -> Self {
        Acs {
            params,
            my_polys,
            vss: Vec::new(),
            bas: (0..params.n)
                .map(|_| Ba::new(params.ts, params, None))
                .collect(),
            bas_started: false,
            side: Side::new(params.ts),
            common_subset: None,
            output_at: None,
            #[cfg(test)]
            drives: 0,
        }
    }

    /// The shares this party holds of dealer `j`'s polynomials (available for
    /// every `j ∈ CS`, eventually).
    pub fn shares_from(&self, j: PartyId) -> Option<&Vec<Fp>> {
        self.vss.get(j).and_then(|v| v.shares.as_ref())
    }

    /// `true` once `CS` is agreed *and* this party holds shares from every
    /// member of `CS`.
    pub fn ready(&self) -> bool {
        match &self.common_subset {
            Some(cs) => cs.iter().all(|&j| self.shares_from(j).is_some()),
            None => false,
        }
    }

    /// The step after the start timer or a child's progress; returns
    /// whether `CS` was fixed.
    fn drive(&mut self, ctx: &mut Context<'_, Msg>) -> bool {
        #[cfg(test)]
        {
            self.drives += 1;
        }
        if !self.bas_started {
            return false;
        }
        // provide input 1 to the BA of every dealer whose VSS has delivered
        for (j, (vss, ba)) in self.vss.iter().zip(&mut self.bas).enumerate() {
            if vss.shares.is_some() && !ba.has_input() {
                ACS.scoped(ctx, Name::Ba, j, |ctx| ba.provide_input(ctx, true));
            }
        }
        // once n - t_s BA instances output 1, vote 0 in all remaining ones
        let ones = self.bas.iter().filter(|b| b.output == Some(true)).count();
        if ones >= self.params.n - self.params.ts {
            for (j, ba) in self.bas.iter_mut().enumerate() {
                if !ba.has_input() {
                    ACS.scoped(ctx, Name::Ba, j, |ctx| ba.provide_input(ctx, false));
                }
            }
        }
        // all BAs decided → CS is fixed
        if self.common_subset.is_some() || self.bas.iter().any(|b| b.output.is_none()) {
            return false;
        }
        let cs = (0..self.params.n).filter(|&j| self.bas[j].output == Some(true));
        self.common_subset = Some(cs.collect());
        self.output_at = Some(ctx.now);
        true
    }
}

impl Node for Acs {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = ctx.me;
        for j in 0..self.params.n {
            let mut v = if j == me {
                Vss::new_dealer(j, self.params, self.my_polys.clone())
            } else {
                Vss::new(j, self.params, self.my_polys.len())
            };
            ACS.scoped(ctx, Name::Vss, j, |ctx| v.init(ctx));
            self.vss.push(v);
        }
        ctx.set_timer(self.params.t_vss(), TIMER_START_BAS);
    }

    /// Progress is `CS` being fixed or a `Π_VSS` delivering its shares.
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool {
        match voteboard::route(self, &ACS, ctx, path, ev) {
            Routed::Child(name, _, true) => self.drive(ctx) || name == Name::Vss,
            Routed::Own(Event::Timer(TIMER_START_BAS)) => {
                for (j, ba) in self.bas.iter_mut().enumerate() {
                    ACS.scoped(ctx, Name::Ba, j, |ctx| ba.init(ctx));
                }
                self.bas_started = true;
                self.drive(ctx)
            }
            _ => false,
        }
    }

    fn child(&mut self, name: Name, index: usize) -> Option<&mut dyn Node> {
        match name {
            Name::Vss => Some(self.vss.get_mut(index)?),
            _ => Some(self.bas.get_mut(index)?),
        }
    }

    fn side(&mut self) -> Option<&mut Side> {
        Some(&mut self.side)
    }
}

crate::node_protocol!(Acs);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AcastMsg, BcValue, Vote};
    use mpc_algebra::evaluation_points::alpha;
    use mpc_net::{CorruptionSet, Effects, NetConfig, Protocol, Simulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_parties(
        params: Params,
        rng: &mut StdRng,
    ) -> (Vec<Box<dyn Protocol<Msg>>>, Vec<Polynomial>) {
        let mut polys = Vec::new();
        let mut parties: Vec<Box<dyn Protocol<Msg>>> = Vec::new();
        for i in 0..params.n {
            let p =
                Polynomial::random_with_constant_term(rng, params.ts, Fp::from_u64(100 + i as u64));
            polys.push(p.clone());
            parties.push(Box::new(Acs::new(params, vec![p])));
        }
        (parties, polys)
    }

    /// Runs an honest n = 4 `Π_ACS` until every party is ready and checks
    /// that `drive` ran only on the start timer and on a child's progress:
    /// each `Π_VSS` reports progress once (its shares), each `Π_BA` once
    /// (its output).
    fn drives_only_on_progress(cfg: NetConfig) {
        let params = Params::new(4, 1, 0, 10);
        let mut rng = StdRng::seed_from_u64(79);
        let (parties, _) = make_parties(params, &mut rng);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        let done = sim.run_until(200_000_000, |s| {
            (0..params.n).all(|i| s.party_as::<Acs>(i).unwrap().ready())
        });
        assert!(done);
        for i in 0..params.n {
            let acs = sim.party_as::<Acs>(i).unwrap();
            let shares = acs.vss.iter().filter(|v| v.shares.is_some()).count();
            let outputs = acs.bas.iter().filter(|b| b.output.is_some()).count();
            let bound = shares + outputs + 1;
            assert!(acs.drives <= bound, "party {i}: {} > {bound}", acs.drives);
        }
    }

    #[test]
    fn drive_runs_only_on_progress_sync() {
        drives_only_on_progress(NetConfig::synchronous(4));
    }

    #[test]
    fn drive_runs_only_on_progress_async() {
        drives_only_on_progress(NetConfig::asynchronous(4).with_seed(5));
    }

    /// Party 1's `Π_ACS` (n = 4) after `init`, and sender 3's batch slot
    /// `k` there: `2t_s + 1` `Ready`s of `value`.
    fn deliver_batch_at(acs: &mut Acs, k: usize, value: BcValue) {
        let (n, ts, delta) = (acs.params.n, acs.params.ts, acs.params.delta);
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(1, n, 0, delta, &mut effects, &mut rng, 0);
        let seg = ACS.segment(n, Name::Batch, k * n + 3);
        let ready = Msg::Acast(AcastMsg::Ready(value));
        for from in 0..=2 * ts {
            acs.on_event(&mut ctx, &[seg], Event::Message(from, &ready));
        }
    }

    /// A corrupt sender's batches change no board and grow no state but
    /// the slot table, whose size is fixed by the family.
    #[test]
    fn hostile_vote_batch_without_state_growth() {
        let params = Params::new(4, 1, 0, 10);
        let n = params.n;
        let mut rng = StdRng::seed_from_u64(80);
        let poly = Polynomial::random_with_constant_term(&mut rng, params.ts, Fp::from_u64(1));
        let mut acs = Acs::new(params, vec![poly]);
        let mut effects = Effects::new();
        let mut ctx = Context::new(1, n, 0, params.delta, &mut effects, &mut rng, 0);
        Node::init(&mut acs, &mut ctx);
        let slots = ACS.size(n, Name::Batch);
        let late_votes = slots / n; // n · (n² + n): n per board
        assert_eq!(late_votes, 80);
        // Boards: `Π_VSS` j's at j·(n + 1), its `Π_WPS` k's at j·(n + 1) + 1 + k.
        let (vss1, vss0_wps2, vss2) = (n + 1, 3, 2 * (n + 1));
        let wps = |k| VSS.segment(n, Name::Wps, k);
        assert_eq!(ACS.board_path(n, vss0_wps2), Some(vec![0, wps(2)]));
        let ok = |board: usize, k: usize| (board * n + k) as u32;
        let boards = |acs: &Acs| format!("{:?}", acs.vss);

        let before = boards(&acs);
        let honest = vec![ok(vss1, 2), ok(vss0_wps2, 2)];
        deliver_batch_at(&mut acs, 0, BcValue::VoteBatch(honest));
        let folded = boards(&acs);
        assert_ne!(folded, before, "a batch that counts is folded");

        // A vote is `board · n + counterpart`: a counterpart ≥ n has no
        // encoding, and a board past the last takes the values from
        // `boards · n` up.
        let unknown = (ACS.boards(n) * n) as u32;
        let hostile = [
            vec![unknown, unknown + 5, u32::MAX],
            // Repeats, within the batch and of the batch before.
            vec![ok(vss1, 2), ok(vss1, 2)],
            // One vote longer than a party's late votes, its first new.
            [vec![ok(vss2, 0)], vec![ok(vss1, 2); late_votes]].concat(),
        ];
        let mut k = 1;
        for batch in hostile {
            deliver_batch_at(&mut acs, k, BcValue::VoteBatch(batch));
            assert_eq!(boards(&acs), folded, "batch {k}");
            k += 1;
        }
        // Values that are no vote batch, in the batch family.
        for value in [BcValue::Votes(vec![(0, Vote::Ok)]), BcValue::Bit(true)] {
            deliver_batch_at(&mut acs, k, value);
            assert_eq!(boards(&acs), folded, "batch {k}");
            k += 1;
        }
        let table = acs.side.table_len();
        assert_eq!(table, (k - 1) * n + 4, "sender 3's slots 0..k");
        // A slot past the family's end is a stray path: dropped by routing.
        let fresh = BcValue::VoteBatch(vec![ok(vss2, 0)]);
        deliver_batch_at(&mut acs, late_votes, fresh);
        assert_eq!(boards(&acs), folded);
        assert_eq!(acs.side.table_len(), table, "no slot past the family");
        assert!(table <= slots);
    }

    #[test]
    fn sync_all_honest_dealers_in_cs() {
        let params = Params::new(4, 1, 0, 10);
        let mut rng = StdRng::seed_from_u64(77);
        let (parties, polys) = make_parties(params, &mut rng);
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::none(),
            parties,
        );
        let done = sim.run_until(params.t_acs() * 4, |s| {
            (0..params.n).all(|i| s.party_as::<Acs>(i).unwrap().ready())
        });
        assert!(done, "ACS must complete in a synchronous network");
        let cs0 = sim
            .party_as::<Acs>(0)
            .unwrap()
            .common_subset
            .clone()
            .unwrap();
        assert!(cs0.len() >= params.n - params.ts);
        // all honest parties (everyone here) must be in CS in a sync network
        assert_eq!(cs0, (0..params.n).collect::<Vec<_>>());
        for i in 0..params.n {
            let acs = sim.party_as::<Acs>(i).unwrap();
            assert_eq!(acs.common_subset.clone().unwrap(), cs0, "common CS");
            for &j in &cs0 {
                assert_eq!(acs.shares_from(j).unwrap()[0], polys[j].evaluate(alpha(i)));
            }
        }
    }

    #[test]
    fn async_common_subset_is_agreed_despite_silent_party() {
        let params = Params::new(5, 1, 1, 10);
        let mut rng = StdRng::seed_from_u64(78);
        let (mut parties, polys) = make_parties(params, &mut rng);
        // party 4 is corrupt and silent: replace with a do-nothing protocol
        parties[4] = Box::new(crate::byzantine::SilentParty);
        let corrupt = CorruptionSet::new(vec![4]);
        let mut sim = Simulation::new(
            NetConfig::asynchronous(params.n).with_seed(3),
            corrupt.clone(),
            parties,
        );
        let done = sim.run_until(200_000_000, |s| {
            (0..4).all(|i| s.party_as::<Acs>(i).unwrap().ready())
        });
        assert!(
            done,
            "ACS must eventually complete in an asynchronous network"
        );
        let cs0 = sim
            .party_as::<Acs>(0)
            .unwrap()
            .common_subset
            .clone()
            .unwrap();
        assert!(cs0.len() >= params.n - params.ts);
        assert!(!cs0.contains(&4), "a silent dealer cannot enter CS");
        for i in 0..4 {
            let acs = sim.party_as::<Acs>(i).unwrap();
            assert_eq!(acs.common_subset.clone().unwrap(), cs0);
            for &j in &cs0 {
                assert_eq!(acs.shares_from(j).unwrap()[0], polys[j].evaluate(alpha(i)));
            }
        }
    }
}
