//! `Π_ACS` — agreement on a common subset (Fig 5, Lemma 5.1).
//!
//! Every party shares `L` polynomials of degree `t_s` through its own `Π_VSS`
//! instance; `n` `Π_BA` instances then decide which dealers make it into the
//! common subset `CS` (`|CS| ≥ n − t_s`, containing every honest party in a
//! synchronous network). Every honest party eventually holds its points on
//! the polynomials of every party in `CS`. The `Π_BA` instances exist from
//! construction and are `init`-ed at `T_VSS` (DESIGN.md "Timed children exist
//! from construction").

use std::any::Any;

use mpc_algebra::{Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::ba::Ba;
use crate::msg::Msg;
use crate::params::Params;
use crate::vss::Vss;

const TIMER_START_BAS: u64 = 10;

/// One instance of `Π_ACS` where every party inputs `L` polynomials.
#[derive(Debug)]
pub struct Acs {
    params: Params,
    l_count: usize,
    my_polys: Vec<Polynomial>,
    vss: Vec<Vss>,
    bas: Vec<Ba>,
    bas_started: bool,
    voted_zero_rest: bool,
    /// The agreed common subset of dealers, once all `n` BA instances decided.
    pub common_subset: Option<Vec<PartyId>>,
    /// Local time at which `CS` was fixed.
    pub output_at: Option<Time>,
}

impl Acs {
    /// Creates an instance with this party's own input polynomials (each of
    /// degree ≤ `t_s`).
    pub fn new(params: Params, my_polys: Vec<Polynomial>) -> Self {
        let l_count = my_polys.len();
        Acs {
            params,
            l_count,
            my_polys,
            vss: Vec::new(),
            bas: (0..params.n)
                .map(|_| Ba::new(params.ts, params, None))
                .collect(),
            bas_started: false,
            voted_zero_rest: false,
            common_subset: None,
            output_at: None,
        }
    }

    fn seg_vss(j: PartyId) -> u32 {
        j as u32
    }
    fn seg_ba(&self, j: PartyId) -> u32 {
        (self.params.n + j) as u32
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

    fn drive(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.bas_started {
            return;
        }
        // provide input 1 to the BA of every dealer whose VSS has delivered
        for j in 0..self.params.n {
            if self.vss[j].shares.is_some() && !self.bas[j].has_input() {
                let seg = self.seg_ba(j);
                let ba = &mut self.bas[j];
                ctx.scoped(seg, |ctx| ba.provide_input(ctx, true));
            }
        }
        // once n - t_s BA instances output 1, vote 0 in all remaining ones
        let ones = self.bas.iter().filter(|b| b.output == Some(true)).count();
        if ones >= self.params.n - self.params.ts && !self.voted_zero_rest {
            self.voted_zero_rest = true;
            for j in 0..self.params.n {
                if !self.bas[j].has_input() {
                    let seg = self.seg_ba(j);
                    let ba = &mut self.bas[j];
                    ctx.scoped(seg, |ctx| ba.provide_input(ctx, false));
                }
            }
        }
        // all BAs decided → CS is fixed
        if self.common_subset.is_none() && self.bas.iter().all(|b| b.output.is_some()) {
            let cs: Vec<PartyId> = (0..self.params.n)
                .filter(|&j| self.bas[j].output == Some(true))
                .collect();
            self.common_subset = Some(cs);
            self.output_at = Some(ctx.now);
        }
    }
}

impl Protocol<Msg> for Acs {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = ctx.me;
        for j in 0..self.params.n {
            let mut v = if j == me {
                Vss::new_dealer(j, self.params, self.my_polys.clone())
            } else {
                Vss::new(j, self.params, self.l_count)
            };
            ctx.scoped(Self::seg_vss(j), |ctx| v.init(ctx));
            self.vss.push(v);
        }
        ctx.set_timer(self.params.t_vss(), TIMER_START_BAS);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let n = self.params.n;
        let Some(&seg) = path.first() else { return };
        if (seg as usize) < n {
            let vss = &mut self.vss[seg as usize];
            ctx.scoped(seg, |ctx| vss.on_message(ctx, from, &path[1..], msg));
        } else if (seg as usize) < 2 * n {
            let ba = &mut self.bas[seg as usize - n];
            ctx.scoped(seg, |ctx| ba.on_message(ctx, from, &path[1..], msg));
        }
        self.drive(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        let n = self.params.n;
        match path.first() {
            None if id == TIMER_START_BAS => {
                for j in 0..n {
                    let (seg, ba) = (self.seg_ba(j), &mut self.bas[j]);
                    ctx.scoped(seg, |ctx| ba.init(ctx));
                }
                self.bas_started = true;
                self.drive(ctx);
            }
            Some(&seg) if (seg as usize) < n => {
                let vss = &mut self.vss[seg as usize];
                ctx.scoped(seg, |ctx| vss.on_timer(ctx, &path[1..], id));
                self.drive(ctx);
            }
            Some(&seg) if (seg as usize) < 2 * n => {
                let ba = &mut self.bas[seg as usize - n];
                ctx.scoped(seg, |ctx| ba.on_timer(ctx, &path[1..], id));
                self.drive(ctx);
            }
            _ => {}
        }
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
    use mpc_algebra::evaluation_points::alpha;
    use mpc_net::{CorruptionSet, NetConfig, Simulation};
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
