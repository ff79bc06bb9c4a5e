//! Adversarial party implementations used by tests and experiments.
//!
//! The simulator's corruption model is *behavioural*: a corrupt party simply
//! runs a different root protocol. This module collects the misbehaviours the
//! test-suite and the experiments inject.

use std::any::Any;

use mpc_algebra::evaluation_points::alpha;
use mpc_algebra::{Fp, SymmetricBivariate};
use mpc_net::{Context, PartyId, PathSlice, Protocol};

use crate::msg::{AcastMsg, BcValue, Msg};

/// A crashed party: never sends anything, ignores everything.
#[derive(Debug, Default)]
pub struct SilentParty;

impl<M: 'static> Protocol<M> for SilentParty {
    fn init(&mut self, _ctx: &mut Context<'_, M>) {}
    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, M>,
        _from: PartyId,
        _path: PathSlice<'_>,
        _msg: M,
    ) {
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _path: PathSlice<'_>, _id: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An A-cast sender that equivocates: it sends `value_a` to the first half of
/// the parties and `value_b` to the rest, then goes silent. Bracha's protocol
/// must prevent two honest parties from delivering different values.
#[derive(Debug)]
pub struct EquivocatingAcastSender {
    /// Value sent to the lower-indexed half.
    pub value_a: BcValue,
    /// Value sent to the higher-indexed half.
    pub value_b: BcValue,
}

impl Protocol<Msg> for EquivocatingAcastSender {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let n = ctx.n;
        for i in 0..n {
            let v = if i < n / 2 {
                self.value_a.clone()
            } else {
                self.value_b.clone()
            };
            ctx.send(i, Msg::Acast(AcastMsg::Send(v)));
        }
    }
    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, Msg>,
        _from: PartyId,
        _path: PathSlice<'_>,
        _msg: Msg,
    ) {
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _path: PathSlice<'_>, _id: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A corrupt WPS/VSS dealer. It deals the rows itself — of one random
/// symmetric bivariate polynomial of degree `degree` per shared polynomial,
/// or with `split` of *two different* ones (one half of the parties gets rows
/// of the first, the other half rows of the second) — A-casts `star`, if
/// any, as the value of the dealer's star A-cast at child segment `.0`, and
/// otherwise takes part as `inner` does: [`SilentParty`] to stay silent, or
/// an honest *participant* instance naming this party as dealer, which
/// exchanges points, votes and runs the `Π_BA` but never publishes a
/// `(W, E, F)` (it did not deal). Honest parties must either produce no
/// output at all or outputs that lie on a single degree-`t_s` polynomial.
pub struct HostileDealer {
    /// Degree of the bivariate polynomials (`t_s` for an honest dealer).
    pub degree: usize,
    /// Number of polynomials to pretend to share.
    pub l_count: usize,
    /// Whether the two halves of the parties get unrelated rows.
    pub split: bool,
    /// `(child segment, value)` A-cast by this party at the start.
    pub star: Option<(u32, BcValue)>,
    /// What the dealer does besides.
    pub inner: Box<dyn Protocol<Msg>>,
}

impl Protocol<Msg> for HostileDealer {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let n = ctx.n;
        let mut sample = || -> Vec<SymmetricBivariate> {
            (0..self.l_count)
                .map(|_| SymmetricBivariate::random(ctx.rng(), self.degree))
                .collect()
        };
        let sources = [sample(), sample()];
        for i in 0..n {
            let source = &sources[usize::from(self.split && i >= n / 2)];
            let rows: Vec<Vec<Fp>> = source
                .iter()
                .map(|f| f.row(alpha(i)).coeffs().to_vec())
                .collect();
            ctx.send(i, Msg::RowPolys(rows));
        }
        if let Some((seg, value)) = self.star.clone() {
            ctx.scoped(seg, |ctx| ctx.broadcast(Msg::Acast(AcastMsg::Send(value))));
        }
        self.inner.init(ctx);
    }
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        self.inner.on_message(ctx, from, path, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        self.inner.on_timer(ctx, path, id);
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
    use crate::acast::Acast;
    use crate::params::Params;
    use crate::vss::Vss;
    use crate::wps::Wps;
    use mpc_algebra::Polynomial;
    use mpc_net::{CorruptionSet, NetConfig, Simulation};

    #[test]
    fn equivocating_acast_sender_cannot_split_honest_parties() {
        let n = 7;
        let t = 2;
        let mut parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|_| Box::new(Acast::new(0, n, t)) as Box<dyn Protocol<Msg>>)
            .collect();
        parties[0] = Box::new(EquivocatingAcastSender {
            value_a: BcValue::Bit(false),
            value_b: BcValue::Bit(true),
        });
        let mut sim = Simulation::new(
            NetConfig::synchronous(n),
            CorruptionSet::new(vec![0]),
            parties,
        );
        sim.run_to_quiescence(100_000);
        let outputs: Vec<Option<BcValue>> = (1..n)
            .map(|i| sim.party_as::<Acast>(i).unwrap().output.clone())
            .collect();
        let delivered: Vec<&BcValue> = outputs.iter().flatten().collect();
        // consistency: no two honest parties deliver different values
        assert!(delivered.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn equivocating_sender_cannot_split_bc_outputs() {
        // Π_BC consistency for a corrupt sender: at T_BC all honest parties
        // hold the same regular-mode output (a common value or ⊥), and any
        // fallback switches only ever converge on one value.
        let params = Params::new(7, 2, 0, 10);
        let mut parties: Vec<Box<dyn Protocol<Msg>>> = (0..params.n)
            .map(|_| Box::new(crate::bc::Bc::new(0, params.ts, params)) as Box<dyn Protocol<Msg>>)
            .collect();
        parties[0] = Box::new(EquivocatingAcastSender {
            value_a: BcValue::Bit(false),
            value_b: BcValue::Bit(true),
        });
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![0]),
            parties,
        );
        sim.run_to_quiescence(params.t_bc() * 4);
        let regular: Vec<Option<Option<BcValue>>> = (1..params.n)
            .map(|i| {
                let bc = sim.party_as::<crate::bc::Bc>(i).unwrap();
                bc.slot(0).unwrap().regular_output.clone()
            })
            .collect();
        assert!(regular.iter().all(|o| o.is_some()), "liveness at T_BC");
        assert!(
            regular.windows(2).all(|w| w[0] == w[1]),
            "t-consistency for a corrupt sender"
        );
        let final_values: Vec<&BcValue> = (1..params.n)
            .filter_map(|i| sim.party_as::<crate::bc::Bc>(i).unwrap().value())
            .collect();
        assert!(
            final_values.windows(2).all(|w| w[0] == w[1]),
            "fallback consistency"
        );
    }

    #[test]
    fn silent_king_does_not_break_phase_king_agreement() {
        // The phase king of the first phase is corrupt (silent); agreement
        // must still hold thanks to the later honest-king phases.
        let n = 7;
        let t = 2;
        let mut parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let input = Some(BcValue::Bit(i % 2 == 0));
                Box::new(crate::sba::Sba::new(n, t, input)) as Box<dyn Protocol<Msg>>
            })
            .collect();
        parties[0] = Box::new(SilentParty); // party 0 is the king of phase 0
        let corrupt = CorruptionSet::new(vec![0]);
        let mut sim = Simulation::new(NetConfig::synchronous(n), corrupt, parties);
        sim.run_to_quiescence(100_000);
        let outs: Vec<_> = (1..n)
            .map(|i| {
                sim.party_as::<crate::sba::Sba>(i)
                    .unwrap()
                    .outputs()
                    .unwrap()[0]
                    .clone()
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "honest outputs must agree"
        );
    }

    /// Runs `dealer` as the corrupt party 0 against honest `make()` parties
    /// at n = 4 (t_s = 1, t_a = 0) on a synchronous network, to quiescence.
    fn run_against<P: Protocol<Msg>>(
        dealer: HostileDealer,
        make: impl Fn() -> P,
    ) -> Simulation<Msg> {
        let params = Params::new(4, 1, 0, 10);
        let mut parties: Vec<Box<dyn Protocol<Msg>>> = vec![Box::new(dealer)];
        parties.extend((1..params.n).map(|_| Box::new(make()) as Box<dyn Protocol<Msg>>));
        let cfg = NetConfig::synchronous(params.n);
        let mut sim = Simulation::new(cfg, CorruptionSet::new(vec![0]), parties);
        sim.run_to_quiescence(params.t_vss() * 4);
        sim
    }

    /// Commitment: either nobody outputs, or every honest output lies on one
    /// degree-`t_s` polynomial.
    fn assert_on_one_polynomial(params: Params, share: impl Fn(PartyId) -> Option<Fp>) {
        let Params { n, ts, .. } = params;
        // Interpolate through the shared evaluation domain's cached points,
        // like the protocols themselves do.
        let domain = mpc_algebra::EvalDomain::get(n);
        let pts: Vec<(Fp, Fp)> = (1..n)
            .filter_map(|i| Some((domain.alpha(i), share(i)?)))
            .collect();
        if pts.len() > ts + 1 {
            let poly = Polynomial::interpolate(&pts[..ts + 1]);
            for &(x, y) in &pts {
                assert_eq!(poly.evaluate(x), y, "honest shares on one polynomial");
            }
        }
    }

    fn dealer(degree: usize, split: bool, inner: Box<dyn Protocol<Msg>>) -> HostileDealer {
        HostileDealer {
            degree,
            l_count: 1,
            split,
            star: None,
            inner,
        }
    }

    #[test]
    fn inconsistent_vss_dealer_cannot_break_commitment() {
        let params = Params::new(4, 1, 0, 10);
        // Over-degree rows used to panic every honest party when it re-dealt
        // its row through its own Π_WPS ("secret polynomial degree exceeds
        // bivariate degree"); they are now dropped where they enter.
        for degree in [params.ts, params.ts + 1] {
            let sim = run_against(dealer(degree, true, Box::new(SilentParty)), || {
                Vss::new(0, params, 1)
            });
            let share = |i| Some(sim.party_as::<Vss>(i)?.shares.as_ref()?[0]);
            assert_on_one_polynomial(params, share);
        }
    }

    #[test]
    fn over_degree_wps_dealer_cannot_break_commitment() {
        // A dealer that shares a degree-(t_s + 1) polynomial consistently
        // and then plays along: before rows were degree-checked all three
        // honest parties accepted it (star path) with shares on no
        // degree-t_s polynomial, against Theorem 4.8.
        let params = Params::new(4, 1, 0, 10);
        let inner = Box::new(Wps::new(0, params, 1));
        let sim = run_against(dealer(params.ts + 1, false, inner), || {
            Wps::new(0, params, 1)
        });
        let share = |i| Some(sim.party_as::<Wps>(i)?.shares.as_ref()?[0]);
        assert_on_one_polynomial(params, share);
    }

    #[test]
    fn out_of_range_star_index_is_rejected_not_indexed() {
        // The dealer deals consistent rows, votes, stays silent on
        // (W, E, F) and A-casts a star naming party n²: on the complete
        // consistency graph the star check used to index the adjacency
        // matrix out of range (`star.rs`, `has_edge`). Now the published
        // set is rejected and nobody ever outputs.
        let params = Params::new(4, 1, 0, 10);
        let n = params.n as u32;
        let set = vec![0, 1, 2, 3, n * n];
        let hostile = |star_seg, inner| HostileDealer {
            star: Some((
                star_seg,
                BcValue::Star {
                    e: set.clone(),
                    f: set.clone(),
                },
            )),
            ..dealer(params.ts, false, inner)
        };
        let sim = run_against(hostile(2, Box::new(Wps::new(0, params, 1))), || {
            Wps::new(0, params, 1)
        });
        assert!((1..params.n).all(|i| sim.party_as::<Wps>(i).unwrap().shares.is_none()));
        let sim = run_against(hostile(n + 2, Box::new(Vss::new(0, params, 1))), || {
            Vss::new(0, params, 1)
        });
        assert!((1..params.n).all(|i| sim.party_as::<Vss>(i).unwrap().shares.is_none()));
    }
}
