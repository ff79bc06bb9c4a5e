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

/// A WPS/VSS dealer that distributes row polynomials drawn from *two
/// different* symmetric bivariate polynomials (one half of the parties gets
/// rows of the first, the other half rows of the second) and otherwise stays
/// silent. Honest parties must either produce no output at all or outputs
/// that lie on a single degree-`t_s` polynomial.
#[derive(Debug)]
pub struct InconsistentRowsDealer {
    /// Degree of the sharing polynomials (`t_s`).
    pub degree: usize,
    /// Number of polynomials to pretend to share.
    pub l_count: usize,
}

impl Protocol<Msg> for InconsistentRowsDealer {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let n = ctx.n;
        let a: Vec<SymmetricBivariate> = (0..self.l_count)
            .map(|_| SymmetricBivariate::random(ctx.rng(), self.degree))
            .collect();
        let b: Vec<SymmetricBivariate> = (0..self.l_count)
            .map(|_| SymmetricBivariate::random(ctx.rng(), self.degree))
            .collect();
        for i in 0..n {
            let source = if i < n / 2 { &a } else { &b };
            let rows: Vec<Vec<Fp>> = source
                .iter()
                .map(|f| f.row(alpha(i)).coeffs().to_vec())
                .collect();
            ctx.send(i, Msg::RowPolys(rows));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acast::Acast;
    use crate::params::Params;
    use crate::vss::Vss;
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

    #[test]
    fn inconsistent_vss_dealer_cannot_break_commitment() {
        let params = Params::new(4, 1, 0, 10);
        let mut parties: Vec<Box<dyn Protocol<Msg>>> = (0..params.n)
            .map(|_| Box::new(Vss::new(0, params, 1)) as Box<dyn Protocol<Msg>>)
            .collect();
        parties[0] = Box::new(InconsistentRowsDealer {
            degree: params.ts,
            l_count: 1,
        });
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![0]),
            parties,
        );
        sim.run_to_quiescence(params.t_vss() * 4);
        // Strong commitment: either nobody outputs, or every honest output
        // lies on one degree-t_s polynomial.
        let outputs: Vec<(usize, Fp)> = (1..params.n)
            .filter_map(|i| {
                sim.party_as::<Vss>(i)
                    .unwrap()
                    .shares
                    .as_ref()
                    .map(|s| (i, s[0]))
            })
            .collect();
        if outputs.len() > params.ts + 1 {
            // Interpolate through the shared evaluation domain's cached
            // points, like the protocols themselves do.
            let domain = mpc_algebra::EvalDomain::get(params.n);
            let pts: Vec<(Fp, Fp)> = outputs.iter().map(|&(i, s)| (domain.alpha(i), s)).collect();
            let poly = Polynomial::interpolate(&pts[..params.ts + 1]);
            for &(x, y) in &pts {
                assert_eq!(
                    poly.evaluate(x),
                    y,
                    "honest shares must lie on one polynomial"
                );
            }
        }
    }
}
