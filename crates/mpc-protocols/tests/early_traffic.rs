//! Traffic that reaches a timed child before its start tick.
//!
//! `Π_BA` starts its `Π_ABA` at `T_BC`, `Π_ACS` its `Π_BA`s at `T_VSS`, the
//! dealer-verification core of `Π_WPS`/`Π_VSS` its `(W, E, F)` broadcast and
//! `Π_BA` one and two `T_BC` after the votes, `Π_VSS` its `Π_WPS` instances
//! at `Δ`. Each such child exists from its parent's construction and is only
//! `init`-ed at its start tick (DESIGN.md), so early traffic is tallied by
//! the child itself: what one sender can make an instance keep is what the
//! child keeps per sender, however much it sends — there is no replay buffer
//! in between to grow. This test floods every such child early and checks
//! exactly that, plus that the flood changes no honest output.

use std::any::Any;
use std::fmt::Debug;

use mpc_algebra::{Fp, Polynomial};
use mpc_net::{
    Context, CorruptionSet, FixedDelay, NetConfig, PartyId, PathSlice, Protocol, Simulation, Time,
};
use mpc_protocols::acs::Acs;
use mpc_protocols::ba::Ba;
use mpc_protocols::byzantine::SilentParty;
use mpc_protocols::vss::Vss;
use mpc_protocols::wps::Wps;
use mpc_protocols::{AbaMsg, AcastMsg, BcValue, Msg, Params};

/// A corrupt party that, at tick 0, sends `copies` rounds of well-formed
/// messages to every party at every instance path `child ++ sub`, for the
/// sub-paths of the child itself, its first child and first grandchild.
struct EarlyFlood {
    children: Vec<Vec<u32>>,
    copies: usize,
}

fn broadcast_at(ctx: &mut Context<'_, Msg>, path: &[u32], msg: Msg) {
    match path.split_first() {
        None => ctx.broadcast(msg),
        Some((&seg, rest)) => ctx.scoped(seg, |ctx| broadcast_at(ctx, rest, msg)),
    }
}

impl Protocol<Msg> for EarlyFlood {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let bit = BcValue::Bit(true);
        let msgs = [
            Msg::Acast(AcastMsg::Send(bit.clone())),
            Msg::Acast(AcastMsg::Echo(bit.clone())),
            Msg::Acast(AcastMsg::Ready(bit)),
            Msg::Aba(AbaMsg::Finish { value: true }),
            Msg::RowPolys(vec![vec![Fp::from_u64(1), Fp::from_u64(2)]]),
            Msg::Points(vec![Fp::from_u64(7)]),
        ];
        for _ in 0..self.copies {
            for child in &self.children {
                for sub in [&[][..], &[0], &[0, 0]] {
                    for msg in &msgs {
                        broadcast_at(ctx, &[child, sub].concat(), msg.clone());
                    }
                }
            }
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: PartyId, _: PathSlice<'_>, _: Msg) {}
    fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: PathSlice<'_>, _: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const PARAMS: Params = Params {
    n: 4,
    ts: 1,
    ta: 0,
    delta: 10,
};

/// Runs honest `make(i)` parties with party 3 corrupt — silent for
/// `copies = 0`, else flooding `children` — on a network that delivers every
/// message after one tick, so the flood lands at tick 1, before any timed
/// child starts. Returns every honest party's state at tick `Δ − 1` (still
/// before any start) and its `output` at quiescence.
fn run<P: Protocol<Msg> + Debug, O>(
    make: &impl Fn(PartyId) -> P,
    children: &[Vec<u32>],
    copies: usize,
    output: &impl Fn(&P) -> Option<O>,
) -> (Vec<String>, Vec<Option<O>>) {
    let honest = 0..PARAMS.n - 1;
    let mut parties: Vec<Box<dyn Protocol<Msg>>> = honest
        .clone()
        .map(|i| Box::new(make(i)) as Box<dyn Protocol<Msg>>)
        .collect();
    parties.push(match copies {
        0 => Box::new(SilentParty),
        _ => Box::new(EarlyFlood {
            children: children.to_vec(),
            copies,
        }),
    });
    let mut sim = Simulation::with_scheduler(
        NetConfig::synchronous(PARAMS.n),
        CorruptionSet::new(vec![PARAMS.n - 1]),
        Box::new(FixedDelay(1)),
        parties,
    );
    let probe: Time = PARAMS.delta - 1;
    sim.run_until(probe, |s| s.now() >= probe);
    fn party<P: 'static>(sim: &Simulation<Msg>, i: PartyId) -> &P {
        sim.party_as::<P>(i).expect("party type")
    }
    let states = honest
        .clone()
        .map(|i| format!("{:?}", party::<P>(&sim, i)))
        .collect();
    sim.run_to_quiescence(PARAMS.t_acs() * 4);
    (states, honest.map(|i| output(party(&sim, i))).collect())
}

fn assert_early_flood_is_bounded<P: Protocol<Msg> + Debug, O: Debug + PartialEq>(
    label: &str,
    children: Vec<Vec<u32>>,
    make: impl Fn(PartyId) -> P,
    output: impl Fn(&P) -> Option<O>,
) {
    let (_, silent) = run(&make, &children, 0, &output);
    assert!(silent.iter().all(Option::is_some), "{label}: must finish");
    let (once_state, once) = run(&make, &children, 1, &output);
    let (many_state, many) = run(&make, &children, 40, &output);
    assert_eq!(once_state, many_state, "{label}: state grew with the flood");
    assert_eq!(once, silent, "{label}: a flood changed an honest output");
    assert_eq!(many, silent, "{label}: a flood changed an honest output");
}

#[test]
fn early_traffic_for_timed_children_is_bounded_per_sender() {
    let n = PARAMS.n as u32;
    let poly =
        |i: PartyId| Polynomial::from_coeffs(vec![Fp::from_u64(10 + i as u64), Fp::from_u64(3)]);

    assert_early_flood_is_bounded(
        "ba → aba",
        vec![vec![n]],
        |_| Ba::new(PARAMS.ts, PARAMS, Some(true)),
        |p: &Ba| p.output,
    );
    assert_early_flood_is_bounded(
        "acs → bas",
        (n..2 * n).map(|seg| vec![seg]).collect(),
        |i| Acs::new(PARAMS, vec![poly(i)]),
        |p: &Acs| p.common_subset.clone(),
    );
    assert_early_flood_is_bounded(
        "wps → (W, E, F) broadcast, ba",
        vec![vec![0], vec![1]],
        |i| match i {
            0 => Wps::new_dealer(0, PARAMS, vec![poly(0)]),
            _ => Wps::new(0, PARAMS, 1),
        },
        |p: &Wps| p.shares.clone(),
    );
    assert_early_flood_is_bounded(
        "vss → wps instances, (W, E, F) broadcast, ba",
        (0..n + 2).map(|seg| vec![seg]).collect(),
        |i| match i {
            0 => Vss::new_dealer(0, PARAMS, vec![poly(0)]),
            _ => Vss::new(0, PARAMS, 1),
        },
        |p: &Vss| p.shares.clone(),
    );
}
