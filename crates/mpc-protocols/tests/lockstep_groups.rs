//! Lock-step broadcast groups and SBA clusters (DESIGN.md): a `k`-slot SBA
//! is, slot for slot, `k` one-slot SBAs; a group's slots stay consistent
//! whatever values corrupt parties put into the SBA cluster they take part
//! in; and a root really does run one SBA cluster per start tick of its
//! broadcasts.

use std::any::Any;
use std::collections::BTreeMap;

use mpc_algebra::{Fp, Polynomial};
use mpc_net::{
    Context, CorruptionSet, NetConfig, PartyId, PathSlice, Protocol, Simulation, Time, UniformDelay,
};
use mpc_protocols::acast::Acast;
use mpc_protocols::ba::Ba;
use mpc_protocols::bc::{Bc, BC};
use mpc_protocols::msg::SbaValue;
use mpc_protocols::sba::Sba;
use mpc_protocols::tree::Name;
use mpc_protocols::vss::Vss;
use mpc_protocols::{BcValue, Msg, Params, SbaMsg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Equivalence: one k-slot instance vs k one-slot instances
// ---------------------------------------------------------------------------

/// A corrupt party that sends a fixed, per-recipient script of SBA messages
/// at the protocol's round boundaries (`script[round id][recipient]`, `None`
/// = silent towards that recipient in that round).
struct Scripted {
    script: Vec<Vec<Option<SbaMsg>>>,
}

impl Protocol<Msg> for Scripted {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        for id in 0..self.script.len() as u64 {
            ctx.set_timer(id * ctx.delta, id);
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: PartyId, _: PathSlice<'_>, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: PathSlice<'_>, id: u64) {
        for (to, msg) in self.script[id as usize].iter().enumerate() {
            if let Some(msg) = msg {
                ctx.send(to, Msg::Sba(msg.clone()));
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn arb_value(rng: &mut StdRng) -> SbaValue {
    match rng.gen_range(0..3u8) {
        0 => None,
        1 => Some(BcValue::Bit(false)),
        _ => Some(BcValue::Bit(true)),
    }
}

/// One slot's honest inputs: unanimous, split, all `⊥`, or arbitrary.
fn arb_slot_inputs(rng: &mut StdRng, n: usize) -> Vec<SbaValue> {
    match rng.gen_range(0..4u8) {
        0 => vec![arb_value(rng); n],
        1 => (0..n).map(|i| Some(BcValue::Bit(i % 2 == 0))).collect(),
        2 => vec![None; n],
        _ => (0..n).map(|_| arb_value(rng)).collect(),
    }
}

/// A `k`-slot script for one corrupt party: every round, towards every
/// recipient, silence or an envelope with an independent entry per slot
/// (so it equivocates both across recipients and across slots), each entry
/// drawn by `value`.
fn arb_script(
    rng: &mut StdRng,
    n: usize,
    t: usize,
    k: usize,
    value: fn(&mut StdRng) -> SbaValue,
) -> Vec<Vec<Option<SbaMsg>>> {
    (0..3 * (t + 1))
        .map(|id| {
            let phase = (id / 3) as u32;
            (0..n)
                .map(|_| {
                    if rng.gen_range(0..4u8) == 0 {
                        return None;
                    }
                    Some(match id % 3 {
                        0 => SbaMsg::Round1Slots {
                            phase,
                            values: (0..k).map(|_| value(rng)).collect(),
                        },
                        1 => SbaMsg::Round2Slots {
                            phase,
                            candidates: (0..k)
                                .map(|_| (rng.gen_range(0..3u8) > 0).then(|| value(rng)))
                                .collect(),
                        },
                        _ => SbaMsg::KingSlots {
                            phase,
                            values: (0..k).map(|_| value(rng)).collect(),
                        },
                    })
                })
                .collect()
        })
        .collect()
}

/// What the one-slot reference instance for `slot` is sent in place of a
/// `k`-slot envelope: that slot's entry, in the scalar wire form.
fn project(msg: &SbaMsg, slot: usize) -> SbaMsg {
    match msg {
        SbaMsg::Round1Slots { phase, values } => SbaMsg::Round1 {
            phase: *phase,
            value: values[slot].clone(),
        },
        SbaMsg::Round2Slots { phase, candidates } => SbaMsg::Round2 {
            phase: *phase,
            candidate: candidates[slot].clone(),
        },
        SbaMsg::KingSlots { phase, values } => SbaMsg::King {
            phase: *phase,
            value: values[slot].clone(),
        },
        scalar => scalar.clone(),
    }
}

type Script = Vec<Vec<Option<SbaMsg>>>;

/// Runs one SBA among `n` parties (`inputs[party][slot]`; the parties of
/// `scripts` are corrupt and follow their script) and returns every honest
/// party's outputs and output time.
fn run_sba(
    n: usize,
    t: usize,
    seed: u64,
    inputs: &[Vec<SbaValue>],
    scripts: &BTreeMap<PartyId, Script>,
) -> Vec<(Vec<SbaValue>, u64)> {
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| match scripts.get(&i) {
            Some(script) => Box::new(Scripted {
                script: script.clone(),
            }) as Box<dyn Protocol<Msg>>,
            None => Box::new(Sba::with_slots(n, t, inputs[i].clone())),
        })
        .collect();
    let corrupt = CorruptionSet::new(scripts.keys().copied().collect());
    let cfg = NetConfig::synchronous(n).with_seed(seed);
    let mut sim = Simulation::new(cfg, corrupt, parties);
    sim.run_to_quiescence(100_000);
    (0..n)
        .filter(|i| !scripts.contains_key(i))
        .map(|i| {
            let sba = sim.party_as::<Sba>(i).unwrap();
            let outputs = sba.outputs().expect("liveness at T_BGP").to_vec();
            (outputs, sba.output_at.unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn k_slot_sba_equals_k_one_slot_sbas(seed in any::<u64>()) {
        let (n, t) = (7usize, 2usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let k = [1, 3, n][rng.gen_range(0..3usize)];
        let slot_inputs: Vec<Vec<SbaValue>> =
            (0..k).map(|_| arb_slot_inputs(&mut rng, n)).collect();
        let inputs: Vec<Vec<SbaValue>> = (0..n)
            .map(|i| slot_inputs.iter().map(|slot| slot[i].clone()).collect())
            .collect();
        // up to t corrupt parties anywhere (the kings are parties 0..=t)
        let mut scripts = BTreeMap::new();
        for _ in 0..rng.gen_range(0..=t) {
            let party = rng.gen_range(0..n);
            scripts.insert(party, arb_script(&mut rng, n, t, k, arb_value));
        }
        let honest: Vec<PartyId> = (0..n).filter(|i| !scripts.contains_key(i)).collect();

        let grouped = run_sba(n, t, seed, &inputs, &scripts);
        prop_assert!(grouped.windows(2).all(|w| w[0] == w[1]), "agreement: {grouped:?}");
        for slot in 0..k {
            let one_slot_inputs: Vec<Vec<SbaValue>> =
                inputs.iter().map(|all| vec![all[slot].clone()]).collect();
            let one_slot_scripts: BTreeMap<PartyId, Script> = scripts
                .iter()
                .map(|(&party, script)| {
                    let script = script
                        .iter()
                        .map(|round| {
                            round.iter().map(|m| m.as_ref().map(|m| project(m, slot))).collect()
                        })
                        .collect();
                    (party, script)
                })
                .collect();
            let reference = run_sba(n, t, seed, &one_slot_inputs, &one_slot_scripts);
            for ((outputs, at), (ref_outputs, ref_at)) in grouped.iter().zip(&reference) {
                prop_assert_eq!(&outputs[slot], &ref_outputs[0], "slot {} of k = {}", slot, k);
                prop_assert_eq!(at, ref_at);
            }
            // validity, per slot: a value all honest parties entered is kept
            let first = &inputs[honest[0]][slot];
            if honest.iter().all(|&i| &inputs[i][slot] == first) {
                prop_assert_eq!(&grouped[0].0[slot], first, "validity of slot {}", slot);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile SBA values in a lock-step broadcast group
// ---------------------------------------------------------------------------

/// An SBA entry a corrupt party may send into a `Π_BC` group, whose honest
/// parties only ever send `Bit(true)` (the slot's A-cast has delivered) or
/// `⊥`: those two, `Bit(false)`, and values from the broadcast domain,
/// some equal to a slot's A-cast value.
fn arb_hostile_value(rng: &mut StdRng) -> SbaValue {
    match rng.gen_range(0..5u8) {
        0 => None,
        1 => Some(BcValue::Bit(false)),
        2 => Some(BcValue::Bit(true)),
        3 => Some(slot_value(rng.gen_range(0..8))),
        _ => Some(BcValue::Votes(Vec::new())),
    }
}

/// The value slot `j`'s sender A-casts: `j` for an honest sender, `100 + j`
/// for a corrupt one.
fn slot_value(x: u64) -> BcValue {
    BcValue::Value(vec![Fp::from_u64(x)])
}

/// An honest member of a lock-step `Π_BC` group that broadcasts `input`.
struct Member {
    bc: Bc,
    input: BcValue,
}

impl Protocol<Msg> for Member {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.bc.init(ctx);
        self.bc.provide_input(ctx, self.input.clone());
    }
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        self.bc.on_message(ctx, from, path, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        self.bc.on_timer(ctx, path, id);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const TIMER_ACAST: u64 = 1;
const TIMER_SBA: u64 = 2;

/// A corrupt member of a lock-step `Π_BC` group: it A-casts its own slot's
/// value by the protocol but only from local time `late`, so the A-cast may
/// deliver to some honest parties by `3Δ` (or `T_BC`) and to others after
/// it; it takes no part in the other slots' A-casts; and from `3Δ` on it
/// speaks the group's SBA cluster by `sba`'s script.
struct CorruptMember {
    acast: Acast,
    acast_seg: u32,
    late: Time,
    sba: Scripted,
    sba_seg: u32,
}

impl Protocol<Msg> for CorruptMember {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.late, TIMER_ACAST);
        ctx.set_timer(3 * ctx.delta, TIMER_SBA);
    }
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        if let [seg, rest @ ..] = path {
            if *seg == self.acast_seg {
                ctx.scoped(*seg, |ctx| self.acast.on_message(ctx, from, rest, msg));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        let (acast, sba) = (&mut self.acast, &mut self.sba);
        match (path, id) {
            ([], TIMER_ACAST) => ctx.scoped(self.acast_seg, |ctx| acast.init(ctx)),
            ([], TIMER_SBA) => ctx.scoped(self.sba_seg, |ctx| sba.init(ctx)),
            (_, id) => ctx.scoped(self.sba_seg, |ctx| sba.on_timer(ctx, &[], id)),
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Corrupt parties mix values no honest party sends (`Bit(false)`,
    /// broadcast values, a slot's own A-cast value) into the SBA cluster of
    /// a lock-step `Π_BC` group, and start their own slots' A-casts so that they deliver
    /// around `3Δ` or around `T_BC`, on random synchronous delays. At `T_BC`
    /// every slot's regular output is the same at every honest party; it is
    /// the slot's A-cast value or `⊥`; and an honest sender's slot outputs
    /// its value.
    #[test]
    fn hostile_sba_values_leave_every_slot_consistent(seed in any::<u64>()) {
        let params = Params::new(7, 2, 0, 10);
        let (n, t) = (params.n, params.ts);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scripts = BTreeMap::new();
        for _ in 0..rng.gen_range(1..=t) {
            let party = rng.gen_range(0..n);
            // around the two deadlines: delivery straddles 3Δ or T_BC
            let (delta, t_bc) = (params.delta, params.t_bc());
            let late = match rng.gen() {
                true => rng.gen_range(0..3 * delta),
                false => rng.gen_range(t_bc - 3 * delta..t_bc),
            };
            scripts.insert(party, (late, arb_script(&mut rng, n, t, n, arb_hostile_value)));
        }
        let corrupt = CorruptionSet::new(scripts.keys().copied().collect());
        let honest: Vec<PartyId> = (0..n).filter(|&i| corrupt.is_honest(i)).collect();
        let slot_values: Vec<BcValue> = (0..n)
            .map(|j| slot_value(j as u64 + if corrupt.is_honest(j) { 0 } else { 100 }))
            .collect();
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| match scripts.remove(&i) {
                Some((late, script)) => Box::new(CorruptMember {
                    acast: Acast::new_sender(i, n, t, slot_values[i].clone()),
                    acast_seg: BC.segment(n, Name::Acast, i),
                    late,
                    sba: Scripted { script },
                    // The stand-alone group's one cluster.
                    sba_seg: BC.segment(n, Name::Sba, 0),
                }) as Box<dyn Protocol<Msg>>,
                None => Box::new(Member {
                    bc: Bc::new_group(t, params),
                    input: slot_values[i].clone(),
                }),
            })
            .collect();
        let scheduler = Box::new(UniformDelay { min: 1, max: params.delta });
        let cfg = NetConfig::synchronous(n).with_seed(seed);
        let mut sim = Simulation::with_scheduler(cfg, corrupt.clone(), scheduler, parties);
        sim.run_to_quiescence(params.t_bc() + 1);
        let regular = |i: PartyId, j: usize| {
            let member = sim.party_as::<Member>(i).unwrap();
            member.bc.slot(j).unwrap().regular_output.clone().expect("fixed at T_BC")
        };
        for (j, value) in slot_values.into_iter().enumerate() {
            let first = regular(honest[0], j);
            for &i in &honest {
                prop_assert_eq!(&regular(i, j), &first, "slot {}: party {}", j, i);
            }
            if corrupt.is_honest(j) {
                prop_assert_eq!(first, Some(value), "honest slot {}", j);
            } else {
                prop_assert!(first.is_none() || first == Some(value), "slot {}", j);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Structure: how many SBA clusters a root really runs
// ---------------------------------------------------------------------------

/// Wraps a root protocol and counts, per instance path, the `Msg::Sba`
/// messages delivered to this party, and the timers that fired on a path
/// that also received SBA messages (= the SBA instances' own timers).
struct CountSba<P> {
    inner: P,
    sba_messages: BTreeMap<Vec<u32>, usize>,
    timers: BTreeMap<Vec<u32>, usize>,
}

impl<P> CountSba<P> {
    fn new(inner: P) -> Self {
        CountSba {
            inner,
            sba_messages: BTreeMap::new(),
            timers: BTreeMap::new(),
        }
    }
}

impl<P: Protocol<Msg>> Protocol<Msg> for CountSba<P> {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.inner.init(ctx);
    }
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        if matches!(msg, Msg::Sba(_)) {
            *self.sba_messages.entry(path.to_vec()).or_default() += 1;
        }
        self.inner.on_message(ctx, from, path, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        *self.timers.entry(path.to_vec()).or_default() += 1;
        self.inner.on_timer(ctx, path, id);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs `make(i)` for every party on a fault-free synchronous network and
/// asserts that each party took part in exactly `sba_instances` SBAs: that
/// many instance paths with SBA traffic, each a cluster at the root,
/// `(2n+1)(t+1)` deliveries on each (n round-1, n round-2 and one king
/// message per phase) and `3(t+1)+1` timers on each.
fn assert_sba_instances<P: Protocol<Msg>>(
    params: Params,
    horizon: u64,
    sba_instances: usize,
    make: impl Fn(PartyId) -> P,
) {
    let (n, t) = (params.n, params.ts);
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| Box::new(CountSba::new(make(i))) as Box<dyn Protocol<Msg>>)
        .collect();
    let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
    sim.run_to_quiescence(horizon);
    let mut delivered = 0;
    for i in 0..n {
        let counts = sim.party_as::<CountSba<P>>(i).unwrap();
        assert_eq!(counts.sba_messages.len(), sba_instances, "party {i}");
        for (path, &messages) in &counts.sba_messages {
            assert_eq!(path.len(), 1, "party {i} path {path:?}: a root's cluster");
            assert_eq!(messages, (2 * n + 1) * (t + 1), "party {i} path {path:?}");
            assert_eq!(
                counts.timers[path],
                3 * (t + 1) + 1,
                "party {i} path {path:?}"
            );
            delivered += messages;
        }
    }
    assert_eq!(delivered, sba_instances * (2 * n + 1) * n * (t + 1));
}

#[test]
fn standalone_ba_runs_one_sba() {
    let params = Params::new(7, 2, 0, 10);
    assert_sba_instances(params, params.t_ba() * 4, 1, |i| {
        Ba::new(params.ts, params, Some(i % 2 == 0))
    });
}

#[test]
fn standalone_vss_runs_one_cluster_per_start_tick() {
    // Π_VSS = n Π_WPS + its own round: n + 1 sharings, each with a vote
    // board (group), a Π_BA (group) and the dealer's (W, E, F) broadcast
    // (single), 3n + 3 Π_BC in all. The n Π_WPS start theirs at the same
    // three ticks, and Π_VSS its own at three later ones: 6 clusters.
    let params = Params::new(7, 2, 0, 10);
    let mut rng = StdRng::seed_from_u64(5);
    let secret = Polynomial::random(&mut rng, params.ts);
    assert_sba_instances(params, params.t_vss() * 4, 6, |i| {
        if i == 0 {
            Vss::new_dealer(0, params, vec![secret.clone()])
        } else {
            Vss::new(0, params, 1)
        }
    });
}
