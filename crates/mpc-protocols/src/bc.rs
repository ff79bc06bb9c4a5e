//! `Π_BC` — synchronous broadcast with asynchronous guarantees (Fig 1,
//! Theorem 3.5).
//!
//! The sender A-casts its value; at local time `3Δ` every party feeds an SBA
//! instance one bit: `Bit(true)` if the sender's A-cast has delivered to it,
//! else `⊥`. At local time `T_BC = 3Δ + T_BGP` the *regular-mode* output is
//! fixed: the A-cast's value `m⋆` if it has delivered and the SBA agreed on
//! `Bit(true)`, otherwise `⊥` (whatever else the SBA agreed on). Fig 1 has the
//! SBA agree on the value itself; agreeing on "delivered" is enough because an
//! A-cast that one honest party delivers by `3Δ` delivers the same value to
//! every honest party by `5Δ < T_BC` (Lemma 2.4), and it keeps `ℓ` out of the
//! SBA (DESIGN.md "Substitution S2"). Parties keep participating
//! afterwards; a party whose regular-mode output was `⊥` switches to `m⋆` if
//! the A-cast later delivers it (*fallback mode*), which is what gives the
//! protocol its asynchronous validity/consistency guarantees.
//!
//! A [`Bc`] runs `k ≥ 1` such broadcasts **in lock-step**: `k` broadcasts
//! that every party starts at the same local time hit `3Δ` and `T_BC`
//! together, so they keep one A-cast each (slot `s` = the A-cast of the
//! `s`-th sender) and share one pair of timers. The regular/fallback rule
//! above is applied per slot. `k = 1` is the lone broadcast of a dealer's
//! `(W, E, F)`; `k = n` (every party a sender) is the input round of `Π_BA`
//! and the vote round of `Π_WPS`/`Π_VSS`.
//!
//! A `Bc` runs no SBA of its own. Its slots are slots of the SBA cluster the
//! root of the instance tree runs for every `Π_BC` started at the same tick
//! (`sba::Clusters`): at `3Δ` the root reads its slots' inputs
//! (`Bc::sba_inputs`), and by its `T_BC` timer the root hands down their
//! agreed values as an [`Event::Agreed`]. See DESIGN.md "Lock-step broadcast
//! groups".
//!
//! Children: [`BC`] (DESIGN.md "Instance tree").

use mpc_net::{Context, PartyId, PathSlice, Time};

use crate::acast::{Acast, ACAST};
use crate::msg::{BcValue, Msg, SbaValue};
use crate::params::Params;
use crate::sba::SBA;
use crate::tree::{Card, Event, Family, Kind, Name, Node, Routed};
use crate::voteboard::{self, Side};

/// The broadcasts' A-casts in slot order (a lone broadcast is slot 0), then
/// the SBA clusters, which only a root `Π_BC` holds.
pub static BC: Kind = Kind::new(
    "Bc",
    &[
        Family::new(Name::Acast, &ACAST, Card::N),
        Family::new(Name::Sba, &SBA, Card::Clusters([1, 0, 0])),
    ],
);

/// At `3Δ`: the root starts the SBA cluster and reads the slots' inputs.
/// No other instance uses this id, so that the root's step does not walk the
/// tree on other timers.
pub(crate) const TIMER_START_SBA: u64 = 0x53_42_41;
/// At `T_BC`. Its handler does nothing: it is a timer event of that tick,
/// deeper than every instance that reads the regular outputs, and the root
/// hands the agreed values down at the tick's first timer event.
const TIMER_REGULAR: u64 = 2;

/// A slot's SBA input and agreed value meaning "the A-cast has delivered"
/// (DESIGN.md "Substitution S2"); `⊥` and any other value mean it has not.
const DELIVERED: SbaValue = Some(BcValue::Bit(true));

/// How a `Π_BC` output was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcMode {
    /// Fixed at the `T_BC` time-out.
    Regular,
    /// Adopted later from the sender's A-cast.
    Fallback,
}

/// One broadcast (one slot of a [`Bc`]): the sender's A-cast and the output
/// state derived from it and from the slot's SBA output.
#[derive(Debug)]
pub struct BcSlot {
    acast: Acast,
    /// The output: `None` until the regular-mode time-out, then
    /// `Some(None)` for `⊥` or `Some(Some(v))` for a value.
    pub output: Option<Option<BcValue>>,
    /// The regular-mode output as fixed at `T_BC` (never changes afterwards).
    pub regular_output: Option<Option<BcValue>>,
    /// How the current output was obtained.
    pub mode: Option<BcMode>,
    /// Local time the current output was (last) set.
    pub output_at: Option<Time>,
}

impl BcSlot {
    fn new(acast: Acast) -> Self {
        BcSlot {
            acast,
            output: None,
            regular_output: None,
            mode: None,
            output_at: None,
        }
    }

    /// The current output value regardless of mode, flattened
    /// (`None` = no output yet or `⊥`).
    pub fn value(&self) -> Option<&BcValue> {
        self.output.as_ref().and_then(|o| o.as_ref())
    }

    /// The value fixed through regular mode at `T_BC`, if it was not `⊥`.
    pub fn regular_value(&self) -> Option<&BcValue> {
        self.regular_output.as_ref().and_then(|o| o.as_ref())
    }

    /// Only a party whose regular-mode output was `⊥` ever switches.
    fn check_fallback(&mut self, now: Time) {
        if matches!(self.regular_output, Some(None))
            && matches!(self.output, Some(None))
            && self.acast.output.is_some()
        {
            self.output = Some(self.acast.output.clone());
            self.mode = Some(BcMode::Fallback);
            self.output_at = Some(now);
        }
    }
}

/// `k ≥ 1` instances of `Π_BC` started at the same local time (see the
/// module docs); slot `s` is the broadcast of party `first_sender + s`.
#[derive(Debug)]
pub struct Bc {
    first_sender: PartyId,
    params: Params,
    slots: Vec<BcSlot>,
    /// The local time of `3Δ`, from `init` on: the tick of round 1 of the
    /// root's SBA cluster this instance belongs to.
    pub(crate) round1: Option<Time>,
    /// The side channels, live when this instance is the root.
    side: Side,
}

impl Bc {
    fn with_acasts(
        first_sender: PartyId,
        params: Params,
        acasts: impl Iterator<Item = Acast>,
    ) -> Self {
        Bc {
            first_sender,
            params,
            slots: acasts.map(BcSlot::new).collect(),
            round1: None,
            side: Side::new(params.ts),
        }
    }

    /// Creates a participant instance of a lone broadcast by `sender`.
    pub fn new(sender: PartyId, t: usize, params: Params) -> Self {
        let acast = Acast::new(sender, params.n, t);
        Self::with_acasts(sender, params, std::iter::once(acast))
    }

    /// Creates the sender-side instance of a lone broadcast with its input.
    pub fn new_sender(sender: PartyId, t: usize, params: Params, input: BcValue) -> Self {
        let acast = Acast::new_sender(sender, params.n, t, input);
        Self::with_acasts(sender, params, std::iter::once(acast))
    }

    /// Creates a lock-step group in which every party broadcasts (slot `j` =
    /// party `j`); each party supplies its own input via
    /// [`Bc::provide_input`].
    pub fn new_group(t: usize, params: Params) -> Self {
        let acasts = (0..params.n).map(|j| Acast::new(j, params.n, t));
        Self::with_acasts(0, params, acasts)
    }

    /// Supplies this party's input after creation (a late sender misses the
    /// regular-mode deadline, exactly as a corrupt sender would). Has no
    /// effect on a party that is not a sender.
    pub fn provide_input(&mut self, ctx: &mut Context<'_, Msg>, input: BcValue) {
        let Some(slot) = ctx.me.checked_sub(self.first_sender) else {
            return;
        };
        if let Some(state) = self.slots.get_mut(slot) {
            BC.scoped(ctx, Name::Acast, slot, |ctx| {
                state.acast.provide_input(ctx, input)
            });
        }
    }

    /// The output state of slot `slot`, if there is such a slot.
    pub fn slot(&self, slot: usize) -> Option<&BcSlot> {
        self.slots.get(slot)
    }

    /// [`BcSlot::value`] of slot 0 (the only slot of a lone broadcast).
    pub fn value(&self) -> Option<&BcValue> {
        self.slots[0].value()
    }

    /// [`BcSlot::regular_value`] of slot 0 (the only slot of a lone
    /// broadcast).
    pub fn regular_value(&self) -> Option<&BcValue> {
        self.slots[0].regular_value()
    }

    /// This party's SBA input per slot: "delivered" if the slot's A-cast has
    /// delivered, else `⊥`. The root's cluster reads it at `3Δ`.
    pub(crate) fn sba_inputs(&self) -> impl ExactSizeIterator<Item = SbaValue> + '_ {
        let delivered = |s: &BcSlot| s.acast.output.as_ref().and(DELIVERED);
        self.slots.iter().map(delivered)
    }
}

impl Node for Bc {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        for (slot, state) in self.slots.iter_mut().enumerate() {
            BC.scoped(ctx, Name::Acast, slot, |ctx| state.acast.init(ctx));
        }
        self.round1 = Some(ctx.now + 3 * ctx.delta);
        ctx.set_timer(3 * ctx.delta, TIMER_START_SBA);
        ctx.set_timer(3 * ctx.delta + self.params.t_bgp(), TIMER_REGULAR);
    }

    /// Progress is a slot's output being fixed at `T_BC` or switching to
    /// the fallback, and any A-cast delivering (its output is the slot's
    /// input to the SBA and to the fallback rule).
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool {
        match voteboard::route(self, &BC, ctx, path, ev) {
            Routed::Child(Name::Acast, slot, true) => {
                if let Some(state) = self.slots.get_mut(slot) {
                    state.check_fallback(ctx.now);
                }
                true
            }
            Routed::Own(Event::Agreed(agreed)) => {
                for (slot, state) in self.slots.iter_mut().enumerate() {
                    let agreed_delivered = agreed.get(slot) == Some(&DELIVERED);
                    let regular = state.acast.output.clone().filter(|_| agreed_delivered);
                    state.regular_output = Some(regular.clone());
                    state.output = Some(regular);
                    state.mode = Some(BcMode::Regular);
                    state.output_at = Some(ctx.now);
                    state.check_fallback(ctx.now);
                }
                true
            }
            _ => false,
        }
    }

    fn child(&mut self, _: Name, index: usize) -> Option<&mut dyn Node> {
        Some(&mut self.slots.get_mut(index)?.acast)
    }

    fn side(&mut self) -> Option<&mut Side> {
        Some(&mut self.side)
    }

    fn bc(&mut self) -> Option<&mut Bc> {
        Some(self)
    }
}

crate::node_protocol!(Bc);

#[cfg(test)]
impl Bc {
    /// Slot `slot`, for tests that set its output directly.
    pub(crate) fn slot_mut(&mut self, slot: usize) -> Option<&mut BcSlot> {
        self.slots.get_mut(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_algebra::Fp;
    use mpc_net::{CorruptionSet, NetConfig, Protocol, Simulation, SkewedAsyncScheduler};

    fn value(x: u64) -> BcValue {
        BcValue::Value(vec![Fp::from_u64(x)])
    }

    fn make_parties(
        params: Params,
        sender: PartyId,
        input: Option<BcValue>,
    ) -> Vec<Box<dyn Protocol<Msg>>> {
        (0..params.n)
            .map(|i| {
                let bc = match (&input, i == sender) {
                    (Some(v), true) => Bc::new_sender(sender, params.ts, params, v.clone()),
                    _ => Bc::new(sender, params.ts, params),
                };
                Box::new(bc) as Box<dyn Protocol<Msg>>
            })
            .collect()
    }

    #[test]
    fn validity_in_sync_network_at_t_bc() {
        let params = Params::new(7, 2, 0, 10);
        let cfg = NetConfig::synchronous(params.n);
        let mut sim = Simulation::new(
            cfg,
            CorruptionSet::none(),
            make_parties(params, 0, Some(value(5))),
        );
        sim.run_until(params.t_bc() + 1, |s| {
            (0..params.n).all(|i| {
                s.party_as::<Bc>(i)
                    .unwrap()
                    .slot(0)
                    .unwrap()
                    .output
                    .is_some()
            })
        });
        for i in 0..params.n {
            let p = sim.party_as::<Bc>(i).unwrap().slot(0).unwrap();
            assert_eq!(p.output, Some(Some(value(5))));
            assert_eq!(p.mode, Some(BcMode::Regular));
            assert_eq!(
                p.output_at.unwrap(),
                params.t_bc(),
                "Theorem 3.5: output exactly at T_BC"
            );
        }
    }

    #[test]
    fn liveness_with_silent_sender_outputs_bottom() {
        let params = Params::new(4, 1, 0, 10);
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![2]),
            make_parties(params, 2, None), // sender never provides input
        );
        sim.run_to_quiescence(params.t_bc() * 3);
        for i in [0, 1, 3] {
            let p = sim.party_as::<Bc>(i).unwrap().slot(0).unwrap();
            assert_eq!(
                p.output,
                Some(None),
                "liveness: ⊥ output even for a silent sender"
            );
        }
    }

    #[test]
    fn async_network_weak_validity_and_fallback() {
        // Delay all of the sender's messages so far beyond the timeout that
        // regular mode outputs ⊥, then check the fallback mode kicks in.
        let params = Params::new(4, 1, 0, 10);
        let lag = params.t_bc() * 2;
        let scheduler = SkewedAsyncScheduler {
            slowed_senders: vec![0],
            lag,
            fast: 2,
        };
        let cfg = NetConfig::asynchronous(params.n).with_seed(11);
        let mut sim = Simulation::with_scheduler(
            cfg,
            CorruptionSet::none(),
            Box::new(scheduler),
            make_parties(params, 0, Some(value(8))),
        );
        sim.run_to_quiescence(lag * 20);
        for i in 0..params.n {
            let p = sim.party_as::<Bc>(i).unwrap().slot(0).unwrap();
            // weak validity: regular-mode output is m or ⊥ ...
            assert!(p.regular_output == Some(None) || p.regular_output == Some(Some(value(8))));
            // ... and fallback validity: everyone eventually holds m.
            assert_eq!(p.value(), Some(&value(8)));
        }
        // at least one party must have needed the fallback for this test to be meaningful
        assert!((0..params.n).any(
            |i| sim.party_as::<Bc>(i).unwrap().slot(0).unwrap().mode == Some(BcMode::Fallback)
        ));
    }

    #[test]
    fn communication_scales_as_n_squared() {
        let mut bits = Vec::new();
        for n in [4usize, 7, 10] {
            let params = Params::max_thresholds(n, 10);
            let mut sim = Simulation::new(
                NetConfig::synchronous(n),
                CorruptionSet::none(),
                make_parties(params, 0, Some(value(1))),
            );
            sim.run_to_quiescence(params.t_bc() * 3);
            bits.push(sim.metrics().honest_bits as f64);
        }
        // growing but sub-cubic in n per honest bit count (loose sanity bound
        // for the O(n^2 ℓ + n^3)-ish scaling of the substituted SBA)
        assert!(bits[2] > bits[0]);
        let ratio = bits[2] / bits[0];
        assert!(
            ratio < ((10.0f64 / 4.0).powi(4)),
            "ratio {ratio} grows too fast"
        );
    }

    /// Theorem 3.5 prices `Π_BC` at `O(n²ℓ + n³)`: the `n³` is the SBA's and
    /// carries no `ℓ`. In an honest synchronous run, what a longer value
    /// adds is exactly the A-cast's `n + 2n²` copies of the extra bytes (the
    /// `Send` to every party, then every party's `Echo` and `Ready` to every
    /// party); the SBA only says whether the A-cast delivered.
    #[test]
    fn a_longer_value_costs_only_the_acast_copies() {
        use mpc_net::wire::WireEncode;
        for n in [4usize, 7, 10] {
            let params = Params::max_thresholds(n, 10);
            let bits = |len: u64| {
                let v = BcValue::Value((0..len).map(Fp::from_u64).collect());
                let mut sim = Simulation::new(
                    NetConfig::synchronous(n),
                    CorruptionSet::none(),
                    make_parties(params, 0, Some(v.clone())),
                );
                sim.run_to_quiescence(params.t_bc() * 3);
                for i in 0..n {
                    let slot = sim.party_as::<Bc>(i).unwrap().slot(0).unwrap();
                    assert_eq!(slot.regular_value(), Some(&v), "n = {n}, party {i}");
                }
                (sim.metrics().honest_bits, v.encoded_bits())
            };
            let (base, base_value) = bits(1);
            for len in [2, 16, 256] {
                let (total, value) = bits(len);
                let copies = (n + 2 * n * n) as u64;
                assert_eq!(
                    total - base,
                    copies * (value - base_value),
                    "n = {n}, ℓ = {len}"
                );
            }
        }
    }

    /// A synchronous schedule in which every message to a party of `fast`
    /// takes one tick and every other message the whole `Δ`.
    struct FastTo {
        fast: Vec<PartyId>,
        delta: Time,
    }

    impl mpc_net::Scheduler for FastTo {
        fn delay(&mut self, _: PartyId, to: PartyId, _: Time, _: &mut rand::rngs::StdRng) -> Time {
            if self.fast.contains(&to) {
                1
            } else {
                self.delta
            }
        }
    }

    /// A lone `Π_BC` participant that records each sender's first phase-0
    /// round-1 SBA value, which is that sender's SBA input. As the sender
    /// it starts its A-cast only at local time `late.0`.
    struct Tap {
        bc: Bc,
        late: Option<(Time, BcValue)>,
        sba_inputs: std::collections::BTreeMap<PartyId, crate::msg::SbaValue>,
    }

    const TIMER_LATE_INPUT: u64 = 99;

    impl Protocol<Msg> for Tap {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some((at, _)) = self.late {
                ctx.set_timer(at, TIMER_LATE_INPUT);
            }
            Protocol::init(&mut self.bc, ctx);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            path: PathSlice<'_>,
            msg: Msg,
        ) {
            if let Msg::Sba(crate::msg::SbaMsg::Round1 { phase: 0, value }) = &msg {
                self.sba_inputs.entry(from).or_insert_with(|| value.clone());
            }
            self.bc.on_message(ctx, from, path, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
            match (path, id) {
                ([], TIMER_LATE_INPUT) => {
                    let (_, input) = self.late.take().expect("set only by a late sender");
                    self.bc.provide_input(ctx, input);
                }
                _ => self.bc.on_timer(ctx, path, id),
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// What one honest party of [`split_run`] saw: its SBA input, whether
    /// its A-cast had delivered by `5Δ`, its regular output and its final
    /// output.
    type Seen = (crate::msg::SbaValue, bool, Option<BcValue>, Option<BcValue>);

    /// A lone `Π_BC` at `n = 4`, `t = 1`, whose corrupt sender 0 follows the
    /// protocol but starts its A-cast of `value(9)` only at local time
    /// `late`, on the synchronous schedule [`FastTo`] `fast`.
    fn split_run(late: Time, fast: Vec<PartyId>) -> Vec<Seen> {
        let params = Params::new(4, 1, 0, 10);
        let parties = (0..params.n)
            .map(|i| {
                Box::new(Tap {
                    bc: Bc::new(0, params.ts, params),
                    late: (i == 0).then(|| (late, value(9))),
                    sba_inputs: Default::default(),
                }) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let delta = params.delta;
        let mut sim = Simulation::with_scheduler(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![0]),
            Box::new(FastTo { fast, delta }),
            parties,
        );
        sim.run_to_quiescence(5 * delta);
        let honest = 1..params.n;
        let by_5_delta: Vec<bool> = honest
            .clone()
            .map(|i| {
                sim.party_as::<Tap>(i).unwrap().bc.slots[0]
                    .acast
                    .output
                    .is_some()
            })
            .collect();
        sim.run_to_quiescence(params.t_bc() * 3);
        let observer = sim.party_as::<Tap>(1).unwrap();
        honest
            .zip(by_5_delta)
            .map(|(i, delivered)| {
                let slot = &sim.party_as::<Tap>(i).unwrap().bc.slots[0];
                let regular = slot.regular_output.clone().flatten();
                (
                    observer.sba_inputs[&i].clone(),
                    delivered,
                    regular,
                    slot.value().cloned(),
                )
            })
            .collect()
    }

    /// A corrupt sender's A-cast that reaches one honest party by `3Δ` and
    /// the others only after `3Δ` (but, by Lemma 2.4, by `5Δ`) splits the
    /// honest SBA inputs between `Bit(true)` and `⊥`. Whichever way the SBA
    /// decides, every honest party fixes the same regular output at `T_BC`.
    /// Sender 0 starts at `1.5Δ`; messages to party 1 take one tick and all
    /// others `Δ`, so party 1 delivers at `2.7Δ` and parties 2 and 3 at
    /// `3.6Δ`. If the sender is fast too, it delivers by `3Δ`, inputs
    /// `Bit(true)` and, as the king of phase 0, gets it adopted: all output
    /// the value. Otherwise `⊥` is the only input `n − t` parties share and
    /// all output `⊥`, then fall back to the value.
    #[test]
    fn split_delivery_at_3_delta_still_agrees() {
        let delivered = Some(BcValue::Bit(true));
        for (fast, regular) in [(vec![0, 1], Some(value(9))), (vec![1], None)] {
            let seen = split_run(15, fast.clone());
            let inputs: Vec<_> = seen.iter().map(|s| s.0.clone()).collect();
            assert_eq!(
                inputs,
                [delivered.clone(), None, None],
                "fast {fast:?}: the split"
            );
            for (i, (_, by_5_delta, reg, out)) in seen.into_iter().enumerate() {
                assert!(by_5_delta, "fast {fast:?}, party {}: Lemma 2.4", i + 1);
                assert_eq!(reg, regular, "fast {fast:?}, party {}", i + 1);
                assert_eq!(out, Some(value(9)), "fast {fast:?}, party {}", i + 1);
            }
        }
    }

    /// The same sender starting at `2.5Δ`: no honest party has delivered by
    /// `3Δ`, so every honest input is `⊥` and every regular output `⊥`; all
    /// deliver by `5Δ` and fall back to the value.
    #[test]
    fn no_delivery_by_3_delta_agrees_on_bottom() {
        for fast in [vec![0, 1], vec![1]] {
            for (i, (input, by_5_delta, regular, out)) in
                split_run(25, fast.clone()).into_iter().enumerate()
            {
                let label = format!("fast {fast:?}, party {}", i + 1);
                assert_eq!(input, None, "{label}");
                assert!(by_5_delta, "{label}");
                assert_eq!(regular, None, "{label}");
                assert_eq!(out, Some(value(9)), "{label}");
            }
        }
    }
}
