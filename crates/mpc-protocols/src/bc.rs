//! `Π_BC` — synchronous broadcast with asynchronous guarantees (Fig 1,
//! Theorem 3.5).
//!
//! The sender A-casts its value; at local time `3Δ` every party feeds the
//! value it has (or `⊥`) into an SBA instance; at local time
//! `T_BC = 3Δ + T_BGP` the *regular-mode* output is fixed: the value `m⋆` if
//! it was both received from the sender's A-cast and agreed by the SBA,
//! otherwise `⊥`. Parties keep participating afterwards; a party whose
//! regular-mode output was `⊥` switches to `m⋆` if the A-cast later delivers
//! it (*fallback mode*), which is what gives the protocol its asynchronous
//! validity/consistency guarantees.
//!
//! A [`Bc`] runs `k ≥ 1` such broadcasts **in lock-step**: `k` broadcasts
//! that every party starts at the same local time hit `3Δ` and `T_BC`
//! together, so they keep one A-cast each (slot `s` = the A-cast of the
//! `s`-th sender) but share ONE slot-wise [`Sba`] and one pair of timers.
//! The regular/fallback rule above is applied per slot. `k = 1` is the lone
//! broadcast of a dealer's `(W, E, F)`; `k = n` (every party a sender) is
//! the input round of `Π_BA` and the vote round of `Π_WPS`/`Π_VSS`. See
//! DESIGN.md "Lock-step broadcast groups".
//!
//! Child segments: `0..k` are the A-casts in slot order, `k` is the SBA
//! (so a lone broadcast keeps A-cast = 0, SBA = 1).

use std::any::Any;

use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::acast::Acast;
use crate::msg::{BcValue, Msg};
use crate::params::Params;
use crate::sba::Sba;

const TIMER_START_SBA: u64 = 1;
const TIMER_REGULAR: u64 = 2;

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
    /// Created up front so that round messages of peers that started earlier
    /// are tallied on arrival: what it keeps is bounded by construction (one
    /// message per sender, phase and round), unlike a replay buffer.
    sba: Sba,
}

impl Bc {
    fn with_acasts(
        first_sender: PartyId,
        t: usize,
        params: Params,
        acasts: impl Iterator<Item = Acast>,
    ) -> Self {
        let slots: Vec<BcSlot> = acasts.map(BcSlot::new).collect();
        Bc {
            first_sender,
            params,
            sba: Sba::with_slots(params.n, t, vec![None; slots.len()]),
            slots,
        }
    }

    /// Creates a participant instance of a lone broadcast by `sender`.
    pub fn new(sender: PartyId, t: usize, params: Params) -> Self {
        let acast = Acast::new(sender, params.n, t);
        Self::with_acasts(sender, t, params, std::iter::once(acast))
    }

    /// Creates the sender-side instance of a lone broadcast with its input.
    pub fn new_sender(sender: PartyId, t: usize, params: Params, input: BcValue) -> Self {
        let acast = Acast::new_sender(sender, params.n, t, input);
        Self::with_acasts(sender, t, params, std::iter::once(acast))
    }

    /// Creates a lock-step group in which every party broadcasts (slot `j` =
    /// party `j`); each party supplies its own input via
    /// [`Bc::provide_input`].
    pub fn new_group(t: usize, params: Params) -> Self {
        let acasts = (0..params.n).map(|j| Acast::new(j, params.n, t));
        Self::with_acasts(0, t, params, acasts)
    }

    /// Supplies this party's input after creation (a late sender misses the
    /// regular-mode deadline, exactly as a corrupt sender would). Has no
    /// effect on a party that is not a sender.
    pub fn provide_input(&mut self, ctx: &mut Context<'_, Msg>, input: BcValue) {
        let Some(slot) = ctx.me.checked_sub(self.first_sender) else {
            return;
        };
        if let Some(state) = self.slots.get_mut(slot) {
            ctx.scoped(slot as u32, |ctx| state.acast.provide_input(ctx, input));
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

    fn sba_segment(&self) -> u32 {
        self.slots.len() as u32
    }
}

impl Protocol<Msg> for Bc {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        for (slot, state) in self.slots.iter_mut().enumerate() {
            ctx.scoped(slot as u32, |ctx| state.acast.init(ctx));
        }
        ctx.set_timer(3 * ctx.delta, TIMER_START_SBA);
        ctx.set_timer(3 * ctx.delta + self.params.t_bgp(), TIMER_REGULAR);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let Some(&seg) = path.first() else { return };
        if let Some(state) = self.slots.get_mut(seg as usize) {
            ctx.scoped(seg, |ctx| {
                state.acast.on_message(ctx, from, &path[1..], msg)
            });
            state.check_fallback(ctx.now);
        } else if seg == self.sba_segment() {
            let sba = &mut self.sba;
            ctx.scoped(seg, |ctx| sba.on_message(ctx, from, &path[1..], msg));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        let sba_segment = self.sba_segment();
        match path.first() {
            Some(&seg) if seg == sba_segment => {
                let sba = &mut self.sba;
                ctx.scoped(seg, |ctx| sba.on_timer(ctx, &path[1..], id));
            }
            Some(&seg) => {
                if let Some(state) = self.slots.get_mut(seg as usize) {
                    ctx.scoped(seg, |ctx| state.acast.on_timer(ctx, &path[1..], id));
                }
            }
            None => match id {
                TIMER_START_SBA => {
                    let inputs = self.slots.iter().map(|s| s.acast.output.clone()).collect();
                    self.sba.set_inputs(inputs);
                    let sba = &mut self.sba;
                    ctx.scoped(sba_segment, |ctx| sba.init(ctx));
                }
                TIMER_REGULAR => {
                    let agreed = self.sba.outputs().unwrap_or(&[]);
                    for (slot, state) in self.slots.iter_mut().enumerate() {
                        let regular = match (&state.acast.output, agreed.get(slot)) {
                            (Some(a), Some(Some(s))) if a == s => Some(a.clone()),
                            _ => None,
                        };
                        state.regular_output = Some(regular.clone());
                        state.output = Some(regular);
                        state.mode = Some(BcMode::Regular);
                        state.output_at = Some(ctx.now);
                        state.check_fallback(ctx.now);
                    }
                }
                _ => {}
            },
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
    use mpc_algebra::Fp;
    use mpc_net::{CorruptionSet, NetConfig, Simulation, SkewedAsyncScheduler};

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

    /// SBA traffic that arrives before the local `3Δ` start used to pile up
    /// in an unbounded replay buffer. It is now tallied on arrival, where a
    /// sender gets one round-1 and one round-2 entry per slot and phase
    /// `≤ t` (plus one proposal per phase it is king of), however much it
    /// sends.
    #[test]
    fn early_sba_flood_is_bounded_per_sender() {
        use crate::msg::SbaMsg;
        use mpc_net::Effects;
        use rand::{rngs::StdRng, SeedableRng};

        let params = Params::new(7, 2, 0, 10);
        let t = params.ts;
        for mut bc in [Bc::new(0, t, params), Bc::new_group(t, params)] {
            let k = bc.slots.len();
            let mut effects = Effects::new();
            let mut rng = StdRng::seed_from_u64(0);
            let mut ctx = Context::new(1, params.n, 0, params.delta, &mut effects, &mut rng, 0);
            bc.init(&mut ctx);
            let flooder = 2; // the king of phase 2
            for i in 0..20_000u32 {
                let value = |x: u32| Some(value(x as u64));
                let phase = i % 7; // phases 3..7 do not exist
                let msgs = [
                    SbaMsg::Round1 {
                        phase,
                        value: value(i),
                    },
                    SbaMsg::Round1Slots {
                        phase,
                        values: vec![value(i); k],
                    },
                    SbaMsg::Round2Slots {
                        phase,
                        candidates: vec![Some(value(i)); k],
                    },
                    SbaMsg::KingSlots {
                        phase,
                        values: vec![value(i); k],
                    },
                ];
                for msg in msgs {
                    bc.on_message(&mut ctx, flooder, &[k as u32], Msg::Sba(msg));
                }
            }
            assert_eq!(bc.sba.stored_entries(), 2 * (t + 1) * k + 1, "k = {k}");
        }
    }
}
