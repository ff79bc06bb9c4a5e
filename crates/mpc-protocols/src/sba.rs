//! The synchronous Byzantine agreement `Π_BGP` used inside `Π_BC`.
//!
//! We implement the classic phase-king protocol (Berman–Garay–Perry) for
//! `t < n/3`: `t + 1` phases of three `Δ`-rounds each, over an arbitrary
//! value domain (here [`SbaValue`] — a broadcast value or `⊥`). See DESIGN.md
//! substitution S2 for how this differs from the recursive variant the paper
//! cites (\[16\]) and why every property `Π_BC` needs is preserved:
//!
//! * in a synchronous network it is a `t`-perfectly-secure SBA with all
//!   honest parties holding their output at time `T_BGP = 3(t+1)Δ`;
//! * in an asynchronous network it still has guaranteed liveness at local
//!   time `T_BGP` (the output value may be arbitrary — `Π_BC` only needs
//!   liveness there, see footnote 4 of the paper).
//!
//! One instance agrees on `k` values at once, **slot-wise**: the `k` slots
//! share the round timers and ride in one Round1/Round2/King envelope per
//! party per round, but every slot keeps its own tallies, its own `D` value
//! and its own king adoption, so its output is exactly that of a one-slot
//! instance fed the same per-slot messages (running phase-king on the vector
//! as a single value would let one disputed slot void validity for the other
//! `k − 1`). `k = 1` is the SBA of a lone `Π_BC` and speaks the scalar
//! [`SbaMsg`] forms; `k > 1` is the SBA of a lock-step broadcast group (see
//! DESIGN.md "Lock-step broadcast groups").

use std::any::Any;

use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::msg::{Msg, SbaMsg, SbaValue};
use crate::tally::tally;

/// Support counts of one (phase, round, slot). At most one entry per sender,
/// so at most `n`.
type Tally = crate::tally::Tally<SbaValue>;

/// One instance of the phase-king SBA over `k` slots.
#[derive(Debug)]
pub struct Sba {
    n: usize,
    t: usize,
    /// Current value of every slot (its length is the slot count `k`).
    values: Vec<SbaValue>,
    /// Round-1 values, indexed `[phase · k + slot]`.
    round1: Vec<Tally>,
    /// Round-2 candidates, indexed `[phase · k + slot]`.
    round2: Vec<Tally>,
    /// Whether a round message was already accepted, indexed
    /// `[(2 · phase + round) · n + sender]`.
    seen: Vec<bool>,
    /// The phase king's proposal (one value per slot), indexed `[phase]`.
    king_values: Vec<Option<Vec<SbaValue>>>,
    /// Per slot, the current phase's most supported round-2 candidate with
    /// more than `t` supporters, and its support.
    phase_d: Vec<Option<(SbaValue, usize)>>,
    /// Local time at which the outputs were fixed.
    pub output_at: Option<Time>,
}

impl Sba {
    /// Creates a one-slot SBA instance with the party's input value (`None`
    /// encodes the paper's `⊥`/default input).
    pub fn new(n: usize, t: usize, input: SbaValue) -> Self {
        Self::with_slots(n, t, vec![input])
    }

    /// Creates an SBA instance agreeing slot-wise on `inputs.len() ≥ 1`
    /// values.
    pub fn with_slots(n: usize, t: usize, inputs: Vec<SbaValue>) -> Self {
        let k = inputs.len();
        assert!(k >= 1, "an SBA instance has at least one slot");
        Sba {
            n,
            t,
            values: inputs,
            round1: vec![Tally::new(); (t + 1) * k],
            round2: vec![Tally::new(); (t + 1) * k],
            seen: vec![false; 2 * (t + 1) * n],
            king_values: vec![None; t + 1],
            phase_d: vec![None; k],
            output_at: None,
        }
    }

    /// Replaces the party's inputs. Meant for a parent that creates the
    /// instance early so that round messages of faster peers are tallied as
    /// they arrive, and learns its own inputs only when the protocol starts.
    pub fn set_inputs(&mut self, inputs: Vec<SbaValue>) {
        assert_eq!(inputs.len(), self.values.len(), "slot count is fixed");
        self.values = inputs;
    }

    /// Total running time of the protocol: `3(t+1)Δ`.
    pub fn duration(t: usize, delta: Time) -> Time {
        3 * (t as Time + 1) * delta
    }

    /// The agreed values, one per slot, from local time `T_BGP` on.
    pub fn outputs(&self) -> Option<&[SbaValue]> {
        self.output_at.map(|_| self.values.as_slice())
    }

    fn king(&self, phase: usize) -> PartyId {
        phase % self.n
    }

    /// Admits one round-1/round-2 envelope: the wire's `phase` must name one
    /// of the `t + 1` phases, the sender must be a party, the envelope must
    /// carry exactly one entry per slot, and it must be the sender's first
    /// for this (phase, round). Anything else is dropped whole — silence in
    /// that round, which a corrupt sender could always choose.
    fn admit(&mut self, from: PartyId, phase: u32, round: usize, len: usize) -> Option<usize> {
        let phase = phase as usize;
        if phase > self.t || from >= self.n || len != self.values.len() {
            return None;
        }
        let seen = &mut self.seen[(2 * phase + round) * self.n + from];
        (!std::mem::replace(seen, true)).then_some(phase)
    }

    /// Round 1 (`round = 0`, every entry `Some`) and round 2 (`round = 1`,
    /// `None` = no candidate for that slot) differ only in the tally they
    /// feed.
    fn on_round(
        &mut self,
        from: PartyId,
        phase: u32,
        round: usize,
        entries: impl ExactSizeIterator<Item = Option<SbaValue>>,
    ) {
        let Some(phase) = self.admit(from, phase, round, entries.len()) else {
            return;
        };
        let k = self.values.len();
        let tallies = if round == 0 {
            &mut self.round1
        } else {
            &mut self.round2
        };
        for (slot, entry) in tallies[phase * k..][..k].iter_mut().zip(entries) {
            if let Some(value) = entry {
                tally(slot, value);
            }
        }
    }

    fn on_king(&mut self, from: PartyId, phase: u32, values: Vec<SbaValue>) {
        let phase = phase as usize;
        if phase > self.t || from != self.king(phase) || values.len() != self.values.len() {
            return;
        }
        self.king_values[phase].get_or_insert(values);
    }

    /// Applies the end-of-phase update rule to every slot's value.
    fn finish_phase(&mut self, phase: usize) {
        let mut king = self.king_values[phase].take().map(Vec::into_iter);
        for (value, d) in self.values.iter_mut().zip(&mut self.phase_d) {
            let proposal = king.as_mut().and_then(Iterator::next);
            match d.take() {
                Some((d, support)) if support >= self.n - self.t => *value = d,
                _ => {
                    if let Some(proposal) = proposal {
                        *value = proposal;
                    }
                }
            }
        }
    }

    fn send_round1(&self, ctx: &mut Context<'_, Msg>, phase: u32) {
        ctx.broadcast(Msg::Sba(match self.values.as_slice() {
            [value] => SbaMsg::Round1 {
                phase,
                value: value.clone(),
            },
            values => SbaMsg::Round1Slots {
                phase,
                values: values.to_vec(),
            },
        }));
    }

    /// Round 2: per slot, the value seen at least `n − t` times in round 1.
    fn send_round2(&self, ctx: &mut Context<'_, Msg>, phase: usize) {
        let k = self.values.len();
        let mut candidates: Vec<Option<SbaValue>> = self.round1[phase * k..][..k]
            .iter()
            .map(|slot| {
                slot.iter()
                    .find(|(_, support)| *support >= self.n - self.t)
                    .map(|(v, _)| v.clone())
            })
            .collect();
        let phase = phase as u32;
        ctx.broadcast(Msg::Sba(if k == 1 {
            SbaMsg::Round2 {
                phase,
                candidate: candidates.pop().expect("k = 1"),
            }
        } else {
            SbaMsg::Round2Slots { phase, candidates }
        }));
    }

    /// Round 3: fix every slot's `D` (the most supported round-2 candidate
    /// with more than `t` supporters; honest candidates of one phase never
    /// differ, so at most one value qualifies) and, as the phase king,
    /// propose `D` where it exists and the own value elsewhere.
    fn send_king(&mut self, ctx: &mut Context<'_, Msg>, phase: usize) {
        let k = self.values.len();
        for (d, slot) in self.phase_d.iter_mut().zip(&self.round2[phase * k..][..k]) {
            *d = None;
            for (value, support) in slot {
                if *support > self.t && d.as_ref().is_none_or(|(_, best)| support > best) {
                    *d = Some((value.clone(), *support));
                }
            }
        }
        if ctx.me != self.king(phase) {
            return;
        }
        let mut proposal: Vec<SbaValue> = self
            .phase_d
            .iter()
            .zip(&self.values)
            .map(|(d, value)| d.as_ref().map_or(value, |(v, _)| v).clone())
            .collect();
        let phase = phase as u32;
        ctx.broadcast(Msg::Sba(if k == 1 {
            SbaMsg::King {
                phase,
                value: proposal.pop().expect("k = 1"),
            }
        } else {
            SbaMsg::KingSlots {
                phase,
                values: proposal,
            }
        }));
    }
}

impl Protocol<Msg> for Sba {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        // schedule every round of every phase plus the final output point
        for id in 0..=3 * (self.t as u64 + 1) {
            ctx.set_timer(id * ctx.delta, id);
        }
    }

    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, Msg>,
        from: PartyId,
        _path: PathSlice<'_>,
        msg: Msg,
    ) {
        let Msg::Sba(sm) = msg else { return };
        match sm {
            SbaMsg::Round1 { phase, value } => {
                self.on_round(from, phase, 0, std::iter::once(Some(value)))
            }
            SbaMsg::Round1Slots { phase, values } => {
                self.on_round(from, phase, 0, values.into_iter().map(Some))
            }
            SbaMsg::Round2 { phase, candidate } => {
                self.on_round(from, phase, 1, std::iter::once(candidate))
            }
            SbaMsg::Round2Slots { phase, candidates } => {
                self.on_round(from, phase, 1, candidates.into_iter())
            }
            SbaMsg::King { phase, value } => self.on_king(from, phase, vec![value]),
            SbaMsg::KingSlots { phase, values } => self.on_king(from, phase, values),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _path: PathSlice<'_>, id: u64) {
        if id > 3 * (self.t as u64 + 1) || self.output_at.is_some() {
            return;
        }
        let phase = (id / 3) as usize;
        match id % 3 {
            0 => {
                if phase > 0 {
                    self.finish_phase(phase - 1);
                }
                if phase > self.t {
                    // end of the final phase: the outputs are fixed
                    self.output_at = Some(ctx.now);
                } else {
                    self.send_round1(ctx, phase as u32);
                }
            }
            1 => self.send_round2(ctx, phase),
            _ => self.send_king(ctx, phase),
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
impl Sba {
    /// Heap entries held for round messages: tally entries plus stored king
    /// proposals (what a flooding sender could hope to grow).
    pub(crate) fn stored_entries(&self) -> usize {
        let tallies = self.round1.iter().chain(&self.round2);
        tallies.map(Vec::len).sum::<usize>() + self.king_values.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::SilentParty;
    use crate::msg::BcValue;
    use mpc_algebra::Fp;
    use mpc_net::{party_as, CorruptionSet, Effects, NetConfig, PartyView, Simulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn value(x: u64) -> SbaValue {
        Some(BcValue::Value(vec![Fp::from_u64(x)]))
    }

    fn run(
        n: usize,
        t: usize,
        inputs: Vec<SbaValue>,
        corrupt: CorruptionSet,
        seed: u64,
    ) -> Vec<SbaValue> {
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .into_iter()
            .map(|v| Box::new(Sba::new(n, t, v)) as Box<dyn Protocol<Msg>>)
            .collect();
        let cfg = NetConfig::synchronous(n).with_seed(seed);
        let mut net = crate::testnet::transport_for(cfg, corrupt.clone(), parties);
        let done = net.run_until_done(100_000, &mut |view| {
            (0..n).all(|i| party_as::<Sba, Msg>(view, i).unwrap().outputs().is_some())
        });
        assert!(done, "SBA must have guaranteed liveness");
        let view: &dyn PartyView<Msg> = net.as_ref();
        (0..n)
            .filter(|&i| corrupt.is_honest(i))
            .map(|i| party_as::<Sba, Msg>(view, i).unwrap().outputs().unwrap()[0].clone())
            .collect()
    }

    #[test]
    fn validity_with_unanimous_inputs() {
        let n = 4;
        let t = 1;
        let outs = run(n, t, vec![value(7); n], CorruptionSet::none(), 1);
        assert!(outs.iter().all(|o| *o == value(7)));
    }

    #[test]
    fn validity_with_bottom_inputs() {
        let n = 7;
        let t = 2;
        let outs = run(n, t, vec![None; n], CorruptionSet::none(), 2);
        assert!(outs.iter().all(|o| o.is_none()));
    }

    #[test]
    fn consistency_with_mixed_inputs() {
        let n = 7;
        let t = 2;
        let mut inputs = vec![value(1); 4];
        inputs.extend(vec![value(2); 3]);
        let outs = run(n, t, inputs, CorruptionSet::none(), 3);
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "all honest outputs must agree"
        );
    }

    #[test]
    fn consistency_with_silent_corrupt_parties() {
        // corrupt parties participate as silent (they are modelled by parties
        // that never send because their timers do fire but... here we model
        // them by honest-coded parties counted as corrupt: the adversary that
        // follows the protocol). Stronger adversaries are exercised in the
        // byzantine module tests.
        let n = 7;
        let t = 2;
        let mut inputs = vec![value(5); 5];
        inputs.extend(vec![value(9); 2]);
        let outs = run(n, t, inputs, CorruptionSet::new(vec![5, 6]), 4);
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        // validity: all honest had input 5
        assert!(outs.iter().all(|o| *o == value(5)));
    }

    #[test]
    fn output_arrives_exactly_at_t_bgp() {
        let n = 4;
        let t = 1;
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|_| Box::new(Sba::new(n, t, value(3))) as Box<dyn Protocol<Msg>>)
            .collect();
        let cfg = NetConfig::synchronous(n);
        let delta = cfg.delta;
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        sim.run_to_quiescence(100_000);
        for i in 0..n {
            let p = sim.party_as::<Sba>(i).unwrap();
            assert_eq!(p.output_at.unwrap(), Sba::duration(t, delta));
        }
    }

    /// Every message a corrupt party can send that the handler must drop
    /// whole, for a `k`-slot instance in which `from` is never the king:
    /// phases past `t` (up to `u32::MAX`), vectors one short / one long /
    /// empty, the scalar form when `k > 1`, and `King` from a non-king.
    fn hostile_messages(t: usize, k: usize) -> Vec<Msg> {
        let mut out = Vec::new();
        for phase in [t as u32 + 1, 1 << 20, u32::MAX] {
            out.push(SbaMsg::Round1Slots {
                phase,
                values: vec![value(66); k],
            });
            out.push(SbaMsg::Round2Slots {
                phase,
                candidates: vec![Some(value(66)); k],
            });
            out.push(SbaMsg::KingSlots {
                phase,
                values: vec![value(66); k],
            });
            out.push(SbaMsg::Round1 {
                phase,
                value: value(66),
            });
            out.push(SbaMsg::Round2 {
                phase,
                candidate: Some(value(66)),
            });
            out.push(SbaMsg::King {
                phase,
                value: value(66),
            });
        }
        for phase in 0..=t as u32 {
            for len in [0, k - 1, k + 1, 64 * k] {
                out.push(SbaMsg::Round1Slots {
                    phase,
                    values: vec![value(66); len],
                });
                out.push(SbaMsg::Round2Slots {
                    phase,
                    candidates: vec![Some(value(66)); len],
                });
            }
            if k > 1 {
                out.push(SbaMsg::Round1 {
                    phase,
                    value: value(66),
                });
                out.push(SbaMsg::Round2 {
                    phase,
                    candidate: Some(value(66)),
                });
            }
            // right length, but the sender is not this phase's king
            out.push(SbaMsg::KingSlots {
                phase,
                values: vec![value(66); k],
            });
        }
        out.into_iter().map(Msg::Sba).collect()
    }

    fn feed(sba: &mut Sba, from: PartyId, msg: Msg) {
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(0, sba.n, 0, 10, &mut effects, &mut rng, 0);
        sba.on_message(&mut ctx, from, &[], msg);
    }

    #[test]
    fn hostile_messages_are_dropped_without_state_growth() {
        let (n, t) = (7, 2);
        for k in [1usize, 3, n] {
            let mut sba = Sba::with_slots(n, t, vec![value(1); k]);
            for msg in hostile_messages(t, k) {
                feed(&mut sba, n - 1, msg.clone());
                // a sender id outside the party set is dropped as well
                feed(&mut sba, n, msg.clone());
                feed(&mut sba, usize::MAX, msg);
            }
            assert_eq!(sba.stored_entries(), 0, "k = {k}");
            assert!(sba.seen.iter().all(|&s| !s), "k = {k}");
            let sizes = (sba.round1.len(), sba.round2.len(), sba.seen.len());
            assert_eq!(sizes, ((t + 1) * k, (t + 1) * k, 2 * (t + 1) * n));

            // A well-formed round message counts once; its repeats (same or
            // different value) and a second king proposal do not.
            let round1 = |x| {
                Msg::Sba(SbaMsg::Round1Slots {
                    phase: 1,
                    values: vec![value(x); k],
                })
            };
            let round2 = |x| {
                Msg::Sba(SbaMsg::Round2Slots {
                    phase: 1,
                    candidates: vec![Some(value(x)); k],
                })
            };
            let king = |x| {
                Msg::Sba(SbaMsg::KingSlots {
                    phase: 1,
                    values: vec![value(x); k],
                })
            };
            for x in [5, 5, 6, 7] {
                feed(&mut sba, 3, round1(x));
                feed(&mut sba, 3, round2(x));
                feed(&mut sba, 1, king(x)); // party 1 is the king of phase 1
            }
            assert_eq!(sba.stored_entries(), 2 * k + 1, "k = {k}");
            assert_eq!(sba.round1[k], vec![(value(5), 1)]);
            assert_eq!(sba.king_values[1], Some(vec![value(5); k]));
        }
    }

    /// A corrupt party that broadcasts [`hostile_messages`] at every round.
    struct HostileSender {
        t: usize,
        k: usize,
    }

    impl Protocol<Msg> for HostileSender {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            for id in 0..=3 * (self.t as u64 + 1) {
                ctx.set_timer(id * ctx.delta, id);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: PartyId, _: PathSlice<'_>, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: PathSlice<'_>, _: u64) {
            for msg in hostile_messages(self.t, self.k) {
                ctx.broadcast(msg);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn hostile_sender_changes_nothing_compared_to_a_silent_one() {
        let (n, t, k) = (7, 2, 3);
        // slot 0 unanimous, slot 1 split 3/3 among the honest, slot 2 ⊥
        let inputs = |i: usize| vec![value(4), value(i as u64 % 2), None];
        let run = |hostile: bool| {
            let mut parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
                .map(|i| Box::new(Sba::with_slots(n, t, inputs(i))) as Box<dyn Protocol<Msg>>)
                .collect();
            parties[n - 1] = if hostile {
                Box::new(HostileSender { t, k })
            } else {
                Box::new(SilentParty)
            };
            let corrupt = CorruptionSet::new(vec![n - 1]);
            let mut sim = Simulation::new(NetConfig::synchronous(n).with_seed(9), corrupt, parties);
            sim.run_to_quiescence(100_000);
            (0..n - 1)
                .map(|i| {
                    let sba = sim.party_as::<Sba>(i).unwrap();
                    (sba.outputs().unwrap().to_vec(), sba.output_at)
                })
                .collect::<Vec<_>>()
        };
        let silent = run(false);
        assert_eq!(run(true), silent);
        assert!(silent.windows(2).all(|w| w[0] == w[1]), "agreement");
        assert_eq!(silent[0].0[0], value(4), "validity of the unanimous slot");
        assert_eq!(silent[0].0[2], None, "validity of the ⊥ slot");
    }
}
