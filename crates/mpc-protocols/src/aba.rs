//! Asynchronous Byzantine agreement `Π_ABA` with an ideal common coin.
//!
//! The paper (Lemma 3.3) uses the perfectly-secure ABA protocols of \[3, 7\] as
//! a black box. We provide the same interface with the
//! Mostéfaoui–Moumen–Raynal signature-free round structure driven by the
//! simulator's ideal common coin (DESIGN.md, substitution S1):
//!
//! * validity and consistency under `t < n/3` corruptions, in both network
//!   types;
//! * guaranteed liveness (within a constant number of rounds) when all honest
//!   parties hold the same input — the coins of the first two rounds are
//!   fixed to `1` and `0`, so a unanimous input `v` decides by round 2 at the
//!   latest;
//! * almost-sure liveness otherwise (random coins from round 3 on);
//! * a Bracha-style termination gadget (`Finish` messages) so that every
//!   honest party obtains the output once any honest party decides.

use std::collections::{HashMap, HashSet};

use mpc_net::{Context, PartyId, PathSlice, Time};

use crate::msg::{AbaMsg, Msg};
use crate::tree::{Event, Kind, Node, Routed};

/// A `Π_ABA` in the instance tree: a leaf.
pub static ABA: Kind = Kind::new("Aba", &[]);

/// One instance of the common-coin ABA.
#[derive(Debug)]
pub struct Aba {
    n: usize,
    t: usize,
    est: Option<bool>,
    round: u32,
    est_senders: HashMap<(u32, bool), HashSet<PartyId>>,
    sent_est: HashSet<(u32, bool)>,
    bin_values: HashMap<u32, [bool; 2]>,
    aux_received: HashMap<u32, HashMap<PartyId, bool>>,
    sent_aux: HashSet<u32>,
    finish_senders: [HashSet<PartyId>; 2],
    sent_finish: bool,
    /// The value this party decided (before termination).
    pub decided: Option<bool>,
    /// Round in which the decision was made.
    pub decided_round: Option<u32>,
    /// The terminated output (set once `2t+1` `Finish` messages arrive).
    pub output: Option<bool>,
    /// Local time the output was set.
    pub output_at: Option<Time>,
}

impl Aba {
    /// Creates an instance; `input` may be `None` and supplied later via
    /// [`Aba::provide_input`] (the party buffers incoming messages meanwhile).
    pub fn new(n: usize, t: usize, input: Option<bool>) -> Self {
        Aba {
            n,
            t,
            est: input,
            round: 0,
            est_senders: HashMap::new(),
            sent_est: HashSet::new(),
            bin_values: HashMap::new(),
            aux_received: HashMap::new(),
            sent_aux: HashSet::new(),
            finish_senders: [HashSet::new(), HashSet::new()],
            sent_finish: false,
            decided: None,
            decided_round: None,
            output: None,
            output_at: None,
        }
    }

    /// Supplies the input estimate if not yet set and drives the round logic.
    pub fn provide_input(&mut self, ctx: &mut Context<'_, Msg>, input: bool) {
        if self.est.is_none() {
            self.est = Some(input);
        }
        self.try_progress(ctx);
    }

    /// Whether this party has already been given an input.
    pub fn has_input(&self) -> bool {
        self.est.is_some()
    }

    /// The round coin: fixed for the first two rounds (guaranteed liveness
    /// under unanimous inputs), ideal common coin afterwards.
    fn coin(&self, ctx: &Context<'_, Msg>, round: u32) -> bool {
        match round {
            0 => true,
            1 => false,
            r => ctx.common_coin(r as u64),
        }
    }

    fn bin(&self, round: u32) -> [bool; 2] {
        self.bin_values
            .get(&round)
            .copied()
            .unwrap_or([false, false])
    }

    fn send_est(&mut self, ctx: &mut Context<'_, Msg>, round: u32, value: bool) {
        if self.sent_est.insert((round, value)) {
            ctx.broadcast(Msg::Aba(AbaMsg::Est { round, value }));
        }
    }

    fn send_finish(&mut self, ctx: &mut Context<'_, Msg>, value: bool) {
        if !self.sent_finish {
            self.sent_finish = true;
            ctx.broadcast(Msg::Aba(AbaMsg::Finish { value }));
        }
    }

    /// Drives the state machine as far as received messages allow; returns
    /// whether the output appeared.
    fn try_progress(&mut self, ctx: &mut Context<'_, Msg>) -> bool {
        if self.output.is_some() {
            return false;
        }
        // termination gadget (independent of rounds)
        for v in [false, true] {
            let idx = v as usize;
            if self.finish_senders[idx].len() > self.t {
                self.send_finish(ctx, v);
            }
            if self.finish_senders[idx].len() > 2 * self.t {
                self.output = Some(v);
                self.output_at = Some(ctx.now);
                return true;
            }
        }
        // bounded loop: each iteration either advances the round or stops
        for _ in 0..10_000 {
            let Some(est) = self.est else { return false };
            let r = self.round;
            self.send_est(ctx, r, est);
            // echo amplification and bin_values
            for v in [false, true] {
                let count = self.est_senders.get(&(r, v)).map_or(0, HashSet::len);
                if count > self.t {
                    self.send_est(ctx, r, v);
                }
                if count > 2 * self.t {
                    self.bin_values.entry(r).or_insert([false, false])[v as usize] = true;
                }
            }
            let bin = self.bin(r);
            if (bin[0] || bin[1]) && !self.sent_aux.contains(&r) {
                self.sent_aux.insert(r);
                let value = bin[1];
                ctx.broadcast(Msg::Aba(AbaMsg::Aux { round: r, value }));
            }
            // try to close the round
            let valid_aux: Vec<bool> = self
                .aux_received
                .get(&r)
                .map(|m| m.values().copied().filter(|&v| bin[v as usize]).collect())
                .unwrap_or_default();
            if valid_aux.len() < self.n - self.t {
                return false;
            }
            let has_true = valid_aux.iter().any(|&v| v);
            let has_false = valid_aux.iter().any(|&v| !v);
            let coin = self.coin(ctx, r);
            if has_true ^ has_false {
                let v = has_true;
                self.est = Some(v);
                if v == coin && self.decided.is_none() {
                    self.decided = Some(v);
                    self.decided_round = Some(r);
                    self.send_finish(ctx, v);
                }
            } else {
                self.est = Some(coin);
            }
            self.round += 1;
        }
        false
    }
}

impl Node for Aba {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.try_progress(ctx);
    }

    /// Progress is the terminated output appearing.
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool {
        let Routed::Own(Event::Message(from, Msg::Aba(am))) = ABA.route(self, ctx, path, ev) else {
            return false;
        };
        match *am {
            AbaMsg::Est { round, value } => {
                self.est_senders
                    .entry((round, value))
                    .or_default()
                    .insert(from);
            }
            AbaMsg::Aux { round, value } => {
                self.aux_received
                    .entry(round)
                    .or_default()
                    .entry(from)
                    .or_insert(value);
            }
            AbaMsg::Finish { value } => {
                self.finish_senders[value as usize].insert(from);
            }
        }
        self.try_progress(ctx)
    }
}

crate::node_protocol!(Aba);

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_net::{CorruptionSet, NetConfig, NetworkKind, Protocol, Simulation};

    fn run(
        n: usize,
        t: usize,
        inputs: Vec<Option<bool>>,
        corrupt: CorruptionSet,
        kind: NetworkKind,
        seed: u64,
    ) -> (Vec<bool>, Time) {
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .into_iter()
            .map(|v| Box::new(Aba::new(n, t, v)) as Box<dyn Protocol<Msg>>)
            .collect();
        let cfg = match kind {
            NetworkKind::Synchronous => NetConfig::synchronous(n),
            NetworkKind::Asynchronous => NetConfig::asynchronous(n),
        }
        .with_seed(seed);
        let mut sim = Simulation::new(cfg, corrupt.clone(), parties);
        let done = sim.run_until(10_000_000, |sim| {
            (0..n)
                .filter(|&i| corrupt.is_honest(i))
                .all(|i| sim.party_as::<Aba>(i).unwrap().output.is_some())
        });
        assert!(done, "ABA did not terminate");
        let outs = (0..n)
            .filter(|&i| corrupt.is_honest(i))
            .map(|i| sim.party_as::<Aba>(i).unwrap().output.unwrap())
            .collect();
        (outs, sim.now())
    }

    #[test]
    fn validity_unanimous_true_sync() {
        let (outs, _) = run(
            4,
            1,
            vec![Some(true); 4],
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            1,
        );
        assert!(outs.iter().all(|&o| o));
    }

    #[test]
    fn validity_unanimous_false_sync() {
        let (outs, _) = run(
            7,
            2,
            vec![Some(false); 7],
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            2,
        );
        assert!(outs.iter().all(|&o| !o));
    }

    #[test]
    fn consistency_mixed_inputs_sync_and_async() {
        for (kind, seed) in [
            (NetworkKind::Synchronous, 3),
            (NetworkKind::Asynchronous, 4),
        ] {
            let inputs = vec![
                Some(true),
                Some(false),
                Some(true),
                Some(false),
                Some(true),
                Some(false),
                Some(true),
            ];
            let (outs, _) = run(7, 2, inputs, CorruptionSet::none(), kind, seed);
            assert!(outs.windows(2).all(|w| w[0] == w[1]), "{kind:?}");
        }
    }

    #[test]
    fn validity_unanimous_async_with_corrupt_silent_parties() {
        // the corrupt parties never get an input (silent)
        let mut inputs = vec![Some(true); 5];
        inputs.extend(vec![None; 2]);
        let (outs, _) = run(
            7,
            2,
            inputs,
            CorruptionSet::new(vec![5, 6]),
            NetworkKind::Asynchronous,
            5,
        );
        assert!(outs.iter().all(|&o| o));
    }

    #[test]
    fn unanimous_inputs_terminate_quickly_in_sync_network() {
        // Lemma 3.3: guaranteed liveness within T_ABA = k·Δ when unanimous.
        let n = 7;
        let (_, finish_time) = run(
            n,
            2,
            vec![Some(false); n],
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            6,
        );
        let delta = 10;
        assert!(
            finish_time <= 10 * delta,
            "unanimous ABA should finish within T_ABA, took {finish_time}"
        );
    }

    #[test]
    fn late_input_still_terminates() {
        // One honest party receives its input only via provide_input after
        // other parties have started: modelled by starting it with None and
        // letting a wrapper protocol inject the input — here we simply check
        // that a party with None input still terminates thanks to the
        // termination gadget driven by the others (5 unanimous parties out of
        // 7 with t = 2 suffice to decide and finish).
        let mut inputs = vec![Some(true); 6];
        inputs.push(None);
        let (outs, _) = run(
            7,
            2,
            inputs,
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            7,
        );
        assert!(outs.iter().all(|&o| o));
    }
}
