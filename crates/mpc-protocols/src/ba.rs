//! `Π_BA` — the best-of-both-worlds Byzantine agreement (Fig 2, Theorem 3.6).
//!
//! Every party broadcasts its input bit through `Π_BC`; at local time `T_BC`
//! the regular-mode outputs of the `n` broadcasts determine the input to a
//! single `Π_ABA` instance (majority of a set `R` of at least `n − t` non-`⊥`
//! outputs if such a set exists, the party's own input otherwise); the `Π_ABA`
//! output is the overall output. The combination is a perfectly-secure SBA in
//! a synchronous network and a perfectly-secure ABA in an asynchronous one.
//!
//! The `n` broadcasts all start in [`Ba::init`], so they run as one
//! lock-step [`Bc`] group: `n` A-casts, one `n`-slot SBA.
//!
//! Child segments: `0` is the broadcast group, `n` is the `Π_ABA`
//! (kept where it was when the broadcasts occupied `0..n`: the common coin
//! is derived from the instance path). Both exist from construction; the
//! `Π_ABA` is `init`-ed at `T_BC` and tallies what arrives before (DESIGN.md
//! "Timed children exist from construction").

use std::any::Any;

use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::aba::Aba;
use crate::bc::Bc;
use crate::msg::{BcValue, Msg};
use crate::params::Params;

const SEG_BCS: u32 = 0;
const TIMER_START_ABA: u64 = 1;

/// One instance of `Π_BA` over a single input bit.
#[derive(Debug)]
pub struct Ba {
    t: usize,
    params: Params,
    my_input: Option<bool>,
    /// The input broadcasts (slot `j` = party `j`).
    bcs: Bc,
    /// Started (`init`) at `T_BC`; it tallies what arrives before.
    aba: Aba,
    r_majority: Option<bool>,
    aba_started: bool,
    aba_input_given: bool,
    /// The agreed output bit.
    pub output: Option<bool>,
    /// Local time the output was obtained.
    pub output_at: Option<Time>,
}

impl Ba {
    /// Creates an instance; `input` may be supplied later via
    /// [`Ba::provide_input`] (as `Π_ACS` does for its deferred votes).
    pub fn new(t: usize, params: Params, input: Option<bool>) -> Self {
        Ba {
            t,
            params,
            my_input: input,
            bcs: Bc::new_group(t, params),
            aba: Aba::new(params.n, t, None),
            r_majority: None,
            aba_started: false,
            aba_input_given: false,
            output: None,
            output_at: None,
        }
    }

    fn aba_segment(&self) -> u32 {
        self.params.n as u32
    }

    /// Supplies the party's input bit if not yet set, broadcasting it and (if
    /// the ABA phase has already started) feeding the derived value into it.
    pub fn provide_input(&mut self, ctx: &mut Context<'_, Msg>, input: bool) {
        if self.my_input.is_none() {
            self.my_input = Some(input);
            self.broadcast_input(ctx, input);
        }
        self.maybe_feed_aba(ctx);
    }

    fn broadcast_input(&mut self, ctx: &mut Context<'_, Msg>, input: bool) {
        let bcs = &mut self.bcs;
        ctx.scoped(SEG_BCS, |ctx| bcs.provide_input(ctx, BcValue::Bit(input)));
    }

    /// Whether an input has been supplied.
    pub fn has_input(&self) -> bool {
        self.my_input.is_some()
    }

    fn maybe_feed_aba(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.aba_started || self.aba_input_given {
            return;
        }
        let v_star = self.r_majority.or(self.my_input);
        if let Some(v) = v_star {
            self.aba_input_given = true;
            let seg = self.aba_segment();
            let aba = &mut self.aba;
            ctx.scoped(seg, |ctx| aba.provide_input(ctx, v));
            self.check_output(ctx.now);
        }
    }

    fn check_output(&mut self, now: Time) {
        if self.output.is_none() {
            if let Some(out) = self.aba.output {
                self.output = Some(out);
                self.output_at = Some(now);
            }
        }
    }
}

impl Protocol<Msg> for Ba {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let bcs = &mut self.bcs;
        ctx.scoped(SEG_BCS, |ctx| bcs.init(ctx));
        if let Some(input) = self.my_input {
            self.broadcast_input(ctx, input);
        }
        ctx.set_timer(self.params.t_bc(), TIMER_START_ABA);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let Some(&seg) = path.first() else { return };
        if seg == SEG_BCS {
            let bcs = &mut self.bcs;
            ctx.scoped(seg, |ctx| bcs.on_message(ctx, from, &path[1..], msg));
        } else if seg == self.aba_segment() {
            let aba = &mut self.aba;
            ctx.scoped(seg, |ctx| aba.on_message(ctx, from, &path[1..], msg));
            self.check_output(ctx.now);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        match path.first() {
            Some(&SEG_BCS) => {
                let bcs = &mut self.bcs;
                ctx.scoped(SEG_BCS, |ctx| bcs.on_timer(ctx, &path[1..], id));
            }
            Some(&seg) if seg == self.aba_segment() => {
                let aba = &mut self.aba;
                ctx.scoped(seg, |ctx| aba.on_timer(ctx, &path[1..], id));
                self.check_output(ctx.now);
            }
            None if id == TIMER_START_ABA => {
                // Determine the set R of senders whose broadcast produced a
                // bit through regular mode, and the derived ABA input.
                let r_bits: Vec<bool> = (0..self.params.n)
                    .filter_map(|j| match self.bcs.slot(j)?.regular_value() {
                        Some(BcValue::Bit(b)) => Some(*b),
                        _ => None,
                    })
                    .collect();
                if r_bits.len() >= self.params.n - self.t {
                    let ones = r_bits.iter().filter(|&&b| b).count();
                    let zeros = r_bits.len() - ones;
                    self.r_majority = Some(ones >= zeros); // ties broken towards 1
                }
                let (seg, aba) = (self.aba_segment(), &mut self.aba);
                ctx.scoped(seg, |ctx| aba.init(ctx));
                self.aba_started = true;
                self.maybe_feed_aba(ctx);
                self.check_output(ctx.now);
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
    use mpc_net::{CorruptionSet, NetConfig, NetworkKind, Simulation};

    fn run(
        params: Params,
        inputs: Vec<Option<bool>>,
        corrupt: CorruptionSet,
        kind: NetworkKind,
        seed: u64,
    ) -> (Vec<bool>, Time) {
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .into_iter()
            .map(|v| Box::new(Ba::new(params.ts, params, v)) as Box<dyn Protocol<Msg>>)
            .collect();
        let cfg = match kind {
            NetworkKind::Synchronous => NetConfig::synchronous(params.n),
            NetworkKind::Asynchronous => NetConfig::asynchronous(params.n),
        }
        .with_seed(seed);
        let mut sim = Simulation::new(cfg, corrupt.clone(), parties);
        let done = sim.run_until(10_000_000, |s| {
            (0..params.n)
                .filter(|&i| corrupt.is_honest(i))
                .all(|i| s.party_as::<Ba>(i).unwrap().output.is_some())
        });
        assert!(done, "BA did not produce outputs");
        let outs = (0..params.n)
            .filter(|&i| corrupt.is_honest(i))
            .map(|i| sim.party_as::<Ba>(i).unwrap().output.unwrap())
            .collect();
        let latest = (0..params.n)
            .filter(|&i| corrupt.is_honest(i))
            .map(|i| sim.party_as::<Ba>(i).unwrap().output_at.unwrap())
            .max()
            .unwrap();
        (outs, latest)
    }

    #[test]
    fn validity_and_time_bound_in_sync_network() {
        let params = Params::new(4, 1, 0, 10);
        let (outs, latest) = run(
            params,
            vec![Some(true); 4],
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            1,
        );
        assert!(outs.iter().all(|&o| o));
        assert!(
            latest <= params.t_ba(),
            "Theorem 3.6: output within T_BA = T_BC + T_ABA, got {latest}"
        );
    }

    #[test]
    fn validity_false_in_sync_network() {
        let params = Params::new(7, 2, 0, 10);
        let (outs, _) = run(
            params,
            vec![Some(false); 7],
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            2,
        );
        assert!(outs.iter().all(|&o| !o));
    }

    #[test]
    fn consistency_with_mixed_inputs_sync() {
        let params = Params::new(7, 2, 0, 10);
        let inputs = vec![
            Some(true),
            Some(false),
            Some(false),
            Some(true),
            Some(true),
            Some(false),
            Some(true),
        ];
        let (outs, _) = run(
            params,
            inputs,
            CorruptionSet::none(),
            NetworkKind::Synchronous,
            3,
        );
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn validity_in_async_network() {
        let params = Params::new(7, 2, 0, 10);
        let (outs, _) = run(
            params,
            vec![Some(true); 7],
            CorruptionSet::none(),
            NetworkKind::Asynchronous,
            4,
        );
        assert!(outs.iter().all(|&o| o));
    }

    #[test]
    fn consistency_with_silent_corrupt_parties_async() {
        let params = Params::new(7, 2, 0, 10);
        let mut inputs = vec![Some(false); 6];
        inputs.push(None); // corrupt party never participates
        let (outs, _) = run(
            params,
            inputs,
            CorruptionSet::new(vec![6]),
            NetworkKind::Asynchronous,
            5,
        );
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        assert!(
            outs.iter().all(|&o| !o),
            "validity with 6 unanimous honest parties"
        );
    }
}
