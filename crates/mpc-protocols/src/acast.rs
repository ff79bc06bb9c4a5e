//! Bracha's asynchronous reliable broadcast `Π_ACast` (Section 2.1,
//! Lemma 2.4).
//!
//! A designated sender `S` distributes a value identically to all parties
//! despite `t < n/3` corruptions. In an asynchronous network the protocol
//! provides liveness/validity for an honest `S` and consistency for a corrupt
//! one; in a synchronous network an honest sender's value is output by every
//! honest party within `3Δ`, and for a corrupt sender any two honest outputs
//! are equal and appear within `2Δ` of each other.
//!
//! Every layer of the tower bottoms out here, so an `Echo`/`Ready` delivery
//! is the unit the whole evaluation's cost is a multiple of. Support is
//! therefore counted by comparison (the `tally` module): a delivery naming a
//! known value hashes nothing, clones nothing and allocates nothing. Only a
//! party's *first* `Echo` and first `Ready` count — an honest party sends one
//! of each — so an instance holds at most `2n` candidate values whatever the
//! corrupt parties send.

use std::any::Any;

use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};

use crate::msg::{AcastMsg, BcValue, Msg};
use crate::tally::{tally, Tally};

/// One instance of Bracha's A-cast.
#[derive(Debug)]
pub struct Acast {
    sender: PartyId,
    n: usize,
    t: usize,
    input: Option<BcValue>,
    sent_send: bool,
    sent_echo: bool,
    sent_ready: bool,
    /// Whether a party's `Echo` (index `from`) or `Ready` (index `n + from`)
    /// was already counted.
    seen: Vec<bool>,
    echoes: Tally<BcValue>,
    readies: Tally<BcValue>,
    /// The delivered value, if any.
    pub output: Option<BcValue>,
    /// Local time at which the value was delivered.
    pub output_at: Option<Time>,
}

impl Acast {
    /// Creates a participant instance. The designated `sender` must be given
    /// its input via [`Acast::new_sender`] or [`Acast::provide_input`].
    pub fn new(sender: PartyId, n: usize, t: usize) -> Self {
        Acast {
            sender,
            n,
            t,
            input: None,
            sent_send: false,
            sent_echo: false,
            sent_ready: false,
            seen: vec![false; 2 * n],
            echoes: Tally::new(),
            readies: Tally::new(),
            output: None,
            output_at: None,
        }
    }

    /// Creates the sender-side instance with its input value.
    pub fn new_sender(sender: PartyId, n: usize, t: usize, input: BcValue) -> Self {
        let mut a = Self::new(sender, n, t);
        a.input = Some(input);
        a
    }

    /// Supplies the sender's input after construction (starts the broadcast
    /// immediately). Has no effect on non-sender parties or if already begun.
    pub fn provide_input(&mut self, ctx: &mut Context<'_, Msg>, input: BcValue) {
        if ctx.me == self.sender && !self.sent_send {
            self.input = Some(input);
            self.start(ctx);
        }
    }

    /// The echo threshold `⌈(n + t + 1) / 2⌉`.
    fn echo_threshold(&self) -> usize {
        (self.n + self.t + 2) / 2
    }

    fn start(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(v) = self.input.clone() {
            self.sent_send = true;
            ctx.broadcast(Msg::Acast(AcastMsg::Send(v)));
        }
    }

    /// Admits `from`'s `Echo` (`stage = 0`) or `Ready` (`stage = 1`): the
    /// sender must be a party and this must be its first message of that
    /// stage. Anything else is dropped — a repeat is a duplicate delivery or
    /// a corrupt party's second opinion, and neither may count twice.
    fn admit(&mut self, from: PartyId, stage: usize) -> bool {
        from < self.n && !std::mem::replace(&mut self.seen[stage * self.n + from], true)
    }
}

impl Protocol<Msg> for Acast {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.me == self.sender {
            self.start(ctx);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        _path: PathSlice<'_>,
        msg: Msg,
    ) {
        let Msg::Acast(am) = msg else { return };
        match am {
            AcastMsg::Send(v) => {
                if from == self.sender && !self.sent_echo {
                    self.sent_echo = true;
                    ctx.broadcast(Msg::Acast(AcastMsg::Echo(v)));
                }
            }
            AcastMsg::Echo(v) => {
                if !self.admit(from, 0) {
                    return;
                }
                let echo_threshold = self.echo_threshold();
                let (value, support) = tally(&mut self.echoes, v);
                if *support >= echo_threshold && !self.sent_ready {
                    self.sent_ready = true;
                    ctx.broadcast(Msg::Acast(AcastMsg::Ready(value.clone())));
                }
            }
            AcastMsg::Ready(v) => {
                if !self.admit(from, 1) {
                    return;
                }
                let (value, support) = tally(&mut self.readies, v);
                if *support > self.t && !self.sent_ready {
                    self.sent_ready = true;
                    ctx.broadcast(Msg::Acast(AcastMsg::Ready(value.clone())));
                }
                if *support > 2 * self.t && self.output.is_none() {
                    self.output = Some(value.clone());
                    self.output_at = Some(ctx.now);
                }
            }
        }
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
    use mpc_algebra::Fp;
    use mpc_net::{CorruptionSet, Effects, NetConfig, Simulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn value(x: u64) -> BcValue {
        BcValue::Value(vec![Fp::from_u64(x)])
    }

    fn make_parties(
        n: usize,
        t: usize,
        sender: PartyId,
        input: BcValue,
    ) -> Vec<Box<dyn Protocol<Msg>>> {
        (0..n)
            .map(|i| {
                let a = if i == sender {
                    Acast::new_sender(sender, n, t, input.clone())
                } else {
                    Acast::new(sender, n, t)
                };
                Box::new(a) as Box<dyn Protocol<Msg>>
            })
            .collect()
    }

    fn all_output(sim: &Simulation<Msg>, n: usize) -> bool {
        (0..n).all(|i| sim.party_as::<Acast>(i).unwrap().output.is_some())
    }

    #[test]
    fn honest_sender_sync_delivers_within_3_delta() {
        let n = 7;
        let t = 2;
        let cfg = NetConfig::synchronous(n);
        let delta = cfg.delta;
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), make_parties(n, t, 0, value(9)));
        assert!(sim.run_until(1000, |s| all_output(s, n)));
        for i in 0..n {
            let p = sim.party_as::<Acast>(i).unwrap();
            assert_eq!(p.output, Some(value(9)));
            assert!(
                p.output_at.unwrap() <= 3 * delta,
                "Lemma 2.4: liveness within 3Δ"
            );
        }
    }

    #[test]
    fn honest_sender_async_eventually_delivers() {
        let n = 7;
        let t = 2;
        let mut sim = Simulation::new(
            NetConfig::asynchronous(n).with_seed(5),
            CorruptionSet::none(),
            make_parties(n, t, 2, value(11)),
        );
        assert!(sim.run_until(1_000_000, |s| all_output(s, n)));
        for i in 0..n {
            assert_eq!(sim.party_as::<Acast>(i).unwrap().output, Some(value(11)));
        }
    }

    #[test]
    fn silent_sender_produces_no_output() {
        let n = 4;
        let t = 1;
        // sender is "corrupt" by never being given an input
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|_| Box::new(Acast::new(0, n, t)) as Box<dyn Protocol<Msg>>)
            .collect();
        let mut sim = Simulation::new(
            NetConfig::synchronous(n),
            CorruptionSet::new(vec![0]),
            parties,
        );
        sim.run_to_quiescence(10_000);
        assert!((0..n).all(|i| sim.party_as::<Acast>(i).unwrap().output.is_none()));
    }

    #[test]
    fn communication_is_order_n_squared_messages() {
        let n = 7;
        let t = 2;
        let mut sim = Simulation::new(
            NetConfig::synchronous(n),
            CorruptionSet::none(),
            make_parties(n, t, 0, value(1)),
        );
        sim.run_to_quiescence(10_000);
        // send (n) + echo (n^2) + ready (n^2)
        let msgs = sim.metrics().honest_messages;
        assert!(msgs as usize <= n + 2 * n * n);
        assert!(msgs as usize >= 2 * n * (n - t));
    }

    /// Delivers `msg` from `from` to a lone instance and returns what the
    /// instance broadcast in response.
    fn feed(acast: &mut Acast, from: PartyId, msg: AcastMsg) -> Vec<Msg> {
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(1, acast.n, 0, 10, &mut effects, &mut rng, 0);
        acast.on_message(&mut ctx, from, &[], Msg::Acast(msg));
        assert!(effects.sends.is_empty() && effects.timers.is_empty());
        effects.broadcasts.into_iter().map(|(_, m)| m).collect()
    }

    fn stored_candidates(acast: &Acast) -> usize {
        acast.echoes.len() + acast.readies.len()
    }

    #[test]
    fn hostile_echo_flood_is_bounded_per_sender() {
        let (n, t) = (7, 2);
        let mut acast = Acast::new(0, n, t);
        // Two corrupt parties name a fresh value in every message; senders
        // outside the party set do the same.
        for x in 0..1000 {
            for (k, from) in [n - 2, n - 1, n, usize::MAX].into_iter().enumerate() {
                let fresh = value(100 + 4 * x + k as u64);
                assert!(feed(&mut acast, from, AcastMsg::Echo(fresh.clone())).is_empty());
                assert!(feed(&mut acast, from, AcastMsg::Ready(fresh)).is_empty());
            }
        }
        // Each corrupt party's first Echo and first Ready, nothing else.
        assert_eq!(stored_candidates(&acast), 2 * t);
        assert_eq!(acast.seen.len(), 2 * n);
        assert_eq!(acast.seen.iter().filter(|&&s| s).count(), 2 * t);
        assert!(acast.output.is_none());

        // The flood bought no support: the honest parties' value still needs
        // its own ⌈(n+t+1)/2⌉ = 5 echoes and 2t+1 = 5 readies.
        for from in 0..4 {
            assert!(feed(&mut acast, from, AcastMsg::Echo(value(9))).is_empty());
        }
        let ready = vec![Msg::Acast(AcastMsg::Ready(value(9)))];
        assert_eq!(feed(&mut acast, 4, AcastMsg::Echo(value(9))), ready);
        for from in 0..4 {
            assert!(feed(&mut acast, from, AcastMsg::Ready(value(9))).is_empty());
            assert!(acast.output.is_none());
        }
        assert!(feed(&mut acast, 4, AcastMsg::Ready(value(9))).is_empty());
        assert_eq!(acast.output, Some(value(9)));
        // Every party was heard once per stage: at most 2n candidates ever.
        assert!(stored_candidates(&acast) <= 2 * n);
    }

    #[test]
    fn duplicate_echo_and_ready_are_idempotent() {
        let (n, t) = (4, 1);
        let burst = 3;
        let mut acast = Acast::new(0, n, t);
        // A repeated Send is echoed once, and only the sender's counts.
        assert!(feed(&mut acast, 2, AcastMsg::Send(value(5))).is_empty());
        let echo = vec![Msg::Acast(AcastMsg::Echo(value(5)))];
        assert_eq!(feed(&mut acast, 0, AcastMsg::Send(value(5))), echo);
        for _ in 0..burst {
            assert!(feed(&mut acast, 0, AcastMsg::Send(value(5))).is_empty());
        }
        // Two echoers, each delivered `burst` times, stay below the echo
        // threshold ⌈(n+t+1)/2⌉ = 3; the third distinct echoer reaches it.
        for from in [0, 1] {
            for _ in 0..burst {
                assert!(feed(&mut acast, from, AcastMsg::Echo(value(5))).is_empty());
            }
        }
        assert_eq!(acast.echoes, vec![(value(5), 2)]);
        let ready = vec![Msg::Acast(AcastMsg::Ready(value(5)))];
        assert_eq!(feed(&mut acast, 2, AcastMsg::Echo(value(5))), ready);
        // Likewise 2t = 2 distinct readies, however often repeated, deliver
        // nothing; the third does, and further repeats change nothing.
        for from in [0, 1] {
            for _ in 0..burst {
                assert!(feed(&mut acast, from, AcastMsg::Ready(value(5))).is_empty());
            }
        }
        assert_eq!(acast.readies, vec![(value(5), 2)]);
        assert!(acast.output.is_none());
        assert!(feed(&mut acast, 3, AcastMsg::Ready(value(5))).is_empty());
        assert_eq!(acast.output, Some(value(5)));
        for from in 0..n {
            assert!(feed(&mut acast, from, AcastMsg::Echo(value(5))).is_empty());
            assert!(feed(&mut acast, from, AcastMsg::Ready(value(5))).is_empty());
        }
        // In the end every party was counted exactly once per stage.
        assert_eq!(acast.echoes, vec![(value(5), n)]);
        assert_eq!(acast.readies, vec![(value(5), n)]);
    }
}
