//! `Acast` counts support by comparison (`crate::tally`, per-sender `seen`
//! flags). This file keeps the textbook formulation — a map from payload to
//! the set of parties that sent it — as a reference and checks that both
//! reach the same output, at the same time, at every honest party, under a
//! sender and echoers that tell every recipient something different.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};

use mpc_net::{Context, CorruptionSet, NetConfig, PartyId, PathSlice, Protocol, Simulation, Time};
use mpc_protocols::acast::Acast;
use mpc_protocols::{AcastMsg, BcValue, Msg, Vote};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bracha's A-cast with payload-keyed maps: the reference tally.
struct MapAcast {
    sender: PartyId,
    n: usize,
    t: usize,
    input: Option<BcValue>,
    sent_echo: bool,
    sent_ready: bool,
    echoes: HashMap<BcValue, HashSet<PartyId>>,
    readies: HashMap<BcValue, HashSet<PartyId>>,
    output: Option<BcValue>,
    output_at: Option<Time>,
}

impl MapAcast {
    fn new(sender: PartyId, n: usize, t: usize, input: Option<BcValue>) -> Self {
        MapAcast {
            sender,
            n,
            t,
            input,
            sent_echo: false,
            sent_ready: false,
            echoes: HashMap::new(),
            readies: HashMap::new(),
            output: None,
            output_at: None,
        }
    }

    fn check_thresholds(&mut self, ctx: &mut Context<'_, Msg>, value: &BcValue) {
        let echo_count = self.echoes.get(value).map_or(0, HashSet::len);
        let ready_count = self.readies.get(value).map_or(0, HashSet::len);
        let echo_threshold = (self.n + self.t + 2) / 2;
        if (echo_count >= echo_threshold || ready_count > self.t) && !self.sent_ready {
            self.sent_ready = true;
            ctx.broadcast(Msg::Acast(AcastMsg::Ready(value.clone())));
        }
        if ready_count > 2 * self.t && self.output.is_none() {
            self.output = Some(value.clone());
            self.output_at = Some(ctx.now);
        }
    }
}

impl Protocol<Msg> for MapAcast {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        if let (true, Some(v)) = (ctx.me == self.sender, self.input.clone()) {
            ctx.broadcast(Msg::Acast(AcastMsg::Send(v)));
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        _: PathSlice<'_>,
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
                self.echoes.entry(v.clone()).or_default().insert(from);
                self.check_thresholds(ctx, &v);
            }
            AcastMsg::Ready(v) => {
                self.readies.entry(v.clone()).or_default().insert(from);
                self.check_thresholds(ctx, &v);
            }
        }
    }

    fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: PathSlice<'_>, _: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A corrupt party that follows a fixed per-recipient script: at local time
/// `stage · Δ` it sends `script[stage][recipient]` (`None` = silence). The
/// stages are `Send`, `Echo`, `Ready`, so every recipient hears at most one
/// message of each kind from it — but not the same one as its neighbour.
struct Scripted {
    script: Vec<Vec<Option<AcastMsg>>>,
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
                ctx.send(to, Msg::Acast(msg.clone()));
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

/// One of three payloads, so that scripted values collide with each other
/// and with the honest sender's often enough to cross thresholds.
fn arb_value(rng: &mut StdRng) -> BcValue {
    match rng.gen_range(0..3u8) {
        0 => BcValue::Bit(true),
        1 => BcValue::Votes(vec![(0, Vote::Ok), (1, Vote::Ok)]),
        _ => BcValue::Votes(vec![(0, Vote::Ok)]),
    }
}

/// A script that mostly pushes one value (so that a corrupt sender's A-cast
/// does deliver, or delivers to some) and otherwise equivocates or is silent.
fn arb_script(rng: &mut StdRng, n: usize) -> Vec<Vec<Option<AcastMsg>>> {
    let stages: [fn(BcValue) -> AcastMsg; 3] = [AcastMsg::Send, AcastMsg::Echo, AcastMsg::Ready];
    let favourite = arb_value(rng);
    stages
        .iter()
        .map(|stage| {
            (0..n)
                .map(|_| match rng.gen_range(0..6u8) {
                    0 => None,
                    1 => Some(stage(arb_value(rng))),
                    _ => Some(stage(favourite.clone())),
                })
                .collect()
        })
        .collect()
}

type Script = Vec<Vec<Option<AcastMsg>>>;
type Outputs = Vec<(Option<BcValue>, Option<Time>)>;

/// Runs one A-cast of `sender` among `n` parties — the parties of `scripts`
/// are corrupt and follow their script, the others run the implementation
/// `honest` builds — and returns every honest party's output and output time
/// plus the number of messages the honest parties sent.
fn run<P: Protocol<Msg>>(
    cfg: NetConfig,
    scripts: &BTreeMap<PartyId, Script>,
    honest: impl Fn(PartyId) -> P,
    output: impl Fn(&P) -> (Option<BcValue>, Option<Time>),
) -> (Outputs, u64) {
    let n = cfg.n;
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| match scripts.get(&i) {
            Some(script) => Box::new(Scripted {
                script: script.clone(),
            }) as Box<dyn Protocol<Msg>>,
            None => Box::new(honest(i)),
        })
        .collect();
    let corrupt = CorruptionSet::new(scripts.keys().copied().collect());
    let mut sim = Simulation::new(cfg, corrupt, parties);
    sim.run_to_quiescence(10_000_000);
    let outputs = (0..n)
        .filter(|i| !scripts.contains_key(i))
        .map(|i| output(sim.party_as::<P>(i).expect("an honest party")))
        .collect();
    (outputs, sim.metrics().honest_messages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn comparison_tally_equals_the_map_based_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, t) = [(4usize, 1usize), (7, 2), (10, 3)][rng.gen_range(0..3usize)];
        let sender: PartyId = rng.gen_range(0..n);
        let input = arb_value(&mut rng);
        // Up to t corrupt parties: the sender in half of the cases, echoers
        // anywhere.
        let mut scripts = BTreeMap::new();
        if rng.gen_range(0..2u8) == 0 {
            scripts.insert(sender, arb_script(&mut rng, n));
        }
        while scripts.len() < t && rng.gen_range(0..4u8) > 0 {
            scripts.insert(rng.gen_range(0..n), arb_script(&mut rng, n));
        }
        let cfg = if rng.gen_range(0..2u8) == 0 {
            NetConfig::synchronous(n)
        } else {
            NetConfig::asynchronous(n)
        }
        .with_seed(seed);

        let (outputs, messages) = run(
            cfg.clone(),
            &scripts,
            |i| match i == sender {
                true => Acast::new_sender(sender, n, t, input.clone()),
                false => Acast::new(sender, n, t),
            },
            |p: &Acast| (p.output.clone(), p.output_at),
        );
        let (reference, reference_messages) = run(
            cfg,
            &scripts,
            |i| MapAcast::new(sender, n, t, (i == sender).then(|| input.clone())),
            |p: &MapAcast| (p.output.clone(), p.output_at),
        );
        prop_assert_eq!(&outputs, &reference);
        prop_assert_eq!(messages, reference_messages);

        // Lemma 2.4 itself: honest outputs never differ, and an honest
        // sender's value reaches every honest party.
        let mut delivered = outputs.iter().filter_map(|(value, _)| value.as_ref());
        if let Some(first) = delivered.next() {
            prop_assert!(delivered.all(|value| value == first), "consistency: {outputs:?}");
        }
        if !scripts.contains_key(&sender) {
            prop_assert!(
                outputs.iter().all(|(value, _)| value.as_ref() == Some(&input)),
                "validity: {outputs:?}"
            );
        }
    }
}
