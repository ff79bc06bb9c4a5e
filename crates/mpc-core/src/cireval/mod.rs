//! `Π_CirEval` — the best-of-both-worlds circuit-evaluation protocol
//! (Fig 11, Theorem 7.1), together with the preprocessing phase that feeds it
//! (`Π_TripSh` / `Π_PreProcessing`, Figs 8 and 10, and `Π_TripTrans` /
//! `Π_TripExt`, Figs 7 and 9).
//!
//! [`CirEval`] is a sequencer: each phase holds the state of the
//! sub-protocol it runs, and hands its result to the next. One file per
//! sub-protocol:
//!
//! 1. **Input sharing** (this file) — one `Π_ACS` instance in which every
//!    party `t_s`-shares its private input; parties outside the agreed
//!    common subset `CS₁` contribute a default sharing of `0`. In a
//!    synchronous network every honest party's input makes it into `CS₁`.
//! 2. **Triple sharing** (`tripsh.rs`) — a second `Π_ACS` instance (run in
//!    parallel) in which every party `t_s`-shares the raw random
//!    multiplication triples it deals *and* the verification triples it
//!    will use as a supervisor, in one `TripleLayout`. This is the batched
//!    equivalent of the per-dealer `Π_VSS`+`Π_ACS` calls of
//!    `Π_TripSh`/`Π_PreProcessing` (see DESIGN.md).
//! 3. **Triple transformation and supervised verification**
//!    (`transform.rs`) — for each dealer of the triple subset `CS₂`, the raw
//!    triples are transformed (`Π_TripTrans`) and every point is
//!    re-multiplied under the supervision of each member of `CS₂` with that
//!    supervisor's verification triple; non-zero differences trigger the
//!    public opening of the suspected point and, if it is not a
//!    multiplication triple, the dealer's batch is replaced by the default
//!    `(0, 0, 0)` sharing — exactly `Π_TripSh`.
//! 4. **Triple extraction** (`transform.rs`) — `Π_TripExt` is the same
//!    transformation at degree `d`, over the verified triples of `2d + 1`
//!    dealers; `d + 1 − t_s` triples that are random to the adversary are
//!    extracted per batch.
//! 5. **Shared circuit evaluation** (`layers.rs`) — linear gates locally,
//!    multiplication gates with Beaver's protocol, one extracted triple per
//!    gate; or the packed engine (`packed.rs`), which replaces steps 2–4
//!    with point-to-point deals of slot-positioned triples.
//! 6. **Output and termination** (this file) — the output wire is publicly
//!    reconstructed; `(ready, y)` messages à la Bracha ensure every honest
//!    party terminates with the same output.
//!
//! **Openings are batched per wave.** Every set of reconstructions the paper
//! runs in parallel is ONE `Msg::Open` per party and one OEC batch decode
//! under one tag of a `Wave`: Transform, Verify, Gamma, Suspect (three
//! values per non-zero γ — empty, hence off the wire, in every honest run),
//! Extract, one batch per multiplication layer and the output. A value is
//! identified by its *position* in the batch, derived from public data only
//! (`CS₂`, batch count, `t_s`, the opened γ vector), and issue and resolve
//! walk the same layout. Wrong-length batches and tags outside the run's
//! waves are ignored ([`crate::openings`]; DESIGN.md, "Phase-batched
//! openings").
//!
//! `CirEval` is `Send` (asserted below): under the simulator's deterministic
//! parallel engine a whole party — this state machine included — is handed
//! to a worker thread for the duration of one time slice, and its per-event
//! behaviour depends only on its own state and RNG, which is what keeps
//! `threads = k` runs bit-identical to sequential ones.

mod layers;
mod packed;
mod transform;
mod tripsh;

use mpc_algebra::evaluation_points::beta;
use mpc_algebra::{Fp, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Time};
use mpc_protocols::acs::{Acs, ACS};
use mpc_protocols::tree::{Card, Event, Family, Kind, Name, Node, Routed};
use mpc_protocols::{acast::ACAST, sba::SBA, voteboard, Msg, Params};

use self::layers::Layers;
use self::packed::{Deals, Packed};
use self::transform::{Supervision, Transform};
use self::tripsh::TripleLayout;
use crate::circuit::Circuit;
use crate::openings::OpeningManager;

/// The input-sharing `Π_ACS`, then the triple-sharing one (absent in
/// packed mode until a fallback launches it), then the late-vote batches of
/// the `2n(n + 1)` vote boards of both and the SBA clusters of their
/// `8n + 6n²` `Π_BC`s.
pub static CIREVAL: Kind = Kind::new(
    "CirEval",
    &[
        Family::new(Name::AcsInput, &ACS, Card::One),
        Family::new(Name::AcsTriples, &ACS, Card::One),
        Family::new(Name::Batch, &ACAST, Card::Batch([0, 2, 2])),
        Family::new(Name::Sba, &SBA, Card::Clusters([0, 8, 6])),
    ],
);

/// The opening waves of `Π_CirEval`, one tag space each: a tag is the
/// wave's number in its high nibble and a batch index below the wave's
/// [`Wave::bound`] in the rest. Tags and the legality check both derive
/// from this one declaration, so an `Open` outside it is dropped unread
/// instead of letting a corrupt sender grow the opening state by 2³² keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wave {
    Transform = 1,
    Verify,
    Gamma,
    Suspect,
    Extract,
    /// One batch per multiplication layer, or per gate in per-gate mode.
    Circuit,
    Output,
    /// One batch per multiplication layer of the packed engine.
    Packed,
    /// One degree probe per packed dealer.
    Probe,
}

impl Wave {
    const ALL: [Wave; 9] = [
        Wave::Transform,
        Wave::Verify,
        Wave::Gamma,
        Wave::Suspect,
        Wave::Extract,
        Wave::Circuit,
        Wave::Output,
        Wave::Packed,
        Wave::Probe,
    ];
    /// The tag bits below the wave's number, which hold the batch index.
    const INDEX_BITS: u32 = 28;

    /// How many batches the wave opens in a run of `n` parties over a
    /// circuit of multiplicative depth `depth`, whose scalar circuit driver
    /// opens `steps` batches (`depth`, or one per gate in per-gate mode).
    const fn bound(self, steps: usize, depth: usize, n: usize) -> usize {
        match self {
            Wave::Circuit => steps,
            Wave::Packed => depth,
            Wave::Probe => n,
            _ => 1,
        }
    }

    fn tag(self, index: usize) -> u32 {
        ((self as u32) << Self::INDEX_BITS) + index as u32
    }

    /// The wave and index `tag` names, if its high bits name a wave.
    fn parse(tag: u32) -> Option<(Wave, usize)> {
        let wave = Wave::ALL
            .into_iter()
            .find(|&w| w as u32 == tag >> Self::INDEX_BITS)?;
        Some((wave, (tag & ((1 << Self::INDEX_BITS) - 1)) as usize))
    }
}

/// What a phase reaches while it runs: this party's context and the run's
/// openings, reconstructed at the corruption threshold `t_s`.
struct Io<'a, 'c> {
    ctx: &'a mut Context<'c, Msg>,
    openings: &'a mut OpeningManager,
    ts: usize,
}

impl Io<'_, '_> {
    /// Opens my shares of batch `index` of `wave` (an empty batch sends
    /// nothing).
    fn open(&mut self, wave: Wave, index: usize, values: Vec<Fp>) {
        self.openings.open(self.ctx, wave.tag(index), values);
    }

    /// The `count` `t_s`-shared secrets of batch `index` of `wave`, once they
    /// reconstruct.
    fn opened(&mut self, wave: Wave, index: usize, count: usize) -> Option<&[Fp]> {
        self.openings
            .try_reconstruct(wave.tag(index), count, self.ts, self.ts)
    }
}

/// Progress of one `Π_CirEval` run, with the state of the sub-protocol each
/// phase runs. Every phase is driven by message arrival, not timers.
#[derive(Debug)]
enum Phase {
    AwaitAcs,
    /// Packed mode only: awaiting every assigned dealer's deal.
    PackedDeal,
    /// `Π_TripTrans`'s maskings are out.
    Transform(Box<Supervision>),
    /// The supervisors' Beaver maskings are out.
    Verify(Box<Supervision>),
    /// Every check's `γ` is out.
    Gamma(Box<Supervision>),
    /// The suspect points are out.
    Suspect(Box<Supervision>),
    /// `Π_TripExt`'s maskings are out.
    Extract(Transform),
    Circuit(Layers),
    PackedCircuit,
    OpenOutput,
    Ready,
    Done,
}

/// `next(s)` once a stage completed, `waiting(s)` while it waits.
fn advance<S>(done: bool, s: S, next: fn(S) -> Phase, waiting: fn(S) -> Phase) -> Step {
    if done {
        Ok(next(s))
    } else {
        Err(waiting(s))
    }
}

/// One phase step: `Ok` with the next phase, `Err` with this one while it
/// waits.
type Step = Result<Phase, Phase>;

/// One instance of the full best-of-both-worlds MPC protocol.
///
/// `Send` by construction, which lets the simulator's parallel engine move
/// the whole party to a worker thread per time slice.
#[derive(Debug)]
pub struct CirEval {
    params: Params,
    circuit: Circuit,
    my_input: Fp,
    acs_input: Option<Acs>,
    acs_triples: Option<Acs>,
    /// The late-vote channel of both `Π_ACS` and the SBA clusters.
    side: voteboard::Side,
    openings: OpeningManager,
    phase: Phase,
    /// ACS #2's layout (`Π_TripSh`).
    layout: TripleLayout,
    /// The extraction degree `d = ⌊(n − t_s − 1)/2⌋`.
    d_ext: usize,
    /// The multiplicative depth `D_M`.
    depth: usize,
    /// Reference mode: one opening per multiplication gate. All parties of
    /// a run must agree on the mode: the same `Circuit` index means "gate
    /// id" in one mode and "layer" in the other.
    per_gate_openings: bool,
    /// My shares of every party's input, once `CS₁` is known.
    input_shares: Vec<Fp>,
    /// The packed engine, from [`CirEval::set_packing`] until a fallback.
    packed: Option<Packed>,
    /// Each sender's first `(ready, y)`: as in Bracha's broadcast, a sender
    /// counts once, so a flood of values cannot grow this state.
    ready: Vec<Option<Fp>>,
    /// Whether this run abandoned the packed engine for the scalar path
    /// after a detectably bad packed dealer.
    pub packed_fell_back: bool,
    /// Publicly opened value count per multiplication layer (layer-batched
    /// scalar and packed paths; the per-gate reference path leaves it empty).
    pub values_opened_by_layer: Vec<u64>,
    /// The reconstructed circuit output, once the termination condition holds.
    pub output: Option<Fp>,
    /// Local time at which the output was fixed.
    pub output_at: Option<Time>,
    /// The common subset whose inputs were used (set once known).
    pub input_subset: Option<Vec<PartyId>>,
    /// The finished supervised verification, kept for inspection.
    #[cfg(test)]
    audit: Option<Box<Supervision>>,
    /// How many times [`CirEval::drive`] has run in `AwaitAcs`.
    #[cfg(test)]
    await_steps: usize,
}

impl CirEval {
    /// Creates one party's instance of `Π_CirEval`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit does not have exactly `params.n` inputs.
    pub fn new(params: Params, circuit: Circuit, my_input: Fp) -> Self {
        assert_eq!(circuit.n_inputs(), params.n, "one input per party");
        let d_ext = (params.n - params.ts - 1) / 2;
        let batches = circuit.mult_count().div_ceil(d_ext + 1 - params.ts);
        CirEval {
            layout: TripleLayout::new(batches, 2 * params.ts + 1, params.n),
            d_ext,
            depth: circuit.mult_depth(),
            ready: vec![None; params.n],
            params,
            circuit,
            my_input,
            acs_input: None,
            acs_triples: None,
            side: voteboard::Side::new(params.ts),
            openings: OpeningManager::new(),
            phase: Phase::AwaitAcs,
            per_gate_openings: false,
            input_shares: Vec::new(),
            packed: None,
            packed_fell_back: false,
            values_opened_by_layer: Vec::new(),
            output: None,
            output_at: None,
            input_subset: None,
            #[cfg(test)]
            audit: None,
            #[cfg(test)]
            await_steps: 0,
        }
    }

    /// The name of the evaluation phase this party is currently in — a
    /// stable diagnostic label for stall post-mortems and the ledger's phase
    /// trace.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::AwaitAcs => "await-acs",
            Phase::PackedDeal => "packed-deal",
            Phase::Transform(_) => "transform",
            Phase::Verify(_) => "verify-beaver",
            Phase::Gamma(_) => "gamma",
            Phase::Suspect(_) => "suspect",
            Phase::Extract(_) => "extract",
            Phase::Circuit(_) | Phase::PackedCircuit => "circuit",
            Phase::OpenOutput => "open-output",
            Phase::Ready => "ready",
            Phase::Done => "done",
        }
    }

    /// Selects the circuit-evaluation opening mode: `true` opens every
    /// multiplication gate under its own tag (the pre-batching reference
    /// path), `false` (the default) opens one `2·L` batch per multiplication
    /// layer. Every party of a run must use the same mode — the opening tags
    /// are part of the implicit protocol agreement.
    pub fn set_per_gate_openings(&mut self, per_gate: bool) {
        self.per_gate_openings = per_gate;
    }

    /// Switches this party to the packed (Franklin–Yung SIMD) evaluation
    /// engine at width `ell ≥ 1`; `0` keeps the scalar engine. Every party
    /// of a run must use the same width (the block plan and opening tags are
    /// part of the implicit protocol agreement), and `ell` must satisfy
    /// `ell ≤ n − 3·t_s` ([`crate::thresholds::max_packing_width`]) for the
    /// degree-`t_s + ℓ − 1` packed openings to stay OEC-decodable —
    /// [`crate::MpcBuilder`] clamps the requested width accordingly.
    pub fn set_packing(&mut self, ell: usize) {
        let (n, ts) = (self.params.n, self.params.ts);
        self.packed = (ell > 0).then(|| {
            assert!(
                ell <= crate::thresholds::max_packing_width(n, ts),
                "packing width exceeds the OEC feasibility bound n - 3*ts"
            );
            Packed::new(self.params, &self.circuit, ell)
        });
    }

    /// Whether `tag` names a batch of one of this run's waves.
    fn legal_open_tag(&self, tag: u32) -> bool {
        let (gates, depth) = (self.circuit.gates().len(), self.depth);
        let steps = if self.per_gate_openings { gates } else { depth };
        let bound = |wave: Wave| wave.bound(steps, depth, self.params.n);
        Wave::parse(tag).is_some_and(|(wave, index)| index < bound(wave))
    }

    /// Deals this party's triples into ACS #2 (`Π_TripSh`).
    fn launch_triple_acs(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut acs2 = Acs::new(self.params, self.layout.deal(ctx, self.params.ts));
        CIREVAL.scoped(ctx, Name::AcsTriples, 0, |ctx| acs2.init(ctx));
        self.acs_triples = Some(acs2);
    }

    /// Runs phases until the current one waits on the network. The openings
    /// travel in the `Io` meanwhile.
    fn drive(&mut self, ctx: &mut Context<'_, Msg>) {
        #[cfg(test)]
        if matches!(self.phase, Phase::AwaitAcs) {
            self.await_steps += 1;
        }
        let mut openings = std::mem::take(&mut self.openings);
        let ts = self.params.ts;
        let io = &mut Io {
            ctx,
            openings: &mut openings,
            ts,
        };
        loop {
            let phase = std::mem::replace(&mut self.phase, Phase::Done);
            match self.step(io, phase) {
                Ok(next) => self.phase = next,
                Err(waiting) => {
                    self.phase = waiting;
                    break;
                }
            }
        }
        self.openings = openings;
    }

    fn step(&mut self, io: &mut Io<'_, '_>, phase: Phase) -> Step {
        match phase {
            Phase::AwaitAcs => self.start(io).ok_or(Phase::AwaitAcs),
            Phase::PackedDeal => match self.packed.as_mut().map(|p| p.check_deals(io)) {
                Some(Deals::Good) => Ok(Phase::PackedCircuit),
                Some(Deals::Failed) => {
                    self.fall_back_to_scalar(io.ctx);
                    Ok(Phase::AwaitAcs)
                }
                _ => Err(Phase::PackedDeal),
            },
            Phase::Transform(mut s) => advance(s.verify(io), s, Phase::Verify, Phase::Transform),
            Phase::Verify(mut s) => advance(s.gamma(io), s, Phase::Gamma, Phase::Verify),
            Phase::Gamma(mut s) => advance(s.suspect(io), s, Phase::Suspect, Phase::Gamma),
            Phase::Suspect(mut s) => {
                let Some(verified) = s.verified(io) else {
                    return Err(Phase::Suspect(s));
                };
                #[cfg(test)]
                {
                    self.audit = Some(s);
                }
                let extract = Transform::issue(io, Wave::Extract, self.d_ext, verified);
                Ok(Phase::Extract(extract))
            }
            Phase::Extract(mut extract) => {
                if !extract.resolve(io, Wave::Extract) {
                    return Err(Phase::Extract(extract));
                }
                // d + 1 − t_s fresh triples per batch, at β_0..β_{d−t_s}
                let (n, extract) = (io.ctx.n, &extract);
                let fresh = 0..self.d_ext + 1 - io.ts;
                let batches = 0..self.layout.batches();
                let pool = batches
                    .flat_map(|b| fresh.clone().map(move |j| extract.triple_at(b, beta(n, j))));
                let per_gate = self.per_gate_openings;
                let layers =
                    Layers::new(&self.circuit, pool.collect(), &self.input_shares, per_gate);
                Ok(Phase::Circuit(layers))
            }
            Phase::Circuit(mut layers) => {
                let opened = &mut self.values_opened_by_layer;
                let share = layers.evaluate(io, &self.circuit, opened);
                self.open_output(io, share, Phase::Circuit(layers))
            }
            Phase::PackedCircuit => {
                let (circuit, inputs) = (&self.circuit, &self.input_shares);
                let opened = &mut self.values_opened_by_layer;
                let packed = self.packed.as_mut();
                let share = packed.and_then(|p| p.evaluate(io, circuit, inputs, opened));
                self.open_output(io, share, Phase::PackedCircuit)
            }
            Phase::OpenOutput => {
                let Some(&[y]) = io.opened(Wave::Output, 0, 1) else {
                    return Err(Phase::OpenOutput);
                };
                io.ctx.broadcast(Msg::Ready(vec![y]));
                Ok(Phase::Ready)
            }
            Phase::Ready => self.decide(io.ctx).ok_or(Phase::Ready),
            Phase::Done => Err(Phase::Done),
        }
    }

    /// Leaves `AwaitAcs` once ACS #1 is ready, and in scalar mode ACS #2 too.
    /// Packed mode runs on ACS #1 alone: its triples arrive as
    /// slot-positioned point-to-point deals.
    fn start(&mut self, io: &mut Io<'_, '_>) -> Option<Phase> {
        let acs1 = self.acs_input.as_ref().filter(|acs| acs.ready())?;
        let acs2 = self.acs_triples.as_ref().filter(|acs| acs.ready());
        if self.packed.is_none() && acs2.is_none() {
            return None;
        }
        // `CS₁` is ascending (`Π_ACS` builds it in party order).
        let cs1 = acs1.common_subset.clone()?;
        // input shares: default 0-sharing for parties outside CS₁
        self.input_shares = (0..self.params.n)
            .map(|j| {
                acs1.shares_from(j)
                    .filter(|_| cs1.contains(&j))
                    .map_or(Fp::ZERO, |s| s[0])
            })
            .collect();
        self.input_subset = Some(cs1.clone());
        if let Some(packed) = self.packed.as_mut() {
            packed.deal(io, cs1, self.my_input);
            return Some(Phase::PackedDeal);
        }
        let supervision = Supervision::start(io, acs2?, &self.layout, self.d_ext);
        supervision.map(Box::new).map(Phase::Transform)
    }

    /// Abandons the packed engine for the scalar preprocessing path after a
    /// publicly-reported deal failure: drops all packed state, launches the
    /// triple ACS that packed mode skipped at `init`, and replays the triple
    /// ACS traffic and late votes buffered meanwhile, through the root so
    /// that the late votes they make reach its channel. Every honest party
    /// takes this exit (the trigger is `t_s + 1` public reports, which reach
    /// everyone), so the late-started ACS has its full honest quorum.
    /// Reported dealers keep participating in the scalar path, where
    /// `Π_TripSh`'s supervised verification neutralises bad triples without
    /// trusting any dealer.
    fn fall_back_to_scalar(&mut self, ctx: &mut Context<'_, Msg>) {
        let buffered = self.packed.take().map(|packed| packed.acs2);
        self.packed_fell_back = true;
        self.values_opened_by_layer.clear();
        self.launch_triple_acs(ctx);
        let seg = CIREVAL.segment(ctx.n, Name::AcsTriples, 0);
        for (from, below, held) in buffered.into_iter().flatten() {
            let path = [&[seg][..], &below].concat();
            let event = held
                .as_ref()
                .map_or_else(|&k| Event::LateOk(from, k), |msg| Event::Message(from, msg));
            voteboard::route(self, &CIREVAL, ctx, &path, event);
        }
    }

    /// Opens my share of the output wire, once there is one.
    fn open_output(&mut self, io: &mut Io<'_, '_>, share: Option<Fp>, waiting: Phase) -> Step {
        io.open(Wave::Output, 0, vec![share.ok_or(waiting)?]);
        Ok(Phase::OpenOutput)
    }

    /// Bracha's decision: the output is the first value that more than
    /// `2·t_s` parties sent `(ready, y)` for. A party tallies only after it
    /// has sent its own, so there is no echo step to take.
    fn decide(&mut self, ctx: &mut Context<'_, Msg>) -> Option<Phase> {
        let mut votes: Vec<Fp> = self.ready.iter().flatten().copied().collect();
        votes.sort_unstable();
        let mut runs = votes.chunk_by(|a, b| a == b);
        let y = runs.find(|run| run.len() > 2 * self.params.ts)?[0];
        self.output = Some(y);
        self.output_at = Some(ctx.now);
        Some(Phase::Done)
    }
}

impl Node for CirEval {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        // ACS #1: share my input
        let input_poly =
            Polynomial::random_with_constant_term(ctx.rng(), self.params.ts, self.my_input);
        let mut acs1 = Acs::new(self.params, vec![input_poly]);
        CIREVAL.scoped(ctx, Name::AcsInput, 0, |ctx| acs1.init(ctx));
        self.acs_input = Some(acs1);
        // Packed mode: triples are dealt point-to-point after CS₁ is known —
        // no second ACS instance at all.
        if self.packed.is_none() {
            self.launch_triple_acs(ctx);
        }
    }

    /// Drives on its own events and on an ACS's progress; a root, whose
    /// progress (the output appearing) no parent reads.
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool {
        match voteboard::route(self, &CIREVAL, ctx, path, ev) {
            // Anything outside the run's waves is dropped unread.
            Routed::Own(Event::Message(from, Msg::Open { tag, values }))
                if from < self.params.n && self.legal_open_tag(*tag) =>
            {
                self.openings.on_open(from, *tag, values);
            }
            Routed::Own(Event::Message(from, Msg::Ready(values))) => {
                if let (Some(vote), Some(&y)) = (self.ready.get_mut(from), values.first()) {
                    vote.get_or_insert(y);
                }
            }
            // A round message for an SBA cluster that is not live is dropped.
            Routed::Child(_, _, false) | Routed::Dropped | Routed::Absent(Name::Sba, ..) => {
                return false
            }
            routed => {
                if let Some(packed) = self.packed.as_mut() {
                    packed.on_routed(routed);
                }
            }
        }
        let had_output = self.output.is_some();
        self.drive(ctx);
        self.output.is_some() != had_output
    }

    fn child(&mut self, name: Name, _: usize) -> Option<&mut dyn Node> {
        let acs = match name {
            Name::AcsInput => &mut self.acs_input,
            _ => &mut self.acs_triples,
        };
        Some(acs.as_mut()?)
    }

    fn side(&mut self) -> Option<&mut voteboard::Side> {
        Some(&mut self.side)
    }
}

mpc_protocols::node_protocol!(CirEval);

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CirEval>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_net::{CorruptionSet, NetConfig, NetworkKind, Protocol, Scheduler, Simulation};
    use mpc_protocols::BcValue;
    use std::any::Any;

    /// Drives a circuit evaluation on the simulator, with fixed-Δ delivery in
    /// a synchronous network and uniform delays up to 5Δ in an asynchronous
    /// one. Real media are held to the simulator by
    /// `tests/transport_conformance.rs`.
    fn run_circuit(
        params: Params,
        circuit: &Circuit,
        inputs: &[u64],
        corrupt: CorruptionSet,
        sync: bool,
        seed: u64,
    ) -> (Vec<Option<Fp>>, Time) {
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .iter()
            .map(|&x| {
                Box::new(CirEval::new(params, circuit.clone(), Fp::from_u64(x)))
                    as Box<dyn Protocol<Msg>>
            })
            .collect();
        let cfg = if sync {
            NetConfig::synchronous(params.n)
        } else {
            NetConfig::asynchronous(params.n)
        }
        .with_seed(seed);
        let scheduler: Box<dyn Scheduler> = match cfg.kind {
            mpc_net::NetworkKind::Synchronous => Box::new(mpc_net::FixedDelay(cfg.delta)),
            mpc_net::NetworkKind::Asynchronous => Box::new(mpc_net::UniformDelay {
                min: 1,
                max: cfg.delta * 5,
            }),
        };
        let mut sim = Simulation::with_scheduler(cfg, corrupt.clone(), scheduler, parties);
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let done = sim.run_until(horizon, |sim| {
            (0..params.n)
                .filter(|&i| corrupt.is_honest(i))
                .all(|i| sim.party_as::<CirEval>(i).unwrap().output.is_some())
        });
        assert!(done, "circuit evaluation did not finish before the horizon");
        let outs = (0..params.n)
            .map(|i| sim.party_as::<CirEval>(i).unwrap().output)
            .collect();
        (outs, sim.now())
    }

    #[test]
    fn linear_circuit_all_honest_sync() {
        let params = Params::new(4, 1, 0, 10);
        let circuit = Circuit::sum_of_inputs(4);
        let inputs = [3u64, 5, 7, 11];
        let (outs, _) = run_circuit(params, &circuit, &inputs, CorruptionSet::none(), true, 1);
        for o in outs {
            assert_eq!(o.unwrap().as_u64(), 3 + 5 + 7 + 11);
        }
    }

    #[test]
    fn multiplication_circuit_all_honest_sync() {
        let params = Params::new(4, 1, 0, 10);
        let mut circuit = Circuit::new(4);
        let p = circuit.mul(circuit.input(0), circuit.input(1));
        let q = circuit.add(circuit.input(2), circuit.input(3));
        let r = circuit.mul(p, q);
        circuit.set_output(r);
        let inputs = [3u64, 5, 7, 11];
        let expected = 3 * 5 * (7 + 11);
        let (outs, _) = run_circuit(params, &circuit, &inputs, CorruptionSet::none(), true, 2);
        for o in outs {
            assert_eq!(o.unwrap().as_u64(), expected);
        }
    }

    #[test]
    fn multiplication_circuit_with_silent_corrupt_party_sync() {
        // t_s = 1 corruption in a synchronous network: the corrupt party is
        // silent, its input defaults to 0 only if it is excluded from CS1 —
        // with a silent party that is exactly what happens.
        let params = Params::new(4, 1, 0, 10);
        let circuit = Circuit::product_of_inputs(4);
        let inputs = [3u64, 5, 7, 2];
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if i == 3 {
                    Box::new(mpc_protocols::byzantine::SilentParty) as Box<dyn Protocol<Msg>>
                } else {
                    Box::new(CirEval::new(params, circuit.clone(), Fp::from_u64(x)))
                        as Box<dyn Protocol<Msg>>
                }
            })
            .collect();
        let corrupt = CorruptionSet::new(vec![3]);
        let mut sim = Simulation::new(NetConfig::synchronous(params.n), corrupt.clone(), parties);
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let done = sim.run_until(horizon, |s| {
            (0..3).all(|i| s.party_as::<CirEval>(i).unwrap().output.is_some())
        });
        assert!(
            done,
            "honest parties must finish despite a silent corrupt party"
        );
        // the silent party's input is replaced by 0 → product is 0
        for i in 0..3 {
            let p = sim.party_as::<CirEval>(i).unwrap();
            assert_eq!(p.output.unwrap().as_u64(), 0);
            assert!(!p.input_subset.as_ref().unwrap().contains(&3));
        }
    }

    /// Like [`run_circuit`] but with every party on the packed engine.
    fn run_circuit_packed(
        params: Params,
        circuit: &Circuit,
        inputs: &[u64],
        ell: usize,
        sync: bool,
        seed: u64,
    ) -> Vec<Option<Fp>> {
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .iter()
            .map(|&x| {
                let mut p = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                p.set_packing(ell);
                Box::new(p) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let cfg = if sync {
            NetConfig::synchronous(params.n)
        } else {
            NetConfig::asynchronous(params.n)
        }
        .with_seed(seed);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let done = sim.run_until(horizon, |s| {
            (0..params.n).all(|i| s.party_as::<CirEval>(i).unwrap().output.is_some())
        });
        assert!(done, "packed evaluation did not finish before the horizon");
        (0..params.n)
            .map(|i| sim.party_as::<CirEval>(i).unwrap().output)
            .collect()
    }

    #[test]
    fn packed_engine_matches_cleartext_two_layers() {
        // Two multiplication layers, enough gates per layer to exercise both
        // real and padding slots at ℓ = 2 and ℓ = 4.
        let params = Params::new(7, 1, 1, 10);
        let mut circuit = Circuit::new(7);
        let m: Vec<_> = (0..3)
            .map(|i| circuit.mul(circuit.input(2 * i), circuit.input(2 * i + 1)))
            .collect();
        let s01 = circuit.add(m[0], m[1]);
        let top = circuit.mul(s01, m[2]);
        let out = circuit.add(top, circuit.input(6));
        circuit.set_output(out);
        let inputs = [3u64, 5, 7, 11, 13, 17, 19];
        let expected = (3 * 5 + 7 * 11) * (13 * 17) + 19;
        for ell in [1, 2, 4] {
            for sync in [true, false] {
                let outs =
                    run_circuit_packed(params, &circuit, &inputs, ell, sync, 40 + ell as u64);
                for o in outs {
                    assert_eq!(o.unwrap().as_u64(), expected, "ell={ell} sync={sync}");
                }
            }
        }
    }

    #[test]
    fn packed_engine_linear_circuit_and_metrics_fields() {
        let params = Params::new(7, 1, 1, 10);
        let circuit = Circuit::sum_of_inputs(7);
        let inputs = [1u64, 2, 3, 4, 5, 6, 7];
        let outs = run_circuit_packed(params, &circuit, &inputs, 4, true, 50);
        for o in outs {
            assert_eq!(o.unwrap().as_u64(), 28);
        }
    }

    #[test]
    fn packed_engine_opens_fewer_values_per_layer() {
        // One layer of 8 multiplications: scalar opens 16 values, ℓ = 4
        // packs them into 2 blocks of 2 opened values each.
        let params = Params::new(7, 1, 1, 10);
        let mut circuit = Circuit::new(7);
        let mut acc = circuit.mul(circuit.input(0), circuit.input(1));
        for _ in 0..7 {
            let m = circuit.mul(circuit.input(2), circuit.input(3));
            let s = circuit.add(acc, m);
            acc = s;
        }
        circuit.set_output(acc);
        // ^ all 8 muls live in layer 0 (inputs only), then linear gates.
        let inputs = [2u64, 3, 4, 5, 1, 1, 1];
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .iter()
            .map(|&x| {
                let mut p = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                p.set_packing(4);
                Box::new(p) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n).with_seed(60),
            CorruptionSet::none(),
            parties,
        );
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        assert!(sim.run_until(horizon, |s| {
            (0..params.n).all(|i| s.party_as::<CirEval>(i).unwrap().output.is_some())
        }));
        let p = sim.party_as::<CirEval>(0).unwrap();
        assert_eq!(p.output.unwrap().as_u64(), 2 * 3 + 7 * (4 * 5));
        assert_eq!(p.values_opened_by_layer, vec![4]); // 2 blocks × [D, E]
        assert!(!p.packed_fell_back, "honest deals must pass their probes");
    }

    /// A wire-level dealer that behaves honestly everywhere *except* in its
    /// packed deals, whose elements it perturbs with fresh per-recipient,
    /// per-element randomness — the worst uniformly-detectable case: a
    /// constant or linear perturbation would still be a valid degree-`t_s`
    /// sharing (of the wrong secret at worst), whereas independent noise
    /// leaves every probe combination off the polynomial.
    #[derive(Debug)]
    struct GarblePackedDeals;

    impl mpc_net::ByzantineStrategy for GarblePackedDeals {
        fn on_send(
            &mut self,
            send: &mpc_net::WireSend<'_>,
            rng: &mut rand::rngs::StdRng,
        ) -> mpc_net::WireAction {
            use mpc_net::{WireDecode, WireEncode};
            if !send.path.is_empty() {
                return mpc_net::WireAction::Deliver;
            }
            let Ok(Msg::PackedDeal(values)) = Msg::decode(send.bytes) else {
                return mpc_net::WireAction::Deliver;
            };
            let garbled: Vec<Fp> = values.iter().map(|&v| v + Fp::random(rng)).collect();
            mpc_net::WireAction::Replace(Msg::PackedDeal(garbled).encode())
        }
    }

    /// Runs five parties on the packed engine at width 2 under `cfg`, with
    /// `scheduler` if one is given; party 4 garbles its deals. The four
    /// honest parties must all fall back to the scalar path and output the
    /// product of the inputs of `CS₁`, which holds party 4's.
    fn check_garbled_deals_fall_back(
        params: Params,
        cfg: NetConfig,
        scheduler: Option<Box<dyn Scheduler>>,
    ) {
        let circuit = Circuit::product_of_inputs(5);
        let inputs = [3u64, 5, 7, 2, 4];
        let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
            .iter()
            .map(|&x| {
                let mut p = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                p.set_packing(2);
                Box::new(p) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let label = format!("{cfg:?}, own scheduler: {}", scheduler.is_some());
        let corrupt = CorruptionSet::new(vec![4]);
        let mut sim = match scheduler {
            None => Simulation::new(cfg, corrupt, parties),
            Some(scheduler) => Simulation::with_scheduler(cfg, corrupt, scheduler, parties),
        };
        sim.set_strategy(Box::new(GarblePackedDeals));
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let done = sim.run_until(horizon, |s| {
            (0..4).all(|i| s.party_as::<CirEval>(i).unwrap().output.is_some())
        });
        assert!(done, "{label}: honest parties must terminate");
        for i in 0..4 {
            let p = sim.party_as::<CirEval>(i).unwrap();
            let cs1 = p.input_subset.as_ref().unwrap();
            let counted = |(j, &x): (usize, &u64)| if cs1.contains(&j) { x } else { 0 };
            let product: u64 = inputs.iter().enumerate().map(counted).product();
            assert_eq!(p.output.unwrap().as_u64(), product, "{label}: party {i}");
            assert!(p.packed_fell_back, "party {i} must have fallen back");
            assert!(p.packed.is_none(), "party {i} dropped the packed state");
            assert!(p.input_subset.as_ref().unwrap().contains(&4));
        }
    }

    #[test]
    fn packed_garbling_dealer_triggers_uniform_scalar_fallback() {
        // PR 7 hole, closed: a dealer inside CS₁ whose packed deals are
        // inconsistent used to hang the run forever. Now every honest party
        // sees the dealer's degree probe fail to reconstruct, reports it
        // after the deadline, and the t_s + 1 public reports flip everyone
        // to the scalar preprocessing path, which completes with the
        // *correct* output (the dealer's ACS-shared input still counts —
        // only its triples are distrusted, and Π_TripSh re-verifies those).
        //
        // The fallback launches ACS #2 when the (t_s + 1)-th report arrives:
        // on a jittered synchronous schedule that is a different tick at
        // every party, so a peer's traffic for the timed children of ACS #2
        // (its `Π_WPS` instances, `(W, E, F)` broadcasts, `Π_BA`s) reaches a
        // party before its own copies start. Those children exist from
        // construction and tally it (DESIGN.md); when they were created at
        // their start tick, seeds 61, 73 and 81 lost that traffic and hung.
        let params = Params::new(5, 1, 0, 10);
        for jitter_seed in [None, Some(61), Some(73), Some(81)] {
            let cfg = NetConfig::synchronous(params.n).with_seed(jitter_seed.unwrap_or(71));
            let jitter = mpc_net::UniformDelay { min: 1, max: 10 };
            let scheduler = jitter_seed.map(|_| Box::new(jitter) as Box<dyn Scheduler>);
            check_garbled_deals_fall_back(params, cfg, scheduler);
        }
    }

    /// An asynchronous schedule on which party 0 hears nothing sent to it
    /// before tick `until` until `hold` ticks after it.
    struct LateToParty0 {
        until: Time,
        hold: Time,
        inner: mpc_net::UniformDelay,
    }

    impl Scheduler for LateToParty0 {
        fn delay(
            &mut self,
            from: PartyId,
            to: PartyId,
            now: Time,
            rng: &mut rand::rngs::StdRng,
        ) -> Time {
            let delay = self.inner.delay(from, to, now, rng);
            if to == 0 && from != 0 && now < self.until {
                delay + self.until + self.hold - now
            } else {
                delay
            }
        }
    }

    /// The same fallback on an asynchronous network. Under [`LateToParty0`]
    /// the others fall back (near tick 2 100 at these seeds), run ACS #2
    /// and A-cast late votes for its boards while party 0 is still in
    /// packed mode: its engine holds them, and without the hold party 0
    /// never terminates. Party 0 is left out of `CS₁` there, so its input
    /// counts as 0.
    #[test]
    fn packed_garbling_dealer_falls_back_on_an_asynchronous_network() {
        let params = Params::new(5, 1, 1, 10);
        let inner = mpc_net::UniformDelay {
            min: 1,
            max: 5 * params.delta,
        };
        for seed in [1, 2] {
            let cfg = NetConfig::asynchronous(params.n).with_seed(seed);
            check_garbled_deals_fall_back(params, cfg.clone(), None);
            let late = LateToParty0 {
                until: 2_200,
                hold: 5_000,
                inner: inner.clone(),
            };
            check_garbled_deals_fall_back(params, cfg, Some(Box::new(late)));
        }
    }

    /// Runs hand-built parties on the synchronous simulator until nothing
    /// is left to deliver.
    fn run_sync_to_quiescence(
        params: Params,
        circuit: &Circuit,
        parties: Vec<Box<dyn Protocol<Msg>>>,
        corrupt: CorruptionSet,
        seed: u64,
    ) -> Simulation<Msg> {
        let cfg = NetConfig::synchronous(params.n).with_seed(seed);
        let mut sim = Simulation::new(cfg, corrupt, parties);
        sim.run_to_quiescence(params.horizon_for_depth(circuit.mult_depth()) * 8);
        sim
    }

    /// `in_0·in_1 + in_2·in_3`: two multiplications in one layer, i.e. two
    /// preprocessing batches at (4, 1) and (7, 2).
    fn two_products(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        let p = c.mul(c.input(0), c.input(1));
        let q = c.mul(c.input(2), c.input(3));
        let out = c.add(p, q);
        c.set_output(out);
        c
    }

    #[test]
    fn bad_dealer_is_suspected_flagged_and_neutralised() {
        // Party 0 deals every raw triple with c = a·b + 1 and is honest
        // otherwise. Its transformed Z(·) is then X·Y + 1 everywhere, so
        // every supervisor's γ is 1: all its checks are opened in the
        // suspect batch, every one of its batches is flagged and replaced by
        // the default sharing, and the output is still the cleartext one.
        for (n, ts, ta) in [(4, 1, 0), (7, 2, 0)] {
            let params = Params::new(n, ts, ta, 10);
            let circuit = two_products(n);
            let inputs: Vec<Fp> = (0..n as u64).map(|i| Fp::from_u64(3 + 2 * i)).collect();
            let parties = inputs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let mut p = CirEval::new(params, circuit.clone(), x);
                    p.layout.bad_raw = i == 0;
                    Box::new(p) as Box<dyn Protocol<Msg>>
                })
                .collect();
            let corrupt = CorruptionSet::new(vec![0]);
            let sim = run_sync_to_quiescence(params, &circuit, parties, corrupt, 80 + n as u64);
            for i in 1..n {
                let p = sim.party_as::<CirEval>(i).unwrap();
                assert_eq!(
                    p.output,
                    Some(circuit.evaluate_clear(&inputs)),
                    "n={n} i={i}"
                );
                assert_eq!(p.layout.batches(), 2);
                let audit = p.audit.as_ref().expect("the verification ran");
                let (supervisors, suspects, flagged) = audit.outcome();
                let checks: Vec<_> = (0..2)
                    .flat_map(|batch| supervisors.iter().map(move |&s| (0, batch, s)))
                    .collect();
                assert_eq!(suspects, checks, "n={n} i={i}: every check of 0, no other");
                assert_eq!(flagged, [(0, 0), (0, 1)], "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wave_tags_and_bounds_come_from_one_declaration() {
        let params = Params::new(7, 2, 0, 10);
        let mut party = CirEval::new(params, two_products(7), Fp::ZERO);
        for per_gate in [false, true] {
            party.set_per_gate_openings(per_gate);
            for (k, wave) in (1u32..).zip(Wave::ALL) {
                assert_eq!(wave.tag(0), k << 28, "{wave:?}");
                let bound = match wave {
                    Wave::Circuit if per_gate => party.circuit.gates().len(),
                    Wave::Circuit | Wave::Packed => 1, // D_M
                    Wave::Probe => 7,
                    _ => 1,
                };
                assert!(party.legal_open_tag(wave.tag(bound - 1)), "{wave:?}");
                assert!(!party.legal_open_tag(wave.tag(bound)), "{wave:?}");
                assert_eq!(Wave::parse(wave.tag(bound)), Some((wave, bound)));
            }
            for nibble in [0].into_iter().chain(10..16) {
                assert!(!party.legal_open_tag(nibble << 28), "nibble {nibble}");
                assert_eq!(Wave::parse(nibble << 28), None);
            }
        }
    }

    /// A corrupt party whose only traffic is a flood of `Open`s: in every
    /// wave, tags past the run's bound (n = 4, one multiplication layer);
    /// tags outside every wave; and one wrong-length batch under a legal tag.
    #[derive(Debug)]
    struct FloodOpens;

    impl Protocol<Msg> for FloodOpens {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            let junk = |tag| Msg::Open {
                tag,
                values: vec![Fp::ONE],
            };
            for i in 0..200 {
                for wave in Wave::ALL {
                    ctx.broadcast(junk(wave.tag(wave.bound(1, 1, 4) + i)));
                }
                ctx.broadcast(junk((10 << 28) + i as u32)); // no such wave
                ctx.broadcast(junk(i as u32)); // below the first wave
            }
            ctx.broadcast(junk(Wave::Verify.tag(0))); // legal tag, wrong length
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

    #[test]
    fn flood_of_illegal_open_tags_is_dropped_without_state_growth() {
        let params = Params::new(4, 1, 0, 10);
        let circuit = two_products(4);
        let run = |flood: bool| {
            let parties = (0..4u64)
                .map(|i| match (i, flood) {
                    (3, true) => Box::new(FloodOpens) as Box<dyn Protocol<Msg>>,
                    (3, false) => Box::new(mpc_protocols::byzantine::SilentParty) as _,
                    _ => Box::new(CirEval::new(params, circuit.clone(), Fp::from_u64(2 + i))) as _,
                })
                .collect();
            let corrupt = CorruptionSet::new(vec![3]);
            run_sync_to_quiescence(params, &circuit, parties, corrupt, 90)
        };
        let (flooded, silent) = (run(true), run(false));
        for i in 0..3 {
            let (f, s) = (
                flooded.party_as::<CirEval>(i).unwrap(),
                silent.party_as::<CirEval>(i).unwrap(),
            );
            assert!(s.output.is_some());
            assert_eq!(f.output, s.output, "party {i}");
            assert_eq!(f.output_at, s.output_at, "party {i}");
            assert_eq!(f.input_subset, s.input_subset, "party {i}");
            // transform, verify, γ, extract, one layer, output — no suspect
            // batch, and not one tag more under the flood.
            assert_eq!(s.openings.tracked_tags(), 6, "party {i}");
            assert_eq!(f.openings.tracked_tags(), 6, "party {i}");
        }
    }

    /// A corrupt party whose only traffic is `(ready, y)` for 200 distinct
    /// values.
    #[derive(Debug)]
    struct FloodReady;

    impl Protocol<Msg> for FloodReady {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            for y in 0..200 {
                ctx.broadcast(Msg::Ready(vec![Fp::from_u64(y)]));
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

    #[test]
    fn hostile_ready_flood_without_state_growth() {
        let params = Params::new(4, 1, 0, 10);
        let circuit = two_products(4);
        let run = |flood: bool| {
            let parties = (0..4u64)
                .map(|i| match (i, flood) {
                    (3, true) => Box::new(FloodReady) as Box<dyn Protocol<Msg>>,
                    (3, false) => Box::new(mpc_protocols::byzantine::SilentParty) as _,
                    _ => Box::new(CirEval::new(params, circuit.clone(), Fp::from_u64(2 + i))) as _,
                })
                .collect();
            let corrupt = CorruptionSet::new(vec![3]);
            run_sync_to_quiescence(params, &circuit, parties, corrupt, 91)
        };
        let (flooded, silent) = (run(true), run(false));
        for i in 0..3 {
            let (f, s) = (
                flooded.party_as::<CirEval>(i).unwrap(),
                silent.party_as::<CirEval>(i).unwrap(),
            );
            assert!(s.output.is_some());
            assert_eq!(f.output, s.output, "party {i}");
            assert_eq!(f.output_at, s.output_at, "party {i}");
            // One vote per sender: the flooder's first value, and no other.
            let votes = |p: &CirEval| p.ready.iter().flatten().count();
            assert_eq!(votes(s), 3, "party {i}");
            assert_eq!(votes(f), 4, "party {i}");
            assert_eq!(f.ready[3], Some(Fp::ZERO), "party {i}");
        }
    }

    /// Counts the root-path `Open`s delivered to one honest party, and its
    /// own events (root-path messages and timers) while in `await-acs`.
    #[derive(Debug)]
    struct CountOpens {
        inner: CirEval,
        opens: usize,
        own_awaiting: usize,
    }

    impl CountOpens {
        fn new(params: Params, circuit: &Circuit, input: u64) -> Self {
            let inner = CirEval::new(params, circuit.clone(), Fp::from_u64(input));
            CountOpens {
                inner,
                opens: 0,
                own_awaiting: 0,
            }
        }

        fn count_own(&mut self, path: PathSlice<'_>) {
            if path.is_empty() && matches!(self.inner.phase, Phase::AwaitAcs) {
                self.own_awaiting += 1;
            }
        }
    }

    impl Protocol<Msg> for CountOpens {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            Protocol::init(&mut self.inner, ctx);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            path: PathSlice<'_>,
            msg: Msg,
        ) {
            if path.is_empty() && matches!(msg, Msg::Open { .. }) {
                self.opens += 1;
            }
            self.count_own(path);
            self.inner.on_message(ctx, from, path, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
            self.count_own(path);
            self.inner.on_timer(ctx, path, id);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A wrapper that implements only the owned `on_message`, as the
    /// benchmark ledger's tracing wrapper does: every delivery reaches the
    /// inner `CirEval` through `on_message_ref`'s cloning default.
    struct Owned(CirEval);

    impl Protocol<Msg> for Owned {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            Protocol::init(&mut self.0, ctx);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            path: PathSlice<'_>,
            msg: Msg,
        ) {
            self.0.on_message(ctx, from, path, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
            self.0.on_timer(ctx, path, id);
        }
        fn as_any(&self) -> &dyn Any {
            self.0.as_any()
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self.0.as_any_mut()
        }
    }

    #[test]
    fn owned_delivery_adapter_runs_exactly_like_borrowed_delivery() {
        let params = Params::new(4, 1, 0, 10);
        let circuit = two_products(4);
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let run = |owned: bool| {
                let parties = [3u64, 5, 7, 11]
                    .iter()
                    .map(|&x| {
                        let party = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                        if owned {
                            Box::new(Owned(party)) as Box<dyn Protocol<Msg>>
                        } else {
                            Box::new(party) as _
                        }
                    })
                    .collect();
                let cfg = NetConfig::for_kind(params.n, kind).with_seed(61);
                let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
                sim.record_transcript();
                let output = |s: &Simulation<Msg>, i| s.party_as::<CirEval>(i).unwrap().output;
                let done =
                    sim.run_until(horizon, |s| (0..params.n).all(|i| output(s, i).is_some()));
                assert!(done, "{kind:?}: no output before the horizon");
                let results: Vec<_> = (0..params.n)
                    .map(|i| {
                        let p = sim.party_as::<CirEval>(i).unwrap();
                        (p.output, p.input_subset.clone())
                    })
                    .collect();
                (results, sim.metrics().clone(), sim.transcript().to_vec())
            };
            let (borrowed, owned) = (run(false), run(true));
            assert_eq!(owned.0, borrowed.0, "{kind:?}: outputs and input subsets");
            assert_eq!(owned.1, borrowed.1, "{kind:?}: metrics");
            assert!(owned.2 == borrowed.2, "{kind:?}: transcripts differ");
        }
    }

    /// Total `Open` deliveries of an honest synchronous run at n = 4.
    fn opens_delivered(circuit: &Circuit) -> usize {
        let params = Params::new(4, 1, 0, 10);
        let parties = [3u64, 5, 7, 11]
            .iter()
            .map(|&x| Box::new(CountOpens::new(params, circuit, x)) as Box<dyn Protocol<Msg>>)
            .collect();
        let sim = run_sync_to_quiescence(params, circuit, parties, CorruptionSet::none(), 77);
        (0..4)
            .map(|i| {
                let p = sim.party_as::<CountOpens>(i).unwrap();
                assert!(p.inner.output.is_some());
                p.opens
            })
            .sum()
    }

    #[test]
    fn honest_run_delivers_one_open_per_phase_layer_and_output() {
        // The `tests/determinism.rs` golden circuit: transform, verify, γ
        // and extract are each non-empty, D_M = 1, no suspect batch.
        let mut golden = Circuit::new(4);
        let prod = golden.mul(golden.input(0), golden.input(1));
        let sum = golden.add(golden.input(2), golden.input(3));
        let out = golden.add(prod, sum);
        golden.set_output(out);
        assert_eq!(opens_delivered(&golden), 16 * (4 + 1 + 1));
        // No multiplication ⇒ batches = 0 ⇒ every preprocessing batch is
        // empty and stays off the wire: the output opening alone.
        assert_eq!(opens_delivered(&Circuit::sum_of_inputs(4)), 16);
    }

    /// `CirEval` steps in `await-acs` only on its own events and on an
    /// ACS's progress, which each ACS reports at most once per share
    /// vector and once for `CS`.
    fn await_acs_steps_only_on_progress(cfg: NetConfig) {
        let params = Params::new(4, 1, 0, 10);
        let circuit = two_products(4);
        let parties = [3u64, 5, 7, 11]
            .iter()
            .map(|&x| Box::new(CountOpens::new(params, &circuit, x)) as Box<dyn Protocol<Msg>>)
            .collect();
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        sim.run_to_quiescence(params.horizon_for_depth(circuit.mult_depth()) * 8);
        for i in 0..params.n {
            let p = sim.party_as::<CountOpens>(i).unwrap();
            assert!(p.inner.output.is_some());
            let acs = [&p.inner.acs_input, &p.inner.acs_triples];
            let progress: usize = (acs.iter().copied().flatten())
                .map(|acs| {
                    let shares = (0..params.n).filter(|&j| acs.shares_from(j).is_some());
                    shares.count() + usize::from(acs.common_subset.is_some())
                })
                .sum();
            let bound = progress + p.own_awaiting;
            let steps = p.inner.await_steps;
            assert!(steps <= bound, "party {i}: {steps} > {bound}");
        }
    }

    #[test]
    fn await_acs_steps_only_on_progress_sync() {
        await_acs_steps_only_on_progress(NetConfig::synchronous(4).with_seed(7));
    }

    #[test]
    fn await_acs_steps_only_on_progress_async() {
        await_acs_steps_only_on_progress(NetConfig::asynchronous(4).with_seed(7));
    }

    #[test]
    fn multiplication_circuit_async_network() {
        let params = Params::new(4, 1, 0, 10);
        let mut circuit = Circuit::new(4);
        let p = circuit.mul(circuit.input(0), circuit.input(1));
        let out = circuit.add(p, circuit.input(2));
        circuit.set_output(out);
        let inputs = [4u64, 6, 9, 1];
        let (outs, _) = run_circuit(params, &circuit, &inputs, CorruptionSet::none(), false, 3);
        for o in outs {
            assert_eq!(o.unwrap().as_u64(), 4 * 6 + 9);
        }
    }

    /// The paths one segment outside the tree, found from `valid_paths`
    /// alone: below every instance, each segment under the largest of its
    /// children's that names none of them, and the one past it.
    fn stray_paths(kind: &Kind, n: usize) -> Vec<Vec<u32>> {
        let valid = kind.valid_paths(n);
        let mut stray = Vec::new();
        for path in &valid {
            let below = valid.iter().filter(|p| p.len() == path.len() + 1);
            let segs: Vec<u32> = below
                .filter(|p| p.starts_with(path))
                .map(|p| p[path.len()])
                .collect();
            let end = segs.iter().max().map_or(0, |&last| last + 1);
            for seg in (0..=end).filter(|seg| !segs.contains(seg)) {
                stray.push([&path[..], &[seg]].concat());
            }
        }
        stray
    }

    /// From the `CirEval` root as from the stand-alone ones: every valid
    /// path has a name, no path one segment outside the tree has one, and
    /// a message delivered there leaves the party's state as it was.
    #[test]
    fn describe_and_routing_agree_from_the_cireval_root() {
        use mpc_net::Effects;
        use mpc_protocols::{AbaMsg, AcastMsg, BcValue, SbaMsg};
        use rand::{rngs::StdRng, SeedableRng};

        let n = 7;
        let batch = CIREVAL.segment(n, Name::Batch, n + 4);
        let name = CIREVAL.describe(n, &[batch]);
        assert_eq!(name.as_deref(), Some("CirEval/Batch[4#1]/Acast"));
        assert_eq!(
            CIREVAL.describe(n, &[0]).as_deref(),
            Some("CirEval/AcsInput/Acs")
        );
        for params in [Params::new(4, 1, 0, 10), Params::new(7, 2, 0, 10)] {
            let n = params.n;
            for path in CIREVAL.valid_paths(n) {
                assert!(CIREVAL.describe(n, &path).is_some(), "{path:?} has no name");
            }
            let mut party = CirEval::new(params, Circuit::sum_of_inputs(n), Fp::from_u64(3));
            let mut effects = Effects::new();
            let mut rng = StdRng::seed_from_u64(0);
            let mut ctx = Context::new(1, n, 0, params.delta, &mut effects, &mut rng, 0);
            Protocol::init(&mut party, &mut ctx);
            let before = format!("{party:?}");
            let bit = BcValue::Bit(true);
            let probes = [
                Msg::Acast(AcastMsg::Send(bit.clone())),
                Msg::Acast(AcastMsg::Ready(bit)),
                Msg::Sba(SbaMsg::Round1 {
                    phase: 0,
                    value: None,
                }),
                Msg::Aba(AbaMsg::Finish { value: true }),
                Msg::RowPolys(vec![vec![Fp::from_u64(1), Fp::from_u64(2)]]),
            ];
            for path in stray_paths(&CIREVAL, n) {
                assert_eq!(
                    CIREVAL.describe(n, &path),
                    None,
                    "{path:?} is outside the tree"
                );
                for msg in &probes {
                    party.on_message(&mut ctx, 0, &path, msg.clone());
                }
            }
            assert!(
                format!("{party:?}") == before,
                "a stray path reached a handler"
            );
        }
    }

    /// The `Batch` family of the root: `n` senders × `n` late votes per
    /// board, over the boards of both `Π_ACS`, declared after them so that
    /// no other segment moved; and its boards, named once each, depth first.
    /// The SBA clusters come after it, one per `Π_BC` of both `Π_ACS` at
    /// most.
    #[test]
    fn the_root_batch_family_covers_the_boards_of_both_acs() {
        for n in [4, 5, 8] {
            let boards = CIREVAL.boards(n);
            assert_eq!(boards, 2 * ACS.boards(n));
            assert_eq!(boards, 2 * n * (n + 1));
            // The family's size, read off the names: its last slot has one
            // and the segment after it none.
            let (first, size) = (CIREVAL.segment(n, Name::Batch, 0), n * n * boards);
            assert_eq!(first, 2, "after AcsInput and AcsTriples");
            let last = first + size as u32 - 1;
            assert!(CIREVAL.describe(n, &[last]).is_some(), "n = {n}");
            let cluster = |k: u32| CIREVAL.describe(n, &[last + 1 + k]);
            assert_eq!(cluster(0).as_deref(), Some("CirEval/Sba[0]"), "n = {n}");
            let clusters = (8 * n + 6 * n * n) as u32;
            let name = format!("CirEval/Sba[{}]", clusters - 1);
            assert_eq!(cluster(clusters - 1), Some(name), "n = {n}");
            assert_eq!(cluster(clusters), None, "n = {n}");
            let mut paths: Vec<Vec<u32>> = (0..boards)
                .map(|index| CIREVAL.board_path(n, index).expect("a board"))
                .collect();
            assert_eq!(paths[0], vec![0, ACS.segment(n, Name::Vss, 0)]);
            let triples = ACS.boards(n);
            assert_eq!(paths[triples], vec![1, ACS.segment(n, Name::Vss, 0)]);
            for path in &paths {
                let name = CIREVAL.describe(n, path).expect("an instance");
                let last = name.rsplit('/').next().unwrap_or_default();
                assert!(last.starts_with("Wps") || last.starts_with("Vss"), "{name}");
            }
            paths.sort();
            paths.dedup();
            assert_eq!(paths.len(), boards, "n = {n}");
            assert_eq!(CIREVAL.board_path(n, boards), None);
        }
    }

    /// An honest n = 4 evaluation runs exactly 7 SBA clusters at every
    /// party, on both network kinds: one per start tick of its `Π_BC`s,
    /// each shared by both `Π_ACS`. Every SBA message goes to a cluster at
    /// the root; none is addressed below a `Π_BC`.
    #[test]
    fn an_evaluation_runs_one_sba_cluster_per_start_tick() {
        use mpc_net::TranscriptEvent;
        use std::collections::BTreeSet;

        let params = Params::new(4, 1, 0, NetConfig::DEFAULT_DELTA);
        let circuit = Circuit::product_of_inputs(4);
        let expected: BTreeSet<String> = (0..7).map(|k| format!("CirEval/Sba[{k}]")).collect();
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let parties = [3u64, 5, 7, 11]
                .iter()
                .map(|&x| {
                    let party = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                    Box::new(party) as Box<dyn Protocol<Msg>>
                })
                .collect();
            let cfg = NetConfig::for_kind(params.n, kind).with_seed(77);
            let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
            sim.record_transcript();
            let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
            let output = |s: &Simulation<Msg>, i| s.party_as::<CirEval>(i).unwrap().output;
            let done = sim.run_until(horizon, |s| (0..params.n).all(|i| output(s, i).is_some()));
            assert!(done, "{kind:?}: no output before the horizon");
            let mut clusters = vec![BTreeSet::new(); params.n];
            for entry in sim.transcript() {
                let TranscriptEvent::Deliver { path, .. } = &entry.event else {
                    continue;
                };
                let name = CIREVAL.describe(params.n, path).expect("an instance");
                if name.contains("Sba") {
                    assert!(name.starts_with("CirEval/Sba["), "{kind:?}: {name}");
                    clusters[entry.party].insert(name);
                }
            }
            for (party, names) in clusters.iter().enumerate() {
                assert_eq!(names, &expected, "{kind:?}: party {party}");
            }
        }
    }

    /// The id of [`ClusterFlood`]'s timers, which its evaluation never sees.
    const TIMER_FLOOD: u64 = 0x46_4c_44;

    /// Messages with the paths they are delivered at.
    type Flood = Vec<(Vec<u32>, Msg)>;

    /// Party 1 of an honest n = 4 evaluation, fed each flood of SBA-cluster
    /// traffic from party 3 at its tick. It records, per flood, whether the
    /// evaluation's side channels, its `Π_ACS` or its `await-acs` steps
    /// changed.
    struct ClusterFlood {
        inner: CirEval,
        floods: Vec<(Time, Flood)>,
        changed: Vec<bool>,
    }

    impl Protocol<Msg> for ClusterFlood {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            for &(at, _) in &self.floods {
                ctx.set_timer(at, TIMER_FLOOD);
            }
            Protocol::init(&mut self.inner, ctx);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            path: PathSlice<'_>,
            msg: Msg,
        ) {
            self.inner.on_message(ctx, from, path, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
            if !path.is_empty() || id != TIMER_FLOOD {
                return self.inner.on_timer(ctx, path, id);
            }
            let state = |p: &CirEval| {
                let acs = (&p.acs_input, &p.acs_triples, p.await_steps);
                format!("{:?} {acs:?}", p.side)
            };
            let before = state(&self.inner);
            let flood = self.floods[self.changed.len()].1.clone();
            for (path, msg) in flood {
                self.inner.on_message(ctx, 3, &path, msg);
            }
            self.changed.push(state(&self.inner) != before);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Round messages for an SBA cluster that does not exist, has not
    /// started or has finished, for a far-future cluster, below a cluster,
    /// or of the wrong length or phase for a live one, are all dropped at
    /// the root: no panic, no state, no evaluation step. A well-formed one
    /// for a live cluster is tallied, and the evaluation still ends with
    /// the right output.
    #[test]
    fn hostile_cluster_traffic_at_the_root_is_dropped() {
        use mpc_protocols::{BcValue, SbaMsg};

        let params = Params::new(4, 1, 0, NetConfig::DEFAULT_DELTA);
        let (n, t, delta) = (params.n, params.ts as u32, params.delta);
        // Cluster 0 is the vote round of every `Π_WPS`: started at 3Δ, its
        // round 1 at 6Δ, its last phase over at 6Δ + T_BGP; its slots are
        // the n votes of the n² `Π_WPS` of both `Π_ACS`. Cluster 1 starts
        // at 3Δ + T_BC.
        let (live, done) = (7 * delta, 7 * delta + params.t_bgp());
        let k = 2 * n * n * n;
        let cluster = |ordinal: usize| vec![CIREVAL.segment(n, Name::Sba, ordinal)];
        let round1 = |phase: u32, len: usize| {
            let values = vec![Some(BcValue::Bit(true)); len];
            Msg::Sba(SbaMsg::Round1Slots { phase, values })
        };
        let clusters = 8 * n + 6 * n * n;
        let mut hostile = Vec::new();
        for path in [cluster(1), cluster(clusters - 1), cluster(clusters)] {
            hostile.push((path, round1(1, k)));
        }
        hostile.push((vec![u32::MAX], round1(1, k)));
        hostile.push(([cluster(0), vec![7]].concat(), round1(1, k)));
        for len in [0, 1, k - 1, k + 1] {
            hostile.push((cluster(0), round1(1, len)));
            let candidates = vec![Some(Some(BcValue::Bit(true))); len];
            let round2 = SbaMsg::Round2Slots {
                phase: 1,
                candidates,
            };
            hostile.push((cluster(0), Msg::Sba(round2)));
        }
        for phase in [t + 1, u32::MAX] {
            hostile.push((cluster(0), round1(phase, k)));
        }
        let scalar = SbaMsg::Round1 {
            phase: 1,
            value: Some(BcValue::Bit(true)),
        };
        hostile.push((cluster(0), Msg::Sba(scalar)));
        // Party 3 is no king of phase 0 or 1.
        let king = SbaMsg::KingSlots {
            phase: 1,
            values: vec![Some(BcValue::Bit(true)); k],
        };
        hostile.push((cluster(0), Msg::Sba(king)));
        // Party 3's own round-1 entries of phase 1, early: tallied.
        let well_formed = vec![(cluster(0), round1(1, k))];
        let finished = vec![(cluster(0), round1(0, k)), (cluster(0), round1(1, k))];

        let circuit = Circuit::product_of_inputs(n);
        let inputs = [3u64, 5, 7, 11];
        let parties = inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let party = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                if i != 1 {
                    return Box::new(party) as Box<dyn Protocol<Msg>>;
                }
                let floods = [(live, hostile.clone()), (live, well_formed.clone())];
                Box::new(ClusterFlood {
                    inner: party,
                    floods: [&floods[..], &[(done, finished.clone())]].concat(),
                    changed: Vec::new(),
                })
            })
            .collect();
        let cfg = NetConfig::synchronous(n);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let output = |s: &Simulation<Msg>, i| match i {
            1 => s.party_as::<ClusterFlood>(i).unwrap().inner.output,
            _ => s.party_as::<CirEval>(i).unwrap().output,
        };
        let done = sim.run_until(horizon, |s| (0..n).all(|i| output(s, i).is_some()));
        assert!(done, "no output before the horizon");
        let flood = sim.party_as::<ClusterFlood>(1).unwrap();
        assert_eq!(
            flood.changed,
            [false, true, false],
            "hostile, tallied, finished"
        );
        for i in 0..n {
            assert_eq!(
                output(&sim, i),
                Some(Fp::from_u64(3 * 5 * 7 * 11)),
                "party {i}"
            );
        }
    }

    /// An asynchronous evaluation A-casts each party's late votes in at most
    /// one batch per tick, and every batch in the root's `Batch` family:
    /// neither `Π_ACS` below the root A-casts one. A batch's `Send` reaches
    /// its own sender in the tick it leaves, so the first delivery of one of
    /// a party's own slots (slot `k · n + sender`) to it gives the tick.
    #[test]
    fn late_votes_leave_in_one_root_batch_per_party_and_tick() {
        use mpc_net::TranscriptEvent;
        use std::collections::BTreeMap;

        let params = Params::new(4, 1, 0, NetConfig::DEFAULT_DELTA);
        let circuit = Circuit::product_of_inputs(4);
        let parties: Vec<Box<dyn Protocol<Msg>>> = [3u64, 5, 7, 11]
            .iter()
            .map(|&x| {
                Box::new(CirEval::new(params, circuit.clone(), Fp::from_u64(x)))
                    as Box<dyn Protocol<Msg>>
            })
            .collect();
        let cfg = NetConfig::asynchronous(params.n).with_seed(77);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        sim.record_transcript();
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let done = sim.run_until(horizon, |s| {
            (0..params.n).all(|i| s.party_as::<CirEval>(i).is_some_and(|p| p.output.is_some()))
        });
        assert!(done, "no output before the horizon");
        let mut sent_at = BTreeMap::new();
        for entry in sim.transcript() {
            let TranscriptEvent::Deliver { from, path, .. } = &entry.event else {
                continue;
            };
            let name = CIREVAL.describe(params.n, path).expect("an instance");
            if !name.contains("/Batch[") {
                continue;
            }
            assert!(
                name.starts_with("CirEval/Batch["),
                "{name} is not the root's"
            );
            let (first, n) = (CIREVAL.segment(params.n, Name::Batch, 0), params.n);
            let sender = (path[0] - first) as usize % n;
            if *from == entry.party && sender == entry.party {
                sent_at
                    .entry((entry.party, path.to_vec()))
                    .or_insert(entry.at);
            }
        }
        assert!(!sent_at.is_empty(), "the run casts late votes");
        let mut per_tick: BTreeMap<_, usize> = BTreeMap::new();
        for (&(party, _), &at) in &sent_at {
            *per_tick.entry((party, at)).or_default() += 1;
        }
        for ((party, at), batches) in per_tick {
            assert_eq!(
                batches, 1,
                "party {party} A-cast {batches} batches at tick {at}"
            );
        }
    }

    /// Party 1's evaluation (n = 4) after `init`, given sender 3's batch
    /// slot `k` of the root's channel: `2t_s + 1` `Ready`s of `value`, at
    /// `prefix` followed by the slot's segment in `kind`'s `Batch` family.
    fn deliver_batch_at(
        party: &mut CirEval,
        (prefix, kind): (&[u32], &Kind),
        k: usize,
        value: BcValue,
    ) {
        use mpc_net::Effects;
        use mpc_protocols::AcastMsg;
        use rand::{rngs::StdRng, SeedableRng};

        let Params { n, ts, delta, .. } = party.params;
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(1, n, 0, delta, &mut effects, &mut rng, 0);
        let path = [prefix, &[kind.segment(n, Name::Batch, k * n + 3)]].concat();
        let ready = Msg::Acast(AcastMsg::Ready(value));
        for from in 0..=2 * ts {
            party.on_message(&mut ctx, from, &path, ready.clone());
        }
    }

    /// A corrupt sender's batches at the root change no board and grow no
    /// state but the slots they came in: an over-long batch, values that are
    /// no vote batch, votes that name no board, a slot past the family, and
    /// a batch addressed to a `Π_ACS` below the root are all dropped.
    #[test]
    fn hostile_vote_batches_at_the_root_are_dropped() {
        use mpc_net::Effects;
        use mpc_protocols::Vote;
        use rand::{rngs::StdRng, SeedableRng};

        let params = Params::new(4, 1, 0, 10);
        let n = params.n;
        let mut party = CirEval::new(params, Circuit::product_of_inputs(n), Fp::from_u64(3));
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(1, n, 0, params.delta, &mut effects, &mut rng, 0);
        Protocol::init(&mut party, &mut ctx);
        let root = (&[][..], &CIREVAL);
        let late_votes = n * CIREVAL.boards(n); // per sender: n per board
        assert_eq!(late_votes, 160);
        let boards = |p: &CirEval| format!("{:?} {:?}", p.acs_input, p.acs_triples);
        let slots = |p: &CirEval| format!("{:?}", p.side).matches("Some(Acast").count();
        let ok = |board: usize, k: usize| (board * n + k) as u32;
        // Boards 0..20 are `AcsInput`'s, 20..40 `AcsTriples`'; board 21 is
        // `AcsTriples/Vss[0]/Wps[0]`'s.
        let (input_vss1, triples_wps) = (n + 1, ACS.boards(n) + 1);

        let before = boards(&party);
        let honest = BcValue::VoteBatch(vec![ok(input_vss1, 2), ok(triples_wps, 2)]);
        deliver_batch_at(&mut party, root, 0, honest);
        let folded = boards(&party);
        assert_ne!(folded, before, "a batch that counts is folded");
        assert_eq!(slots(&party), 1);

        let unknown = late_votes as u32; // board `boards`: past the last
        let hostile = [
            // Longer than a party's late votes, its first vote new.
            BcValue::VoteBatch(
                [
                    vec![ok(triples_wps, 0)],
                    vec![ok(input_vss1, 2); late_votes],
                ]
                .concat(),
            ),
            BcValue::Votes(vec![(0, Vote::Ok)]),
            BcValue::Bit(true),
            BcValue::VoteBatch(vec![unknown, unknown + 5, u32::MAX]),
        ];
        for (k, value) in (1..).zip(hostile) {
            deliver_batch_at(&mut party, root, k, value);
            assert_eq!(boards(&party), folded, "batch {k}");
            assert_eq!(slots(&party), k + 1, "batch {k}: its own slot only");
        }
        let table = format!("{:?}", party.side);
        let fresh = BcValue::VoteBatch(vec![ok(triples_wps, 0)]);
        // A slot past the family's end is a stray path: dropped by routing.
        deliver_batch_at(&mut party, root, late_votes, fresh.clone());
        // So is a batch addressed to the channel of a `Π_ACS` below the root.
        deliver_batch_at(&mut party, (&[1], &ACS), 0, fresh);
        assert_eq!(boards(&party), folded);
        assert_eq!(format!("{:?}", party.side), table, "no slot grew");
    }

    /// In packed mode ACS #2 is absent until a fallback launches it, and a
    /// late `OK` that the root's channel delivers to one of its boards
    /// meanwhile is not delivered again: the packed engine holds it with
    /// ACS #2's traffic, and the fallback replays it. A party whose batch
    /// came before its fallback ends with the ACS #2 of one whose batch came
    /// after, and not with that of one that got no batch.
    #[test]
    fn a_late_vote_for_acs2_before_a_packed_fallback_is_replayed() {
        use mpc_net::Effects;
        use rand::{rngs::StdRng, SeedableRng};

        let params = Params::new(4, 1, 0, 10);
        let n = params.n;
        // Sender 3's `OK` about party 2 on board `ACS.boards(n) + 1`,
        // `AcsTriples/Vss[0]/Wps[0]`'s.
        let batch = BcValue::VoteBatch(vec![((ACS.boards(n) + 1) * n + 2) as u32]);
        let run = |batch_first: Option<bool>| {
            let circuit = Circuit::product_of_inputs(n);
            let mut party = CirEval::new(params, circuit, Fp::from_u64(3));
            party.set_packing(1);
            let mut effects = Effects::new();
            let mut rng = StdRng::seed_from_u64(0);
            let mut ctx = Context::new(1, n, 0, params.delta, &mut effects, &mut rng, 0);
            Protocol::init(&mut party, &mut ctx);
            assert!(
                party.acs_triples.is_none(),
                "packed mode starts without ACS #2"
            );
            let deliver = |party: &mut CirEval, now: bool| {
                if batch_first == Some(now) {
                    deliver_batch_at(party, (&[], &CIREVAL), 0, batch.clone());
                }
            };
            deliver(&mut party, true);
            party.fall_back_to_scalar(&mut ctx);
            deliver(&mut party, false);
            format!("{:?}", party.acs_triples)
        };
        let (held, direct, none) = (run(Some(true)), run(Some(false)), run(None));
        assert_ne!(direct, none, "the vote changes the board");
        assert_eq!(held, direct, "the held vote is replayed");
    }
}
