//! `Π_CirEval` — the best-of-both-worlds circuit-evaluation protocol
//! (Fig 11, Theorem 7.1), together with the preprocessing phase that feeds it
//! (`Π_TripSh` / `Π_PreProcessing`, Figs 8 and 10, and `Π_TripTrans` /
//! `Π_TripExt`, Figs 7 and 9).
//!
//! Structure of one run:
//!
//! 1. **Input sharing** — one `Π_ACS` instance in which every party
//!    `t_s`-shares its private input; parties outside the agreed common
//!    subset `CS₁` contribute a default sharing of `0`. In a synchronous
//!    network every honest party's input makes it into `CS₁`.
//! 2. **Triple provisioning** — a second `Π_ACS` instance (run in parallel)
//!    in which every party `t_s`-shares the raw random multiplication triples
//!    it deals *and* the verification triples it will use as a supervisor.
//!    This is the batched equivalent of the per-dealer `Π_VSS`+`Π_ACS` calls
//!    of `Π_TripSh`/`Π_PreProcessing` (see DESIGN.md).
//! 3. **Triple transformation and supervised verification** — for each dealer
//!    of the triple subset `CS₂`, the raw triples are transformed
//!    (`Π_TripTrans`) and every point is re-multiplied under the supervision
//!    of each member of `CS₂` with that supervisor's verification triple;
//!    non-zero differences trigger the public opening of the suspected point
//!    and, if it is not a multiplication triple, the dealer's batch is
//!    replaced by the default `(0, 0, 0)` sharing — exactly `Π_TripSh`.
//! 4. **Triple extraction** (`Π_TripExt`) — from the verified triples of
//!    `2d + 1` dealers, `d + 1 − t_s` triples that are random to the
//!    adversary are extracted per batch.
//! 5. **Shared circuit evaluation** — linear gates locally, multiplication
//!    gates with Beaver's protocol, one extracted triple per gate.
//! 6. **Output and termination** — the output wire is publicly
//!    reconstructed; `(ready, y)` messages à la Bracha ensure every honest
//!    party terminates with the same output.
//!
//! **Openings are batched per wave.** Every set of reconstructions the paper
//! runs in parallel is ONE `Msg::Open` per party and one OEC batch decode:
//! `TAG_TRANSFORM`, `TAG_VERIFY`, `TAG_GAMMA`, `TAG_EXTRACT`, the suspect
//! wave (`TAG_SUSPECT`, three values per non-zero γ — empty, hence off the
//! wire, in every honest run), one batch per multiplication layer and the
//! output. A value is identified by its *position* in the batch, derived
//! from public data only (`CS₂`, batch count, `t_s`, the opened γ vector)
//! by one layout iterator per wave shared by issue and resolve. Wrong-length
//! batches and tags outside the run's static set are ignored
//! ([`crate::openings`]; DESIGN.md, "Phase-batched openings").
//!
//! `CirEval` is `Send` (asserted below): under the simulator's deterministic
//! parallel engine a whole party — this state machine included — is handed
//! to a worker thread for the duration of one time slice, and its per-event
//! behaviour depends only on its own state and RNG, which is what keeps
//! `threads = k` runs bit-identical to sequential ones.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mpc_algebra::evaluation_points::{alpha, beta};
use mpc_algebra::{shamir, EvalDomain, Fp, PackedDomain, Polynomial};
use mpc_net::{Context, PartyId, PathSlice, Protocol, Time};
use mpc_protocols::acs::Acs;
use mpc_protocols::{Msg, Params};

use crate::circuit::{Circuit, Gate, Wire};
use crate::openings::OpeningManager;
use crate::packing::{point, BasisElem, LinComb, PackedPlan, Pos};
use crate::triples::{
    beaver_masked_shares, beaver_output_share, interpolate_share_with, packed_z_form_share,
    TripleShare,
};

const SEG_ACS_INPUT: u32 = 0;
const SEG_ACS_TRIPLES: u32 = 1;

const TAG_TRANSFORM: u32 = 1 << 28;
const TAG_VERIFY: u32 = 2 << 28;
const TAG_GAMMA: u32 = 3 << 28;
const TAG_SUSPECT: u32 = 4 << 28;
const TAG_EXTRACT: u32 = 5 << 28;
const TAG_CIRCUIT: u32 = 6 << 28;
const TAG_OUTPUT: u32 = 7 << 28;
const TAG_PACKED: u32 = 8 << 28;
/// Public degree-probe openings of the packed deals, one tag per dealer.
const TAG_PROBE: u32 = 9 << 28;
/// The low bits of a tag: the layer / gate / dealer index inside its space.
const TAG_INDEX_MASK: u32 = (1 << 28) - 1;

/// Root-path timer id: the packed-deal phase deadline, after which dealers
/// still unresolved at this party are publicly reported
/// ([`Msg::PackedReport`]).
const TIMER_PACKED_DEAL: u64 = 0x50_44_4c;

/// One party's shares of a block-slot triple `(a, b, c)`, per dealt position.
type TripleForms = BTreeMap<Pos, (Fp, Fp, Fp)>;

/// Progress of one `Π_CirEval` run (coarse phases; each phase is driven by
/// message arrival, not timers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    AwaitAcs,
    /// Packed mode only: awaiting every assigned dealer's
    /// [`Msg::PackedDeal`] payload (replaces the whole
    /// Transform…Extract preprocessing pipeline).
    PackedDeal,
    Transform,
    VerifyBeaver,
    Gamma,
    Suspect,
    Extract,
    Circuit,
    OpenOutput,
    Ready,
    Done,
}

/// One instance of the full best-of-both-worlds MPC protocol.
///
/// `Send` by construction (its `Arc<EvalDomain>` cache is itself `Sync`),
/// which lets the simulator's parallel engine move the whole party to a
/// worker thread per time slice.
#[derive(Debug)]
pub struct CirEval {
    params: Params,
    /// Shared evaluation-domain cache for `n` parties: every triple
    /// transformation/extraction interpolation runs over one of its cached
    /// prefix bases.
    domain: Arc<EvalDomain>,
    circuit: Circuit,
    my_input: Fp,
    acs_input: Option<Acs>,
    acs_triples: Option<Acs>,
    openings: OpeningManager,
    phase: Phase,
    // preprocessing dimensions
    batches: usize,
    d_ext: usize,
    // state derived once both ACS instances are ready
    input_shares: Vec<Fp>,
    dealers: Vec<PartyId>,
    supervisors: Vec<PartyId>,
    raw: HashMap<(usize, usize, usize), TripleShare>,
    z_high: HashMap<(usize, usize, usize), Fp>,
    /// `(dpos, batch, spos)` of every supervised check whose opened γ is
    /// non-zero, in verify order — the layout of the suspect batch.
    suspects: Vec<(usize, usize, usize)>,
    flagged: HashSet<(usize, usize)>,
    verified: BTreeMap<(usize, usize), TripleShare>,
    ext_z: HashMap<(usize, usize), Fp>,
    pool: Vec<TripleShare>,
    wire_shares: Vec<Option<Fp>>,
    /// Triple-pool index of each `Mul` gate (in gate order), `usize::MAX`
    /// for non-multiplication gates — a flat vector instead of a per-gate
    /// hash map, computed once at construction.
    gate_triple: Vec<usize>,
    /// Multiplication layers of the circuit ([`Circuit::layers`]), computed
    /// once; the default evaluation path opens one batch per layer.
    mul_layers: Vec<Vec<usize>>,
    /// Next unresolved multiplication layer (index into `mul_layers`).
    next_mul_layer: usize,
    /// Whether the current layer's Beaver maskings have been broadcast.
    layer_issued: bool,
    /// Reference mode: one opening per multiplication gate (the pre-batching
    /// behaviour), kept for equivalence tests and the e12 benchmark. All
    /// parties of a run must agree on the mode: the same `TAG_CIRCUIT`
    /// offset means "gate id" in one mode and "layer index" in the other,
    /// so mixed-mode parties would merge shares of different values.
    per_gate_openings: bool,
    /// Per-gate mode bookkeeping: whether gate `g`'s opening was issued.
    mul_opened: Vec<bool>,
    // ------------------------------------------------------------------
    // packed (SIMD) evaluation path — active when `packing > 0`
    // ------------------------------------------------------------------
    /// Packing width `ℓ` (0 = scalar engine; set via [`CirEval::set_packing`]).
    packing: usize,
    /// The static block plan (packed mode only).
    plan: Option<Arc<PackedPlan>>,
    /// Slot-point domain cache (packed mode only).
    pdomain: Option<Arc<PackedDomain>>,
    /// Raw `PackedDeal` payloads buffered until `CS₁` is known.
    deal_buf: BTreeMap<PartyId, Vec<Fp>>,
    /// Senders whose deal parsed successfully / was rejected (wrong length).
    deals_ok: HashSet<PartyId>,
    deals_dead: HashSet<PartyId>,
    /// Whether the packed-deal deadline ([`TIMER_PACKED_DEAL`]) has fired;
    /// from then on unresolved dealers are publicly reported.
    deal_deadline: bool,
    /// Dealers this party has already reported via [`Msg::PackedReport`].
    my_reports: HashSet<PartyId>,
    /// Distinct reporters per accused dealer. `t_s + 1` of them — at least
    /// one honest — are public proof of a deal failure and trigger the
    /// uniform fallback to the scalar engine.
    deal_reports: BTreeMap<PartyId, HashSet<PartyId>>,
    /// Triple-ACS traffic buffered while the packed path (which has no
    /// triple ACS) was live, replayed if the scalar fallback launches
    /// ACS #2 late.
    acs2_buf: Vec<(PartyId, Vec<u32>, Msg)>,
    /// Whether this run abandoned the packed engine for the scalar path
    /// after a detectably bad packed dealer.
    pub packed_fell_back: bool,
    /// `CS₁`, sorted — the canonical order behind dealer assignment and the
    /// deal payload layout.
    cs1_sorted: Vec<PartyId>,
    /// My slot-positioned shares of party `j`'s input, by position.
    input_forms: Vec<BTreeMap<Pos, Fp>>,
    /// My shares of block/slot triples `(a, b, c)`, per dealt position.
    triple_forms: HashMap<(usize, usize), TripleForms>,
    /// My shares of resolved multiplication outputs, per dealt position.
    z_forms: HashMap<usize, BTreeMap<Pos, Fp>>,
    /// Next unresolved multiplication layer of the packed driver.
    packed_layer: usize,
    /// Whether the current packed layer's `[D, E]` openings went out.
    packed_issued: bool,
    /// Effective packing width (0 when scalar) — exported into `Metrics`.
    pub packed_width: usize,
    /// Publicly opened value count per multiplication layer (layer-batched
    /// scalar and packed paths; the per-gate reference path leaves it empty).
    pub values_opened_by_layer: Vec<u64>,
    /// `(ready, y)` votes per candidate output (deterministic iteration
    /// order — `Fp` is `Ord`).
    ready_counts: BTreeMap<Fp, HashSet<PartyId>>,
    sent_ready: bool,
    /// The reconstructed circuit output, once the termination condition holds.
    pub output: Option<Fp>,
    /// Local time at which the output was fixed.
    pub output_at: Option<Time>,
    /// The common subset whose inputs were used (set once known).
    pub input_subset: Option<Vec<PartyId>>,
    /// Test hook: deal every raw triple with `c = a·b + 1` (a corrupt
    /// dealer that is otherwise honest), to reach [`Phase::Suspect`].
    #[cfg(test)]
    deal_bad_triples: bool,
}

/// `(a, b, c)` for `a < outer`, `b < mid`, `c ∈ inner`, `a` slowest — the
/// loop order of every phase batch.
fn grid(
    outer: usize,
    mid: usize,
    inner: std::ops::Range<usize>,
) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..outer).flat_map(move |a| {
        let inner = inner.clone();
        (0..mid).flat_map(move |b| inner.clone().map(move |c| (a, b, c)))
    })
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
        let per_batch = d_ext + 1 - params.ts;
        let c_m = circuit.mult_count();
        let batches = if c_m == 0 { 0 } else { c_m.div_ceil(per_batch) };
        let n_gates = circuit.gates().len();
        // One triple per multiplication gate, assigned in gate order.
        let mut gate_triple = vec![usize::MAX; n_gates];
        let mut next_triple = 0usize;
        for (g, gate) in circuit.gates().iter().enumerate() {
            if matches!(gate, Gate::Mul(_, _)) {
                gate_triple[g] = next_triple;
                next_triple += 1;
            }
        }
        let mul_layers = circuit.layers();
        CirEval {
            params,
            domain: EvalDomain::get(params.n),
            circuit,
            my_input,
            acs_input: None,
            acs_triples: None,
            openings: OpeningManager::new(),
            phase: Phase::AwaitAcs,
            batches,
            d_ext,
            input_shares: Vec::new(),
            dealers: Vec::new(),
            supervisors: Vec::new(),
            raw: HashMap::new(),
            z_high: HashMap::new(),
            suspects: Vec::new(),
            flagged: HashSet::new(),
            verified: BTreeMap::new(),
            ext_z: HashMap::new(),
            pool: Vec::new(),
            wire_shares: vec![None; n_gates],
            gate_triple,
            mul_layers,
            next_mul_layer: 0,
            layer_issued: false,
            per_gate_openings: false,
            mul_opened: vec![false; n_gates],
            packing: 0,
            plan: None,
            pdomain: None,
            deal_buf: BTreeMap::new(),
            deals_ok: HashSet::new(),
            deals_dead: HashSet::new(),
            deal_deadline: false,
            my_reports: HashSet::new(),
            deal_reports: BTreeMap::new(),
            acs2_buf: Vec::new(),
            packed_fell_back: false,
            cs1_sorted: Vec::new(),
            input_forms: Vec::new(),
            triple_forms: HashMap::new(),
            z_forms: HashMap::new(),
            packed_layer: 0,
            packed_issued: false,
            packed_width: 0,
            values_opened_by_layer: Vec::new(),
            ready_counts: BTreeMap::new(),
            sent_ready: false,
            output: None,
            output_at: None,
            input_subset: None,
            #[cfg(test)]
            deal_bad_triples: false,
        }
    }

    /// The name of the evaluation phase this party is currently in — a
    /// stable diagnostic label for stall post-mortems (the sweep harness and
    /// resilience tests print it when a run fails to terminate).
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::AwaitAcs => "await-acs",
            Phase::PackedDeal => "packed-deal",
            Phase::Transform => "transform",
            Phase::VerifyBeaver => "verify-beaver",
            Phase::Gamma => "gamma",
            Phase::Suspect => "suspect",
            Phase::Extract => "extract",
            Phase::Circuit => "circuit",
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
        self.packing = ell;
        self.packed_width = ell;
        if ell > 0 {
            assert!(
                ell <= crate::thresholds::max_packing_width(self.params.n, self.params.ts),
                "packing width exceeds the OEC feasibility bound n - 3*ts"
            );
            self.plan = Some(Arc::new(PackedPlan::new(&self.circuit, ell)));
            self.pdomain = Some(PackedDomain::get(self.params.n, ell));
            self.input_forms = vec![BTreeMap::new(); self.params.n];
        } else {
            self.plan = None;
            self.pdomain = None;
            self.input_forms = Vec::new();
        }
    }

    fn raw_per_dealer(&self) -> usize {
        2 * self.params.ts + 1
    }

    /// Layout of a party's triple-ACS polynomial vector.
    fn raw_offset(&self, batch: usize, k: usize, comp: usize) -> usize {
        (batch * self.raw_per_dealer() + k) * 3 + comp
    }
    fn verif_base(&self) -> usize {
        self.batches * self.raw_per_dealer() * 3
    }
    fn verif_offset(&self, batch: usize, dealer_party: PartyId, comp: usize) -> usize {
        self.verif_base() + (batch * self.params.n + dealer_party) * 3 + comp
    }
    fn triple_polys_len(&self) -> usize {
        self.verif_base() + self.batches * self.params.n * 3
    }

    // Phase-batch layouts: the position of a value inside a phase's single
    // `Open` replaces a per-value tag, so issue and resolve of a phase walk
    // the SAME iterator. Every bound is public (`CS₂`, `batches`, `t_s`).

    /// `(dpos, batch, i)` of the `Π_TripTrans` re-multiplications.
    fn transform_layout(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        let high = self.ts() + 1..self.raw_per_dealer();
        grid(self.dealers.len(), self.batches, high)
    }
    /// `(dpos, batch, spos)` of the supervised checks (Verify and γ waves).
    fn verify_layout(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        grid(self.dealers.len(), self.batches, 0..self.supervisors.len())
    }
    /// `(batch, p)` of the `Π_TripExt` re-multiplications.
    fn extract_layout(&self) -> impl Iterator<Item = (usize, usize)> {
        let high = self.d_ext + 1..2 * self.d_ext + 1;
        (0..self.batches).flat_map(move |batch| high.clone().map(move |p| (batch, p)))
    }

    /// Resolves one phase batch of `count` `t_s`-shared values.
    fn resolve_batch(&mut self, tag: u32, count: usize) -> Option<Vec<Fp>> {
        let ts = self.ts();
        self.openings
            .try_reconstruct(tag, count, ts, ts)
            .map(<[Fp]>::to_vec)
    }

    fn ts(&self) -> usize {
        self.params.ts
    }

    /// Whether `tag` can name an opening of this run. The set is small and
    /// static — the five phase batches, one batch per multiplication layer
    /// (per gate in the reference mode), the output and one probe per packed
    /// dealer — so `Open`s outside it are dropped unread instead of letting a
    /// corrupt sender grow the opening state by 2³² keys.
    fn legal_open_tag(&self, tag: u32) -> bool {
        let index = (tag & TAG_INDEX_MASK) as usize;
        match tag & !TAG_INDEX_MASK {
            TAG_TRANSFORM | TAG_VERIFY | TAG_GAMMA | TAG_SUSPECT | TAG_EXTRACT | TAG_OUTPUT => {
                index == 0
            }
            TAG_CIRCUIT if self.per_gate_openings => index < self.circuit.gates().len(),
            TAG_CIRCUIT | TAG_PACKED => index < self.mul_layers.len(),
            TAG_PROBE => index < self.params.n,
            _ => false,
        }
    }

    fn raw_triple(&self, dpos: usize, batch: usize, k: usize) -> TripleShare {
        self.raw[&(dpos, batch, k)]
    }

    /// My share of `X(target)` (resp. `Y`) of the per-dealer transformed
    /// triple polynomials, defined by the first `t_s + 1` raw triples.
    fn dealer_xy_share(&self, dpos: usize, batch: usize, target: Fp) -> (Fp, Fp) {
        // One λ vector serves both component dot products.
        let lambda = self.domain.prefix_basis(self.ts() + 1).lambda_at(target);
        let (mut a, mut b) = (Fp::ZERO, Fp::ZERO);
        for (i, &l) in lambda.iter().enumerate() {
            let triple = self.raw_triple(dpos, batch, i);
            a += l * triple.a;
            b += l * triple.b;
        }
        (a, b)
    }

    /// My share of `Z(target)` of the per-dealer transformed triple
    /// polynomials (degree `2·t_s`, defined by all `2·t_s + 1` points).
    fn dealer_z_share(&self, dpos: usize, batch: usize, target: Fp) -> Fp {
        let basis = self.domain.prefix_basis(self.raw_per_dealer());
        let ys: Vec<Fp> = (0..self.raw_per_dealer())
            .map(|i| {
                if i <= self.ts() {
                    self.raw_triple(dpos, batch, i).c
                } else {
                    self.z_high[&(dpos, batch, i)]
                }
            })
            .collect();
        interpolate_share_with(&basis, &ys, target)
    }

    /// The degree-`t_s` sharing polynomials this party contributes to the
    /// triple ACS: `batches × (2·t_s + 1)` raw multiplication triples plus
    /// `batches × n` verification triples, in the layout of
    /// [`Self::raw_offset`] / [`Self::verif_offset`]. Shared by the scalar
    /// `init` path and the packed fallback (which launches ACS #2 late).
    fn make_triple_polys(&self, ctx: &mut Context<'_, Msg>) -> Vec<Polynomial> {
        let ts = self.params.ts;
        let mut polys = Vec::with_capacity(self.triple_polys_len());
        for _ in 0..self.batches {
            for _ in 0..self.raw_per_dealer() {
                let a = Fp::random(ctx.rng());
                let b = Fp::random(ctx.rng());
                let c = a * b;
                #[cfg(test)]
                let c = c + Fp::from_u64(self.deal_bad_triples as u64);
                for v in [a, b, c] {
                    polys.push(Polynomial::random_with_constant_term(ctx.rng(), ts, v));
                }
            }
        }
        for _ in 0..self.batches {
            for _ in 0..self.params.n {
                let u = Fp::random(ctx.rng());
                let v = Fp::random(ctx.rng());
                let w = u * v;
                for val in [u, v, w] {
                    polys.push(Polynomial::random_with_constant_term(ctx.rng(), ts, val));
                }
            }
        }
        polys
    }

    fn verification_triple(
        &self,
        sup: PartyId,
        batch: usize,
        dealer_party: PartyId,
    ) -> TripleShare {
        let acs = self.acs_triples.as_ref().expect("phase after ACS");
        let shares = acs.shares_from(sup).expect("supervisor is in CS2");
        TripleShare::new(
            shares[self.verif_offset(batch, dealer_party, 0)],
            shares[self.verif_offset(batch, dealer_party, 1)],
            shares[self.verif_offset(batch, dealer_party, 2)],
        )
    }

    // ------------------------------------------------------------------
    // phase transitions
    // ------------------------------------------------------------------

    fn drive(&mut self, ctx: &mut Context<'_, Msg>) {
        // bounded loop: phases can cascade when waves are empty
        for _ in 0..32 {
            let before = self.phase;
            match self.phase {
                Phase::AwaitAcs => self.drive_await_acs(ctx),
                Phase::PackedDeal => self.drive_packed_deal(ctx),
                Phase::Transform => self.drive_transform(ctx),
                Phase::VerifyBeaver => self.drive_verify(ctx),
                Phase::Gamma => self.drive_gamma(ctx),
                Phase::Suspect => self.drive_suspect(ctx),
                Phase::Extract => self.drive_extract(ctx),
                Phase::Circuit if self.packing > 0 => self.drive_packed_circuit(ctx),
                Phase::Circuit => self.drive_circuit(ctx),
                Phase::OpenOutput => self.drive_open_output(ctx),
                Phase::Ready => self.drive_ready(ctx),
                Phase::Done => return,
            }
            if self.phase == before {
                return;
            }
        }
    }

    fn drive_await_acs(&mut self, ctx: &mut Context<'_, Msg>) {
        // Packed mode runs on ACS #1 alone: triples arrive as
        // slot-positioned point-to-point deals, so the whole
        // transform/verify/extract pipeline (and its ACS) is skipped.
        let Some(acs1) = &self.acs_input else { return };
        let acs2_ready = self.packing > 0 || self.acs_triples.as_ref().is_some_and(Acs::ready);
        if !acs1.ready() || !acs2_ready {
            return;
        }
        // `CS₁` is ascending (`Π_ACS` builds it in party order).
        let cs1 = acs1.common_subset.clone().expect("ready implies CS");
        self.input_subset = Some(cs1.clone());
        // input shares: default 0-sharing for parties outside CS1
        self.input_shares = (0..self.params.n)
            .map(|j| {
                if cs1.contains(&j) {
                    acs1.shares_from(j).expect("in CS")[0]
                } else {
                    Fp::ZERO
                }
            })
            .collect();
        if self.packing > 0 {
            self.cs1_sorted = cs1;
            self.phase = Phase::PackedDeal;
            // Deadline for every assigned dealer's deal to arrive and pass
            // its degree probe. `T_ACS` is generous (deals + probes need two
            // message hops), so in honest runs — synchronous or not — the
            // phase completes long before the timer fires.
            ctx.set_timer(self.params.t_acs(), TIMER_PACKED_DEAL);
            self.issue_packed_deals(ctx);
            return;
        }
        let acs2 = self.acs_triples.as_ref().expect("scalar mode runs ACS #2");
        self.supervisors = acs2.common_subset.clone().expect("ready implies CS");
        // 2·d + 1 ≤ n − t_s ≤ |CS₂| dealers
        self.dealers = self.supervisors[..2 * self.d_ext + 1].to_vec();
        // cache my shares of every dealer's raw triples
        for (dpos, &dealer) in self.dealers.iter().enumerate() {
            let shares = acs2.shares_from(dealer).expect("dealer is in CS2");
            for batch in 0..self.batches {
                for k in 0..self.raw_per_dealer() {
                    let t = TripleShare::new(
                        shares[self.raw_offset(batch, k, 0)],
                        shares[self.raw_offset(batch, k, 1)],
                        shares[self.raw_offset(batch, k, 2)],
                    );
                    self.raw.insert((dpos, batch, k), t);
                }
            }
        }
        self.phase = Phase::Transform;
        self.issue_transform(ctx);
    }

    // ------------------------------------------------------------------
    // packed (SIMD) evaluation path
    // ------------------------------------------------------------------

    /// Deals this party's slot-positioned sharings: its input at every
    /// consumed slot position (members of `CS₁` only) and one fresh triple
    /// `(a, b, c = a·b)` per slot of each assigned block, shared at *every*
    /// position of that slot's position set. One `(a, b, c)` is drawn per
    /// slot and re-shared per position — the positions must carry the same
    /// secrets for the z-form identity ([`packed_z_form_share`]) to hold.
    fn issue_packed_deals(&mut self, ctx: &mut Context<'_, Msg>) {
        let plan = self.plan.clone().expect("packed mode has a plan");
        let cs1 = self.cs1_sorted.clone();
        let n = self.params.n;
        let ts = self.ts();
        let me = ctx.me;
        let mut payloads: Vec<Vec<Fp>> = vec![Vec::new(); n];
        if cs1.contains(&me) {
            for &pos in &plan.input_positions[me] {
                let s = shamir::share_at(ctx.rng(), self.my_input, point(pos), ts, n);
                for (p, share) in payloads.iter_mut().zip(&s.shares) {
                    p.push(*share);
                }
            }
        }
        for blk in plan.blocks_of(me, &cs1) {
            for k in 0..plan.ell {
                let a = Fp::random(ctx.rng());
                let b = Fp::random(ctx.rng());
                let c = a * b;
                for &pos in &plan.positions[blk][k] {
                    for v in [a, b, c] {
                        let s = shamir::share_at(ctx.rng(), v, point(pos), ts, n);
                        for (p, share) in payloads.iter_mut().zip(&s.shares) {
                            p.push(*share);
                        }
                    }
                }
            }
        }
        // One trailing blinding-mask share per non-empty deal: folded into
        // the public degree probe (`parse_deal`) so the opened probe value
        // is uniformly random and leaks nothing about the dealt secrets.
        if !payloads[me].is_empty() {
            let mask = Fp::random(ctx.rng());
            let s = shamir::share_at(ctx.rng(), mask, point(Pos::Zero), ts, n);
            for (p, share) in payloads.iter_mut().zip(&s.shares) {
                p.push(*share);
            }
        }
        let mine = std::mem::take(&mut payloads[me]);
        self.parse_deal(ctx, me, mine);
        for (i, payload) in payloads.into_iter().enumerate() {
            if i != me && !payload.is_empty() {
                ctx.send(i, Msg::PackedDeal(payload));
            }
        }
    }

    /// The `j`-th public probe coefficient for `dealer`'s deal: 64 ideal
    /// common coins (DESIGN.md substitution S1) assembled into one field
    /// element. Every party derives the same coefficients at the root path,
    /// and in the ideal-coin model the dealer cannot anticipate them when
    /// dealing, so a garbled element survives the probe combination only
    /// with probability `~2⁻⁶⁴`.
    fn probe_coeff(&self, ctx: &Context<'_, Msg>, dealer: PartyId, j: usize) -> Fp {
        let mut bits = 0u64;
        for bit in 0..64u64 {
            let round = ((dealer as u64) << 40) ^ ((j as u64) << 8) ^ bit;
            if ctx.common_coin(round) {
                bits |= 1 << bit;
            }
        }
        Fp::from_u64(bits)
    }

    /// Parses one sender's deal payload against the canonical layout. A
    /// payload whose length does not match [`PackedPlan::expected_deal_len`]
    /// is rejected and the sender marked Byzantine. A shape-valid payload
    /// additionally triggers this party's public degree probe: the
    /// common-coin combination of every dealt share plus the trailing
    /// blinding-mask share, opened under `TAG_PROBE + dealer`. For an honest
    /// dealer every element is a point of a degree-`t_s` polynomial, so the
    /// probe opening reconstructs at degree `t_s` everywhere; a deal whose
    /// sharings are inconsistent leaves the probe undecodable (whp over the
    /// coins), which [`Self::drive_packed_deal`] converts into a public
    /// report after the deadline.
    fn parse_deal(&mut self, ctx: &mut Context<'_, Msg>, from: PartyId, values: Vec<Fp>) {
        let plan = self.plan.clone().expect("packed mode has a plan");
        if values.len() != plan.expected_deal_len(from, &self.cs1_sorted) {
            self.deals_dead.insert(from);
            return;
        }
        if values.is_empty() {
            // Nothing to deal (outside CS₁, no blocks assigned).
            self.deals_ok.insert(from);
            return;
        }
        let base = values.len() - 1;
        let mut probe = values[base];
        for (j, &v) in values[..base].iter().enumerate() {
            probe += self.probe_coeff(ctx, from, j) * v;
        }
        self.openings
            .open(ctx, TAG_PROBE + from as u32, vec![probe]);
        // The trailing mask share is consumed by the probe alone; the layout
        // below covers exactly the `base` dealt shares.
        let mut it = values.into_iter();
        if self.cs1_sorted.contains(&from) {
            for &pos in &plan.input_positions[from] {
                self.input_forms[from].insert(pos, it.next().expect("length checked"));
            }
        }
        for blk in plan.blocks_of(from, &self.cs1_sorted) {
            for k in 0..plan.ell {
                let forms = self.triple_forms.entry((blk, k)).or_default();
                for &pos in &plan.positions[blk][k] {
                    let fa = it.next().expect("length checked");
                    let fb = it.next().expect("length checked");
                    let fc = it.next().expect("length checked");
                    forms.insert(pos, (fa, fb, fc));
                }
            }
        }
        self.deals_ok.insert(from);
    }

    /// Parses any deals buffered before `CS₁` was known and advances to the
    /// circuit once every assigned dealer is *good*: its deal parsed
    /// shape-valid **and** its public degree probe reconstructed at degree
    /// `t_s`. After the deadline ([`TIMER_PACKED_DEAL`]) this party reports
    /// every dealer still unresolved; `t_s + 1` distinct reporters against
    /// any dealer — at least one of them honest — make the failure public,
    /// and every party abandons the packed engine together
    /// ([`Self::fall_back_to_scalar`]).
    fn drive_packed_deal(&mut self, ctx: &mut Context<'_, Msg>) {
        let buffered: Vec<(PartyId, Vec<Fp>)> =
            std::mem::take(&mut self.deal_buf).into_iter().collect();
        for (from, values) in buffered {
            if !self.deals_ok.contains(&from) && !self.deals_dead.contains(&from) {
                self.parse_deal(ctx, from, values);
            }
        }
        let plan = self.plan.clone().expect("packed mode has a plan");
        let ts = self.ts();
        let mut all_good = true;
        for s in 0..self.params.n {
            if plan.expected_deal_len(s, &self.cs1_sorted) == 0 {
                continue;
            }
            let good = self.deals_ok.contains(&s)
                && self
                    .openings
                    .try_reconstruct(TAG_PROBE + s as u32, 1, ts, ts)
                    .is_some();
            if good {
                continue;
            }
            all_good = false;
            if self.deal_deadline && self.my_reports.insert(s) {
                self.deal_reports.entry(s).or_default().insert(ctx.me);
                ctx.broadcast(Msg::PackedReport(s as u32));
            }
        }
        if all_good {
            self.phase = Phase::Circuit;
            return;
        }
        if self
            .deal_reports
            .values()
            .any(|reporters| reporters.len() > ts)
        {
            self.fall_back_to_scalar(ctx);
        }
    }

    /// Abandons the packed engine for the scalar preprocessing path after a
    /// publicly-reported deal failure: clears all packed state, launches the
    /// triple ACS that packed mode skipped at `init`, and replays the triple
    /// ACS traffic buffered meanwhile. Every honest party takes this exit
    /// (the trigger is `t_s + 1` public reports, which reach everyone), so
    /// the late-started ACS has its full honest quorum. Reported dealers
    /// keep participating in the scalar path, where `Π_TripSh`'s supervised
    /// verification neutralises bad triples without trusting any dealer.
    fn fall_back_to_scalar(&mut self, ctx: &mut Context<'_, Msg>) {
        self.packed_fell_back = true;
        self.packing = 0;
        self.packed_width = 0;
        self.plan = None;
        self.pdomain = None;
        self.input_forms = Vec::new();
        self.triple_forms.clear();
        self.z_forms.clear();
        self.deal_buf.clear();
        self.values_opened_by_layer.clear();
        self.packed_layer = 0;
        self.packed_issued = false;
        self.phase = Phase::AwaitAcs;
        let polys = self.make_triple_polys(ctx);
        let mut acs2 = Acs::new(self.params, polys);
        ctx.scoped(SEG_ACS_TRIPLES, |ctx| acs2.init(ctx));
        for (from, path, msg) in std::mem::take(&mut self.acs2_buf) {
            ctx.scoped(SEG_ACS_TRIPLES, |ctx| {
                acs2.on_message(ctx, from, &path, msg)
            });
        }
        self.acs_triples = Some(acs2);
    }

    /// My share of the wire value `combo` positioned at `pos`, assembled
    /// locally from the basis forms (sharing is linear). A missing input
    /// form means the input's owner is outside `CS₁`: everyone substitutes
    /// the all-zero sharing (a valid sharing of `0` at every position).
    fn combo_share_at(&self, combo: &LinComb, pos: Pos) -> Fp {
        let mut acc = combo.constant;
        for (&elem, &coeff) in &combo.terms {
            let share = match (elem, pos) {
                (BasisElem::Input(j), Pos::Zero) => self.input_shares[j],
                (BasisElem::Input(j), _) => {
                    self.input_forms[j].get(&pos).copied().unwrap_or(Fp::ZERO)
                }
                (BasisElem::MulOut(g), _) => self.z_forms[&g][&pos],
            };
            acc += coeff * share;
        }
        acc
    }

    /// Packed circuit driver: one opening per layer, carrying one `[D, E]`
    /// pair per ℓ-gate block (all blocks share degree `t_s + ℓ − 1`, so the
    /// layer decodes as one batch). `D(x) = Σ_k L_k(x)·(X_k(x) − A_k(x))`
    /// over the slot Lagrange basis has degree `t_s + ℓ − 1` and carries `d_k = x_k − a_k` at slot
    /// point `e_k`; one robust opening therefore unpacks all `ℓ` masked
    /// differences at once. Outputs are re-positioned locally at degree
    /// `t_s` via the z-form identity, so the opened degree never compounds.
    fn drive_packed_circuit(&mut self, ctx: &mut Context<'_, Msg>) {
        let plan = self.plan.clone().expect("packed mode has a plan");
        let pdom = self.pdomain.clone().expect("packed mode has a domain");
        let ts = self.ts();
        let ell = plan.ell;
        let me = ctx.me;
        loop {
            if self.packed_layer >= plan.layers.len() {
                let share =
                    self.combo_share_at(&plan.wire_combos[self.circuit.output().0], Pos::Zero);
                self.phase = Phase::OpenOutput;
                self.openings.open(ctx, TAG_OUTPUT, vec![share]);
                return;
            }
            let blocks = &plan.layers[self.packed_layer];
            let tag = TAG_PACKED + self.packed_layer as u32;
            if !self.packed_issued {
                self.packed_issued = true;
                self.values_opened_by_layer.push(2 * blocks.len() as u64);
                let row = pdom.pack_row(me);
                let mut values = Vec::with_capacity(2 * blocks.len());
                for blk in blocks {
                    let (mut d_sh, mut e_sh) = (Fp::ZERO, Fp::ZERO);
                    for (k, &lk) in row.iter().enumerate() {
                        let (x, y) = match blk.slots[k] {
                            Some(g) => {
                                let Gate::Mul(a, b) = self.circuit.gates()[g] else {
                                    unreachable!("packed blocks only hold Mul gates")
                                };
                                (
                                    self.combo_share_at(&plan.wire_combos[a.0], Pos::Slot(k)),
                                    self.combo_share_at(&plan.wire_combos[b.0], Pos::Slot(k)),
                                )
                            }
                            // Padding slots multiply 0·0 under the dealt
                            // random triple, keeping the masks uniform.
                            None => (Fp::ZERO, Fp::ZERO),
                        };
                        let (fa, fb, _) = self.triple_forms[&(blk.index, k)][&Pos::Slot(k)];
                        d_sh += lk * (x - fa);
                        e_sh += lk * (y - fb);
                    }
                    values.extend([d_sh, e_sh]);
                }
                self.openings.open(ctx, tag, values);
            }
            let Some(opened) = self
                .openings
                .try_reconstruct_at(tag, 2 * blocks.len(), ts + ell - 1, ts, pdom.slots())
                .map(<[Fp]>::to_vec)
            else {
                return;
            };
            // Value-major: block `b` unpacks to `[d_0..d_ℓ, e_0..e_ℓ]`.
            for (blk, de) in blocks.iter().zip(opened.chunks_exact(2 * ell)) {
                for k in 0..ell {
                    let Some(g) = blk.slots[k] else { continue };
                    let (d, e) = (de[k], de[ell + k]);
                    let forms = self.triple_forms[&(blk.index, k)].clone();
                    let entry = self.z_forms.entry(g).or_default();
                    for (pos, (fa, fb, fc)) in forms {
                        entry.insert(pos, packed_z_form_share(d, e, fa, fb, fc));
                    }
                }
            }
            self.packed_layer += 1;
            self.packed_issued = false;
        }
    }

    fn issue_transform(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut values = Vec::new();
        for (dpos, batch, i) in self.transform_layout() {
            let (x, y) = self.dealer_xy_share(dpos, batch, alpha(i));
            let (d, e) = beaver_masked_shares(x, y, &self.raw_triple(dpos, batch, i));
            values.extend([d, e]);
        }
        self.openings.open(ctx, TAG_TRANSFORM, values);
    }

    fn drive_transform(&mut self, ctx: &mut Context<'_, Msg>) {
        let count = 2 * self.transform_layout().count();
        let Some(opened) = self.resolve_batch(TAG_TRANSFORM, count) else {
            return;
        };
        for ((dpos, batch, i), de) in self.transform_layout().zip(opened.chunks_exact(2)) {
            let z = beaver_output_share(de[0], de[1], &self.raw_triple(dpos, batch, i));
            self.z_high.insert((dpos, batch, i), z);
        }
        self.phase = Phase::VerifyBeaver;
        self.issue_verify(ctx);
    }

    fn issue_verify(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut values = Vec::new();
        for (dpos, batch, spos) in self.verify_layout() {
            let sup = self.supervisors[spos];
            let (x, y) = self.dealer_xy_share(dpos, batch, alpha(sup));
            let vt = self.verification_triple(sup, batch, self.dealers[dpos]);
            let (d, e) = beaver_masked_shares(x, y, &vt);
            values.extend([d, e]);
        }
        self.openings.open(ctx, TAG_VERIFY, values);
    }

    fn drive_verify(&mut self, ctx: &mut Context<'_, Msg>) {
        let count = 2 * self.verify_layout().count();
        let Some(opened) = self.resolve_batch(TAG_VERIFY, count) else {
            return;
        };
        // γ is a linear combination of t_s-shared values, hence itself
        // t_s-shared (the degree 2·t_s of Z(·) lives in the evaluation-point
        // variable, not the sharing polynomial).
        let gammas = self
            .verify_layout()
            .zip(opened.chunks_exact(2))
            .map(|((dpos, batch, spos), de)| {
                let sup = self.supervisors[spos];
                let vt = self.verification_triple(sup, batch, self.dealers[dpos]);
                let z_prime = beaver_output_share(de[0], de[1], &vt);
                self.dealer_z_share(dpos, batch, alpha(sup)) - z_prime
            })
            .collect();
        self.phase = Phase::Gamma;
        self.openings.open(ctx, TAG_GAMMA, gammas);
    }

    fn drive_gamma(&mut self, ctx: &mut Context<'_, Msg>) {
        let count = self.verify_layout().count();
        let Some(gammas) = self.resolve_batch(TAG_GAMMA, count) else {
            return;
        };
        // The suspect batch's layout: the checks whose (public, agreed) γ is
        // non-zero, in verify order, three values each.
        self.suspects = self
            .verify_layout()
            .zip(&gammas)
            .filter(|(_, g)| !g.is_zero())
            .map(|(slot, _)| slot)
            .collect();
        let mut values = Vec::with_capacity(3 * self.suspects.len());
        for &(dpos, batch, spos) in &self.suspects {
            let target = alpha(self.supervisors[spos]);
            let (x, y) = self.dealer_xy_share(dpos, batch, target);
            values.extend([x, y, self.dealer_z_share(dpos, batch, target)]);
        }
        self.phase = Phase::Suspect;
        self.openings.open(ctx, TAG_SUSPECT, values);
    }

    fn drive_suspect(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(opened) = self.resolve_batch(TAG_SUSPECT, 3 * self.suspects.len()) else {
            return;
        };
        for (&(dpos, batch, _), xyz) in self.suspects.iter().zip(opened.chunks_exact(3)) {
            if xyz[0] * xyz[1] != xyz[2] {
                self.flagged.insert((dpos, batch));
            }
        }
        // fix the per-dealer verified triples
        for dpos in 0..self.dealers.len() {
            for batch in 0..self.batches {
                let t = if self.flagged.contains(&(dpos, batch)) {
                    TripleShare::zero()
                } else {
                    let target = beta(self.params.n, 0);
                    let (x, y) = self.dealer_xy_share(dpos, batch, target);
                    let z = self.dealer_z_share(dpos, batch, target);
                    TripleShare::new(x, y, z)
                };
                self.verified.insert((dpos, batch), t);
            }
        }
        self.phase = Phase::Extract;
        self.issue_extract(ctx);
    }

    /// `X̂/Ŷ` shares of the extraction polynomials of `batch` at `target`
    /// (degree `d`, defined by the verified triples of the first `d + 1`
    /// dealer positions).
    fn ext_xy_share(&self, batch: usize, target: Fp) -> (Fp, Fp) {
        // One λ vector serves both component dot products.
        let lambda = self.domain.prefix_basis(self.d_ext + 1).lambda_at(target);
        let (mut a, mut b) = (Fp::ZERO, Fp::ZERO);
        for (p, &l) in lambda.iter().enumerate() {
            let triple = self.verified[&(p, batch)];
            a += l * triple.a;
            b += l * triple.b;
        }
        (a, b)
    }

    fn ext_z_share(&self, batch: usize, target: Fp) -> Fp {
        let basis = self.domain.prefix_basis(2 * self.d_ext + 1);
        let ys: Vec<Fp> = (0..2 * self.d_ext + 1)
            .map(|p| {
                if p <= self.d_ext {
                    self.verified[&(p, batch)].c
                } else {
                    self.ext_z[&(batch, p)]
                }
            })
            .collect();
        interpolate_share_with(&basis, &ys, target)
    }

    fn issue_extract(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut values = Vec::new();
        for (batch, p) in self.extract_layout() {
            let (x, y) = self.ext_xy_share(batch, alpha(p));
            let (d, e) = beaver_masked_shares(x, y, &self.verified[&(p, batch)]);
            values.extend([d, e]);
        }
        self.openings.open(ctx, TAG_EXTRACT, values);
    }

    fn drive_extract(&mut self, ctx: &mut Context<'_, Msg>) {
        let ts = self.ts();
        let count = 2 * self.extract_layout().count();
        let Some(opened) = self.resolve_batch(TAG_EXTRACT, count) else {
            return;
        };
        for ((batch, p), de) in self.extract_layout().zip(opened.chunks_exact(2)) {
            let z = beaver_output_share(de[0], de[1], &self.verified[&(p, batch)]);
            self.ext_z.insert((batch, p), z);
        }
        // extract d + 1 - t_s fresh triples per batch
        for batch in 0..self.batches {
            for j in 0..(self.d_ext + 1 - ts) {
                let target = beta(self.params.n, j);
                let (x, y) = self.ext_xy_share(batch, target);
                let z = self.ext_z_share(batch, target);
                self.pool.push(TripleShare::new(x, y, z));
            }
        }
        assert!(
            self.circuit.mult_count() <= self.pool.len(),
            "triple pool must cover every multiplication gate"
        );
        self.phase = Phase::Circuit;
        self.drive_circuit(ctx);
    }

    /// My share of gate `g`'s output if it is computable locally from the
    /// wires resolved so far (`None` for multiplications: they resolve
    /// through an opening).
    fn local_gate_share(&self, g: usize) -> Option<Fp> {
        let wire = |w: Wire| self.wire_shares[w.0];
        match self.circuit.gates()[g] {
            Gate::Input(i) => Some(self.input_shares[i]),
            Gate::Constant(c) => Some(c),
            Gate::Add(a, b) => Some(wire(a)? + wire(b)?),
            Gate::Sub(a, b) => Some(wire(a)? - wire(b)?),
            Gate::MulConst(a, c) => Some(wire(a)? * c),
            Gate::AddConst(a, c) => Some(wire(a)? + c),
            Gate::Mul(_, _) => None,
        }
    }

    /// One topological pass filling every wire computable from inputs,
    /// constants, linear gates and already-resolved multiplications. Gates
    /// are stored in topological order, so a single pass resolves the entire
    /// linear region exposed by the multiplication layers opened so far.
    fn propagate_linear(&mut self) {
        for g in 0..self.circuit.gates().len() {
            if self.wire_shares[g].is_none() {
                self.wire_shares[g] = self.local_gate_share(g);
            }
        }
    }

    /// Layer-batched shared evaluation (the default): a single pass over the
    /// multiplication layers, opening **one** `2·L` batch of Beaver maskings
    /// per layer — `D_M` openings total instead of `c_M`, with the OEC
    /// interpolate-and-verify basis shared across the whole layer
    /// (`rs::oec_decode_batch` inside the opening manager).
    fn drive_circuit(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.per_gate_openings {
            self.drive_circuit_per_gate(ctx);
            return;
        }
        let ts = self.ts();
        loop {
            self.propagate_linear();
            if let Some(share) = self.wire_shares[self.circuit.output().0] {
                self.phase = Phase::OpenOutput;
                self.openings.open(ctx, TAG_OUTPUT, vec![share]);
                return;
            }
            if self.next_mul_layer >= self.mul_layers.len() {
                return;
            }
            let tag = TAG_CIRCUIT + self.next_mul_layer as u32;
            let gates = &self.mul_layers[self.next_mul_layer];
            if !self.layer_issued {
                self.layer_issued = true;
                self.values_opened_by_layer.push(2 * gates.len() as u64);
                // Every input of a layer-(l+1) multiplication depends only on
                // multiplications of layers ≤ l, so after the propagation
                // pass all of them are resolved and the whole layer's
                // maskings go out as one batch.
                let mut values = Vec::with_capacity(2 * gates.len());
                for &g in gates {
                    let Gate::Mul(a, b) = self.circuit.gates()[g] else {
                        unreachable!("mul_layers only contains Mul gates")
                    };
                    let x = self.wire_shares[a.0].expect("earlier layers resolved");
                    let y = self.wire_shares[b.0].expect("earlier layers resolved");
                    let triple = self.pool[self.gate_triple[g]];
                    let (d, e) = beaver_masked_shares(x, y, &triple);
                    values.push(d);
                    values.push(e);
                }
                self.openings.open(ctx, tag, values);
            }
            let Some(de) = self
                .openings
                .try_reconstruct(tag, 2 * gates.len(), ts, ts)
                .map(<[Fp]>::to_vec)
            else {
                return;
            };
            for (i, &g) in self.mul_layers[self.next_mul_layer].iter().enumerate() {
                let triple = self.pool[self.gate_triple[g]];
                self.wire_shares[g] = Some(beaver_output_share(de[2 * i], de[2 * i + 1], &triple));
            }
            self.next_mul_layer += 1;
            self.layer_issued = false;
        }
    }

    /// Per-gate reference path: the pre-batching behaviour (one opening per
    /// multiplication gate, issued as the gate's inputs resolve), kept for
    /// equivalence tests and as the e12 benchmark baseline.
    fn drive_circuit_per_gate(&mut self, ctx: &mut Context<'_, Msg>) {
        let ts = self.ts();
        let mut progress = true;
        while progress {
            progress = false;
            for g in 0..self.circuit.gates().len() {
                if self.wire_shares[g].is_some() {
                    continue;
                }
                let value = match self.circuit.gates()[g] {
                    Gate::Mul(a, b) => {
                        let (Some(x), Some(y)) = (self.wire_shares[a.0], self.wire_shares[b.0])
                        else {
                            continue;
                        };
                        let triple = self.pool[self.gate_triple[g]];
                        let tag = TAG_CIRCUIT + g as u32;
                        if !self.mul_opened[g] {
                            self.mul_opened[g] = true;
                            let (d, e) = beaver_masked_shares(x, y, &triple);
                            self.openings.open(ctx, tag, vec![d, e]);
                        }
                        self.openings
                            .try_reconstruct(tag, 2, ts, ts)
                            .map(|de| beaver_output_share(de[0], de[1], &triple))
                    }
                    _ => self.local_gate_share(g),
                };
                if let Some(v) = value {
                    self.wire_shares[g] = Some(v);
                    progress = true;
                }
            }
        }
        if let Some(share) = self.wire_shares[self.circuit.output().0] {
            self.phase = Phase::OpenOutput;
            self.openings.open(ctx, TAG_OUTPUT, vec![share]);
        }
    }

    fn drive_open_output(&mut self, ctx: &mut Context<'_, Msg>) {
        let ts = self.ts();
        let Some(&[y]) = self.openings.try_reconstruct(TAG_OUTPUT, 1, ts, ts) else {
            return;
        };
        self.phase = Phase::Ready;
        if !self.sent_ready {
            self.sent_ready = true;
            ctx.broadcast(Msg::Ready(vec![y]));
        }
        self.drive_ready(ctx);
    }

    fn drive_ready(&mut self, ctx: &mut Context<'_, Msg>) {
        let ts = self.ts();
        // Decide on a borrowed view (no per-call clone of the vote map),
        // then act: at most one echo and one decision can fire per call.
        let mut echo = None;
        let mut decide = None;
        for (&y, senders) in &self.ready_counts {
            if echo.is_none() && senders.len() > ts {
                echo = Some(y);
            }
            if decide.is_none() && senders.len() > 2 * ts {
                decide = Some(y);
            }
        }
        if let Some(y) = echo {
            if !self.sent_ready {
                self.sent_ready = true;
                ctx.broadcast(Msg::Ready(vec![y]));
            }
        }
        if let Some(y) = decide {
            if self.output.is_none() {
                self.output = Some(y);
                self.output_at = Some(ctx.now);
                self.phase = Phase::Done;
            }
        }
    }
}

impl Protocol<Msg> for CirEval {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let ts = self.ts();
        // ACS #1: share my input
        let input_poly = Polynomial::random_with_constant_term(ctx.rng(), ts, self.my_input);
        let mut acs1 = Acs::new(self.params, vec![input_poly]);
        ctx.scoped(SEG_ACS_INPUT, |ctx| acs1.init(ctx));
        self.acs_input = Some(acs1);
        // Packed mode: triples are dealt point-to-point after CS₁ is known —
        // no second ACS instance at all.
        if self.packing > 0 {
            return;
        }
        // ACS #2: share my raw triples and verification triples
        let polys = self.make_triple_polys(ctx);
        let mut acs2 = Acs::new(self.params, polys);
        ctx.scoped(SEG_ACS_TRIPLES, |ctx| acs2.init(ctx));
        self.acs_triples = Some(acs2);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        match path.first() {
            Some(&SEG_ACS_INPUT) => {
                if let Some(acs) = self.acs_input.as_mut() {
                    ctx.scoped(SEG_ACS_INPUT, |ctx| {
                        acs.on_message(ctx, from, &path[1..], msg)
                    });
                }
            }
            Some(&SEG_ACS_TRIPLES) => {
                if let Some(acs) = self.acs_triples.as_mut() {
                    ctx.scoped(SEG_ACS_TRIPLES, |ctx| {
                        acs.on_message(ctx, from, &path[1..], msg)
                    });
                } else if self.packing > 0 {
                    // Packed mode has no triple ACS (yet): keep the traffic
                    // for the scalar fallback, which launches ACS #2 late.
                    self.acs2_buf.push((from, path[1..].to_vec(), msg));
                }
            }
            None => match msg {
                // Anything outside the run's legal tag set is dropped unread.
                Msg::Open { tag, values } if from < self.params.n && self.legal_open_tag(tag) => {
                    self.openings.on_open(from, tag, values);
                }
                // Buffered raw until CS₁ fixes the expected layout; parsed
                // by `drive_packed_deal`. First payload per sender wins
                // (honest dealers send exactly one).
                Msg::PackedDeal(values) if self.packing > 0 => {
                    self.deal_buf.entry(from).or_insert(values);
                }
                // Cumulative public evidence against a packed dealer;
                // weighed by `drive_packed_deal`.
                Msg::PackedReport(dealer) if (dealer as usize) < self.params.n => {
                    self.deal_reports
                        .entry(dealer as usize)
                        .or_default()
                        .insert(from);
                }
                Msg::Ready(values) => {
                    if let Some(&y) = values.first() {
                        self.ready_counts.entry(y).or_default().insert(from);
                    }
                }
                _ => {}
            },
            _ => {}
        }
        self.drive(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        match path.first() {
            Some(&SEG_ACS_INPUT) => {
                if let Some(acs) = self.acs_input.as_mut() {
                    ctx.scoped(SEG_ACS_INPUT, |ctx| acs.on_timer(ctx, &path[1..], id));
                }
            }
            Some(&SEG_ACS_TRIPLES) => {
                if let Some(acs) = self.acs_triples.as_mut() {
                    ctx.scoped(SEG_ACS_TRIPLES, |ctx| acs.on_timer(ctx, &path[1..], id));
                }
            }
            // Root-path timer: the packed-deal deadline (sticky — harmless
            // if the phase already completed).
            None if id == TIMER_PACKED_DEAL => {
                self.deal_deadline = true;
            }
            _ => {}
        }
        self.drive(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CirEval>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_net::{
        Backend, CorruptionSet, LinkDelays, NetConfig, PartyView, Scheduler, Simulation,
        ThreadedNet, Transport,
    };

    /// Drives a circuit evaluation through the [`Transport`] abstraction; the
    /// backend follows `MPC_TRANSPORT` so the whole module doubles as a
    /// threaded-runtime exercise under `MPC_TRANSPORT=threaded`.
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
        let mut scheduler: Box<dyn Scheduler> = match cfg.kind {
            mpc_net::NetworkKind::Synchronous => Box::new(mpc_net::FixedDelay(cfg.delta)),
            mpc_net::NetworkKind::Asynchronous => Box::new(mpc_net::UniformDelay {
                min: 1,
                max: cfg.delta * 5,
            }),
        };
        let mut net: Box<dyn Transport<Msg>> = match Backend::from_env() {
            Backend::Simulator => Box::new(Simulation::with_scheduler(
                cfg.clone(),
                corrupt.clone(),
                scheduler,
                parties,
            )),
            Backend::Threaded => {
                let links = LinkDelays::sampled_from(cfg.n, cfg.seed, scheduler.as_mut());
                Box::new(ThreadedNet::with_links(
                    cfg,
                    corrupt.clone(),
                    links,
                    parties,
                ))
            }
            Backend::Tcp => {
                let links = LinkDelays::sampled_from(cfg.n, cfg.seed, scheduler.as_mut());
                Box::new(mpc_net::TcpNet::with_links(
                    cfg,
                    corrupt.clone(),
                    links,
                    parties,
                ))
            }
        };
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let done = net.run_until_done(horizon, &mut |view| {
            (0..params.n).filter(|&i| corrupt.is_honest(i)).all(|i| {
                mpc_net::party_as::<CirEval, Msg>(view, i)
                    .unwrap()
                    .output
                    .is_some()
            })
        });
        assert!(done, "circuit evaluation did not finish before the horizon");
        let view: &dyn PartyView<Msg> = net.as_ref();
        let outs = (0..params.n)
            .map(|i| mpc_net::party_as::<CirEval, Msg>(view, i).unwrap().output)
            .collect();
        (outs, view.now())
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
        assert_eq!(p.packed_width, 4);
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
        let circuit = Circuit::product_of_inputs(5);
        let inputs = [3u64, 5, 7, 2, 4];
        for jitter_seed in [None, Some(61), Some(73), Some(81)] {
            let parties: Vec<Box<dyn Protocol<Msg>>> = inputs
                .iter()
                .map(|&x| {
                    let mut p = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                    p.set_packing(2);
                    Box::new(p) as Box<dyn Protocol<Msg>>
                })
                .collect();
            let corrupt = CorruptionSet::new(vec![4]);
            let cfg = NetConfig::synchronous(params.n).with_seed(jitter_seed.unwrap_or(71));
            let mut sim = match jitter_seed {
                None => Simulation::new(cfg, corrupt, parties),
                Some(_) => {
                    let jitter = mpc_net::UniformDelay { min: 1, max: 10 };
                    Simulation::with_scheduler(cfg, corrupt, Box::new(jitter), parties)
                }
            };
            sim.set_strategy(Box::new(GarblePackedDeals));
            let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
            let done = sim.run_until(horizon, |s| {
                (0..4).all(|i| s.party_as::<CirEval>(i).unwrap().output.is_some())
            });
            assert!(done, "{jitter_seed:?}: honest parties must terminate");
            for i in 0..4 {
                let p = sim.party_as::<CirEval>(i).unwrap();
                assert_eq!(p.output.unwrap().as_u64(), 3 * 5 * 7 * 2 * 4);
                assert!(p.packed_fell_back, "party {i} must have fallen back");
                assert_eq!(p.packed_width, 0);
                assert!(p.input_subset.as_ref().unwrap().contains(&4));
            }
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
                    p.deal_bad_triples = i == 0;
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
                let dpos = p.dealers.iter().position(|&d| d == 0).expect("0 deals");
                assert_eq!(p.batches, 2);
                let checks: Vec<_> = p.verify_layout().filter(|s| s.0 == dpos).collect();
                assert_eq!(checks.len(), 2 * p.supervisors.len());
                assert_eq!(
                    p.suspects, checks,
                    "n={n} i={i}: every check of 0, no other"
                );
                let flagged: HashSet<_> = [(dpos, 0), (dpos, 1)].into();
                assert_eq!(p.flagged, flagged, "n={n} i={i}");
            }
        }
    }

    /// A corrupt party whose only traffic is a flood of `Open`s: tags no
    /// run can use, and one wrong-length batch under a legal tag.
    #[derive(Debug)]
    struct FloodOpens;

    impl Protocol<Msg> for FloodOpens {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            let junk = |tag| Msg::Open {
                tag,
                values: vec![Fp::ONE],
            };
            for i in 0..200 {
                ctx.broadcast(junk(TAG_TRANSFORM + 1 + i)); // phase tags have no index
                ctx.broadcast(junk(TAG_CIRCUIT + 1 + i)); // D_M = 1 layer
                ctx.broadcast(junk(TAG_PACKED + 1 + i));
                ctx.broadcast(junk(TAG_PROBE + 4 + i)); // n = 4 dealers
                ctx.broadcast(junk((10 << 28) + i)); // no such tag space
                ctx.broadcast(junk(i)); // below the first tag space
            }
            ctx.broadcast(junk(TAG_VERIFY)); // legal tag, wrong length
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

    /// Counts the root-path `Open`s delivered to one honest party.
    #[derive(Debug)]
    struct CountOpens {
        inner: CirEval,
        opens: usize,
    }

    impl Protocol<Msg> for CountOpens {
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
            if path.is_empty() && matches!(msg, Msg::Open { .. }) {
                self.opens += 1;
            }
            self.inner.on_message(ctx, from, path, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
            self.inner.on_timer(ctx, path, id);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Total `Open` deliveries of an honest synchronous run at n = 4.
    fn opens_delivered(circuit: &Circuit) -> usize {
        let params = Params::new(4, 1, 0, 10);
        let parties = [3u64, 5, 7, 11]
            .iter()
            .map(|&x| {
                let inner = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
                Box::new(CountOpens { inner, opens: 0 }) as Box<dyn Protocol<Msg>>
            })
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
}
