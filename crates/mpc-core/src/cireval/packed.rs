//! The packed (Franklin–Yung SIMD) engine: after ACS #1, each member of
//! `CS₁` deals slot-positioned sharings point to point instead of running
//! ACS #2 and the transform/verify/extract pipeline, and every
//! multiplication layer opens one `[D, E]` pair per `ℓ`-gate block. A deal
//! that fails its public degree probe is reported, and `t_s + 1` reports
//! send every party back to the scalar pipeline together.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use mpc_algebra::{shamir, Fp, PackedDomain};
use mpc_net::{Context, PartyId};
use mpc_protocols::tree::{Event, Name, Routed};
use mpc_protocols::{Msg, Params};

use super::{Io, Wave};
use crate::circuit::{Circuit, Gate};
use crate::packing::{point, BasisElem, LinComb, PackedPlan, Pos};
use crate::triples::packed_z_form_share;

/// Root-path timer id: the packed-deal phase deadline, after which dealers
/// still unresolved at this party are publicly reported
/// ([`Msg::PackedReport`]).
const DEADLINE: u64 = 0x50_44_4c;

/// One party's shares of a block-slot triple `(a, b, c)`, per dealt position.
type TripleForms = BTreeMap<Pos, (Fp, Fp, Fp)>;

/// Where the packed-deal phase stands.
pub(super) enum Deals {
    /// Some assigned dealer is not yet good.
    Pending,
    /// Every assigned dealer's deal parsed and passed its probe.
    Good,
    /// More than `t_s` parties publicly reported one dealer.
    Failed,
}

/// The packed engine's state, from [`super::CirEval::set_packing`] until the
/// run ends or falls back to the scalar pipeline.
#[derive(Debug)]
pub(super) struct Packed {
    params: Params,
    plan: PackedPlan,
    domain: Arc<PackedDomain>,
    /// `CS₁`, sorted: the canonical order behind dealer assignment and the
    /// deal payload layout. Empty until ACS #1 is ready.
    cs1: Vec<PartyId>,
    /// Raw `PackedDeal` payloads buffered until `CS₁` fixes their layout;
    /// the first per sender wins (honest dealers send exactly one).
    buffered: BTreeMap<PartyId, Vec<Fp>>,
    /// Per sender whose deal arrived: whether it parsed (`false`: it had
    /// the wrong length).
    parsed: BTreeMap<PartyId, bool>,
    /// Whether the deadline ([`DEADLINE`]) has fired; from then on
    /// unresolved dealers are publicly reported.
    deadline: bool,
    /// Distinct reporters per accused dealer, this party included once it
    /// reports. `t_s + 1` of them, at least one honest, are public proof of
    /// a deal failure.
    reports: BTreeMap<PartyId, HashSet<PartyId>>,
    /// Triple-ACS traffic, replayed if the scalar fallback launches ACS #2:
    /// each sender's messages, and (`Err(k)`) its late `OK`s about party
    /// `k` that the root's channel delivered, once, to a board of ACS #2.
    pub(super) acs2: Vec<(PartyId, Vec<u32>, Result<Msg, PartyId>)>,
    /// My slot-positioned shares of party `j`'s input, by position.
    input_forms: Vec<BTreeMap<Pos, Fp>>,
    /// My shares of block/slot triples, at `block · ℓ + slot`.
    triple_forms: Vec<TripleForms>,
    /// My shares of resolved multiplication outputs, by gate.
    z_forms: Vec<BTreeMap<Pos, Fp>>,
    /// Next unresolved multiplication layer, and whether its `[D, E]`
    /// openings went out.
    layer: usize,
    issued: bool,
}

/// Appends each party's share of `v`, positioned at `pos`, to its payload.
fn push_sharing(payloads: &mut [Vec<Fp>], ctx: &mut Context<'_, Msg>, v: Fp, pos: Pos, ts: usize) {
    let sharing = shamir::share_at(ctx.rng(), v, point(pos), ts, payloads.len());
    for (payload, &share) in payloads.iter_mut().zip(&sharing.shares) {
        payload.push(share);
    }
}

/// The `j`-th public probe coefficient for `dealer`'s deal: 64 ideal common
/// coins (DESIGN.md substitution S1) assembled into one field element.
/// Every party derives the same coefficients at the root path, and in the
/// ideal-coin model the dealer cannot anticipate them when dealing, so a
/// garbled element survives the probe combination only with probability
/// `~2⁻⁶⁴`.
fn probe_coeff(ctx: &Context<'_, Msg>, dealer: PartyId, j: usize) -> Fp {
    let mut bits = 0u64;
    for bit in 0..64u64 {
        let round = ((dealer as u64) << 40) ^ ((j as u64) << 8) ^ bit;
        if ctx.common_coin(round) {
            bits |= 1 << bit;
        }
    }
    Fp::from_u64(bits)
}

impl Packed {
    pub(super) fn new(params: Params, circuit: &Circuit, ell: usize) -> Self {
        let plan = PackedPlan::new(circuit, ell);
        Packed {
            params,
            domain: PackedDomain::get(params.n, ell),
            cs1: Vec::new(),
            buffered: BTreeMap::new(),
            parsed: BTreeMap::new(),
            deadline: false,
            reports: BTreeMap::new(),
            acs2: Vec::new(),
            input_forms: vec![BTreeMap::new(); params.n],
            triple_forms: vec![BTreeMap::new(); plan.n_blocks * ell],
            z_forms: vec![BTreeMap::new(); circuit.gates().len()],
            layer: 0,
            issued: false,
            plan,
        }
    }

    /// Takes the packed engine's traffic: buffers a deal, counts a report
    /// against a dealer, notes the deadline, and keeps the triple-ACS
    /// traffic and late votes for the scalar fallback, which launches ACS #2
    /// late.
    pub(super) fn on_routed(&mut self, routed: Routed<'_, '_>) {
        match routed {
            Routed::Own(Event::Message(from, Msg::PackedDeal(values))) => {
                self.buffered.entry(from).or_insert_with(|| values.clone());
            }
            Routed::Own(Event::Message(from, Msg::PackedReport(dealer)))
                if (*dealer as usize) < self.params.n =>
            {
                self.reports
                    .entry(*dealer as usize)
                    .or_default()
                    .insert(from);
            }
            // Sticky: harmless if the phase already completed.
            Routed::Own(Event::Timer(DEADLINE)) => self.deadline = true,
            Routed::Absent(Name::AcsTriples, below, Event::Message(from, msg)) => {
                self.acs2.push((from, below.to_vec(), Ok(msg.clone())));
            }
            Routed::Absent(Name::AcsTriples, below, Event::LateOk(j, k)) => {
                self.acs2.push((j, below.to_vec(), Err(k)));
            }
            _ => {}
        }
    }

    /// Enters the deal phase once `CS₁` (ascending, as `Π_ACS` builds it) is
    /// known: arms the deadline, then deals this party's slot-positioned
    /// sharings. These are its input at every consumed slot position
    /// (members of `CS₁` only) and one fresh triple `(a, b, c = a·b)` per
    /// slot of each assigned block, shared at *every* position of that
    /// slot's position set. One `(a, b, c)` is drawn per slot and re-shared
    /// per position: the positions must carry the same secrets for the
    /// z-form identity ([`packed_z_form_share`]) to hold.
    pub(super) fn deal(&mut self, io: &mut Io<'_, '_>, cs1: Vec<PartyId>, my_input: Fp) {
        self.cs1 = cs1;
        // `T_ACS` is generous (deals and probes need two message hops), so
        // in honest runs, synchronous or not, the phase completes long
        // before the timer fires.
        io.ctx.set_timer(self.params.t_acs(), DEADLINE);
        let (me, ts) = (io.ctx.me, self.params.ts);
        let mut payloads: Vec<Vec<Fp>> = vec![Vec::new(); self.params.n];
        if self.cs1.contains(&me) {
            for &pos in &self.plan.input_positions[me] {
                push_sharing(&mut payloads, io.ctx, my_input, pos, ts);
            }
        }
        for blk in self.plan.blocks_of(me, &self.cs1) {
            for positions in &self.plan.positions[blk] {
                let a = Fp::random(io.ctx.rng());
                let b = Fp::random(io.ctx.rng());
                for &pos in positions {
                    for v in [a, b, a * b] {
                        push_sharing(&mut payloads, io.ctx, v, pos, ts);
                    }
                }
            }
        }
        // One trailing blinding-mask share per non-empty deal: folded into
        // the public degree probe (`parse`) so the opened probe value is
        // uniformly random and leaks nothing about the dealt secrets.
        if !payloads[me].is_empty() {
            let mask = Fp::random(io.ctx.rng());
            push_sharing(&mut payloads, io.ctx, mask, Pos::Zero, ts);
        }
        let mine = std::mem::take(&mut payloads[me]);
        self.parse(io, me, mine);
        for (i, payload) in payloads.into_iter().enumerate() {
            if i != me && !payload.is_empty() {
                io.ctx.send(i, Msg::PackedDeal(payload));
            }
        }
    }

    /// Parses one sender's deal against the canonical layout. A payload
    /// whose length does not match [`PackedPlan::expected_deal_len`] is
    /// rejected. A shape-valid payload triggers this party's public degree
    /// probe: the common-coin combination of every dealt share plus the
    /// trailing mask share, opened under `Probe[dealer]`. For an honest
    /// dealer every element is a point of a degree-`t_s` polynomial, so the
    /// probe reconstructs at degree `t_s` everywhere; an inconsistent deal
    /// leaves it undecodable (whp over the coins), which
    /// [`Packed::check_deals`] turns into a public report after the deadline.
    fn parse(&mut self, io: &mut Io<'_, '_>, from: PartyId, values: Vec<Fp>) {
        let valid = values.len() == self.plan.expected_deal_len(from, &self.cs1);
        self.parsed.insert(from, valid);
        // An empty deal has nothing to deal (outside CS₁, no blocks).
        let Some((&mask, dealt)) = values.split_last().filter(|_| valid) else {
            return;
        };
        let mut probe = mask;
        for (j, &v) in dealt.iter().enumerate() {
            probe += probe_coeff(io.ctx, from, j) * v;
        }
        io.open(Wave::Probe, from, vec![probe]);
        let mut rest = dealt;
        if self.cs1.contains(&from) {
            let positions = &self.plan.input_positions[from];
            let (inputs, tail) = rest.split_at(positions.len());
            self.input_forms[from].extend(positions.iter().copied().zip(inputs.iter().copied()));
            rest = tail;
        }
        let ell = self.plan.ell;
        for blk in self.plan.blocks_of(from, &self.cs1) {
            for (k, positions) in self.plan.positions[blk].iter().enumerate() {
                let (triples, tail) = rest.split_at(3 * positions.len());
                let forms = positions.iter().zip(triples.chunks_exact(3));
                self.triple_forms[blk * ell + k]
                    .extend(forms.map(|(&pos, t)| (pos, (t[0], t[1], t[2]))));
                rest = tail;
            }
        }
    }

    /// Parses the buffered deals and reports whether every assigned dealer
    /// is *good*: its deal parsed shape-valid **and** its public degree probe
    /// reconstructed at degree `t_s`. After the deadline this party reports
    /// every dealer still unresolved.
    pub(super) fn check_deals(&mut self, io: &mut Io<'_, '_>) -> Deals {
        for (from, values) in std::mem::take(&mut self.buffered) {
            if !self.parsed.contains_key(&from) {
                self.parse(io, from, values);
            }
        }
        let ts = self.params.ts;
        let mut all_good = true;
        for s in 0..self.params.n {
            if self.plan.expected_deal_len(s, &self.cs1) == 0 {
                continue;
            }
            if self.parsed.get(&s) == Some(&true) && io.opened(Wave::Probe, s, 1).is_some() {
                continue;
            }
            all_good = false;
            if self.deadline && self.reports.entry(s).or_default().insert(io.ctx.me) {
                io.ctx.broadcast(Msg::PackedReport(s as u32));
            }
        }
        if all_good {
            Deals::Good
        } else if self.reports.values().any(|reporters| reporters.len() > ts) {
            Deals::Failed
        } else {
            Deals::Pending
        }
    }

    /// My share of the wire value `combo` positioned at `pos`, assembled
    /// locally from the basis forms (sharing is linear). A missing input
    /// form means the input's owner is outside `CS₁`: everyone substitutes
    /// the all-zero sharing (a valid sharing of `0` at every position).
    fn combo_share_at(&self, combo: &LinComb, pos: Pos, inputs: &[Fp]) -> Fp {
        let mut acc = combo.constant;
        for (&elem, &coeff) in &combo.terms {
            let share = match (elem, pos) {
                (BasisElem::Input(j), Pos::Zero) => inputs[j],
                (BasisElem::Input(j), _) => {
                    self.input_forms[j].get(&pos).copied().unwrap_or(Fp::ZERO)
                }
                (BasisElem::MulOut(g), _) => self.z_forms[g][&pos],
            };
            acc += coeff * share;
        }
        acc
    }

    /// The packed circuit driver: one opening per layer, carrying one
    /// `[D, E]` pair per block (all blocks share degree `t_s + ℓ − 1`, so
    /// the layer decodes as one batch). `D(x) = Σ_k L_k(x)·(X_k(x) − A_k(x))`
    /// over the slot Lagrange basis carries `d_k = x_k − a_k` at slot point
    /// `e_k`, so one robust opening unpacks all `ℓ` masked differences.
    /// Outputs are re-positioned locally at degree `t_s` via the z-form
    /// identity, so the opened degree never compounds. Returns my share of
    /// the output wire once every layer is resolved.
    pub(super) fn evaluate(
        &mut self,
        io: &mut Io<'_, '_>,
        circuit: &Circuit,
        inputs: &[Fp],
        opened_by_layer: &mut Vec<u64>,
    ) -> Option<Fp> {
        let (ts, ell) = (self.params.ts, self.plan.ell);
        loop {
            let Some(blocks) = self.plan.layers.get(self.layer) else {
                let output = &self.plan.wire_combos[circuit.output()?.0];
                return Some(self.combo_share_at(output, Pos::Zero, inputs));
            };
            let tag = Wave::Packed.tag(self.layer);
            if !self.issued {
                self.issued = true;
                opened_by_layer.push(2 * blocks.len() as u64);
                let row = self.domain.pack_row(io.ctx.me);
                let mut values = Vec::with_capacity(2 * blocks.len());
                for blk in blocks {
                    let (mut d_sh, mut e_sh) = (Fp::ZERO, Fp::ZERO);
                    for (k, &lk) in row.iter().enumerate() {
                        let slot = Pos::Slot(k);
                        let (x, y) = match blk.slots[k].map(|g| circuit.gates()[g]) {
                            Some(Gate::Mul(a, b)) => (
                                self.combo_share_at(&self.plan.wire_combos[a.0], slot, inputs),
                                self.combo_share_at(&self.plan.wire_combos[b.0], slot, inputs),
                            ),
                            // Padding slots multiply 0·0 under the dealt
                            // random triple, keeping the masks uniform.
                            _ => (Fp::ZERO, Fp::ZERO),
                        };
                        let (fa, fb, _) = self.triple_forms[blk.index * ell + k][&slot];
                        d_sh += lk * (x - fa);
                        e_sh += lk * (y - fb);
                    }
                    values.extend([d_sh, e_sh]);
                }
                io.open(Wave::Packed, self.layer, values);
            }
            let slots = self.domain.slots();
            let opened =
                io.openings
                    .try_reconstruct_at(tag, 2 * blocks.len(), ts + ell - 1, ts, slots)?;
            // Value-major: block `b` unpacks to `[d_0..d_ℓ, e_0..e_ℓ]`.
            for (blk, de) in blocks.iter().zip(opened.chunks_exact(2 * ell)) {
                for k in 0..ell {
                    let Some(g) = blk.slots[k] else { continue };
                    let (d, e) = (de[k], de[ell + k]);
                    let forms = &self.triple_forms[blk.index * ell + k];
                    for (&pos, &(fa, fb, fc)) in forms {
                        self.z_forms[g].insert(pos, packed_z_form_share(d, e, fa, fb, fc));
                    }
                }
            }
            self.layer += 1;
            self.issued = false;
        }
    }
}
