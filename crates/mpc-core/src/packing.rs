//! Static packed-evaluation plan: how a circuit maps onto width-`ℓ` SIMD
//! gate blocks.
//!
//! The packed engine ([`crate::CirEval`] with `MpcBuilder::packing ≥ 1`)
//! evaluates each multiplication layer of [`Circuit::layers`] in blocks of
//! `ℓ` gates sharing one Beaver opening. Everything the parties must agree
//! on *before* any message flows — which gate sits in which slot, which
//! slot-positioned sharings each value needs, and how a dealer's
//! [`mpc_protocols::Msg::PackedDeal`] payload is laid out — is derived
//! deterministically from the circuit alone by [`PackedPlan::new`], so the
//! plan never travels on the wire.
//!
//! The key structure is the affine *wire decomposition*: every wire of an
//! arithmetic circuit is an affine combination of a small basis — the input
//! wires and the multiplication-gate outputs ([`BasisElem`]) — because all
//! other gates are linear. The packed engine therefore only needs
//! slot-positioned sharings of basis values: a wire's share *at any
//! position* is the same affine combination of the basis shares at that
//! position ([`LinComb`]), computed locally.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mpc_algebra::evaluation_points::slot;
use mpc_algebra::Fp;
use mpc_net::PartyId;

use crate::circuit::{Circuit, Gate};

/// A position at which a slot-form sharing of a basis value is needed.
///
/// The `Ord` derive fixes the canonical order of every position list (and
/// hence of the [`mpc_protocols::Msg::PackedDeal`] payload layout): slot
/// positions first, ascending, then the standard secret position `0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pos {
    /// The secret-slot point `e_k` ([`slot`]): needed when the value feeds
    /// slot `k` of some multiplication block (or occupies it).
    Slot(usize),
    /// The standard secret position `x = 0`: needed when the value is in the
    /// affine cone of the circuit output.
    Zero,
}

/// The field point a [`Pos`] denotes.
pub fn point(pos: Pos) -> Fp {
    match pos {
        Pos::Slot(k) => slot(k),
        Pos::Zero => Fp::ZERO,
    }
}

/// Basis element of the affine wire decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BasisElem {
    /// The input wire of party `j`.
    Input(usize),
    /// The output of the multiplication gate with this gate index.
    MulOut(usize),
}

/// An affine combination `constant + Σ coeff · basis` over [`BasisElem`]s.
///
/// Zero coefficients are never stored, so iteration over `terms` visits
/// exactly the basis values the wire actually depends on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinComb {
    /// Basis coefficients (deterministic iteration order).
    pub terms: BTreeMap<BasisElem, Fp>,
    /// The affine constant.
    pub constant: Fp,
}

impl LinComb {
    /// The combination `1 · elem`.
    pub fn basis(elem: BasisElem) -> Self {
        LinComb {
            terms: BTreeMap::from([(elem, Fp::ONE)]),
            constant: Fp::ZERO,
        }
    }

    /// The constant combination.
    pub fn constant(c: Fp) -> Self {
        LinComb {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    fn merge(&self, other: &LinComb, sign: Fp) -> LinComb {
        let mut out = self.clone();
        out.constant += sign * other.constant;
        for (&elem, &c) in &other.terms {
            let entry = out.terms.entry(elem).or_insert(Fp::ZERO);
            *entry += sign * c;
            if entry.is_zero() {
                out.terms.remove(&elem);
            }
        }
        out
    }

    /// `self + other`.
    pub fn add(&self, other: &LinComb) -> LinComb {
        self.merge(other, Fp::ONE)
    }

    /// `self − other`.
    pub fn sub(&self, other: &LinComb) -> LinComb {
        self.merge(other, -Fp::ONE)
    }

    /// `c · self`.
    pub fn scale(&self, c: Fp) -> LinComb {
        if c.is_zero() {
            return LinComb::default();
        }
        LinComb {
            terms: self.terms.iter().map(|(&e, &v)| (e, c * v)).collect(),
            constant: c * self.constant,
        }
    }

    /// `self + c`.
    pub fn add_const(&self, c: Fp) -> LinComb {
        let mut out = self.clone();
        out.constant += c;
        out
    }
}

/// One width-`ℓ` SIMD block of a multiplication layer.
#[derive(Clone, Debug)]
pub struct PackedBlock {
    /// Global block index (tags, dealer assignment).
    pub index: usize,
    /// Multiplication layer this block belongs to.
    pub layer: usize,
    /// Gate index occupying each slot; `None` is a padding slot (the dealer
    /// still deals a random triple there so the packed masks are uniform).
    pub slots: Vec<Option<usize>>,
}

/// The full static plan for packed evaluation of one circuit at width `ℓ`.
#[derive(Clone, Debug)]
pub struct PackedPlan {
    /// Packing width `ℓ`.
    pub ell: usize,
    /// Blocks grouped by multiplication layer (same order as
    /// [`Circuit::layers`]).
    pub layers: Vec<Vec<PackedBlock>>,
    /// Total number of blocks across all layers.
    pub n_blocks: usize,
    /// Affine decomposition of every wire (indexed by gate).
    pub wire_combos: Vec<LinComb>,
    /// `positions[block][slot]`: the sorted position set the block dealer
    /// deals that slot's triple at — always contains the slot's own point;
    /// plus every consumer slot of the gate's output and `0` if the output
    /// is in the circuit-output cone.
    pub positions: Vec<Vec<Vec<Pos>>>,
    /// `input_positions[j]`: sorted slot positions party `j`'s input value
    /// is consumed at (the `0` position is covered by the ACS input sharing
    /// and never appears here).
    pub input_positions: Vec<Vec<Pos>>,
}

impl PackedPlan {
    /// Builds the plan for `circuit` at width `ell ≥ 1`.
    pub fn new(circuit: &Circuit, ell: usize) -> Self {
        assert!(ell >= 1, "packing width must be at least 1");
        let gates = circuit.gates();
        // Forward pass: affine decomposition of every wire. Gates are stored
        // topologically, so operand combos always precede their consumers.
        let mut wire_combos: Vec<LinComb> = Vec::with_capacity(gates.len());
        for (g, gate) in gates.iter().enumerate() {
            let combo = match *gate {
                Gate::Input(i) => LinComb::basis(BasisElem::Input(i)),
                Gate::Constant(c) => LinComb::constant(c),
                Gate::Add(a, b) => wire_combos[a.0].add(&wire_combos[b.0]),
                Gate::Sub(a, b) => wire_combos[a.0].sub(&wire_combos[b.0]),
                Gate::MulConst(a, c) => wire_combos[a.0].scale(c),
                Gate::AddConst(a, c) => wire_combos[a.0].add_const(c),
                Gate::Mul(_, _) => LinComb::basis(BasisElem::MulOut(g)),
            };
            wire_combos.push(combo);
        }
        // Chunk every multiplication layer into ℓ-wide blocks.
        let mut layers = Vec::new();
        let mut n_blocks = 0usize;
        let mut gate_slot: HashMap<usize, (usize, usize)> = HashMap::new();
        for (l, layer) in circuit.layers().iter().enumerate() {
            let mut blocks = Vec::new();
            for chunk in layer.chunks(ell) {
                let mut slots: Vec<Option<usize>> = chunk.iter().map(|&g| Some(g)).collect();
                slots.resize(ell, None);
                for (k, s) in slots.iter().enumerate() {
                    if let Some(g) = s {
                        gate_slot.insert(*g, (n_blocks, k));
                    }
                }
                blocks.push(PackedBlock {
                    index: n_blocks,
                    layer: l,
                    slots,
                });
                n_blocks += 1;
            }
            layers.push(blocks);
        }
        // Position sets. Every slot needs its own point (packed masks);
        // every basis value feeding a multiplication operand needs that
        // consumer's slot point; output-cone multiplication outputs need 0.
        let mut pos_sets: Vec<Vec<BTreeSet<Pos>>> = vec![vec![BTreeSet::new(); ell]; n_blocks];
        let mut input_sets: Vec<BTreeSet<Pos>> = vec![BTreeSet::new(); circuit.n_inputs()];
        for layer in &layers {
            for blk in layer {
                for k in 0..ell {
                    pos_sets[blk.index][k].insert(Pos::Slot(k));
                    let Some(Gate::Mul(a, b)) = blk.slots[k].map(|g| gates[g]) else {
                        continue;
                    };
                    for w in [a.0, b.0] {
                        for &elem in wire_combos[w].terms.keys() {
                            match elem {
                                BasisElem::Input(j) => {
                                    input_sets[j].insert(Pos::Slot(k));
                                }
                                BasisElem::MulOut(g2) => {
                                    let (b2, k2) = gate_slot[&g2];
                                    pos_sets[b2][k2].insert(Pos::Slot(k));
                                }
                            }
                        }
                    }
                }
            }
        }
        let output_terms = circuit.output().map(|w| wire_combos[w.0].terms.keys());
        for &elem in output_terms.into_iter().flatten() {
            if let BasisElem::MulOut(g) = elem {
                let (b2, k2) = gate_slot[&g];
                pos_sets[b2][k2].insert(Pos::Zero);
            }
        }
        PackedPlan {
            ell,
            layers,
            n_blocks,
            wire_combos,
            positions: pos_sets
                .into_iter()
                .map(|slots| slots.into_iter().map(|s| s.into_iter().collect()).collect())
                .collect(),
            input_positions: input_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        }
    }

    /// The party dealing `block`'s triples: the common subset `cs1` (sorted)
    /// round-robin by block index. `cs1` is never empty (`|CS₁| ≥ n − t_s`).
    pub fn assigned_dealer(&self, block: usize, cs1: &[PartyId]) -> PartyId {
        cs1[block % cs1.len()]
    }

    /// All block indices assigned to `party` under `cs1`, ascending.
    pub fn blocks_of(&self, party: PartyId, cs1: &[PartyId]) -> Vec<usize> {
        (0..self.n_blocks)
            .filter(|&b| self.assigned_dealer(b, cs1) == party)
            .collect()
    }

    /// Field elements of `block`'s section in its dealer's deal payload:
    /// three components per dealt position of every slot.
    pub fn block_deal_len(&self, block: usize) -> usize {
        self.positions[block].iter().map(|p| 3 * p.len()).sum()
    }

    /// Exact per-recipient length of sender `s`'s deal payload under `cs1`:
    /// the input section (one element per consumed input position, present
    /// only for members of `cs1` — everyone substitutes the all-zero sharing
    /// for excluded inputs) followed by the sections of `s`'s assigned
    /// blocks, plus one trailing *probe mask* share (a fresh random `t_s`
    /// sharing that blinds the public degree-consistency probe of the deal —
    /// see `cireval/packed.rs`). A sender with no inputs or blocks to deal
    /// has expected length 0 and sends nothing (no mask either).
    pub fn expected_deal_len(&self, s: PartyId, cs1: &[PartyId]) -> usize {
        let mut len = 0;
        if cs1.contains(&s) {
            len += self.input_positions[s].len();
        }
        len += self
            .blocks_of(s, cs1)
            .iter()
            .map(|&b| self.block_deal_len(b))
            .sum::<usize>();
        if len > 0 {
            len += 1;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in0·in1, (in0·in1)·in2, output = that + in3.
    fn two_layer_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        let m1 = c.mul(c.input(0), c.input(1));
        let m2 = c.mul(m1, c.input(2));
        let out = c.add(m2, c.input(3));
        c.set_output(out);
        c
    }

    #[test]
    fn wire_combos_decompose_linear_gates() {
        let c = two_layer_circuit();
        let plan = PackedPlan::new(&c, 2);
        // Output = MulOut(m2) + Input(3).
        let out = &plan.wire_combos[c.output().unwrap().0];
        assert_eq!(out.constant, Fp::ZERO);
        assert_eq!(out.terms.len(), 2);
        assert!(out.terms.keys().any(|e| matches!(e, BasisElem::MulOut(_))));
        assert!(out.terms.keys().any(|e| *e == BasisElem::Input(3)));
    }

    #[test]
    fn blocks_pad_to_width_and_positions_cover_usage() {
        let c = two_layer_circuit();
        let plan = PackedPlan::new(&c, 2);
        assert_eq!(plan.layers.len(), 2);
        assert_eq!(plan.n_blocks, 2);
        // Each layer has one mult → one block with a padding slot.
        for layer in &plan.layers {
            assert_eq!(layer.len(), 1);
            assert_eq!(layer[0].slots.len(), 2);
            assert!(layer[0].slots[0].is_some());
            assert!(layer[0].slots[1].is_none());
            // Padding slot still deals at its own point.
            assert_eq!(plan.positions[layer[0].index][1], vec![Pos::Slot(1)]);
        }
        // m1 feeds slot 0 of the layer-1 block → its positions contain its
        // own slot and the consumer slot (both Slot(0) here), no Zero (m1 is
        // not in the output cone).
        let m1_pos = &plan.positions[plan.layers[0][0].index][0];
        assert_eq!(m1_pos, &vec![Pos::Slot(0)]);
        // m2 is in the output cone → own slot + Zero.
        let m2_pos = &plan.positions[plan.layers[1][0].index][0];
        assert_eq!(m2_pos, &vec![Pos::Slot(0), Pos::Zero]);
        // Inputs 0,1,2 feed multiplication slots; input 3 only the output.
        assert_eq!(plan.input_positions[0], vec![Pos::Slot(0)]);
        assert_eq!(plan.input_positions[1], vec![Pos::Slot(0)]);
        assert_eq!(plan.input_positions[2], vec![Pos::Slot(0)]);
        assert!(plan.input_positions[3].is_empty());
    }

    #[test]
    fn deal_lengths_are_consistent_across_views() {
        let c = Circuit::layered(6, 5, 3);
        let plan = PackedPlan::new(&c, 4);
        let cs1: Vec<PartyId> = vec![0, 2, 3, 4, 5];
        // Every block has exactly one dealer; section lengths add up.
        let total: usize = (0..plan.n_blocks).map(|b| plan.block_deal_len(b)).sum();
        let by_dealer: usize = (0..6)
            .map(|p| {
                plan.blocks_of(p, &cs1)
                    .iter()
                    .map(|&b| plan.block_deal_len(b))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total, by_dealer);
        for p in 0..6 {
            let inp = if cs1.contains(&p) {
                plan.input_positions[p].len()
            } else {
                0
            };
            let blocks: usize = plan
                .blocks_of(p, &cs1)
                .iter()
                .map(|&b| plan.block_deal_len(b))
                .sum();
            let mask = usize::from(inp + blocks > 0);
            assert_eq!(plan.expected_deal_len(p, &cs1), inp + blocks + mask);
        }
        // Dealer assignment is round-robin over cs1.
        assert_eq!(plan.assigned_dealer(0, &cs1), 0);
        assert_eq!(plan.assigned_dealer(1, &cs1), 2);
        assert_eq!(plan.assigned_dealer(cs1.len(), &cs1), 0);
    }

    #[test]
    fn lincomb_algebra() {
        let a = LinComb::basis(BasisElem::Input(0));
        let b = LinComb::basis(BasisElem::Input(1));
        let c = a.scale(Fp::from_u64(3)).add(&b).add_const(Fp::from_u64(7));
        assert_eq!(c.constant, Fp::from_u64(7));
        assert_eq!(c.terms[&BasisElem::Input(0)], Fp::from_u64(3));
        // Cancellation removes the term entirely.
        let d = c.sub(&b);
        assert!(!d.terms.contains_key(&BasisElem::Input(1)));
        let zero = a.sub(&a);
        assert!(zero.terms.is_empty());
        assert_eq!(zero.constant, Fp::ZERO);
    }

    #[test]
    fn point_maps_positions_to_field_points() {
        assert_eq!(point(Pos::Zero), Fp::ZERO);
        assert_eq!(point(Pos::Slot(2)), slot(2));
        assert!(Pos::Slot(0) < Pos::Slot(1));
        assert!(Pos::Slot(9) < Pos::Zero);
    }
}
