//! Shared circuit evaluation (Fig 11): linear gates locally, multiplication
//! gates with Beaver's protocol, one extracted triple per gate. The default
//! driver opens one batch per multiplication layer; the per-gate reference
//! driver opens one per gate.

use mpc_algebra::Fp;

use super::{Io, Wave};
use crate::circuit::{Circuit, Gate, Wire};
use crate::triples::{beaver_masked_shares, beaver_output_share, TripleShare};

/// The scalar evaluation of one circuit, once the triples are extracted.
#[derive(Debug)]
pub(super) struct Layers {
    /// The multiplication layers ([`Circuit::layers`]).
    layers: Vec<Vec<usize>>,
    /// My share of every wire resolved so far, by gate.
    wires: Vec<Option<Fp>>,
    /// The triple of each multiplication gate, assigned in gate order (other
    /// gates hold the zero triple and never read it).
    triples: Vec<TripleShare>,
    /// Next unresolved layer, and whether its maskings went out.
    next: usize,
    issued: bool,
    /// Per-gate reference mode: one opening per multiplication gate, issued
    /// as the gate's inputs resolve (the pre-batching behaviour).
    per_gate: bool,
}

impl Layers {
    pub(super) fn new(
        circuit: &Circuit,
        pool: Vec<TripleShare>,
        inputs: &[Fp],
        per_gate: bool,
    ) -> Self {
        let gates = circuit.gates();
        let mut wires = vec![None; gates.len()];
        for (i, &share) in inputs.iter().enumerate() {
            wires[circuit.input(i).index()] = Some(share);
        }
        let mut pool = pool.into_iter();
        let triples = gates.iter().map(|gate| match gate {
            Gate::Mul(_, _) => pool.next().unwrap_or_default(),
            _ => TripleShare::zero(),
        });
        Layers {
            layers: circuit.layers(),
            wires,
            triples: triples.collect(),
            next: 0,
            issued: false,
            per_gate,
        }
    }

    /// My share of gate `g`'s output if it is linear and its inputs are
    /// resolved.
    fn local(&self, circuit: &Circuit, g: usize) -> Option<Fp> {
        let wire = |w: Wire| self.wires[w.0];
        match circuit.gates()[g] {
            Gate::Constant(c) => Some(c),
            Gate::Add(a, b) => Some(wire(a)? + wire(b)?),
            Gate::Sub(a, b) => Some(wire(a)? - wire(b)?),
            Gate::MulConst(a, c) => Some(wire(a)? * c),
            Gate::AddConst(a, c) => Some(wire(a)? + c),
            Gate::Input(_) | Gate::Mul(_, _) => None,
        }
    }

    /// My shares of multiplication gate `g`'s inputs, once resolved.
    fn operands(&self, circuit: &Circuit, g: usize) -> Option<(Fp, Fp)> {
        match circuit.gates()[g] {
            Gate::Mul(a, b) => Some((self.wires[a.0]?, self.wires[b.0]?)),
            _ => None,
        }
    }

    /// Evaluates as far as the openings allow; returns my share of the
    /// output wire once it resolves.
    pub(super) fn evaluate(
        &mut self,
        io: &mut Io<'_, '_>,
        circuit: &Circuit,
        opened_by_layer: &mut Vec<u64>,
    ) -> Option<Fp> {
        if self.per_gate {
            return self.evaluate_per_gate(io, circuit);
        }
        loop {
            // Gates are stored in topological order, so one pass resolves
            // the whole linear region the resolved layers expose.
            for g in 0..self.wires.len() {
                if self.wires[g].is_none() {
                    self.wires[g] = self.local(circuit, g);
                }
            }
            if let Some(share) = self.wires[circuit.output()?.0] {
                return Some(share);
            }
            let gates = self.layers.get(self.next)?;
            if !self.issued {
                // Every input of a layer-(l+1) multiplication depends only on
                // multiplications of layers ≤ l, so after the propagation
                // pass all of them are resolved and the whole layer's
                // maskings go out as one batch.
                let mut values = Vec::with_capacity(2 * gates.len());
                for &g in gates {
                    let (x, y) = self.operands(circuit, g)?;
                    let (d, e) = beaver_masked_shares(x, y, &self.triples[g]);
                    values.extend([d, e]);
                }
                self.issued = true;
                opened_by_layer.push(values.len() as u64);
                io.open(Wave::Circuit, self.next, values);
            }
            let de = io.opened(Wave::Circuit, self.next, 2 * gates.len())?;
            for (&g, de) in gates.iter().zip(de.chunks_exact(2)) {
                self.wires[g] = Some(beaver_output_share(de[0], de[1], &self.triples[g]));
            }
            self.next += 1;
            self.issued = false;
        }
    }

    /// The per-gate reference driver, kept for equivalence tests.
    fn evaluate_per_gate(&mut self, io: &mut Io<'_, '_>, circuit: &Circuit) -> Option<Fp> {
        let mut progress = true;
        while progress {
            progress = false;
            for g in 0..self.wires.len() {
                if self.wires[g].is_some() {
                    continue;
                }
                let value = match circuit.gates()[g] {
                    Gate::Mul(_, _) => {
                        let Some((x, y)) = self.operands(circuit, g) else {
                            continue;
                        };
                        // A gate's batch goes out once: the openings ignore
                        // a second `open` under one tag.
                        let triple = self.triples[g];
                        let (d, e) = beaver_masked_shares(x, y, &triple);
                        io.open(Wave::Circuit, g, vec![d, e]);
                        let de = io.opened(Wave::Circuit, g, 2);
                        de.map(|de| beaver_output_share(de[0], de[1], &triple))
                    }
                    _ => self.local(circuit, g),
                };
                if value.is_some() {
                    self.wires[g] = value;
                    progress = true;
                }
            }
        }
        self.wires[circuit.output()?.0]
    }
}
