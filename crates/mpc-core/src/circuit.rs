//! Arithmetic circuits over `GF(2^61-1)`.
//!
//! The function `f : F^n → F` to be securely computed is represented as an
//! arithmetic circuit with linear gates (addition, addition/multiplication by
//! public constants) and multiplication gates (Section 2 of the paper). Only
//! multiplication gates cost communication during the shared evaluation; the
//! circuit's multiplication count `c_M` and multiplicative depth `D_M` drive
//! the complexity formulas of Theorems 6.5 and 7.1.

use mpc_algebra::Fp;

/// A handle to a circuit wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Wire(pub(crate) usize);

impl Wire {
    /// The index of the gate whose output this wire carries (gates are in
    /// topological order, so a gate's inputs always have smaller indices).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One gate of the circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// The `i`-th circuit input (party `P_{i+1}`'s private input).
    Input(usize),
    /// A publicly known constant.
    Constant(Fp),
    /// Addition of two wires.
    Add(Wire, Wire),
    /// Subtraction of two wires.
    Sub(Wire, Wire),
    /// Multiplication by a public constant.
    MulConst(Wire, Fp),
    /// Addition of a public constant.
    AddConst(Wire, Fp),
    /// Multiplication of two wires (the only gates that cost communication).
    Mul(Wire, Wire),
}

/// An arithmetic circuit with a single output wire.
///
/// ```
/// use mpc_core::Circuit;
/// use mpc_algebra::Fp;
///
/// // f(x1, x2, x3) = x1 * x2 + 3 * x3
/// let mut c = Circuit::new(3);
/// let prod = c.mul(c.input(0), c.input(1));
/// let scaled = c.mul_const(c.input(2), Fp::from_u64(3));
/// let out = c.add(prod, scaled);
/// c.set_output(out);
/// assert_eq!(c.mult_count(), 1);
/// let y = c.evaluate_clear(&[Fp::from_u64(2), Fp::from_u64(5), Fp::from_u64(7)]);
/// assert_eq!(y.as_u64(), 2 * 5 + 3 * 7);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circuit {
    n_inputs: usize,
    gates: Vec<Gate>,
    output: Option<Wire>,
}

impl Circuit {
    /// Creates a circuit with `n_inputs` input wires (one per party).
    pub fn new(n_inputs: usize) -> Self {
        let gates = (0..n_inputs).map(Gate::Input).collect();
        Circuit {
            n_inputs,
            gates,
            output: None,
        }
    }

    /// Number of inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The wire carrying input `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_inputs`.
    pub fn input(&self, i: usize) -> Wire {
        assert!(i < self.n_inputs, "input index out of range");
        Wire(i)
    }

    fn push(&mut self, g: Gate) -> Wire {
        self.gates.push(g);
        Wire(self.gates.len() - 1)
    }

    /// Adds a public constant wire.
    pub fn constant(&mut self, c: Fp) -> Wire {
        self.push(Gate::Constant(c))
    }

    /// Adds an addition gate.
    pub fn add(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::Add(a, b))
    }

    /// Adds a subtraction gate.
    pub fn sub(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::Sub(a, b))
    }

    /// Adds a multiplication-by-constant gate.
    pub fn mul_const(&mut self, a: Wire, c: Fp) -> Wire {
        self.push(Gate::MulConst(a, c))
    }

    /// Adds an addition-of-constant gate.
    pub fn add_const(&mut self, a: Wire, c: Fp) -> Wire {
        self.push(Gate::AddConst(a, c))
    }

    /// Adds a multiplication gate.
    pub fn mul(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::Mul(a, b))
    }

    /// Declares the circuit output wire.
    pub fn set_output(&mut self, w: Wire) {
        self.output = Some(w);
    }

    /// The output wire, once [`Circuit::set_output`] has declared one.
    pub fn output(&self) -> Option<Wire> {
        self.output
    }

    /// All gates in topological order (wires only ever reference earlier
    /// gates by construction).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of multiplication gates `c_M`.
    pub fn mult_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Mul(_, _)))
            .count()
    }

    /// The multiplicative depth `D_M` and per-gate multiplication layer
    /// (layer of a `Mul` gate = 1 + max layer among its inputs).
    pub fn mult_layers(&self) -> (usize, Vec<usize>) {
        let mut layer = vec![0usize; self.gates.len()];
        let mut depth = 0;
        for (i, g) in self.gates.iter().enumerate() {
            layer[i] = match *g {
                Gate::Input(_) | Gate::Constant(_) => 0,
                Gate::Add(a, b) | Gate::Sub(a, b) => layer[a.0].max(layer[b.0]),
                Gate::MulConst(a, _) | Gate::AddConst(a, _) => layer[a.0],
                Gate::Mul(a, b) => {
                    let l = layer[a.0].max(layer[b.0]) + 1;
                    depth = depth.max(l);
                    l
                }
            };
        }
        (depth, layer)
    }

    /// Multiplicative depth `D_M`.
    pub fn mult_depth(&self) -> usize {
        self.mult_layers().0
    }

    /// Topological layering of the multiplication gates: `layers()[l]` holds
    /// the gate ids of the `Mul` gates of multiplication layer `l + 1`, in
    /// ascending gate order. Every input wire of a gate in `layers()[l]`
    /// depends only on multiplications of layers `≤ l` (strictly earlier
    /// layers), so once the openings of the first `l` layers are resolved,
    /// all of layer `l + 1`'s Beaver maskings can be issued in one batch —
    /// this is what `Π_CirEval`'s layer-batched evaluation opens per layer
    /// (`2·|layers()[l]|` values under one tag) instead of per gate.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let (depth, layer) = self.mult_layers();
        let mut out = vec![Vec::new(); depth];
        for (g, gate) in self.gates.iter().enumerate() {
            if matches!(gate, Gate::Mul(_, _)) {
                out[layer[g] - 1].push(g);
            }
        }
        out
    }

    /// Evaluates the circuit in the clear (reference semantics for tests and
    /// experiments).
    ///
    /// A circuit without an output wire, which [`crate::MpcBuilder::run`]
    /// refuses, evaluates to zero.
    ///
    /// # Panics
    /// Panics if `inputs.len() != n_inputs`.
    pub fn evaluate_clear(&self, inputs: &[Fp]) -> Fp {
        assert_eq!(inputs.len(), self.n_inputs, "wrong number of inputs");
        let mut values = Vec::with_capacity(self.gates.len());
        for g in &self.gates {
            let v = match *g {
                Gate::Input(i) => inputs[i],
                Gate::Constant(c) => c,
                Gate::Add(a, b) => values[a.0] + values[b.0],
                Gate::Sub(a, b) => values[a.0] - values[b.0],
                Gate::MulConst(a, c) => values[a.0] * c,
                Gate::AddConst(a, c) => values[a.0] + c,
                Gate::Mul(a, b) => values[a.0] * values[b.0],
            };
            values.push(v);
        }
        self.output.map_or(Fp::ZERO, |w| values[w.0])
    }

    /// A convenience circuit: the sum of all inputs (no multiplications).
    pub fn sum_of_inputs(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        let mut acc = c.input(0);
        for i in 1..n {
            acc = c.add(acc, c.input(i));
        }
        c.set_output(acc);
        c
    }

    /// A convenience circuit: the product of all inputs (`n − 1`
    /// multiplications, depth ⌈log₂ n⌉ with balanced association).
    pub fn product_of_inputs(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        let mut wires: Vec<Wire> = (0..n).map(|i| c.input(i)).collect();
        while wires.len() > 1 {
            let mut next = Vec::new();
            for pair in wires.chunks(2) {
                if pair.len() == 2 {
                    next.push(c.mul(pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            wires = next;
        }
        c.set_output(wires[0]);
        c
    }

    /// A synthetic benchmark circuit with `width` multiplications per layer
    /// and `depth` layers (inputs are reused cyclically).
    pub fn layered(n_inputs: usize, width: usize, depth: usize) -> Circuit {
        let mut c = Circuit::new(n_inputs);
        let mut prev: Vec<Wire> = (0..n_inputs).map(|i| c.input(i)).collect();
        for _ in 0..depth {
            let mut next = Vec::new();
            for w in 0..width {
                let a = prev[w % prev.len()];
                let b = prev[(w + 1) % prev.len()];
                next.push(c.mul(a, b));
            }
            prev = next;
        }
        let mut acc = prev[0];
        for &w in &prev[1..] {
            acc = c.add(acc, w);
        }
        c.set_output(acc);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp(v: u64) -> Fp {
        Fp::from_u64(v)
    }

    #[test]
    fn sum_circuit_has_no_mults() {
        let c = Circuit::sum_of_inputs(5);
        assert_eq!(c.mult_count(), 0);
        assert_eq!(c.mult_depth(), 0);
        let y = c.evaluate_clear(&[fp(1), fp(2), fp(3), fp(4), fp(5)]);
        assert_eq!(y, fp(15));
    }

    #[test]
    fn product_circuit_depth_is_logarithmic() {
        let c = Circuit::product_of_inputs(8);
        assert_eq!(c.mult_count(), 7);
        assert_eq!(c.mult_depth(), 3);
        let y = c.evaluate_clear(&[fp(1), fp(2), fp(3), fp(4), fp(5), fp(6), fp(7), fp(8)]);
        assert_eq!(y, fp(40320));
    }

    #[test]
    fn layered_circuit_counts() {
        let c = Circuit::layered(4, 3, 5);
        assert_eq!(c.mult_count(), 15);
        assert_eq!(c.mult_depth(), 5);
        let layers = c.layers();
        assert_eq!(layers.len(), 5);
        assert!(layers.iter().all(|l| l.len() == 3));
    }

    #[test]
    fn layers_partition_mul_gates_and_respect_dependencies() {
        let c = Circuit::product_of_inputs(8);
        let layers = c.layers();
        assert_eq!(layers.len(), c.mult_depth());
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, c.mult_count());
        let (_, per_gate) = c.mult_layers();
        for (l, gates) in layers.iter().enumerate() {
            for &g in gates {
                let Gate::Mul(a, b) = c.gates()[g] else {
                    panic!("layer member must be a Mul gate");
                };
                assert_eq!(per_gate[g], l + 1);
                assert!(per_gate[a.0] <= l && per_gate[b.0] <= l);
            }
        }
    }

    #[test]
    fn mixed_gates_evaluate_correctly() {
        let mut c = Circuit::new(2);
        let s = c.add(c.input(0), c.input(1));
        let d = c.sub(c.input(0), c.input(1));
        let p = c.mul(s, d); // x^2 - y^2
        let shifted = c.add_const(p, fp(10));
        let scaled = c.mul_const(shifted, fp(2));
        c.set_output(scaled);
        let y = c.evaluate_clear(&[fp(7), fp(3)]);
        assert_eq!(y, fp(2 * (49 - 9 + 10)));
    }

    #[test]
    #[should_panic(expected = "input index out of range")]
    fn input_out_of_range_panics() {
        let c = Circuit::new(2);
        let _ = c.input(2);
    }

    proptest! {
        #[test]
        fn prop_sum_and_product(inputs in proptest::collection::vec(1u64..1000, 2..8)) {
            let n = inputs.len();
            let xs: Vec<Fp> = inputs.iter().map(|&v| fp(v)).collect();
            let sum = Circuit::sum_of_inputs(n).evaluate_clear(&xs);
            prop_assert_eq!(sum, xs.iter().copied().sum());
            let prod = Circuit::product_of_inputs(n).evaluate_clear(&xs);
            prop_assert_eq!(prod, xs.iter().copied().product());
        }
    }
}
