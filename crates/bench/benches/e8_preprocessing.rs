//! Experiment E8 — preprocessing cost (`Π_TripSh`/`Π_PreProcessing`,
//! Lemma 6.3 / Theorem 6.5): communication grows linearly in the number of
//! multiplication gates `c_M` on top of a circuit-independent `poly(n)` term,
//! and the generated triples are correct (the evaluation below would produce
//! a wrong product otherwise).

use bench::{cireval_builder, expected_clear, run_cireval};
use mpc_core::Circuit;
use mpc_net::NetworkKind;

fn main() {
    println!("# E8 — preprocessing: total bits vs number of multiplication gates c_M (n = 4)");
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10}",
        "c_M", "bits", "msgs", "sim-time", "correct"
    );
    let n = 4;
    for width in [1usize, 2, 4, 8] {
        let circuit = Circuit::layered(n, width, 1);
        let (m, out) = run_cireval(cireval_builder(n, NetworkKind::Synchronous, 42), &circuit);
        let ok = out == expected_clear(n, &circuit);
        println!(
            "{:>6} {:>12} {:>10} {:>12} {:>10}",
            circuit.mult_count(),
            m.metrics.honest_bits,
            m.metrics.honest_messages,
            m.completed_at,
            ok
        );
    }
    println!("(the bits column grows affinely in c_M: a fixed poly(n) setup term plus a per-triple term)");
}
