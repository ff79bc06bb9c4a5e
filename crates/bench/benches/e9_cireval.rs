//! Experiment E9 — `Π_CirEval` (Theorem 7.1): in a synchronous network the
//! completion time is an affine function of `n` and of the multiplicative
//! depth `D_M` (the paper's `(120n + D_M + 6k − 20)·Δ` shape), and in an
//! asynchronous network the honest parties still terminate with the correct
//! output on the inputs of at least `n − t_s` parties.

use bench::{cireval_builder, expected_clear, run_cireval};
use mpc_core::Circuit;
use mpc_net::NetworkKind;

fn main() {
    let n = 4;
    println!("# E9a — completion time vs multiplicative depth D_M (n = 4, synchronous)");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>10}",
        "D_M", "c_M", "sim-time", "bits", "correct"
    );
    for depth in [1usize, 2, 4, 6] {
        let circuit = Circuit::layered(n, 2, depth);
        let (m, out) = run_cireval(cireval_builder(n, NetworkKind::Synchronous, 7), &circuit);
        println!(
            "{:>6} {:>6} {:>12} {:>12} {:>10}",
            circuit.mult_depth(),
            circuit.mult_count(),
            m.completed_at,
            m.metrics.honest_bits,
            out == expected_clear(n, &circuit)
        );
    }
    println!();
    println!("# E9b — completion time vs n (product circuit, synchronous vs asynchronous)");
    println!(
        "{:>4} {:>6} {:>12} {:>12} {:>10}",
        "n", "net", "sim-time", "bits", "correct"
    );
    for n in [4usize, 5] {
        let circuit = Circuit::product_of_inputs(n);
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let (m, out) = run_cireval(cireval_builder(n, kind, 8), &circuit);
            println!(
                "{:>4} {:>6} {:>12} {:>12} {:>10}",
                n,
                if kind == NetworkKind::Synchronous {
                    "sync"
                } else {
                    "async"
                },
                m.completed_at,
                m.metrics.honest_bits,
                out == expected_clear(n, &circuit)
            );
        }
    }
    println!("(E9a: sim-time grows by a constant number of Δ per extra multiplication layer,");
    println!(
        " on top of a circuit-independent preprocessing term that dominates — the paper's shape)"
    );
}
