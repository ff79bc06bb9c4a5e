//! Experiment E1 — resilience landscape (Section 1 of the paper).
//!
//! Regenerates the feasibility table comparing purely synchronous MPC
//! (`t_s < n/3`), purely asynchronous MPC (`t_a < n/4`, which is also the
//! best a "single-threshold" protocol can tolerate in *both* networks) and
//! the best-of-both-worlds operating point (`3·t_s + t_a < n`), and validates
//! the boundary by actually running the protocol at the maximal thresholds.

use bench::{cireval_builder, run_cireval};
use mpc_core::thresholds::resilience_table;
use mpc_core::Circuit;
use mpc_net::{CorruptionSet, NetworkKind};

fn main() {
    println!("# E1 — resilience landscape (paper Section 1)");
    println!(
        "{:>4} {:>10} {:>10} {:>16}",
        "n", "SMPC t_s", "AMPC t_a", "BoBW (t_s,t_a)"
    );
    for row in resilience_table(4, 16) {
        println!(
            "{:>4} {:>10} {:>10} {:>16}",
            row.n,
            row.smpc_ts,
            row.ampc_ta,
            format!("({}, {})", row.bobw.0, row.bobw.1)
        );
    }
    println!();
    println!("# boundary validation: full MPC runs at the BoBW operating point");
    for n in [4usize, 5] {
        let circuit = Circuit::product_of_inputs(n);
        let (m_honest, _) = run_cireval(cireval_builder(n, NetworkKind::Synchronous, 1), &circuit);
        let corrupt = cireval_builder(n, NetworkKind::Synchronous, 2).corrupt(&[n - 1]);
        let (m_corrupt, out) = run_cireval(corrupt, &circuit);
        println!(
            "n={n}: all-honest finished at simulated time {}, with t_s corruption at {}, output with corruption = {}",
            m_honest.completed_at, m_corrupt.completed_at, out.as_u64()
        );
    }
    println!();
    println!("# corruption-placement sweep: the threshold holds wherever the t_s corruptions sit");
    let n = 4;
    let ts = 1;
    let circuit = Circuit::product_of_inputs(n);
    for seed in 0..3u64 {
        let placement = CorruptionSet::random(n, ts, seed);
        let builder = cireval_builder(n, NetworkKind::Synchronous, seed + 10)
            .corrupt(placement.corrupt_parties());
        let (m, out) = run_cireval(builder, &circuit);
        println!(
            "n={n} corrupt={:?}: finished at {}, output = {}",
            placement.corrupt_parties(),
            m.completed_at,
            out.as_u64()
        );
    }
}
