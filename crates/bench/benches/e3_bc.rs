//! Experiment E3 — `Π_BC` (Theorem 3.5): regular-mode output at
//! `T_BC = 3Δ + T_BGP`, `O(n²ℓ + n³)` bits with the substituted phase-king
//! SBA (DESIGN.md S2).

use bench::run_bc;
use mpc_net::NetworkKind;
use mpc_protocols::Params;

fn main() {
    println!("# E3 — Π_BC: bits and output time vs n (sync and async)");
    println!(
        "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
        "n", "net", "bits", "msgs", "sim-time", "T_BC"
    );
    for n in [4usize, 7, 10] {
        let params = Params::max_thresholds(n, 10);
        for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
            let m = run_bc(n, 8, kind);
            assert!(
                m.metrics.honest_bits > 0,
                "exact bit accounting must be nonzero"
            );
            let tag = match kind {
                NetworkKind::Synchronous => "sync",
                NetworkKind::Asynchronous => "async",
            };
            println!(
                "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
                n,
                tag,
                m.metrics.honest_bits,
                m.metrics.honest_messages,
                m.completed_at,
                params.t_bc()
            );
        }
    }
    println!("(in the synchronous rows every party outputs through regular mode exactly at T_BC)");
}
