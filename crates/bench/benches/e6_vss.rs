//! Experiment E6 — `Π_VSS` (Theorem 4.16): `O(n³L + n⁵)·log|F|` bits, honest
//! dealer outputs at `T_VSS` in a synchronous network, `n + 1` BA instances.

use bench::run_vss;
use mpc_protocols::Params;

fn main() {
    println!("# E6 — Π_VSS: bits vs n and L");
    println!(
        "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
        "n", "L", "bits", "msgs", "sim-time", "T_VSS"
    );
    for n in [4usize, 7] {
        let params = Params::max_thresholds(n, 10);
        for l in [1usize, 8] {
            let m = run_vss(n, l);
            println!(
                "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
                n,
                l,
                m.metrics.honest_bits,
                m.metrics.honest_messages,
                m.completed_at,
                params.t_vss()
            );
        }
    }
    println!(
        "(one VSS costs ≈ n× one WPS — compare with the E5 rows — matching the n-fold WPS fan-out)"
    );
}
