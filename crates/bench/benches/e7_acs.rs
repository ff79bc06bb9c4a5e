//! Experiment E7 — `Π_ACS` (Lemma 5.1): `O(n⁴L + n⁶)·log|F|` bits, `O(n²)` BA
//! instances, every honest party in `CS` in a synchronous network.

use bench::run_acs;
use mpc_protocols::Params;

fn main() {
    println!("# E7 — Π_ACS: bits vs n and L");
    println!(
        "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
        "n", "L", "bits", "msgs", "sim-time", "T_ACS"
    );
    for (n, l) in [(4usize, 1usize), (4, 4), (5, 1), (7, 1)] {
        let params = Params::max_thresholds(n, 10);
        let m = run_acs(n, l);
        println!(
            "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
            n,
            l,
            m.metrics.honest_bits,
            m.metrics.honest_messages,
            m.completed_at,
            params.t_acs()
        );
    }
    println!("(one ACS costs ≈ n× one VSS — compare with the E6 rows)");
}
