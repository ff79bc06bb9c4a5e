//! Experiment E5 — `Π_WPS` (Theorem 4.8): `O(n²L + n⁴)·log|F|` bits, honest
//! parties output at `T_WPS` in a synchronous network.

use bench::run_wps;
use mpc_protocols::Params;

fn main() {
    println!("# E5 — Π_WPS: bits vs n and L");
    println!(
        "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
        "n", "L", "bits", "msgs", "sim-time", "T_WPS"
    );
    for n in [4usize, 7] {
        let params = Params::max_thresholds(n, 10);
        for l in [1usize, 8, 32] {
            let m = run_wps(n, l);
            println!(
                "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10}",
                n,
                l,
                m.metrics.honest_bits,
                m.metrics.honest_messages,
                m.completed_at,
                params.t_wps()
            );
        }
    }
    println!("(bits grow additively in L on top of a fixed n-dependent term: O(n^2 L + poly(n)))");
}
