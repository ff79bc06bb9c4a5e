//! Experiment E2 — `Π_ACast` cost (Lemma 2.4): `O(n²·ℓ)` bits, output within
//! `3Δ` for an honest sender in a synchronous network.

use bench::run_acast;

fn main() {
    println!("# E2 — Bracha A-cast: bits vs n and payload ℓ (claim: O(n^2 ℓ))");
    println!(
        "{:>4} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "n", "ell", "bits", "msgs", "sim-time", "bits/(n²ℓ)"
    );
    for n in [4usize, 7, 10, 13] {
        for ell in [1usize, 16, 64] {
            let m = run_acast(n, ell);
            let bits = m.metrics.honest_bits;
            assert!(bits > 0, "exact bit accounting must be nonzero");
            let norm = bits as f64 / (n * n * ell) as f64;
            println!(
                "{:>4} {:>6} {:>12} {:>10} {:>12} {:>12.1}",
                n, ell, bits, m.metrics.honest_messages, m.completed_at, norm
            );
        }
    }
    println!("(a roughly constant last column for large ℓ confirms the O(n^2 ℓ) scaling; sim-time ≤ 3Δ = 30)");
}
