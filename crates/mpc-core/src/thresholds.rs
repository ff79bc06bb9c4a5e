//! Resilience thresholds (the paper's feasibility landscape, Section 1).
//!
//! * synchronous-only perfectly-secure MPC: `t_s < n/3` \[BGW88\];
//! * asynchronous-only perfectly-secure MPC: `t_a < n/4` \[BCG93\];
//! * best-of-both-worlds (this paper): `t_a ≤ t_s` and `3·t_s + t_a < n`.

pub use mpc_net::adversary::{
    feasible_threshold_pairs, thresholds_feasible, AdversaryStructure, GeneralAdversary,
    ThresholdAdversary,
};

/// Maximum packed-sharing width `ℓ` supported at `(n, t_s)`.
///
/// A packed sharing with base degree `t_s` has total degree
/// `d = t_s + ℓ − 1`; robust public reconstruction via `OEC(d, t_s, ·)`
/// needs `n ≥ d + 2·t_s + 1` honest-majority headroom
/// (`mpc_algebra::rs::oec_decode` requires `d + t + 1` points with at most
/// `n − (d + t + 1) ≥ t` of them wrong), i.e. `ℓ ≤ n − 3·t_s`.
/// The best-of-both-worlds feasibility condition `3·t_s + t_a < n`
/// guarantees this is always ≥ 1.
pub fn max_packing_width(n: usize, ts: usize) -> usize {
    n.saturating_sub(3 * ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximum corruptions of a purely synchronous protocol (`⌈n/3⌉ − 1`).
    fn smpc_ts(n: usize) -> usize {
        (n - 1) / 3
    }

    /// Maximum corruptions of a purely asynchronous protocol (`⌈n/4⌉ − 1`),
    /// also what the `t_s = t_a` baseline tolerates in both networks.
    fn ampc_ta(n: usize) -> usize {
        (n - 1) / 4
    }

    /// The best-of-both-worlds operating point: maximal `t_s`, then maximal
    /// `t_a`.
    fn bobw(n: usize) -> (usize, usize) {
        feasible_threshold_pairs(n).into_iter().max().unwrap()
    }

    #[test]
    fn paper_example_n8() {
        // Section 1: for n = 8, SMPC tolerates 2, AMPC tolerates 1, and the
        // best-of-both-worlds protocol tolerates 2 synchronously and 1
        // asynchronously.
        assert_eq!(smpc_ts(8), 2);
        assert_eq!(ampc_ta(8), 1);
        assert_eq!(bobw(8), (2, 1));
    }

    #[test]
    fn packing_width_is_positive_whenever_thresholds_are_feasible() {
        for n in 4..=40 {
            for (ts, ta) in feasible_threshold_pairs(n) {
                assert!(thresholds_feasible(n, ts, ta));
                assert!(max_packing_width(n, ts) >= 1, "n={n} ts={ts}");
            }
        }
        // Spot checks: the degree budget t_s + ℓ − 1 must leave 2·t_s + 1
        // headroom for OEC.
        assert_eq!(max_packing_width(7, 1), 4);
        assert_eq!(max_packing_width(7, 2), 1);
        assert_eq!(max_packing_width(10, 1), 7);
        assert_eq!(max_packing_width(13, 1), 10);
        assert_eq!(max_packing_width(4, 1), 1);
    }

    #[test]
    fn bobw_never_exceeds_single_network_optima() {
        for n in 4..=40 {
            let (ts, ta) = bobw(n);
            assert!(ts <= smpc_ts(n));
            assert!(ta <= ampc_ta(n));
            assert!(thresholds_feasible(n, ts, ta));
        }
    }

    #[test]
    fn bobw_beats_ampc_baseline_in_sync_resilience_for_n_at_least_5() {
        // The motivation of the paper: in a synchronous network the BoBW
        // protocol tolerates strictly more corruptions than any protocol that
        // must also survive asynchrony with the same threshold (t_s = t_a <
        // n/4), whenever n ≥ 5 and n is not a multiple where the bounds
        // coincide.
        for n in 5..=40 {
            assert!(bobw(n).0 >= ampc_ta(n));
        }
        let better: Vec<usize> = (5..=40).filter(|&n| bobw(n).0 > ampc_ta(n)).collect();
        assert!(better.contains(&8));
        assert!(better.len() > 20, "BoBW strictly better for most n");
    }
}
