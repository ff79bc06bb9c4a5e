//! Global protocol parameters and the timing constants derived from them.
//!
//! The paper expresses every time-out as a formula over `Δ` and lower-level
//! protocol completion times (`T_BGP`, `T_BC`, `T_BA`, `T_WPS`, `T_VSS`,
//! `T_ACS`, …). This module centralises those formulas, computed from *this
//! implementation's* round structure (see DESIGN.md substitution S2), so that
//! every stacked time-out is mutually consistent — exactly the property the
//! paper's proofs rely on.

use mpc_net::{AdversaryStructure, Time};

/// Protocol parameters shared by every sub-protocol instance of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Number of parties `n`.
    pub n: usize,
    /// Synchronous corruption threshold `t_s`.
    pub ts: usize,
    /// Asynchronous corruption threshold `t_a`.
    pub ta: usize,
    /// The publicly known synchronous delivery bound `Δ` (ticks).
    pub delta: Time,
}

impl Params {
    /// Creates a parameter set, validating the paper's resilience condition
    /// `t_a ≤ t_s` and `3·t_s + t_a < n`.
    ///
    /// # Panics
    ///
    /// Panics if the condition is violated (the protocols are simply not
    /// defined outside it).
    pub fn new(n: usize, ts: usize, ta: usize, delta: Time) -> Self {
        assert!(ta <= ts, "the paper requires t_a <= t_s");
        assert!(3 * ts + ta < n, "the paper requires 3*t_s + t_a < n");
        assert!(delta > 0, "delta must be positive");
        Params { n, ts, ta, delta }
    }

    /// Parameters derived from a pluggable [`AdversaryStructure`]: the
    /// protocols run at the structure's *threshold hull*
    /// (`threshold_projection`), because the share-based machinery is
    /// Shamir/threshold — a general (non-threshold) structure refines which
    /// corruption sets are admissible, not the polynomial degrees.
    ///
    /// # Panics
    ///
    /// Panics if the structure itself is infeasible
    /// ([`AdversaryStructure::feasible`]) or its hull violates the paper's
    /// resilience condition — a `GeneralAdversary` can satisfy `Q^(3,1)`
    /// while its hull does not satisfy `3·t_s + t_a < n`, and this
    /// implementation only supports structures whose hull does.
    pub fn from_structure(structure: &dyn AdversaryStructure, delta: Time) -> Self {
        assert!(
            structure.feasible(),
            "the adversary structure violates the feasibility condition"
        );
        let (ts, ta) = structure.threshold_projection();
        Params::new(structure.n(), ts, ta, delta)
    }

    /// Parameters with the largest feasible `t_s` and then largest feasible
    /// `t_a` for a given `n` (the "best-of-both-worlds" operating point).
    pub fn max_thresholds(n: usize, delta: Time) -> Self {
        let ts = (n - 1) / 3;
        let mut ts = ts;
        // ensure 3 ts + 0 < n
        while 3 * ts >= n {
            ts -= 1;
        }
        let ta = (n - 1 - 3 * ts).min(ts);
        Params::new(n, ts, ta, delta)
    }

    /// `T_BGP`: time by which the phase-king SBA has an output in a
    /// synchronous network — `3·(t_s + 1)` rounds of `Δ` in this
    /// implementation.
    pub fn t_bgp(&self) -> Time {
        3 * (self.ts as Time + 1) * self.delta
    }

    /// `T_BC`: regular-mode output time of `Π_BC` — `3Δ + T_BGP` (Theorem 3.5).
    pub fn t_bc(&self) -> Time {
        3 * self.delta + self.t_bgp()
    }

    /// `T_ABA`: time by which `Π_ABA` outputs in a synchronous network when
    /// all honest inputs agree (the constant `k·Δ` of Lemma 3.3).
    pub fn t_aba(&self) -> Time {
        10 * self.delta
    }

    /// `T_BA = T_BC + T_ABA` (Theorem 3.6).
    pub fn t_ba(&self) -> Time {
        self.t_bc() + self.t_aba()
    }

    /// `T_WPS = 2Δ + 2·T_BC + T_BA` (Theorem 4.8).
    pub fn t_wps(&self) -> Time {
        2 * self.delta + 2 * self.t_bc() + self.t_ba()
    }

    /// `T_VSS = Δ + T_WPS + 2·T_BC + T_BA` (Theorem 4.16).
    pub fn t_vss(&self) -> Time {
        self.delta + self.t_wps() + 2 * self.t_bc() + self.t_ba()
    }

    /// `T_ACS = T_VSS + 2·T_BA` (Lemma 5.1).
    pub fn t_acs(&self) -> Time {
        self.t_vss() + 2 * self.t_ba()
    }

    /// `T_TripSh = T_ACS + 4Δ` (Lemma 6.3).
    pub fn t_tripsh(&self) -> Time {
        self.t_acs() + 4 * self.delta
    }

    /// `T_TripGen = T_TripSh + 2·T_BA + Δ` (Theorem 6.5).
    pub fn t_tripgen(&self) -> Time {
        self.t_tripsh() + 2 * self.t_ba() + self.delta
    }

    /// A generous simulation horizon for full circuit evaluations of
    /// multiplicative depth `depth` — the builder's default bound on a run,
    /// also used by tests and the ledger. It bounds, it does not predict: an
    /// honest synchronous run ends at `(65 + 21·t_s)·Δ + (9 + depth)·δ`
    /// (DESIGN.md "Deadlines").
    pub fn horizon_for_depth(&self, depth: usize) -> Time {
        (self.t_tripgen() + self.t_acs()) * 4 + (depth as Time + 8) * 4 * self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_constants_are_delta_multiples_and_monotone() {
        let p = Params::new(7, 2, 0, 10);
        for t in [
            p.t_bgp(),
            p.t_bc(),
            p.t_aba(),
            p.t_ba(),
            p.t_wps(),
            p.t_vss(),
            p.t_acs(),
        ] {
            assert_eq!(t % p.delta, 0, "all time-outs are multiples of Δ");
        }
        assert!(p.t_bc() > p.t_bgp());
        assert!(p.t_ba() > p.t_bc());
        assert!(p.t_wps() > p.t_ba());
        assert!(p.t_vss() > p.t_wps());
        assert!(p.t_acs() > p.t_vss());
        assert!(p.t_tripgen() > p.t_tripsh());
    }

    #[test]
    fn max_thresholds_matches_motivating_example() {
        // n = 8 → (t_s, t_a) = (2, 1): tolerate 2 faults synchronously and 1
        // asynchronously (Section 1 of the paper).
        let p = Params::max_thresholds(8, 10);
        assert_eq!((p.ts, p.ta), (2, 1));
        let p4 = Params::max_thresholds(4, 10);
        assert_eq!((p4.ts, p4.ta), (1, 0));
        let p13 = Params::max_thresholds(13, 10);
        assert_eq!((p13.ts, p13.ta), (4, 0));
        let p14 = Params::max_thresholds(14, 10);
        assert_eq!((p14.ts, p14.ta), (4, 1));
    }

    #[test]
    #[should_panic(expected = "3*t_s + t_a < n")]
    fn invalid_thresholds_rejected() {
        let _ = Params::new(8, 2, 2, 10);
    }

    #[test]
    fn params_from_adversary_structures() {
        use mpc_net::{GeneralAdversary, ThresholdAdversary};
        let p = Params::from_structure(&ThresholdAdversary::new(8, 2, 1), 10);
        assert_eq!((p.n, p.ts, p.ta), (8, 2, 1));
        // A general structure runs at its threshold hull.
        let g = GeneralAdversary::new(8, vec![vec![0], vec![1, 2]], vec![vec![0]]);
        let p = Params::from_structure(&g, 10);
        assert_eq!((p.n, p.ts, p.ta), (8, 2, 1));
    }

    #[test]
    #[should_panic(expected = "feasibility condition")]
    fn infeasible_structure_rejected() {
        use mpc_net::ThresholdAdversary;
        let _ = Params::from_structure(&ThresholdAdversary::new(8, 2, 2), 10);
    }
}
