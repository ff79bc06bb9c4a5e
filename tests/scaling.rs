//! The paper's cost and deadline claims, checked on honest runs.
//!
//! The communication tests assert the shape of Thms 4.8 and 4.16
//! (experiments E5–E7). Three identities are exact: the preprocessing bits
//! of Thm 6.5 are affine in `c_M` with a pinned slope (E8), a synchronous
//! `Π_CirEval` completes at `(65 + 21·t_s)·Δ + (9 + D_M)·δ` (E9 and E10's
//! responsiveness; DESIGN.md "Deadlines"), and its SBA deliveries are
//! `7·(2n + 1)(t_s + 1)·n` (DESIGN.md "Lock-step broadcast groups").

use bobw_mpc::algebra::{Fp, Polynomial};
use bobw_mpc::core::cireval::CIREVAL;
use bobw_mpc::core::{CirEval, Circuit, MpcBuilder, MpcRunResult};
use bobw_mpc::net::{
    CorruptionSet, FixedDelay, NetConfig, NetworkKind, Protocol, Simulation, Time, TranscriptEvent,
};
use bobw_mpc::protocols::vss::Vss;
use bobw_mpc::protocols::wps::Wps;
use bobw_mpc::protocols::{Msg, Params};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn wps_bits(n: usize, l: usize) -> u64 {
    let params = Params::max_thresholds(n, 10);
    let mut rng = StdRng::seed_from_u64(1);
    let polys: Vec<Polynomial> = (0..l)
        .map(|i| Polynomial::random_with_constant_term(&mut rng, params.ts, Fp::from_u64(i as u64)))
        .collect();
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| {
            let w = if i == 0 {
                Wps::new_dealer(0, params, polys.clone())
            } else {
                Wps::new(0, params, l)
            };
            Box::new(w) as Box<dyn Protocol<Msg>>
        })
        .collect();
    let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
    let done = sim.run_until(params.t_wps() * 4, |s| {
        (0..n).all(|i| s.party_as::<Wps>(i).unwrap().shares.is_some())
    });
    assert!(done);
    sim.metrics().honest_bits
}

fn vss_bits(n: usize, l: usize) -> u64 {
    let params = Params::max_thresholds(n, 10);
    let mut rng = StdRng::seed_from_u64(2);
    let polys: Vec<Polynomial> = (0..l)
        .map(|i| Polynomial::random_with_constant_term(&mut rng, params.ts, Fp::from_u64(i as u64)))
        .collect();
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| {
            let v = if i == 0 {
                Vss::new_dealer(0, params, polys.clone())
            } else {
                Vss::new(0, params, l)
            };
            Box::new(v) as Box<dyn Protocol<Msg>>
        })
        .collect();
    let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
    let done = sim.run_until(params.t_vss() * 4, |s| {
        (0..n).all(|i| s.party_as::<Vss>(i).unwrap().shares.is_some())
    });
    assert!(done);
    sim.metrics().honest_bits
}

#[test]
fn wps_cost_is_affine_in_l() {
    // Theorem 4.8: O(n² L + n⁴) — doubling L far less than doubles the cost
    // for small L (the n⁴ term dominates), and the marginal cost per extra
    // polynomial is roughly constant.
    let n = 4;
    let b1 = wps_bits(n, 1);
    let b8 = wps_bits(n, 8);
    let b16 = wps_bits(n, 16);
    assert!(b8 > b1);
    assert!(b16 > b8);
    let marginal_low = (b8 - b1) as f64 / 7.0;
    let marginal_high = (b16 - b8) as f64 / 8.0;
    assert!(
        (marginal_low - marginal_high).abs() / marginal_high < 0.5,
        "per-polynomial marginal cost should be roughly constant: {marginal_low} vs {marginal_high}"
    );
    assert!(
        b16 < b1 * 16,
        "cost must be far from linear in L (fixed n⁴ term dominates)"
    );
}

#[test]
fn vss_costs_about_n_times_wps() {
    // Π_VSS runs one Π_WPS instance per party plus the same vote/BA overhead:
    // its cost must sit between n/2× and 3n× the single-WPS cost.
    let n = 4;
    let wps = wps_bits(n, 1) as f64;
    let vss = vss_bits(n, 1) as f64;
    let ratio = vss / wps;
    assert!(
        ratio > n as f64 / 2.0 && ratio < 3.0 * n as f64,
        "VSS/WPS cost ratio {ratio:.1} should be around n = {n}"
    );
}

#[test]
fn communication_grows_with_n() {
    // More parties → strictly more honest communication for the same task.
    assert!(wps_bits(7, 1) > wps_bits(4, 1));
    assert!(vss_bits(5, 1) > vss_bits(4, 1));
}

/// An honest `Π_CirEval` run of `circuit` on the simulator's scalar engine
/// (the builder's defaults), with every message delayed by `delay` ticks, or
/// by the network kind's default schedule when `delay` is `None`.
fn cireval(
    (n, ts, ta): (usize, usize, usize),
    circuit: &Circuit,
    delta: Time,
    kind: NetworkKind,
    delay: Option<Time>,
) -> MpcRunResult {
    let inputs: Vec<u64> = (2..n as u64 + 2).collect();
    let mut builder = MpcBuilder::new(n, ts, ta)
        .delta(delta)
        .network(kind)
        .inputs(&inputs);
    if let Some(delay) = delay {
        builder = builder.scheduler(Box::new(FixedDelay(delay)));
    }
    let result = builder.run(circuit).expect("honest run completes");
    let clear: Vec<Fp> = inputs.into_iter().map(Fp::from_u64).collect();
    assert_eq!(result.output, circuit.evaluate_clear(&clear));
    result
}

#[test]
fn synchronous_completion_tick_is_an_identity() {
    // Every honest run whose messages take δ ≤ Δ ends at
    // (65 + 21·t_s)·Δ + (9 + D_M)·δ: the time-outs up to the ACS agreements
    // cost Δ each, the message-driven rest δ each (DESIGN.md "Deadlines").
    // Theorem 7.1 bounds the same tick by (120n + D_M + 6k − 20)·Δ; n has
    // no term here because the phase-king SBA runs t_s + 1 phases. A `None`
    // delay is the synchronous network's own schedule, the δ = Δ case.
    use NetworkKind::{Asynchronous, Synchronous};
    let grid = [
        ((4, 1, 0), 1, 10, Synchronous, None),
        ((4, 1, 0), 1, 10, Synchronous, Some(1)),
        ((4, 1, 0), 3, 5, Synchronous, Some(2)),
        ((4, 1, 0), 3, 20, Synchronous, Some(3)),
        ((4, 1, 0), 2, 20, Synchronous, Some(20)),
        ((4, 1, 0), 2, 10, Asynchronous, Some(2)),
        ((5, 1, 1), 1, 20, Synchronous, Some(1)),
        ((5, 1, 1), 3, 10, Synchronous, None),
        ((7, 1, 1), 2, 10, Synchronous, Some(2)),
        ((7, 2, 0), 1, 5, Synchronous, Some(2)),
        ((7, 2, 0), 3, 10, Synchronous, None),
        ((8, 2, 1), 1, 10, Synchronous, Some(3)),
        ((10, 3, 0), 1, 10, Synchronous, Some(1)),
    ];
    for ((n, ts, ta), depth, delta, kind, delay) in grid {
        let circuit = Circuit::layered(n, 2, depth);
        let finished_at = cireval((n, ts, ta), &circuit, delta, kind, delay).finished_at;
        let delay_or_delta = delay.unwrap_or(delta);
        let (ts, depth) = (ts as Time, depth as Time);
        assert_eq!(
            finished_at,
            (65 + 21 * ts) * delta + (9 + depth) * delay_or_delta,
            "(n, t_s, t_a) = ({n}, {ts}, {ta}), D_M = {depth}, Δ = {delta}, \
             {kind:?}, delay {delay:?}"
        );
    }
}

#[test]
fn preprocessing_bits_are_affine_in_the_multiplication_count() {
    // Theorem 6.5: a circuit-independent setup plus a fixed cost per
    // multiplication gate. `layered(n, w, 1)` has c_M = w. The message count
    // does not move with c_M at all: the triples ride in one `Π_ACS`, and
    // every wave opens its batch in one message per party. The bits grow by
    // exactly one slope per gate. The bases moved (n = 4: 8 037 760 →
    // 4 558 720; n = 5: 23 849 000 → 12 708 200) when `Π_BC`'s SBA began to
    // agree on "delivered" instead of on the value (DESIGN.md "Substitution
    // S2"); the slopes and message counts did not. The bases and message
    // counts moved again (n = 4: 4 558 720 → 3 953 920 bits, 28 464 →
    // 19 752 messages; n = 5: 12 708 200 → 11 309 000 bits, 71 675 → 51 545
    // messages) when the root began to run one SBA cluster per start tick
    // (DESIGN.md "Lock-step broadcast groups"); the slopes did not.
    let cases = [
        // ((n, t_s, t_a), honest messages, bits at c_M = 1, bits per gate)
        ((4, 1, 0), 19_752, 3_953_920, 659_968),
        ((5, 1, 1), 51_545, 11_309_000, 1_624_000),
    ];
    for ((n, ts, ta), messages, base, slope) in cases {
        for c_m in [1usize, 2, 3, 8] {
            let circuit = Circuit::layered(n, c_m, 1);
            assert_eq!(circuit.mult_count(), c_m);
            let metrics =
                cireval((n, ts, ta), &circuit, 10, NetworkKind::Synchronous, None).metrics;
            assert_eq!(metrics.honest_messages, messages, "n = {n}, c_M = {c_m}");
            assert_eq!(
                metrics.honest_bits,
                base + (c_m as u64 - 1) * slope,
                "n = {n}, c_M = {c_m}"
            );
        }
    }
}

#[test]
fn synchronous_sba_deliveries_are_seven_clusters() {
    // The Π_BCs of an evaluation start at seven ticks (the three of every
    // Π_WPS, the three of every Π_VSS and the Π_BAs of both Π_ACS), and the
    // root runs one SBA cluster per tick: per phase, every party sends a
    // round-1 and a round-2 envelope to all, and the king one more.
    for (n, ts, ta) in [(4, 1, 0), (5, 1, 1), (7, 2, 0), (8, 2, 1)] {
        let params = Params::new(n, ts, ta, NetConfig::DEFAULT_DELTA);
        let circuit = Circuit::layered(n, 1, 1);
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let party = CirEval::new(params, circuit.clone(), Fp::from_u64(i as u64 + 2));
                Box::new(party) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
        sim.record_transcript();
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
        let output = |s: &Simulation<Msg>, i| s.party_as::<CirEval>(i).unwrap().output;
        assert!(sim.run_until(horizon, |s| (0..n).all(|i| output(s, i).is_some())));
        let sba = sim.transcript().iter().filter(|entry| {
            let TranscriptEvent::Deliver { path, .. } = &entry.event else {
                return false;
            };
            let name = CIREVAL.describe(n, path).expect("an instance");
            name.starts_with("CirEval/Sba[")
        });
        assert_eq!(
            sba.count(),
            7 * (2 * n + 1) * (ts + 1) * n,
            "(n, t_s, t_a) = ({n}, {ts}, {ta})"
        );
    }
}
