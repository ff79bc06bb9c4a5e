//! Shared experiment runners for the benchmark harness.
//!
//! Every benchmark binary of this crate (see `benches/`) corresponds to one
//! experiment id of DESIGN.md's "Experiment map" (E1–E14) and prints the
//! table backing one of the paper's quantitative claims. The functions here
//! run a protocol inside the deterministic simulator and return the run's
//! [`Metrics`] with its simulated completion time and wall-clock time. The
//! repo's perf record is the `ledger` binary (`BENCHMARK.json`), not these
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use mpc_algebra::{Fp, Polynomial};
use mpc_core::{Circuit, MpcBuilder};
use mpc_net::{CorruptionSet, Metrics, NetConfig, NetworkKind, Protocol, Simulation, Time};
use mpc_protocols::acast::Acast;
use mpc_protocols::acs::Acs;
use mpc_protocols::ba::Ba;
use mpc_protocols::bc::Bc;
use mpc_protocols::vss::Vss;
use mpc_protocols::wps::Wps;
use mpc_protocols::{BcValue, Msg, Params};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measurements of one protocol run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The run's metrics: bits, messages, events, transport counters.
    pub metrics: Metrics,
    /// Simulated time at which the run completed.
    pub completed_at: Time,
    /// Wall-clock milliseconds the run took.
    pub wall_ms: f64,
}

impl Measurement {
    fn capture(metrics: Metrics, completed_at: Time, start: Instant) -> Self {
        Measurement {
            metrics,
            completed_at,
            wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        }
    }
}

fn measure<F: FnOnce() -> (Metrics, Time)>(f: F) -> Measurement {
    let start = Instant::now();
    let (metrics, completed_at) = f();
    Measurement::capture(metrics, completed_at, start)
}

/// Runs one Bracha A-cast of `ell` field elements among `n` parties
/// (synchronous network) and reports its cost (experiment E2).
pub fn run_acast(n: usize, ell: usize) -> Measurement {
    let t = (n - 1) / 3;
    measure(|| {
        let payload = BcValue::Value(vec![Fp::from_u64(7); ell]);
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let a = if i == 0 {
                    Acast::new_sender(0, n, t, payload.clone())
                } else {
                    Acast::new(0, n, t)
                };
                Box::new(a) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
        sim.run_until(10_000, |s| {
            (0..n).all(|i| s.party_as::<Acast>(i).unwrap().output.is_some())
        });
        (sim.metrics().clone(), sim.now())
    })
}

/// Runs one `Π_BC` broadcast among `n` parties and reports its cost and the
/// regular-mode output time (experiment E3).
pub fn run_bc(n: usize, ell: usize, kind: NetworkKind) -> Measurement {
    let params = Params::max_thresholds(n, 10);
    measure(|| {
        let payload = BcValue::Value(vec![Fp::from_u64(3); ell]);
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let bc = if i == 0 {
                    Bc::new_sender(0, params.ts, params, payload.clone())
                } else {
                    Bc::new(0, params.ts, params)
                };
                Box::new(bc) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let cfg = NetConfig::for_kind(n, kind);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        sim.run_until(params.t_bc() * 20, |s| {
            (0..n).all(|i| s.party_as::<Bc>(i).unwrap().value().is_some())
        });
        (sim.metrics().clone(), sim.now())
    })
}

/// Runs one `Π_BA` instance among `n` parties with the given inputs
/// (experiments E4 and E11) on `threads` simulator worker threads.
pub fn run_ba(n: usize, unanimous: bool, kind: NetworkKind, threads: usize) -> Measurement {
    let params = Params::max_thresholds(n, 10);
    measure(|| {
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let input = if unanimous { true } else { i % 2 == 0 };
                Box::new(Ba::new(params.ts, params, Some(input))) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let cfg = NetConfig::for_kind(n, kind).with_threads(threads);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        sim.run_until(params.t_ba() * 50, |s| {
            (0..n).all(|i| s.party_as::<Ba>(i).unwrap().output.is_some())
        });
        (sim.metrics().clone(), sim.now())
    })
}

/// Runs one `Π_WPS` instance with an honest dealer sharing `l` polynomials
/// (experiment E5).
pub fn run_wps(n: usize, l: usize) -> Measurement {
    let params = Params::max_thresholds(n, 10);
    measure(|| {
        let mut rng = StdRng::seed_from_u64(1);
        let polys: Vec<Polynomial> = (0..l)
            .map(|i| {
                Polynomial::random_with_constant_term(&mut rng, params.ts, Fp::from_u64(i as u64))
            })
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
        sim.run_until(params.t_wps() * 4, |s| {
            (0..n).all(|i| s.party_as::<Wps>(i).unwrap().shares.is_some())
        });
        (sim.metrics().clone(), sim.now())
    })
}

/// Runs one `Π_VSS` instance with an honest dealer sharing `l` polynomials
/// (experiment E6).
pub fn run_vss(n: usize, l: usize) -> Measurement {
    let params = Params::max_thresholds(n, 10);
    measure(|| {
        let mut rng = StdRng::seed_from_u64(2);
        let polys: Vec<Polynomial> = (0..l)
            .map(|i| {
                Polynomial::random_with_constant_term(&mut rng, params.ts, Fp::from_u64(i as u64))
            })
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
        sim.run_until(params.t_vss() * 4, |s| {
            (0..n).all(|i| s.party_as::<Vss>(i).unwrap().shares.is_some())
        });
        (sim.metrics().clone(), sim.now())
    })
}

/// Runs one `Π_ACS` instance where every party shares `l` polynomials
/// (experiment E7).
pub fn run_acs(n: usize, l: usize) -> Measurement {
    let params = Params::max_thresholds(n, 10);
    measure(|| {
        let mut rng = StdRng::seed_from_u64(3);
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let polys: Vec<Polynomial> = (0..l)
                    .map(|_| {
                        Polynomial::random_with_constant_term(
                            &mut rng,
                            params.ts,
                            Fp::from_u64(i as u64),
                        )
                    })
                    .collect();
                Box::new(Acs::new(params, polys)) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
        sim.run_until(params.t_acs() * 6, |s| {
            (0..n).all(|i| s.party_as::<Acs>(i).unwrap().ready())
        });
        (sim.metrics().clone(), sim.now())
    })
}

/// The builder every `Π_CirEval` experiment starts from: `n` parties at
/// the maximal thresholds for Δ = 10, inputs `i + 2`, the given network
/// kind and seed. Experiments add their own knobs before [`run_cireval`].
pub fn cireval_builder(n: usize, kind: NetworkKind, seed: u64) -> MpcBuilder {
    let params = Params::max_thresholds(n, 10);
    MpcBuilder::new(n, params.ts, params.ta)
        .network(kind)
        .seed(seed)
        .inputs(&clear_inputs(n))
}

/// The private inputs of every `Π_CirEval` experiment: party `i` holds
/// `i + 2`.
pub fn clear_inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i + 2).collect()
}

/// Runs a full `Π_CirEval` evaluation of `circuit` (experiments E1 and
/// E8–E14). Returns the measurement and the output value.
pub fn run_cireval(builder: MpcBuilder, circuit: &Circuit) -> (Measurement, Fp) {
    let start = Instant::now();
    let result = builder.run(circuit).expect("benchmark run must complete");
    let m = Measurement::capture(result.metrics, result.finished_at, start);
    (m, result.output)
}

/// The cleartext value of `circuit` on [`clear_inputs`], which every
/// experiment checks its outputs against.
pub fn expected_clear(n: usize, circuit: &Circuit) -> Fp {
    let inputs: Vec<Fp> = clear_inputs(n).into_iter().map(Fp::from_u64).collect();
    circuit.evaluate_clear(&inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_produce_nonzero_measurements() {
        let m = run_acast(4, 4);
        assert!(m.metrics.honest_bits > 0 && m.completed_at > 0);
        let m = run_bc(4, 1, NetworkKind::Synchronous);
        assert!(m.metrics.honest_bits > 0);
    }

    #[test]
    fn cireval_runner_matches_cleartext() {
        let circuit = Circuit::product_of_inputs(4);
        let builder = cireval_builder(4, NetworkKind::Synchronous, 9);
        let (_, out) = run_cireval(builder, &circuit);
        assert_eq!(out, expected_clear(4, &circuit));
    }
}
