//! Shared experiment runners for the benchmark harness.
//!
//! Every benchmark binary of this crate (see `benches/`) corresponds to one
//! experiment id of `EXPERIMENTS.md` / DESIGN.md (E1–E10) and regenerates the
//! series backing one of the paper's quantitative claims. The functions here
//! run a protocol inside the deterministic simulator and return the measured
//! communication (bits sent by honest parties), the number of messages, the
//! simulated completion time and the wall-clock time of the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use mpc_algebra::{Fp, Polynomial};
use mpc_core::{CirEval, Circuit, MpcBuilder};
use mpc_net::{
    Backend, CorruptionSet, Metrics, NetConfig, NetworkKind, Protocol, Simulation, Time,
    UniformDelay,
};
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
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    /// Bits communicated by honest parties.
    pub honest_bits: u64,
    /// Messages sent by honest parties.
    pub honest_messages: u64,
    /// Simulated time at which the run completed.
    pub completed_at: Time,
    /// Wall-clock milliseconds spent simulating.
    pub wall_ms: f64,
    /// Events the simulator processed.
    pub events_processed: u64,
    /// Wire-frame events dispatched (0 when frame coalescing is off).
    pub frames_sent: u64,
    /// Largest pending-event count observed at a time-slice boundary.
    pub max_queue_depth: u64,
    /// Simulator worker threads the run was configured with.
    pub worker_threads: u64,
    /// Same-time batch-width histogram (`hist[i]` = slices whose width fell
    /// in `[2^i, 2^(i+1))`).
    pub batch_width_hist: Vec<u64>,
    /// Timer expiries that were real `recv_timeout` deadlines (threaded
    /// backend only; the simulator reports 0).
    pub timeouts_fired: u64,
    /// Effective packed-evaluation width `ℓ` of the run (0 = scalar engine).
    pub packed_width: u64,
    /// Publicly opened values per multiplication layer (first honest party;
    /// empty on the per-gate reference path).
    pub values_opened_by_layer: Vec<u64>,
    /// Connections the TCP supervisors re-established (tcp backend only).
    pub reconnects: u64,
    /// Failed dial attempts across all links (tcp backend only).
    pub dial_retries: u64,
    /// Records retransmitted after reconnects (tcp backend only).
    pub frames_replayed: u64,
    /// Bytes abandoned to stream resyncs (tcp backend only).
    pub bytes_resynced: u64,
}

impl Measurement {
    /// Builds a measurement from a run's [`Metrics`], its simulated
    /// completion time and the wall-clock start instant.
    pub fn capture(metrics: &Metrics, completed_at: Time, start: Instant) -> Self {
        Measurement {
            honest_bits: metrics.honest_bits,
            honest_messages: metrics.honest_messages,
            completed_at,
            wall_ms: start.elapsed().as_secs_f64() * 1000.0,
            events_processed: metrics.events_processed,
            frames_sent: metrics.frames_sent,
            max_queue_depth: metrics.max_queue_depth,
            worker_threads: metrics.worker_threads,
            batch_width_hist: metrics.batch_width_hist.clone(),
            timeouts_fired: metrics.timeouts_fired,
            packed_width: metrics.packed_width,
            values_opened_by_layer: metrics.values_opened_by_layer.clone(),
            reconnects: metrics.reconnects,
            dial_retries: metrics.dial_retries,
            frames_replayed: metrics.frames_replayed,
            bytes_resynced: metrics.bytes_resynced,
        }
    }

    /// Serialises the measurement as one JSON object, keyed by the
    /// experiment name and the sweep coordinates `(n, ℓ)`.
    pub fn to_json(&self, experiment: &str, n: usize, ell: usize) -> String {
        let hist = self
            .batch_width_hist
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let opened = self
            .values_opened_by_layer
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"experiment\":\"{experiment}\",\"n\":{n},\"ell\":{ell},\
             \"honest_bits\":{},\"honest_messages\":{},\"completed_at\":{},\
             \"wall_ms\":{:.3},\"events\":{},\"frames\":{},\"max_queue_depth\":{},\
             \"threads\":{},\"packed_width\":{},\"values_opened\":[{opened}],\
             \"reconnects\":{},\"dial_retries\":{},\"frames_replayed\":{},\
             \"bytes_resynced\":{},\"batch_width_hist\":[{hist}]}}",
            self.honest_bits,
            self.honest_messages,
            self.completed_at,
            self.wall_ms,
            self.events_processed,
            self.frames_sent,
            self.max_queue_depth,
            self.worker_threads,
            self.packed_width,
            self.reconnects,
            self.dial_retries,
            self.frames_replayed,
            self.bytes_resynced,
        )
    }
}

/// Env-gated machine-readable series writer: when `BENCH_JSON=<dir>` is set,
/// every experiment binary dumps its measurement series as
/// `<dir>/BENCH_<experiment>.json` (a JSON array of [`Measurement::to_json`]
/// records). Unset, it is a no-op — the human-readable tables on stdout are
/// unaffected either way.
///
/// This is the machine-readable perf trajectory later PRs are judged
/// against: CI uploads the files as artifacts.
#[derive(Debug)]
pub struct JsonReport {
    experiment: String,
    records: Vec<String>,
}

impl JsonReport {
    /// A report for one experiment id (e.g. `"e3_bc"`).
    pub fn new(experiment: &str) -> Self {
        JsonReport {
            experiment: experiment.to_string(),
            records: Vec::new(),
        }
    }

    /// The output directory, if the `BENCH_JSON` gate is set.
    pub fn output_dir() -> Option<std::path::PathBuf> {
        std::env::var_os("BENCH_JSON").map(std::path::PathBuf::from)
    }

    /// Records one measurement under this report's experiment id.
    pub fn push(&mut self, n: usize, ell: usize, m: &Measurement) {
        self.records.push(m.to_json(&self.experiment, n, ell));
    }

    /// Records one measurement under a sub-series label
    /// (`<experiment>/<label>`), for binaries that sweep several variants.
    pub fn push_labeled(&mut self, label: &str, n: usize, ell: usize, m: &Measurement) {
        self.records
            .push(m.to_json(&format!("{}/{label}", self.experiment), n, ell));
    }

    /// Writes `BENCH_<experiment>.json` if `BENCH_JSON` is set (also invoked
    /// on drop). Errors are reported to stderr, never panicked on — a bench
    /// run must not fail because an artifact directory is missing.
    pub fn finish(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let Some(dir) = Self::output_dir() else {
            self.records.clear();
            return;
        };
        let body = format!("[\n  {}\n]\n", self.records.join(",\n  "));
        self.records.clear();
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        let result = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
        match result {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("BENCH_JSON: could not write {}: {e}", path.display()),
        }
    }
}

impl Drop for JsonReport {
    fn drop(&mut self) {
        self.finish();
    }
}

fn measure<F: FnOnce() -> (Metrics, Time)>(f: F) -> Measurement {
    let start = Instant::now();
    let (metrics, completed_at) = f();
    Measurement::capture(&metrics, completed_at, start)
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
/// (experiment E4).
pub fn run_ba(n: usize, unanimous: bool, kind: NetworkKind) -> Measurement {
    run_ba_threads(n, unanimous, kind, None)
}

/// [`run_ba`] with an explicit simulator worker-thread count (`None` defers
/// to `MPC_THREADS`). Used by the E11 scaling sweep.
pub fn run_ba_threads(
    n: usize,
    unanimous: bool,
    kind: NetworkKind,
    threads: Option<usize>,
) -> Measurement {
    let params = Params::max_thresholds(n, 10);
    measure(|| {
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                let input = if unanimous { true } else { i % 2 == 0 };
                Box::new(Ba::new(params.ts, params, Some(input))) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let mut cfg = NetConfig::for_kind(n, kind);
        if let Some(t) = threads {
            cfg = cfg.with_threads(t);
        }
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

/// Runs a full `Π_CirEval` evaluation of `circuit` (experiments E8–E10).
/// Returns the measurement and the output value.
pub fn run_cireval(
    n: usize,
    circuit: &Circuit,
    kind: NetworkKind,
    corrupt: &[usize],
    seed: u64,
) -> (Measurement, Fp) {
    run_cireval_threads(n, circuit, kind, corrupt, seed, None)
}

/// [`run_cireval`] with an explicit simulator worker-thread count (`None`
/// defers to `MPC_THREADS`). Used by the E11 scaling sweep.
pub fn run_cireval_threads(
    n: usize,
    circuit: &Circuit,
    kind: NetworkKind,
    corrupt: &[usize],
    seed: u64,
    threads: Option<usize>,
) -> (Measurement, Fp) {
    let params = Params::max_thresholds(n, 10);
    let inputs: Vec<u64> = (0..n as u64).map(|i| i + 2).collect();
    let start = Instant::now();
    let mut builder = MpcBuilder::new(n, params.ts, params.ta)
        .network(kind)
        .seed(seed)
        .inputs(&inputs)
        .corrupt(corrupt);
    if let Some(t) = threads {
        builder = builder.threads(t);
    }
    let result = builder.run(circuit).expect("benchmark run must complete");
    let m = Measurement::capture(&result.metrics, result.finished_at, start);
    (m, result.output)
}

/// [`run_cireval`] with per-layer or per-gate Beaver openings. Used by the
/// E12 batching experiment to compare the two opening modes.
pub fn run_cireval_batching(
    n: usize,
    circuit: &Circuit,
    kind: NetworkKind,
    seed: u64,
    per_gate: bool,
) -> (Measurement, Fp) {
    let params = Params::max_thresholds(n, 10);
    let inputs: Vec<u64> = (0..n as u64).map(|i| i + 2).collect();
    let start = Instant::now();
    let result = MpcBuilder::new(n, params.ts, params.ta)
        .network(kind)
        .seed(seed)
        .inputs(&inputs)
        .per_gate_openings(per_gate)
        .run(circuit)
        .expect("benchmark run must complete");
    let m = Measurement::capture(&result.metrics, result.finished_at, start);
    (m, result.output)
}

/// [`run_cireval`] on an explicit transport backend. For the thread-per-party
/// backends, `tick_micros` sets the real duration of one logical tick
/// (`0` defers to `MPC_TICK_US`); wall-clock time then includes genuine
/// tick pacing, so throughput is dominated by the simulated schedule
/// rather than raw compute. Returns the per-party honest-bit accounting
/// alongside the measurement — the transport experiment (E13) compares it
/// across backends.
pub fn run_cireval_transport(
    n: usize,
    circuit: &Circuit,
    kind: NetworkKind,
    seed: u64,
    backend: Backend,
    tick_micros: u64,
) -> (Measurement, Fp, Vec<u64>) {
    let params = Params::max_thresholds(n, 10);
    let inputs: Vec<u64> = (0..n as u64).map(|i| i + 2).collect();
    let start = Instant::now();
    let mut builder = MpcBuilder::new(n, params.ts, params.ta)
        .network(kind)
        .seed(seed)
        .inputs(&inputs)
        .transport(backend);
    if backend != Backend::Simulator && tick_micros > 0 {
        builder = builder.tick_micros(tick_micros);
    }
    let result = builder.run(circuit).expect("benchmark run must complete");
    let m = Measurement::capture(&result.metrics, result.finished_at, start);
    let by_party = result.metrics.honest_bits_by_party.clone();
    (m, result.output, by_party)
}

/// [`run_cireval`] on the packed (Franklin–Yung SIMD) engine at width `ell`
/// (`0` = scalar baseline), on an explicit transport backend. Thresholds are
/// pinned at `t_s = t_a = 1` rather than `Params::max_thresholds` so the
/// packing-width sweep `ℓ ∈ {1, …, n − 3}` stays feasible at every `n` —
/// the E14 experiment varies `ℓ` at fixed resilience.
pub fn run_cireval_packed(
    n: usize,
    circuit: &Circuit,
    kind: NetworkKind,
    seed: u64,
    ell: usize,
    backend: Backend,
) -> (Measurement, Fp) {
    let inputs: Vec<u64> = (0..n as u64).map(|i| i + 2).collect();
    let start = Instant::now();
    // The threaded backend's column-distinct link sampler needs
    // `Δ − 2 ≥ n − 1`; grow Δ with n so the sweep's larger party counts run
    // on both backends.
    let delta = (n as Time + 2).max(NetConfig::DEFAULT_DELTA);
    let result = MpcBuilder::new(n, 1, 1)
        .network(kind)
        .delta(delta)
        .seed(seed)
        .inputs(&inputs)
        .packing(ell)
        .transport(backend)
        .run(circuit)
        .expect("benchmark run must complete");
    let m = Measurement::capture(&result.metrics, result.finished_at, start);
    (m, result.output)
}

/// Runs a full evaluation on an explicitly fast asynchronous network
/// (actual delay `δ ≪ Δ`), used by experiment E10 to demonstrate
/// responsiveness.
pub fn run_cireval_fast_async(
    n: usize,
    circuit: &Circuit,
    max_delay: Time,
    seed: u64,
) -> (Measurement, Fp) {
    let params = Params::max_thresholds(n, 10);
    let inputs: Vec<u64> = (0..n as u64).map(|i| i + 2).collect();
    let start = Instant::now();
    let result = MpcBuilder::new(n, params.ts, params.ta)
        .network(NetworkKind::Asynchronous)
        .scheduler(Box::new(UniformDelay {
            min: 1,
            max: max_delay,
        }))
        .seed(seed)
        .inputs(&inputs)
        .run(circuit)
        .expect("benchmark run must complete");
    let m = Measurement::capture(&result.metrics, result.finished_at, start);
    (m, result.output)
}

/// Re-export used by the benchmark binaries to double-check outputs.
pub fn expected_clear(n: usize, circuit: &Circuit) -> Fp {
    let inputs: Vec<Fp> = (0..n as u64).map(|i| Fp::from_u64(i + 2)).collect();
    circuit.evaluate_clear(&inputs)
}

/// Keeps `CirEval` a referenced type so the builder-based runners above stay
/// aligned with the lower-level API (compile-time check only).
#[allow(dead_code)]
fn _type_check(p: &CirEval) -> &CirEval {
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_produce_nonzero_measurements() {
        let m = run_acast(4, 4);
        assert!(m.honest_bits > 0 && m.completed_at > 0);
        let m = run_bc(4, 1, NetworkKind::Synchronous);
        assert!(m.honest_bits > 0);
    }

    #[test]
    fn cireval_runner_matches_cleartext() {
        let circuit = Circuit::product_of_inputs(4);
        let (_, out) = run_cireval(4, &circuit, NetworkKind::Synchronous, &[], 9);
        assert_eq!(out, expected_clear(4, &circuit));
    }
}
