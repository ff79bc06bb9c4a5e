//! The ledger's workloads: five fixed `MpcBuilder` configurations, each with
//! every builder knob set explicitly (the product reads ~20 `MPC_*`
//! environment knobs for anything left unset; `main` additionally refuses to
//! start when one is present), plus the output check every evaluation goes
//! through.

use std::time::{Duration, Instant};

use mpc_algebra::Fp;
use mpc_core::{Circuit, MpcBuilder, MpcRunResult};
use mpc_net::{
    Backend, FaultPlan, GarbleBytes, LinkDelays, Metrics, NetConfig, NetworkKind, PartyId, Time,
};

use crate::stats;

/// Real duration of one logical tick on the TCP backend, in microseconds.
pub const TICK_US: u64 = 100;
/// The wall-clock backends' zero-progress deadline (the product default).
pub const WEDGE: Duration = Duration::from_secs(30);
/// Multiplier on `Params::horizon_for_depth` (the builder default).
pub const HORIZON_FACTOR: u64 = 8;
/// Seed of the TCP workload's frozen per-link latency matrix. The matrix is
/// part of the workload, not of the run: with it following `--seed`, the
/// per-tick batching — and with it CPU and wall — moved by 13 % between
/// seeds, more than the regression bound.
const LINK_SEED: u64 = 1;

/// One workload: a full MPC evaluation at a fixed configuration.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub ts: usize,
    pub ta: usize,
    /// The circuit is `Circuit::layered(n, width, depth)`.
    pub width: usize,
    pub depth: usize,
    pub kind: NetworkKind,
    /// Packed-evaluation width `ℓ` (0 = scalar engine).
    pub packing: usize,
    /// Parties that are corrupt and garble every byte they send.
    pub garbled: &'static [PartyId],
    pub backend: Backend,
}

const SYNC_SCALAR_N8: Spec = Spec {
    name: "sync-scalar-n8",
    n: 8,
    ts: 2,
    ta: 1,
    width: 8,
    depth: 3,
    kind: NetworkKind::Synchronous,
    packing: 0,
    garbled: &[],
    backend: Backend::Simulator,
};

/// The five workloads, in the order of `BENCHMARK.json`. n, the circuit and
/// the set are fixed: a budget squeeze cuts reps, never these.
pub const SUITE: [Spec; 5] = [
    SYNC_SCALAR_N8,
    Spec {
        name: "async-scalar-n8",
        kind: NetworkKind::Asynchronous,
        ..SYNC_SCALAR_N8
    },
    Spec {
        name: "sync-packed-n10",
        n: 10,
        ts: 1,
        ta: 1,
        width: 32,
        depth: 4,
        packing: 4,
        ..SYNC_SCALAR_N8
    },
    Spec {
        name: "sync-garble-n8",
        garbled: &[6, 7],
        ..SYNC_SCALAR_N8
    },
    Spec {
        name: "sync-tcp-n5",
        n: 5,
        ts: 1,
        ta: 1,
        backend: Backend::Tcp,
        ..SYNC_SCALAR_N8
    },
];

/// Looks a suite workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    SUITE.iter().copied().find(|s| s.name == name)
}

impl Spec {
    pub fn circuit(&self) -> Circuit {
        Circuit::layered(self.n, self.width, self.depth)
    }

    /// Party `i`'s private input: `i + 1 + seed`, i.e. `i + 2` at the
    /// default seed 1.
    pub fn inputs(&self, seed: u64) -> Vec<u64> {
        (0..self.n as u64).map(|i| i + 1 + seed).collect()
    }

    /// The same evaluation on the simulator (the TCP workload's oracle).
    pub fn on_simulator(&self) -> Spec {
        Spec {
            backend: Backend::Simulator,
            ..*self
        }
    }

    pub fn is_sync(&self) -> bool {
        self.kind == NetworkKind::Synchronous
    }

    /// The wall-clock backends' per-link latency matrix (the simulator draws
    /// per-message delays from the run's seed instead).
    pub fn link_delays(&self) -> LinkDelays {
        LinkDelays::for_kind(self.n, self.kind, NetConfig::DEFAULT_DELTA, LINK_SEED)
    }

    /// The builder for this workload. Every knob is set, so no `MPC_*`
    /// default can reach the run.
    pub fn builder(&self, seed: u64) -> MpcBuilder {
        let mut b = MpcBuilder::new(self.n, self.ts, self.ta)
            .network(self.kind)
            .seed(seed)
            .delta(NetConfig::DEFAULT_DELTA)
            .inputs(&self.inputs(seed))
            .corrupt(self.garbled)
            .fault_plan(FaultPlan::none())
            .chaos_plan(FaultPlan::none())
            .wedge_timeout(WEDGE)
            .horizon_factor(HORIZON_FACTOR)
            .threads(1)
            .frames(true)
            .per_gate_openings(false)
            .packing(self.packing)
            .transport(self.backend)
            .tick_micros(TICK_US)
            .drain(false);
        // The simulator ignores the matrix (and `for_kind` cannot build a
        // synchronous one at n = 10, Δ = 10).
        if self.backend != Backend::Simulator {
            b = b.link_delays(self.link_delays());
        }
        if !self.garbled.is_empty() {
            b = b.byzantine_strategy(Box::new(GarbleBytes));
        }
        b
    }

    /// Checks a completed run: the output equals the cleartext evaluation
    /// over the agreed input subset (other inputs zeroed), `|CS| ≥ n − t_s`,
    /// and in a synchronous network every honest party's input is in `CS`.
    pub fn check(&self, circuit: &Circuit, seed: u64, run: &Observed) -> Result<(), String> {
        let cs = &run.input_subset;
        if cs.len() < self.n - self.ts {
            return Err(format!(
                "|CS| = {} < n - t_s = {}",
                cs.len(),
                self.n - self.ts
            ));
        }
        if self.is_sync() {
            if let Some(missing) =
                (0..self.n).find(|i| !self.garbled.contains(i) && !cs.contains(i))
            {
                return Err(format!("honest party {missing} is missing from CS {cs:?}"));
            }
        }
        let inputs: Vec<Fp> = self
            .inputs(seed)
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if cs.contains(&i) {
                    Fp::from_u64(x)
                } else {
                    Fp::ZERO
                }
            })
            .collect();
        let expected = circuit.evaluate_clear(&inputs);
        if run.output != expected {
            return Err(format!(
                "output {} != cleartext {} over CS {cs:?}",
                run.output.as_u64(),
                expected.as_u64()
            ));
        }
        Ok(())
    }
}

/// What one evaluation computed, however it was driven (`MpcBuilder::run` or
/// the trace module's hand-wired net). Two runs of one seed must compare
/// equal: `Metrics`' own `==` is the execution fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    pub output: Fp,
    pub input_subset: Vec<PartyId>,
    pub finished_at: Time,
    pub metrics: Metrics,
}

impl Observed {
    /// Whether `other` is the same execution: output, input subset and the
    /// `Metrics` fingerprint. (`finished_at` is reported, as
    /// `completion_ticks`, rather than required.)
    pub fn same_execution(&self, other: &Observed) -> bool {
        (self.output, &self.input_subset, &self.metrics)
            == (other.output, &other.input_subset, &other.metrics)
    }
}

impl From<MpcRunResult> for Observed {
    fn from(r: MpcRunResult) -> Self {
        Observed {
            output: r.output,
            input_subset: r.input_subset,
            finished_at: r.finished_at,
            metrics: r.metrics,
        }
    }
}

/// One timed, checked `MpcBuilder::run`.
pub struct Eval {
    pub run: Observed,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs the workload once through `MpcBuilder::run` and checks the output.
pub fn eval(spec: &Spec, circuit: &Circuit, seed: u64) -> Result<Eval, String> {
    let builder = spec.builder(seed);
    let cpu0 = stats::cpu_seconds();
    let t0 = Instant::now();
    let result = builder.run(circuit);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let run: Observed = result.map_err(|e| format!("RunError: {e}"))?.into();
    spec.check(circuit, seed, &run)?;
    Ok(Eval { run, wall_s, cpu_s })
}

#[cfg(test)]
pub mod small {
    //! Debug-profile-sized versions of the workload shapes, for the
    //! transparency test.
    use super::*;

    const SYNC: Spec = Spec {
        name: "small-sync",
        n: 4,
        ts: 1,
        ta: 0,
        width: 3,
        depth: 2,
        kind: NetworkKind::Synchronous,
        packing: 0,
        garbled: &[],
        backend: Backend::Simulator,
    };

    pub const ALL: [Spec; 4] = [
        SYNC,
        Spec {
            name: "small-async",
            kind: NetworkKind::Asynchronous,
            ..SYNC
        },
        Spec {
            name: "small-garble",
            garbled: &[3],
            ..SYNC
        },
        Spec {
            name: "small-packed",
            n: 5,
            ta: 1,
            packing: 2,
            ..SYNC
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_the_declared_configurations() {
        let names: Vec<&str> = SUITE.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "sync-scalar-n8",
                "async-scalar-n8",
                "sync-packed-n10",
                "sync-garble-n8",
                "sync-tcp-n5"
            ]
        );
        let mults: Vec<usize> = SUITE.iter().map(|s| s.circuit().mult_count()).collect();
        assert_eq!(mults, [24, 24, 128, 24, 24]);
        assert_eq!(SUITE[0].inputs(1), [2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(find("sync-tcp-n5").is_some() && find("nope").is_none());
    }

    #[test]
    fn check_rejects_wrong_output_small_cs_and_missing_honest_input() {
        let spec = small::ALL[0];
        let circuit = spec.circuit();
        let good = eval(&spec, &circuit, 1)
            .expect("small sync run is correct")
            .run;
        assert_eq!(spec.check(&circuit, 1, &good), Ok(()));
        let mut wrong = good.clone();
        wrong.output = good.output + Fp::ONE;
        assert!(spec
            .check(&circuit, 1, &wrong)
            .unwrap_err()
            .contains("cleartext"));
        let mut small_cs = good.clone();
        small_cs.input_subset.truncate(2);
        assert!(spec
            .check(&circuit, 1, &small_cs)
            .unwrap_err()
            .contains("|CS|"));
        let mut missing = good;
        missing.input_subset.retain(|&i| i != 1);
        assert!(spec
            .check(&circuit, 1, &missing)
            .unwrap_err()
            .contains("missing"));
    }
}
