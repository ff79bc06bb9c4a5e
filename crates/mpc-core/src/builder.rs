//! [`MpcBuilder`] — the one-call API for running a full best-of-both-worlds
//! MPC evaluation on any [`Transport`] backend.
//!
//! This is what the examples, the integration tests and the experiment
//! harness use: configure `n`, `(t_s, t_a)`, the network kind and the inputs,
//! then [`MpcBuilder::run`] a circuit and get every honest party's output
//! plus the run's communication metrics and completion time. The backend —
//! the deterministic discrete-event simulator, the real threaded runtime, or
//! the supervised TCP socket runtime — is picked with
//! [`MpcBuilder::transport`] (default: the `MPC_TRANSPORT` environment
//! variable via [`Backend::from_env`]).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use mpc_algebra::Fp;
use mpc_net::{
    AdversaryStructure, Backend, ByzantineStrategy, CorruptionSet, FaultPlan, LinkDelays, Metrics,
    NetConfig, NetworkKind, PartyId, PartyView, Protocol, Scheduler, Simulation, TcpNet,
    ThreadedNet, ThresholdAdversary, Time, Transport, TransportError,
};
use mpc_protocols::byzantine::SilentParty;
use mpc_protocols::{Msg, Params};

use crate::circuit::Circuit;
use crate::cireval::CirEval;

/// Typed access to the `MPC_*` environment knobs.
///
/// Every knob the builder resolves from the environment goes through one of
/// these helpers, so a set-but-malformed value is a loud configuration error
/// instead of a silent fallback to the default — a sweep whose knob is
/// misspelled must not quietly measure the wrong thing.
pub mod knobs {
    use std::fmt::Display;
    use std::str::FromStr;

    /// The raw value of the environment variable `name`, treating unset and
    /// blank values as absent.
    pub fn raw(name: &str) -> Option<String> {
        match std::env::var(name) {
            Ok(v) if !v.trim().is_empty() => Some(v.trim().to_string()),
            _ => None,
        }
    }

    /// Parses the environment variable `name` as a `T`. `what` names the
    /// expected shape in the failure message.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set and non-blank but does not parse — the
    /// caller's default applies only to *absent* knobs, never to broken ones.
    pub fn parsed<T>(name: &str, what: &str) -> Option<T>
    where
        T: FromStr,
        T::Err: Display,
    {
        raw(name).map(|v| {
            v.parse()
                .unwrap_or_else(|e| panic!("{name}={v:?} could not be parsed as {what}: {e}"))
        })
    }
}

/// Error returned when a protocol run does not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Human-readable description.
    pub message: String,
    /// The transport-layer failure behind this error, when one was detected
    /// (e.g. [`TransportError::Wedged`] from the threaded backend's
    /// zero-progress deadline).
    pub transport: Option<TransportError>,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(t) = &self.transport {
            write!(f, " ({t})")?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

/// The result of a completed MPC run.
#[derive(Debug, Clone)]
pub struct MpcRunResult {
    /// The common output of the honest parties.
    pub output: Fp,
    /// Per-party outputs (corrupt/silent parties report `None`).
    pub outputs: Vec<Option<Fp>>,
    /// The agreed input subset `CS` (whose inputs entered the computation).
    pub input_subset: Vec<PartyId>,
    /// Simulated time at which the last honest party terminated.
    pub finished_at: Time,
    /// Communication metrics of the run.
    pub metrics: Metrics,
}

/// Builder for a full MPC evaluation run.
pub struct MpcBuilder {
    params: Params,
    network: NetworkKind,
    seed: u64,
    delta: Time,
    inputs: Vec<Fp>,
    corrupt: CorruptionSet,
    structure: Option<Arc<dyn AdversaryStructure>>,
    fault_plan: Option<FaultPlan>,
    chaos_plan: Option<FaultPlan>,
    wedge_millis: Option<u64>,
    strategy: Option<Box<dyn ByzantineStrategy>>,
    scheduler: Option<Box<dyn Scheduler>>,
    horizon_factor: u64,
    threads: Option<usize>,
    per_gate_openings: bool,
    packing: Option<usize>,
    transport: Option<Backend>,
    link_delays: Option<LinkDelays>,
    tick_micros: Option<u64>,
    drain: bool,
}

impl fmt::Debug for MpcBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpcBuilder")
            .field("params", &self.params)
            .field("network", &self.network)
            .field("seed", &self.seed)
            .field("delta", &self.delta)
            .field("corrupt", &self.corrupt)
            .finish_non_exhaustive()
    }
}

impl MpcBuilder {
    /// Creates a builder for `n` parties tolerating `t_s` synchronous and
    /// `t_a` asynchronous corruptions.
    ///
    /// # Panics
    ///
    /// Panics if `t_a > t_s` or `3·t_s + t_a ≥ n` (the protocol is not
    /// defined there).
    pub fn new(n: usize, ts: usize, ta: usize) -> Self {
        let delta = NetConfig::DEFAULT_DELTA;
        MpcBuilder {
            params: Params::new(n, ts, ta, delta),
            network: NetworkKind::Synchronous,
            seed: NetConfig::DEFAULT_SEED,
            delta,
            inputs: vec![Fp::ZERO; n],
            corrupt: CorruptionSet::none(),
            structure: None,
            fault_plan: None,
            chaos_plan: None,
            wedge_millis: None,
            strategy: None,
            scheduler: None,
            horizon_factor: 8,
            threads: None,
            per_gate_openings: false,
            packing: None,
            transport: None,
            link_delays: None,
            tick_micros: None,
            drain: false,
        }
    }

    /// Selects the network kind the run executes in (the parties never learn
    /// this — that is the whole point of the paper).
    pub fn network(mut self, kind: NetworkKind) -> Self {
        self.network = kind;
        self
    }

    /// Sets the master seed (reproducible runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the synchronous delay bound `Δ` (in simulation ticks).
    pub fn delta(mut self, delta: Time) -> Self {
        self.delta = delta;
        self.params = Params::new(self.params.n, self.params.ts, self.params.ta, delta);
        self
    }

    /// Sets the parties' private inputs (as `u64`, reduced into the field).
    pub fn inputs(mut self, inputs: &[u64]) -> Self {
        assert_eq!(inputs.len(), self.params.n, "one input per party");
        self.inputs = inputs.iter().map(|&x| Fp::from_u64(x)).collect();
        self
    }

    /// Sets the parties' private inputs as field elements.
    pub fn field_inputs(mut self, inputs: &[Fp]) -> Self {
        assert_eq!(inputs.len(), self.params.n, "one input per party");
        self.inputs = inputs.to_vec();
        self
    }

    /// Marks the listed parties as corrupt. Without a
    /// [`MpcBuilder::byzantine_strategy`] they run a crashed (silent) party
    /// instead of the protocol; richer behavioural misbehaviours can be
    /// exercised through the lower-level `Simulation` API directly.
    pub fn corrupt(mut self, parties: &[PartyId]) -> Self {
        self.corrupt = CorruptionSet::new(parties.to_vec());
        self
    }

    /// Runs under a pluggable [`AdversaryStructure`] instead of the plain
    /// `(t_s, t_a)` thresholds of [`MpcBuilder::new`]. The protocol
    /// parameters are re-derived from the structure's threshold hull
    /// ([`Params::from_structure`]); at [`MpcBuilder::run`] time the
    /// [`MpcBuilder::corrupt`] set is validated to be synchronously
    /// admissible under the structure, and the structure is exposed to the
    /// transport (e.g. for sweep harness classification).
    ///
    /// # Panics
    ///
    /// Panics if the structure's party count differs from this builder's `n`,
    /// or if the structure is infeasible.
    pub fn adversary(mut self, structure: Arc<dyn AdversaryStructure>) -> Self {
        assert_eq!(
            structure.n(),
            self.params.n,
            "adversary structure party count must match the builder's n"
        );
        self.params = Params::from_structure(structure.as_ref(), self.delta);
        self.structure = Some(structure);
        self
    }

    /// Injects a deterministic [`FaultPlan`] (crashes, partitions,
    /// drop/duplicate/delay bursts) at the network layer. Honored identically
    /// by the simulator and the threaded backend, so any failure it provokes
    /// reproduces from the run's seed alone. When unset, the
    /// `MPC_FAULT_PLAN` environment variable selects a named
    /// [`FaultPlan::preset`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the threaded backend's zero-progress deadline: if a party's gate
    /// makes no progress for this long it records a
    /// [`TransportError::Wedged`] (surfaced via the run error and counted in
    /// [`Metrics::wedges`]) and releases the gate instead of stalling
    /// forever. Ignored on the simulator. Defaults to the `MPC_WEDGE_MS`
    /// environment variable, then 30 s.
    pub fn wedge_timeout(mut self, timeout: Duration) -> Self {
        self.wedge_millis = Some((timeout.as_millis() as u64).max(1));
        self
    }

    /// The effective fault plan this builder will run with: the explicit
    /// [`MpcBuilder::fault_plan`] setting, else the `MPC_FAULT_PLAN`
    /// environment variable resolved through [`FaultPlan::preset`] with this
    /// builder's `n` and `Δ`, else no faults.
    ///
    /// # Panics
    ///
    /// Panics if `MPC_FAULT_PLAN` names an unknown preset — a fault-injection
    /// knob that silently does nothing would invalidate whole sweeps.
    pub fn effective_fault_plan(&self) -> FaultPlan {
        if let Some(plan) = &self.fault_plan {
            return plan.clone();
        }
        match knobs::raw("MPC_FAULT_PLAN") {
            Some(name) => FaultPlan::preset(&name, self.params.n, self.delta)
                .unwrap_or_else(|| panic!("MPC_FAULT_PLAN={name} is not a known fault preset")),
            None => FaultPlan::none(),
        }
    }

    /// Installs a *socket-level* chaos plan for the TCP backend: the plan's
    /// drop / extra-delay / duplicate rules are interpreted by the connection
    /// supervisors as sever-mid-record, stall-write and duplicate-byte-run
    /// faults (see `TcpNet::set_chaos_plan`). Chaos only roughens the wire —
    /// the logical schedule, outputs and guarantee verdicts are unaffected.
    /// Ignored on the other backends. When unset, the `MPC_CHAOS_PLAN`
    /// environment variable selects a named [`FaultPlan::chaos_preset`].
    pub fn chaos_plan(mut self, plan: FaultPlan) -> Self {
        self.chaos_plan = Some(plan);
        self
    }

    /// The effective socket chaos plan this builder will run with: the
    /// explicit [`MpcBuilder::chaos_plan`] setting, else `MPC_CHAOS_PLAN`
    /// resolved through [`FaultPlan::chaos_preset`], else no chaos.
    ///
    /// # Panics
    ///
    /// Panics if `MPC_CHAOS_PLAN` names an unknown chaos preset.
    pub fn effective_chaos_plan(&self) -> FaultPlan {
        if let Some(plan) = &self.chaos_plan {
            return plan.clone();
        }
        match knobs::raw("MPC_CHAOS_PLAN") {
            Some(name) => FaultPlan::chaos_preset(&name, self.params.n, self.delta)
                .unwrap_or_else(|| panic!("MPC_CHAOS_PLAN={name} is not a known chaos preset")),
            None => FaultPlan::none(),
        }
    }

    /// Applies a wire-level [`ByzantineStrategy`] to every message the
    /// corrupt parties send. The corrupt parties then run the *honest*
    /// protocol code — the misbehaviour happens on the wire (bytes replaced,
    /// garbled or dropped), which exercises the decode boundary of every
    /// honest receiver.
    pub fn byzantine_strategy(mut self, strategy: Box<dyn ByzantineStrategy>) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the message scheduler (e.g. an adversarial asynchronous
    /// schedule from [`mpc_net::scheduler`]).
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Multiplier applied to the default simulation horizon (useful for very
    /// adversarial schedules).
    pub fn horizon_factor(mut self, factor: u64) -> Self {
        self.horizon_factor = factor;
        self
    }

    /// Sets the simulator's worker-thread count for same-time-slice
    /// pre-execution (see [`NetConfig::with_threads`]). Purely a wall-clock
    /// knob: the run's outputs, metrics and bit accounting are identical
    /// for every value. Defaults to the `MPC_THREADS` environment variable,
    /// then 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Inert shim for the frozen benchmark ledger: frame coalescing is the
    /// only engine, so `true` is a no-op and `false` has nothing to select.
    #[doc(hidden)]
    pub fn frames(self, frames: bool) -> Self {
        assert!(
            frames,
            "frames(false): the unframed engine was removed in PR 22"
        );
        self
    }

    /// Switches `Π_CirEval` to the per-gate opening reference path (one
    /// public reconstruction per multiplication gate instead of one batch per
    /// multiplication layer). Used by equivalence tests and the e12
    /// benchmark baseline.
    pub fn per_gate_openings(mut self, per_gate: bool) -> Self {
        self.per_gate_openings = per_gate;
        self
    }

    /// Sets the packed (Franklin–Yung SIMD) evaluation width `ℓ`: each
    /// multiplication layer is evaluated in blocks of `ℓ` gates sharing one
    /// Beaver opening. `0` (the default) keeps the scalar engine and the
    /// run's transcript bit-identical to previous versions. Widths above the
    /// feasibility bound `n − 3·t_s`
    /// ([`crate::thresholds::max_packing_width`]) are clamped to it. When
    /// unset, the `MPC_PACKING` environment variable applies.
    pub fn packing(mut self, ell: usize) -> Self {
        self.packing = Some(ell);
        self
    }

    /// The effective packing width this builder will run with: the explicit
    /// [`MpcBuilder::packing`] setting, else `MPC_PACKING`, else 0 (scalar),
    /// clamped to [`crate::thresholds::max_packing_width`].
    pub fn effective_packing(&self) -> usize {
        let requested = self
            .packing
            .or_else(|| knobs::parsed("MPC_PACKING", "a packing width (unsigned integer)"))
            .unwrap_or(0);
        requested.min(crate::thresholds::max_packing_width(
            self.params.n,
            self.params.ts,
        ))
    }

    /// Selects the backend the run executes on: the deterministic simulator
    /// or the real threaded runtime. Defaults to the `MPC_TRANSPORT`
    /// environment variable (see [`Backend::from_env`]), i.e. the simulator
    /// unless `MPC_TRANSPORT=threaded`.
    pub fn transport(mut self, backend: Backend) -> Self {
        self.transport = Some(backend);
        self
    }

    /// Overrides the threaded backend's per-link latency matrix (ignored on
    /// the simulator — pass the same matrix as a [`MpcBuilder::scheduler`]
    /// there). Used by the conformance harness to drive both backends with
    /// the exact same link delays.
    pub fn link_delays(mut self, links: LinkDelays) -> Self {
        self.link_delays = Some(links);
        self
    }

    /// Overrides the threaded backend's real tick duration in microseconds
    /// (default: the `MPC_TICK_US` environment variable, then 1000). Ignored
    /// on the simulator.
    pub fn tick_micros(mut self, micros: u64) -> Self {
        self.tick_micros = Some(micros);
        self
    }

    /// Runs to quiescence instead of stopping as soon as every honest party
    /// has an output. The simulator stops early by default (cheapest); the
    /// threaded backend always drains — so enable this when comparing
    /// metrics across backends.
    pub fn drain(mut self, drain: bool) -> Self {
        self.drain = drain;
        self
    }

    /// The protocol parameters this builder will run with.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Runs the protocol on `circuit` and returns the honest parties' common
    /// output.
    ///
    /// # Errors
    ///
    /// Returns an error if the honest parties do not all terminate within the
    /// simulation horizon, or if they terminate with inconsistent outputs
    /// (which would indicate a protocol violation).
    pub fn run(self, circuit: &Circuit) -> Result<MpcRunResult, RunError> {
        let params = self.params;
        let n = params.n;
        let corrupt = self.corrupt.clone();
        let wire_level = self.strategy.is_some();
        let packing = self.effective_packing();
        let fault_plan = self.effective_fault_plan();
        let structure: Arc<dyn AdversaryStructure> = self
            .structure
            .clone()
            .unwrap_or_else(|| Arc::new(ThresholdAdversary::new(n, params.ts, params.ta)));
        if !structure.sync_admissible(corrupt.corrupt_parties()) {
            return Err(RunError {
                message: format!(
                    "corrupt set {:?} is not admissible under the adversary structure",
                    corrupt.corrupt_parties()
                ),
                transport: None,
            });
        }
        let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
            .map(|i| {
                if corrupt.is_corrupt(i) && !wire_level {
                    Box::new(SilentParty) as Box<dyn Protocol<Msg>>
                } else {
                    let mut party = CirEval::new(params, circuit.clone(), self.inputs[i]);
                    party.set_per_gate_openings(self.per_gate_openings);
                    party.set_packing(packing);
                    Box::new(party) as Box<dyn Protocol<Msg>>
                }
            })
            .collect();
        let mut cfg = NetConfig::for_kind(n, self.network)
            .with_delta(self.delta)
            .with_seed(self.seed);
        if let Some(threads) = self.threads {
            cfg = cfg.with_threads(threads);
        }
        let backend = self.transport.unwrap_or_else(Backend::from_env);
        let chaos_plan = self.effective_chaos_plan();
        let mut scheduler = self.scheduler;
        let mut net: Box<dyn Transport<Msg>> = match backend {
            Backend::Simulator => {
                let mut sim = match scheduler.take() {
                    Some(s) => Simulation::with_scheduler(cfg, corrupt.clone(), s, parties),
                    None => Simulation::new(cfg, corrupt.clone(), parties),
                };
                sim.set_fault_plan(fault_plan.clone());
                Box::new(sim)
            }
            Backend::Threaded | Backend::Tcp => {
                // The thread-per-party backends need frozen per-link
                // latencies: an explicit matrix wins, then a sampled snapshot
                // of a custom scheduler, then the network kind's default
                // matrix.
                let links = match self.link_delays {
                    Some(links) => links,
                    None => match scheduler.take() {
                        Some(mut s) => LinkDelays::sampled_from(n, cfg.seed, s.as_mut()),
                        None => LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed),
                    },
                };
                if backend == Backend::Threaded {
                    let mut th = ThreadedNet::with_links(cfg, corrupt.clone(), links, parties);
                    if let Some(micros) = self.tick_micros {
                        th = th.with_tick_micros(micros);
                    }
                    if let Some(millis) = self.wedge_millis {
                        th = th.with_wedge_millis(millis);
                    }
                    th.set_fault_plan(fault_plan.clone());
                    Box::new(th)
                } else {
                    let mut th = TcpNet::with_links(cfg, corrupt.clone(), links, parties);
                    if let Some(micros) = self.tick_micros {
                        th = th.with_tick_micros(micros);
                    }
                    if let Some(millis) = self.wedge_millis {
                        th = th.with_wedge_millis(millis);
                    }
                    th.set_fault_plan(fault_plan.clone());
                    th.set_chaos_plan(chaos_plan);
                    Box::new(th)
                }
            }
        };
        net.set_adversary_structure(Arc::clone(&structure));
        if let Some(strategy) = self.strategy {
            net.set_strategy(strategy);
        }
        let horizon = params.horizon_for_depth(circuit.mult_depth()) * self.horizon_factor;
        let party_output = |view: &dyn PartyView<Msg>, i: PartyId| {
            mpc_net::party_as::<CirEval, Msg>(view, i).and_then(|p| p.output)
        };
        // A plan-crashed party is itself one of the tolerated faults: it
        // stops processing (and may resume having missed messages), so it is
        // not owed an output. Requiring one would stall every run that
        // crashes an otherwise-honest party — the guarantee only covers the
        // honest parties the plan leaves alive.
        let crash_targets = fault_plan.crash_targets();
        let requires_output = |i: PartyId| corrupt.is_honest(i) && !crash_targets.contains(&i);
        let mut pred = |view: &dyn PartyView<Msg>| {
            (0..n)
                .filter(|&i| requires_output(i))
                .all(|i| party_output(view, i).is_some())
        };
        let done = if self.drain {
            net.run_to_quiescence(horizon);
            pred(net.as_ref())
        } else {
            net.run_until_done(horizon, &mut pred)
        };
        if !done {
            return Err(RunError {
                message: format!("honest parties did not terminate within horizon {horizon}"),
                transport: net.last_error().cloned(),
            });
        }
        let view: &dyn PartyView<Msg> = net.as_ref();
        let outputs: Vec<Option<Fp>> = (0..n).map(|i| party_output(view, i)).collect();
        // Agreement is checked over every honest output that exists — a
        // plan-crashed party that still produced one must agree too.
        let honest_outputs: Vec<Fp> = (0..n)
            .filter(|&i| corrupt.is_honest(i))
            .filter_map(|i| outputs[i])
            .collect();
        if honest_outputs.is_empty() {
            return Err(RunError {
                message: "no honest party produced an output".to_string(),
                transport: None,
            });
        }
        if honest_outputs.windows(2).any(|w| w[0] != w[1]) {
            return Err(RunError {
                message: "honest parties disagree on the output".to_string(),
                transport: None,
            });
        }
        let input_subset = (0..n)
            .find_map(|i| {
                mpc_net::party_as::<CirEval, Msg>(view, i).and_then(|p| p.input_subset.clone())
            })
            .unwrap_or_default();
        let mut metrics = net.metrics().clone();
        metrics.packed_width = packing as u64;
        metrics.values_opened_by_layer = (0..n)
            .filter(|&i| corrupt.is_honest(i))
            .find_map(|i| {
                mpc_net::party_as::<CirEval, Msg>(view, i).map(|p| p.values_opened_by_layer.clone())
            })
            .unwrap_or_default();
        Ok(MpcRunResult {
            output: honest_outputs[0],
            outputs,
            input_subset,
            finished_at: view.now(),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_runs_a_simple_circuit() {
        let mut c = Circuit::new(4);
        let prod = c.mul(c.input(0), c.input(1));
        let s = c.add(c.input(2), c.input(3));
        let out = c.add(prod, s);
        c.set_output(out);
        let result = MpcBuilder::new(4, 1, 0)
            .network(NetworkKind::Synchronous)
            .inputs(&[3, 5, 7, 11])
            .run(&c)
            .expect("run succeeds");
        assert_eq!(result.output.as_u64(), 3 * 5 + 7 + 11);
        assert_eq!(result.input_subset, vec![0, 1, 2, 3]);
        assert!(result.metrics.honest_bits > 0);
    }

    #[test]
    fn garbling_corrupt_party_does_not_stop_honest_termination() {
        // The corrupt party runs the honest protocol, but every byte it puts
        // on the wire is garbled; honest receivers must treat the undecodable
        // bytes as Byzantine input (drop, never panic) and still terminate
        // with a common output.
        let c = Circuit::product_of_inputs(4);
        let result = MpcBuilder::new(4, 1, 0)
            .inputs(&[2, 3, 4, 5])
            .corrupt(&[3])
            .byzantine_strategy(Box::new(mpc_net::GarbleBytes))
            .run(&c)
            .expect("honest parties must terminate despite garbled bytes");
        assert!(result.metrics.adversary_tampered > 0);
        assert!(result.metrics.decode_failures > 0);
        // the honest parties' agreement on the output is asserted inside run()
        assert!((0..3).all(|i| result.outputs[i].is_some()));
    }

    #[test]
    #[should_panic(expected = "3*t_s + t_a < n")]
    fn builder_rejects_infeasible_thresholds() {
        let _ = MpcBuilder::new(4, 1, 1);
    }

    #[test]
    fn builder_runs_under_explicit_adversary_structure() {
        let c = Circuit::sum_of_inputs(4);
        let result = MpcBuilder::new(4, 1, 0)
            .adversary(Arc::new(ThresholdAdversary::new(4, 1, 0)))
            .inputs(&[1, 2, 3, 4])
            .corrupt(&[2])
            .run(&c)
            .expect("admissible corrupt set runs");
        assert_eq!(result.output.as_u64(), 1 + 2 + 4);
    }

    #[test]
    fn builder_rejects_inadmissible_corrupt_set() {
        // A general adversary that only ever corrupts party 0: corrupting
        // party 3 is outside the structure and must be rejected up front.
        let g = mpc_net::GeneralAdversary::new(4, vec![vec![0]], vec![]);
        let c = Circuit::sum_of_inputs(4);
        let err = MpcBuilder::new(4, 1, 0)
            .adversary(Arc::new(g))
            .inputs(&[1, 2, 3, 4])
            .corrupt(&[3])
            .run(&c)
            .expect_err("inadmissible corrupt set must be rejected");
        assert!(err.message.contains("not admissible"), "{}", err.message);
        assert!(err.transport.is_none());
    }

    #[test]
    fn builder_fault_plan_crash_of_corrupt_party_still_terminates() {
        // Crashing an already-silent corrupt party at the wire exercises the
        // fault plumbing end-to-end: honest traffic *to* the crashed party is
        // dropped (fault_drops > 0) and the honest majority still terminates.
        let c = Circuit::sum_of_inputs(4);
        let result = MpcBuilder::new(4, 1, 0)
            .inputs(&[1, 2, 3, 4])
            .corrupt(&[3])
            .fault_plan(FaultPlan::none().crash(3, 0, None))
            .run(&c)
            .expect("honest parties terminate despite the crash fault");
        assert_eq!(result.output.as_u64(), 1 + 2 + 3);
        assert!(result.metrics.fault_drops > 0);
    }

    #[test]
    fn builder_fault_plan_duplicate_burst_is_tolerated() {
        // Duplicated deliveries must never change the honest output.
        let c = Circuit::product_of_inputs(4);
        let baseline = MpcBuilder::new(4, 1, 0)
            .inputs(&[2, 3, 4, 5])
            .run(&c)
            .expect("clean run succeeds");
        let dup = MpcBuilder::new(4, 1, 0)
            .inputs(&[2, 3, 4, 5])
            .fault_plan(FaultPlan::none().duplicate_burst(None, None, (0, 200), 3))
            .run(&c)
            .expect("duplicate burst is tolerated");
        assert_eq!(baseline.output, dup.output);
        assert!(dup.metrics.fault_duplicates > 0);
    }

    #[test]
    fn builder_rejects_wrong_input_count() {
        let c = Circuit::sum_of_inputs(4);
        let result =
            std::panic::catch_unwind(|| MpcBuilder::new(4, 1, 0).inputs(&[1, 2, 3]).run(&c));
        assert!(result.is_err());
    }
}
