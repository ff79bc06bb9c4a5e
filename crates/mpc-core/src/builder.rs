//! [`MpcBuilder`] — the one-call API for running a full best-of-both-worlds
//! MPC evaluation on any [`Transport`] backend.
//!
//! This is what the examples and the integration tests use: configure `n`,
//! `(t_s, t_a)`, the network kind and the inputs, then [`MpcBuilder::run`] a
//! circuit and get every honest party's output plus the run's communication
//! metrics and completion time. The backend — the deterministic
//! discrete-event simulator, the real threaded runtime, or the supervised
//! TCP socket runtime — is picked with [`MpcBuilder::transport`] (default:
//! the simulator).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use mpc_algebra::Fp;
use mpc_net::transport::threaded::{Medium, RealNet};
use mpc_net::{
    AdversaryStructure, Backend, ByzantineStrategy, CorruptionSet, FaultPlan, LinkDelays, Metrics,
    NetConfig, NetworkKind, PartyId, PartyView, Protocol, Scheduler, Simulation, TcpNet,
    ThreadedNet, ThresholdAdversary, Time, Transport, TransportError,
};
use mpc_protocols::byzantine::SilentParty;
use mpc_protocols::{Msg, Params};

use crate::circuit::Circuit;
use crate::cireval::CirEval;

/// Error returned when a protocol run does not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// What kept the run from an output; callers match on this.
    pub kind: RunErrorKind,
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

/// What kept a run from an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunErrorKind {
    /// The run did not start: the circuit does not fit the parties, or the
    /// corrupt set is not admissible.
    Setup,
    /// Some honest party did not terminate within the horizon.
    Unfinished,
    /// No honest party produced an output.
    NoOutput,
    /// Honest parties disagree on the output.
    Disagreement,
}

impl RunErrorKind {
    /// An error of this kind with no transport failure behind it.
    fn error(self, message: impl Into<String>) -> RunError {
        RunError {
            kind: self,
            message: message.into(),
            transport: None,
        }
    }
}

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
    fault_plan: FaultPlan,
    chaos_plan: FaultPlan,
    wedge_millis: Option<u64>,
    strategy: Option<Box<dyn ByzantineStrategy>>,
    scheduler: Option<Box<dyn Scheduler>>,
    horizon_factor: u64,
    threads: usize,
    per_gate_openings: bool,
    packing: usize,
    transport: Backend,
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
            fault_plan: FaultPlan::none(),
            chaos_plan: FaultPlan::none(),
            wedge_millis: None,
            strategy: None,
            scheduler: None,
            horizon_factor: 8,
            threads: 1,
            per_gate_openings: false,
            packing: 0,
            transport: Backend::Simulator,
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
    /// transport.
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
    /// reproduces from the run's seed alone. Default: no faults;
    /// [`FaultPlan::preset`] names the presets.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the threaded backend's zero-progress deadline: if a party's gate
    /// makes no progress for this long it records a
    /// [`TransportError::Wedged`] (surfaced via the run error and counted in
    /// [`Metrics::wedges`]) and releases the gate instead of stalling
    /// forever. Ignored on the simulator. Defaults to 30 s.
    pub fn wedge_timeout(mut self, timeout: Duration) -> Self {
        self.wedge_millis = Some((timeout.as_millis() as u64).max(1));
        self
    }

    /// Installs a *socket-level* chaos plan for the TCP backend: the plan's
    /// drop / extra-delay / duplicate rules are interpreted by the connection
    /// supervisors as sever-mid-record, stall-write and duplicate-byte-run
    /// faults (see `TcpNet::set_chaos_plan`). Chaos only roughens the wire —
    /// the logical schedule, outputs and guarantee verdicts are unaffected.
    /// Ignored on the other backends. Default: no chaos;
    /// [`FaultPlan::chaos_preset`] names the presets.
    pub fn chaos_plan(mut self, plan: FaultPlan) -> Self {
        self.chaos_plan = plan;
        self
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
    /// for every value. Defaults to 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
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
    /// multiplication layer). Used by equivalence tests.
    pub fn per_gate_openings(mut self, per_gate: bool) -> Self {
        self.per_gate_openings = per_gate;
        self
    }

    /// Sets the packed (Franklin–Yung SIMD) evaluation width `ℓ`: each
    /// multiplication layer is evaluated in blocks of `ℓ` gates sharing one
    /// Beaver opening. `0` (the default) keeps the scalar engine and the
    /// run's transcript bit-identical to previous versions. Widths above the
    /// feasibility bound `n − 3·t_s`
    /// ([`crate::thresholds::max_packing_width`]) are clamped to it.
    pub fn packing(mut self, ell: usize) -> Self {
        self.packing = ell;
        self
    }

    /// Selects the backend the run executes on: the deterministic simulator
    /// (the default), the real threaded runtime or the TCP socket runtime.
    pub fn transport(mut self, backend: Backend) -> Self {
        self.transport = backend;
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
    /// (default 1000). Ignored on the simulator.
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

    /// A real-media net of `parties` with this builder's corrupt set, tick,
    /// wedge deadline and fault plan. Real media need frozen per-link
    /// latencies: an explicit matrix wins, then a sampled snapshot of a
    /// custom scheduler, then the network kind's default matrix.
    fn real_net<L: Medium>(
        &mut self,
        cfg: NetConfig,
        parties: Vec<Box<dyn Protocol<Msg>>>,
    ) -> RealNet<Msg, L> {
        let links = match (self.link_delays.take(), self.scheduler.take()) {
            (Some(links), _) => links,
            (None, Some(mut s)) => LinkDelays::sampled_from(cfg.n, cfg.seed, s.as_mut()),
            (None, None) => LinkDelays::for_kind(cfg.n, cfg.kind, cfg.delta, cfg.seed),
        };
        let mut net = RealNet::with_links(cfg, self.corrupt.clone(), links, parties)
            .with_tick_micros(self.tick_micros.unwrap_or(0))
            .with_wedge_millis(self.wedge_millis.unwrap_or(0));
        net.set_fault_plan(self.fault_plan.clone());
        net
    }

    /// Runs the protocol on `circuit` and returns the honest parties' common
    /// output.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit does not have one input per party or
    /// has no output wire, if the honest parties do not all terminate within
    /// the simulation horizon, or if they terminate with inconsistent outputs
    /// (which would indicate a protocol violation).
    pub fn run(mut self, circuit: &Circuit) -> Result<MpcRunResult, RunError> {
        let params = self.params;
        let n = params.n;
        if circuit.n_inputs() != n {
            let inputs = circuit.n_inputs();
            return Err(RunErrorKind::Setup
                .error(format!("the circuit has {inputs} inputs for {n} parties")));
        }
        if circuit.output().is_none() {
            return Err(RunErrorKind::Setup.error("the circuit has no output wire"));
        }
        let corrupt = self.corrupt.clone();
        let wire_level = self.strategy.is_some();
        let packing = self
            .packing
            .min(crate::thresholds::max_packing_width(n, params.ts));
        let structure: Arc<dyn AdversaryStructure> = self
            .structure
            .clone()
            .unwrap_or_else(|| Arc::new(ThresholdAdversary::new(n, params.ts, params.ta)));
        if !structure.sync_admissible(corrupt.corrupt_parties()) {
            return Err(RunErrorKind::Setup.error(format!(
                "corrupt set {:?} is not admissible under the adversary structure",
                corrupt.corrupt_parties()
            )));
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
        let cfg = NetConfig::for_kind(n, self.network)
            .with_delta(self.delta)
            .with_seed(self.seed)
            .with_threads(self.threads);
        let mut net: Box<dyn Transport<Msg>> = match self.transport {
            Backend::Simulator => {
                let mut sim = match self.scheduler.take() {
                    Some(s) => Simulation::with_scheduler(cfg, corrupt.clone(), s, parties),
                    None => Simulation::new(cfg, corrupt.clone(), parties),
                };
                sim.set_fault_plan(self.fault_plan.clone());
                Box::new(sim)
            }
            Backend::Threaded => {
                let net: ThreadedNet<Msg> = self.real_net(cfg, parties);
                Box::new(net)
            }
            Backend::Tcp => {
                let mut net: TcpNet<Msg> = self.real_net(cfg, parties);
                net.set_chaos_plan(self.chaos_plan);
                Box::new(net)
            }
        };
        if let Some(strategy) = self.strategy.take() {
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
        let crash_targets = self.fault_plan.crash_targets();
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
                kind: RunErrorKind::Unfinished,
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
            return Err(RunErrorKind::NoOutput.error("no honest party produced an output"));
        }
        if honest_outputs.windows(2).any(|w| w[0] != w[1]) {
            return Err(RunErrorKind::Disagreement.error("honest parties disagree on the output"));
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
        // Duplicated deliveries must never change the honest output or the
        // agreed input subset, on the simulator or a real medium and in
        // either network kind. The plan acts in the per-party core that both
        // real media share, so the threaded runtime stands for the socket one.
        let c = Circuit::product_of_inputs(4);
        let delta = NetConfig::DEFAULT_DELTA;
        let dup_burst = FaultPlan::preset("dup-burst", 4, delta).expect("named preset");
        for backend in [Backend::Simulator, Backend::Threaded] {
            for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
                let run = |plan: FaultPlan| {
                    MpcBuilder::new(4, 1, 0)
                        .network(kind)
                        .inputs(&[2, 3, 4, 5])
                        .transport(backend)
                        .fault_plan(plan)
                        .run(&c)
                        .unwrap_or_else(|e| panic!("{backend:?} {kind:?}: {e}"))
                };
                let baseline = run(FaultPlan::none());
                let dup = run(dup_burst.clone());
                let label = format!("{backend:?} {kind:?}");
                assert_eq!(baseline.output, dup.output, "{label} output");
                assert_eq!(baseline.input_subset, dup.input_subset, "{label} subset");
                assert!(dup.metrics.fault_duplicates > 0, "{label} duplicates");
            }
        }
    }

    #[test]
    fn builder_rejects_a_circuit_without_one_input_per_party() {
        let c = Circuit::sum_of_inputs(3);
        let err = MpcBuilder::new(4, 1, 0).inputs(&[1, 2, 3, 4]).run(&c);
        let err = err.expect_err("a 3-input circuit cannot run with 4 parties");
        assert_eq!(err.kind, RunErrorKind::Setup);
        assert!(err.message.contains("3 inputs for 4 parties"), "{err}");
        assert!(err.transport.is_none());
    }

    #[test]
    fn builder_rejects_a_circuit_without_an_output_wire() {
        let mut c = Circuit::new(4);
        c.mul(c.input(0), c.input(1));
        let err = MpcBuilder::new(4, 1, 0).inputs(&[1, 2, 3, 4]).run(&c);
        let err = err.expect_err("a circuit without an output cannot run");
        assert_eq!(err.kind, RunErrorKind::Setup);
        assert!(err.message.contains("no output wire"), "{err}");
        assert!(err.transport.is_none());
    }

    #[test]
    fn builder_rejects_wrong_input_count() {
        let c = Circuit::sum_of_inputs(4);
        let result =
            std::panic::catch_unwind(|| MpcBuilder::new(4, 1, 0).inputs(&[1, 2, 3]).run(&c));
        assert!(result.is_err());
    }
}
