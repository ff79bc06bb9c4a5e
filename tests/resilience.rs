//! The paper's guarantee matrix as an integration test (experiment E1),
//! run cell by cell through the public `MpcBuilder`.
//!
//! With `3·t_s + t_a < n` the paper promises, per cell:
//!
//! * **synchronous network, at most `t_s` effective faults**: every honest
//!   party terminates with the correct output (full security);
//! * **asynchronous network, or a fault that breaks the `Δ` bound, at most
//!   `t_a` effective faults**: the same (the fallback guarantee);
//! * **beyond those bounds**: no termination promise, but an honest output
//!   that does appear is correct and agreed.
//!
//! `cell_guarantee` encodes that matrix and `check_cell` runs one cell and
//! judges it. A cell is a complete run description, so the `Debug` of a
//! failing cell, which every assertion below prints, reproduces it
//! bit-identically on the simulator. The default matrix runs in full on the
//! simulator and as its smoke slice on the threaded and the TCP runtime; the
//! over-threshold column covers the third row, and the negative control
//! shows that the checker trips on a wrong output.

use bobw_mpc::algebra::Fp;
use bobw_mpc::core::builder::{MpcRunResult, RunError, RunErrorKind};
use bobw_mpc::core::thresholds::{feasible_threshold_pairs, thresholds_feasible};
use bobw_mpc::core::{Circuit, MpcBuilder};
use bobw_mpc::net::{
    Backend, ByzantineStrategy, ChannelDeterministic, Crash, EquivocateBroadcast, FaultPlan,
    GarbleBytes, LinkDelays, NetworkKind, PartyId, Passive, SkewedAsyncScheduler, Time, WireEncode,
};
use bobw_mpc::protocols::{AcastMsg, BcValue, Msg};
use std::collections::BTreeSet;

/// One row of the resilience landscape.
struct ResilienceRow {
    n: usize,
    /// Maximum corruptions of a purely synchronous protocol (`⌈n/3⌉ − 1`).
    smpc_ts: usize,
    /// Maximum corruptions of a purely asynchronous protocol (`⌈n/4⌉ − 1`),
    /// which is also what the `t_s = t_a` baseline tolerates in both
    /// networks.
    ampc_ta: usize,
    /// The best-of-both-worlds operating point `(t_s, t_a)`: maximal `t_s`,
    /// then maximal `t_a`, subject to `3·t_s + t_a < n`.
    bobw: (usize, usize),
}

/// The resilience landscape for `n` in `[n_min, n_max]` (the paper's
/// Section 1).
fn resilience_table(n_min: usize, n_max: usize) -> Vec<ResilienceRow> {
    (n_min..=n_max)
        .map(|n| ResilienceRow {
            n,
            smpc_ts: (n - 1) / 3,
            ampc_ta: (n - 1) / 4,
            bobw: feasible_threshold_pairs(n)
                .into_iter()
                .max()
                .unwrap_or_default(),
        })
        .collect()
}

#[test]
fn feasibility_table_matches_paper_bounds() {
    for row in resilience_table(4, 20) {
        assert!(thresholds_feasible(row.n, row.bobw.0, row.bobw.1));
        assert!(row.bobw.0 <= row.smpc_ts);
        assert!(row.bobw.1 <= row.ampc_ta);
        // increasing either threshold beyond the BoBW point breaks feasibility
        assert!(
            row.bobw.0 == row.bobw.1 || !thresholds_feasible(row.n, row.bobw.0, row.bobw.1 + 1)
        );
    }
    // the paper's n = 8 example
    let row8 = &resilience_table(8, 8)[0];
    assert_eq!((row8.smpc_ts, row8.ampc_ta, row8.bobw), (2, 1, (2, 1)));
}

#[test]
fn sync_run_tolerates_ts_crashes() {
    // n = 4, t_s = 1: one crashed party, synchronous network.
    let n = 4;
    let circuit = Circuit::sum_of_inputs(n);
    let result = MpcBuilder::new(n, 1, 0)
        .network(NetworkKind::Synchronous)
        .inputs(&[5, 6, 7, 1000])
        .corrupt(&[3])
        .run(&circuit)
        .expect("must tolerate t_s = 1 crash in a synchronous network");
    // the crashed party's input is excluded (defaults to 0)
    assert_eq!(result.output.as_u64(), 5 + 6 + 7);
    assert!(!result.input_subset.contains(&3));
    assert!(result.input_subset.len() >= n - 1);
}

#[test]
fn async_run_tolerates_ta_crashes() {
    // n = 5, (t_s, t_a) = (1, 1): one crashed party, asynchronous network.
    let n = 5;
    let circuit = Circuit::sum_of_inputs(n);
    let result = MpcBuilder::new(n, 1, 1)
        .network(NetworkKind::Asynchronous)
        .inputs(&[1, 2, 3, 4, 1000])
        .corrupt(&[4])
        .run(&circuit)
        .expect("must tolerate t_a = 1 crash in an asynchronous network");
    assert_eq!(result.output.as_u64(), 1 + 2 + 3 + 4);
    assert!(result.input_subset.len() >= n - 1);
}

#[test]
fn builder_refuses_thresholds_outside_the_feasible_region() {
    // 3*1 + 1 = 4 is not < 4: the paper's bound is tight.
    assert!(std::panic::catch_unwind(|| MpcBuilder::new(4, 1, 1)).is_err());
    assert!(std::panic::catch_unwind(|| MpcBuilder::new(8, 2, 2)).is_err());
    // but the documented operating points are accepted
    assert!(std::panic::catch_unwind(|| MpcBuilder::new(8, 2, 1)).is_ok());
}

// ---------------------------------------------------------------------------
// The cell, the guarantee matrix and the checker.
// ---------------------------------------------------------------------------

/// The behavioural strategy a cell's corrupt parties follow on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StrategyKind {
    /// Corrupt parties run the honest protocol unmodified.
    Passive,
    /// Every message of a corrupt sender is dropped (fail-silent).
    Crash,
    /// Payload bytes are randomly flipped, channel-deterministically, so the
    /// strategy behaves identically on every runtime.
    Garble,
    /// Broadcasts equivocate: the upper half of the id space receives an
    /// alternative well-formed encoding instead of the real payload.
    Equivocate,
}

impl StrategyKind {
    const ALL: [StrategyKind; 4] = [
        StrategyKind::Passive,
        StrategyKind::Crash,
        StrategyKind::Garble,
        StrategyKind::Equivocate,
    ];

    /// The wire-level strategy for one run; `seed` keys the
    /// channel-deterministic wrapper so a randomized strategy replays exactly.
    fn instantiate(self, seed: u64) -> Box<dyn ByzantineStrategy> {
        match self {
            StrategyKind::Passive => Box::new(Passive),
            StrategyKind::Crash => Box::new(Crash),
            StrategyKind::Garble => Box::new(ChannelDeterministic::new(GarbleBytes, seed)),
            StrategyKind::Equivocate => Box::new(EquivocateBroadcast {
                // A well-formed alternative encoding, an A-cast of the wrong
                // bit, so decoders see the equivocation instead of dropping
                // garbage at the wire boundary.
                alt: Msg::Acast(AcastMsg::Send(BcValue::Bit(true))).encode(),
            }),
        }
    }
}

/// One cell of the matrix: everything needed to reproduce a run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CellSpec {
    n: usize,
    ts: usize,
    ta: usize,
    /// Synchronous delivery bound `Δ` in ticks.
    delta: Time,
    network: NetworkKind,
    backend: Backend,
    /// Byzantine-corrupt parties: they run the honest code behind
    /// `strategy`'s wire filter.
    corrupt: Vec<PartyId>,
    strategy: StrategyKind,
    /// A named `FaultPlan::preset`, injected at the transport seam.
    fault_preset: &'static str,
    /// A named `FaultPlan::chaos_preset`, played at the socket layer by the
    /// TCP runtime's connection supervisors and ignored elsewhere. Chaos
    /// never changes the guarantee: the supervisors must absorb it.
    chaos_preset: &'static str,
    /// One party's outgoing links lag far beyond `Δ` (the classic attack on
    /// the synchronous path), so its timeouts expire and the asynchronous
    /// fallback carries the run.
    slow_sender: bool,
    /// Seed of the run and of a randomized strategy.
    seed: u64,
}

impl CellSpec {
    /// A clean cell at `n = 5`, `(t_s, t_a) = (1, 1)`, `Δ = 10`: the smallest
    /// best-of-both-worlds operating point with both thresholds positive.
    fn new(backend: Backend, network: NetworkKind, seed: u64) -> CellSpec {
        CellSpec {
            n: 5,
            ts: 1,
            ta: 1,
            delta: 10,
            network,
            backend,
            corrupt: vec![],
            strategy: StrategyKind::Passive,
            fault_preset: "none",
            chaos_preset: "none",
            slow_sender: false,
            seed,
        }
    }

    /// True when the cell plays socket chaos: a chaos preset on TCP.
    fn has_chaos(&self) -> bool {
        self.backend == Backend::Tcp && self.chaos_preset != "none"
    }
}

/// What the guarantee matrix promises for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Guarantee {
    /// Every honest party must terminate with the correct output.
    MustTerminate,
    /// More effective faults than the threshold: the run may end without
    /// output, but an output it produces must still be correct.
    MayAbort,
}

/// The effect of a named fault preset on the matrix: `(the parties it makes
/// faulty, whether it keeps the synchronous Δ bound)`.
///
/// Crashes and inbound omission bursts make their target (party `n − 1`)
/// indistinguishable from a corrupt party, so it joins the effective fault
/// set. Partitions and delay bursts deliver everything eventually but break
/// the `Δ` bound, which demotes a synchronous run to the asynchronous row.
/// Duplication changes neither.
fn preset_effects(preset: &str, n: usize) -> (Vec<PartyId>, bool) {
    match preset {
        "none" | "dup-burst" => (vec![], true),
        "crash" | "crash-recover" | "drop-burst" => (vec![n - 1], true),
        "partition-heal" | "delay-burst" => (vec![], false),
        other => panic!("unknown fault preset {other:?}"),
    }
}

/// True when the synchronous row governs the cell: a synchronous network, a
/// `Δ`-preserving fault preset and no slow sender.
fn is_sync_model(spec: &CellSpec) -> bool {
    let (_, sync_preserving) = preset_effects(spec.fault_preset, spec.n);
    spec.network == NetworkKind::Synchronous && sync_preserving && !spec.slow_sender
}

/// The guarantee matrix: the effective faults (the corrupt set and the
/// preset's targets) against `t_s` under the synchronous model, else `t_a`.
fn cell_guarantee(spec: &CellSpec) -> Guarantee {
    let (targets, _) = preset_effects(spec.fault_preset, spec.n);
    let faulty: BTreeSet<PartyId> = spec.corrupt.iter().copied().chain(targets).collect();
    let bound = if is_sync_model(spec) {
        spec.ts
    } else {
        spec.ta
    };
    if faulty.len() <= bound {
        Guarantee::MustTerminate
    } else {
        Guarantee::MayAbort
    }
}

/// How one cell ended, judged against its guarantee.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Verdict {
    /// Every honest party terminated with the correct, common output, and
    /// the cell's attack demonstrably engaged.
    Correct,
    /// The run ended without every honest output, and the cell was beyond
    /// the thresholds; the payload is the builder's error.
    AdmissibleAbort(String),
    /// A guarantee was broken; the payload says which.
    Violation(String),
}

/// One checked cell: what ran, what was promised and what happened.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CellReport {
    spec: CellSpec,
    guarantee: Guarantee,
    verdict: Verdict,
    /// Protocol timers that expired (every runtime counts them alike).
    timeouts_fired: u64,
    /// Connections the TCP supervisors re-established (0 elsewhere).
    reconnects: u64,
}

impl CellReport {
    fn is_violation(&self) -> bool {
        matches!(self.verdict, Verdict::Violation(_))
    }
}

/// The workload of every cell: a layered circuit with two multiplication
/// layers over all `n` inputs, and fixed distinct inputs.
fn workload(n: usize) -> (Circuit, Vec<u64>) {
    let inputs = (0..n as u64).map(|i| 3 * i + 2).collect();
    (Circuit::layered(n, n, 2), inputs)
}

/// Runs `spec` on `circuit` and judges it. The expected output is the
/// clear evaluation over the run's agreed input subset `CS` (a party outside
/// `CS` contributes 0, as in `Π_CirEval`), shifted by `tamper`: a non-zero
/// `tamper` is the negative control, every real cell passes `Fp::ZERO`.
fn check_cell_against(
    spec: &CellSpec,
    circuit: &Circuit,
    inputs: &[u64],
    tamper: Fp,
) -> CellReport {
    let plan = FaultPlan::preset(spec.fault_preset, spec.n, spec.delta).expect("fault preset");
    let mut b = MpcBuilder::new(spec.n, spec.ts, spec.ta)
        .network(spec.network)
        .delta(spec.delta)
        .seed(spec.seed)
        .inputs(inputs)
        .corrupt(&spec.corrupt)
        .transport(spec.backend)
        .fault_plan(plan);
    if !spec.corrupt.is_empty() {
        b = b.byzantine_strategy(spec.strategy.instantiate(spec.seed));
    }
    if spec.has_chaos() {
        let chaos = FaultPlan::chaos_preset(spec.chaos_preset, spec.n, spec.delta);
        b = b.chaos_plan(chaos.expect("chaos preset"));
    }
    if spec.slow_sender {
        // The simulator plays the attack as an adversarial scheduler; the
        // real runtimes freeze the same shape into a latency matrix.
        b = match spec.backend {
            Backend::Simulator => b.scheduler(Box::new(SkewedAsyncScheduler {
                slowed_senders: vec![spec.seed as usize % spec.n],
                lag: 20 * spec.delta,
                fast: spec.delta,
            })),
            Backend::Threaded | Backend::Tcp => {
                b.link_delays(LinkDelays::asynchronous(spec.n, spec.delta, spec.seed))
            }
        };
    }
    if spec.backend != Backend::Simulator {
        // A short real-time tick keeps cells that wait out long fault
        // windows, or the whole horizon, within a wall-clock budget.
        b = b.tick_micros(100);
    }
    let guarantee = cell_guarantee(spec);
    let mut report = CellReport {
        spec: spec.clone(),
        guarantee,
        verdict: Verdict::Correct,
        timeouts_fired: 0,
        reconnects: 0,
    };
    match b.run(circuit) {
        Ok(result) => {
            report.verdict = judge_outputs(spec, circuit, inputs, tamper, &result);
            report.timeouts_fired = result.metrics.timeouts_fired;
            report.reconnects = result.metrics.reconnects;
        }
        Err(e) => report.verdict = judge_abort(guarantee, &e),
    }
    // A cell must show that its attack engaged, not only that the run
    // survived: a slow sender forces the synchronous path's timeouts, and a
    // severed connection is re-established by the supervisors.
    if report.verdict == Verdict::Correct {
        if spec.slow_sender && report.timeouts_fired == 0 {
            report.verdict = Verdict::Violation("slow-sender cell fired no timeouts".into());
        } else if spec.has_chaos() && spec.chaos_preset == "sever" && report.reconnects == 0 {
            report.verdict = Verdict::Violation("sever cell recorded no reconnects".into());
        }
    }
    report
}

/// Runs `spec` on `circuit` and judges it against the clear evaluation.
fn check_cell(spec: &CellSpec, circuit: &Circuit, inputs: &[u64]) -> CellReport {
    check_cell_against(spec, circuit, inputs, Fp::ZERO)
}

/// The verdict on a run that produced an output.
fn judge_outputs(
    spec: &CellSpec,
    circuit: &Circuit,
    inputs: &[u64],
    tamper: Fp,
    result: &MpcRunResult,
) -> Verdict {
    let cs = &result.input_subset;
    let masked: Vec<Fp> = (0..spec.n)
        .map(|i| Fp::from_u64(if cs.contains(&i) { inputs[i] } else { 0 }))
        .collect();
    let expected = circuit.evaluate_clear(&masked) + tamper;
    let (plan_faulty, _) = preset_effects(spec.fault_preset, spec.n);
    let honest = |i: &PartyId| !spec.corrupt.contains(i);
    // Π_ACS guarantees |CS| ≥ n − t_s in either model…
    if cs.len() < spec.n - spec.ts {
        return Verdict::Violation(format!("input subset {cs:?} smaller than n - t_s"));
    }
    // …and under the synchronous model every honest party that the fault
    // plan leaves alive gets its input in.
    if is_sync_model(spec) {
        let alive = |i: &PartyId| honest(i) && !plan_faulty.contains(i);
        if let Some(i) = (0..spec.n).filter(alive).find(|i| !cs.contains(i)) {
            return Verdict::Violation(format!(
                "synchronous run excluded honest party {i}'s input"
            ));
        }
    }
    for i in (0..spec.n).filter(honest) {
        match result.outputs[i] {
            Some(y) if y == expected => {}
            Some(y) => {
                let (y, expected) = (y.as_u64(), expected.as_u64());
                return Verdict::Violation(format!("honest party {i} output {y} != {expected}"));
            }
            // A plan-crashed party is one of the tolerated faults: it is owed
            // no output, but one it produces is held to the same value.
            None if plan_faulty.contains(&i) => {}
            None => return Verdict::Violation(format!("honest party {i} has no output")),
        }
    }
    Verdict::Correct
}

/// The verdict on a run the builder failed. Only a cell beyond the
/// thresholds may end without every honest output; every other error is a
/// violation, above all honest parties that disagree on the output, which
/// the builder reports as an error too.
fn judge_abort(guarantee: Guarantee, e: &RunError) -> Verdict {
    if guarantee == Guarantee::MayAbort && e.kind == RunErrorKind::Unfinished {
        Verdict::AdmissibleAbort(e.to_string())
    } else {
        Verdict::Violation(format!("{guarantee:?} cell failed: {e}"))
    }
}

// ---------------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------------

/// The seed every matrix cell runs at.
const SEED: u64 = 1;

/// The default matrix on one runtime: {sync, async} × three fault presets ×
/// every strategy, one slow-sender cell and one honest-party-crash cell,
/// and on TCP one clean cell per socket-chaos preset. The corrupt party sits
/// on the preset's target where it has one, so every cell is within the
/// thresholds and must terminate with the correct output, not merely abort
/// gracefully.
fn default_matrix(backend: Backend, seed: u64) -> Vec<CellSpec> {
    let base = CellSpec::new(backend, NetworkKind::Synchronous, seed);
    let mut cells = Vec::new();
    for network in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for fault_preset in ["crash", "partition-heal", "dup-burst"] {
            let (targets, _) = preset_effects(fault_preset, base.n);
            let corrupt = if targets.is_empty() { vec![0] } else { targets };
            for strategy in StrategyKind::ALL {
                cells.push(CellSpec {
                    network,
                    corrupt: corrupt.clone(),
                    strategy,
                    fault_preset,
                    ..base.clone()
                });
            }
        }
    }
    cells.push(CellSpec {
        network: NetworkKind::Asynchronous,
        slow_sender: true,
        ..base.clone()
    });
    // An honest party crashing mid-run spends the t_s budget by itself and
    // is owed no output, but every surviving party must terminate. This
    // cell once hung: the builder's completion predicate waited for the
    // crashed party's output.
    cells.push(CellSpec {
        fault_preset: "crash",
        ..base.clone()
    });
    if backend == Backend::Tcp {
        for chaos_preset in ["sever", "stall", "dup-bytes"] {
            cells.push(CellSpec {
                chaos_preset,
                ..base.clone()
            });
        }
    }
    cells
}

/// The smoke slice of the default matrix run on the real runtimes: the
/// garble strategy and every cell without corruption.
fn is_smoke(cell: &CellSpec) -> bool {
    cell.strategy == StrategyKind::Garble || cell.corrupt.is_empty()
}

/// The matrix's third row on the simulator: party 0 corrupt and the
/// preset's target, party 4, a second effective fault, one more than
/// `t_s = t_a = 1` allow, in both network kinds.
fn over_threshold_column(seed: u64) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for network in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for fault_preset in ["crash", "crash-recover", "drop-burst"] {
            for strategy in [StrategyKind::Garble, StrategyKind::Passive] {
                cells.push(CellSpec {
                    corrupt: vec![0],
                    strategy,
                    fault_preset,
                    ..CellSpec::new(Backend::Simulator, network, seed)
                });
            }
        }
    }
    cells
}

/// Checks every cell and fails with the report of each violating one.
fn assert_no_violations(cells: &[CellSpec]) {
    let (circuit, inputs) = workload(5);
    let violations: Vec<CellReport> = cells
        .iter()
        .map(|cell| check_cell(cell, &circuit, &inputs))
        .filter(CellReport::is_violation)
        .collect();
    assert!(violations.is_empty(), "violations: {violations:#?}");
}

#[test]
fn guarantee_matrix_logic() {
    let base = CellSpec {
        corrupt: vec![0],
        ..CellSpec::new(Backend::Simulator, NetworkKind::Synchronous, 1)
    };
    assert_eq!(cell_guarantee(&base), Guarantee::MustTerminate);

    // A crash preset on top of a *different* corrupt party: two effective
    // faults > t_s, no promise…
    let mut two_faults = CellSpec {
        fault_preset: "crash",
        ..base.clone()
    };
    assert_eq!(cell_guarantee(&two_faults), Guarantee::MayAbort);
    // …but co-located with the corruption it stays guaranteed.
    two_faults.corrupt = vec![4];
    assert_eq!(cell_guarantee(&two_faults), Guarantee::MustTerminate);

    // A partition breaks the Δ bound: the sync run drops to the t_a row
    // (still guaranteed here because t_a = 1).
    let mut partitioned = CellSpec {
        fault_preset: "partition-heal",
        ..base.clone()
    };
    assert_eq!(cell_guarantee(&partitioned), Guarantee::MustTerminate);
    // With t_a = 0 the same cell loses its guarantee while the plain sync
    // cell keeps it.
    partitioned.ta = 0;
    assert_eq!(cell_guarantee(&partitioned), Guarantee::MayAbort);
    let sync_ta0 = CellSpec {
        ta: 0,
        ..base.clone()
    };
    assert_eq!(cell_guarantee(&sync_ta0), Guarantee::MustTerminate);

    // A slow sender likewise demotes to the asynchronous row.
    let mut slow = CellSpec {
        slow_sender: true,
        corrupt: vec![],
        ..base
    };
    assert_eq!(cell_guarantee(&slow), Guarantee::MustTerminate);
    slow.corrupt = vec![0, 1];
    assert_eq!(cell_guarantee(&slow), Guarantee::MayAbort);
}

#[test]
fn disagreeing_honest_outputs_are_never_an_admissible_abort() {
    let error = |kind, message: &str| RunError {
        kind,
        message: message.to_string(),
        transport: None,
    };
    let unfinished = error(
        RunErrorKind::Unfinished,
        "honest parties did not terminate within horizon 900",
    );
    let abort = judge_abort(Guarantee::MayAbort, &unfinished);
    assert!(matches!(abort, Verdict::AdmissibleAbort(_)), "{abort:?}");
    let abort = judge_abort(Guarantee::MustTerminate, &unfinished);
    assert!(matches!(abort, Verdict::Violation(_)), "{abort:?}");
    // Only the kind decides: a disagreement is a violation even when its
    // message reads like a time-out.
    let split = error(
        RunErrorKind::Disagreement,
        "honest parties disagree on the output",
    );
    let disguised = error(
        RunErrorKind::Disagreement,
        "honest parties did not terminate",
    );
    for guarantee in [Guarantee::MayAbort, Guarantee::MustTerminate] {
        for error in [&split, &disguised] {
            let verdict = judge_abort(guarantee, error);
            assert!(matches!(verdict, Verdict::Violation(_)), "{verdict:?}");
        }
    }
}

#[test]
fn default_matrix_shape_and_guarantees() {
    for backend in [Backend::Simulator, Backend::Threaded, Backend::Tcp] {
        let cells = default_matrix(backend, SEED);
        let chaos = if backend == Backend::Tcp { 3 } else { 0 };
        // {sync, async} × 3 presets × 4 strategies, the slow-sender and the
        // honest-crash cell, and the socket-chaos cells on TCP.
        assert_eq!(cells.len(), 2 * 3 * 4 + 2 + chaos);
        assert_eq!(cells.iter().filter(|c| c.has_chaos()).count(), chaos);
        assert_eq!(cells.iter().filter(|c| is_smoke(c)).count(), 8 + chaos);
        for cell in &cells {
            let guarantee = cell_guarantee(cell);
            assert_eq!(guarantee, Guarantee::MustTerminate, "{cell:?}");
        }
    }
    for cell in over_threshold_column(SEED) {
        assert_eq!(cell_guarantee(&cell), Guarantee::MayAbort, "{cell:?}");
    }
}

/// The default matrix on the simulator, in full, split by network kind so
/// that the two halves run on parallel test threads.
fn simulator_cells(network: NetworkKind) -> Vec<CellSpec> {
    default_matrix(Backend::Simulator, SEED)
        .into_iter()
        .filter(|c| c.network == network)
        .collect()
}

#[test]
fn default_matrix_simulator_synchronous_has_zero_violations() {
    assert_no_violations(&simulator_cells(NetworkKind::Synchronous));
}

#[test]
fn default_matrix_simulator_asynchronous_has_zero_violations() {
    assert_no_violations(&simulator_cells(NetworkKind::Asynchronous));
}

#[test]
fn default_matrix_threaded_smoke_slice_has_zero_violations() {
    let cells: Vec<CellSpec> = default_matrix(Backend::Threaded, SEED)
        .into_iter()
        .filter(is_smoke)
        .collect();
    assert_no_violations(&cells);
}

#[test]
fn default_matrix_tcp_smoke_slice_and_socket_chaos_have_zero_violations() {
    let cells: Vec<CellSpec> = default_matrix(Backend::Tcp, SEED)
        .into_iter()
        .filter(is_smoke)
        .collect();
    assert_no_violations(&cells);
}

#[test]
fn over_threshold_cells_abort_or_output_correctly() {
    assert_no_violations(&over_threshold_column(SEED));
}

#[test]
fn negative_control_reproduces_bit_identically() {
    // The checker checks itself: a shifted expected output must trip it,
    // and the failing report must replay exactly from its cell.
    let (circuit, inputs) = workload(5);
    let spec = CellSpec {
        corrupt: vec![0],
        fault_preset: "dup-burst",
        ..CellSpec::new(Backend::Simulator, NetworkKind::Synchronous, SEED)
    };
    let first = check_cell_against(&spec, &circuit, &inputs, Fp::ONE);
    assert!(first.is_violation(), "{first:?}");
    let second = check_cell_against(&spec, &circuit, &inputs, Fp::ONE);
    assert_eq!(first, second, "an injected violation must replay exactly");
}

#[test]
fn one_threaded_cell_checks_out() {
    let (circuit, inputs) = workload(5);
    let spec = CellSpec {
        corrupt: vec![4],
        strategy: StrategyKind::Equivocate,
        fault_preset: "crash",
        ..CellSpec::new(Backend::Threaded, NetworkKind::Synchronous, 13)
    };
    let report = check_cell(&spec, &circuit, &inputs);
    assert_eq!(report.verdict, Verdict::Correct, "{report:?}");
}

#[test]
fn one_tcp_sever_chaos_cell_checks_out() {
    // A clean protocol run over a wire where every data record out of
    // party 4 is torn mid-record on its first transmission: the
    // supervisors must reconnect and replay through every protocol phase,
    // and the cell verdict additionally requires reconnects > 0.
    let (circuit, inputs) = workload(5);
    let spec = CellSpec {
        chaos_preset: "sever",
        ..CellSpec::new(Backend::Tcp, NetworkKind::Synchronous, 17)
    };
    assert!(spec.has_chaos(), "{spec:?}");
    let report = check_cell(&spec, &circuit, &inputs);
    assert_eq!(report.verdict, Verdict::Correct, "{report:?}");
    assert!(report.reconnects > 0, "{report:?}");
    assert_eq!(report.spec.chaos_preset, "sever", "{report:?}");
}

// ---------------------------------------------------------------------------
// Pinned one-seed fault-injection repros: each test nails one cell of the
// matrix under an injected fault schedule, on both party runtimes, so the
// canonical schedules (crash-at-tick, crash-then-recover,
// partition-then-heal, honest-party crash) are pinned at more seeds than
// the matrix's one.
// ---------------------------------------------------------------------------

/// A pinned cell under the passive strategy.
fn pinned_cell(
    backend: Backend,
    network: NetworkKind,
    fault_preset: &'static str,
    corrupt: Vec<usize>,
    seed: u64,
) -> CellSpec {
    CellSpec {
        corrupt,
        fault_preset,
        ..CellSpec::new(backend, network, seed)
    }
}

/// A pinned TCP cell with a clean logical schedule and a named socket-chaos
/// preset roughening the wire.
fn pinned_chaos_cell(chaos_preset: &'static str, seed: u64) -> CellSpec {
    CellSpec {
        chaos_preset,
        ..CellSpec::new(Backend::Tcp, NetworkKind::Synchronous, seed)
    }
}

fn assert_cell_correct(spec: CellSpec) -> CellReport {
    assert_eq!(
        cell_guarantee(&spec),
        Guarantee::MustTerminate,
        "repro cells must sit in the guaranteed region: {spec:?}"
    );
    let (circuit, inputs) = workload(spec.n);
    let report = check_cell(&spec, &circuit, &inputs);
    assert_eq!(report.verdict, Verdict::Correct, "{report:?}");
    report
}

#[test]
fn crash_at_tick_pinned_repro_simulator() {
    // The `crash` preset fail-stops party 4 at tick 2Δ, mid-ACS. Co-locating
    // the corruption there keeps the effective fault count at t_s = 1: the
    // synchronous row of the matrix still promises output delivery.
    assert_cell_correct(pinned_cell(
        Backend::Simulator,
        NetworkKind::Synchronous,
        "crash",
        vec![4],
        23,
    ));
}

#[test]
fn crash_at_tick_pinned_repro_threaded() {
    assert_cell_correct(pinned_cell(
        Backend::Threaded,
        NetworkKind::Synchronous,
        "crash",
        vec![4],
        23,
    ));
}

#[test]
fn crash_then_recover_pinned_repro_simulator() {
    // `crash-recover` drops party 4's links between 2Δ and 30Δ, then heals:
    // the messages lost during the outage make the target indistinguishable
    // from a crashed party, so the guarantee logic still budgets it as
    // faulty — and the run must nonetheless deliver (1 fault ≤ t_s).
    assert_cell_correct(pinned_cell(
        Backend::Simulator,
        NetworkKind::Synchronous,
        "crash-recover",
        vec![4],
        29,
    ));
}

#[test]
fn crash_then_recover_pinned_repro_threaded() {
    assert_cell_correct(pinned_cell(
        Backend::Threaded,
        NetworkKind::Synchronous,
        "crash-recover",
        vec![4],
        29,
    ));
}

#[test]
fn partition_then_heal_pinned_repro_simulator() {
    // `partition-heal` cuts the minority side {0, 1} off between 2Δ and
    // 30Δ with held re-delivery at the heal: eventual delivery holds but the
    // Δ bound does not, so the cell is judged on the asynchronous row —
    // still guaranteed, because the one corruption is within t_a.
    assert_cell_correct(pinned_cell(
        Backend::Simulator,
        NetworkKind::Synchronous,
        "partition-heal",
        vec![0],
        31,
    ));
}

#[test]
fn partition_then_heal_pinned_repro_threaded() {
    assert_cell_correct(pinned_cell(
        Backend::Threaded,
        NetworkKind::Synchronous,
        "partition-heal",
        vec![0],
        31,
    ));
}

#[test]
fn honest_party_crash_pinned_repro_simulator() {
    // No corruption at all: the crash target is an honest party that
    // fail-stops mid-run, spending the t_s budget by itself. It is owed no
    // output, but every surviving party must still terminate — this cell
    // once hung because the completion predicate waited on the crashed
    // party's output.
    assert_cell_correct(pinned_cell(
        Backend::Simulator,
        NetworkKind::Synchronous,
        "crash",
        vec![],
        37,
    ));
}

#[test]
fn honest_party_crash_pinned_repro_threaded() {
    assert_cell_correct(pinned_cell(
        Backend::Threaded,
        NetworkKind::Synchronous,
        "crash",
        vec![],
        37,
    ));
}

// ---------------------------------------------------------------------------
// Pinned socket-chaos repros on the TCP backend: the same one-seed pinning
// discipline, but the injected schedule lives at the *byte* layer — torn
// connections, stalled writes, duplicated runs — and the connection
// supervisors (not the protocol) must absorb it. The logical schedule is
// clean in every cell, so the verdict contract is full `Correct`, never a
// graceful abort.
// ---------------------------------------------------------------------------

#[test]
fn tcp_sever_mid_frame_pinned_repro() {
    // Every data record out of party 4 is severed mid-record on its first
    // transmission, across every protocol phase of the run. The supervisors
    // must reconnect and replay each time; `check_cell` turns
    // `reconnects == 0` into a violation for sever cells, so this repro
    // proves the chaos engaged, not merely that the run survived.
    let report = assert_cell_correct(pinned_chaos_cell("sever", 41));
    assert!(report.reconnects > 0, "{report:?}");
}

#[test]
fn tcp_dup_bytes_pinned_repro() {
    // Duplicated byte runs after every data record out of party 4: the
    // receiver's checksum rejects the garbled tail, abandons the buffered
    // bytes and resyncs by teardown — delivery continues via replay.
    let report = assert_cell_correct(pinned_chaos_cell("dup-bytes", 43));
    assert!(report.reconnects > 0, "{report:?}");
}

#[test]
fn tcp_reconnect_and_replay_pinned_repro() {
    // The same sever schedule driven through the builder API, asserting the
    // supervisor counters directly: severed connections were re-established
    // and the lost records were retransmitted from the replay buffer (the
    // receiver-side dedup keeps the at-least-once stream exactly-once).
    let (circuit, inputs) = workload(5);
    let result = MpcBuilder::new(5, 1, 1)
        .network(NetworkKind::Synchronous)
        .seed(41)
        .inputs(&inputs)
        .transport(Backend::Tcp)
        .tick_micros(100)
        .chaos_plan(FaultPlan::chaos_preset("sever", 5, 10).expect("known chaos preset"))
        .run(&circuit)
        .expect("sever chaos must not abort a clean logical schedule");
    assert!(
        result.metrics.reconnects > 0,
        "supervisors never reconnected"
    );
    assert!(
        result.metrics.frames_replayed > 0,
        "reconnects happened but nothing was replayed"
    );
    let clean = MpcBuilder::new(5, 1, 1)
        .network(NetworkKind::Synchronous)
        .seed(41)
        .inputs(&inputs)
        .transport(Backend::Tcp)
        .tick_micros(100)
        .run(&circuit)
        .expect("clean tcp run");
    // Chaos stretches wall clock only: the logical result and the honest
    // communication accounting are bit-identical to the clean wire.
    assert_eq!(result.output, clean.output);
    assert_eq!(
        result.metrics, clean.metrics,
        "chaos changed the fingerprint"
    );
    assert_eq!(clean.metrics.reconnects, 0);
}

#[test]
fn tcp_stall_past_wedge_surfaces_diagnosis_not_hang() {
    // Writes out of party 4 stall far past a test-sized wedge deadline
    // during one early tick. The receiver gate must not hang: it records a
    // wedge diagnosis (surfaced as `TransportError::Wedged` if the run
    // aborts, or as `Metrics::wedges > 0` when the run still completes
    // after the capped stall) and releases.
    use bobw_mpc::net::TransportError;
    let (circuit, inputs) = workload(5);
    let run = MpcBuilder::new(5, 1, 1)
        .network(NetworkKind::Synchronous)
        .seed(47)
        .inputs(&inputs)
        .transport(Backend::Tcp)
        .tick_micros(100)
        .wedge_timeout(std::time::Duration::from_millis(40))
        .chaos_plan(FaultPlan::chaos_preset("stall", 5, 10).expect("known chaos preset"))
        .run(&circuit);
    match run {
        Ok(result) => assert!(
            result.metrics.wedges > 0,
            "a 300 ms stalled write must trip a 40 ms wedge deadline somewhere"
        ),
        Err(e) => assert!(
            matches!(e.transport, Some(TransportError::Wedged { .. })),
            "an aborting stalled run must carry the wedge diagnosis: {e}"
        ),
    }
}

#[test]
fn tcp_stall_wedges_the_stalled_link_only() {
    // One link out of party 2 (2 → 0) stalls for the supervisor's 300 ms
    // cap; 2 → 1 does not. The stall lives on that link's writer, not on
    // party 2's single I/O thread: party 2 keeps promising to party 1,
    // whose timer fires on schedule, while party 0's gate gives up on
    // party 2 after the 100 ms wedge deadline and says so. A party that
    // slept through its stall would starve party 1 as well — a second wedge
    // against the same peer.
    use bobw_mpc::net::{
        Context, CorruptionSet, NetConfig, PathSlice, Protocol, TcpNet, Transport, TransportError,
    };
    use bobw_mpc::protocols::{AbaMsg, Msg};
    use std::time::Instant;

    /// Pings `ping` at init, arms a timer at tick 7 if `armed`, and notes
    /// when it fired.
    struct Probe {
        ping: Option<PartyId>,
        armed: bool,
        fired: Option<Instant>,
    }
    impl Protocol<Msg> for Probe {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some(to) = self.ping {
                let (round, value) = (0, true);
                ctx.send(to, Msg::Aba(AbaMsg::Est { round, value }));
            }
            if self.armed {
                ctx.set_timer(7, 0);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: PartyId, _: PathSlice<'_>, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: PathSlice<'_>, _: u64) {
            self.fired = Some(Instant::now());
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let n = 3;
    let parties = (0..n)
        .map(|i| {
            let probe = Probe {
                ping: (i == 2).then_some(0),
                armed: i != 2,
                fired: None,
            };
            Box::new(probe) as Box<dyn Protocol<Msg>>
        })
        .collect();
    // Every link 5 ticks: the ping is due at tick 5, the timers at tick 7
    // need every incoming link clock past 7, and a first round of promises
    // (5 + 5) provides that — except on the stalled link, where the promise
    // queues behind the ping.
    let cfg = NetConfig::synchronous(n).with_seed(53);
    let links = LinkDelays::from_fn(n, |_, _| 5);
    let mut net = TcpNet::with_links(cfg, CorruptionSet::none(), links, parties)
        .with_tick_micros(100)
        .with_wedge_millis(100);
    net.set_chaos_plan(FaultPlan::none().delay_burst(Some(2), Some(0), (0, 1), 50_000));
    net.run_to_quiescence(1_000);

    assert_eq!(
        net.last_error(),
        Some(&TransportError::Wedged {
            party: 2,
            last_progress_tick: 5
        })
    );
    assert_eq!(net.metrics().wedges, 1, "only the stalled link may wedge");
    let fired = |i| net.party_as::<Probe>(i).and_then(|p| p.fired);
    let (waited, prompt) = (fired(0).expect("released"), fired(1).expect("on time"));
    assert!(
        prompt < waited,
        "party 1 must not have waited for the stall"
    );
    // The ping outlived the wedge and arrived after its tick was processed.
    assert_eq!(net.metrics().late_packets, 1);
}
