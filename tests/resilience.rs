//! Experiment E1 as an integration test: behaviour at the resilience
//! boundary `3·t_s + t_a < n`, with crashed (silent Byzantine) parties.

use bobw_mpc::core::thresholds::{resilience_table, thresholds_feasible};
use bobw_mpc::core::{Circuit, MpcBuilder};
use bobw_mpc::net::NetworkKind;

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
// Pinned one-seed fault-injection repros: each test nails one cell of the
// paper's guarantee matrix under an injected fault schedule, on both party
// runtimes. The specs are exactly what the sweep harness (`core::sweeps`)
// explores at scale; pinning them here keeps the three canonical schedules —
// crash-at-tick, crash-then-recover, partition-then-heal — from regressing
// without waiting for a full sweep.
// ---------------------------------------------------------------------------

use bobw_mpc::core::sweeps::{
    cell_guarantee, check_cell, default_workload, CellSpec, Guarantee, StrategyKind, Verdict,
};
use bobw_mpc::net::Backend;

/// A pinned matrix cell at the smallest both-thresholds-positive operating
/// point `n = 5`, `(t_s, t_a) = (1, 1)`.
fn pinned_cell(
    backend: Backend,
    network: NetworkKind,
    preset: &str,
    corrupt: Vec<usize>,
    seed: u64,
) -> CellSpec {
    CellSpec {
        n: 5,
        ts: 1,
        ta: 1,
        delta: 10,
        network,
        backend,
        corrupt,
        strategy: StrategyKind::Passive,
        fault_preset: preset.to_string(),
        chaos_preset: "none".to_string(),
        slow_sender: false,
        packing: 0,
        seed,
    }
}

/// A pinned TCP-backend cell with a clean logical schedule and a named
/// socket-chaos preset roughening the wire.
fn pinned_chaos_cell(chaos: &str, seed: u64) -> CellSpec {
    let mut spec = pinned_cell(Backend::Tcp, NetworkKind::Synchronous, "none", vec![], seed);
    spec.chaos_preset = chaos.to_string();
    spec
}

fn assert_cell_correct(spec: CellSpec) {
    assert_eq!(
        cell_guarantee(&spec),
        Guarantee::MustTerminate,
        "repro cells must sit in the guaranteed region: {}",
        spec.label()
    );
    let (circuit, inputs) = default_workload(spec.n);
    let report = check_cell(&spec, &circuit, &inputs);
    assert_eq!(
        report.verdict,
        Verdict::Correct,
        "pinned repro failed — reproduce from this artifact: {}",
        report.artifact_json()
    );
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
    // must reconnect and replay each time; `check_cell` additionally turns
    // `reconnects == 0` into a violation for sever cells, so this repro
    // proves the chaos engaged, not merely that the run survived.
    let spec = pinned_chaos_cell("sever", 41);
    assert_eq!(
        cell_guarantee(&spec),
        Guarantee::MustTerminate,
        "socket chaos must not move the cell out of the guaranteed region"
    );
    let (circuit, inputs) = default_workload(spec.n);
    let report = check_cell(&spec, &circuit, &inputs);
    assert_eq!(
        report.verdict,
        Verdict::Correct,
        "pinned repro failed — reproduce from this artifact: {}",
        report.artifact_json()
    );
    assert!(report.reconnects > 0, "{}", report.artifact_json());
}

#[test]
fn tcp_dup_bytes_pinned_repro() {
    // Duplicated byte runs after every data record out of party 4: the
    // receiver's checksum rejects the garbled tail, abandons the buffered
    // bytes and resyncs by teardown — delivery continues via replay.
    let spec = pinned_chaos_cell("dup-bytes", 43);
    let (circuit, inputs) = default_workload(spec.n);
    let report = check_cell(&spec, &circuit, &inputs);
    assert_eq!(
        report.verdict,
        Verdict::Correct,
        "pinned repro failed — reproduce from this artifact: {}",
        report.artifact_json()
    );
    assert!(report.reconnects > 0, "{}", report.artifact_json());
}

#[test]
fn tcp_reconnect_and_replay_pinned_repro() {
    // The same sever schedule driven through the builder API, asserting the
    // supervisor counters directly: severed connections were re-established
    // and the lost records were retransmitted from the replay buffer (the
    // receiver-side dedup keeps the at-least-once stream exactly-once).
    use bobw_mpc::net::FaultPlan;
    let (circuit, inputs) = bobw_mpc::core::sweeps::default_workload(5);
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
    use bobw_mpc::net::{FaultPlan, TransportError};
    let (circuit, inputs) = bobw_mpc::core::sweeps::default_workload(5);
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
        Context, CorruptionSet, FaultPlan, LinkDelays, NetConfig, PartyId, PathSlice, Protocol,
        TcpNet, Transport, TransportError,
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
