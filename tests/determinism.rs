//! Simulation determinism: a run is a pure function of
//! `(NetConfig, CorruptionSet, parties, scheduler)`. Same seed and same
//! scheduler must reproduce the exact event transcript and metrics, in both
//! network kinds; different seeds must actually produce different executions.
//!
//! The same holds across worker-thread counts: a `threads = k` run must be bit-identical — same
//! transcript hash, same `Metrics`, same honest-bit totals — to the
//! `threads = 1` run for every seed, network kind and Byzantine strategy.

use bobw_mpc::algebra::{Fp, Polynomial};
use bobw_mpc::core::{Circuit, MpcBuilder};
use bobw_mpc::net::{
    Backend, ByzantineStrategy, CorruptionSet, Crash, EquivocateBroadcast, FaultPlan, GarbleBytes,
    Metrics, NetConfig, NetworkKind, Passive, Protocol, Simulation, Time, TranscriptEntry,
    TranscriptEvent, UniformDelay, WireEncode,
};
use bobw_mpc::protocols::bc::Bc;
use bobw_mpc::protocols::vss::Vss;
use bobw_mpc::protocols::wps::Wps;
use bobw_mpc::protocols::{BcValue, Msg, Params};
use proptest::prelude::*;

fn bc_parties(n: usize, params: Params) -> Vec<Box<dyn Protocol<Msg>>> {
    let payload = BcValue::Value(vec![Fp::from_u64(42), Fp::from_u64(7)]);
    (0..n)
        .map(|i| {
            let bc = if i == 0 {
                Bc::new_sender(0, params.ts, params, payload.clone())
            } else {
                Bc::new(0, params.ts, params)
            };
            Box::new(bc) as Box<dyn Protocol<Msg>>
        })
        .collect()
}

/// Runs one `Π_BC` broadcast with transcript recording and returns the full
/// execution fingerprint.
fn run_bc(
    kind: NetworkKind,
    seed: u64,
    explicit_scheduler: bool,
) -> (Vec<TranscriptEntry>, Metrics, Time) {
    run_bc_threads(kind, seed, explicit_scheduler, 1)
}

/// [`run_bc`] with an explicit simulator worker-thread count.
fn run_bc_threads(
    kind: NetworkKind,
    seed: u64,
    explicit_scheduler: bool,
    threads: usize,
) -> (Vec<TranscriptEntry>, Metrics, Time) {
    run_bc_config(
        NetConfig::for_kind(4, kind)
            .with_seed(seed)
            .with_threads(threads),
        explicit_scheduler,
    )
}

/// [`run_bc`] with a fully explicit [`NetConfig`].
fn run_bc_config(
    cfg: NetConfig,
    explicit_scheduler: bool,
) -> (Vec<TranscriptEntry>, Metrics, Time) {
    let n = cfg.n;
    let params = Params::max_thresholds(n, 10);
    let mut sim = if explicit_scheduler {
        Simulation::with_scheduler(
            cfg,
            CorruptionSet::none(),
            Box::new(UniformDelay { min: 1, max: 35 }),
            bc_parties(n, params),
        )
    } else {
        Simulation::new(cfg, CorruptionSet::none(), bc_parties(n, params))
    };
    sim.record_transcript();
    let done = sim.run_until(params.t_bc() * 20, |s| {
        (0..n).all(|i| s.party_as::<Bc>(i).unwrap().value().is_some())
    });
    assert!(done, "broadcast must complete within the horizon");
    (sim.transcript().to_vec(), sim.metrics().clone(), sim.now())
}

#[test]
fn same_seed_same_scheduler_identical_transcript_sync() {
    let a = run_bc(NetworkKind::Synchronous, 11, false);
    let b = run_bc(NetworkKind::Synchronous, 11, false);
    assert_eq!(a.0, b.0, "transcripts must be identical");
    assert_eq!(a.1, b.1, "metrics must be identical");
    assert_eq!(a.2, b.2, "completion times must be identical");
    assert!(!a.0.is_empty(), "transcript recording must capture events");
}

#[test]
fn same_seed_same_scheduler_identical_transcript_async() {
    let a = run_bc(NetworkKind::Asynchronous, 11, false);
    let b = run_bc(NetworkKind::Asynchronous, 11, false);
    assert_eq!(a.0, b.0, "transcripts must be identical");
    assert_eq!(a.1, b.1, "metrics must be identical");
    assert_eq!(a.2, b.2, "completion times must be identical");
}

#[test]
fn same_seed_explicit_scheduler_identical_transcript() {
    // With an explicit scheduler the network kind is fully determined by the
    // scheduler itself (`NetConfig::kind` only selects the *default* one), so
    // a single run covers this path; the two default-scheduler tests above
    // cover both kinds.
    let a = run_bc(NetworkKind::Asynchronous, 23, true);
    let b = run_bc(NetworkKind::Asynchronous, 23, true);
    assert_eq!(a.0, b.0, "transcripts must be identical");
    assert_eq!(a.1, b.1, "metrics must be identical");
}

#[test]
fn different_seeds_diverge_async() {
    // Sanity check that the transcript fingerprint actually discriminates:
    // under the randomized asynchronous scheduler, a different seed must
    // yield a different delivery schedule.
    let a = run_bc(NetworkKind::Asynchronous, 1, false);
    let b = run_bc(NetworkKind::Asynchronous, 2, false);
    assert_ne!(
        a.0, b.0,
        "different seeds should produce different transcripts"
    );
}

// ---------------------------------------------------------------------------
// Golden regression: performance work (algebra fast paths, allocation-lean
// dispatch, engine refactors) must leave executions bit-identical. Any drift
// in transcripts, Metrics or outputs fails these tests; a deliberate protocol
// change re-pins the constants and says so.
// ---------------------------------------------------------------------------

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x100_0000_01b3);
}

/// Order-sensitive FNV-1a-style fingerprint of a full transcript.
fn transcript_hash(entries: &[TranscriptEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in entries {
        fnv(&mut h, e.at);
        fnv(&mut h, e.party as u64);
        match &e.event {
            TranscriptEvent::Deliver { from, path, bits } => {
                fnv(&mut h, 1);
                fnv(&mut h, *from as u64);
                for &s in path.iter() {
                    fnv(&mut h, s as u64);
                }
                fnv(&mut h, *bits);
            }
            TranscriptEvent::DroppedDeliver { from, path, bits } => {
                fnv(&mut h, 2);
                fnv(&mut h, *from as u64);
                for &s in path.iter() {
                    fnv(&mut h, s as u64);
                }
                fnv(&mut h, *bits);
            }
            TranscriptEvent::Timer { path, id } => {
                fnv(&mut h, 3);
                for &s in path.iter() {
                    fnv(&mut h, s as u64);
                }
                fnv(&mut h, *id);
            }
        }
    }
    h
}

/// Golden fingerprint of the slice engine on one `Π_BC` run at seed 11,
/// n = 4: transcript, per-message bit accounting (frame-invariant), event and
/// frame counts and completion time, reproduced for every worker-thread
/// count — plus the engine's observability counters, which `Metrics`
/// equality skips: queue depth at slice boundaries, slice-width histogram
/// and timer expiries (the simulator never holds packets).
#[test]
fn bc_transcript_and_metrics_golden_framed() {
    let golden = [
        (
            NetworkKind::Synchronous,
            144usize,
            0xa3ad_658f_642a_92c3u64,
            23008u64,
            108u64,
            144u64,
            81u64,
            90u64,
            (40u64, &[0u64, 1, 0, 4, 5][..], 36u64),
        ),
        (
            NetworkKind::Asynchronous,
            138,
            0xcd2e_9356_0a03_b960,
            10656,
            108,
            138,
            81,
            316,
            (64, &[55, 12, 3, 5], 36),
        ),
    ];
    for (kind, t_len, t_hash, bits, msgs, events, frames, now, engine) in golden {
        for threads in [1usize, 4] {
            let cfg = NetConfig::for_kind(4, kind)
                .with_seed(11)
                .with_threads(threads);
            let (transcript, metrics, finished) = run_bc_config(cfg, false);
            let label = format!("framed {kind:?} threads={threads}");
            assert_eq!(transcript.len(), t_len, "{label} transcript length");
            assert_eq!(transcript_hash(&transcript), t_hash, "{label} transcript");
            assert_eq!(metrics.honest_bits, bits, "{label} honest_bits");
            assert_eq!(metrics.honest_messages, msgs, "{label} honest_messages");
            assert_eq!(metrics.events_processed, events, "{label} events");
            assert_eq!(metrics.frames_sent, frames, "{label} frames_sent");
            assert_eq!(finished, now, "{label} completion time");
            assert_engine_counters(&metrics, engine, &label);
        }
    }
}

/// The engine's observability counters a golden pins: `(max_queue_depth,
/// batch_width_hist, timeouts_fired)`.
type EngineGolden = (u64, &'static [u64], u64);

fn assert_engine_counters(metrics: &Metrics, engine: EngineGolden, label: &str) {
    let (depth, hist, timeouts) = engine;
    assert_eq!(metrics.max_queue_depth, depth, "{label} max_queue_depth");
    assert_eq!(metrics.batch_width_hist, hist, "{label} batch_width_hist");
    assert_eq!(metrics.timeouts_fired, timeouts, "{label} timeouts_fired");
    assert_eq!(metrics.held_packets_peak, 0, "{label} held_packets_peak");
}

/// (kind, transcript length, transcript hash, honest_bits, honest_messages,
/// events, per-party `output_at`) of one stand-alone sharing run.
type SharingGolden = (NetworkKind, usize, u64, u64, u64, u64, [Time; 5]);

/// Runs one stand-alone sharing protocol per golden row — n = 5
/// (t_s = t_a = 1), seed 3, dealer 0 sharing two fixed degree-`t_s`
/// polynomials, every party honest, to quiescence — and compares the
/// fingerprint. The synchronous run must take the `(W, E, F)` path and the
/// asynchronous seed the `(n, t_a)`-star path: the dealer's star A-cast is
/// child segment `star_seg`, so the path shows as deliveries on it.
fn check_sharing_golden<P: Protocol<Msg> + 'static>(
    label: &str,
    star_seg: u32,
    party: impl Fn(usize, Params, Vec<Polynomial>) -> P,
    output_at: impl Fn(&P) -> Option<Time>,
    golden: [SharingGolden; 2],
) {
    let n = 5;
    let params = Params::max_thresholds(n, 10);
    let polys: Vec<Polynomial> = [[31u64, 5], [64, 9]]
        .iter()
        .map(|c| Polynomial::from_coeffs(c.iter().map(|&x| Fp::from_u64(x)).collect()))
        .collect();
    for (kind, t_len, t_hash, bits, msgs, events, outputs) in golden {
        let label = format!("{label} {kind:?}");
        let parties = (0..n)
            .map(|i| Box::new(party(i, params, polys.clone())) as Box<dyn Protocol<Msg>>)
            .collect();
        let cfg = NetConfig::for_kind(n, kind).with_seed(3).with_threads(1);
        let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
        sim.record_transcript();
        sim.run_to_quiescence(10_000_000);
        let transcript = sim.transcript();
        let star = transcript.iter().any(|e| {
            matches!(&e.event, TranscriptEvent::Deliver { path, .. } if path.first() == Some(&star_seg))
        });
        assert_eq!(star, kind == NetworkKind::Asynchronous, "{label} path");
        assert_eq!(transcript.len(), t_len, "{label} transcript length");
        assert_eq!(transcript_hash(transcript), t_hash, "{label} transcript");
        let metrics = sim.metrics();
        assert_eq!(metrics.honest_bits, bits, "{label} honest_bits");
        assert_eq!(metrics.honest_messages, msgs, "{label} honest_messages");
        assert_eq!(metrics.events_processed, events, "{label} events");
        for (i, at) in outputs.into_iter().enumerate() {
            let p = sim.party_as::<P>(i).expect("party type");
            assert_eq!(output_at(p), Some(at), "{label} output_at of party {i}");
        }
    }
}

/// Golden fingerprints of stand-alone `Π_WPS` and `Π_VSS`, pinned before the
/// two were rebuilt over one dealer-verification core (DESIGN.md).
#[test]
fn wps_and_vss_transcript_and_metrics_golden() {
    let (sync, asyn) = (NetworkKind::Synchronous, NetworkKind::Asynchronous);
    let golden = [
        (
            sync,
            1275,
            0xdf10_5d88_3f38_d1e6,
            367_800,
            1115,
            931,
            [340; 5],
        ),
        (
            asyn,
            2545,
            0x595e_401f_83bf_cafd,
            215_400,
            2385,
            2177,
            [859, 867, 853, 862, 917],
        ),
    ];
    let party = |i, params, polys: Vec<Polynomial>| match i {
        0 => Wps::new_dealer(0, params, polys),
        _ => Wps::new(0, params, polys.len()),
    };
    check_sharing_golden("wps", 2, party, |p: &Wps| p.output_at, golden);

    let golden = [
        (
            sync,
            7625,
            0x2a0a_52a8_68d0_1fd3,
            2_202_600,
            6665,
            3405,
            [720; 5],
        ),
        (
            asyn,
            15520,
            0x15c0_81e5_b737_4f28,
            1_296_560,
            14560,
            9332,
            [1650, 1576, 1586, 1624, 1677],
        ),
    ];
    let party = |i, params, polys: Vec<Polynomial>| match i {
        0 => Vss::new_dealer(0, params, polys),
        _ => Vss::new(0, params, polys.len()),
    };
    check_sharing_golden("vss", 5 + 2, party, |p: &Vss| p.output_at, golden);
}

/// The golden full-MPC circuit.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    let prod = c.mul(c.input(0), c.input(1));
    let s = c.add(c.input(2), c.input(3));
    let out = c.add(prod, s);
    c.set_output(out);
    c
}

/// Golden fingerprint of the default engine (layer-batched openings) on a
/// full-MPC run at seed 77: (kind, output, finished_at, honest_bits,
/// honest_messages, events, frames, engine counters).
///
/// Re-pinned for lock-step broadcast groups (DESIGN.md): the n same-tick
/// `Π_BC` instances of every `Π_BA` and vote board share ONE slot-wise SBA,
/// so n round envelopes per party per round became one. Old → new: sync bits
/// 8 775 040 → 8 065 408, messages 47 856 → 28 848, events 27 822 → 13 566;
/// async bits 5 703 232 → 4 993 600, messages 68 952 → 49 944, events
/// 37 351 → 23 095. Output, both completion ticks (960 / 2956) and both
/// frame counts (906 / 5 163) did not move.
///
/// Re-pinned for phase-batched openings (DESIGN.md): each preprocessing wave
/// is ONE `Open` per party instead of one per (dealer, batch, supervisor) —
/// on this circuit 384 `Open`s and their 27 648 header bits less. Old → new:
/// sync bits 8 065 408 → 8 037 760, messages 28 848 → 28 464, events
/// 13 566 → 13 470; async bits 4 993 600 → 4 965 952, messages 49 944 →
/// 49 560, events 23 095 → 22 999. Output, both completion ticks (960 /
/// 2956) and both frame counts did not move.
#[test]
fn full_mpc_metrics_golden_batched() {
    let golden = [
        (
            NetworkKind::Synchronous,
            33u64,
            960u64,
            8_037_760u64,
            28_464u64,
            13_470u64,
            906u64,
            (1268u64, &[0u64, 0, 0, 4, 7, 14, 25, 18, 17, 4][..], 5448u64),
        ),
        (
            NetworkKind::Asynchronous,
            33,
            2956,
            4_965_952,
            49_560,
            22_999,
            5_163,
            (1646, &[358, 317, 384, 305, 169, 63, 36, 9, 14, 2], 5448),
        ),
    ];
    let c = golden_circuit();
    for (kind, output, finished_at, bits, msgs, events, frames, engine) in golden {
        for threads in [1usize, 4] {
            let r = MpcBuilder::new(4, 1, 0)
                .network(kind)
                .seed(77)
                .inputs(&[3, 5, 7, 11])
                .threads(threads)
                // Golden fingerprints pin the scalar engine explicitly: a
                // CI lane exports MPC_PACKING, and the packed engine is a
                // different (equally correct) protocol with its own wire
                // transcript.
                .packing(0)
                // The golden pins the simulator's exact completion tick and
                // event count, so the backend is explicit: under
                // MPC_TRANSPORT=threaded the run would stop at a different
                // (equally correct) quiescence tick.
                .transport(Backend::Simulator)
                // Same story for the MPC_FAULT_PLAN CI lane: an injected
                // plan changes the transcript by design.
                .fault_plan(FaultPlan::none())
                .run(&c)
                .expect("run completes");
            let label = format!("batched {kind:?} threads={threads}");
            assert_eq!(r.output.as_u64(), output, "{label} output");
            assert_eq!(r.finished_at, finished_at, "{label} finished_at");
            assert_eq!(r.metrics.honest_bits, bits, "{label} honest_bits");
            assert_eq!(r.metrics.honest_messages, msgs, "{label} honest_messages");
            assert_eq!(r.metrics.events_processed, events, "{label} events");
            assert_eq!(r.metrics.frames_sent, frames, "{label} frames_sent");
            assert_eq!(r.metrics.decode_failures, 0, "{label} decode_failures");
            assert_engine_counters(&r.metrics, engine, &label);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic parallelism: a `threads = k` run must be bit-identical to the
// `threads = 1` run — same transcript (hash and length), same `Metrics`
// (including honest-bit totals), same completion time — for both network
// kinds, every wire-level Byzantine strategy, and arbitrary seeds.
// ---------------------------------------------------------------------------

type StrategyFactory = Box<dyn Fn() -> Box<dyn ByzantineStrategy>>;

fn strategies() -> Vec<(&'static str, StrategyFactory)> {
    use bobw_mpc::protocols::AcastMsg;
    let alt = Msg::Acast(AcastMsg::Send(BcValue::Bit(true))).encode();
    vec![
        ("passive", Box::new(|| Box::new(Passive) as _)),
        ("crash", Box::new(|| Box::new(Crash) as _)),
        (
            "equivocate",
            Box::new(move || Box::new(EquivocateBroadcast { alt: alt.clone() }) as _),
        ),
        ("garble", Box::new(|| Box::new(GarbleBytes) as _)),
    ]
}

/// One Π_BC run with a corrupt sender driving the given wire-level strategy,
/// run to quiescence (a stop predicate would never fire under `Crash`).
fn run_bc_adversarial(
    kind: NetworkKind,
    seed: u64,
    strategy: Box<dyn ByzantineStrategy>,
    threads: usize,
) -> (u64, usize, Metrics, Time) {
    let n = 4;
    let params = Params::max_thresholds(n, 10);
    let cfg = NetConfig::for_kind(n, kind)
        .with_seed(seed)
        .with_threads(threads);
    // Corrupt the Π_BC sender: its broadcast is exactly what equivocation
    // and garbling act on, and crash silences the whole instance.
    let mut sim = Simulation::new(cfg, CorruptionSet::new(vec![0]), bc_parties(n, params));
    sim.set_strategy(strategy);
    sim.record_transcript();
    sim.run_to_quiescence(params.t_bc() * 20);
    (
        transcript_hash(sim.transcript()),
        sim.transcript().len(),
        sim.metrics().clone(),
        sim.now(),
    )
}

#[test]
fn parallel_bit_identical_for_every_kind_and_strategy() {
    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for (name, mk_strategy) in strategies() {
            let sequential = run_bc_adversarial(kind, 23, mk_strategy(), 1);
            for threads in [2usize, 4] {
                let parallel = run_bc_adversarial(kind, 23, mk_strategy(), threads);
                assert_eq!(
                    sequential, parallel,
                    "{kind:?}/{name}: threads={threads} must be bit-identical to threads=1"
                );
            }
        }
    }
}

#[test]
fn parallel_full_mpc_bit_identical_with_byzantine_wire() {
    // End-to-end: full circuit evaluation with a garbling corrupt party —
    // the decode-failure path, adversary RNG draws and tamper accounting
    // must all interleave identically under parallel pre-execution.
    let c = Circuit::product_of_inputs(4);
    let run = |threads: usize| {
        let r = MpcBuilder::new(4, 1, 0)
            .seed(41)
            .inputs(&[2, 3, 4, 5])
            .corrupt(&[3])
            .byzantine_strategy(Box::new(GarbleBytes))
            .threads(threads)
            .run(&c)
            .expect("honest parties terminate despite garbled bytes");
        (
            r.output,
            r.outputs,
            r.input_subset,
            r.finished_at,
            r.metrics,
        )
    };
    let sequential = run(1);
    assert!(sequential.4.decode_failures > 0, "garbling must bite");
    assert_eq!(sequential, run(4));
}

/// The opening-batching acceptance sweep: for every wire-level Byzantine
/// strategy × network kind, layer-batched openings must terminate with
/// exactly the output of the per-gate reference driver, at every thread
/// count — and a strategy that never tampers with bytes must keep
/// `decode_failures == 0` in every configuration.
#[test]
fn batching_preserves_outputs_for_all_strategies() {
    let c = Circuit::product_of_inputs(4);
    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for (name, mk_strategy) in strategies() {
            let run = |per_gate: bool, threads: usize| {
                MpcBuilder::new(4, 1, 0)
                    .network(kind)
                    .seed(41)
                    .inputs(&[2, 3, 4, 5])
                    .corrupt(&[3])
                    .byzantine_strategy(mk_strategy())
                    .threads(threads)
                    .per_gate_openings(per_gate)
                    .run(&c)
            };
            let base = match run(true, 1) {
                Ok(base) => base,
                Err(e) => {
                    // n = 4 ⇒ t_a = 0: any actively misbehaving corrupt party
                    // exceeds the asynchronous corruption budget, so
                    // termination is not guaranteed there for *any* engine —
                    // the paper's bound, not a batching property. Synchronous
                    // runs must always terminate.
                    assert_eq!(
                        kind,
                        NetworkKind::Asynchronous,
                        "{kind:?}/{name}: reference engine must terminate: {e}"
                    );
                    continue;
                }
            };
            let tampering = matches!(name, "garble");
            assert_eq!(
                base.metrics.decode_failures == 0,
                !tampering,
                "{kind:?}/{name}: baseline decode-failure invariant"
            );
            for per_gate in [false, true] {
                for threads in [1usize, 4] {
                    let label = format!("{kind:?}/{name} per_gate={per_gate} t={threads}");
                    let r = run(per_gate, threads)
                        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                    assert_eq!(r.output, base.output, "{label}: output");
                    // Honest slots only: party 3 is corrupt and owed no
                    // output — whether it happens to hold one depends on
                    // when the honest-completion predicate stopped the run.
                    assert_eq!(
                        r.outputs[..3],
                        base.outputs[..3],
                        "{label}: honest per-party outputs"
                    );
                    assert_eq!(
                        r.metrics.decode_failures == 0,
                        base.metrics.decode_failures == 0,
                        "{label}: decode-failure invariant"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transcript-level parallel determinism over random seeds and thread
    /// counts, in both network kinds.
    #[test]
    fn parallel_bit_identical_over_random_seeds(
        seed in any::<u64>(),
        threads in 2usize..6,
        sync in any::<bool>(),
    ) {
        let kind = if sync {
            NetworkKind::Synchronous
        } else {
            NetworkKind::Asynchronous
        };
        let sequential = run_bc_threads(kind, seed, false, 1);
        let parallel = run_bc_threads(kind, seed, false, threads);
        prop_assert_eq!(
            transcript_hash(&sequential.0),
            transcript_hash(&parallel.0),
            "transcript hash must match for seed {} threads {}", seed, threads
        );
        prop_assert_eq!(sequential.0.len(), parallel.0.len());
        prop_assert_eq!(sequential.1, parallel.1, "metrics must match");
        prop_assert_eq!(sequential.2, parallel.2, "completion time must match");
    }
}

#[test]
fn full_mpc_run_is_deterministic_both_kinds() {
    let mut c = Circuit::new(4);
    let prod = c.mul(c.input(0), c.input(1));
    let s = c.add(c.input(2), c.input(3));
    let out = c.add(prod, s);
    c.set_output(out);

    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        let run = || {
            MpcBuilder::new(4, 1, 0)
                .network(kind)
                .seed(77)
                .inputs(&[3, 5, 7, 11])
                .run(&c)
                .expect("run completes")
        };
        let a = run();
        let b = run();
        assert_eq!(a.output, b.output, "{kind:?}");
        assert_eq!(a.outputs, b.outputs, "{kind:?}");
        assert_eq!(a.input_subset, b.input_subset, "{kind:?}");
        assert_eq!(a.finished_at, b.finished_at, "{kind:?}");
        assert_eq!(a.metrics, b.metrics, "{kind:?}");
    }
}
