//! Conformance harness: the deterministic simulator as golden oracle for the
//! real runtimes.
//!
//! Every row runs the same full MPC evaluation three times: once on the
//! discrete-event [`Simulation`] backend with the frozen [`LinkDelays`]
//! latency matrix installed as its scheduler, and once on each real medium —
//! the threaded (in-process channel) runtime and the supervised TCP socket
//! runtime — where each party is an OS thread exchanging canonical wire
//! bytes and all timers are real `recv_timeout` deadlines. Each real run
//! must produce byte-identical per-party outputs, the same agreed input
//! subset, and identical communication accounting (the [`Metrics`]
//! fingerprint, including per-party `honest_bits`; supervisor wall-clock
//! counters such as `reconnects` are excluded from the fingerprint by
//! construction). Transcript *order* may differ between backends; per-party
//! event sequences may not.

use bobw_mpc::algebra::Fp;
use bobw_mpc::core::{Circuit, MpcBuilder, MpcRunResult};
use bobw_mpc::net::{
    Backend, ByzantineStrategy, ChannelDeterministic, Crash, EquivocateBroadcast, GarbleBytes,
    LinkDelays, NetConfig, NetworkKind, Passive, SkewedAsyncScheduler,
};

/// Real tick durations to attempt for the real runs, shortest first.
/// The runtime's conservative link-clock gate back-pressures receivers when
/// debug-build compute overruns a tick on a loaded machine, so small ticks
/// are safe; a packet still counts as `late` only if a sender stalls past
/// the gate's grace period, and the harness retries with a longer tick
/// rather than failing outright on such a stall.
fn tick_schedule() -> Vec<u64> {
    vec![1000, 4000]
}

/// A named constructor for one wire-level adversary behaviour.
type StrategyCtor = (&'static str, fn() -> Box<dyn ByzantineStrategy>);

/// The four wire-level behaviours of the adversary model, each applied to a
/// single corrupt party running honest protocol code.
fn strategies() -> Vec<StrategyCtor> {
    vec![
        ("passive", || Box::new(Passive)),
        ("crash", || Box::new(Crash)),
        ("equivocate", || {
            Box::new(EquivocateBroadcast {
                alt: vec![0xAB, 0xCD, 0xEF],
            })
        }),
        ("garble", || Box::new(GarbleBytes)),
    ]
}

/// The depth-1 circuit most rows evaluate: `x₂ + x₀·x₁`.
fn small_circuit(n: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    let p = circuit.mul(circuit.input(0), circuit.input(1));
    let q = circuit.add(circuit.input(2), p);
    circuit.set_output(q);
    circuit
}

/// The smallest `(n, t_s, t_a)` of each network kind.
fn smallest_shape(kind: NetworkKind) -> (usize, usize, usize) {
    match kind {
        NetworkKind::Synchronous => (4, 1, 0),
        NetworkKind::Asynchronous => (5, 1, 1),
    }
}

/// [`assert_conformant_at`] on the small circuit, at the network kind's
/// smallest shape, on the scalar engine.
fn assert_conformant(
    kind: NetworkKind,
    seed: u64,
    corrupt: &[usize],
    strategy: StrategyCtor,
) -> MpcRunResult {
    let (n, ts, ta) = smallest_shape(kind);
    assert_conformant_at(
        &small_circuit(n),
        (ts, ta),
        0,
        kind,
        seed,
        corrupt,
        strategy,
    )
}

/// Runs `circuit` (one input per party) at `(t_s, t_a)` and packing width
/// `packing` on the simulator and on both real media, asserts the
/// conformance contract for each real run, and returns the simulator's run.
/// Every real run must also have been driven by real timeouts.
fn assert_conformant_at(
    circuit: &Circuit,
    (ts, ta): (usize, usize),
    packing: usize,
    kind: NetworkKind,
    seed: u64,
    corrupt: &[usize],
    (name, strategy): StrategyCtor,
) -> MpcRunResult {
    let n = circuit.n_inputs();
    let label = format!(
        "{name}, {kind:?}, n = {n}, ℓ = {packing}, depth {}, seed {seed}",
        circuit.mult_depth()
    );
    let inputs: Vec<u64> = (0..n as u64).map(|i| 3 * i + 2).collect();
    // Every backend runs the exact same frozen latency matrix: the simulator
    // takes it as its scheduler, the real media stamp it onto packets.
    // The asynchronous matrix slows one sender to 3Δ — beyond every Δ-timer,
    // enough to force the fallback path without stretching the run the way
    // the default 20Δ skew would (this test pays real wall-clock per tick).
    let delta = NetConfig::DEFAULT_DELTA;
    let links = match kind {
        NetworkKind::Synchronous => LinkDelays::for_kind(n, kind, delta, seed),
        NetworkKind::Asynchronous => LinkDelays::sampled_from(
            n,
            seed,
            &mut SkewedAsyncScheduler {
                slowed_senders: vec![seed as usize % n],
                lag: 3 * delta,
                fast: delta - 1,
            },
        ),
    };
    let build = |backend: Backend, tick_us: u64| {
        let mut b = MpcBuilder::new(n, ts, ta)
            .network(kind)
            .seed(seed)
            .inputs(&inputs)
            .drain(true)
            .horizon_factor(64)
            .packing(packing)
            .transport(backend);
        if !corrupt.is_empty() {
            b = b.corrupt(corrupt).byzantine_strategy(strategy());
        }
        match backend {
            Backend::Simulator => b.scheduler(Box::new(links.clone())),
            Backend::Threaded | Backend::Tcp => b.link_delays(links.clone()).tick_micros(tick_us),
        }
    };
    let sim = build(Backend::Simulator, 0)
        .run(circuit)
        .unwrap_or_else(|e| panic!("simulator run failed ({label}): {e}"));
    for backend in [Backend::Threaded, Backend::Tcp] {
        let schedule = tick_schedule();
        let mut real = None;
        for (attempt, &tick_us) in schedule.iter().enumerate() {
            let last = attempt + 1 == schedule.len();
            // A failed run (e.g. divergence after a grace-bailed stall kept
            // the protocol from terminating) is retried on a longer tick like
            // a late run; only the final attempt is allowed to panic.
            let run = match build(backend, tick_us).run(circuit) {
                Ok(run) => run,
                Err(e) if last => panic!("{backend:?} run failed ({label}): {e}"),
                Err(e) => {
                    eprintln!(
                        "conformance ({backend:?}, {label}): run failed at tick {tick_us}µs ({e}), retrying slower"
                    );
                    continue;
                }
            };
            if run.metrics.late_packets == 0 || last {
                real = Some(run);
                break;
            }
            eprintln!(
                "conformance ({backend:?}, {label}): {} late packets at tick {tick_us}µs, retrying slower",
                run.metrics.late_packets
            );
        }
        let real = real.expect("at least one real-backend attempt ran");

        assert!(
            real.metrics.late_packets == 0,
            "{backend:?} run overran even the largest tick ({label})"
        );
        assert_eq!(
            sim.outputs, real.outputs,
            "per-party outputs must be byte-identical ({backend:?}, {label})"
        );
        assert_eq!(
            sim.input_subset, real.input_subset,
            "agreed input subset must match ({backend:?}, {label})"
        );
        // The Metrics fingerprint (wall-clock and engine-granularity fields —
        // including the TCP supervisor counters — are excluded from
        // PartialEq) covers honest/corrupt message and bit counts, decode
        // failures, adversary actions, and the per-segment breakdown.
        assert_eq!(
            sim.metrics, real.metrics,
            "metrics fingerprint must match ({backend:?}, {label})"
        );
        // Per-party honest bits called out explicitly: identical accounting
        // for every single party, not just in aggregate.
        assert_eq!(
            sim.metrics.honest_bits_by_party, real.metrics.honest_bits_by_party,
            "per-party honest_bits must match ({backend:?}, {label})"
        );
        // The width is a configuration echo, outside the fingerprint.
        assert_eq!(
            sim.metrics.packed_width, real.metrics.packed_width,
            "packing width must match ({backend:?}, {label})"
        );
        // Real timeouts drove the round transitions (and, in an
        // asynchronous network, the sync→async fallback): the deadlines
        // expired on the wall clock, not on simulated ticks.
        assert!(
            real.metrics.timeouts_fired > 0,
            "real timeouts must drive the run ({backend:?}, {label})"
        );
    }
    sim
}

/// A party with no strategy: the rows without a corrupt party name it.
const HONEST: StrategyCtor = ("honest", || Box::new(Passive));

#[test]
fn synchronous_conformance_all_strategies() {
    for seed in [1u64, 5] {
        for strategy in strategies() {
            assert_conformant(NetworkKind::Synchronous, seed, &[3], strategy);
        }
    }
}

#[test]
fn synchronous_conformance_all_honest() {
    let sim = assert_conformant(NetworkKind::Synchronous, 9, &[], HONEST);
    assert_eq!(sim.input_subset, vec![0, 1, 2, 3]);
}

/// The asynchronous latency matrix slows one sender beyond Δ, so the real
/// parties' `recv_timeout` deadlines expire before its bytes arrive: the
/// sync→async fallback is exercised by genuine wall-clock timeouts.
#[test]
fn asynchronous_conformance_all_strategies() {
    for strategy in strategies() {
        assert_conformant(NetworkKind::Asynchronous, 2, &[4], strategy);
    }
}

/// Two corrupt parties share one adversary: the simulator runs each one's
/// batch (its cascades included) at its place in party order, as the real
/// runtimes do. Garbling is wrapped in `ChannelDeterministic` so the real
/// runtimes' thread interleaving cannot reorder its random draws. Seed 5
/// makes corrupt party 5 the asynchronous matrix's slow sender: with
/// t_a = 0, two active corrupt parties plus a slowed honest one would be
/// beyond what the protocol guarantees an output for.
#[test]
fn two_corrupt_parties_conform_in_both_network_kinds() {
    let two_corrupt: [StrategyCtor; 2] = [
        ("garble", || {
            Box::new(ChannelDeterministic::new(GarbleBytes, 0x5EED))
        }),
        ("equivocate", || {
            Box::new(EquivocateBroadcast {
                alt: vec![0xAB, 0xCD, 0xEF],
            })
        }),
    ];
    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for strategy in two_corrupt {
            assert_conformant_at(&small_circuit(7), (2, 0), 0, kind, 5, &[2, 5], strategy);
        }
    }
}

/// The packed engine at the widest width `n − 3·t_s` allows: ℓ = 4 at
/// (7, 1, 1), all honest and with one garbling party, in both network kinds.
#[test]
fn packed_width_four_conforms_in_both_network_kinds() {
    let garble: StrategyCtor = ("garble", || Box::new(GarbleBytes));
    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for (strategy, corrupt) in [(HONEST, &[][..]), (garble, &[6][..])] {
            let sim =
                assert_conformant_at(&small_circuit(7), (1, 1), 4, kind, 3, corrupt, strategy);
            assert_eq!(sim.metrics.packed_width, 4, "{kind:?}");
        }
    }
}

/// A circuit of multiplicative depth 3: each layer is one more batched
/// Beaver opening, so the real media are held to the simulator over three
/// dependent opening waves of the circuit phase, where every other row opens
/// once.
#[test]
fn depth_three_circuit_conforms_in_both_network_kinds() {
    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        let (n, ts, ta) = smallest_shape(kind);
        let circuit = Circuit::layered(n, 2, 3);
        assert_eq!(circuit.mult_depth(), 3);
        let sim = assert_conformant_at(&circuit, (ts, ta), 0, kind, 4, &[], HONEST);
        let clear: Vec<Fp> = (0..n as u64).map(|i| Fp::from_u64(3 * i + 2)).collect();
        assert_eq!(sim.output, circuit.evaluate_clear(&clear), "{kind:?}");
    }
}

#[test]
fn crashed_party_is_excluded_by_real_timeouts() {
    // A crashed corrupt party never delivers a byte, so its input cannot
    // enter the agreed subset; on the real media the honest parties
    // discover this purely through elapsed recv_timeout deadlines.
    let sim = assert_conformant(
        NetworkKind::Asynchronous,
        6,
        &[4],
        ("crash", || Box::new(Crash)),
    );
    assert!(
        !sim.input_subset.contains(&4),
        "a crashed party's input cannot be agreed into the subset"
    );
    assert!(sim.input_subset.len() >= 4);
}
