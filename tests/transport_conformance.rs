//! Conformance harness: the deterministic simulator as golden oracle for the
//! real runtimes.
//!
//! For every seed in the sweep, the same full MPC evaluation is run twice —
//! once on the discrete-event [`Simulation`] backend with the frozen
//! [`LinkDelays`] latency matrix installed as its scheduler, once on a real
//! backend where each party is an OS thread exchanging canonical wire bytes
//! and all timers are real `recv_timeout` deadlines. The real backend under
//! test follows `MPC_TRANSPORT`: the threaded (in-process channel) runtime
//! by default, the supervised TCP socket runtime under `MPC_TRANSPORT=tcp`
//! — the whole module doubles as the socket transport's conformance proof.
//! The two runs must produce byte-identical per-party outputs, the same
//! agreed input subset, and identical communication accounting (the
//! [`Metrics`] fingerprint, including per-party `honest_bits`; supervisor
//! wall-clock counters such as `reconnects` are excluded from the
//! fingerprint by construction). Transcript *order* may differ between
//! backends; per-party event sequences may not.

use bobw_mpc::core::{Circuit, MpcBuilder, MpcRunResult};
use bobw_mpc::net::{
    Backend, ByzantineStrategy, Crash, EquivocateBroadcast, GarbleBytes, LinkDelays, NetConfig,
    NetworkKind, Passive, SkewedAsyncScheduler,
};

/// Real tick durations to attempt for the threaded runs, shortest first.
/// The backend's conservative link-clock gate back-pressures receivers when
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

/// The real (thread-per-party) backend under test: `MPC_TRANSPORT=tcp`
/// selects the socket runtime, anything else the in-process threaded one —
/// the simulator side of the comparison is always explicit.
fn real_backend() -> Backend {
    match Backend::from_env() {
        Backend::Tcp => Backend::Tcp,
        _ => Backend::Threaded,
    }
}

struct Conformance {
    sim: MpcRunResult,
    real: MpcRunResult,
}

/// Runs the same configuration on both backends and asserts the conformance
/// contract.
fn assert_conformant(
    kind: NetworkKind,
    seed: u64,
    corrupt: &[usize],
    strategy: fn() -> Box<dyn ByzantineStrategy>,
    label: &str,
) -> Conformance {
    let (n, ts, ta) = match kind {
        NetworkKind::Synchronous => (4, 1, 0),
        NetworkKind::Asynchronous => (5, 1, 1),
    };
    let mut circuit = Circuit::new(n);
    let p = circuit.mul(circuit.input(0), circuit.input(1));
    let q = circuit.add(circuit.input(2), p);
    circuit.set_output(q);
    let inputs: Vec<u64> = (0..n as u64).map(|i| 3 * i + 2).collect();
    // Both backends run the exact same frozen latency matrix: the simulator
    // takes it as its scheduler, the threaded backend stamps it onto packets.
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
        .run(&circuit)
        .unwrap_or_else(|e| panic!("simulator run failed ({label}, seed {seed}): {e}"));
    let backend = real_backend();
    let schedule = tick_schedule();
    let mut real = None;
    for (attempt, &tick_us) in schedule.iter().enumerate() {
        let last = attempt + 1 == schedule.len();
        // A failed run (e.g. divergence after a grace-bailed stall kept the
        // protocol from terminating) is retried on a longer tick like a late
        // run; only the final attempt is allowed to panic.
        let run = match build(backend, tick_us).run(&circuit) {
            Ok(run) => run,
            Err(e) if last => panic!("{backend:?} run failed ({label}, seed {seed}): {e}"),
            Err(e) => {
                eprintln!(
                    "conformance ({label}, seed {seed}): run failed at tick {tick_us}µs ({e}), retrying slower"
                );
                continue;
            }
        };
        if run.metrics.late_packets == 0 || last {
            real = Some(run);
            break;
        }
        eprintln!(
            "conformance ({label}, seed {seed}): {} late packets at tick {tick_us}µs, retrying slower",
            run.metrics.late_packets
        );
    }
    let real = real.expect("at least one real-backend attempt ran");

    assert!(
        real.metrics.late_packets == 0,
        "{backend:?} run overran even the largest tick ({label}, seed {seed})"
    );
    assert_eq!(
        sim.outputs, real.outputs,
        "per-party outputs must be byte-identical ({backend:?}, {label}, seed {seed})"
    );
    assert_eq!(
        sim.input_subset, real.input_subset,
        "agreed input subset must match ({backend:?}, {label}, seed {seed})"
    );
    // The Metrics fingerprint (wall-clock and engine-granularity fields —
    // including the TCP supervisor counters — are excluded from PartialEq)
    // covers honest/corrupt message and bit counts, decode failures,
    // adversary actions, and the per-segment breakdown.
    assert_eq!(
        sim.metrics, real.metrics,
        "metrics fingerprint must match ({backend:?}, {label}, seed {seed})"
    );
    // Per-party honest bits called out explicitly: identical accounting for
    // every single party, not just in aggregate.
    assert_eq!(
        sim.metrics.honest_bits_by_party, real.metrics.honest_bits_by_party,
        "per-party honest_bits must match ({backend:?}, {label}, seed {seed})"
    );
    Conformance { sim, real }
}

#[test]
fn synchronous_conformance_all_strategies() {
    for seed in [1u64, 5] {
        for (label, strategy) in strategies() {
            let runs = assert_conformant(NetworkKind::Synchronous, seed, &[3], strategy, label);
            // Real timeouts drove every round transition on the threaded path.
            assert!(runs.real.metrics.timeouts_fired > 0);
        }
    }
}

#[test]
fn synchronous_conformance_all_honest() {
    let runs = assert_conformant(
        NetworkKind::Synchronous,
        9,
        &[],
        || Box::new(Passive),
        "honest",
    );
    assert_eq!(runs.sim.input_subset, vec![0, 1, 2, 3]);
    assert!(runs.real.metrics.timeouts_fired > 0);
}

#[test]
fn asynchronous_conformance_all_strategies() {
    for (label, strategy) in strategies() {
        let runs = assert_conformant(NetworkKind::Asynchronous, 2, &[4], strategy, label);
        // The asynchronous latency matrix slows one sender beyond Δ, so the
        // threaded parties' real recv_timeout deadlines expire before its
        // bytes arrive: the sync→async fallback is exercised by genuine
        // wall-clock timeouts, not simulated ticks.
        assert!(
            runs.real.metrics.timeouts_fired > 0,
            "fallback must be driven by real timeouts ({label})"
        );
    }
}

#[test]
fn crashed_party_is_excluded_by_real_timeouts() {
    // A crashed corrupt party never delivers a byte, so its input cannot
    // enter the agreed subset; on the threaded backend the honest parties
    // discover this purely through elapsed recv_timeout deadlines.
    let runs = assert_conformant(
        NetworkKind::Asynchronous,
        6,
        &[4],
        || Box::new(Crash),
        "crash-fallback",
    );
    assert!(
        !runs.real.input_subset.contains(&4),
        "a crashed party's input cannot be agreed into the subset"
    );
    assert!(runs.real.input_subset.len() >= 4);
    assert!(runs.real.metrics.timeouts_fired > 0);
}
