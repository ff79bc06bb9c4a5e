//! Experiment E13 — transport backends: the deterministic simulator vs the
//! real threaded runtime vs the supervised TCP socket runtime.
//!
//! Runs the same full `Π_CirEval` evaluation on all three [`Backend`]s at
//! n ∈ {4, 7} and reports throughput (circuits/second) and the per-party
//! honest-bit accounting side by side. The simulator burns pure compute; the
//! threaded backend additionally pays genuine wall-clock tick pacing (every
//! Δ-timer is a real `recv_timeout` deadline), so its wall time is dominated
//! by `completed_at × tick` — the throughput gap *is* the price of real
//! time, not of the runtime machinery. The TCP backend pays the same pacing
//! plus real socket I/O (encode, kernel round trips, ack traffic) on every
//! link. Communication accounting must not depend on the backend: the
//! per-party bit vectors are asserted identical across all three runs (the
//! cheap always-on slice of the conformance contract; the full fingerprint
//! lives in `tests/transport_conformance.rs`). Outputs are checked against
//! the cleartext evaluation on every backend.

use bench::{cireval_builder, expected_clear, run_cireval, Measurement};
use mpc_core::Circuit;
use mpc_net::{Backend, NetworkKind};

/// Real tick duration for the threaded runs (µs). Short: throughput numbers
/// should show the pacing floor, and the conservative link-clock gate keeps
/// the schedule conformant even when debug compute overruns a tick.
const TICK_US: u64 = 500;

fn product_circuit(n: usize, muls: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let mut acc = c.input(0);
    for i in 0..muls {
        let rhs = c.input((i + 1) % n);
        acc = c.mul(acc, rhs);
    }
    c.set_output(acc);
    c
}

fn print_row(backend: &str, n: usize, m: &Measurement) {
    let cps = if m.wall_ms > 0.0 {
        1000.0 / m.wall_ms
    } else {
        f64::INFINITY
    };
    println!(
        "{:>5} {:>10} {:>10.1} {:>12.3} {:>11} {:>12} {:?}",
        n,
        backend,
        m.wall_ms,
        cps,
        m.completed_at,
        m.metrics.honest_bits,
        m.metrics.honest_bits_by_party
    );
}

fn main() {
    println!("# E13 — transport backends (synchronous, full Π_CirEval)");
    println!();
    println!(
        "{:>5} {:>10} {:>10} {:>12} {:>11} {:>12} per-party bits",
        "n", "backend", "wall-ms", "circuits/s", "ticks", "bits"
    );

    for n in [4usize, 7] {
        let circuit = product_circuit(n, 2);
        let expected = expected_clear(n, &circuit);
        let seed = 13 + n as u64;
        let builder = || cireval_builder(n, NetworkKind::Synchronous, seed);

        let (sim, sim_out) = run_cireval(builder().transport(Backend::Simulator), &circuit);
        assert_eq!(
            sim_out, expected,
            "simulator output must be correct (n={n})"
        );
        print_row("simulator", n, &sim);

        for (backend, label) in [(Backend::Threaded, "threaded"), (Backend::Tcp, "tcp")] {
            let real = builder().transport(backend).tick_micros(TICK_US);
            let (m, out) = run_cireval(real, &circuit);
            assert_eq!(out, expected, "{label} output must be correct (n={n})");
            assert_eq!(
                sim.metrics.honest_bits_by_party, m.metrics.honest_bits_by_party,
                "per-party honest bits must not depend on the backend (n={n})"
            );
            print_row(label, n, &m);
            let pacing_floor_ms = m.completed_at as f64 * TICK_US as f64 / 1000.0;
            println!(
                "  ({label}: pacing floor {pacing_floor_ms:.1} ms at {TICK_US} µs/tick, {} real timeouts fired)",
                m.metrics.timeouts_fired
            );
        }
    }
}
