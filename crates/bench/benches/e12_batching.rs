//! Experiment E12 — communication-layer batching: layer-batched Beaver
//! openings on the framed engine.
//!
//! Compares per-layer against per-gate circuit openings over full
//! `Π_CirEval` runs and reports simulator events, dispatched frames, honest
//! bits, simulated completion time and wall-clock time. Layer batching
//! shaves the per-opening `Open` message headers (`D_M` broadcasts of `2·L`
//! values instead of `c_M` broadcasts of 2) and the reconstruction count
//! (one OEC basis per layer). Wire frames (one event per `(sender,
//! destination)` pair per activation, accounting *per contained message*)
//! are the only engine, so they are on in both modes.
//!
//! E12a runs the full-MPC golden configuration of `tests/determinism.rs`
//! (n = 4, seed 77). E12b sweeps product circuits up to n = 7 — the
//! acceptance series for the "e9 cireval wall-clock at n = 7" claim.
//! Outputs are checked against the cleartext evaluation in every mode.

use bench::{cireval_builder, expected_clear, run_cireval, Measurement};
use mpc_core::Circuit;
use mpc_net::NetworkKind;

/// The two opening modes: label × per-gate openings. The first entry is the
/// per-gate reference driver, the last is the default.
const MODES: [(&str, bool); 2] = [("gate", true), ("layer", false)];

fn print_row(label: &str, n: usize, m: &Measurement, base: &Measurement) {
    let events = m.metrics.events_processed;
    let event_x = base.metrics.events_processed as f64 / events as f64;
    let wall_x = if m.wall_ms > 0.0 {
        base.wall_ms / m.wall_ms
    } else {
        1.0
    };
    println!(
        "{:>5} {:>15} {:>10} {:>9} {:>12} {:>10} {:>9.2}x {:>9.2}x",
        n,
        label,
        events,
        m.metrics.frames_sent,
        m.metrics.honest_bits,
        format!("{:.1}", m.wall_ms),
        event_x,
        wall_x,
    );
}

fn sweep(series: &str, n: usize, circuit: &Circuit, seed: u64) -> Vec<Measurement> {
    let expected = expected_clear(n, circuit);
    let mut measurements = Vec::new();
    for (label, per_gate) in MODES {
        let builder =
            cireval_builder(n, NetworkKind::Synchronous, seed).per_gate_openings(per_gate);
        let (m, out) = run_cireval(builder, circuit);
        assert_eq!(
            out, expected,
            "{series}/{label} n={n} output must be correct"
        );
        print_row(label, n, &m, measurements.first().unwrap_or(&m));
        measurements.push(m);
    }
    measurements
}

fn main() {
    println!("# E12 — communication-layer batching (synchronous, full Π_CirEval)");
    println!();
    println!(
        "{:>5} {:>15} {:>10} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "n", "mode", "events", "frames", "bits", "wall-ms", "events-x", "wall-x"
    );

    // E12a — the golden configuration of tests/determinism.rs: n = 4,
    // seed 77, the mul+add+add circuit.
    let mut golden = Circuit::new(4);
    let prod = golden.mul(golden.input(0), golden.input(1));
    let s = golden.add(golden.input(2), golden.input(3));
    let out = golden.add(prod, s);
    golden.set_output(out);
    if let [base, .., batched] = &sweep("golden", 4, &golden, 77)[..] {
        let (before, after) = (
            base.metrics.events_processed,
            batched.metrics.events_processed,
        );
        let reduction = before as f64 / after as f64;
        println!("  (golden n=4: {before} → {after} events, {reduction:.2}x reduction)");
    }
    println!();

    // E12b — product circuits: the e9-style cireval series, up to the n = 7
    // wall-clock acceptance point.
    for n in [4usize, 5, 7] {
        let circuit = Circuit::product_of_inputs(n);
        if let [base, .., batched] = &sweep("product", n, &circuit, 11)[..] {
            let wall_gain = (1.0 - batched.wall_ms / base.wall_ms) * 100.0;
            println!(
                "  (product n={n}: {:.1} ms → {:.1} ms, {wall_gain:.0}% wall-clock reduction)",
                base.wall_ms, batched.wall_ms
            );
        }
        println!();
    }
    println!(
        "(per-layer openings save the per-opening message headers, hence the slightly \
         smaller layer-mode bit totals; outputs are checked against the cleartext \
         evaluation in both modes)"
    );
}
