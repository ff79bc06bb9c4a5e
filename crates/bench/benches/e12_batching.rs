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
//!
//! `BENCH_SMOKE=1` shrinks the sweep for CI; outputs are checked against the
//! cleartext evaluation in every mode.

use bench::{expected_clear, run_cireval_batching, JsonReport, Measurement};
use mpc_core::Circuit;
use mpc_net::NetworkKind;

/// The two opening modes: label × per-gate openings. The first entry is the
/// per-gate reference driver, the last is the default.
const MODES: [(&str, bool); 2] = [("gate", true), ("layer", false)];

fn print_row(label: &str, n: usize, m: &Measurement, base: &Measurement) {
    let event_x = base.events_processed as f64 / m.events_processed as f64;
    let wall_x = if m.wall_ms > 0.0 {
        base.wall_ms / m.wall_ms
    } else {
        1.0
    };
    println!(
        "{:>5} {:>15} {:>10} {:>9} {:>12} {:>10} {:>9.2}x {:>9.2}x",
        n,
        label,
        m.events_processed,
        m.frames_sent,
        m.honest_bits,
        format!("{:.1}", m.wall_ms),
        event_x,
        wall_x,
    );
}

fn sweep(
    report: &mut JsonReport,
    series: &str,
    n: usize,
    circuit: &Circuit,
    seed: u64,
) -> Vec<Measurement> {
    let expected = expected_clear(n, circuit);
    let only = std::env::var("E12_ONLY").ok();
    let mut measurements = Vec::new();
    for (label, per_gate) in MODES {
        if only.as_deref().is_some_and(|o| o != label) {
            continue;
        }
        let (m, out) = run_cireval_batching(n, circuit, NetworkKind::Synchronous, seed, per_gate);
        assert_eq!(
            out, expected,
            "{series}/{label} n={n} output must be correct"
        );
        report.push_labeled(&format!("{series}_{label}"), n, circuit.mult_count(), &m);
        print_row(label, n, &m, measurements.first().unwrap_or(&m));
        measurements.push(m);
    }
    measurements
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let mut report = JsonReport::new("e12_batching");
    println!("# E12 — communication-layer batching (synchronous, full Π_CirEval)");
    println!();
    println!(
        "{:>5} {:>15} {:>10} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "n", "mode", "events", "frames", "bits", "wall-ms", "events-x", "wall-x"
    );

    // Optional single-point focus for ad-hoc measurement runs
    // (`E12_N=<n>` skips the golden sweep and the other committee sizes).
    let only_n: Option<usize> = std::env::var("E12_N").ok().and_then(|v| v.parse().ok());

    // E12a — the golden configuration of tests/determinism.rs: n = 4,
    // seed 77, the mul+add+add circuit.
    let mut golden = Circuit::new(4);
    let prod = golden.mul(golden.input(0), golden.input(1));
    let s = golden.add(golden.input(2), golden.input(3));
    let out = golden.add(prod, s);
    golden.set_output(out);
    let ms = if only_n.is_none() {
        sweep(&mut report, "golden", 4, &golden, 77)
    } else {
        Vec::new()
    };
    if let [base, .., batched] = &ms[..] {
        let reduction = base.events_processed as f64 / batched.events_processed as f64;
        println!(
            "  (golden n=4: {} → {} events, {reduction:.2}x reduction)",
            base.events_processed, batched.events_processed
        );
    }
    println!();

    // E12b — product circuits: the e9-style cireval series, up to the n = 7
    // wall-clock acceptance point (smoke stops at n = 4).
    let ns: &[usize] = if smoke { &[4] } else { &[4, 5, 7] };
    for &n in ns {
        if only_n.is_some_and(|o| o != n) {
            continue;
        }
        let circuit = Circuit::product_of_inputs(n);
        let ms = sweep(&mut report, "product", n, &circuit, 11);
        if let [base, .., batched] = &ms[..] {
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
    report.finish();
}
