//! Experiment E11 — simulator scaling: time-sliced multi-core party
//! execution.
//!
//! Sweeps committee size `n` × simulator worker threads over (a) an e1-style
//! full circuit evaluation and (b) one `Π_BA` instance, and reports the
//! wall-clock effect of the deterministic parallel engine. The protocol
//! executions themselves are bit-identical across thread counts (that is
//! asserted by `tests/determinism.rs`); what this experiment measures is
//! purely the harness speedup, i.e. how far the simulator is from "as fast
//! as the hardware allows" on the current machine.
//!
//! `BENCH_LARGE=1` extends the sweep with the committee sizes (up to
//! `n = 128` for Π_BA) that only make sense on serious multi-core hardware —
//! the paper's protocols are `O(n⁴⁺)` in simulator events, so the largest
//! full-circuit committees take minutes per run even parallelised. Note the
//! speedup column is only meaningful on multi-core hardware: with a single
//! available core the `threads = 4` configuration measures pure engine
//! overhead (~1.4× on the reference container).

use bench::{cireval_builder, expected_clear, run_ba, run_cireval, Measurement};
use mpc_core::Circuit;
use mpc_net::NetworkKind;

fn print_row(n: usize, threads: usize, m: &Measurement, base_ms: f64) {
    let speedup = if m.wall_ms > 0.0 {
        base_ms / m.wall_ms
    } else {
        1.0
    };
    println!(
        "{:>5} {:>8} {:>12} {:>12} {:>12} {:>10.1} {:>8.2}x",
        n,
        threads,
        m.metrics.honest_bits,
        m.metrics.events_processed,
        m.metrics.max_queue_depth,
        m.wall_ms,
        speedup
    );
}

fn main() {
    let large = std::env::var_os("BENCH_LARGE").is_some();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // Committee sizes, measured on the 1-core reference container
    // (sequential): cireval ≈ 0.1 s / 1 s / 4 s / 130 s at n = 4/6/8/10;
    // BA ≈ 0.05 s / 0.8 s / 22 s at n = 16/32/64.
    let cireval_ns: &[usize] = if large { &[4, 6, 8, 10] } else { &[4, 6, 8] };
    let ba_ns: &[usize] = if large {
        &[16, 32, 64, 128]
    } else {
        &[16, 32, 64]
    };
    let threads: &[usize] = &[1, 4];
    let header = || {
        println!(
            "{:>5} {:>8} {:>12} {:>12} {:>12} {:>10} {:>9}",
            "n", "threads", "bits", "events", "maxqueue", "wall-ms", "speedup"
        )
    };

    println!("# E11 — deterministic parallel simulator scaling ({cores} core(s) available)");
    println!();
    println!("## E11a — e1-style circuit evaluation (synchronous, product circuit)");
    header();
    for &n in cireval_ns {
        let circuit = Circuit::product_of_inputs(n);
        let expected = expected_clear(n, &circuit);
        let mut base_ms = 0.0f64;
        for &t in threads {
            let builder = cireval_builder(n, NetworkKind::Synchronous, 11).threads(t);
            let (m, out) = run_cireval(builder, &circuit);
            assert_eq!(out, expected, "parallel run must compute the same output");
            if t == 1 {
                base_ms = m.wall_ms;
            }
            print_row(n, t, &m, base_ms);
        }
    }

    println!();
    println!("## E11b — Π_BA, unanimous inputs (synchronous)");
    header();
    for &n in ba_ns {
        let mut base_ms = 0.0f64;
        for &t in threads {
            let m = run_ba(n, true, NetworkKind::Synchronous, t);
            if t == 1 {
                base_ms = m.wall_ms;
            }
            print_row(n, t, &m, base_ms);
        }
    }
    println!();
    println!(
        "(transcripts, metrics and bit totals are asserted bit-identical across thread \
         counts by tests/determinism.rs; wall-clock scaling requires ≥ `threads` cores)"
    );
}
