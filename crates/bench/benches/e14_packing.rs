//! Experiment E14 — packed secret sharing: SIMD gate blocks through the
//! share→triple→open pipeline.
//!
//! Sweeps the packing width ℓ ∈ {1, 2, 4, 8} over n ∈ {7, 10, 13} on a
//! layered multiplication circuit and reports throughput (circuits/second),
//! honest bits and the per-layer publicly-opened value counts. The ℓ = 1
//! series is the *scalar* engine (the layer-batched baseline of E12); ℓ ≥ 2
//! runs the packed engine, where each layer opens one `[D, E]` pair per
//! ℓ-gate block instead of one `(d, e)` pair per gate — `⌈L/ℓ⌉·2` opened
//! values per layer instead of `2·L` — and the whole triple-preprocessing
//! pipeline (ACS #2, transform, verify, extract) is replaced by
//! slot-positioned point-to-point deals.
//!
//! Thresholds are pinned at `t_s = t_a = 1` so the sweep varies ℓ at fixed
//! resilience; widths above the feasibility bound `ℓ ≤ n − 3·t_s` are
//! skipped. Both transport backends run (the threaded runtime re-executes
//! the simulator's schedule in real time), and every output is checked
//! against the cleartext evaluation.

use bench::{clear_inputs, expected_clear, run_cireval, Measurement};
use mpc_core::{thresholds::max_packing_width, Circuit, MpcBuilder};
use mpc_net::{Backend, NetConfig, NetworkKind, Time};

const TS: usize = 1;

fn print_row(backend: &str, n: usize, ell: usize, m: &Measurement) {
    let cps = if m.wall_ms > 0.0 {
        1000.0 / m.wall_ms
    } else {
        f64::INFINITY
    };
    println!(
        "{:>5} {:>4} {:>10} {:>10.1} {:>12.3} {:>12} {:>8} opened/layer {:?}",
        n,
        ell,
        backend,
        m.wall_ms,
        cps,
        m.metrics.honest_bits,
        m.metrics.events_processed,
        m.metrics.values_opened_by_layer
    );
}

fn main() {
    println!("# E14 — packed secret sharing (layered mult circuit, ts = ta = 1)");
    println!();
    println!(
        "{:>5} {:>4} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "n", "ell", "backend", "wall-ms", "circuits/s", "bits", "events"
    );

    for n in [7usize, 10, 13] {
        let circuit = Circuit::layered(n, 8, 3);
        let expected = expected_clear(n, &circuit);
        let seed = 14 + n as u64;
        // The threaded backend's column-distinct link sampler needs
        // `Δ − 2 ≥ n − 1`; grow Δ with n so the larger party counts run on
        // both backends.
        let delta = (n as Time + 2).max(NetConfig::DEFAULT_DELTA);
        // The threaded lane pays real wall-clock tick pacing, so it runs at
        // n = 7 only (like E13) — enough to show both engines behave
        // identically on the real runtime; the scaling story is the
        // simulator's.
        let backends: &[(Backend, &str)] = if n == 7 {
            &[
                (Backend::Simulator, "simulator"),
                (Backend::Threaded, "threaded"),
            ]
        } else {
            &[(Backend::Simulator, "simulator")]
        };
        for &(backend, label) in backends {
            let mut scalar_bits = None;
            let mut scalar_opened = None;
            for ell in [1usize, 2, 4, 8] {
                if ell > max_packing_width(n, TS) {
                    println!(
                        "{n:>5} {ell:>4}   skipped (above feasibility bound n - 3·ts = {})",
                        max_packing_width(n, TS)
                    );
                    continue;
                }
                // ℓ = 1 is the scalar baseline engine (packing knob off).
                let engine_ell = if ell == 1 { 0 } else { ell };
                let builder = MpcBuilder::new(n, TS, TS)
                    .network(NetworkKind::Synchronous)
                    .delta(delta)
                    .seed(seed)
                    .inputs(&clear_inputs(n))
                    .packing(engine_ell)
                    .transport(backend);
                let (m, out) = run_cireval(builder, &circuit);
                assert_eq!(out, expected, "output must be correct (n={n}, ell={ell})");
                let opened = &m.metrics.values_opened_by_layer;
                if ell == 1 {
                    scalar_bits = Some(m.metrics.honest_bits);
                    scalar_opened = Some(opened.clone());
                } else if ell >= 4 {
                    // The experiment's headline claims, asserted on every run.
                    if let Some(base) = &scalar_opened {
                        for (l, (&packed, &scalar)) in opened.iter().zip(base).enumerate() {
                            assert!(
                                2 * packed <= scalar,
                                "ℓ={ell} must open ≤ half the values of the scalar \
                                 engine per layer (n={n}, layer {l}: {packed} vs {scalar})"
                            );
                        }
                    }
                    if let Some(base) = scalar_bits {
                        assert!(
                            m.metrics.honest_bits < base,
                            "ℓ={ell} must communicate fewer honest bits than the \
                             scalar engine (n={n}: {} vs {base})",
                            m.metrics.honest_bits
                        );
                    }
                }
                print_row(label, n, ell, &m);
            }
        }
    }
}
