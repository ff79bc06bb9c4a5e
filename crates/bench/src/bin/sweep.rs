//! `sweep` — the adversarial guarantee-checking sweep.
//!
//! Runs the default matrix from [`mpc_core::sweeps`] (corruption placement ×
//! Byzantine strategy × fault preset × network kind, per backend), checks
//! every cell against the paper's guarantee matrix, then runs the harness's
//! negative control (an injected violation that must reproduce
//! bit-identically from its seed).
//!
//! Environment knobs:
//!
//! * `SWEEP_BACKENDS` — `sim`, `threaded`, `tcp`, `both` (sim + threaded,
//!   the default) or `all` (every backend). The tcp matrix adds one
//!   socket-chaos cell per chaos preset (sever / stall / dup-bytes). Any
//!   other value is refused (exit 2) with a message naming it.
//! * `SWEEP_SEED` — base RNG seed of every cell (default `1`). A value that
//!   is not a `u64` is refused (exit 2) with a message naming it.
//! * `SWEEP_FILTER` — substring filter on the cell label (e.g. a fault
//!   preset name or `slow-sender`); empty runs everything.
//! * `SWEEP_SMOKE` — non-empty restricts the matrix to the garble strategy
//!   plus the no-corruption cells (slow-sender, honest-party crash): the CI
//!   smoke slice, 8 cells per backend.
//! * `SWEEP_ARTIFACTS` — path of the failing-seed artifact file (default
//!   `sweep_failures.jsonl`); one JSON line per violated cell, written only
//!   when there are violations.
//!
//! Exit code is non-zero when any cell violates its guarantee or the
//! negative control fails to reproduce.

use mpc_core::sweeps::{
    default_matrix, default_workload, negative_control, run_sweep, CellSpec, StrategyKind, Verdict,
};
use mpc_net::{Backend, NetworkKind};
use std::process::ExitCode;

fn env(name: &str, default: &str) -> String {
    std::env::var(name)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_string())
}

/// The backends a `SWEEP_BACKENDS` value names; an unknown value is an error
/// naming the variable and the value, never a silent default.
fn parse_backends(value: &str) -> Result<Vec<Backend>, String> {
    Ok(match value {
        "sim" | "simulator" => vec![Backend::Simulator],
        "threaded" => vec![Backend::Threaded],
        "tcp" => vec![Backend::Tcp],
        "both" => vec![Backend::Simulator, Backend::Threaded],
        "all" => vec![Backend::Simulator, Backend::Threaded, Backend::Tcp],
        _ => {
            return Err(format!(
                "SWEEP_BACKENDS={value:?}: unknown backend set (expected sim|threaded|tcp|both|all)"
            ))
        }
    })
}

/// The base seed a `SWEEP_SEED` value names; anything but a `u64` is an
/// error naming the variable and the value.
fn parse_seed(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("SWEEP_SEED={value:?}: not a seed (expected a u64)"))
}

fn main() -> ExitCode {
    let backends = parse_backends(&env("SWEEP_BACKENDS", "both"));
    let (backends, seed) = match (backends, parse_seed(&env("SWEEP_SEED", "1"))) {
        (Ok(backends), Ok(seed)) => (backends, seed),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let filter = env("SWEEP_FILTER", "");
    let smoke = !env("SWEEP_SMOKE", "").is_empty();
    let artifacts = env("SWEEP_ARTIFACTS", "sweep_failures.jsonl");

    let (circuit, inputs) = default_workload(5);
    let cells: Vec<CellSpec> = default_matrix(&backends, seed)
        .into_iter()
        .filter(|c| !smoke || c.strategy == StrategyKind::Garble || c.corrupt.is_empty())
        .filter(|c| filter.is_empty() || c.label().contains(&filter))
        .collect();
    println!(
        "sweep: {} cells (backends {:?}, seed {seed}{})",
        cells.len(),
        backends,
        if smoke { ", smoke slice" } else { "" }
    );

    let outcome = run_sweep(&cells, &circuit, &inputs);
    for report in &outcome.reports {
        let status = match &report.verdict {
            Verdict::Correct => "ok".to_string(),
            Verdict::AdmissibleAbort(d) => format!("admissible-abort ({d})"),
            Verdict::Violation(d) => format!("VIOLATION ({d})"),
        };
        println!(
            "  {:<70} {:>9} ticks  {status}",
            report.spec.label(),
            report
                .finished_at
                .map_or("-".to_string(), |t| t.to_string()),
        );
    }
    if let Some((worst, report)) = outcome.worst_finished_at() {
        println!(
            "worst-case completion: {worst} ticks ({})",
            report.spec.label()
        );
    }

    let violations = outcome.violations();
    if !violations.is_empty() {
        let lines: Vec<String> = violations.iter().map(|r| r.artifact_json()).collect();
        std::fs::write(&artifacts, lines.join("\n") + "\n").expect("write artifact file");
        println!(
            "{} violation(s) — artifacts written to {artifacts}:",
            lines.len()
        );
        for line in &lines {
            println!("  {line}");
        }
    } else {
        println!("zero violations");
    }

    // Negative control: the harness must flag an injected wrong output and
    // the artifact must replay bit-identically from the printed line alone.
    let control_spec = CellSpec {
        n: 5,
        ts: 1,
        ta: 1,
        delta: 10,
        network: NetworkKind::Synchronous,
        backend: Backend::Simulator,
        corrupt: vec![0],
        strategy: StrategyKind::Passive,
        fault_preset: "dup-burst".to_string(),
        chaos_preset: "none".to_string(),
        slow_sender: false,
        packing: 0,
        seed,
    };
    let first = negative_control(&control_spec, &circuit, &inputs);
    let second = negative_control(&control_spec, &circuit, &inputs);
    let control_ok = first.is_violation() && first.artifact_json() == second.artifact_json();
    println!(
        "negative control: {} — {}",
        if control_ok {
            "ok (injected violation reproduced bit-identically)"
        } else {
            "FAILED"
        },
        first.artifact_json()
    );

    if violations.is_empty() && control_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_sets_parse_and_a_typo_is_an_error_naming_variable_and_value() {
        let (sim, threaded, tcp) = (Backend::Simulator, Backend::Threaded, Backend::Tcp);
        assert_eq!(parse_backends("sim"), Ok(vec![sim]));
        assert_eq!(parse_backends("simulator"), Ok(vec![sim]));
        assert_eq!(parse_backends("threaded"), Ok(vec![threaded]));
        assert_eq!(parse_backends("tcp"), Ok(vec![tcp]));
        assert_eq!(parse_backends("both"), Ok(vec![sim, threaded]));
        assert_eq!(parse_backends("all"), Ok(vec![sim, threaded, tcp]));
        for bad in ["thraeded", "tpc", "sim,tcp"] {
            let err = parse_backends(bad).expect_err(bad);
            assert!(err.contains("SWEEP_BACKENDS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn a_seed_parses_and_a_non_number_is_an_error_naming_variable_and_value() {
        assert_eq!(parse_seed("1"), Ok(1));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["abc", "-1", "1.5", "18446744073709551616", " 7"] {
            let err = parse_seed(bad).expect_err(bad);
            assert!(err.contains("SWEEP_SEED"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
