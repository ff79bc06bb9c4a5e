//! Experiment E10 — the best-of-both-worlds advantage (Section 1):
//!
//! * **Resilience** — in a synchronous network the BoBW protocol tolerates
//!   `t_s < n/3` corruptions while any single protocol that must also survive
//!   asynchrony with the same threshold is capped at `t < n/4` (the paper's
//!   `n = 8` example: 2 vs 1).
//! * **Responsiveness** — in an asynchronous network whose actual delay `δ`
//!   is much smaller than the pessimistic bound `Δ`, the asynchronous
//!   execution path finishes in time proportional to `δ`, not `Δ`.

use bench::{cireval_builder, run_cireval};
use mpc_core::thresholds::resilience_table;
use mpc_core::Circuit;
use mpc_net::{NetworkKind, UniformDelay};

fn main() {
    println!(
        "# E10a — synchronous-network corruption tolerance: BoBW vs single-threshold baseline"
    );
    println!(
        "{:>4} {:>22} {:>22}",
        "n", "baseline (t_s = t_a)", "BoBW t_s"
    );
    for row in resilience_table(4, 13) {
        println!("{:>4} {:>22} {:>22}", row.n, row.ampc_ta, row.bobw.0);
    }
    println!("(n = 8 reproduces the paper's motivating example: 1 vs 2)");
    println!();

    println!(
        "# E10b — responsiveness: same circuit, Δ-bounded synchronous vs fast asynchronous (δ ≪ Δ)"
    );
    let n = 4;
    let circuit = Circuit::product_of_inputs(n);
    let (m_sync, out_sync) =
        run_cireval(cireval_builder(n, NetworkKind::Synchronous, 11), &circuit);
    let fast = cireval_builder(n, NetworkKind::Asynchronous, 11)
        .scheduler(Box::new(UniformDelay { min: 1, max: 2 }));
    let (m_fast, out_fast) = run_cireval(fast, &circuit);
    println!(
        "synchronous  (delay = Δ = 10): simulated completion time {}",
        m_sync.completed_at
    );
    println!(
        "asynchronous (delay <= δ = 2): simulated completion time {}",
        m_fast.completed_at
    );
    println!(
        "outputs agree: {} — speed-up from responsiveness alone: {:.2}x",
        out_sync == out_fast,
        m_sync.completed_at as f64 / m_fast.completed_at as f64
    );
    println!(
        "(the asynchronous path is still bounded below by the protocol's fixed Δ-based time-outs"
    );
    println!(
        " for the broadcast phases, but every message-driven phase completes at network speed)"
    );
}
