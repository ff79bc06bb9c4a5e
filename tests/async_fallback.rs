//! Best-of-both-worlds behaviour under adversarial asynchrony: the protocol's
//! `Δ`-based time-outs all expire "too early", yet safety and liveness are
//! preserved — the asynchronous fallback paths (A-cast fallback mode of
//! `Π_BC`, the `(n, t_a)`-star path of `Π_WPS`/`Π_VSS`, almost-sure ABA
//! termination) take over.

use bobw_mpc::core::{Circuit, MpcBuilder};
use bobw_mpc::net::scheduler::{SkewedAsyncScheduler, UniformDelay};
use bobw_mpc::net::NetworkKind;

#[test]
fn adversarially_delayed_honest_party_does_not_break_safety() {
    let n = 4;
    let circuit = Circuit::product_of_inputs(n);
    let inputs = [2u64, 3, 5, 7];
    let result = MpcBuilder::new(n, 1, 0)
        .network(NetworkKind::Asynchronous)
        .scheduler(Box::new(SkewedAsyncScheduler {
            slowed_senders: vec![2],
            lag: 150, // 15× the assumed Δ — party 2 looks crashed to everyone
            fast: 2,
        }))
        .horizon_factor(64)
        .inputs(&inputs)
        .run(&circuit)
        .expect("protocol must stay live under adversarial asynchrony");
    // Party 2 is honest, merely slow. Its input may or may not make the
    // common subset (that is allowed in an asynchronous network), but the
    // output must be the correct product over the included inputs.
    let included = &result.input_subset;
    let expected: u64 = (0..n)
        .map(|i| if included.contains(&i) { inputs[i] } else { 0 })
        .product();
    assert_eq!(result.output.as_u64(), expected);
    assert!(
        included.len() >= n - 1,
        "at least n - t_s inputs are included"
    );
}

#[test]
fn fast_async_network_is_responsive() {
    // With an actual delay δ much smaller than Δ, the asynchronous run
    // completes earlier (in simulated time) than the worst-case synchronous
    // run of the very same circuit — the responsiveness argument from the
    // paper's introduction. Only the message-driven part, (9 + D_M) hops,
    // runs at network speed: the (65 + 21·t_s)·Δ of time-outs before the
    // ACS agreements elapse at any δ (tests/scaling.rs pins the tick,
    // DESIGN.md "Deadlines").
    let n = 4;
    let circuit = Circuit::sum_of_inputs(n);
    let inputs = [1u64, 2, 3, 4];
    let sync = MpcBuilder::new(n, 1, 0)
        .network(NetworkKind::Synchronous)
        .inputs(&inputs)
        .run(&circuit)
        .expect("sync run");
    let fast_async = MpcBuilder::new(n, 1, 0)
        .network(NetworkKind::Asynchronous)
        .scheduler(Box::new(UniformDelay { min: 1, max: 2 }))
        .inputs(&inputs)
        .run(&circuit)
        .expect("fast async run");
    assert_eq!(sync.output, fast_async.output);
    assert!(
        fast_async.finished_at < sync.finished_at,
        "fast async ({}) should beat worst-case sync ({})",
        fast_async.finished_at,
        sync.finished_at
    );
}
