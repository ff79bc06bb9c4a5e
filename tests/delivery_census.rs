//! Delivery census: where the messages of a full evaluation go.
//!
//! Records the transcript of `tests/determinism.rs`'s golden circuit
//! (`n = 4`, `t_s = 1`, seed 77, scalar engine) in both network kinds and
//! buckets every delivery by the instance it reached, named by
//! `CIREVAL.describe` with the indices stripped
//! (`CirEval/AcsInput/Vss[3]/Wps[1]/Votes/Acast[2]` counts for
//! `CirEval/AcsInput/Vss/Wps/Votes/Acast`). Each family's count is pinned:
//! a change that moves messages between families, or adds or removes some,
//! shows here by name, where the golden's one `honest_messages` total cannot
//! say where. That total is checked as well, so the census is of the golden
//! run; the asynchronous run stops at its last output with two of its
//! 26 772 messages still undelivered.
//!
//! The asynchronous table was re-pinned when late votes moved from one
//! A-cast per vote to one batch per `Π_ACS` per tick: the
//! `…/Vss/Update/Acast` (2 304) and `…/Vss/Wps/Update/Acast` (8 892) rows of
//! each ACS became one `…/Batch/Acast` row of 8 316 = 231 batches ×
//! (n + 2n²) = 231 × 36 deliveries, and `honest_messages` went from 49 560
//! to 43 800. Every other row, and the synchronous table, did not move.
//!
//! It was re-pinned again when the root of the instance tree became the
//! channel's owner, so that each party A-casts one batch per tick instead of
//! one per `Π_ACS`: the `CirEval/AcsInput/Batch/Acast` and
//! `CirEval/AcsTriples/Batch/Acast` rows (8 316 each: 231 batches × 36)
//! became one `CirEval/Batch/Acast` row of 8 316, and `honest_messages`
//! went from 43 800 to 35 484. Every other row, and the synchronous table,
//! did not move.
//!
//! It was re-pinned a third time when the root began to run one SBA cluster
//! per start tick for every `Π_BC` below it: the 14 `…/Sba` rows of each
//! table (7 per `Π_ACS`, 9 216 deliveries: 128 instances × 72) became one
//! `CirEval/Sba` row of 504 = 7 clusters × (2n + 1)(t_s + 1)·n = 7 × 72, and
//! `honest_messages` went from 28 464 to 19 752 (synchronous) and from
//! 35 484 to 26 772 (asynchronous). Every other row did not move.
//!
//! `cargo test --test delivery_census -- --nocapture` prints the table.

use std::collections::BTreeMap;

use bobw_mpc::algebra::Fp;
use bobw_mpc::core::cireval::CIREVAL;
use bobw_mpc::core::{CirEval, Circuit};
use bobw_mpc::net::{CorruptionSet, NetConfig, NetworkKind, Protocol, Simulation, TranscriptEvent};
use bobw_mpc::protocols::{Msg, Params};

/// The golden full-MPC circuit of `tests/determinism.rs`.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    let prod = c.mul(c.input(0), c.input(1));
    let s = c.add(c.input(2), c.input(3));
    let out = c.add(prod, s);
    c.set_output(out);
    c
}

/// `name` without its `[index]` parts.
fn strip_indices(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut depth = 0;
    for ch in name.chars() {
        match ch {
            '[' => depth += 1,
            ']' => depth -= 1,
            _ if depth == 0 => out.push(ch),
            _ => {}
        }
    }
    out
}

/// Runs the golden circuit on the simulator as the golden's `MpcBuilder`
/// does and returns the deliveries per family, with the run's
/// `honest_messages`.
fn census(kind: NetworkKind) -> (BTreeMap<String, u64>, u64) {
    let params = Params::new(4, 1, 0, NetConfig::DEFAULT_DELTA);
    let circuit = golden_circuit();
    let parties: Vec<Box<dyn Protocol<Msg>>> = [3u64, 5, 7, 11]
        .iter()
        .map(|&x| {
            Box::new(CirEval::new(params, circuit.clone(), Fp::from_u64(x)))
                as Box<dyn Protocol<Msg>>
        })
        .collect();
    let cfg = NetConfig::for_kind(params.n, kind).with_seed(77);
    let mut sim = Simulation::new(cfg, CorruptionSet::none(), parties);
    sim.record_transcript();
    let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
    let done = sim.run_until(horizon, |s| {
        (0..params.n).all(|i| s.party_as::<CirEval>(i).is_some_and(|p| p.output.is_some()))
    });
    assert!(done, "{kind:?}: no output before the horizon");
    let mut families = BTreeMap::new();
    for entry in sim.transcript() {
        if let TranscriptEvent::Deliver { path, .. } = &entry.event {
            let name = CIREVAL
                .describe(params.n, path)
                .unwrap_or_else(|| panic!("{kind:?}: {path:?} names no instance"));
            *families.entry(strip_indices(&name)).or_insert(0) += 1;
        }
    }
    (families, sim.metrics().honest_messages)
}

fn check(kind: NetworkKind, honest_messages: u64, pinned: &[(&str, u64)]) {
    let (families, messages) = census(kind);
    let total: u64 = families.values().sum();
    println!("{kind:?}: {total} deliveries, {messages} honest messages");
    for (name, count) in &families {
        let share = 100.0 * *count as f64 / total as f64;
        println!("  {count:>7} {share:>5.1} %  {name}");
    }
    assert_eq!(messages, honest_messages, "{kind:?}: not the golden run");
    let pinned: BTreeMap<String, u64> = pinned.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(families, pinned, "{kind:?}");
}

#[test]
fn golden_circuit_deliveries_by_family_sync() {
    check(
        NetworkKind::Synchronous,
        19_752,
        &[
            ("CirEval", 112),
            ("CirEval/AcsInput/Ba/Aba", 256),
            ("CirEval/AcsInput/Ba/Bc/Acast", 576),
            ("CirEval/AcsInput/Vss", 16),
            ("CirEval/AcsInput/Vss/Ba/Aba", 384),
            ("CirEval/AcsInput/Vss/Ba/Bc/Acast", 576),
            ("CirEval/AcsInput/Vss/Votes/Acast", 576),
            ("CirEval/AcsInput/Vss/Wef/Acast", 144),
            ("CirEval/AcsInput/Vss/Wps", 320),
            ("CirEval/AcsInput/Vss/Wps/Ba/Aba", 1_536),
            ("CirEval/AcsInput/Vss/Wps/Ba/Bc/Acast", 2_304),
            ("CirEval/AcsInput/Vss/Wps/Votes/Acast", 2_304),
            ("CirEval/AcsInput/Vss/Wps/Wef/Acast", 576),
            ("CirEval/AcsTriples/Ba/Aba", 256),
            ("CirEval/AcsTriples/Ba/Bc/Acast", 576),
            ("CirEval/AcsTriples/Vss", 16),
            ("CirEval/AcsTriples/Vss/Ba/Aba", 384),
            ("CirEval/AcsTriples/Vss/Ba/Bc/Acast", 576),
            ("CirEval/AcsTriples/Vss/Votes/Acast", 576),
            ("CirEval/AcsTriples/Vss/Wef/Acast", 144),
            ("CirEval/AcsTriples/Vss/Wps", 320),
            ("CirEval/AcsTriples/Vss/Wps/Ba/Aba", 1_536),
            ("CirEval/AcsTriples/Vss/Wps/Ba/Bc/Acast", 2_304),
            ("CirEval/AcsTriples/Vss/Wps/Votes/Acast", 2_304),
            ("CirEval/AcsTriples/Vss/Wps/Wef/Acast", 576),
            ("CirEval/Sba", 504),
        ],
    );
}

#[test]
fn golden_circuit_deliveries_by_family_async() {
    check(
        NetworkKind::Asynchronous,
        26_772,
        &[
            ("CirEval", 110),
            ("CirEval/AcsInput/Ba/Aba", 248),
            ("CirEval/AcsInput/Ba/Bc/Acast", 576),
            ("CirEval/AcsInput/Vss", 16),
            ("CirEval/AcsInput/Vss/Ba/Aba", 256),
            ("CirEval/AcsInput/Vss/Ba/Bc/Acast", 576),
            ("CirEval/AcsInput/Vss/Star/Acast", 144),
            ("CirEval/AcsInput/Vss/Votes/Acast", 576),
            ("CirEval/AcsInput/Vss/Wps", 320),
            ("CirEval/AcsInput/Vss/Wps/Ba/Aba", 1_024),
            ("CirEval/AcsInput/Vss/Wps/Ba/Bc/Acast", 2_304),
            ("CirEval/AcsInput/Vss/Wps/Star/Acast", 576),
            ("CirEval/AcsInput/Vss/Wps/Votes/Acast", 2_304),
            ("CirEval/AcsTriples/Ba/Aba", 248),
            ("CirEval/AcsTriples/Ba/Bc/Acast", 576),
            ("CirEval/AcsTriples/Vss", 16),
            ("CirEval/AcsTriples/Vss/Ba/Aba", 256),
            ("CirEval/AcsTriples/Vss/Ba/Bc/Acast", 576),
            ("CirEval/AcsTriples/Vss/Star/Acast", 144),
            ("CirEval/AcsTriples/Vss/Votes/Acast", 576),
            ("CirEval/AcsTriples/Vss/Wps", 320),
            ("CirEval/AcsTriples/Vss/Wps/Ba/Aba", 1_024),
            ("CirEval/AcsTriples/Vss/Wps/Ba/Bc/Acast", 2_304),
            ("CirEval/AcsTriples/Vss/Wps/Star/Acast", 576),
            ("CirEval/AcsTriples/Vss/Wps/Votes/Acast", 2_304),
            ("CirEval/Batch/Acast", 8_316),
            ("CirEval/Sba", 504),
        ],
    );
}
