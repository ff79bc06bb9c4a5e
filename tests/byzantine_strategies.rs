//! Wire-level Byzantine behaviours ([`bobw_mpc::net::ByzantineStrategy`]):
//! corrupt parties run honest protocol code while the adversary rewrites the
//! *bytes* they put on the wire. Undecodable bytes must be absorbed at the
//! delivery boundary as Byzantine input — dropped and counted, never a panic
//! — and the honest parties must keep every protocol guarantee.

use bobw_mpc::algebra::Fp;
use bobw_mpc::net::{
    CorruptionSet, Crash, EquivocateBroadcast, GarbleBytes, NetConfig, Protocol, Simulation,
    TranscriptEvent, WireEncode,
};
use bobw_mpc::protocols::acast::Acast;
use bobw_mpc::protocols::bc::Bc;
use bobw_mpc::protocols::sba::Sba;
use bobw_mpc::protocols::{AcastMsg, BcValue, Msg, Params};

fn bc_parties(params: Params, payload: BcValue) -> Vec<Box<dyn Protocol<Msg>>> {
    (0..params.n)
        .map(|i| {
            let bc = if i == 0 {
                Bc::new_sender(0, params.ts, params, payload.clone())
            } else {
                Bc::new(0, params.ts, params)
            };
            Box::new(bc) as Box<dyn Protocol<Msg>>
        })
        .collect()
}

/// Acceptance scenario of the wire layer: two corrupt parties garble every
/// byte they send during a `Π_BC` broadcast with an honest sender. The run
/// must complete without panicking and every honest party must still output
/// the sender's value at `T_BC`.
#[test]
fn garbled_bytes_do_not_stop_bc_with_honest_sender() {
    let params = Params::new(7, 2, 0, 10);
    let payload = BcValue::Value(vec![Fp::from_u64(41), Fp::from_u64(43)]);
    let corrupt = CorruptionSet::new(vec![5, 6]);
    let mut sim = Simulation::new(
        NetConfig::synchronous(params.n),
        corrupt.clone(),
        bc_parties(params, payload.clone()),
    );
    sim.set_strategy(Box::new(GarbleBytes));
    sim.record_transcript();
    sim.run_to_quiescence(params.t_bc() * 4);
    for i in corrupt.honest_parties(params.n) {
        assert_eq!(
            sim.party_as::<Bc>(i).unwrap().value(),
            Some(&payload),
            "honest party {i} must deliver the honest sender's value"
        );
    }
    assert!(sim.metrics().adversary_tampered > 0, "garbling must fire");
    assert!(
        sim.metrics().decode_failures > 0,
        "some garbled payloads must fail to decode and be dropped cleanly"
    );
    // every boundary drop leaves an auditable trace in the transcript
    let dropped = sim
        .transcript()
        .iter()
        .filter(|e| matches!(e.event, TranscriptEvent::DroppedDeliver { .. }))
        .count() as u64;
    assert_eq!(dropped, sim.metrics().decode_failures);
}

/// Byte-level equivocation: the corrupt A-cast sender runs honest code with
/// value A, but the strategy substitutes the canonical encoding of value B on
/// every broadcast copy addressed to the upper half of the parties. Bracha's
/// protocol must still prevent two honest parties from delivering different
/// values.
#[test]
fn byte_level_equivocation_cannot_split_acast() {
    let n = 7;
    let t = 2;
    let value_a = BcValue::Bit(false);
    let value_b = BcValue::Bit(true);
    let mut parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|_| Box::new(Acast::new(0, n, t)) as Box<dyn Protocol<Msg>>)
        .collect();
    parties[0] = Box::new(Acast::new_sender(0, n, t, value_a));
    let mut sim = Simulation::new(
        NetConfig::synchronous(n),
        CorruptionSet::new(vec![0]),
        parties,
    );
    sim.set_strategy(Box::new(EquivocateBroadcast {
        alt: Msg::Acast(AcastMsg::Send(value_b)).encode(),
    }));
    sim.run_to_quiescence(100_000);
    let delivered: Vec<BcValue> = (1..n)
        .filter_map(|i| sim.party_as::<Acast>(i).unwrap().output.clone())
        .collect();
    assert!(
        delivered.windows(2).all(|w| w[0] == w[1]),
        "no two honest parties may deliver different values: {delivered:?}"
    );
    assert!(sim.metrics().adversary_tampered > 0);
}

/// Wire-level crash: a corrupt phase-0 king whose messages are all dropped
/// on the wire is indistinguishable from the behavioural `SilentParty`;
/// phase-king agreement must survive via the later honest kings.
#[test]
fn crashed_king_on_the_wire_preserves_sba_agreement() {
    let n = 7;
    let t = 2;
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| {
            let input = Some(BcValue::Bit(i % 2 == 0));
            Box::new(Sba::new(n, t, input)) as Box<dyn Protocol<Msg>>
        })
        .collect();
    let mut sim = Simulation::new(
        NetConfig::synchronous(n),
        CorruptionSet::new(vec![0]),
        parties,
    );
    sim.set_strategy(Box::new(Crash));
    sim.run_to_quiescence(100_000);
    let outs: Vec<_> = (1..n)
        .map(|i| sim.party_as::<Sba>(i).unwrap().outputs().unwrap()[0].clone())
        .collect();
    assert!(outs.windows(2).all(|w| w[0] == w[1]));
    assert!(sim.metrics().adversary_drops > 0);
    assert_eq!(sim.metrics().corrupt_messages, 0);
}

/// Corruption-placement sweep: wherever the `t_s` garbling corruptions sit
/// (seed-derived via `CorruptionSet::random`), `Π_BC` with an honest sender
/// keeps liveness and consistency.
#[test]
fn garbling_survives_random_corruption_placements() {
    let params = Params::new(7, 2, 0, 10);
    let payload = BcValue::Bit(true);
    for seed in 0..5u64 {
        let corrupt = {
            // never corrupt the sender in this honest-sender scenario
            let mut c = CorruptionSet::random(params.n - 1, params.ts, seed)
                .corrupt_parties()
                .to_vec();
            for p in &mut c {
                *p += 1;
            }
            CorruptionSet::new(c)
        };
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n).with_seed(seed),
            corrupt.clone(),
            bc_parties(params, payload.clone()),
        );
        sim.set_strategy(Box::new(GarbleBytes));
        sim.run_to_quiescence(params.t_bc() * 4);
        for i in corrupt.honest_parties(params.n) {
            assert_eq!(
                sim.party_as::<Bc>(i).unwrap().value(),
                Some(&payload),
                "seed {seed}: honest party {i} must deliver"
            );
        }
    }
}

/// Runs with a Byzantine strategy stay fully deterministic: the adversary
/// draws from its own seed-derived RNG.
#[test]
fn strategy_runs_are_deterministic() {
    let run = || {
        let params = Params::new(7, 2, 0, 10);
        let mut sim = Simulation::new(
            NetConfig::synchronous(params.n),
            CorruptionSet::new(vec![5, 6]),
            bc_parties(params, BcValue::Bit(false)),
        );
        sim.set_strategy(Box::new(GarbleBytes));
        sim.run_to_quiescence(params.t_bc() * 4);
        (sim.now(), sim.metrics().clone())
    };
    assert_eq!(run(), run());
}
