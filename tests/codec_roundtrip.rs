//! The canonical codec contract: `decode(encode(m)) == m` for every message
//! in the protocol tree, and the simulator's bit accounting is *exactly* the
//! sum of encoded lengths ×8 — no estimates anywhere.

use std::collections::BTreeSet;

use bobw_mpc::algebra::Fp;
use bobw_mpc::net::wire::{WireReader, WireSample};
use bobw_mpc::net::{
    CorruptionSet, NetConfig, Protocol, Simulation, TranscriptEvent, WireDecode, WireEncode,
    WireError,
};
use bobw_mpc::protocols::acast::Acast;
use bobw_mpc::protocols::{AbaMsg, AcastMsg, BcValue, Msg, SbaMsg, Vote};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every collection in a sampled message holds at most this many elements.
const SIZE: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn decode_encode_is_identity_over_the_msg_tree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = Msg::sample(&mut rng, SIZE);
        let bytes = msg.encode();
        prop_assert_eq!(Msg::decode(&bytes).as_ref(), Ok(&msg));
        // The size hint is exact, so `encode` reserves once.
        prop_assert_eq!(msg.encoded_len_hint(), bytes.len());
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // any result is fine — the property is "no panic, no unbounded alloc"
        let _ = Msg::decode(&bytes);
        let _ = bobw_mpc::net::Frame::decode::<Msg>(&bytes);
    }

    /// Random bytes almost never get past the first tags, so the nested
    /// length prefixes (the `k`-slot SBA vectors above all) are reached by
    /// damaging a valid encoding instead: flip a byte, cut the tail, or
    /// both. Whatever comes out, decoding must not panic, and what does
    /// decode must re-encode to exactly the bytes it was decoded from.
    #[test]
    fn decoding_damaged_messages_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = Msg::sample(&mut rng, SIZE).encode();
        if rng.gen() {
            let victim = rng.gen_range(0..bytes.len());
            bytes[victim] ^= rng.gen_range(1..=255u8);
        }
        if rng.gen() {
            bytes.truncate(rng.gen_range(0..=bytes.len()));
        }
        if let Ok(msg) = Msg::decode(&bytes) {
            prop_assert_eq!(msg.encode(), bytes);
        }
    }
}

/// The tags `T`'s decoder accepts: every byte that does not decode, on its
/// own, to `InvalidTag` naming that byte.
fn declared_tags<T: WireDecode>() -> BTreeSet<u8> {
    (0..=u8::MAX)
        .filter(|&tag| {
            let err = T::decode_from(&mut WireReader::new(&[tag])).err();
            !matches!(err, Some(WireError::InvalidTag { tag: t, .. }) if t == tag)
        })
        .collect()
}

/// The tags of 512 sampled values of `T` (the first byte of each encoding).
fn sampled_tags<T: WireSample + WireEncode>() -> BTreeSet<u8> {
    let mut rng = StdRng::seed_from_u64(0x5A3_91E);
    (0..512)
        .map(|_| T::sample(&mut rng, SIZE).encode()[0])
        .collect()
}

/// The sampler the property tests draw from reaches every variant of every
/// type in the `Msg` tree — including `PackedDeal` and `PackedReport`, which
/// the hand-kept generator it replaced never drew.
#[test]
fn sampler_draws_every_tag_of_every_msg_tree_type() {
    assert_eq!(sampled_tags::<Msg>(), declared_tags::<Msg>());
    assert_eq!(declared_tags::<Msg>().len(), 9);
    assert_eq!(sampled_tags::<AcastMsg>(), declared_tags::<AcastMsg>());
    assert_eq!(sampled_tags::<SbaMsg>(), declared_tags::<SbaMsg>());
    assert_eq!(sampled_tags::<AbaMsg>(), declared_tags::<AbaMsg>());
    assert_eq!(sampled_tags::<BcValue>(), declared_tags::<BcValue>());
    assert_eq!(sampled_tags::<Vote>(), declared_tags::<Vote>());
}

// ---------------------------------------------------------------------------
// The TCP stream codec under adversarial byte streams: whatever the kernel
// (or the chaos shim) does to the bytes — arbitrary read-boundary splits,
// truncation mid-record, garbage runs — the incremental decoder must either
// reproduce the sent records exactly or fault cleanly. Never panic, never
// mis-frame: a decode fault is the supervisor's resync-by-teardown signal,
// so a *wrong* record slipping through would silently corrupt a run.
// ---------------------------------------------------------------------------

use bobw_mpc::net::transport::supervisor::{encode_record, LinkRecord, RecordDecoder};

fn arb_record(rng: &mut StdRng, seq: u64) -> LinkRecord {
    match rng.gen_range(0..4u8) {
        0 => LinkRecord::Data {
            seq,
            send_tick: rng.gen_range(0..1000),
            order: rng.gen_range(0..64),
            deliver_tick: rng.gen_range(0..2000),
            framed: rng.gen(),
            payload: (0..rng.gen_range(0..96usize)).map(|_| rng.gen()).collect(),
        },
        1 => LinkRecord::Floor {
            seq,
            floor: rng.gen_range(0..5000),
        },
        2 => LinkRecord::Probe {
            floor: rng.gen_range(0..5000),
        },
        _ => LinkRecord::Ack {
            next_seq: rng.gen(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn record_stream_survives_arbitrary_read_splits(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LinkRecord> =
            (0..rng.gen_range(1..8u64)).map(|s| arb_record(&mut rng, s)).collect();
        let stream: Vec<u8> = records.iter().flat_map(encode_record).collect();
        // Feed the exact bytes in adversarially-sized chunks (including
        // zero-length reads): the decoded sequence must be identical.
        let mut dec = RecordDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let k = rng.gen_range(0..=(stream.len() - pos).min(17));
            dec.extend(&stream[pos..pos + k]);
            pos += k;
            while let Some(rec) = dec.next_record().expect("clean stream never faults") {
                got.push(rec);
            }
        }
        prop_assert_eq!(&got, &records);
        prop_assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn truncated_stream_yields_prefix_then_waits(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LinkRecord> =
            (0..rng.gen_range(1..6u64)).map(|s| arb_record(&mut rng, s)).collect();
        let stream: Vec<u8> = records.iter().flat_map(encode_record).collect();
        let cut = rng.gen_range(0..stream.len());
        let mut dec = RecordDecoder::new();
        dec.extend(&stream[..cut]);
        let mut got = Vec::new();
        while let Some(rec) = dec.next_record().expect("a truncated clean stream never faults") {
            got.push(rec);
        }
        // Only complete records surface; the cut tail is pending, not an
        // error (EOF handling — abandoning those bytes — is the reader's
        // policy decision, not the decoder's).
        prop_assert_eq!(got.as_slice(), &records[..got.len()]);
        // Everything decoded must be a prefix: the decoder never invents or
        // reorders a record around the truncation point.
        prop_assert!(got.len() <= records.len());
    }

    #[test]
    fn corrupted_record_never_misframes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seq = rng.gen_range(0..100);
        let record = arb_record(&mut rng, seq);
        let mut bytes = encode_record(&record);
        let victim = rng.gen_range(0..bytes.len());
        let flip: u8 = rng.gen_range(1..=255);
        bytes[victim] ^= flip;
        let mut dec = RecordDecoder::new();
        dec.extend(&bytes);
        // One corrupted byte anywhere in the record: the decoder may fault
        // (checksum/length/tag) or may legitimately wait for more bytes (the
        // corruption grew the length prefix) — but it must never hand back a
        // decoded record, because every framed byte is checksummed.
        if let Ok(Some(rec)) = dec.next_record() {
            prop_assert!(
                false,
                "corrupt byte {victim} (^{flip:#x}) decoded as {rec:?}"
            );
        }
    }

    #[test]
    fn garbage_streams_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A valid record, then a garbage run, then another valid record —
        // the mid-stream garbage must surface as a clean fault (the
        // supervisor's teardown-and-replay signal), never a panic; and the
        // first record must still come out intact ahead of it.
        let first = arb_record(&mut rng, 0);
        let second = arb_record(&mut rng, 1);
        let mut stream = encode_record(&first);
        let garbage_len = rng.gen_range(1..40usize);
        stream.extend((0..garbage_len).map(|_| rng.gen::<u8>()));
        stream.extend(encode_record(&second));
        let mut dec = RecordDecoder::new();
        let mut pos = 0;
        let mut decoded = Vec::new();
        let mut faulted = false;
        while pos < stream.len() && !faulted {
            let k = rng.gen_range(1..=(stream.len() - pos).min(23));
            dec.extend(&stream[pos..pos + k]);
            pos += k;
            loop {
                match dec.next_record() {
                    Ok(Some(rec)) => decoded.push(rec),
                    Ok(None) => break,
                    Err(_) => {
                        faulted = true;
                        break;
                    }
                }
            }
        }
        prop_assert!(!decoded.is_empty(), "the clean first record must decode");
        prop_assert_eq!(&decoded[0], &first);
        // Whatever was decoded beyond the first record, it can only be a
        // record we actually sent — garbage must never alias into a fresh,
        // never-sent record.
        for rec in &decoded {
            prop_assert!(rec == &first || rec == &second, "invented record {rec:?}");
        }
    }
}

/// The whole point of the wire layer: `Metrics::honest_bits` is the exact sum
/// of the canonical encoded lengths (×8) of every message honest parties put
/// on a channel, with broadcasts counted once per recipient.
#[test]
fn honest_bits_equals_sum_of_encoded_lengths() {
    let n = 5;
    let t = 1;
    let payload = BcValue::Value(vec![Fp::from_u64(7); 3]);
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| {
            let a = if i == 0 {
                Acast::new_sender(0, n, t, payload.clone())
            } else {
                Acast::new(0, n, t)
            };
            Box::new(a) as Box<dyn Protocol<Msg>>
        })
        .collect();
    let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
    sim.record_transcript();
    sim.run_to_quiescence(10_000);
    assert!((0..n).all(|i| sim.party_as::<Acast>(i).unwrap().output.is_some()));

    // In a fault-free Bracha A-cast every party broadcasts exactly one Echo
    // and one Ready, and the sender additionally broadcasts one Send; each
    // broadcast costs n wire messages.
    let bits = |m: &Msg| m.encoded_bits();
    let send = bits(&Msg::Acast(AcastMsg::Send(payload.clone())));
    let echo = bits(&Msg::Acast(AcastMsg::Echo(payload.clone())));
    let ready = bits(&Msg::Acast(AcastMsg::Ready(payload.clone())));
    let n = n as u64;
    let expected = n * send + n * n * echo + n * n * ready;
    assert_eq!(sim.metrics().honest_bits, expected);
    assert_eq!(sim.metrics().honest_messages, n + 2 * n * n);

    // The transcript agrees delivery-by-delivery: at quiescence every sent
    // message was delivered, so the per-delivery bit sizes add up to the
    // same exact total.
    let delivered: u64 = sim
        .transcript()
        .iter()
        .filter_map(|e| match &e.event {
            TranscriptEvent::Deliver { bits, .. } => Some(*bits),
            TranscriptEvent::DroppedDeliver { .. } | TranscriptEvent::Timer { .. } => None,
        })
        .sum();
    assert_eq!(delivered, expected);
}

/// The same exactness for a `k`-slot SBA (the SBA of a lock-step broadcast
/// group): with unanimous inputs every party broadcasts one `Round1Slots` and
/// one `Round2Slots` envelope per phase and the phase king one `KingSlots`.
#[test]
fn honest_bits_equals_sum_of_encoded_lengths_for_a_slot_sba() {
    use bobw_mpc::protocols::sba::Sba;
    let (n, t) = (4usize, 1usize);
    let values = vec![
        Some(BcValue::Bit(true)),
        None,
        Some(BcValue::Votes(vec![(2, Vote::Ok)])),
    ];
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|_| Box::new(Sba::with_slots(n, t, values.clone())) as Box<dyn Protocol<Msg>>)
        .collect();
    let mut sim = Simulation::new(NetConfig::synchronous(n), CorruptionSet::none(), parties);
    sim.run_to_quiescence(10_000);
    for i in 0..n {
        assert_eq!(sim.party_as::<Sba>(i).unwrap().outputs(), Some(&values[..]));
    }
    let n = n as u64;
    let mut expected = 0;
    for phase in 0..=t as u32 {
        let round1 = Msg::Sba(SbaMsg::Round1Slots {
            phase,
            values: values.clone(),
        });
        let round2 = Msg::Sba(SbaMsg::Round2Slots {
            phase,
            candidates: values.iter().cloned().map(Some).collect(),
        });
        let king = Msg::Sba(SbaMsg::KingSlots {
            phase,
            values: values.clone(),
        });
        expected += n * n * (round1.encoded_bits() + round2.encoded_bits());
        expected += n * king.encoded_bits();
    }
    assert_eq!(sim.metrics().honest_bits, expected);
    assert_eq!(
        sim.metrics().honest_messages,
        (2 * n + 1) * n * (t as u64 + 1)
    );
}
