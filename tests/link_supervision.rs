//! The per-link state machines of the TCP transport, driven without a
//! socket: the dialer-side `LinkWriter` against an in-memory sink that takes
//! a few bytes at a time and refuses at will, and the listener-side
//! `Handshakes` accept set against scripted strangers.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use bobw_mpc::net::transport::supervisor::{
    encode_data_into, encode_handshake, encode_record, encode_record_into, ChaosAction, Handshakes,
    LinkRecord, LinkWriter, HANDSHAKE_TIMEOUT,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sink that takes at most `max` bytes per `write` and, when `refuse` is
/// set, answers one call in four with `WouldBlock`.
struct Choppy {
    rng: StdRng,
    max: usize,
    refuse: bool,
    taken: Vec<u8>,
    calls: usize,
}

impl Choppy {
    fn new(seed: u64, max: usize, refuse: bool) -> Self {
        Choppy {
            rng: StdRng::seed_from_u64(seed),
            max,
            refuse,
            taken: Vec::new(),
            calls: 0,
        }
    }
}

impl Write for Choppy {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.refuse && self.rng.gen_range(0..4u8) == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let k = self.rng.gen_range(1..=self.max.min(buf.len()));
        self.taken.extend_from_slice(&buf[..k]);
        Ok(k)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Queues sequenced record number `seq` (data or floor, by parity of the
/// draw) and returns the stream bytes it must appear as.
fn queue_record(w: &mut LinkWriter, rng: &mut StdRng, seq: u64, act: ChaosAction) -> Vec<u8> {
    if rng.gen() {
        let payload: Vec<u8> = (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect();
        let (send_tick, order, deliver_tick) = (rng.gen_range(0..900), rng.gen_range(0..8), 901);
        w.queue(
            |seq, out| encode_data_into(out, seq, (send_tick, order, deliver_tick), true, &payload),
            |_| act,
        );
        encode_record(&LinkRecord::Data {
            seq,
            send_tick,
            order,
            deliver_tick,
            framed: true,
            payload,
        })
    } else {
        let floor = rng.gen_range(0..5000);
        w.queue(
            |seq, out| encode_record_into(out, &LinkRecord::Floor { seq, floor }),
            |_| act,
        );
        encode_record(&LinkRecord::Floor { seq, floor })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn short_writes_never_tear_or_reorder_a_record(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sink = Choppy::new(seed ^ 1, rng.gen_range(1..40), true);
        let mut w = LinkWriter::default();
        let now = Instant::now();
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for seq in 0..rng.gen_range(1..24u64) {
            stream.extend(queue_record(&mut w, &mut rng, seq, ChaosAction::Clean));
            ends.push(stream.len());
            for _ in 0..rng.gen_range(0..3u8) {
                w.flush(&mut sink, now).expect("the sink never fails");
            }
            // A cumulative ack for some of what the sink has whole — and, now
            // and then, for more than this connection has written: neither
            // may cost the stream a byte.
            let whole = ends.iter().filter(|&&e| e <= sink.taken.len()).count() as u64;
            w.ack(rng.gen_range(0..=whole + 1));
        }
        while !w.drained() {
            w.flush(&mut sink, now).expect("the sink never fails");
        }
        prop_assert_eq!(&sink.taken, &stream);
        w.ack(ends.len() as u64);
        prop_assert_eq!(w.backlog(), 0);
    }

    #[test]
    fn sever_then_replay_resends_exactly_the_unacked_tail(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = LinkWriter::default();
        let now = Instant::now();
        let count = rng.gen_range(2..12usize);
        let torn = rng.gen_range(1..count);
        let records: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let act = match i == torn {
                    true => ChaosAction::Sever { prefix: 5 },
                    false => ChaosAction::Clean,
                };
                queue_record(&mut w, &mut rng, i as u64, act)
            })
            .collect();
        // First connection: everything before the torn record, five bytes
        // of it, then the connection is gone.
        let mut first = Choppy::new(seed ^ 2, 64, true);
        let gone = loop {
            if let Err(e) = w.flush(&mut first, now) {
                break e;
            }
        };
        prop_assert_eq!(gone.kind(), ErrorKind::ConnectionAborted);
        let mut want = records[..torn].concat();
        want.extend_from_slice(&records[torn][..5]);
        prop_assert_eq!(&first.taken, &want);
        // The receiver had acked a prefix before the tear.
        let acked = rng.gen_range(0..=torn);
        w.ack(acked as u64);
        // Second connection: the records the first one had started on come
        // again (counted), the rest follows, and the verdict is spent.
        prop_assert_eq!(w.reconnect(), (torn + 1 - acked) as u64);
        let mut second = Choppy::new(seed ^ 3, 64, true);
        while !w.drained() {
            w.flush(&mut second, now).expect("replays are written clean");
        }
        prop_assert_eq!(&second.taken, &records[acked..].concat());
    }
}

/// A sink that takes whatever it is offered and counts the calls.
#[derive(Default)]
struct Greedy {
    taken: Vec<u8>,
    calls: usize,
}

impl Write for Greedy {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.taken.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn one_wake_up_is_one_write() {
    // What a tick produces for one link — a frame, then the floor promise
    // behind it — reaches the socket in a single `write`.
    let mut w = LinkWriter::default();
    let floor = LinkRecord::Floor { seq: 1, floor: 17 };
    w.queue(
        |seq, out| encode_data_into(out, seq, (3, 0, 9), true, b"frame"),
        |_| ChaosAction::Clean,
    );
    w.queue(
        |_, out| encode_record_into(out, &floor),
        |_| ChaosAction::Clean,
    );
    let mut sink = Greedy::default();
    w.flush(&mut sink, Instant::now()).unwrap();
    let data = LinkRecord::Data {
        seq: 0,
        send_tick: 3,
        order: 0,
        deliver_tick: 9,
        framed: true,
        payload: b"frame".to_vec(),
    };
    let stream = [encode_record(&data), encode_record(&floor)].concat();
    assert_eq!((sink.calls, sink.taken), (1, stream));
}

#[test]
fn a_stall_holds_its_own_link_and_nothing_else() {
    let mut rng = StdRng::seed_from_u64(9);
    let (mut stalled, mut other) = (LinkWriter::default(), LinkWriter::default());
    let dur = Duration::from_millis(300);
    let before = queue_record(&mut stalled, &mut rng, 0, ChaosAction::Clean);
    let held = queue_record(&mut stalled, &mut rng, 1, ChaosAction::Stall { dur });
    let free = queue_record(&mut other, &mut rng, 0, ChaosAction::Clean);
    let (mut a, mut b) = (Choppy::new(1, 4096, false), Choppy::new(2, 4096, false));
    let now = Instant::now();
    stalled.flush(&mut a, now).unwrap();
    other.flush(&mut b, now).unwrap();
    // What was queued ahead of the stalled record is out, the record is not,
    // and the link asks to be left alone until the stall ends.
    assert_eq!((&a.taken, &b.taken), (&before, &free));
    assert_eq!(stalled.stalled_until(), Some(now + dur));
    assert!(!stalled.wants_write(now + dur / 2) && !stalled.drained());
    stalled.flush(&mut a, now + dur / 2).unwrap();
    assert_eq!(a.taken, before);
    stalled.flush(&mut a, now + dur).unwrap();
    assert_eq!(a.taken, [before, held].concat());
}

/// A scripted peer: each `read` plays the next step; out of steps, it is
/// silent (`WouldBlock`). An empty step is EOF.
struct Script(VecDeque<Vec<u8>>);

impl Script {
    fn new(steps: &[&[u8]]) -> Self {
        Script(steps.iter().map(|s| s.to_vec()).collect())
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(mut step) = self.0.pop_front() else {
            return Err(ErrorKind::WouldBlock.into());
        };
        let k = step.len().min(buf.len());
        buf[..k].copy_from_slice(&step[..k]);
        if k < step.len() {
            self.0.push_front(step.split_off(k));
        }
        Ok(k)
    }
}

#[test]
fn hostile_connections_are_dropped_without_state_growth() {
    let (me, n) = (2usize, 5usize);
    let now = Instant::now();
    let mut set: Handshakes<Script> = Handshakes::new(n);
    let pending = |set: &Handshakes<Script>| set.streams().count();
    let good = encode_handshake(4, me);
    let mut bad_magic = good;
    bad_magic[0] ^= 1;
    let hostile: [&[&[u8]]; 6] = [
        &[&good[..7], &[]],           // truncated: EOF mid-handshake
        &[&bad_magic],                // not our protocol
        &[&encode_handshake(4, 3)],   // addressed to someone else
        &[&encode_handshake(n, me)],  // from ≥ n
        &[&encode_handshake(99, me)], // from ≥ n
        &[&encode_handshake(me, me)], // claims to be us
    ];
    for steps in hostile {
        set.admit(Script::new(steps), now);
        assert!(set.advance(0, me, n).is_none());
        assert_eq!(pending(&set), 0, "a rejected connection leaves nothing");
    }
    // A genuine handshake may arrive in pieces, and takes exactly 12 bytes:
    // what follows belongs to the record stream.
    set.admit(Script::new(&[&good[..5], &good[5..], b"record bytes"]), now);
    assert!(matches!(set.advance(0, me, n), Some((4, _))));
    set.admit(Script::new(&[&good[..5]]), now);
    assert!(set.advance(0, me, n).is_none());
    assert_eq!(pending(&set), 1, "half a handshake waits for the rest");
    // Silent strangers: the set is capped (oldest out first) and everything
    // in it dies at its handshake deadline.
    for _ in 0..100 {
        set.admit(Script::new(&[]), now);
    }
    assert_eq!(pending(&set), n + 3);
    assert!(set.advance(0, me, n).is_none());
    assert_eq!(set.next_deadline(), Some(now + HANDSHAKE_TIMEOUT));
    set.expire(now + HANDSHAKE_TIMEOUT);
    assert_eq!((pending(&set), set.next_deadline()), (0, None));
}
