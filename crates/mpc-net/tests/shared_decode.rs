//! The recipients of one broadcast frame share one decode of it.
//!
//! The simulator encodes an honest party's broadcast frame once and hands
//! every recipient the same bytes; it also decodes them once, at the first
//! recipient's activation, and every handler borrows the result. This binary
//! counts decodes with a message type of its own, so it holds a single test.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use mpc_net::{
    Context, CorruptionSet, NetConfig, NetworkKind, PartyId, PathSlice, Protocol, Simulation,
    WireDecode, WireEncode, WireError, WireReader,
};

/// Calls of [`Counted::decode_from`], process-wide.
static DECODES: AtomicU64 = AtomicU64::new(0);

/// A message whose decodes are counted. `Poison` encodes like any message
/// but never decodes: a frame holding it reaches no recipient's handler.
#[derive(Clone, Debug, PartialEq)]
enum Counted {
    Value(u64),
    Poison,
}

impl WireEncode for Counted {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Counted::Value(v) => {
                out.push(0);
                v.encode_into(out);
            }
            Counted::Poison => out.push(1),
        }
    }
}

impl WireDecode for Counted {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        DECODES.fetch_add(1, Ordering::SeqCst);
        match r.u8()? {
            0 => Ok(Counted::Value(r.u64()?)),
            tag => Err(WireError::InvalidTag {
                tag,
                context: "Counted",
            }),
        }
    }
}

/// Broadcast frames party 0 sends: one from `init`, one from its timer.
const FRAMES: u64 = 2;

/// Party 0 broadcasts `payload` in `FRAMES` activations; every party keeps
/// what reaches its handler.
struct Party {
    me: PartyId,
    payload: Counted,
    received: Vec<(PartyId, Counted)>,
}

impl Protocol<Counted> for Party {
    fn init(&mut self, ctx: &mut Context<'_, Counted>) {
        if self.me == 0 {
            ctx.broadcast(self.payload.clone());
            ctx.set_timer(1, 0);
        }
    }

    fn on_message(
        &mut self,
        _: &mut Context<'_, Counted>,
        from: PartyId,
        _: PathSlice<'_>,
        msg: Counted,
    ) {
        self.received.push((from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Counted>, _: PathSlice<'_>, _: u64) {
        ctx.broadcast(self.payload.clone());
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn recipients_of_a_broadcast_frame_share_one_decode() {
    let n = 8;
    for kind in [NetworkKind::Synchronous, NetworkKind::Asynchronous] {
        for threads in [1, 4] {
            for payload in [Counted::Value(7), Counted::Poison] {
                let label = format!("{kind:?}, threads {threads}, {payload:?}");
                let parties: Vec<Box<dyn Protocol<Counted>>> = (0..n)
                    .map(|me| {
                        let payload = payload.clone();
                        let received = Vec::new();
                        Box::new(Party {
                            me,
                            payload,
                            received,
                        }) as Box<dyn Protocol<Counted>>
                    })
                    .collect();
                let config = NetConfig::for_kind(n, kind).with_threads(threads);
                let before = DECODES.load(Ordering::SeqCst);
                let mut sim = Simulation::new(config, CorruptionSet::none(), parties);
                sim.run_to_quiescence(10_000);
                let decodes = DECODES.load(Ordering::SeqCst) - before;

                // Not one per recipient (n − 1): the sender's own copies are
                // never decoded at all.
                assert_eq!(decodes, FRAMES, "{label}: one decode per frame");
                assert_eq!(
                    sim.metrics().frames_sent,
                    FRAMES * (n as u64 - 1),
                    "{label}"
                );
                let received = |i| &sim.party_as::<Party>(i).expect("a Party").received;
                let mine: Vec<_> = (0..FRAMES).map(|_| (0, payload.clone())).collect();
                assert_eq!(received(0), &mine, "{label}: the sender's own copies");
                let (others, failures) = match payload {
                    Counted::Value(_) => (&mine[..], 0),
                    // A shared decode that fails is every recipient's own
                    // failure.
                    Counted::Poison => (&[][..], FRAMES * (n as u64 - 1)),
                };
                for i in 1..n {
                    assert_eq!(received(i), others, "{label}: party {i}");
                }
                assert_eq!(sim.metrics().decode_failures, failures, "{label}");
            }
        }
    }
}
