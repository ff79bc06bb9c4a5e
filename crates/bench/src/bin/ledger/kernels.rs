//! The kernel pass: the workload-independent per-layer numbers, each timed
//! from the ledger against one layer's public API — `algebra.*` kernels, the
//! `wire.*` codec over a fixed corpus, the `transport.record_*` stream
//! codec, stand-alone `protocols.<p>_*` instances, and a null-protocol
//! flood that prices the bare `engine`.

use std::hint::black_box;
use std::time::Instant;

use mpc_algebra::{
    evaluation_points::alphas, rs, shamir, EvalDomain, Fp, PackedDomain, Polynomial,
    SymmetricBivariate,
};
use mpc_net::transport::supervisor::{encode_record, LinkRecord, RecordDecoder};
use mpc_net::{
    ByzantineStrategy, Context, CorruptionSet, Frame, FrameBuilder, GarbleBytes, NetConfig,
    PartyId, PathSlice, Protocol, Simulation, Time, WireAction, WireDecode, WireEncode, WireSend,
};
use mpc_protocols::acast::Acast;
use mpc_protocols::acs::Acs;
use mpc_protocols::ba::Ba;
use mpc_protocols::bc::Bc;
use mpc_protocols::vss::Vss;
use mpc_protocols::wps::Wps;
use mpc_protocols::{AbaMsg, AcastMsg, BcValue, Msg, Params, SbaMsg, Vote};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, ns_per_call};

/// One number of the kernel pass. It belongs to no workload, so it is not in
/// `BENCHMARK.json` and carries its own unit and direction.
pub struct Kernel {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

pub type Values = Vec<Kernel>;

/// A cost: lower is better.
fn cost(name: String, value: f64, unit: &'static str) -> Kernel {
    Kernel {
        name,
        value,
        unit,
        better: "lower",
    }
}

/// A rate: higher is better.
fn rate(name: String, value: f64, unit: &'static str) -> Kernel {
    Kernel {
        better: "higher",
        ..cost(name, value, unit)
    }
}

/// Runs every kernel. `Err` if a stand-alone protocol instance fails to
/// complete or a codec round trip is wrong.
pub fn run() -> Result<Values, String> {
    let mut out = Values::new();
    algebra(&mut out);
    wire(&mut out)?;
    record_codec(&mut out)?;
    engine_null(&mut out)?;
    protocols(&mut out)?;
    Ok(out)
}

fn fps(rng: &mut StdRng, count: usize) -> Vec<Fp> {
    (0..count).map(|_| Fp::random(rng)).collect()
}

/// `algebra.*`: n = 8 kernels use d = t = 2 (the scalar workloads' `t_s`);
/// the packed kernels use n = 10, ℓ = 4, degree `t_s + ℓ − 1 = 4`.
fn algebra(out: &mut Values) {
    let mut rng = StdRng::seed_from_u64(0xA16E);
    let mut push = |name: &str, ns: f64| out.push(cost(format!("algebra.{name}"), ns, "ns"));
    const N: usize = 8;
    const D: usize = 2;

    let (a, b) = (Fp::random(&mut rng), Fp::random(&mut rng));
    // A dependent chain, so the multiplier's latency is what is measured.
    push(
        "fp_mul_ns",
        ns_per_call(|| {
            let mut x = black_box(a);
            for _ in 0..64 {
                x *= black_box(b);
            }
            black_box(x);
        }) / 64.0,
    );

    let values = fps(&mut rng, 64);
    push(
        "batch_inverse_64_ns",
        ns_per_call(|| {
            let mut v = values.clone();
            Fp::batch_inverse(&mut v);
            black_box(v);
        }),
    );

    let xs = alphas(N);
    let ys = fps(&mut rng, N);
    let points: Vec<(Fp, Fp)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    push(
        "interpolate_n8_ns",
        ns_per_call(|| {
            black_box(Polynomial::interpolate(black_box(&points)));
        }),
    );

    let domain = EvalDomain::get(N);
    let target = Fp::from_u64(1_000_003);
    push(
        "lagrange_eval_n8_ns",
        ns_per_call(|| {
            black_box(domain.basis().eval_at(black_box(&ys), target));
        }),
    );

    push(
        "shamir_share_n8_ns",
        ns_per_call(|| {
            black_box(shamir::share(&mut rng, a, D, N));
        }),
    );

    let bivariate = SymmetricBivariate::random(&mut rng, D);
    push(
        "bivariate_rows_n8_ns",
        ns_per_call(|| {
            for &x in &xs {
                black_box(bivariate.row(x));
            }
        }),
    );

    let secret_poly = Polynomial::random(&mut rng, D);
    let clean: Vec<(Fp, Fp)> = xs.iter().map(|&x| (x, secret_poly.evaluate(x))).collect();
    push(
        "oec_clean_n8_ns",
        ns_per_call(|| {
            black_box(rs::oec_decode(D, D, black_box(&clean)));
        }),
    );
    let mut two_errors = clean.clone();
    two_errors[1].1 += Fp::ONE;
    two_errors[4].1 += Fp::ONE;
    assert_eq!(
        rs::oec_decode(D, D, &two_errors).as_ref(),
        Some(&secret_poly),
        "OEC corrects t errors among n = d + 2t + 2 points"
    );
    push(
        "oec_2err_n8_ns",
        ns_per_call(|| {
            black_box(rs::oec_decode(D, D, black_box(&two_errors)));
        }),
    );
    let columns: Vec<Vec<Fp>> = (0..16)
        .map(|_| {
            let f = Polynomial::random(&mut rng, D);
            xs.iter().map(|&x| f.evaluate(x)).collect()
        })
        .collect();
    push(
        "oec_batch16_n8_ns",
        ns_per_call(|| {
            black_box(rs::oec_decode_batch(D, D, &xs, black_box(&columns)));
        }),
    );

    const PN: usize = 10;
    const ELL: usize = 4;
    const TS: usize = 1;
    let packed = PackedDomain::get(PN, ELL);
    let slots = fps(&mut rng, ELL);
    push(
        "packed_share_n10l4_ns",
        ns_per_call(|| {
            black_box(packed.share(&mut rng, black_box(&slots), TS));
        }),
    );
    let sharing = packed.share(&mut rng, &slots, TS);
    let shares: Vec<(usize, Fp)> = sharing.shares.iter().copied().enumerate().collect();
    assert_eq!(
        packed.reconstruct_robust(TS + ELL - 1, TS, &shares),
        Some(slots.clone())
    );
    push(
        "packed_robust_n10l4_ns",
        ns_per_call(|| {
            black_box(packed.reconstruct_robust(TS + ELL - 1, TS, black_box(&shares)));
        }),
    );
}

/// The fixed `Msg` corpus: one representative of every hot variant, sized as
/// the n = 8 scalar workload sends them (L = 8 row polynomials of degree
/// `t_s`, a 48-value layer opening) plus one packed deal.
pub fn corpus() -> Vec<Msg> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let votes = (0..8).map(|j| (j, Vote::Ok)).collect();
    vec![
        Msg::Acast(AcastMsg::Echo(BcValue::Votes(votes))),
        Msg::Sba(SbaMsg::Round1 {
            phase: 1,
            value: Some(BcValue::Bit(true)),
        }),
        Msg::Aba(AbaMsg::Est {
            round: 2,
            value: true,
        }),
        Msg::RowPolys((0..8).map(|_| fps(&mut rng, 3)).collect()),
        Msg::Points(fps(&mut rng, 8)),
        Msg::Open {
            tag: 7,
            values: fps(&mut rng, 48),
        },
        Msg::PackedDeal(fps(&mut rng, 64)),
    ]
}

/// What a corrupt party under the product's own `GarbleBytes` strategy puts
/// on the wire in place of `bytes`.
fn garble(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let send = WireSend {
        from: 0,
        to: 1,
        n: KERNEL_N,
        path: &FRAME_PATH,
        bytes,
        broadcast: false,
    };
    match GarbleBytes.on_send(&send, rng) {
        WireAction::Replace(garbled) => garbled,
        other => unreachable!("GarbleBytes always replaces the bytes, got {other:?}"),
    }
}

const FRAME_PATH: [u32; 3] = [1, 3, 5];

fn frame_of(corpus: &[Msg]) -> Vec<u8> {
    let mut frame = FrameBuilder::new();
    for msg in corpus {
        frame.push(&FRAME_PATH, msg);
    }
    frame.finish()
}

fn wire(out: &mut Values) -> Result<(), String> {
    let corpus = corpus();
    let per_msg = corpus.len() as f64;
    let encoded: Vec<Vec<u8>> = corpus.iter().map(WireEncode::encode).collect();
    for (msg, bytes) in corpus.iter().zip(&encoded) {
        if Msg::decode(bytes).as_ref() != Ok(msg) {
            return Err(format!("wire: {msg:?} does not round-trip"));
        }
    }
    out.push(cost(
        "wire.corpus_bytes".to_string(),
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
        "bytes",
    ));
    let mut push = |name: &str, ns: f64| out.push(cost(format!("wire.{name}"), ns, "ns"));
    push(
        "encode_ns_per_msg",
        ns_per_call(|| {
            for msg in &corpus {
                black_box(msg.encode());
            }
        }) / per_msg,
    );
    push(
        "decode_ns_per_msg",
        ns_per_call(|| {
            for bytes in &encoded {
                black_box(Msg::decode(black_box(bytes)).is_ok());
            }
        }) / per_msg,
    );
    push(
        "frame_build_ns_per_msg",
        ns_per_call(|| {
            black_box(frame_of(&corpus));
        }) / per_msg,
    );
    let frame = frame_of(&corpus);
    match Frame::decode::<Msg>(&frame) {
        Ok(items) if items.iter().map(|i| &i.msg).eq(corpus.iter()) => {}
        _ => return Err("wire: the corpus frame does not round-trip".to_string()),
    }
    push(
        "frame_decode_ns_per_msg",
        ns_per_call(|| {
            black_box(Frame::decode::<Msg>(black_box(&frame)).is_ok());
        }) / per_msg,
    );
    let mut rng = StdRng::seed_from_u64(0x6A5B);
    let garbled: Vec<Vec<u8>> = encoded.iter().map(|b| garble(b, &mut rng)).collect();
    push(
        "reject_ns_per_msg",
        ns_per_call(|| {
            for bytes in &garbled {
                black_box(Msg::decode(black_box(bytes)).is_err());
            }
        }) / per_msg,
    );
    Ok(())
}

/// `transport.record_*`: the supervisor's stream codec over one data record
/// carrying the corpus frame.
fn record_codec(out: &mut Values) -> Result<(), String> {
    let record = LinkRecord::Data {
        seq: 41,
        send_tick: 900,
        order: 3,
        deliver_tick: 907,
        framed: true,
        payload: frame_of(&corpus()),
    };
    let stream = encode_record(&record);
    let mut decoder = RecordDecoder::new();
    decoder.extend(&stream);
    if decoder.next_record() != Ok(Some(record.clone())) {
        return Err("transport: the link record does not round-trip".to_string());
    }
    // bytes per nanosecond × 1000 = MB/s.
    let mb_s = |ns: f64| stream.len() as f64 / ns * 1e3;
    out.push(rate(
        "transport.record_encode_mb_s".to_string(),
        mb_s(ns_per_call(|| {
            black_box(encode_record(black_box(&record)));
        })),
        "MB/s",
    ));
    out.push(rate(
        "transport.record_decode_mb_s".to_string(),
        mb_s(ns_per_call(|| {
            let mut decoder = RecordDecoder::new();
            decoder.extend(black_box(&stream));
            black_box(decoder.next_record().is_ok());
        })),
        "MB/s",
    ));
    Ok(())
}

/// A party that does nothing but keep the engine busy: one small broadcast
/// per tick, trivial handlers.
struct Flood {
    ticks_left: u32,
    received: u64,
}

impl Flood {
    fn tick(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.ticks_left > 0 {
            self.ticks_left -= 1;
            ctx.broadcast(Msg::Aba(AbaMsg::Est {
                round: self.ticks_left,
                value: true,
            }));
            ctx.set_timer(1, 0);
        }
    }
}

impl Protocol<Msg> for Flood {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.tick(ctx);
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: PartyId, _: PathSlice<'_>, _: Msg) {
        self.received += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: PathSlice<'_>, _: u64) {
        self.tick(ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const KERNEL_N: usize = 8;

fn kernel_config() -> NetConfig {
    NetConfig::synchronous(KERNEL_N)
        .with_delta(NetConfig::DEFAULT_DELTA)
        .with_seed(1)
        .with_threads(1)
        .with_frames(true)
}

/// `engine.null_*`: events per second of the simulator when the handlers
/// cost nothing (n = 8, 2 000 ticks).
fn engine_null(out: &mut Values) -> Result<(), String> {
    const TICKS: u32 = 2_000;
    let mut ns_per_event = Vec::new();
    for _ in 0..5 {
        let parties = (0..KERNEL_N)
            .map(|_| {
                Box::new(Flood {
                    ticks_left: TICKS,
                    received: 0,
                }) as Box<dyn Protocol<Msg>>
            })
            .collect();
        let mut sim = Simulation::new(kernel_config(), CorruptionSet::none(), parties);
        let t = Instant::now();
        sim.run_to_quiescence(Time::from(TICKS) * 4);
        let ns = t.elapsed().as_nanos() as f64;
        let expected = u64::from(TICKS) * KERNEL_N as u64;
        if (0..KERNEL_N).any(|i| sim.party_as::<Flood>(i).map(|f| f.received) != Some(expected)) {
            return Err("engine: the null flood lost a broadcast".to_string());
        }
        ns_per_event.push(ns / sim.metrics().events_processed as f64);
    }
    let ns = median(&ns_per_event);
    out.push(cost("engine.null_ns_per_event".to_string(), ns, "ns"));
    out.push(rate(
        "engine.null_events_per_s".to_string(),
        1e9 / ns,
        "1/s",
    ));
    Ok(())
}

/// One stand-alone protocol instance on the simulator: median wall over a
/// few runs, plus the (exactly repeating) bits and completion tick.
fn standalone<P: Protocol<Msg>>(
    out: &mut Values,
    name: &str,
    horizon: Time,
    make: impl Fn(PartyId) -> P,
    done: impl Fn(&P) -> bool,
) -> Result<(), String> {
    let mut wall_ms = Vec::new();
    let mut counts = None;
    let budget = Instant::now();
    while wall_ms.len() < 5 && (wall_ms.is_empty() || budget.elapsed().as_millis() < 250) {
        let parties = (0..KERNEL_N)
            .map(|i| Box::new(make(i)) as Box<dyn Protocol<Msg>>)
            .collect();
        let mut sim = Simulation::new(kernel_config(), CorruptionSet::none(), parties);
        let t = Instant::now();
        let all_done = sim.run_until(horizon, |s| {
            (0..KERNEL_N).all(|i| s.party_as::<P>(i).is_some_and(&done))
        });
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !all_done {
            return Err(format!("protocols: stand-alone {name} did not complete"));
        }
        let this = (sim.metrics().honest_bits, sim.now());
        if *counts.get_or_insert(this) != this {
            return Err(format!(
                "protocols: stand-alone {name} is not deterministic"
            ));
        }
    }
    let (bits, ticks) = counts.expect("at least one run");
    out.push(cost(format!("protocols.{name}_ms"), median(&wall_ms), "ms"));
    out.push(cost(format!("protocols.{name}_bits"), bits as f64, "bits"));
    out.push(cost(
        format!("protocols.{name}_ticks"),
        ticks as f64,
        "ticks",
    ));
    Ok(())
}

/// `protocols.<p>_*`: each building block alone at n = 8, (t_s, t_a) =
/// (2, 1), payload / polynomial count L = 8, synchronous, honest.
fn protocols(out: &mut Values) -> Result<(), String> {
    const L: usize = 8;
    let params = Params::new(KERNEL_N, 2, 1, NetConfig::DEFAULT_DELTA);
    let payload = BcValue::Value(vec![Fp::from_u64(7); L]);
    let polys = |seed: u64| -> Vec<Polynomial> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..L)
            .map(|_| Polynomial::random(&mut rng, params.ts))
            .collect()
    };

    standalone(
        out,
        "acast",
        10_000,
        |i| match i {
            0 => Acast::new_sender(0, KERNEL_N, params.ts, payload.clone()),
            _ => Acast::new(0, KERNEL_N, params.ts),
        },
        |p| p.output.is_some(),
    )?;
    standalone(
        out,
        "bc",
        params.t_bc() * 20,
        |i| match i {
            0 => Bc::new_sender(0, params.ts, params, payload.clone()),
            _ => Bc::new(0, params.ts, params),
        },
        |p| p.value().is_some(),
    )?;
    standalone(
        out,
        "ba",
        params.t_ba() * 50,
        |i| Ba::new(params.ts, params, Some(i % 2 == 0)),
        |p| p.output.is_some(),
    )?;
    standalone(
        out,
        "wps",
        params.t_wps() * 4,
        |i| match i {
            0 => Wps::new_dealer(0, params, polys(1)),
            _ => Wps::new(0, params, L),
        },
        |p| p.shares.is_some(),
    )?;
    standalone(
        out,
        "vss",
        params.t_vss() * 4,
        |i| match i {
            0 => Vss::new_dealer(0, params, polys(2)),
            _ => Vss::new(0, params, L),
        },
        |p| p.shares.is_some(),
    )?;
    standalone(
        out,
        "acs",
        params.t_acs() * 6,
        |i| Acs::new(params, polys(3 + i as u64)),
        Acs::ready,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel's own check holds (codec round trips, OEC corrects `t`
    /// errors, the stand-alone instances complete and repeat), and every
    /// number is named once and is positive.
    #[test]
    fn kernel_pass_completes() {
        let values = run().expect("the kernel pass completes");
        let mut names: Vec<&str> = values.iter().map(|k| k.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), values.len());
        assert!(values.iter().all(|k| k.value.is_finite() && k.value > 0.0));
    }
}
