//! Thread census of the TCP backend (DESIGN.md "Socket transport &
//! connection supervision"): a run is one thread per party plus the calling
//! thread as coordinator — no thread per link, per accepted connection or
//! per ack stream. The count is read from `/proc/self/status` by the
//! parties themselves, from inside their handlers, so the census adds no
//! thread of its own; it is process-wide, which is why this binary holds a
//! single test.

#![cfg(target_os = "linux")]

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use bobw_mpc::algebra::Fp;
use bobw_mpc::core::sweeps::default_workload;
use bobw_mpc::core::CirEval;
use bobw_mpc::net::{
    party_as, Context, CorruptionSet, LinkDelays, NetConfig, PartyId, PathSlice, Protocol, TcpNet,
    Transport,
};
use bobw_mpc::protocols::{Msg, Params};

static THREADS_PEAK: AtomicU64 = AtomicU64::new(0);
static SAMPLES: AtomicU64 = AtomicU64::new(0);

fn sample_threads() {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line");
    THREADS_PEAK.fetch_max(threads, Ordering::Relaxed);
    SAMPLES.fetch_add(1, Ordering::Relaxed);
}

/// A `CirEval` party that samples the process's thread count at init and on
/// every 64th handler call.
struct Census {
    inner: CirEval,
    calls: u32,
}

impl Census {
    fn tick(&mut self) {
        self.calls += 1;
        if self.calls.is_multiple_of(64) {
            sample_threads();
        }
    }
}

impl Protocol<Msg> for Census {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        sample_threads();
        self.inner.init(ctx);
    }
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        self.tick();
        self.inner.on_message(ctx, from, path, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        self.tick();
        self.inner.on_timer(ctx, path, id);
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[test]
fn tcp_evaluation_runs_on_one_thread_per_party() {
    let n = 5;
    let (circuit, inputs) = default_workload(n);
    let params = Params::new(n, 1, 1, NetConfig::DEFAULT_DELTA);
    let parties = inputs
        .iter()
        .map(|&x| {
            let inner = CirEval::new(params, circuit.clone(), Fp::from_u64(x));
            Box::new(Census { inner, calls: 0 }) as Box<dyn Protocol<Msg>>
        })
        .collect();
    let cfg = NetConfig::synchronous(n).with_seed(59);
    let links = LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed);
    let mut net =
        TcpNet::with_links(cfg, CorruptionSet::none(), links, parties).with_tick_micros(100);
    let horizon = params.horizon_for_depth(circuit.mult_depth()) * 4;
    let output = |view: &dyn bobw_mpc::net::PartyView<Msg>, i| {
        party_as::<CirEval, Msg>(view, i).and_then(|p| p.output)
    };
    let done = net.run_until_done(horizon, &mut |view| {
        (0..n).all(|i| output(view, i).is_some())
    });
    assert!(
        done,
        "the evaluation must terminate: {:?}",
        net.last_error()
    );

    // n party threads, the coordinator (this test's thread) and the test
    // harness's main thread. The parent design read 72 here: 2n² + n helper
    // threads on top.
    let (peak, samples) = (
        THREADS_PEAK.load(Ordering::Relaxed),
        SAMPLES.load(Ordering::Relaxed),
    );
    assert!(samples > 100, "the census must sample mid-run ({samples})");
    assert!(peak <= n as u64 + 2, "peak {peak} threads for n = {n}");
}
