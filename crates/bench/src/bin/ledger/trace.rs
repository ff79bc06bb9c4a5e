//! Outside-in tracing of one evaluation, entirely from the ledger's side of
//! the public API: nothing in the product is patched.
//!
//! The ledger wires the net itself — mirroring `MpcBuilder::run` step for
//! step ([`wire`] / [`drive`]) — with every party a [`Traced`] wrapper that
//! forwards `init` / `on_message` / `on_timer` to the inner `CirEval` and
//! times each call. The span tree is `run` → `party.<i>` → one span per
//! contiguous `CirEval::phase_name()` interval; each phase span carries
//! `busy_ns` / `calls` split by the `Msg` variant that triggered the call.
//! The engine's self time is what is left of the `run` span once every
//! handler's busy time is taken out.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpc_core::{CirEval, Circuit};
use mpc_net::{
    party_as, Backend, Context, CorruptionSet, FaultPlan, GarbleBytes, NetConfig, PartyId,
    PartyView, PathSlice, Protocol, Simulation, TcpNet, ThresholdAdversary, Time, Transport,
};
use mpc_protocols::{Msg, Params};

use crate::json::{obj, Json};
use crate::stats;
use crate::workloads::{Observed, Spec, HORIZON_FACTOR, TICK_US, WEDGE};

/// What triggered a handler call: the `Msg` variant, a timer, or `init`.
pub const KINDS: [&str; 11] = [
    "acast",
    "sba",
    "aba",
    "rowpolys",
    "points",
    "open",
    "ready",
    "packed-deal",
    "packed-report",
    "timer",
    "init",
];
const KIND_TIMER: usize = 9;
const KIND_INIT: usize = 10;

/// Every value `CirEval::phase_name()` can take.
pub const PHASES: [&str; 11] = [
    "await-acs",
    "packed-deal",
    "transform",
    "verify-beaver",
    "gamma",
    "suspect",
    "extract",
    "circuit",
    "open-output",
    "ready",
    "done",
];

fn kind_of(msg: &Msg) -> usize {
    match msg {
        Msg::Acast(_) => 0,
        Msg::Sba(_) => 1,
        Msg::Aba(_) => 2,
        Msg::RowPolys(_) => 3,
        Msg::Points(_) => 4,
        Msg::Open { .. } => 5,
        Msg::Ready(_) => 6,
        Msg::PackedDeal(_) => 7,
        Msg::PackedReport(_) => 8,
    }
}

/// One contiguous interval a party spent in one `CirEval` phase.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    pub phase: &'static str,
    /// Wall clock, nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Logical clock.
    pub tick_start: Time,
    pub tick_end: Time,
    pub busy_ns: [u64; KINDS.len()],
    pub calls: [u64; KINDS.len()],
}

impl PhaseSpan {
    pub fn busy_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    pub fn calls_total(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Self time of a span: its own busy time minus what its children account
/// for. The root `run` span is busy for its whole duration.
pub fn self_time_ns(busy_ns: u64, children_busy_ns: &[u64]) -> i64 {
    busy_ns as i64 - children_busy_ns.iter().sum::<u64>() as i64
}

type PartyLog = Arc<Mutex<Vec<PhaseSpan>>>;

/// A party that times every call into the `CirEval` it wraps. `as_any`
/// forwards to the inner party, so `party_as::<CirEval>` sees through it.
pub struct Traced {
    inner: CirEval,
    log: PartyLog,
    epoch: Instant,
}

impl Traced {
    fn timed(&mut self, kind: usize, tick: Time, call: impl FnOnce(&mut CirEval)) {
        // The phase at entry owns the call, including a transition it causes.
        let phase = self.inner.phase_name();
        let start = self.epoch.elapsed();
        call(&mut self.inner);
        let end = self.epoch.elapsed();
        let (start_ns, end_ns) = (start.as_nanos() as u64, end.as_nanos() as u64);
        let mut spans = self.log.lock().expect("no handler panics while logging");
        if spans.last().is_none_or(|s| s.phase != phase) {
            spans.push(PhaseSpan {
                phase,
                start_ns,
                end_ns,
                tick_start: tick,
                tick_end: tick,
                busy_ns: [0; KINDS.len()],
                calls: [0; KINDS.len()],
            });
        }
        let span = spans.last_mut().expect("a span was just ensured");
        span.end_ns = end_ns;
        span.tick_end = tick;
        span.busy_ns[kind] += end_ns - start_ns;
        span.calls[kind] += 1;
    }
}

impl Protocol<Msg> for Traced {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let tick = ctx.now;
        self.timed(KIND_INIT, tick, |p| p.init(ctx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let tick = ctx.now;
        self.timed(kind_of(&msg), tick, |p| p.on_message(ctx, from, path, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, timer_id: u64) {
        let tick = ctx.now;
        self.timed(KIND_TIMER, tick, |p| p.on_timer(ctx, path, timer_id));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Builds the net for `spec` exactly as `MpcBuilder::run` does — same
/// `NetConfig`, corruption, link delays, fault/chaos plans, structure and
/// strategy — with party `i` produced by `wrap`.
pub fn wire(
    spec: &Spec,
    circuit: &Circuit,
    seed: u64,
    mut wrap: impl FnMut(PartyId, CirEval) -> Box<dyn Protocol<Msg>>,
) -> Box<dyn Transport<Msg>> {
    let params = spec_params(spec);
    let inputs = spec.inputs(seed);
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..spec.n)
        .map(|i| {
            let mut party = CirEval::new(
                params,
                circuit.clone(),
                mpc_algebra::Fp::from_u64(inputs[i]),
            );
            party.set_per_gate_openings(false);
            party.set_packing(spec.packing);
            wrap(i, party)
        })
        .collect();
    let cfg = NetConfig::for_kind(spec.n, spec.kind)
        .with_delta(NetConfig::DEFAULT_DELTA)
        .with_seed(seed)
        .with_threads(1)
        .with_frames(true);
    let corrupt = CorruptionSet::new(spec.garbled.to_vec());
    let mut net: Box<dyn Transport<Msg>> = match spec.backend {
        Backend::Simulator => {
            let mut sim = Simulation::new(cfg, corrupt, parties);
            sim.set_fault_plan(FaultPlan::none());
            Box::new(sim)
        }
        Backend::Tcp => {
            let mut tcp = TcpNet::with_links(cfg, corrupt, spec.link_delays(), parties)
                .with_tick_micros(TICK_US)
                .with_wedge_millis(WEDGE.as_millis() as u64);
            tcp.set_fault_plan(FaultPlan::none());
            tcp.set_chaos_plan(FaultPlan::none());
            Box::new(tcp)
        }
        Backend::Threaded => unreachable!("no ledger workload runs on the threaded backend"),
    };
    net.set_adversary_structure(Arc::new(ThresholdAdversary::new(spec.n, spec.ts, spec.ta)));
    if !spec.garbled.is_empty() {
        net.set_strategy(Box::new(GarbleBytes));
    }
    net
}

fn spec_params(spec: &Spec) -> Params {
    Params::new(spec.n, spec.ts, spec.ta, NetConfig::DEFAULT_DELTA)
}

/// Runs a wired net to the builder's completion predicate and collects what
/// `MpcBuilder::run` would have returned.
pub fn drive(
    spec: &Spec,
    circuit: &Circuit,
    net: &mut dyn Transport<Msg>,
) -> Result<Observed, String> {
    let n = spec.n;
    let honest = |i: PartyId| !spec.garbled.contains(&i);
    let output_of =
        |view: &dyn PartyView<Msg>, i| party_as::<CirEval, Msg>(view, i).and_then(|p| p.output);
    let horizon = spec_params(spec).horizon_for_depth(circuit.mult_depth()) * HORIZON_FACTOR;
    let done = net.run_until_done(horizon, &mut |view| {
        (0..n)
            .filter(|&i| honest(i))
            .all(|i| output_of(view, i).is_some())
    });
    if !done {
        return Err(format!("RunError: no termination within horizon {horizon}"));
    }
    let view: &dyn PartyView<Msg> = &*net;
    let outputs: Vec<_> = (0..n)
        .filter(|&i| honest(i))
        .filter_map(|i| output_of(view, i))
        .collect();
    if outputs.windows(2).any(|w| w[0] != w[1]) {
        return Err("RunError: honest parties disagree on the output".to_string());
    }
    let input_subset = (0..n)
        .find_map(|i| party_as::<CirEval, Msg>(view, i).and_then(|p| p.input_subset.clone()))
        .unwrap_or_default();
    let mut metrics = net.metrics().clone();
    metrics.packed_width = spec.packing as u64;
    metrics.values_opened_by_layer = (0..n)
        .filter(|&i| honest(i))
        .find_map(|i| party_as::<CirEval, Msg>(view, i).map(|p| p.values_opened_by_layer.clone()))
        .unwrap_or_default();
    Ok(Observed {
        output: outputs[0],
        input_subset,
        finished_at: view.now(),
        metrics,
    })
}

/// One traced evaluation.
pub struct TraceRun {
    pub backend: Backend,
    pub run: Observed,
    /// Duration of the root `run` span.
    pub run_ns: u64,
    /// Wiring, the `run` span and tear-down: the interval one
    /// `MpcBuilder::run` covers, so the two compare.
    pub wall_ns: u64,
    /// Per party, its phase spans in order.
    pub parties: Vec<Vec<PhaseSpan>>,
    /// Peak live thread count sampled during the run (TCP backend only;
    /// the simulator runs on the calling thread).
    pub threads_peak: u64,
}

impl TraceRun {
    pub fn spans(&self) -> impl Iterator<Item = &PhaseSpan> {
        self.parties.iter().flatten()
    }

    pub fn handler_busy_ns(&self) -> u64 {
        self.spans().map(PhaseSpan::busy_total).sum()
    }

    pub fn handler_calls(&self) -> u64 {
        self.spans().map(PhaseSpan::calls_total).sum()
    }

    /// `(busy_ns, calls)` of every call made while in `phase`.
    pub fn by_phase(&self, phase: &str) -> (u64, u64) {
        self.spans()
            .filter(|s| s.phase == phase)
            .fold((0, 0), |(b, c), s| {
                (b + s.busy_total(), c + s.calls_total())
            })
    }

    /// `(busy_ns, calls)` of every call triggered by `KINDS[kind]`.
    pub fn by_kind(&self, kind: usize) -> (u64, u64) {
        self.spans()
            .fold((0, 0), |(b, c), s| (b + s.busy_ns[kind], c + s.calls[kind]))
    }

    /// Self time of the root span: `run` minus every handler's busy time.
    /// Meaningful on the single-threaded simulator only; on TCP the party
    /// threads overlap and `transport.overhead_cpu_s` takes its place.
    pub fn engine_self_ns(&self) -> i64 {
        let per_party: Vec<u64> = self
            .parties
            .iter()
            .map(|spans| spans.iter().map(PhaseSpan::busy_total).sum())
            .collect();
        self_time_ns(self.run_ns, &per_party)
    }

    /// Every per-layer value this run yields on its own, by metric name.
    pub fn layer_values(&self) -> Vec<(String, f64)> {
        let secs = |ns: u64| ns as f64 / 1e9;
        let m = &self.run.metrics;
        let mut out = vec![
            (
                "cireval.handler_s".to_string(),
                secs(self.handler_busy_ns()),
            ),
            (
                "cireval.handler_calls".to_string(),
                self.handler_calls() as f64,
            ),
        ];
        for phase in PHASES {
            let (busy, calls) = self.by_phase(phase);
            out.push((format!("cireval.phase.{phase}_s"), secs(busy)));
            out.push((format!("cireval.phase.{phase}_calls"), calls as f64));
        }
        for (kind, name) in KINDS.iter().enumerate() {
            let (busy, calls) = self.by_kind(kind);
            out.push((format!("protocols.msg.{name}_s"), secs(busy)));
            out.push((format!("protocols.msg.{name}_calls"), calls as f64));
        }
        // Root-path traffic (openings, ready, packed deals) has no segment.
        let by_segment = &m.honest_bits_by_root_segment;
        let segment = |i: u32| by_segment.get(&i).copied().unwrap_or(0);
        // On TCP the party threads overlap, so the root span has no
        // meaningful self time; `transport.overhead_cpu_s` stands in.
        let self_s = match self.backend {
            Backend::Simulator => self.engine_self_ns() as f64 / 1e9,
            _ => 0.0,
        };
        let events = m.events_processed as f64;
        let counts: [(&str, u64); 15] = [
            (
                "cireval.values_opened",
                m.values_opened_by_layer.iter().sum(),
            ),
            ("cireval.bits.seg0", segment(0)),
            ("cireval.bits.seg1", segment(1)),
            (
                "cireval.bits.top",
                m.honest_bits - by_segment.values().sum::<u64>(),
            ),
            ("engine.frames", m.frames_sent),
            ("engine.max_queue_depth", m.max_queue_depth),
            ("wire.decode_failures", m.decode_failures),
            ("transport.threads_peak", self.threads_peak),
            ("transport.reconnects", m.reconnects),
            ("transport.dial_retries", m.dial_retries),
            ("transport.frames_replayed", m.frames_replayed),
            ("transport.timeouts_fired", m.timeouts_fired),
            ("transport.late_packets", m.late_packets),
            ("transport.held_packets_peak", m.held_packets_peak),
            ("transport.wedges", m.wedges),
        ];
        out.extend(counts.iter().map(|&(name, v)| (name.to_string(), v as f64)));
        out.extend([
            ("engine.self_s".to_string(), self_s),
            ("engine.events".to_string(), events),
            (
                "engine.events_per_s".to_string(),
                events / secs(self.run_ns),
            ),
            (
                "engine.self_ns_per_event".to_string(),
                self_s * 1e9 / events,
            ),
        ]);
        out
    }

    /// Writes the span tree as JSON lines: `run` (id 0), `party.<i>`
    /// (id 1+i, parent 0), then the phase spans (parent = their party).
    pub fn write_spans(&self, out: &mut impl std::io::Write, run_id: &str) -> std::io::Result<()> {
        // `wall` and `ticks` are `(start, end)`; `busy` is `(busy_ns, self_ns)`.
        let span = |id: usize,
                    parent: Option<usize>,
                    name: &str,
                    wall: (u64, u64),
                    ticks: (Time, Time),
                    busy: (u64, i64),
                    by_kind: Option<&PhaseSpan>| {
            let mut members = vec![
                ("run", Json::from(run_id)),
                ("id", Json::from(id)),
                ("parent", parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(name)),
                ("start_ns", Json::from(wall.0)),
                ("end_ns", Json::from(wall.1)),
                ("tick_start", Json::from(ticks.0)),
                ("tick_end", Json::from(ticks.1)),
                ("busy_ns", Json::from(busy.0)),
                ("self_ns", Json::Num(busy.1 as f64)),
            ];
            if let Some(s) = by_kind {
                let non_zero = |values: &[u64]| {
                    obj(KINDS
                        .iter()
                        .zip(values)
                        .filter(|(_, &v)| v > 0)
                        .map(|(&k, &v)| (k, Json::from(v))))
                };
                members.push(("busy_ns_by_kind", non_zero(&s.busy_ns)));
                members.push(("calls_by_kind", non_zero(&s.calls)));
            }
            obj(members).to_line()
        };
        let run = span(
            0,
            None,
            "run",
            (0, self.run_ns),
            (0, self.run.finished_at),
            (self.run_ns, self.engine_self_ns()),
            None,
        );
        writeln!(out, "{run}")?;
        let mut next_id = 1 + self.parties.len();
        for (i, spans) in self.parties.iter().enumerate() {
            let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
                continue;
            };
            // A party does nothing but run its phases: no self time.
            let busy: u64 = spans.iter().map(PhaseSpan::busy_total).sum();
            let party = span(
                1 + i,
                Some(0),
                &format!("party.{i}"),
                (first.start_ns, last.end_ns),
                (first.tick_start, last.tick_end),
                (busy, 0),
                None,
            );
            writeln!(out, "{party}")?;
            for s in spans {
                let busy = s.busy_total();
                let phase = span(
                    next_id,
                    Some(1 + i),
                    s.phase,
                    (s.start_ns, s.end_ns),
                    (s.tick_start, s.tick_end),
                    (busy, busy as i64),
                    Some(s),
                );
                writeln!(out, "{phase}")?;
                next_id += 1;
            }
        }
        Ok(())
    }
}

/// Runs `spec` once with every party traced.
pub fn run_traced(spec: &Spec, circuit: &Circuit, seed: u64) -> Result<TraceRun, String> {
    let epoch = Instant::now();
    let logs: Vec<PartyLog> = (0..spec.n).map(|_| PartyLog::default()).collect();
    let mut net = wire(spec, circuit, seed, |i, inner| {
        Box::new(Traced {
            inner,
            log: Arc::clone(&logs[i]),
            epoch,
        })
    });
    let stop = AtomicBool::new(false);
    let (result, run_ns, threads_peak) = std::thread::scope(|scope| {
        let sampler = (spec.backend == Backend::Tcp).then(|| {
            scope.spawn(|| {
                let mut peak = 0;
                while !stop.load(Ordering::Relaxed) {
                    peak = peak.max(stats::thread_count());
                    std::thread::sleep(Duration::from_millis(2));
                }
                peak
            })
        });
        let start = epoch.elapsed();
        let result = drive(spec, circuit, net.as_mut());
        let run_ns = (epoch.elapsed() - start).as_nanos() as u64;
        stop.store(true, Ordering::Relaxed);
        let peak = match sampler {
            Some(handle) => handle.join().expect("the thread sampler does not panic"),
            None => stats::thread_count(),
        };
        (result, run_ns, peak)
    });
    drop(net);
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let run = result?;
    spec.check(circuit, seed, &run)?;
    let parties = logs
        .iter()
        .map(|log| std::mem::take(&mut *log.lock().expect("the run is over")))
        .collect();
    Ok(TraceRun {
        backend: spec.backend,
        run,
        run_ns,
        wall_ns,
        parties,
        threads_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{eval, small};

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time_ns(1_000, &[300, 200]), 500);
        assert_eq!(self_time_ns(1_000, &[]), 1_000);
        // Overlapping children (party threads on TCP) can exceed the parent.
        assert_eq!(self_time_ns(1_000, &[800, 700]), -500);
    }

    /// The wrapper and the mirrored wiring perturb nothing: the hand-wired
    /// `Traced` run is the `MpcBuilder` run of the same seed — same output,
    /// input subset, completion tick and `Metrics` fingerprint.
    #[test]
    fn traced_hand_wired_run_equals_the_builder_run() {
        for spec in small::ALL {
            let circuit = spec.circuit();
            for seed in [1, 2] {
                let built = eval(&spec, &circuit, seed)
                    .unwrap_or_else(|e| panic!("{} builder run: {e}", spec.name))
                    .run;
                let traced = run_traced(&spec, &circuit, seed)
                    .unwrap_or_else(|e| panic!("{} traced run: {e}", spec.name));
                assert_eq!(traced.run, built, "{} seed {seed}", spec.name);
                // The trace accounts for the whole run: every party logged,
                // and handlers plus engine self time make up the root span.
                assert!(traced.parties.iter().all(|p| !p.is_empty()));
                assert_eq!(
                    traced.handler_busy_ns() as i64 + traced.engine_self_ns(),
                    traced.run_ns as i64
                );
                assert!(traced.spans().all(|s| PHASES.contains(&s.phase)));
            }
        }
    }

    #[test]
    fn span_file_is_one_well_formed_tree() {
        let spec = small::ALL[0];
        let traced = run_traced(&spec, &spec.circuit(), 1).unwrap();
        let mut bytes = Vec::new();
        traced.write_spans(&mut bytes, "t").unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(spans.len(), 1 + spec.n + traced.spans().count());
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        let ids: Vec<f64> = spans
            .iter()
            .map(|s| s.get("id").unwrap().as_f64().unwrap())
            .collect();
        for s in &spans[1..] {
            let parent = s.get("parent").unwrap().as_f64().unwrap();
            assert!(ids.contains(&parent), "every parent id names a span");
            assert_eq!(s.get("run").unwrap().as_str(), Some("t"));
        }
    }
}
