//! `ledger` — prices a full MPC evaluation end to end and attributes it
//! layer by layer. See `README.md` beside this file for the definitions.
//!
//! ```text
//! ledger                                   timed suite: 5 workloads, each in a child process
//! ledger --trace 1 [--trace-out F]         traced suite: per-layer metrics per workload,
//!                                          then the kernel pass
//! ledger --kernels                         kernel pass only (workload-independent layers)
//! ledger --aa                              timed suite twice, compared against the bounds
//! ledger --workload W --seed N --seconds S --trace 0|1
//!                                          one workload; the result is the last stdout line
//! ledger --workload W --seed N --setup-probe
//!                                          one cold set-up; the timed pass spawns these,
//!                                          because only a fresh process sets up cold
//! ```
//!
//! A closed loop with one client: one evaluation at a time, generated from
//! this thread. It uses only the public API of `mpc-algebra`, `mpc-net`,
//! `mpc-protocols` and `mpc-core`, reads no `MPC_*` knob, and claims no gain.

mod json;
mod kernels;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{obj, Json};
use workloads::{Observed, Spec};

/// The benchmark contract: workload names, metric names, units, directions
/// and bounds all come from this one file.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// A timed pass runs until `--seconds` have elapsed and at least this many
/// evaluations are in, so every median has three samples behind it.
const MIN_REPS: usize = 3;
/// These repeat exactly for a fixed workload and seed; `--aa` holds them to
/// zero drift whatever bound the contract gives them across seeds.
const COUNT_METRICS: [&str; 3] = ["honest_bits", "honest_messages", "completion_ticks"];

const HOST_NOTE: &str = "never compare across hosts; tcp numbers on nproc=2 include \
    oversubscription (the backend spawns about 2n^2+n threads)";
const SAMPLES_NOTE: &str = "timings are median/min/max over `samples` evaluations; no percentile \
    has ten samples beyond it at these counts, so none is reported";

struct MetricDef {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

struct Contract {
    run_seconds: u64,
    workloads: Vec<(String, String)>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

impl Contract {
    fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key}"))
                .to_string()
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing list {key}"))
        };
        let defs = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }

    /// The contract's metric objects for `defs`, valued from `values`.
    fn metrics(defs: &[MetricDef], values: &BTreeMap<String, f64>) -> Json {
        obj(defs.iter().map(|d| {
            let value = *values
                .get(&d.name)
                .unwrap_or_else(|| panic!("no value measured for {}", d.name));
            (
                d.name.as_str(),
                obj([
                    ("value", Json::from(value)),
                    ("unit", Json::from(d.unit.as_str())),
                ]),
            )
        }))
    }

    fn defs_json(defs: &[MetricDef]) -> Json {
        Json::Arr(
            defs.iter()
                .map(|d| {
                    obj([
                        ("name", Json::from(d.name.as_str())),
                        ("unit", Json::from(d.unit.as_str())),
                        ("better", Json::from(d.better.as_str())),
                        ("bound", d.bound.map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        )
    }
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    kernels: bool,
    aa: bool,
    trace_out: Option<String>,
    /// Only set up (in this fresh process) and print how long it took.
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace-out" => args.trace_out = Some(value("a file path")?),
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            "--kernels" => args.kernels = true,
            "--aa" => args.aa = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The product resolves every unset knob from an `MPC_*` variable (the only
/// prefix it reads). The ledger sets every knob, and refuses to start at all
/// when one is present, so two runs can never differ by environment.
fn pinned_environment(vars: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = vars.filter(|k| k.starts_with("MPC_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start with MPC_* knobs in the environment: {}",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv)
        .and_then(|args| {
            pinned_environment(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
                .map(|()| args)
        })
        .and_then(|args| {
            let contract = Contract::load();
            match &args.workload {
                Some(name) => {
                    let spec =
                        workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
                    if args.setup_probe {
                        setup_probe(&spec, args.seed)
                    } else {
                        workload_mode(&contract, &spec, &args)
                    }
                }
                None if args.kernels => kernels_mode(),
                None if args.aa => aa_mode(&contract, &args),
                None => suite_mode(&contract, &args).map(|(report, ok)| {
                    println!("{}", report.to_pretty());
                    ok
                }),
            }
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// Builds the workload's circuit and inputs and runs the cold evaluation;
/// returns it with the seconds all of that took.
fn set_up(spec: &Spec, seed: u64) -> (mpc_core::Circuit, Result<workloads::Eval, String>, f64) {
    let t0 = Instant::now();
    let circuit = spec.circuit();
    let cold = workloads::eval(spec, &circuit, seed);
    (circuit, cold, t0.elapsed().as_secs_f64())
}

/// `--setup-probe`: one set-up in a fresh process, reported on one line.
fn setup_probe(spec: &Spec, seed: u64) -> Result<bool, String> {
    let (_, cold, setup_s) = set_up(spec, seed);
    cold?;
    println!("{}", obj([("setup_s", Json::from(setup_s))]).to_line());
    Ok(true)
}

fn spawn_self(args: &[&str]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the ledger: {e}"))?;
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    if !out.status.success() && lines.is_empty() {
        return Err(format!("child `{}` failed: {}", args.join(" "), out.status));
    }
    Ok(lines)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one attempt; logs and counts a failure.
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("ledger: FAILED {what}: {e}");
                None
            }
        }
    }
}

/// `--workload W`: the contract's entry point. Prints a `detail` line and
/// then, last, the result line.
fn workload_mode(contract: &Contract, spec: &Spec, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut tally = Tally::default();
    let (values, detail, defs) = if args.trace {
        let (values, detail) = traced_pass(spec, args, &mut tally);
        (values, detail, &contract.per_layer)
    } else {
        let (values, detail) = timed_pass(spec, args.seed, seconds, &mut tally);
        (values, detail, &contract.end_to_end)
    };
    println!("{}", obj([("detail", detail)]).to_line());
    let correct = tally.failed == 0;
    // A run with a failure reports no metrics.
    let metrics = if correct {
        Contract::metrics(defs, &values)
    } else {
        Json::Obj(vec![])
    };
    println!(
        "{}",
        obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(tally.attempted)),
            ("failed", Json::from(tally.failed)),
            ("metrics", metrics),
        ])
        .to_line()
    );
    Ok(correct)
}

/// Wall, CPU and completion tick of each of a run of untraced evaluations.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    ticks: Vec<f64>,
}

/// Untraced evaluations back to back, until `seconds` have elapsed and at
/// least `MIN_REPS` are in. Same seed, same work: a rep whose execution
/// fingerprint differs from `reference` is a failed run, not a sample.
fn timed_evals(
    spec: &Spec,
    circuit: &mpc_core::Circuit,
    seed: u64,
    seconds: u64,
    reference: Option<&Observed>,
    tally: &mut Tally,
) -> Samples {
    let mut samples = Samples::default();
    let mut failures = 0;
    let started = Instant::now();
    while samples.wall.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds as f64 {
        let rep = workloads::eval(spec, circuit, seed).and_then(|e| match reference {
            Some(r) if !r.same_execution(&e.run) => {
                Err("the execution fingerprint differs from the first run's".to_string())
            }
            _ => Ok(e),
        });
        match tally.record("timed evaluation", rep) {
            Some(e) => {
                samples.wall.push(e.wall_s);
                samples.cpu.push(e.cpu_s);
                samples.ticks.push(e.run.finished_at as f64);
            }
            None => {
                // A configuration that fails will fail again; do not spin.
                failures += 1;
                if failures >= MIN_REPS {
                    break;
                }
            }
        }
    }
    samples
}

fn summary_json(s: stats::Summary) -> Json {
    obj([
        ("median", Json::from(s.median)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("samples", Json::from(s.samples)),
    ])
}

/// The timed pass, tracing off: set-up (sampled in fresh processes), then
/// evaluations back to back for `seconds`.
fn timed_pass(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> (BTreeMap<String, f64>, Json) {
    // Set-up is sampled in fresh processes: at least one probe child beside
    // this process, and more while they fit in a quarter of `seconds` — so a
    // cheap set-up (TCP: 0.5 s, where one slow thread start shifts a mean of
    // two by 30 %) gets a real median and a 6 s one costs one extra run.
    let mut setup_samples = Vec::new();
    let probing = Instant::now();
    while setup_samples.is_empty() || probing.elapsed().as_secs_f64() < seconds as f64 / 4.0 {
        let probe = spawn_self(&[
            "--setup-probe",
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
        ])
        .and_then(|lines| {
            lines
                .last()
                .and_then(|l| Json::parse(l).ok())
                .and_then(|j| j.get("setup_s").and_then(Json::as_f64))
                .ok_or_else(|| "the set-up probe printed no result".to_string())
        });
        match tally.record("set-up probe", probe) {
            Some(setup_s) => setup_samples.push(setup_s),
            None => break,
        }
    }
    let (circuit, cold, own_setup_s) = set_up(spec, seed);
    setup_samples.push(own_setup_s);
    let reference: Option<Observed> = tally.record("cold evaluation", cold).map(|e| e.run);
    let timed = timed_evals(spec, &circuit, seed, seconds, reference.as_ref(), tally);

    let mut values = BTreeMap::new();
    let mut detail = vec![
        ("workload".to_string(), Json::from(spec.name)),
        ("seed".to_string(), Json::from(seed)),
        ("seconds".to_string(), Json::from(seconds)),
    ];
    if let Some(reference) = reference {
        values.insert(
            "honest_bits".to_string(),
            reference.metrics.honest_bits as f64,
        );
        values.insert(
            "honest_messages".to_string(),
            reference.metrics.honest_messages as f64,
        );
    }
    values.insert("peak_rss_mb".to_string(), stats::peak_rss_mb());
    for (name, samples) in [
        ("eval_wall_s", &timed.wall),
        ("eval_cpu_s", &timed.cpu),
        ("completion_ticks", &timed.ticks),
        ("setup_s", &setup_samples),
    ] {
        if let Some(s) = stats::summarize(samples) {
            values.insert(name.to_string(), s.median);
            detail.push((name.to_string(), summary_json(s)));
        }
    }
    (values, Json::Obj(detail))
}

/// The traced pass of one workload: a cold evaluation, `MIN_REPS` warm
/// untraced ones (their median is the base of the overhead ratio and the TCP
/// side of the transport overhead), one traced evaluation and, for the TCP
/// workload, the same configuration on the simulator, warmed up likewise.
fn traced_pass(spec: &Spec, args: &Args, tally: &mut Tally) -> (BTreeMap<String, f64>, Json) {
    let seed = args.seed;
    let (circuit, cold, _) = set_up(spec, seed);
    let reference = tally.record("cold evaluation", cold).map(|e| e.run);
    let untraced = timed_evals(spec, &circuit, seed, 0, reference.as_ref(), tally);
    let traced = trace::run_traced(spec, &circuit, seed).and_then(|t| match &reference {
        // Transparency at full size: the hand-wired traced run is the
        // builder's run.
        Some(r) if !r.same_execution(&t.run) => {
            Err("the traced run's fingerprint differs from the builder run's".to_string())
        }
        _ => Ok(t),
    });
    let traced = tally.record("traced evaluation", traced);
    let oracle = (spec.backend == mpc_net::Backend::Tcp).then(|| {
        let sim = spec.on_simulator();
        let warm_up = tally
            .record("simulator oracle", workloads::eval(&sim, &circuit, seed))
            .map(|e| e.run);
        timed_evals(&sim, &circuit, seed, 0, warm_up.as_ref(), tally)
    });
    let mut values = BTreeMap::new();
    if let Some(t) = &traced {
        if let Some(path) = &args.trace_out {
            let run_id = format!("{}#{seed}", spec.name);
            if let Err(e) = append_spans(t, path, &run_id) {
                eprintln!("ledger: could not write {path}: {e}");
            }
        }
        values.extend(t.layer_values());
        // What needs a second run to compare with. Off TCP there is no
        // transport under the run: its simulator oracle is the untraced runs
        // themselves, so the overhead reads 0 and the ratio 1.
        let sim = oracle.as_ref().unwrap_or(&untraced);
        let (wall, cpu) = (stats::median(&untraced.wall), stats::median(&untraced.cpu));
        let sim_cpu = stats::median(&sim.cpu);
        values.extend([
            (
                "engine.trace_overhead_ratio".to_string(),
                t.wall_ns as f64 / 1e9 / wall,
            ),
            ("transport.sim_wall_s".to_string(), stats::median(&sim.wall)),
            ("transport.overhead_cpu_s".to_string(), cpu - sim_cpu),
            ("transport.cpu_over_sim".to_string(), cpu / sim_cpu),
        ]);
    }
    let detail = obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(seed)),
        (
            "traced_wall_s",
            traced
                .as_ref()
                .map_or(Json::Null, |t| Json::from(t.wall_ns as f64 / 1e9)),
        ),
        (
            "untraced_wall_s",
            stats::summarize(&untraced.wall).map_or(Json::Null, summary_json),
        ),
    ]);
    (values, detail)
}

fn append_spans(t: &trace::TraceRun, path: &str, run_id: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    t.write_spans(&mut out, run_id)?;
    std::io::Write::flush(&mut out)
}

/// The kernel pass as a report section. Its numbers belong to no workload,
/// so they are not in the contract and carry their own unit and direction.
fn kernels_section() -> Result<Json, String> {
    Ok(obj(kernels::run()?.into_iter().map(|k| {
        (
            k.name,
            obj([
                ("value", Json::from(k.value)),
                ("unit", Json::from(k.unit)),
                ("better", Json::from(k.better)),
            ]),
        )
    })))
}

/// `--kernels`: the kernel pass alone.
fn kernels_mode() -> Result<bool, String> {
    let report = obj([("meta", obj(host())), ("kernels", kernels_section()?)]);
    println!("{}", report.to_pretty());
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a report was measured: results are only comparable within one host.
fn host() -> Vec<(&'static str, Json)> {
    vec![
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("note", Json::from(HOST_NOTE)),
    ]
}

/// The suite: every workload in its own child process (so the process-wide
/// domain caches, `VmHWM` and the heap the TCP backend's threads start in
/// are per workload), assembled into one report; the traced suite adds the
/// kernel pass, once. Returns the report and whether every run of every
/// workload was correct.
fn suite_mode(contract: &Contract, args: &Args) -> Result<(Json, bool), String> {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    if let Some(path) = &args.trace_out {
        std::fs::write(path, "").map_err(|e| format!("{path}: {e}"))?;
    }
    let pass = if args.trace { "traced" } else { "timed" };
    let mut all_ok = true;
    let mut sections = Vec::new();
    for (name, why) in &contract.workloads {
        eprintln!("ledger: {name} ({pass})");
        let (seed, seconds) = (args.seed.to_string(), seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let mut child = vec![
            "--workload",
            name,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--trace",
            trace,
        ];
        if let Some(path) = &args.trace_out {
            child.extend(["--trace-out", path]);
        }
        let lines = spawn_self(&child)?;
        let parsed: Vec<Json> = lines
            .iter()
            .rev()
            .take(2)
            .filter_map(|l| Json::parse(l).ok())
            .collect();
        let result = parsed.first().filter(|r| r.get("correct").is_some());
        let ok = result
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            == Some(true);
        all_ok &= ok;
        let mut section = vec![("why".to_string(), Json::from(why.as_str()))];
        match result {
            Some(r) => section.extend(
                r.members()
                    .expect("a result line is an object")
                    .iter()
                    .cloned(),
            ),
            None => section.push(("correct".to_string(), Json::from(false))),
        }
        if let Some(detail) = parsed.get(1).and_then(|d| d.get("detail")) {
            section.push(("detail".to_string(), detail.clone()));
        }
        sections.push((name.clone(), Json::Obj(section)));
    }
    let mut meta = host();
    meta.extend([
        ("seed", Json::from(args.seed)),
        ("run_seconds", Json::from(seconds)),
        ("min_reps", Json::from(MIN_REPS)),
        ("tick_us", Json::from(workloads::TICK_US)),
        (
            "load",
            Json::from("closed loop, one client, one evaluation at a time"),
        ),
        ("samples_note", Json::from(SAMPLES_NOTE)),
        if args.trace {
            ("per_layer", Contract::defs_json(&contract.per_layer))
        } else {
            ("end_to_end", Contract::defs_json(&contract.end_to_end))
        },
    ]);
    let mut report = vec![
        ("meta", obj(meta)),
        ("pass", Json::from(pass)),
        ("workloads", Json::Obj(sections)),
    ];
    if args.trace {
        report.push(("kernels", kernels_section()?));
    }
    Ok((obj(report), all_ok))
}

fn metric_value(report: &Json, workload: &str, metric: &str) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(first: f64, second: f64, better: &str) -> f64 {
    let change = (second - first) / first;
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// `--aa`: the timed suite twice from one invocation, every end-to-end
/// metric of every workload compared against its bound (counts at zero
/// drift). Same code both times, so any disagreement is the benchmark's own
/// noise exceeding its bounds.
fn aa_mode(contract: &Contract, args: &Args) -> Result<bool, String> {
    let (first, ok_first) = suite_mode(contract, args)?;
    let (second, ok_second) = suite_mode(contract, args)?;
    let mut rows = Vec::new();
    let mut agree = ok_first && ok_second;
    eprintln!(
        "{:<18} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "drift", "bound"
    );
    for (workload, _) in &contract.workloads {
        for def in &contract.end_to_end {
            let a = metric_value(&first, workload, &def.name);
            let b = metric_value(&second, workload, &def.name);
            let bound = if COUNT_METRICS.contains(&def.name.as_str()) {
                0.0
            } else {
                def.bound.unwrap_or(0.0)
            };
            // A/A has no "better" side: drift either way must fit the bound.
            let drift = match (a, b) {
                (Some(a), Some(b)) => Some(worse_by(a, b, &def.better)),
                _ => None,
            };
            let ok = drift.is_some_and(|d| d.abs() <= bound);
            agree &= ok;
            eprintln!(
                "{:<18} {:<18} {:>16} {:>16} {:>8.2}% {:>6.0}%  {}",
                workload,
                def.name,
                a.map_or("-".to_string(), |v| format!("{v:.4}")),
                b.map_or("-".to_string(), |v| format!("{v:.4}")),
                drift.unwrap_or(f64::NAN) * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
            rows.push(obj([
                ("workload", Json::from(workload.as_str())),
                ("metric", Json::from(def.name.as_str())),
                ("first", a.map_or(Json::Null, Json::from)),
                ("second", b.map_or(Json::Null, Json::from)),
                ("drift", drift.map_or(Json::Null, Json::from)),
                ("bound", Json::from(bound)),
                ("ok", Json::from(ok)),
            ]));
        }
    }
    let report = obj([
        ("agree", Json::from(agree)),
        ("comparison", Json::Arr(rows)),
        ("first", first),
        ("second", second),
    ]);
    println!("{}", report.to_pretty());
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_command_line_parses() {
        let a = parse_args(&argv(
            "--workload sync-tcp-n5 --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sync-tcp-n5"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10), false));
        assert!(parse_args(&argv("--workload w --trace 1")).unwrap().trace);
        let b = parse_args(&argv("--trace 1 --trace-out spans.jsonl")).unwrap();
        assert!(b.trace && b.trace_out.as_deref() == Some("spans.jsonl"));
        assert!(parse_args(&argv("--trace")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert_eq!(parse_args(&[]).unwrap().seed, 1);
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn any_mpc_knob_in_the_environment_is_refused() {
        let env = |names: &[&str]| {
            names
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(pinned_environment(env(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
        let err =
            pinned_environment(env(&["PATH", "MPC_THREADS", "MPC_TCP_PROBE_MS"])).unwrap_err();
        assert!(err.contains("MPC_THREADS") && err.contains("MPC_TCP_PROBE_MS"));
    }

    #[test]
    fn drift_is_signed_by_the_metric_direction() {
        assert!((worse_by(2.0, 2.2, "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(2.0, 2.2, "higher") + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(5.0, 5.0, "lower"), 0.0);
    }

    /// The contract file and the code agree: the workloads are the suite in
    /// order, `setup_s` is present, and the per-layer list is exactly what
    /// the traced pass emits.
    #[test]
    fn benchmark_json_matches_what_the_ledger_emits() {
        let contract = Contract::load();
        let names: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let suite: Vec<&str> = workloads::SUITE.iter().map(|s| s.name).collect();
        assert_eq!(names, suite);
        assert!((1..=60).contains(&contract.run_seconds));
        let setup = contract
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let widest = contract
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(contract
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(contract.per_layer.len() <= 128);

        let spec = workloads::small::ALL[0];
        let mut tally = Tally::default();
        let (values, _) = traced_pass(&spec, &parse_args(&[]).unwrap(), &mut tally);
        assert_eq!(tally.failed, 0);
        // Off TCP the run is its own simulator oracle.
        assert_eq!(values["transport.overhead_cpu_s"], 0.0);
        let declared: Vec<&str> = contract.per_layer.iter().map(|d| d.name.as_str()).collect();
        let mut sorted = declared.clone();
        sorted.sort_unstable();
        let emitted: Vec<&str> = values.keys().map(String::as_str).collect();
        assert_eq!(sorted, emitted);
        // Handlers plus engine self time make up the traced run (the
        // acceptance criterion asks for 1 %; by construction it is exact).
        let total = values["cireval.handler_s"] + values["engine.self_s"];
        let phases: f64 = trace::PHASES
            .iter()
            .map(|p| values[&format!("cireval.phase.{p}_s")])
            .sum();
        let kinds: f64 = trace::KINDS
            .iter()
            .map(|k| values[&format!("protocols.msg.{k}_s")])
            .sum();
        assert!((phases - values["cireval.handler_s"]).abs() < 1e-6);
        assert!((kinds - values["cireval.handler_s"]).abs() < 1e-6);
        assert!(total > 0.0);
        // And the result object is well-formed JSON with every declared name.
        let line = Contract::metrics(&contract.per_layer, &values).to_line();
        let parsed = Json::parse(&line).unwrap();
        assert!(declared
            .iter()
            .all(|n| parsed.get(n).and_then(|m| m.get("value")).is_some()));
    }
}
