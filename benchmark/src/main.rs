//! coMtainer end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! comt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE] [--spans FILE]
//! comt-benchmark [--seed <n>] [--seconds <s>] [--out FILE]      every workload, untraced then traced
//! comt-benchmark compare <a.jsonl> <b.jsonl>
//! ```

mod inputs;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use metrics::{Def, END_TO_END, PER_LAYER};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace::{Analysis, Tracer};
use workloads::{FleetPull, PaperWorkflow, SiteRebuild, UpdateCycle};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Driver threads of the multi-client workload: `min(nproc, 4)`.
const MAX_THREADS: usize = 4;

const WORKLOADS: [&str; 4] = [
    PaperWorkflow::NAME,
    FleetPull::NAME,
    SiteRebuild::NAME,
    UpdateCycle::NAME,
];

/// Operations whose outcome was checked, and how many were wrong.
#[derive(Default)]
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checks {
    pub fn that(&self, ok: bool, what: &str) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// What one run of one workload shares between its parts.
pub struct Env {
    pub seed: u64,
    pub threads: usize,
    pub trace: bool,
    pub tracer: Tracer,
    pub checks: Checks,
    tmp: PathBuf,
    dirs: AtomicU64,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    /// What the crates' instrumentation counted during the benchmark's
    /// own checks, to be left out of the per-layer numbers.
    excluded: Mutex<comt_observe::Report>,
}

impl Env {
    /// Run correctness checks: outside every phase, and outside what
    /// `probes::observed` reads from the crates' counters.
    pub fn check_block(&self, f: impl FnOnce()) {
        self.tracer.call("bench.check", || {
            let before = self.trace.then(|| comt_observe::global().report());
            f();
            if let Some(before) = before {
                let during = probes::report_diff(&comt_observe::global().report(), &before);
                self.excluded
                    .lock()
                    .expect("excluded lock poisoned")
                    .absorb(&during);
            }
        })
    }

    pub fn excluded(&self) -> comt_observe::Report {
        self.excluded
            .lock()
            .expect("excluded lock poisoned")
            .clone()
    }

    /// A fresh directory under the run's temporary directory.
    pub fn fresh_dir(&self, stem: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        let dir = self.tmp.join(format!("{stem}-{n}"));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Add one sample of a metric; the reported value is the median.
    pub fn record(&self, name: &'static str, value: f64) {
        self.samples
            .lock()
            .expect("samples lock poisoned")
            .entry(name)
            .or_default()
            .push(value);
    }

    pub fn record_all(&self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.record(name, v);
        }
    }
}

/// Removes the run's temporary directory, also when a workload panics.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if this was the last run in it
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// No median is taken over fewer iterations than this.
    const MIN_ITERS: u32;
    /// The fixed sizes, for the header of the output.
    fn sizes() -> String;
    fn setup(env: &Env) -> Self;
    fn iteration(&mut self, env: &Env, it: u32);
    /// Derive the workload's own metrics from the spans; on a traced run
    /// also run the per-layer probes.
    fn report(&mut self, env: &Env, spans: &Analysis);
    fn teardown(self) {}
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn drive<W: Workload>(env: &Env, seconds: f64) -> u32 {
    let mut state: Option<W> = None;
    for _ in 0..SETUPS {
        if let Some(old) = state.take() {
            old.teardown();
        }
        let t = Instant::now();
        state = Some(W::setup(env));
        env.record("setup_s", t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set up at least once");

    comt_observe::global().reset();
    let started = Instant::now();
    let mut iters = 0u32;
    while iters < W::MIN_ITERS || started.elapsed().as_secs_f64() < seconds {
        // A traced run alternates traced and untraced iterations, so the
        // cost of tracing is measured inside the run.
        let traced = env.trace && iters.is_multiple_of(2);
        env.tracer
            .iteration(iters, traced, || state.iteration(env, iters));
        iters += 1;
    }
    env.record("peak_rss_mib", peak_rss_mib());

    let spans = Analysis::new(env.tracer.spans());
    env.record_all("iteration_s", spans.phase_secs(&[]));
    env.record_all("cpu_s", spans.phase_cpu());
    state.report(env, &spans);
    if env.trace {
        let budget = spans.budget();
        for (layer, name) in [
            ("buildsys", "share.buildsys"),
            ("core", "share.core"),
            ("oci", "share.oci"),
            ("dist", "share.dist"),
            ("bench", "share.bench"),
            ("unattributed", "bench.unattributed_share"),
        ] {
            env.record(name, budget.get(layer).copied().unwrap_or(0.0));
        }
        let (on, off) = (spans.iter_walls(true), spans.iter_walls(false));
        if !on.is_empty() && !off.is_empty() {
            env.record(
                "bench.trace_overhead_share",
                stats::median(&on) / stats::median(&off) - 1.0,
            );
        }
    }
    state.teardown();
    iters
}

fn metric_rows(defs: &[Def], samples: &BTreeMap<&'static str, Vec<f64>>) -> Vec<(String, Value)> {
    println!(
        "{:<28} {:>7} {:>4} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    let mut rows = Vec::new();
    for def in defs {
        let v = samples.get(def.name).map_or(&[][..], Vec::as_slice);
        let (q1, med, q3) = stats::quartiles(v);
        println!(
            "{:<28} {:>7} {:>4} {:>14.6} {:>14.6} {:>14.6}",
            def.name,
            def.unit,
            v.len(),
            med,
            q1,
            q3
        );
        rows.push((
            def.name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Float(med)),
                ("unit".to_string(), Value::Str(def.unit.to_string())),
            ]),
        ));
    }
    rows
}

/// The vendored `Serialize` converts to a `Value`; a hand-built one
/// passes through.
struct Json(Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn to_json(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("a Value serializes")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => a.out = Some(value.clone()),
            "--spans" => a.spans = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One workload, one pass. The last line of standard output is the result.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _guard = TmpGuard(tmp.clone());
    let env = Env {
        seed: args.seed,
        threads: nproc.min(MAX_THREADS),
        trace: args.trace,
        tracer: Tracer::new(),
        checks: Checks::default(),
        tmp,
        dirs: AtomicU64::new(0),
        samples: Mutex::new(BTreeMap::new()),
        excluded: Mutex::default(),
    };
    let (sizes, run): (String, fn(&Env, f64) -> u32) = match name {
        PaperWorkflow::NAME => (PaperWorkflow::sizes(), drive::<PaperWorkflow>),
        FleetPull::NAME => (FleetPull::sizes(), drive::<FleetPull>),
        SiteRebuild::NAME => (SiteRebuild::sizes(), drive::<SiteRebuild>),
        UpdateCycle::NAME => (UpdateCycle::sizes(), drive::<UpdateCycle>),
        other => {
            return Err(format!(
                "unknown workload {other}; known: {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    println!(
        "== {name}: seed {} | {} s floor | trace {} | nproc {nproc} | driver threads {} | closed loop",
        args.seed, args.seconds, args.trace as u8, env.threads
    );
    println!(
        "   transport: loopback TCP | disk: {} | set-ups per run: {SETUPS}",
        env.tmp.display()
    );
    println!("   sizes: {sizes}");
    let iters = run(&env, args.seconds);

    let attempted = env.checks.attempted.load(Ordering::Relaxed);
    let failed = env.checks.failed.load(Ordering::Relaxed);
    env.record("fail_share", failed as f64 / attempted.max(1) as f64);
    println!("   iterations: {iters} | checked operations: {attempted} | failed: {failed}\n");

    let samples = env.samples.lock().expect("samples lock poisoned");
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let rows = metric_rows(defs, &samples);
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::Int(attempted.max(1) as i64)),
        ("failed".to_string(), Value::Int(failed as i64)),
        ("metrics".to_string(), Value::Object(rows)),
    ]);
    if let Some(path) = &args.spans {
        let spans = Analysis::new(env.tracer.spans()).to_json_lines();
        std::fs::write(path, spans).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        let line = Value::Object(vec![
            ("workload".to_string(), Value::Str(name.to_string())),
            ("seed".to_string(), Value::Int(args.seed as i64)),
            ("trace".to_string(), Value::Int(args.trace as i64)),
            ("result".to_string(), result.clone()),
        ]);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", to_json(line)).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", to_json(result));
    Ok(failed == 0)
}

/// Every workload, untraced then traced, each pass in a process of its
/// own so that peak memory is the workload's and not its predecessor's.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(out) = &args.out {
                cmd.args(["--out", out]);
            }
            ok &= cmd.status().map_err(|e| e.to_string())?.success();
            println!();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => stats::compare(a, b),
            _ => Err("usage: compare <a.jsonl> <b.jsonl>".to_string()),
        }
    } else {
        parse_args(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args),
            None => run_all(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("comt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
