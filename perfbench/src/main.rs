//! The multival benchmark: the paper's user flows driven through the
//! public functions of the `multival` crates, with every output checked.
//!
//! ```text
//! perfbench --workload verify|evaluate --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it wraps each call into a layer in a span and reports the
//! per-layer metrics, writes the spans as Chrome trace-event JSON to
//! `.bench_out/trace-<workload>-<seed>.json` and prints a per-layer table on
//! stderr. The last line of stdout is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a failed output check
//! makes `correct` false and the exit code 1. See `README.md` next to this
//! package for what each workload and metric means.

mod evaluate;
mod host;
mod stats;
mod trace;
mod verify;

use multival_svc::json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where trace files go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// Settings shared by every workload.
pub struct Ctx {
    /// Workload seed: picks every generated input.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (flows, sweep points or jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, errored or gave a wrong
    /// output.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation; a failed check is recorded as a problem.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit: unit.to_owned() });
    }
}

/// Timings of a batch workload (`verify`, `evaluate`).
#[derive(Default)]
pub struct Batch {
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Each pass's wall time, s.
    pub pass_s: Vec<f64>,
}

impl Batch {
    /// The end-to-end metrics of a batch workload, medians over set-ups
    /// and passes.
    pub fn end_to_end(&self, report: &mut Report) {
        report.metric("setup_s", stats::median(&self.setup_s), "s");
        report.metric("wall_s", stats::median(&self.pass_s), "s");
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        eprintln!("samples: {} set-ups, {} passes", self.setup_s.len(), self.pass_s.len());
    }

    /// Runs a set-up and records its duration. A batch workload sets up
    /// once before its first pass and again after every pass, so the
    /// set-up samples span the run as the pass samples do, and their
    /// median sees the same machine.
    pub fn setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let prepared = setup();
        self.setup_s.push(t.elapsed().as_secs_f64());
        prepared
    }
}

/// Calls `pass` with 0, 1, 2, … until `budget` has elapsed and at least
/// `min_passes` ran.
pub fn for_duration(budget: Duration, min_passes: usize, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_passes || start.elapsed() < budget {
        pass(i);
        i += 1;
    }
}

/// Per-layer epilogue shared by the traced runs: coverage and overhead,
/// the layer table on stderr, and the Chrome trace file.
pub fn finish_trace(
    report: &mut Report,
    workload: &str,
    seed: u64,
    root: &str,
    overhead: f64,
    stamp: &Json,
) {
    let summary = trace::Summary::new(trace::spans());
    report.metric("trace.coverage", summary.coverage(root), "ratio");
    report.metric("trace.overhead", overhead, "ratio");
    eprintln!("per-layer self time inside `{root}` spans:\n{}", summary.layer_table(root));
    let path = format!("{OUT_DIR}/trace-{workload}-{seed}.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, summary.chrome_json(stamp.clone())));
    match written {
        Ok(()) => eprintln!("trace written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload verify|evaluate --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

/// Puts the report's metrics in the order and with the units
/// `BENCHMARK.json` declares: `end_to_end` for untraced runs, `per_layer`
/// for traced ones. A per-layer metric of a layer this workload never
/// enters reads 0; a declared end-to-end metric must be measured, and an
/// undeclared metric is an error.
fn declared_metrics(mut report: Report, traced: bool) -> Result<Report, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = multival_svc::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let declared = spec
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    let mut measured = std::mem::take(&mut report.metrics);
    for entry in declared {
        let name = entry.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
        let unit = entry.get("unit").and_then(Json::as_str).ok_or("metric without a unit")?;
        let value = match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.swap_remove(i);
                if m.unit != unit {
                    return Err(format!("{name}: measured in {}, declared in {unit}", m.unit));
                }
                m.value
            }
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        report.metric(name, value, unit);
    }
    if let Some(m) = measured.first() {
        return Err(format!("{} is not declared under `{key}` in BENCHMARK.json", m.name));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx =
        Ctx { seed: args.seed, seconds: Duration::from_secs(args.seconds), trace: args.trace };
    let stamp = host::stamp(&args.workload, args.seed, args.trace);
    println!("host {stamp}");
    let report = match args.workload.as_str() {
        "verify" => verify::run(&ctx, &stamp),
        "evaluate" => evaluate::run(&ctx, &stamp),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("workload {} could not run: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let report = match declared_metrics(report, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { Json::num(m.value) } else { Json::Null };
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".to_owned(), value),
                    ("unit".to_owned(), Json::str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::num(report.attempted as f64)),
        ("failed".to_owned(), Json::num(report.failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
