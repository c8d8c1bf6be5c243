//! The `evaluate` workload: the paper's §4 design-space flow.
//!
//! Each pass runs `svc::sweep::run_explore_space` in-process, with the CLI
//! default of 2 workers and a cold cache, over a fixed xSTream spec whose
//! base rates are perturbed a little by the seed, and then over the
//! committed `tests/data/sweep_xstream.toml`.
//!
//! Checks: the committed spec reproduces `sweep_xstream_report.txt` byte
//! for byte; every point succeeds; each `max` endpoint equals its `uniform`
//! twin; the sparse steady-state solver agrees with
//! `ctmc::dense::steady_state_dense` to 1e-9 on the small points; and the
//! traced run's layer-by-layer replica reproduces the engine's numbers.
//!
//! The replica (`replica` below) is a copy of the path
//! `JobRequest::evaluate` takes for a sweep point (`evaluate_sweep` and
//! `analyze_with_delays`), split at each layer call so the calls can be
//! timed. It must be edited together with those two functions. So that a
//! change to them cannot go unnoticed, the traced run also times the real
//! `JobRequest::evaluate` on the same points and fails when the replica's
//! time is off by more than [`REPLICA_TOLERANCE`].

use crate::stats::{median, SplitMix};
use crate::trace::{self, count, timed};
use crate::{for_duration, Batch, Ctx, Report};
use multival::ctmc::dense::steady_state_dense;
use multival::ctmc::phfit;
use multival::ctmc::steady::{steady_state, SolveOptions};
use multival::imc::decorate::decorate_by_label_with_map;
use multival::imc::to_ctmc::probe_throughputs;
use multival::imc::{to_ctmc, CtmcConversion, Delay, NondetPolicy};
use multival::models::xstream::perf::{explore_pipeline, PerfConfig};
use multival::par::Workers;
use multival::Flow;
use multival_svc::json::Json;
use multival_svc::request::{SweepDelay, SweepParams, SweepScheduler};
use multival_svc::sweep::SweepPointSpec;
use multival_svc::{run_explore_space, SweepOptions, SweepSpec};
use std::time::Instant;

/// Evaluation workers for the sweep (the `explore-space` default).
const WORKERS: usize = 2;

/// Points with at most this many CTMC states are also solved densely.
const DENSE_MAX_STATES: usize = 100;

/// Largest factor by which an untraced replica pass may be slower or
/// faster than the real evaluation of the same points before the replica
/// counts as drifted from the program (dropping one of the two steady
/// solves per point would make the real evaluation about twice as fast).
const REPLICA_TOLERANCE: f64 = 1.5;

/// The probes the pipeline's CTMC conversion declares.
const PROBES: [&str; 4] = ["push", "xfer", "pop", "credit"];

/// The design-space spec. The delay axis spans the accuracy-vs-size knob,
/// the scheduler axis takes each point down both solver paths (steady
/// state, or CTMDP value iteration), and the producer-rate axis doubles
/// every size class so that no single point dominates a pass.
fn design_space(seed: u64) -> String {
    let mut rng = SplitMix::new(seed, 0x6576_616c);
    let mut jitter = |x: f64| x * (1.0 + 0.01 * (2.0 * rng.unit() - 1.0));
    let (slow, fast) = (jitter(0.9), jitter(1.1));
    let (consumer, credit) = (jitter(2.0), jitter(8.0));
    format!(
        "name = \"bench_design_space\"\n\
         model = \"xstream_pipeline\"\n\
         \n\
         [base]\n\
         pop_capacity = 2\n\
         consumer_rate = {consumer}\n\
         credit_rate = {credit}\n\
         \n\
         [axes]\n\
         delay = [\"exponential\", \"erlang:8\", \"det:0.3\", \"det:0.25\"]\n\
         producer_rate = [{slow}, {fast}]\n\
         push_capacity = [2, 3]\n\
         scheduler = [\"uniform\", \"max\"]\n"
    )
}

struct Inputs {
    spec: SweepSpec,
    points: Vec<SweepPointSpec>,
    committed: SweepSpec,
    committed_report: String,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let spec = SweepSpec::parse(&design_space(seed))?;
    let points = spec.points(None)?;
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let committed = SweepSpec::parse(&read("tests/data/sweep_xstream.toml")?)?;
    Ok(Inputs {
        spec,
        points,
        committed,
        committed_report: read("tests/data/sweep_xstream_report.txt")?,
    })
}

fn options(workers: usize) -> SweepOptions {
    SweepOptions { workers, ..SweepOptions::default() }
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_num).ok_or_else(|| format!("result has no `{key}`"))
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Checks one sweep pass: every point succeeded, and each `max` point's
/// throughput equals its `uniform` twin's.
fn check_sweep(points: &[SweepPointSpec], run: &multival_svc::SweepRun, report: &mut Report) {
    for (i, (spec, point)) in points.iter().zip(&run.points).enumerate() {
        let outcome = point.outcome.as_ref().map_err(Clone::clone).and_then(|result| {
            let p = spec.request.sweep.as_ref().ok_or("not a sweep point")?;
            if p.scheduler != SweepScheduler::Max {
                return Ok(());
            }
            let twin = points
                .iter()
                .zip(&run.points)
                .take(i)
                .rev()
                .find(|(s, _)| {
                    s.request.sweep.as_ref().is_some_and(|q| {
                        q.scheduler == SweepScheduler::Uniform
                            && SweepParams { scheduler: SweepScheduler::Max, ..q.clone() } == *p
                    })
                })
                .ok_or("no uniform twin")?;
            let uniform = twin.1.outcome.as_ref().map_err(Clone::clone)?;
            let (a, b) = (num(result, "throughput")?, num(uniform, "throughput")?);
            if relative_gap(a, b) > 1e-6 {
                return Err(format!("max throughput {a} != uniform {b}"));
            }
            Ok(())
        });
        report.op(outcome.map_err(|e| format!("{}: {e}", spec.label)));
    }
}

/// A sweep point resolved the way the sweep job resolves it.
struct Resolved {
    config: PerfConfig,
    /// The transfer delay: exponential, Erlang, or the fitted Erlang.
    xfer: Delay,
    fit_k: usize,
}

impl Resolved {
    /// The delay of each pipeline stage label.
    fn delay_of(&self, label: &str) -> Option<Delay> {
        match label {
            "push" => Some(Delay::Exponential { rate: self.config.producer_rate }),
            "xfer" => Some(self.xfer.clone()),
            "pop" => Some(Delay::Exponential { rate: self.config.consumer_rate }),
            "credit" => Some(Delay::Exponential { rate: self.config.credit_rate }),
            _ => None,
        }
    }
}

/// Resolves a point's configuration and transfer delay (fitting a
/// deterministic delay through `ctmc::phfit`, or measuring an Erlang
/// delay's accuracy, as the sweep job does).
fn resolve(p: &SweepParams, flow: u64) -> Result<Resolved, String> {
    let config = PerfConfig {
        push_capacity: p.push_capacity,
        pop_capacity: p.pop_capacity,
        producer_rate: p.producer_rate,
        transfer_rate: p.transfer_rate,
        consumer_rate: p.consumer_rate,
        credit_rate: p.credit_rate,
    };
    let mean = 1.0 / p.transfer_rate;
    let _fit = trace::span("ctmc.phfit", flow);
    let accuracy =
        |k| phfit::sup_error_vs_step(k, mean, phfit::DEFAULT_JUMP_WINDOW, phfit::DEFAULT_SAMPLES);
    let (xfer, fit_k) = match p.delay {
        SweepDelay::Exponential => {
            std::hint::black_box(accuracy(1));
            (Delay::Exponential { rate: p.transfer_rate }, 1)
        }
        SweepDelay::Erlang { k } => {
            std::hint::black_box(accuracy(k as usize));
            (Delay::fixed(mean, k), k as usize)
        }
        SweepDelay::Deterministic { tol } => {
            let fit = phfit::fit_deterministic(mean, tol, &phfit::FitOptions::default())
                .map_err(|e| e.to_string())?;
            (Delay::Erlang { phases: fit.k as u32, rate: fit.rate }, fit.k)
        }
    };
    Ok(Resolved { config, xfer, fit_k })
}

/// Builds, decorates and converts a resolved point to its CTMC.
fn conversion(point: &Resolved, flow: u64) -> Result<CtmcConversion, String> {
    let explored = timed("models.build", flow, || explore_pipeline(&point.config))
        .map_err(|e| e.to_string())?;
    let (imc, _) = timed("imc.decorate", flow, || {
        decorate_by_label_with_map(&explored.lts, |l| point.delay_of(l))
    });
    count("imc.states", imc.num_states() as f64);
    let conv = timed("imc.to_ctmc", flow, || to_ctmc(&imc, NondetPolicy::Reject, &PROBES))
        .map_err(|e| e.to_string())?;
    count("ctmc.states", conv.ctmc.num_states() as f64);
    Ok(conv)
}

/// What the layer-by-layer replica of a sweep point computes.
struct Replica {
    throughput: f64,
    ctmc_states: usize,
    fit_k: usize,
}

/// Evaluates one point layer by layer, each call in its own span, along
/// the path the sweep job takes: phase-type fit, model build, decoration,
/// CTMC conversion, steady state and probe throughputs; `min`/`max` points
/// also go through the lifted CTMDP and value iteration.
fn replica(p: &SweepParams, flow: u64) -> Result<Replica, String> {
    let _point = trace::span("bench.point", flow);
    let point = resolve(p, flow)?;
    let conv = conversion(&point, flow)?;
    let pi = timed("ctmc.steady", flow, || steady_state(&conv.ctmc, &SolveOptions::default()))
        .map_err(|e| e.to_string())?;
    std::hint::black_box(pi);
    let tp =
        timed("imc.probe_throughputs", flow, || probe_throughputs(&conv, &SolveOptions::default()))
            .map_err(|e| e.to_string())?;
    let throughput = match p.scheduler {
        SweepScheduler::Uniform => tp.iter().find(|(l, _)| l == "pop").map_or(0.0, |&(_, t)| t),
        SweepScheduler::Min | SweepScheduler::Max => {
            let lts = timed("models.build", flow, || explore_pipeline(&point.config))
                .map_err(|e| e.to_string())?
                .lts;
            let perf = timed("imc.decorate", flow, || {
                Flow::from_lts(lts).with_delays_by_label(|l| point.delay_of(l))
            });
            let bounds = timed("imc.to_ctmdp", flow, || perf.solve_bounds(&["pop"]))
                .map_err(|e| e.to_string())?;
            let tb = timed("ctmc.mdp", flow, || bounds.throughput_bounds())
                .map_err(|e| e.to_string())?;
            let interval =
                tb.iter().find(|(l, _)| l == "pop").map(|&(_, i)| i).ok_or("no `pop` bound")?;
            if p.scheduler == SweepScheduler::Min {
                interval.min
            } else {
                interval.max
            }
        }
    };
    Ok(Replica { throughput, ctmc_states: conv.ctmc.num_states(), fit_k: point.fit_k })
}

/// The replica must reproduce the engine's result for the same point.
fn check_replica(point: &SweepPointSpec, result: &Json, flow: u64) -> Result<(), String> {
    let p = point.request.sweep.as_ref().ok_or("not a sweep point")?;
    let r = replica(p, flow)?;
    let same = num(result, "ctmc_states")? == r.ctmc_states as f64
        && num(result, "fit_k")? == r.fit_k as f64
        && num(result, "throughput")? == r.throughput;
    if same {
        Ok(())
    } else {
        Err(format!("{}: layer replica disagrees with the sweep job", point.label))
    }
}

/// The sparse and dense steady-state solvers agree to 1e-9 on the small
/// points; returns whether the point was small enough to check.
fn check_dense_point(point: &SweepPointSpec) -> Result<bool, String> {
    let p = point.request.sweep.as_ref().ok_or("not a sweep point")?;
    let conv = conversion(&resolve(p, 0)?, 0)?;
    if conv.ctmc.num_states() > DENSE_MAX_STATES {
        return Ok(false);
    }
    let sparse = steady_state(&conv.ctmc, &SolveOptions::default()).map_err(|e| e.to_string())?;
    let dense =
        steady_state_dense(&conv.ctmc, &SolveOptions::default()).map_err(|e| e.to_string())?;
    let gap = sparse.iter().zip(&dense).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    if gap > 1e-9 {
        return Err(format!("{}: sparse and dense steady states differ by {gap:e}", point.label));
    }
    Ok(true)
}

/// Runs the dense cross-check on every point; at least one point must be
/// small enough for it.
fn check_dense(points: &[SweepPointSpec], report: &mut Report) {
    let mut checked = 0;
    for point in points {
        match check_dense_point(point) {
            Ok(small) => checked += usize::from(small),
            Err(e) => report.op(Err(e)),
        }
    }
    if checked == 0 {
        report.op(Err("no point was small enough for the dense check".to_owned()));
    }
}

/// One pass: the design-space sweep and the committed sweep, timed
/// together; the committed report is checked afterwards.
fn pass(inputs: &Inputs, batch: &mut Batch, report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let run = run_explore_space(&inputs.spec, &options(WORKERS))?;
    let committed = run_explore_space(&inputs.committed, &options(WORKERS))?;
    batch.pass_s.push(start.elapsed().as_secs_f64());
    check_sweep(&inputs.points, &run, report);
    let rendered = committed.report().render();
    report.op(if rendered == inputs.committed_report {
        Ok(())
    } else {
        Err("committed sweep report differs from tests/data/sweep_xstream_report.txt".to_owned())
    });
    Ok(())
}

/// Evaluates every point alone, one after another; returns each time in
/// ms.
fn alone(points: &[SweepPointSpec]) -> Vec<f64> {
    points
        .iter()
        .map(|p| {
            let t = Instant::now();
            let _ = std::hint::black_box(p.request.evaluate(Workers::sequential()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

pub fn run(ctx: &Ctx, stamp: &Json) -> Result<Report, String> {
    let mut report = Report::default();
    let mut batch = Batch::default();
    // Set-up is everything before the first timed pass: parsing and
    // expanding the specs and reading the golden report.
    let inputs = batch.setup(|| setup(ctx.seed))?;

    if !ctx.trace {
        let mut failure = None;
        for_duration(ctx.seconds, 3, |_| {
            if let Err(e) = pass(&inputs, &mut batch, &mut report) {
                failure = Some(e);
            }
            let _ = std::hint::black_box(batch.setup(|| setup(ctx.seed)));
        });
        if let Some(e) = failure {
            report.op(Err(e));
        }
        check_dense(&inputs.points, &mut report);
        batch.end_to_end(&mut report);
        return Ok(report);
    }

    // Traced run: the replica evaluates each point layer by layer; passes
    // alternate between recording off and on. After each untraced pass the
    // real evaluation of the same points is timed: the engine's own
    // overhead is the 1-worker sweep's wall minus that time, and the
    // untraced replica pass must take about as long as it.
    let sweep = run_explore_space(&inputs.spec, &options(1))?;
    check_sweep(&inputs.points, &sweep, &mut report);
    let (mut untraced, mut traced, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut evaluated = Vec::new();
    let mut k_max = 0;
    for_duration(ctx.seconds, 4, |i| {
        let on = i % 2 == 1;
        trace::enable(on);
        let start = Instant::now();
        {
            let _pass = trace::span("bench.pass", 0);
            for (flow, (point, result)) in inputs.points.iter().zip(&sweep.points).enumerate() {
                let outcome = result.outcome.as_ref().map_err(Clone::clone);
                report.op(outcome.and_then(|r| check_replica(point, r, flow as u64 + 1)));
            }
        }
        let wall = start.elapsed().as_secs_f64();
        trace::enable(false);
        if on {
            traced.push(wall);
        } else {
            untraced.push(wall);
            let t = Instant::now();
            let engine = run_explore_space(&inputs.spec, &options(1));
            let engine_ms = t.elapsed().as_secs_f64() * 1e3;
            let evaluate_ms: f64 = alone(&inputs.points).iter().sum();
            evaluated.push(evaluate_ms / 1e3);
            if engine.is_ok() {
                overhead.push(engine_ms - evaluate_ms);
            }
        }
    });
    for point in &sweep.points {
        if let Ok(r) = &point.outcome {
            k_max = k_max.max(num(r, "fit_k").unwrap_or(0.0) as usize);
        }
    }
    check_dense(&inputs.points, &mut report);
    let replica_over_job = median(&untraced) / median(&evaluated);
    report.op(if (1.0 / REPLICA_TOLERANCE..=REPLICA_TOLERANCE).contains(&replica_over_job) {
        Ok(())
    } else {
        Err(format!(
            "the layer replica takes {replica_over_job:.2}x the time of JobRequest::evaluate \
             on the same points: it no longer follows the program's path"
        ))
    });
    let summary = trace::Summary::new(trace::spans());
    let passes = traced.len() as f64;
    let per_pass = |name: &str| summary.total_ms(name) / passes;
    report.metric("ctmc.phfit_ms", per_pass("ctmc.phfit"), "ms");
    report.metric("ctmc.phfit_k_max", k_max as f64, "count");
    report.metric("models.build_ms", per_pass("models.build"), "ms");
    report.metric("imc.decorate_ms", per_pass("imc.decorate"), "ms");
    report.metric("imc.states", trace::counter("imc.states") / passes, "count");
    report.metric("imc.to_ctmc_ms", per_pass("imc.to_ctmc"), "ms");
    report.metric("imc.to_ctmdp_ms", per_pass("imc.to_ctmdp"), "ms");
    report.metric("imc.probe_throughputs_ms", per_pass("imc.probe_throughputs"), "ms");
    report.metric("ctmc.states", trace::counter("ctmc.states") / passes, "count");
    report.metric("ctmc.steady_ms", per_pass("ctmc.steady"), "ms");
    // probe_throughputs solves the steady state once more inside.
    let steady_calls = summary.calls("ctmc.steady") + summary.calls("imc.probe_throughputs");
    report.metric("ctmc.steady_calls", steady_calls as f64 / passes, "count");
    report.metric(
        "ctmc.steady_us_per_state",
        summary.total_ms("ctmc.steady") * 1e3 / trace::counter("ctmc.states"),
        "us",
    );
    report.metric("ctmc.mdp_ms", per_pass("ctmc.mdp"), "ms");
    report.metric("svc.engine_overhead_ms", median(&overhead), "ms");
    report.metric("trace.replica_drift", (replica_over_job - 1.0).abs(), "ratio");
    let overhead_ratio = median(&traced) / median(&untraced) - 1.0;
    crate::finish_trace(&mut report, "evaluate", ctx.seed, "bench.pass", overhead_ratio, stamp);
    Ok(report)
}
