//! The `verify` workload: the paper's §3 functional-verification flow.
//!
//! Each model goes `pa::parse_spec` → `pa::explore` (1 worker, the CLI
//! default) → `lts::minimize` (branching) → `mcl::check` of deadlock
//! freedom. The FAUST bit-complement source goes `pa::extract_network` →
//! `lts::pipeline::run_pipeline` (smart order). The seeded xMAS fabrics do
//! both: their rendered source is explored and their compiled network is
//! reduced.
//!
//! Every output is checked against the committed goldens after the timed
//! pass: the `xmas_fab_*.aut.sha256` digests, the FAUST digest and stage
//! file, the mesh's state and transition counts, and for each seeded fabric
//! the agreement of the pipeline, the monolithic product and the explored
//! quotient. The FAUST monolithic product is not rebuilt: its size is read
//! from the stage file, which the repository's golden tests check against
//! `lts::pipeline::monolithic`.

use crate::stats::SplitMix;
use crate::trace::{self, count, timed};
use crate::{for_duration, Batch, Ctx, Report};
use multival::lts::io::write_aut;
use multival::lts::minimize::{minimize, Equivalence};
use multival::lts::pipeline::{canonicalize, monolithic, run_pipeline, Network, PipelineOptions};
use multival::lts::{Lts, Workers};
use multival::models::faust::noc::complement_source;
use multival::models::xmas::{compile_network, generate, render_lot, GenConfig, RenderOptions};
use multival::pa::{explore, extract_network, parse_spec, ExploreOptions};
use multival_integration::sha256_hex;
use multival_svc::json::Json;
use std::fmt::Write as _;
use std::time::Instant;

/// Committed models with their pinned explored sizes, where no digest is
/// committed: (file stem, states, transitions). The mesh count is the one
/// README and DESIGN quote; the other two were measured on the seed.
const COUNTED: [(&str, usize, usize); 3] =
    [("mesh_3x3", 1555, 3368), ("contended_fabric", 6, 7), ("reduce_chain", 16, 28)];

/// The committed xMAS fixture fabrics, checked against their digests.
const FIXTURE_FABRICS: [u64; 8] = [3, 11, 25, 29, 42, 47, 54, 60];

/// Seeded fabrics per pass, drawn from the workload seed.
const SEEDED_FABRICS: usize = 4;

/// Largest product of component sizes a seeded fabric may have, so the
/// seed changes which fabrics run but not how much work a pass is.
const SEEDED_MAX_PRODUCT: usize = 64;

/// Candidate fabrics generated per set-up; the first [`SEEDED_FABRICS`]
/// small enough are kept. Every candidate is generated and compiled, so
/// set-up does the same work whatever the seed. About one candidate in
/// three is small enough; seeds 0–1999 never needed more than 35.
const SEEDED_CANDIDATES: usize = 48;

enum Golden {
    /// Explored state and transition counts.
    Counts(usize, usize),
    /// Committed `sha256` line of the canonical minimized `.aut`.
    Digest(String),
    /// FAUST: digest and stage file of the reduction.
    Reduction { digest: String, stages: String },
    /// Seeded fabric: the three compile/explore paths must agree.
    Agree,
}

enum Kind {
    /// parse → explore → minimize → check.
    Explore,
    /// parse → extract_network → run_pipeline.
    Reduce,
    /// Explore the rendered source, and reduce the compiled network.
    Fabric(Network),
}

struct Job {
    name: String,
    source: String,
    kind: Kind,
    golden: Golden,
}

#[derive(Default)]
struct Output {
    explored: Option<(usize, usize)>,
    minimized: Option<Lts>,
    deadlock_free: Option<bool>,
    reduced: Option<multival::lts::pipeline::PipelineRun>,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The monolithic product's (states, transitions) as the stage file
/// records them.
fn product_counts(stages: &str) -> Result<(usize, usize), String> {
    let line = stages
        .lines()
        .find_map(|l| l.strip_prefix("monolithic product: "))
        .ok_or("stage file has no `monolithic product` line")?;
    let mut numbers = line.split_whitespace().filter_map(|w| w.parse().ok());
    match (numbers.next(), numbers.next()) {
        (Some(states), Some(transitions)) => Ok((states, transitions)),
        _ => Err(format!("cannot read the product size from `{line}`")),
    }
}

/// Reads the committed models and goldens and generates the seeded
/// fabrics.
fn setup(seed: u64) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for (stem, states, transitions) in COUNTED {
        jobs.push(Job {
            name: stem.to_owned(),
            source: read(&format!("examples/{stem}.lot"))?,
            kind: Kind::Explore,
            golden: Golden::Counts(states, transitions),
        });
    }
    for n in FIXTURE_FABRICS {
        jobs.push(Job {
            name: format!("xmas_fab_{n}"),
            source: read(&format!("examples/xmas_fab_{n}.lot"))?,
            kind: Kind::Explore,
            golden: Golden::Digest(read(&format!("tests/data/xmas_fab_{n}.aut.sha256"))?),
        });
    }
    jobs.push(Job {
        name: "faust_complement".to_owned(),
        source: complement_source(),
        kind: Kind::Reduce,
        golden: Golden::Reduction {
            digest: read("tests/data/pipeline_faust_complement.aut.sha256")?,
            stages: read("tests/data/pipeline_faust_complement.stages.txt")?,
        },
    });
    let mut rng = SplitMix::new(seed, 0x7665_7269_6679);
    let mut seeded = 0;
    for _ in 0..SEEDED_CANDIDATES {
        let fabric_seed = rng.next_u64() % 1_000_000;
        let fabric = generate(fabric_seed, &GenConfig::default());
        let name = format!("seeded_fab_{fabric_seed}");
        let network = compile_network(&fabric).map_err(|e| format!("{name}: compile: {e}"))?;
        let product = network
            .components()
            .iter()
            .try_fold(1usize, |acc, (_, lts)| acc.checked_mul(lts.num_states()));
        if seeded == SEEDED_FABRICS || product.is_none_or(|p| p > SEEDED_MAX_PRODUCT) {
            continue;
        }
        let source = render_lot(&fabric, &RenderOptions::default())
            .map_err(|e| format!("{name}: render: {e}"))?;
        jobs.push(Job { name, source, kind: Kind::Fabric(network), golden: Golden::Agree });
        seeded += 1;
    }
    if seeded < SEEDED_FABRICS {
        return Err(format!(
            "seed {seed}: only {seeded} of {SEEDED_CANDIDATES} candidate fabrics are small enough"
        ));
    }
    Ok(jobs)
}

/// parse → explore → minimize → check deadlock freedom.
fn verify_source(source: &str, flow: u64, out: &mut Output) -> Result<(), String> {
    let spec = timed("pa.parse", flow, || parse_spec(source)).map_err(|e| e.to_string())?;
    let explored = timed("pa.explore", flow, || explore(&spec, &ExploreOptions::default()))
        .map_err(|e| e.to_string())?;
    let lts = explored.lts;
    count("pa.explore_states", lts.num_states() as f64);
    let (min, _) = timed("lts.minimize", flow, || minimize(&lts, Equivalence::Branching));
    count("lts.minimize_in_states", lts.num_states() as f64);
    count("lts.minimize_out_states", min.num_states() as f64);
    let verdict = timed("mcl.check", flow, || {
        multival::mcl::check(&min, &multival::mcl::patterns::deadlock_free())
    })
    .map_err(|e| e.to_string())?;
    out.explored = Some((lts.num_states(), lts.num_transitions()));
    out.deadlock_free = Some(verdict.holds);
    out.minimized = Some(min);
    Ok(())
}

fn reduce(network: &Network, flow: u64) -> multival::lts::pipeline::PipelineRun {
    timed("lts.pipeline", flow, || run_pipeline(network, &PipelineOptions::default()))
}

fn run_job(job: &Job, flow: u64) -> Result<Output, String> {
    let _flow = trace::span("bench.flow", flow);
    let mut out = Output::default();
    match &job.kind {
        Kind::Explore => verify_source(&job.source, flow, &mut out)?,
        Kind::Reduce => {
            let spec =
                timed("pa.parse", flow, || parse_spec(&job.source)).map_err(|e| e.to_string())?;
            let network = timed("pa.extract_network", flow, || {
                extract_network(&spec, &ExploreOptions::default())
            })
            .map_err(|e| e.to_string())?;
            out.reduced = Some(reduce(&network, flow));
        }
        Kind::Fabric(network) => {
            verify_source(&job.source, flow, &mut out)?;
            out.reduced = Some(reduce(network, flow));
        }
    }
    Ok(out)
}

fn canonical_text(lts: &Lts) -> String {
    write_aut(&canonicalize(lts))
}

/// The FAUST stage snapshot, in the format of the committed stage file.
fn stage_snapshot(
    network_components: &[String],
    run: &multival::lts::pipeline::PipelineRun,
    product: (usize, usize),
) -> String {
    let mut snap = String::new();
    let _ = writeln!(snap, "components: {}", network_components.len());
    let names: Vec<&str> = run.order.iter().map(|&i| network_components[i].as_str()).collect();
    let _ = writeln!(snap, "order: {}", names.join(" "));
    for s in &run.stages {
        let hidden = if s.hidden.is_empty() { "-".to_owned() } else { s.hidden.join(",") };
        let _ = writeln!(
            snap,
            "stage {} fold {}: {}/{} -> {}/{} hide {}",
            s.stage,
            s.component,
            s.states_before,
            s.transitions_before,
            s.states_after,
            s.transitions_after,
            hidden
        );
    }
    let _ = writeln!(snap, "peak intermediate states: {}", run.peak_states());
    let _ = writeln!(snap, "monolithic product: {} states / {} transitions", product.0, product.1);
    let _ = writeln!(
        snap,
        "reduced: {} states / {} transitions",
        run.lts.num_states(),
        run.lts.num_transitions()
    );
    snap
}

/// Reference data the checks need: the FAUST network's component names,
/// and its monolithic product size from the committed stage file.
struct Reference {
    faust_components: Vec<String>,
    faust_product: (usize, usize),
}

fn reference(jobs: &[Job]) -> Result<Reference, String> {
    let faust = jobs.iter().find(|j| matches!(j.kind, Kind::Reduce)).ok_or("no FAUST job")?;
    let Golden::Reduction { stages, .. } = &faust.golden else {
        return Err("the FAUST job has no stage file".to_owned());
    };
    let spec = parse_spec(&faust.source).map_err(|e| e.to_string())?;
    let network = extract_network(&spec, &ExploreOptions::default()).map_err(|e| e.to_string())?;
    Ok(Reference {
        faust_components: network.components().iter().map(|(n, _)| n.clone()).collect(),
        faust_product: product_counts(stages)?,
    })
}

fn check(job: &Job, out: &Output, reference: &Reference) -> Result<(), String> {
    if let (Some(min), Some(holds)) = (&out.minimized, out.deadlock_free) {
        let scan = min.deadlock_states().is_empty();
        if holds != scan {
            return Err(format!("mcl says deadlock-free={holds}, a state scan says {scan}"));
        }
    }
    match &job.golden {
        Golden::Counts(states, transitions) => {
            if out.explored != Some((*states, *transitions)) {
                return Err(format!(
                    "explored {:?}, expected {states} states / {transitions} transitions",
                    out.explored
                ));
            }
            if out.deadlock_free != Some(true) {
                return Err("expected deadlock freedom to hold".to_owned());
            }
        }
        Golden::Digest(want) => {
            let min = out.minimized.as_ref().ok_or("no quotient")?;
            let got = format!("{}\n", sha256_hex(canonical_text(min).as_bytes()));
            if &got != want {
                return Err(format!(
                    "canonical quotient digest {} != golden {}",
                    got.trim(),
                    want.trim()
                ));
            }
        }
        Golden::Reduction { digest, stages } => {
            let run = out.reduced.as_ref().ok_or("no reduction")?;
            let got = format!("{}\n", sha256_hex(write_aut(&run.lts).as_bytes()));
            if &got != digest {
                return Err(format!("reduced digest {} != golden {}", got.trim(), digest.trim()));
            }
            let snap = stage_snapshot(&reference.faust_components, run, reference.faust_product);
            if &snap != stages {
                return Err("stage account differs from the golden stage file".to_owned());
            }
        }
        Golden::Agree => {
            let Kind::Fabric(network) = &job.kind else {
                return Err("not a fabric".to_owned());
            };
            let run = out.reduced.as_ref().ok_or("no reduction")?;
            let pipeline = write_aut(&run.lts);
            let mono = monolithic(network, Equivalence::Branching, Workers::sequential());
            if pipeline != write_aut(&mono.lts) {
                return Err("pipeline result differs from the monolithic product".to_owned());
            }
            let min = out.minimized.as_ref().ok_or("no quotient")?;
            if pipeline != canonical_text(min) {
                return Err("explored quotient differs from the pipeline result".to_owned());
            }
        }
    }
    Ok(())
}

/// One timed pass over every job; the outputs are kept for the checks.
fn pass(jobs: &[Job], batch: &mut Batch) -> Vec<Result<Output, String>> {
    let _pass = trace::span("bench.pass", 0);
    let start = Instant::now();
    let outputs = jobs.iter().enumerate().map(|(i, job)| run_job(job, i as u64 + 1)).collect();
    batch.pass_s.push(start.elapsed().as_secs_f64());
    outputs
}

fn check_pass(
    jobs: &[Job],
    outputs: Vec<Result<Output, String>>,
    reference: &Reference,
    report: &mut Report,
) {
    for (job, out) in jobs.iter().zip(outputs) {
        report.op(out
            .and_then(|o| check(job, &o, reference))
            .map_err(|e| format!("{}: {e}", job.name)));
    }
}

/// Explores every `Explore` job at `threads` workers; returns the summed
/// wall time in ms.
fn explore_all(jobs: &[Job], threads: usize) -> f64 {
    let mut total = 0.0;
    for job in jobs.iter().filter(|j| matches!(j.kind, Kind::Explore)) {
        let Ok(spec) = parse_spec(&job.source) else { continue };
        let t = Instant::now();
        let _ =
            std::hint::black_box(explore(&spec, &ExploreOptions::default().with_threads(threads)));
        total += t.elapsed().as_secs_f64() * 1e3;
    }
    total
}

pub fn run(ctx: &Ctx, stamp: &Json) -> Result<Report, String> {
    let mut report = Report::default();
    let mut batch = Batch::default();
    // Set-up is everything before the first timed pass: reading the
    // inputs and goldens, generating the seeded fabrics and extracting the
    // FAUST component names the stage check prints.
    let prepare = || {
        let jobs = setup(ctx.seed)?;
        let reference = reference(&jobs)?;
        Ok::<_, String>((jobs, reference))
    };
    let (jobs, reference) = batch.setup(prepare)?;

    if !ctx.trace {
        for_duration(ctx.seconds, 3, |_| {
            let outputs = pass(&jobs, &mut batch);
            check_pass(&jobs, outputs, &reference, &mut report);
            let _ = std::hint::black_box(batch.setup(prepare));
        });
        batch.end_to_end(&mut report);
        return Ok(report);
    }

    // Traced run: alternate untraced and traced passes so both see the same
    // machine state; per-layer numbers are per traced pass.
    let mut untraced = Batch::default();
    let mut traced = Batch::default();
    let mut faust_peak = 0;
    for_duration(ctx.seconds, 4, |i| {
        let on = i % 2 == 1;
        trace::enable(on);
        let outputs = pass(&jobs, if on { &mut traced } else { &mut untraced });
        trace::enable(false);
        for (job, out) in jobs.iter().zip(&outputs) {
            if let (Kind::Reduce, Ok(Output { reduced: Some(run), .. })) = (&job.kind, out) {
                faust_peak = run.peak_states();
            }
        }
        check_pass(&jobs, outputs, &reference, &mut report);
    });
    let summary = trace::Summary::new(trace::spans());
    let passes = traced.pass_s.len() as f64;
    let per_pass = |name: &str| summary.total_ms(name) / passes;
    let states = trace::counter("pa.explore_states") / passes;
    report.metric("pa.parse_ms", per_pass("pa.parse"), "ms");
    report.metric("pa.explore_ms", per_pass("pa.explore"), "ms");
    report.metric("pa.explore_states", states, "count");
    report.metric("pa.explore_us_per_state", per_pass("pa.explore") * 1e3 / states, "us");
    report.metric("pa.extract_network_ms", per_pass("pa.extract_network"), "ms");
    report.metric("lts.minimize_ms", per_pass("lts.minimize"), "ms");
    report.metric(
        "lts.minimize_out_in_ratio",
        trace::counter("lts.minimize_out_states") / trace::counter("lts.minimize_in_states"),
        "ratio",
    );
    report.metric("lts.pipeline_ms", per_pass("lts.pipeline"), "ms");
    report.metric("lts.pipeline_peak_states", faust_peak as f64, "count");
    report.metric(
        "lts.pipeline_peak_over_product",
        faust_peak as f64 / reference.faust_product.0 as f64,
        "ratio",
    );
    report.metric("mcl.check_ms", per_pass("mcl.check"), "ms");
    let speedups: Vec<f64> =
        (0..3).map(|_| explore_all(&jobs, 1) / explore_all(&jobs, 2)).collect();
    report.metric("pa.explore_par2_speedup", crate::stats::median(&speedups), "ratio");
    let overhead =
        crate::stats::median(&traced.pass_s) / crate::stats::median(&untraced.pass_s) - 1.0;
    crate::finish_trace(&mut report, "verify", ctx.seed, "bench.pass", overhead, stamp);
    Ok(report)
}
