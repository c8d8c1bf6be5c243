//! The `multival` command-line tool: the CADP-style verbs (explore, check,
//! minimize, compare, solve) over mini-LOTOS sources and `.aut` files.
//!
//! The logic lives here (testable); `src/bin/multival.rs` is a thin wrapper.

use crate::budget::{read_aut_capped, read_blts_capped, Budget};
use crate::flow::{BoundsSolved, Flow, Interval, Solved};
use crate::report::{
    fmt_f, BoundsReport, BoundsRow, BoundsVerdict, FlyStats, ReduceStageRow, ReduceStats, SimStats,
    StoreReport, Table,
};
use multival_ctmc::McOptions;
use multival_imc::to_ctmc::NondetPolicy;
use multival_lts::equiv::{
    compare_determinized, determinize_ts, equivalent, weak_trace_equivalent, Determinized, Verdict,
};
use multival_lts::io::{write_aut, write_blts, write_dot};
use multival_lts::minimize::{minimize, Equivalence};
use multival_lts::reach::ReachOptions;
use multival_lts::Lts;
use multival_pa::{explore, explore_partial, parse_spec, ExploreError, ExploreOptions};
use multival_par::Workers;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Exit status of an executed command, carried next to the rendered text so
/// the binary can turn soft failures (budget trips, non-convergence) into
/// nonzero exit codes while tests keep matching on the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CmdStatus {
    /// Clean run.
    #[default]
    Ok,
    /// The CI-width stopping rule was not met within the trajectory cap.
    NotConverged,
    /// A `--timeout-secs`/`--max-states` budget cut the run short; the text
    /// reports partial results.
    BudgetExceeded,
}

impl CmdStatus {
    /// Process exit code for this status (`0`, `2`, `3`).
    #[must_use]
    pub fn exit_code(self) -> i32 {
        match self {
            CmdStatus::Ok => 0,
            CmdStatus::NotConverged => 2,
            CmdStatus::BudgetExceeded => 3,
        }
    }

    /// The worse of two statuses (budget trips dominate non-convergence).
    #[must_use]
    pub fn worst(self, other: CmdStatus) -> CmdStatus {
        if self.exit_code() >= other.exit_code() {
            self
        } else {
            other
        }
    }
}

/// Rendered output of one command plus its [`CmdStatus`]. Dereferences to
/// the text so existing call sites can keep using `contains`/`starts_with`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOut {
    /// The text to print.
    pub text: String,
    /// Exit status.
    pub status: CmdStatus,
}

impl CmdOut {
    /// Output with the given status.
    #[must_use]
    pub fn with_status(text: impl Into<String>, status: CmdStatus) -> CmdOut {
        CmdOut { text: text.into(), status }
    }
}

impl From<String> for CmdOut {
    fn from(text: String) -> CmdOut {
        CmdOut { text, status: CmdStatus::Ok }
    }
}

impl std::ops::Deref for CmdOut {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for CmdOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `explore <model.lot> [--aut out.aut] [--blts out.blts] [--dot out.dot]
    /// [--max-states N] [--timeout-secs T] [--on-the-fly]
    /// [--mem-budget BYTES]`
    Explore {
        /// Input model path.
        input: String,
        /// Write the LTS in Aldebaran format here.
        aut: Option<String>,
        /// Write the LTS in compact binary BLTS format here.
        blts: Option<String>,
        /// Write a Graphviz rendering here.
        dot: Option<String>,
        /// State-count / wall-clock budget.
        budget: Budget,
        /// Scan the state space on the fly instead of materializing it.
        on_the_fly: bool,
        /// Resident-memory budget in bytes for the state store, which
        /// spills to disk past it.
        mem_budget: Option<usize>,
    },
    /// `check <model.lot|lts.aut> <formula> [--max-states N]
    /// [--timeout-secs T] [--on-the-fly]` — μ-calculus model checking; with
    /// `--rate GATE=λ` the formula is a performance predicate instead,
    /// evaluated under the `--scheduler` treatment of nondeterminism.
    Check {
        /// Input model or LTS path.
        input: String,
        /// Formula text (μ-calculus, or a measure predicate in performance
        /// mode).
        formula: String,
        /// Gate → exponential rate; non-empty selects performance mode.
        rates: Vec<(String, f64)>,
        /// Throughput probes kept visible through the conversion.
        probes: Vec<String>,
        /// Treatment of internal nondeterminism in performance mode.
        scheduler: Scheduler,
        /// Decide fragment formulas by a short-circuiting search instead of
        /// the eager fixpoint evaluator.
        on_the_fly: bool,
        /// State-count / wall-clock budget for the exploration phase.
        budget: Budget,
    },
    /// `minimize <in> [--eq strong|branching] [--aut out.aut]`
    Minimize {
        /// Input model or LTS path.
        input: String,
        /// Equivalence to minimize modulo.
        eq: Equivalence,
        /// Output path.
        aut: Option<String>,
    },
    /// `reduce <model.lot> [--eq strong|branching] [--order smart|given|seed:N]
    /// [--aut out.aut] [--checkpoint DIR] [--max-states N]
    /// [--timeout-secs T] [--mem-budget BYTES]` — compositional reduction
    /// over the model's component network.
    Reduce {
        /// Input model path (mini-LOTOS with a parallel top behaviour).
        input: String,
        /// Equivalence to minimize modulo at every stage.
        eq: Equivalence,
        /// Composition-order policy.
        order: multival_lts::pipeline::Order,
        /// Write the reduced LTS in Aldebaran format here.
        aut: Option<String>,
        /// Write the reduced LTS in compact binary BLTS format here.
        blts: Option<String>,
        /// Per-stage checkpoint directory (resumes when it matches).
        checkpoint: Option<String>,
        /// Cap on intermediate products / wall-clock deadline.
        budget: Budget,
        /// Resident-memory budget in bytes for each stage product's state
        /// store, which spills to disk past it.
        mem_budget: Option<usize>,
    },
    /// `compare <a> <b> [--eq strong|branching|traces] [--on-the-fly]`
    Compare {
        /// Left input.
        left: String,
        /// Right input.
        right: String,
        /// Comparison relation.
        relation: Relation,
        /// Determinize straight from the term graphs (traces only).
        on_the_fly: bool,
    },
    /// `solve <model.lot> --rate GATE=λ ... [--probe GATE ...]`
    Solve {
        /// Input model path.
        input: String,
        /// Gate → exponential rate.
        rates: Vec<(String, f64)>,
        /// Throughput probes.
        probes: Vec<String>,
    },
    /// `simulate <model.lot|lts.aut> --rate GATE=λ ... [--probe GATE ...]
    /// [--horizon T] [--time T] [--trajectories N] [--seed S] [--threads N]
    /// [--rel-width W] [--confidence C] [--max-states N] [--timeout-secs T]`
    /// — Monte-Carlo estimation cross-checked against the numerical solvers.
    Simulate {
        /// Input model or LTS path.
        input: String,
        /// Gate → exponential rate.
        rates: Vec<(String, f64)>,
        /// Throughput probes.
        probes: Vec<String>,
        /// Occupancy horizon per trajectory.
        horizon: f64,
        /// Optional transient comparison time.
        time: Option<f64>,
        /// Trajectory cap.
        trajectories: usize,
        /// Base seed of the deterministic per-trajectory streams.
        seed: u64,
        /// Worker threads (1 = sequential, 0 = one per hardware thread).
        threads: usize,
        /// Relative CI half-width stopping target.
        rel_width: f64,
        /// Confidence level of the intervals.
        confidence: f64,
        /// State-count / wall-clock budget (cap on exploration; deadline
        /// checked between simulation batches).
        budget: Budget,
        /// `Bounds` adds the per-state occupancy interval over all
        /// schedulers next to the sampled estimates.
        scheduler: Scheduler,
    },
    /// `serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N]
    /// [--queue-cap N] [--cache-capacity N] [--journal DIR]
    /// [--event-threads N]` — run the evaluation service (handled by the
    /// `multival` binary in the `multival-svc` crate).
    Serve {
        /// Listen address.
        addr: String,
        /// On-disk cache tier directory (`None` = in-memory cache only,
        /// unless `--journal` supplies a default).
        cache_dir: Option<String>,
        /// Worker threads evaluating jobs.
        workers: usize,
        /// Bounded submission-queue capacity (further posts are rejected).
        queue_cap: usize,
        /// In-memory cache entries per shard times shard count.
        cache_capacity: usize,
        /// Crash-recovery journal directory (`None` = no durability).
        journal: Option<String>,
        /// Event-loop I/O threads sharing the listener.
        event_threads: usize,
    },
    /// `explore-space <spec.toml> [--workers N] [--endpoint HOST:PORT]
    /// [--cache-dir DIR] [--max-states N]` — design-space sweep driver
    /// (handled by the `multival` binary in the `multival-svc` crate).
    ExploreSpace {
        /// Sweep spec path (TOML subset or JSON).
        spec: String,
        /// Evaluation threads for the in-process engine.
        workers: usize,
        /// Submit over HTTP to a live `serve` endpoint instead.
        endpoint: Option<String>,
        /// Disk tier for the in-process result cache (re-runs resume).
        cache_dir: Option<String>,
        /// Per-point CTMC state cap; a tripped point reports as partial
        /// and the run exits 3.
        max_states: Option<usize>,
    },
    /// `walk <model.lot> [--steps N] [--seed S]` — random execution trace.
    Walk {
        /// Input model path.
        input: String,
        /// Maximum steps.
        steps: usize,
        /// RNG seed (reproducible).
        seed: u64,
    },
    /// `refines <imp> <spec> [--weak]` — simulation-preorder check.
    Refines {
        /// Implementation input.
        imp: String,
        /// Specification input.
        spec: String,
        /// Use weak (τ-abstracting) simulation.
        weak: bool,
    },
    /// `lint <model.lot>` — static modeling-pitfall checks.
    Lint {
        /// Input model path.
        input: String,
    },
    /// `fuzz [--seeds A..B] [--corpus DIR] [--max-states N]
    /// [--timeout-secs T] [--max-steps N] [--max-colors N] [--max-cap N]
    /// [--inject-flip] [--mem-budget BYTES]` —
    /// differential fuzzing over generated xMAS fabrics.
    Fuzz {
        /// Seed range, start inclusive, end exclusive.
        seeds: (u64, u64),
        /// Directory for minimized reproducers (skipped on budget trips).
        corpus: Option<String>,
        /// State-count / wall-clock budget for the whole sweep.
        budget: Budget,
        /// Generator growth steps per fabric.
        max_steps: usize,
        /// Generator color-palette size (1..=4).
        max_colors: usize,
        /// Generator queue-capacity bound (1..=3).
        max_cap: usize,
        /// Plant the switch-polarity renderer bug (harness self-test: the
        /// sweep must then report mismatches).
        inject_flip: bool,
        /// Resident-memory budget in bytes for each stage product's state
        /// store, which spills to disk past it.
        mem_budget: Option<usize>,
    },
    /// `help`
    Help,
}

/// How the performance side treats internal (τ) nondeterminism left after
/// lumping: one concrete resolution, or quantification over all schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Resolve every τ-choice uniformly at random (the historical
    /// single-number answer).
    #[default]
    Uniform,
    /// Guaranteed worst case: the infimum over all schedulers.
    Min,
    /// Best case: the supremum over all schedulers.
    Max,
    /// The full `[min, max]` interval over all schedulers.
    Bounds,
}

/// Comparison relation for `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Strong bisimulation.
    Strong,
    /// Branching bisimulation.
    Branching,
    /// Weak trace equivalence (gives a distinguishing trace).
    Traces,
}

/// Usage text.
pub const USAGE: &str = "\
multival — functional verification + performance evaluation (DATE'08 flow)

USAGE:
  multival explore  <model.lot> [--aut OUT] [--blts OUT] [--dot OUT]
                    [--max-states N] [--timeout-secs T]
                    [--on-the-fly]  (scan without materializing the LTS)
                    [--mem-budget BYTES]
  multival check    <model.lot|lts.aut> <FORMULA> [--max-states N]
                    [--timeout-secs T] [--on-the-fly]
                    [--rate GATE=RATE ...] [--probe GATE ...]
                    [--scheduler min|max|bounds|uniform]
  multival minimize <model.lot|lts.aut> [--eq strong|branching] [--aut OUT]
  multival reduce   <model.lot> [--eq strong|branching] [--order smart|given|seed:N]
                    [--aut OUT] [--blts OUT] [--checkpoint DIR]
                    [--max-states N] [--timeout-secs T] [--mem-budget BYTES]
  multival compare  <A> <B> [--eq strong|branching|traces] [--on-the-fly]
  multival solve    <model.lot> --rate GATE=RATE ... [--probe GATE ...]
  multival simulate <model.lot|lts.aut> --rate GATE=RATE ... [--probe GATE ...]
                    [--horizon T] [--time T] [--trajectories N] [--seed S]
                    [--threads N] [--rel-width W] [--confidence C]
                    [--max-states N] [--timeout-secs T]
                    [--scheduler uniform|bounds]
  multival walk     <model.lot> [--steps N] [--seed S]
  multival refines  <IMP> <SPEC> [--weak]
  multival lint     <model.lot>
  multival fuzz     [--seeds A..B] [--corpus DIR]
                    [--max-states N] [--timeout-secs T]
                    [--max-steps N] [--max-colors N] [--max-cap N]
                    [--inject-flip] [--mem-budget BYTES]
  multival serve    [--addr HOST:PORT] [--cache-dir DIR] [--workers N]
                    [--queue-cap N] [--cache-capacity N] [--journal DIR]
                    [--event-threads N]
  multival explore-space <spec.toml|spec.json> [--workers N]
                    [--endpoint HOST:PORT] [--cache-dir DIR] [--max-states N]

Inputs ending in .aut are read as Aldebaran LTSs, inputs ending in .blts as
compact binary LTSs; anything else is parsed as mini-LOTOS. FORMULA is modal
mu-calculus, e.g. 'nu X. <true> true and [true] X'.

check with --rate enters performance mode: FORMULA is then a measure
predicate — throughput(GATE), occupancy(STATE,...), latency(STATE,...), or
transient(STATE,... @ TIME) compared with >= or <= — evaluated on the
model's Markov semantics (states are functional state ids). --scheduler
picks how internal nondeterminism left after hiding is treated: uniform
resolves every choice uniformly (one number), min/max answer with the
guaranteed worst/best case over all schedulers, and bounds reports the full
[min, max] interval. The verdict is NO VERDICT (exit 2) exactly when the
interval straddles the threshold. simulate --scheduler bounds prints the
per-state occupancy interval over all schedulers next to the sampled
estimates, which must fall inside it.

--mem-budget BYTES (accepts k/m/g suffixes) bounds the resident state store
of explore/reduce/fuzz: packed state keys live in a contiguous arena with a
fingerprint index, and sealed arena segments are paged to a temp file once
resident bytes exceed the budget (explore and reduce then print a `store
spill` line). Output is byte-identical with or without it.

--on-the-fly walks the implicit transition system instead of generating the
full LTS first: explore reports visited states, check decides the
safety/possibility/inevitability fragment by a short-circuiting search (other
formulas fall back to the eager evaluator), and compare --eq traces
determinizes straight from the term graphs.

reduce folds the model's parallel components into the product one at a time,
hiding each gate as soon as all of its owners are folded and minimizing after
every stage (compositional smart reduction). The result is canonical: every
--order policy produces byte-identical output. With
--checkpoint DIR, per-stage .aut files let an interrupted run resume.

simulate runs the statistical engine: batched Monte-Carlo trajectories with
Welford statistics and CI-width stopping, reported next to the numerical
steady-state (and, with --time, transient) answers. Estimates depend only on
--seed, never on --threads. simulate exits nonzero (2) when the stopping
rule is not met within the trajectory cap.

--timeout-secs / --max-states bound a run: when a budget trips, partial
results are reported with a `Budget exceeded` note and exit code 3.

explore-space expands a sweep spec (a TOML-subset or JSON file: a [base]
pipeline configuration plus [axes] value lists crossed into points —
capacities, rates, delay styles exponential|erlang:K|det:TOL, schedulers)
into canonical `sweep` jobs, evaluates them through the job engine
(in-process, or against a live serve with --endpoint so identical points
cache and coalesce), and reports per-point measures plus the
accuracy-vs-peak-states Pareto front. The report is byte-identical across
--workers counts, transports, and cache states; with --cache-dir (or a
long-lived serve) a re-run only computes new points. A point tripping
--max-states is reported partial and the run exits 3.

fuzz sweeps seeded random xMAS fabrics (--seeds A..B, end exclusive; size
shaped by --max-steps/--max-colors/--max-cap) through the whole flow and
differentially cross-checks it against itself: smart compositional reduction
vs monolithic composition, the direct network builder vs the rendered
mini-LOTOS frontend, on-the-fly deadlock search vs reduced-model detection,
and scheduler throughput-bound sanity. Any disagreement is minimized and, with
--corpus DIR, written as a standalone .lot reproducer; mismatches exit 1.
--inject-flip plants a switch-polarity bug in the renderer to prove the
harness catches miscompilation. A budget trip (exit 3) skips the corpus
write.

serve starts the long-running evaluation service: a bounded job queue and
worker pool behind a std-only HTTP/1.1 JSON API (POST /v1/jobs,
GET /v1/jobs/{id}, GET /v1/metrics, GET /v1/healthz), fronted by a
content-addressed result cache. SIGTERM/SIGINT drains in-flight jobs, then
prints the service report.
";

/// Parses argv (without the program name).
///
/// # Errors
///
/// Returns a usage message on malformed invocations.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("explore") => {
            let mut input = None;
            let mut aut = None;
            let mut blts = None;
            let mut dot = None;
            let mut budget = Budget::default();
            let mut on_the_fly = false;
            let mut mem_budget = None;
            while let Some(a) = it.next() {
                match a {
                    "--aut" => aut = Some(next_value(&mut it, "--aut")?),
                    "--blts" => blts = Some(next_value(&mut it, "--blts")?),
                    "--dot" => dot = Some(next_value(&mut it, "--dot")?),
                    "--max-states" => budget.max_states = Some(parse_flag(&mut it, a)?),
                    "--timeout-secs" => budget = budget.with_timeout_secs(parse_flag(&mut it, a)?),
                    "--on-the-fly" => on_the_fly = true,
                    "--mem-budget" => {
                        mem_budget = Some(parse_mem(&next_value(&mut it, "--mem-budget")?)?)
                    }
                    other if input.is_none() => input = Some(other.to_owned()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if on_the_fly && (aut.is_some() || dot.is_some() || blts.is_some()) {
                return Err("--on-the-fly materializes no LTS to write; \
                            drop --aut/--blts/--dot or the flag"
                    .to_owned());
            }
            if on_the_fly && budget.timeout.is_some() {
                return Err("--timeout-secs applies to materializing exploration; \
                            the on-the-fly scan is bounded by --max-states"
                    .to_owned());
            }
            if on_the_fly && mem_budget.is_some() {
                return Err("--mem-budget applies to materializing exploration; \
                            the on-the-fly scan keeps no state table to page"
                    .to_owned());
            }
            Ok(Command::Explore {
                input: input.ok_or("explore needs a model path")?,
                aut,
                blts,
                dot,
                budget,
                on_the_fly,
                mem_budget,
            })
        }
        Some("check") => {
            let mut positional = Vec::new();
            let mut on_the_fly = false;
            let mut budget = Budget::default();
            let mut rates = Vec::new();
            let mut probes = Vec::new();
            let mut scheduler = None;
            while let Some(a) = it.next() {
                match a {
                    "--on-the-fly" => on_the_fly = true,
                    "--max-states" => budget.max_states = Some(parse_flag(&mut it, a)?),
                    "--timeout-secs" => budget = budget.with_timeout_secs(parse_flag(&mut it, a)?),
                    "--rate" => rates.push(parse_rate(&next_value(&mut it, "--rate")?)?),
                    "--probe" => probes.push(next_value(&mut it, "--probe")?),
                    "--scheduler" => {
                        scheduler = Some(parse_scheduler(&next_value(&mut it, "--scheduler")?)?)
                    }
                    other => positional.push(other.to_owned()),
                }
            }
            if positional.len() != 2 {
                return Err("check needs a model path and a formula".to_owned());
            }
            if rates.is_empty() && (scheduler.is_some() || !probes.is_empty()) {
                return Err("--scheduler/--probe select the performance side of check; \
                            add at least one --rate GATE=RATE"
                    .to_owned());
            }
            if on_the_fly && !rates.is_empty() {
                return Err("--on-the-fly applies to mu-calculus check; performance \
                            predicates need the materialized Markov model"
                    .to_owned());
            }
            let formula = positional.pop().expect("len 2");
            let input = positional.pop().expect("len 1");
            Ok(Command::Check {
                input,
                formula,
                rates,
                probes,
                scheduler: scheduler.unwrap_or_default(),
                on_the_fly,
                budget,
            })
        }
        Some("minimize") => {
            let mut input = None;
            let mut eq = Equivalence::Branching;
            let mut aut = None;
            while let Some(a) = it.next() {
                match a {
                    "--eq" => {
                        eq = match next_value(&mut it, "--eq")?.as_str() {
                            "strong" => Equivalence::Strong,
                            "branching" => Equivalence::Branching,
                            other => return Err(format!("unknown equivalence `{other}`")),
                        }
                    }
                    "--aut" => aut = Some(next_value(&mut it, "--aut")?),
                    other if input.is_none() => input = Some(other.to_owned()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Minimize { input: input.ok_or("minimize needs an input")?, eq, aut })
        }
        Some("reduce") => {
            let mut input = None;
            let mut eq = Equivalence::Branching;
            let mut order = multival_lts::pipeline::Order::Smart;
            let mut aut = None;
            let mut blts = None;
            let mut checkpoint = None;
            let mut budget = Budget::default();
            let mut mem_budget = None;
            while let Some(a) = it.next() {
                match a {
                    "--eq" => {
                        eq = match next_value(&mut it, "--eq")?.as_str() {
                            "strong" => Equivalence::Strong,
                            "branching" => Equivalence::Branching,
                            other => return Err(format!("unknown equivalence `{other}`")),
                        }
                    }
                    "--order" => order = parse_order(&next_value(&mut it, "--order")?)?,
                    "--aut" => aut = Some(next_value(&mut it, "--aut")?),
                    "--blts" => blts = Some(next_value(&mut it, "--blts")?),
                    "--checkpoint" => checkpoint = Some(next_value(&mut it, "--checkpoint")?),
                    "--max-states" => budget.max_states = Some(parse_flag(&mut it, a)?),
                    "--timeout-secs" => budget = budget.with_timeout_secs(parse_flag(&mut it, a)?),
                    "--mem-budget" => {
                        mem_budget = Some(parse_mem(&next_value(&mut it, "--mem-budget")?)?)
                    }
                    other if input.is_none() => input = Some(other.to_owned()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Reduce {
                input: input.ok_or("reduce needs a model path")?,
                eq,
                order,
                aut,
                blts,
                checkpoint,
                budget,
                mem_budget,
            })
        }
        Some("compare") => {
            let mut paths = Vec::new();
            let mut relation = Relation::Branching;
            let mut on_the_fly = false;
            while let Some(a) = it.next() {
                match a {
                    "--eq" => {
                        relation = match next_value(&mut it, "--eq")?.as_str() {
                            "strong" => Relation::Strong,
                            "branching" => Relation::Branching,
                            "traces" => Relation::Traces,
                            other => return Err(format!("unknown relation `{other}`")),
                        }
                    }
                    "--on-the-fly" => on_the_fly = true,
                    other => paths.push(other.to_owned()),
                }
            }
            if paths.len() != 2 {
                return Err("compare needs exactly two inputs".to_owned());
            }
            if on_the_fly && relation != Relation::Traces {
                return Err("--on-the-fly compare supports --eq traces only; bisimulations \
                     need the materialized LTSs"
                    .to_owned());
            }
            let right = paths.pop().expect("len 2");
            let left = paths.pop().expect("len 1");
            Ok(Command::Compare { left, right, relation, on_the_fly })
        }
        Some("lint") => {
            let input = it.next().ok_or("lint needs a model path")?.to_owned();
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument `{extra}`"));
            }
            Ok(Command::Lint { input })
        }
        Some("fuzz") => {
            let mut seeds = (0u64, 16u64);
            let mut corpus = None;
            let mut budget = Budget::default();
            let mut max_steps = 7usize;
            let mut max_colors = 2usize;
            let mut max_cap = 2usize;
            let mut inject_flip = false;
            let mut mem_budget = None;
            while let Some(a) = it.next() {
                match a {
                    "--seeds" => seeds = parse_seed_range(&next_value(&mut it, "--seeds")?)?,
                    "--corpus" => corpus = Some(next_value(&mut it, "--corpus")?),
                    "--max-states" => budget.max_states = Some(parse_flag(&mut it, a)?),
                    "--timeout-secs" => budget = budget.with_timeout_secs(parse_flag(&mut it, a)?),
                    "--max-steps" => max_steps = parse_flag(&mut it, a)?,
                    "--max-colors" => max_colors = parse_flag(&mut it, a)?,
                    "--max-cap" => max_cap = parse_flag(&mut it, a)?,
                    "--inject-flip" => inject_flip = true,
                    "--mem-budget" => {
                        mem_budget = Some(parse_mem(&next_value(&mut it, "--mem-budget")?)?)
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Fuzz {
                seeds,
                corpus,
                budget,
                max_steps,
                max_colors,
                max_cap,
                inject_flip,
                mem_budget,
            })
        }
        Some("walk") => {
            let mut input = None;
            let mut steps = 20usize;
            let mut seed = 0u64;
            while let Some(a) = it.next() {
                match a {
                    "--steps" => {
                        steps = next_value(&mut it, "--steps")?
                            .parse()
                            .map_err(|_| "--steps needs a number".to_owned())?
                    }
                    "--seed" => {
                        seed = next_value(&mut it, "--seed")?
                            .parse()
                            .map_err(|_| "--seed needs a number".to_owned())?
                    }
                    other if input.is_none() => input = Some(other.to_owned()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Walk { input: input.ok_or("walk needs a model path")?, steps, seed })
        }
        Some("refines") => {
            let mut paths = Vec::new();
            let mut weak = false;
            for a in it.by_ref() {
                match a {
                    "--weak" => weak = true,
                    other => paths.push(other.to_owned()),
                }
            }
            if paths.len() != 2 {
                return Err("refines needs exactly two inputs".to_owned());
            }
            let spec = paths.pop().expect("len 2");
            let imp = paths.pop().expect("len 1");
            Ok(Command::Refines { imp, spec, weak })
        }
        Some("solve") => {
            let mut input = None;
            let mut rates = Vec::new();
            let mut probes = Vec::new();
            while let Some(a) = it.next() {
                match a {
                    "--rate" => rates.push(parse_rate(&next_value(&mut it, "--rate")?)?),
                    "--probe" => probes.push(next_value(&mut it, "--probe")?),
                    other if input.is_none() => input = Some(other.to_owned()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if rates.is_empty() {
                return Err("solve needs at least one --rate GATE=RATE".to_owned());
            }
            Ok(Command::Solve { input: input.ok_or("solve needs a model path")?, rates, probes })
        }
        Some("simulate") => {
            let mut input = None;
            let mut rates = Vec::new();
            let mut probes = Vec::new();
            let mut horizon = 100.0f64;
            let mut time = None;
            let mut trajectories = 20_000usize;
            let mut seed = 42u64;
            let mut threads = 1usize;
            let mut rel_width = 0.05f64;
            let mut confidence = 0.99f64;
            let mut budget = Budget::default();
            let mut scheduler = Scheduler::Uniform;
            while let Some(a) = it.next() {
                match a {
                    "--rate" => rates.push(parse_rate(&next_value(&mut it, "--rate")?)?),
                    "--probe" => probes.push(next_value(&mut it, "--probe")?),
                    "--horizon" => {
                        horizon = next_value(&mut it, "--horizon")?
                            .parse()
                            .map_err(|_| "--horizon needs a number".to_owned())?
                    }
                    "--time" => {
                        time = Some(
                            next_value(&mut it, "--time")?
                                .parse()
                                .map_err(|_| "--time needs a number".to_owned())?,
                        )
                    }
                    "--trajectories" => {
                        trajectories = next_value(&mut it, "--trajectories")?
                            .parse()
                            .map_err(|_| "--trajectories needs an integer".to_owned())?
                    }
                    "--seed" => {
                        seed = next_value(&mut it, "--seed")?
                            .parse()
                            .map_err(|_| "--seed needs an integer".to_owned())?
                    }
                    "--threads" => {
                        threads = next_value(&mut it, "--threads")?
                            .parse()
                            .map_err(|_| "--threads needs an integer".to_owned())?
                    }
                    "--rel-width" => {
                        rel_width = next_value(&mut it, "--rel-width")?
                            .parse()
                            .map_err(|_| "--rel-width needs a number".to_owned())?
                    }
                    "--confidence" => {
                        confidence = next_value(&mut it, "--confidence")?
                            .parse()
                            .map_err(|_| "--confidence needs a number".to_owned())?
                    }
                    "--max-states" => budget.max_states = Some(parse_flag(&mut it, a)?),
                    "--timeout-secs" => budget = budget.with_timeout_secs(parse_flag(&mut it, a)?),
                    "--scheduler" => {
                        scheduler = parse_scheduler(&next_value(&mut it, "--scheduler")?)?
                    }
                    other if input.is_none() => input = Some(other.to_owned()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if rates.is_empty() {
                return Err("simulate needs at least one --rate GATE=RATE".to_owned());
            }
            if !(confidence > 0.0 && confidence < 1.0) {
                return Err("--confidence must lie in (0, 1)".to_owned());
            }
            if matches!(scheduler, Scheduler::Min | Scheduler::Max) {
                return Err("simulate samples one concrete resolution; --scheduler min|max \
                            have no sampling semantics (use bounds here, or `check`)"
                    .to_owned());
            }
            Ok(Command::Simulate {
                input: input.ok_or("simulate needs a model path")?,
                rates,
                probes,
                horizon,
                time,
                trajectories,
                seed,
                threads,
                rel_width,
                confidence,
                budget,
                scheduler,
            })
        }
        Some("serve") => {
            let mut addr = "127.0.0.1:7171".to_owned();
            let mut cache_dir = None;
            let mut workers = 2usize;
            let mut queue_cap = 64usize;
            let mut cache_capacity = 256usize;
            let mut journal = None;
            let mut event_threads = 2usize;
            while let Some(a) = it.next() {
                match a {
                    "--addr" => addr = next_value(&mut it, "--addr")?,
                    "--cache-dir" => cache_dir = Some(next_value(&mut it, "--cache-dir")?),
                    "--workers" => workers = parse_flag(&mut it, a)?,
                    "--queue-cap" => queue_cap = parse_flag(&mut it, a)?,
                    "--cache-capacity" => cache_capacity = parse_flag(&mut it, a)?,
                    "--journal" => journal = Some(next_value(&mut it, "--journal")?),
                    "--event-threads" => event_threads = parse_flag(&mut it, a)?,
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if workers == 0 {
                return Err("--workers must be at least 1".to_owned());
            }
            if queue_cap == 0 {
                return Err("--queue-cap must be at least 1".to_owned());
            }
            if event_threads == 0 {
                return Err("--event-threads must be at least 1".to_owned());
            }
            Ok(Command::Serve {
                addr,
                cache_dir,
                workers,
                queue_cap,
                cache_capacity,
                journal,
                event_threads,
            })
        }
        Some("explore-space") => {
            let mut spec = None;
            let mut workers = 2usize;
            let mut endpoint = None;
            let mut cache_dir = None;
            let mut max_states = None;
            while let Some(a) = it.next() {
                match a {
                    "--workers" => workers = parse_flag(&mut it, a)?,
                    "--endpoint" => endpoint = Some(next_value(&mut it, "--endpoint")?),
                    "--cache-dir" => cache_dir = Some(next_value(&mut it, "--cache-dir")?),
                    "--max-states" => max_states = Some(parse_flag(&mut it, a)?),
                    other if !other.starts_with('-') && spec.is_none() => {
                        spec = Some(other.to_owned());
                    }
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let spec = spec.ok_or("explore-space needs a sweep spec path")?;
            if workers == 0 {
                return Err("--workers must be at least 1".to_owned());
            }
            if endpoint.is_some() && cache_dir.is_some() {
                return Err("--cache-dir applies to the in-process engine; with --endpoint the \
                     server owns the cache"
                    .to_owned());
            }
            Ok(Command::ExploreSpace { spec, workers, endpoint, cache_dir, max_states })
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// Parses an `--order` value: `smart`, `given`, or `seed:N`.
fn parse_order(value: &str) -> Result<multival_lts::pipeline::Order, String> {
    use multival_lts::pipeline::Order;
    match value {
        "smart" => Ok(Order::Smart),
        "given" => Ok(Order::Given),
        other => match other.strip_prefix("seed:").and_then(|s| s.parse().ok()) {
            Some(seed) => Ok(Order::Seeded(seed)),
            None => Err(format!("unknown order `{other}` (expected smart, given, or seed:N)")),
        },
    }
}

/// Parses a `--rate` value: `GATE=RATE`.
fn parse_rate(spec: &str) -> Result<(String, f64), String> {
    let (gate, rate) =
        spec.split_once('=').ok_or_else(|| format!("--rate `{spec}` must be GATE=RATE"))?;
    let rate: f64 = rate.parse().map_err(|_| format!("invalid rate in `{spec}`"))?;
    Ok((gate.to_owned(), rate))
}

/// Parses a `--scheduler` value: `min`, `max`, `bounds`, or `uniform`.
fn parse_scheduler(value: &str) -> Result<Scheduler, String> {
    match value {
        "uniform" => Ok(Scheduler::Uniform),
        "min" => Ok(Scheduler::Min),
        "max" => Ok(Scheduler::Max),
        "bounds" => Ok(Scheduler::Bounds),
        other => {
            Err(format!("unknown scheduler `{other}` (expected min, max, bounds, or uniform)"))
        }
    }
}

/// Parses a `--mem-budget` value: plain bytes, or with a `k`/`m`/`g`
/// (KiB/MiB/GiB) suffix, e.g. `512m`.
fn parse_mem(value: &str) -> Result<usize, String> {
    let err = || format!("--mem-budget `{value}` must be BYTES or BYTES{{k|m|g}}");
    let (digits, shift) = match value.as_bytes().last() {
        Some(b'k' | b'K') => (&value[..value.len() - 1], 10),
        Some(b'm' | b'M') => (&value[..value.len() - 1], 20),
        Some(b'g' | b'G') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    let n: usize = digits.parse().map_err(|_| err())?;
    n.checked_shl(shift).filter(|_| n.leading_zeros() >= shift).ok_or_else(err)
}

/// Parses a `--seeds` value: `A..B` (start inclusive, end exclusive).
fn parse_seed_range(value: &str) -> Result<(u64, u64), String> {
    let err = || format!("--seeds `{value}` must be A..B with A < B");
    let (a, b) = value.split_once("..").ok_or_else(err)?;
    let start: u64 = a.parse().map_err(|_| err())?;
    let end: u64 = b.parse().map_err(|_| err())?;
    if start >= end {
        return Err(err());
    }
    Ok((start, end))
}

fn next_value<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<String, String> {
    it.next().map(str::to_owned).ok_or_else(|| format!("{flag} needs a value"))
}

/// Takes and parses the value of a numeric flag.
fn parse_flag<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<T, String> {
    next_value(it, flag)?.parse().map_err(|_| format!("{flag} needs a number"))
}

/// Runs `check --on-the-fly`. Returns `Ok(None)` when the formula is
/// outside the searchable fragment, directing the caller to the eager
/// evaluator.
fn check_on_the_fly(input: &str, formula: &str) -> Result<Option<String>, Box<dyn Error>> {
    let options = ReachOptions::default();
    let (report, materialized) = if is_lts_file(input) {
        let lts = load(input, options.max_states)?;
        let f = multival_mcl::parse_formula(formula)?;
        match multival_mcl::check_on_the_fly(&lts, &f, &options) {
            None => return Ok(None),
            Some(r) => (r?, lts.num_states()),
        }
    } else {
        let text =
            std::fs::read_to_string(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
        match Flow::check_on_the_fly(&text, formula, &options)? {
            None => return Ok(None),
            Some(r) => (r, 0),
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "{}", if report.holds { "TRUE" } else { "FALSE" });
    if let Some(trace) = &report.trace {
        let kind = if report.holds { "witness" } else { "counterexample" };
        let _ = writeln!(out, "{kind} trace: {}", trace.join(" "));
    }
    let stats = FlyStats {
        visited: report.stats.visited,
        transitions: report.stats.transitions,
        materialized,
        // A truncated search is an error, caught above — never a verdict.
        truncated: false,
    };
    out.push_str(&stats.render());
    Ok(Some(out))
}

/// A performance measure named in a `check` predicate. State arguments are
/// functional state ids of the pre-decoration LTS.
#[derive(Debug, Clone, PartialEq)]
enum Measure {
    /// Long-run throughput of a probe gate.
    Throughput(String),
    /// Long-run fraction of time spent in a set of functional states.
    Occupancy(Vec<u32>),
    /// Expected time to first reach a set of functional states.
    Latency(Vec<u32>),
    /// Probability of reaching a set of functional states by a deadline.
    Transient(Vec<u32>, f64),
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |ids: &[u32]| ids.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        match self {
            Measure::Throughput(gate) => write!(f, "throughput({gate})"),
            Measure::Occupancy(ids) => write!(f, "occupancy({})", join(ids)),
            Measure::Latency(ids) => write!(f, "latency({})", join(ids)),
            Measure::Transient(ids, t) => write!(f, "transient({} @ {t})", join(ids)),
        }
    }
}

/// Comparison direction of a performance predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    /// `>=`.
    Ge,
    /// `<=`.
    Le,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Ge => ">=",
            Cmp::Le => "<=",
        })
    }
}

/// A parsed performance predicate: `MEASURE >= V` or `MEASURE <= V`.
#[derive(Debug, Clone, PartialEq)]
struct PerfPredicate {
    measure: Measure,
    cmp: Cmp,
    threshold: f64,
}

impl PerfPredicate {
    /// Three-valued verdict of a scheduler interval against the threshold:
    /// `TRUE`/`FALSE` when every scheduler agrees, `NO VERDICT` when the
    /// interval straddles it.
    fn verdict(&self, i: &Interval) -> BoundsVerdict {
        match self.cmp {
            Cmp::Ge if i.min >= self.threshold => BoundsVerdict::True,
            Cmp::Ge if i.max < self.threshold => BoundsVerdict::False,
            Cmp::Le if i.max <= self.threshold => BoundsVerdict::True,
            Cmp::Le if i.min > self.threshold => BoundsVerdict::False,
            _ => BoundsVerdict::NoVerdict,
        }
    }
}

/// Parses a performance predicate, e.g. `throughput(push) >= 0.5`,
/// `occupancy(1,2) <= 0.8`, `latency(3) <= 2`, `transient(3 @ 0.5) >= 0.9`.
fn parse_perf_predicate(text: &str) -> Result<PerfPredicate, String> {
    let (lhs, cmp, rhs) = if let Some((l, r)) = text.split_once(">=") {
        (l, Cmp::Ge, r)
    } else if let Some((l, r)) = text.split_once("<=") {
        (l, Cmp::Le, r)
    } else {
        return Err(format!(
            "performance predicate `{text}` must compare a measure with >= or <=, \
             e.g. `throughput(push) >= 0.5`"
        ));
    };
    let threshold: f64 =
        rhs.trim().parse().map_err(|_| format!("invalid threshold `{}`", rhs.trim()))?;
    let lhs = lhs.trim();
    let (name, args) = lhs
        .split_once('(')
        .and_then(|(n, a)| a.strip_suffix(')').map(|a| (n.trim(), a.trim())))
        .ok_or_else(|| format!("measure `{lhs}` must be NAME(ARGS), e.g. `latency(3)`"))?;
    let measure = match name {
        "throughput" => {
            if args.is_empty() || args.contains(',') {
                return Err("throughput takes exactly one probe gate".to_owned());
            }
            Measure::Throughput(args.to_owned())
        }
        "occupancy" => Measure::Occupancy(parse_state_ids(args)?),
        "latency" => Measure::Latency(parse_state_ids(args)?),
        "transient" => {
            let (ids, t) = args.split_once('@').ok_or_else(|| {
                "transient needs a deadline: `transient(STATE,... @ TIME)`".to_owned()
            })?;
            let time: f64 = t.trim().parse().map_err(|_| format!("invalid time `{}`", t.trim()))?;
            if time < 0.0 {
                return Err("transient time must be nonnegative".to_owned());
            }
            Measure::Transient(parse_state_ids(ids)?, time)
        }
        other => {
            return Err(format!(
                "unknown measure `{other}` (expected throughput, occupancy, latency, or transient)"
            ))
        }
    };
    Ok(PerfPredicate { measure, cmp, threshold })
}

/// Parses a comma-separated, non-empty list of functional state ids.
fn parse_state_ids(args: &str) -> Result<Vec<u32>, String> {
    let ids: Vec<u32> = args
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u32>().map_err(|_| format!("invalid state id `{s}`")))
        .collect::<Result<_, _>>()?;
    if ids.is_empty() {
        return Err("at least one functional state id is required".to_owned());
    }
    Ok(ids)
}

/// Evaluates a measure on a concretely resolved CTMC.
fn eval_measure(solved: &Solved, measure: &Measure) -> Result<f64, Box<dyn Error>> {
    Ok(match measure {
        Measure::Throughput(gate) => solved
            .throughputs()?
            .into_iter()
            .find(|(name, _)| name == gate)
            .map(|(_, tp)| tp)
            .ok_or_else(|| format!("probe `{gate}` was not converted"))?,
        Measure::Occupancy(ids) => solved.occupancy(ids)?,
        Measure::Latency(ids) => solved.mean_time_to_states(ids)?,
        Measure::Transient(ids, t) => solved.timed_reach(ids, *t)?,
    })
}

/// Evaluates a measure's `[min, max]` interval over all schedulers.
fn eval_measure_bounds(
    bounds: &BoundsSolved,
    measure: &Measure,
) -> Result<Interval, Box<dyn Error>> {
    Ok(match measure {
        Measure::Throughput(gate) => bounds
            .throughput_bounds()?
            .into_iter()
            .find(|(name, _)| name == gate)
            .map(|(_, i)| i)
            .ok_or_else(|| format!("probe `{gate}` was not converted"))?,
        Measure::Occupancy(ids) => bounds.occupancy_bounds(ids)?,
        Measure::Latency(ids) => bounds.latency_bounds(ids)?,
        Measure::Transient(ids, t) => bounds.transient_bounds(ids, *t)?,
    })
}

/// Runs `check` in performance mode (any `--rate` present): the formula is
/// a measure predicate, decided under the selected scheduler treatment.
/// `NO VERDICT` (exit 2) exactly when the `[min, max]` interval straddles
/// the threshold, so neither verdict holds for all schedulers.
fn check_performance(
    input: &str,
    predicate: &str,
    rates: &[(String, f64)],
    probes: &[String],
    scheduler: Scheduler,
    budget: &Budget,
) -> Result<CmdOut, Box<dyn Error>> {
    let pred = parse_perf_predicate(predicate)?;
    let mut probes: Vec<String> = probes.to_vec();
    if let Measure::Throughput(gate) = &pred.measure {
        if !probes.iter().any(|p| p == gate) {
            probes.push(gate.clone());
        }
    }
    let lts = match load_budgeted(input, budget)? {
        Ok(lts) => lts,
        Err((partial, err)) => {
            return Ok(CmdOut::with_status(
                format!(
                    "Budget exceeded: {err}\n\
                     NO VERDICT: the measure needs the full state space \
                     ({} states explored)\n",
                    partial.num_states()
                ),
                CmdStatus::BudgetExceeded,
            ));
        }
    };
    let rate_map: HashMap<String, f64> = rates.iter().cloned().collect();
    let perf = Flow::from_lts(lts).with_rates(&rate_map);
    let probe_refs: Vec<&str> = probes.iter().map(String::as_str).collect();
    let mut out = String::new();
    let interval = if scheduler == Scheduler::Uniform {
        let solved = perf.solve(NondetPolicy::Uniform, &probe_refs)?;
        let _ = writeln!(out, "ctmc states: {}", solved.ctmc().num_states());
        let v = eval_measure(&solved, &pred.measure)?;
        Interval { min: v, max: v }
    } else {
        let bounds = perf.solve_bounds(&probe_refs)?;
        let mdp = bounds.mdp();
        let instant = (0..mdp.num_states()).filter(|&s| mdp.is_instant(s)).count();
        let _ = writeln!(out, "ctmdp states: {} ({instant} instant)", mdp.num_states());
        let full = eval_measure_bounds(&bounds, &pred.measure)?;
        match scheduler {
            Scheduler::Min => Interval { min: full.min, max: full.min },
            Scheduler::Max => Interval { min: full.max, max: full.max },
            _ => full,
        }
    };
    let verdict = pred.verdict(&interval);
    let report = BoundsReport {
        rows: vec![BoundsRow {
            measure: pred.measure.to_string(),
            interval,
            verdict: Some((format!("{} {}", pred.cmp, fmt_f(pred.threshold)), verdict)),
        }],
        point: scheduler != Scheduler::Bounds,
    };
    out.push_str(&report.render());
    let status = if verdict == BoundsVerdict::NoVerdict {
        let _ = writeln!(
            out,
            "NO VERDICT: the [min, max] interval straddles the threshold; \
             the answer depends on the scheduler"
        );
        CmdStatus::NotConverged
    } else {
        CmdStatus::Ok
    };
    Ok(CmdOut::with_status(out, status))
}

/// Renders the per-state occupancy `[min, max]` over all schedulers next to
/// the uniform-resolution sampled estimates, which must fall inside (the
/// statistical leg of the sandwich property).
fn occupancy_bounds_table(
    solved: &Solved,
    bounds: &BoundsSolved,
    run: &multival_ctmc::McRun,
    slack: f64,
) -> Result<String, Box<dyn Error>> {
    // Invert the CTMC state map: tangible states survive both conversions,
    // so the originating IMC index keys the CTMDP occupancy query.
    let map = &solved.conversion().state_map;
    let mut source = vec![None; solved.ctmc().num_states()];
    for (imc, &c) in map.iter().enumerate() {
        if let Some(c) = c {
            source[c] = Some(imc as u32);
        }
    }
    let mut out =
        String::from("occupancy scheduler bounds (sampled estimates must fall inside):\n");
    let mut t = Table::new(&["state", "min", "max", "simulated", "inside bounds"]);
    let mut agree = 0usize;
    let shown = source.len().min(20);
    for (s, src) in source.iter().enumerate().take(shown) {
        let src = src.ok_or("internal: CTMC state without an IMC source")?;
        let i = bounds.occupancy_bounds(&[src])?;
        let e = &run.estimates[s];
        let inside = i.contains(e.mean, e.half_width + slack);
        agree += usize::from(inside);
        t.row_owned(vec![
            s.to_string(),
            format!("{:.6}", i.min),
            format!("{:.6}", i.max),
            format!("{:.6}", e.mean),
            if inside { "yes".into() } else { "NO".into() },
        ]);
    }
    out.push_str(&t.render());
    if source.len() > shown {
        let _ = writeln!(out, "... ({} states total)", source.len());
    }
    let _ = writeln!(out, "bounds agreement: {agree}/{shown} estimates inside [min, max]");
    Ok(out)
}

/// Determinizes one `compare --on-the-fly` input: a `.aut` file via its
/// explicit LTS, a mini-LOTOS source straight from the term graph.
fn determinize_input(path: &str) -> Result<Determinized, Box<dyn Error>> {
    const CAP: usize = 1 << 20;
    if is_lts_file(path) {
        let lts = load(path, CAP)?;
        determinize_ts(&lts, CAP)
            .ok_or_else(|| format!("determinization cap of {CAP} subset states exceeded").into())
    } else {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Ok(Flow::determinize_source(&text, CAP)?)
    }
}

/// True when a path names an already-materialized LTS file rather than a
/// mini-LOTOS source: Aldebaran text (`.aut`) or compact binary (`.blts`).
fn is_lts_file(path: &str) -> bool {
    path.ends_with(".aut") || path.ends_with(".blts")
}

/// Loads a `.blts` file (binary, so outside the `read_to_string` path).
fn load_blts(path: &str, max_states: usize) -> Result<Lts, Box<dyn Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(read_blts_capped(&bytes, max_states)?)
}

/// Loads an input: `.aut`/`.blts` files are parsed as LTSs (a header
/// declaring more states than the cap is refused), everything else
/// as mini-LOTOS (explored with the given cap).
fn load(path: &str, max_states: usize) -> Result<Lts, Box<dyn Error>> {
    if path.ends_with(".blts") {
        return load_blts(path, max_states);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if path.ends_with(".aut") {
        Ok(read_aut_capped(&text, max_states)?)
    } else {
        let spec = parse_spec(&text)?;
        Ok(explore(&spec, &ExploreOptions::with_max_states(max_states))?.lts)
    }
}

/// Budget-aware [`load`]: a `.aut`/`.blts` input is already materialized
/// and loads fully if its declared state count fits the cap; a mini-LOTOS source is
/// explored under the budget, and a tripped budget comes back as
/// `Ok(Err((partial_lts, reason)))` so callers can report partial results.
#[allow(clippy::type_complexity)]
fn load_budgeted(
    path: &str,
    budget: &Budget,
) -> Result<Result<Lts, (Lts, ExploreError)>, Box<dyn Error>> {
    let max_states = budget.max_states_or(1_000_000);
    if path.ends_with(".blts") {
        return Ok(Ok(load_blts(path, max_states)?));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if path.ends_with(".aut") {
        Ok(Ok(read_aut_capped(&text, max_states)?))
    } else {
        let spec = parse_spec(&text)?;
        let mut options = ExploreOptions::with_max_states(max_states);
        if let Some(deadline) = budget.deadline() {
            options = options.with_deadline(deadline);
        }
        let exploration = explore_partial(&spec, &options);
        Ok(match exploration.aborted {
            Some(err) => Err((exploration.explored.lts, err)),
            None => Ok(exploration.explored.lts),
        })
    }
}

/// Executes a command, returning the text to print plus its exit status.
///
/// # Errors
///
/// Propagates I/O, parse, exploration, and solver errors.
pub fn execute(cmd: &Command) -> Result<CmdOut, Box<dyn Error>> {
    match cmd {
        Command::Help => Ok(USAGE.to_owned().into()),
        Command::Serve { .. } => Err("`multival serve` is provided by the full `multival` \
             binary (crate multival-svc); the core library only parses the verb"
            .into()),
        Command::ExploreSpace { .. } => Err("`multival explore-space` is provided by the full \
             `multival` binary (crate multival-svc); the core library only parses the verb"
            .into()),
        Command::Explore { input, aut, blts, dot, budget, on_the_fly, mem_budget } => {
            let mut out = String::new();
            let mut status = CmdStatus::Ok;
            let max_states = budget.max_states_or(1_000_000);
            if *on_the_fly {
                let options = ReachOptions::with_max_states(max_states);
                // A .aut/.blts input is already an explicit LTS, so the scan
                // walks materialized states; a mini-LOTOS source is walked
                // straight over its term graph.
                let (summary, materialized) = if is_lts_file(input) {
                    let lts = load(input, max_states)?;
                    (multival_lts::reach::scan(&lts, &options), lts.num_states())
                } else {
                    let text = std::fs::read_to_string(input)
                        .map_err(|e| format!("cannot read `{input}`: {e}"))?;
                    (Flow::scan_on_the_fly(&text, &options)?, 0)
                };
                let stats = FlyStats {
                    visited: summary.states,
                    transitions: summary.transitions,
                    materialized,
                    truncated: summary.truncated,
                };
                out.push_str(&stats.render());
                let _ = writeln!(out, "deadlock states: {}", summary.deadlocks);
                return Ok(out.into());
            }
            let lts = if is_lts_file(input) {
                load(input, max_states)?
            } else {
                let text = std::fs::read_to_string(input)
                    .map_err(|e| format!("cannot read `{input}`: {e}"))?;
                let spec = parse_spec(&text)?;
                let mut options = ExploreOptions::with_max_states(max_states);
                if let Some(deadline) = budget.deadline() {
                    options = options.with_deadline(deadline);
                }
                // No term is kept per state: the packed state keys live in
                // the arena, or spill to disk past a memory budget.
                let run = multival_pa::explore_term_store_partial(
                    spec.top().clone(),
                    &spec,
                    &options,
                    *mem_budget,
                );
                if let Some(err) = &run.aborted {
                    let _ = writeln!(out, "warning: exploration aborted: {err}");
                    let _ = writeln!(out, "Budget exceeded; reporting the partial state space");
                    status = CmdStatus::BudgetExceeded;
                }
                if mem_budget.is_some() {
                    out.push_str(&StoreReport { stats: run.store }.render());
                }
                run.lts
            };
            let _ = writeln!(out, "{}", lts.summary());
            let deadlocks = lts.deadlock_states();
            let _ = writeln!(out, "deadlock states: {}", deadlocks.len());
            if let Some(path) = aut {
                std::fs::write(path, write_aut(&lts))?;
                let _ = writeln!(out, "wrote {path}");
            }
            if let Some(path) = blts {
                std::fs::write(path, write_blts(&lts))?;
                let _ = writeln!(out, "wrote {path}");
            }
            if let Some(path) = dot {
                std::fs::write(path, write_dot(&lts, input))?;
                let _ = writeln!(out, "wrote {path}");
            }
            Ok(CmdOut::with_status(out, status))
        }
        Command::Check { input, formula, rates, probes, scheduler, on_the_fly, budget } => {
            if !rates.is_empty() {
                return check_performance(input, formula, rates, probes, *scheduler, budget);
            }
            if *on_the_fly {
                if let Some(out) = check_on_the_fly(input, formula)? {
                    return Ok(out.into());
                }
                // Outside the fragment: fall through to the eager evaluator.
            }
            // A verdict on a partial state space would be unsound, so a
            // tripped budget yields a clear no-verdict report instead.
            let lts = match load_budgeted(input, budget)? {
                Ok(lts) => lts,
                Err((partial, err)) => {
                    return Ok(CmdOut::with_status(
                        format!(
                            "Budget exceeded: {err}\n\
                             NO VERDICT: the formula needs the full state space \
                             ({} states explored)\n",
                            partial.num_states()
                        ),
                        CmdStatus::BudgetExceeded,
                    ));
                }
            };
            let f = multival_mcl::parse_formula(formula)?;
            let result = multival_mcl::check(&lts, &f)?;
            let mut out = String::new();
            if *on_the_fly {
                let _ = writeln!(
                    out,
                    "note: formula outside the on-the-fly fragment; \
                     evaluated eagerly over {} materialized states",
                    lts.num_states()
                );
            }
            let _ = writeln!(
                out,
                "{}  ({} of {} states satisfy the formula)",
                if result.holds { "TRUE" } else { "FALSE" },
                result.satisfying,
                result.total
            );
            Ok(out.into())
        }
        Command::Minimize { input, eq, aut } => {
            let lts = load(input, 1_000_000)?;
            let (min, stats) = minimize(&lts, *eq);
            let mut out = format!(
                "{:?}: {} states / {} transitions  ->  {} states / {} transitions\n",
                eq,
                stats.states_before,
                stats.transitions_before,
                stats.states_after,
                stats.transitions_after
            );
            if let Some(path) = aut {
                std::fs::write(path, write_aut(&min))?;
                let _ = writeln!(out, "wrote {path}");
            }
            Ok(out.into())
        }
        Command::Reduce { input, eq, order, aut, blts, checkpoint, budget, mem_budget } => {
            use multival_lts::pipeline::PipelineOptions;
            if is_lts_file(input) {
                return Err("reduce needs a mini-LOTOS model: a .aut/.blts file has no \
                     parallel structure left to reduce compositionally"
                    .into());
            }
            let text = std::fs::read_to_string(input)
                .map_err(|e| format!("cannot read `{input}`: {e}"))?;
            let spec = parse_spec(&text)?;
            // Component exploration keeps the default cap: the budget below
            // bounds the intermediate *products*, which is where
            // compositional state spaces actually blow up.
            let network = multival_pa::extract_network(&spec, &ExploreOptions::default())?;
            let options = PipelineOptions {
                equivalence: *eq,
                order: *order,
                max_states: budget.max_states,
                deadline: budget.deadline(),
                checkpoint_dir: checkpoint.as_ref().map(std::path::PathBuf::from),
                mem_budget: *mem_budget,
            };
            let run = multival_lts::pipeline::run_pipeline(&network, &options);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} components, {:?} minimization, {} order",
                network.components().len(),
                eq,
                order
            );
            let stats = ReduceStats {
                stages: run
                    .stages
                    .iter()
                    .map(|s| ReduceStageRow {
                        stage: s.stage,
                        component: s.component.clone(),
                        states_before: s.states_before,
                        transitions_before: s.transitions_before,
                        states_after: s.states_after,
                        transitions_after: s.transitions_after,
                        hidden: s.hidden.clone(),
                    })
                    .collect(),
                peak_states: run.peak_states(),
                final_states: run.lts.num_states(),
                final_transitions: run.lts.num_transitions(),
                resumed_stages: run.resumed_stages,
            };
            out.push_str(&stats.render());
            if mem_budget.is_some() {
                out.push_str(&StoreReport { stats: run.store }.render());
            }
            let mut status = CmdStatus::Ok;
            if let Some(reason) = &run.abort {
                let _ = writeln!(out, "warning: pipeline aborted: {reason}");
                let _ = writeln!(out, "Budget exceeded; reporting the partial reduction");
                status = CmdStatus::BudgetExceeded;
            }
            if let Some(path) = aut {
                std::fs::write(path, write_aut(&run.lts))?;
                let _ = writeln!(out, "wrote {path}");
            }
            if let Some(path) = blts {
                std::fs::write(path, write_blts(&run.lts))?;
                let _ = writeln!(out, "wrote {path}");
            }
            Ok(CmdOut::with_status(out, status))
        }
        Command::Compare { left, right, relation, on_the_fly } => {
            let verdict = if *on_the_fly {
                // parse_args guarantees Relation::Traces here.
                let da = determinize_input(left)?;
                let db = determinize_input(right)?;
                compare_determinized(&da, &db)
            } else {
                let a = load(left, 1_000_000)?;
                let b = load(right, 1_000_000)?;
                match relation {
                    Relation::Strong => equivalent(&a, &b, Equivalence::Strong),
                    Relation::Branching => equivalent(&a, &b, Equivalence::Branching),
                    Relation::Traces => weak_trace_equivalent(&a, &b, 1 << 20),
                }
            };
            Ok(CmdOut::from(match verdict {
                Verdict::Equivalent => "EQUIVALENT\n".to_owned(),
                Verdict::Inequivalent { witness: Some(w) } => {
                    format!("NOT EQUIVALENT\ndistinguishing trace: {}\n", w.join(" "))
                }
                Verdict::Inequivalent { witness: None } => "NOT EQUIVALENT\n".to_owned(),
            }))
        }
        Command::Fuzz {
            seeds,
            corpus,
            budget,
            max_steps,
            max_colors,
            max_cap,
            inject_flip,
            mem_budget,
        } => {
            let options = crate::fuzz::FuzzOptions {
                seed_start: seeds.0,
                seed_end: seeds.1,
                corpus_dir: corpus.as_ref().map(std::path::PathBuf::from),
                budget: *budget,
                gen: multival_models::xmas::GenConfig {
                    max_steps: *max_steps,
                    max_colors: *max_colors,
                    max_cap: *max_cap,
                    credit_rings: true,
                },
                inject_flip: *inject_flip,
                max_shrink_rounds: 64,
                mem_budget: *mem_budget,
            };
            let report = crate::fuzz::run_fuzz(&options);
            let mut out = report.render();
            if report.budget_tripped {
                return Ok(CmdOut::with_status(out, CmdStatus::BudgetExceeded));
            }
            if !report.mismatches.is_empty() {
                let _ = writeln!(out, "DIFFERENTIAL MISMATCH");
                return Err(out.into());
            }
            let _ = writeln!(out, "all oracles agree");
            Ok(CmdOut::from(out))
        }
        Command::Lint { input } => {
            let text = std::fs::read_to_string(input)
                .map_err(|e| format!("cannot read `{input}`: {e}"))?;
            let spec = multival_pa::parse_spec(&text)?;
            let findings = multival_pa::lint(&spec);
            if findings.is_empty() {
                Ok("no lint findings\n".to_owned().into())
            } else {
                let mut out = String::new();
                for f in findings {
                    let _ = writeln!(out, "warning: {f}");
                }
                Ok(out.into())
            }
        }
        Command::Walk { input, steps, seed } => {
            use rand::{Rng, SeedableRng};
            let lts = load(input, 1_000_000)?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
            let mut out = String::new();
            let mut state = lts.initial();
            for step in 0..*steps {
                let ts = lts.transitions_from(state);
                if ts.is_empty() {
                    let _ = writeln!(out, "{step:>4}: DEADLOCK in state {state}");
                    break;
                }
                let t = ts[rng.gen_range(0..ts.len())];
                let _ = writeln!(
                    out,
                    "{step:>4}: {} --{}--> {}",
                    state,
                    lts.labels().name(t.label),
                    t.target
                );
                state = t.target;
            }
            Ok(out.into())
        }
        Command::Refines { imp, spec, weak } => {
            use multival_lts::simulation::{simulates, SimulationKind};
            let a = load(imp, 1_000_000)?;
            let b = load(spec, 1_000_000)?;
            let kind = if *weak { SimulationKind::Weak } else { SimulationKind::Strong };
            Ok(CmdOut::from(if simulates(&a, &b, kind) {
                "REFINES (the specification simulates the implementation)\n".to_owned()
            } else {
                "DOES NOT REFINE\n".to_owned()
            }))
        }
        Command::Solve { input, rates, probes } => {
            let text = std::fs::read_to_string(input)
                .map_err(|e| format!("cannot read `{input}`: {e}"))?;
            let flow = Flow::from_source(&text)?;
            let rate_map: HashMap<String, f64> = rates.iter().cloned().collect();
            let probe_refs: Vec<&str> = probes.iter().map(String::as_str).collect();
            let solved = flow.with_rates(&rate_map).solve(NondetPolicy::Uniform, &probe_refs)?;
            let mut out = String::new();
            let _ = writeln!(out, "ctmc states: {}", solved.ctmc().num_states());
            if !probes.is_empty() {
                let mut t = Table::new(&["probe", "throughput"]);
                for (label, tp) in solved.throughputs()? {
                    t.row_owned(vec![label, fmt_f(tp)]);
                }
                out.push_str(&t.render());
            } else {
                let pi = solved.steady_state()?;
                let mut t = Table::new(&["state", "steady-state probability"]);
                for (s, p) in pi.iter().enumerate().take(20) {
                    t.row_owned(vec![s.to_string(), fmt_f(*p)]);
                }
                out.push_str(&t.render());
                if pi.len() > 20 {
                    let _ = writeln!(out, "... ({} states total)", pi.len());
                }
            }
            Ok(out.into())
        }
        Command::Simulate {
            input,
            rates,
            probes,
            horizon,
            time,
            trajectories,
            seed,
            threads,
            rel_width,
            confidence,
            budget,
            scheduler,
        } => {
            let flow = Flow::from_lts(load(input, budget.max_states_or(1_000_000))?);
            let rate_map: HashMap<String, f64> = rates.iter().cloned().collect();
            let probe_refs: Vec<&str> = probes.iter().map(String::as_str).collect();
            let perf = flow.with_rates(&rate_map);
            let solved = perf.solve(NondetPolicy::Uniform, &probe_refs)?;
            let workers = if *threads == 0 { Workers::auto() } else { Workers::new(*threads) };
            // One wall-clock budget covers the whole invocation, so both
            // sampling runs share the same absolute deadline.
            let opts = McOptions {
                seed: *seed,
                workers,
                max_trajectories: *trajectories,
                rel_width: *rel_width,
                confidence: *confidence,
                deadline: budget.deadline(),
                ..McOptions::default()
            };
            let mut out = String::new();
            let mut status = CmdStatus::Ok;
            let mut account = |run: &multival_ctmc::McRun, out: &mut String| {
                if run.budget_hit {
                    let _ = writeln!(
                        out,
                        "Budget exceeded: wall-clock limit hit after {} trajectories; \
                         the estimates above are partial",
                        run.trajectories
                    );
                    status = status.worst(CmdStatus::BudgetExceeded);
                } else if !run.converged {
                    status = status.worst(CmdStatus::NotConverged);
                }
            };
            let _ = writeln!(out, "ctmc states: {}", solved.ctmc().num_states());

            let pi = solved.steady_state()?;
            let run = solved.simulate_occupancy(*horizon, &opts);
            let _ = writeln!(out, "occupancy vs steady state (horizon {horizon}):");
            out.push_str(&comparison_table(&pi, &run, opts.abs_width));
            out.push_str(&SimStats::from(&run).render());
            account(&run, &mut out);

            if let Some(t) = time {
                let exact = solved.transient(*t)?;
                let run_t = solved.simulate_transient(*t, &opts);
                let _ = writeln!(out, "transient vs uniformization (t = {t}):");
                out.push_str(&comparison_table(&exact, &run_t, opts.abs_width));
                out.push_str(&SimStats::from(&run_t).render());
                account(&run_t, &mut out);
            }
            if *scheduler == Scheduler::Bounds {
                let bounds = perf.solve_bounds(&probe_refs)?;
                out.push_str(&occupancy_bounds_table(&solved, &bounds, &run, opts.abs_width)?);
            }
            if status == CmdStatus::NotConverged {
                let _ = writeln!(
                    out,
                    "error: the CI-width stopping rule was not met within \
                     {trajectories} trajectories; raise --trajectories or \
                     loosen --rel-width"
                );
            }
            Ok(CmdOut::with_status(out, status))
        }
    }
}

/// Renders a numerical-vs-simulated comparison with a per-state CI verdict
/// and a closing agreement line. `slack` widens the interval by a small
/// absolute margin (finite-horizon bias of occupancy estimates).
fn comparison_table(exact: &[f64], run: &multival_ctmc::McRun, slack: f64) -> String {
    let mut t = Table::new(&["state", "numerical", "simulated", "half-width", "inside CI"]);
    let mut agree = 0usize;
    for (s, (&want, e)) in exact.iter().zip(&run.estimates).enumerate() {
        let inside = (e.mean - want).abs() <= e.half_width + slack;
        agree += usize::from(inside);
        if s < 20 {
            t.row_owned(vec![
                s.to_string(),
                format!("{want:.6}"),
                format!("{:.6}", e.mean),
                format!("{:.6}", e.half_width),
                if inside { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    let mut out = t.render();
    if exact.len() > 20 {
        let _ = writeln!(out, "... ({} states total)", exact.len());
    }
    let _ = writeln!(out, "agreement: {agree}/{} estimates inside their CI", exact.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_explore() {
        let cmd = parse_args(&args(&["explore", "m.lot", "--aut", "o.aut"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Explore {
                input: "m.lot".into(),
                aut: Some("o.aut".into()),
                blts: None,
                dot: None,
                budget: Budget::default(),
                on_the_fly: false,
                mem_budget: None,
            }
        );
    }

    #[test]
    fn parses_explore_threads() {
        // State-space verbs are sequential: `--threads` is not an option.
        for verb in [&["explore", "m.lot"][..], &["reduce", "m.lot"], &["fuzz"]] {
            let mut argv = verb.to_vec();
            argv.extend(["--threads", "2"]);
            let err = parse_args(&args(&argv)).expect_err("--threads is rejected");
            assert!(err.contains("unexpected argument `--threads`"), "{err}");
        }
    }

    #[test]
    fn parses_fuzz() {
        let cmd = parse_args(&args(&["fuzz"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Fuzz {
                seeds: (0, 16),
                corpus: None,
                budget: Budget::default(),
                max_steps: 7,
                max_colors: 2,
                max_cap: 2,
                inject_flip: false,
                mem_budget: None,
            }
        );
        let cmd = parse_args(&args(&[
            "fuzz",
            "--seeds",
            "5..64",
            "--corpus",
            "corp",
            "--max-states",
            "1000",
            "--timeout-secs",
            "30",
            "--max-steps",
            "9",
            "--max-colors",
            "3",
            "--max-cap",
            "1",
            "--inject-flip",
            "--mem-budget",
            "4k",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Fuzz {
                seeds: (5, 64),
                corpus: Some("corp".into()),
                budget: Budget::default().with_max_states(1000).with_timeout_secs(30),
                max_steps: 9,
                max_colors: 3,
                max_cap: 1,
                inject_flip: true,
                mem_budget: Some(4096),
            }
        );

        // Seed ranges must be well-formed and non-empty.
        assert!(parse_args(&args(&["fuzz", "--seeds", "7"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--seeds", "9..9"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--seeds", "a..b"])).is_err());
        assert!(parse_args(&args(&["fuzz", "stray"])).is_err());
    }

    #[test]
    fn parses_on_the_fly_flags() {
        let cmd = parse_args(&args(&["explore", "m.lot", "--on-the-fly"])).expect("parses");
        assert!(matches!(cmd, Command::Explore { on_the_fly: true, .. }));
        let cmd =
            parse_args(&args(&["check", "m.lot", "formula", "--on-the-fly"])).expect("parses");
        assert!(matches!(cmd, Command::Check { on_the_fly: true, .. }));
        let cmd =
            parse_args(&args(&["compare", "a.lot", "b.lot", "--eq", "traces", "--on-the-fly"]))
                .expect("parses");
        assert!(matches!(
            cmd,
            Command::Compare { relation: Relation::Traces, on_the_fly: true, .. }
        ));

        // The flag conflicts with output files (nothing is materialized to
        // write) and with the bisimulations (they need explicit LTSs).
        assert!(parse_args(&args(&["explore", "m.lot", "--on-the-fly", "--aut", "o.aut"])).is_err());
        assert!(parse_args(&args(&["explore", "m.lot", "--on-the-fly", "--dot", "o.dot"])).is_err());
        assert!(parse_args(&args(&["compare", "a.lot", "b.lot", "--on-the-fly"])).is_err());
        assert!(parse_args(&args(&[
            "compare",
            "a.lot",
            "b.lot",
            "--eq",
            "strong",
            "--on-the-fly"
        ]))
        .is_err());
    }

    #[test]
    fn on_the_fly_commands_execute() {
        let dir = std::env::temp_dir().join("multival-cli-test5");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("fly.lot");
        std::fs::write(&model, "behaviour hide m in (a; m; stop |[m]| m; b; stop)").expect("write");
        let model = model.to_string_lossy().into_owned();

        let out = execute(&Command::Explore {
            input: model.clone(),
            aut: None,
            blts: None,
            dot: None,
            budget: Budget::default().with_max_states(1000),
            on_the_fly: true,
            mem_budget: None,
        })
        .expect("explore");
        assert!(out.contains("visited states       4"), "{out}");
        assert!(out.contains("materialized states  0"), "{out}");
        assert!(out.contains("deadlock states: 1"), "{out}");

        // In-fragment formula: decided by the search, with a trace.
        let out = execute(&Command::Check {
            input: model.clone(),
            formula: "mu X. <\"b\"> true or <true> X".into(),
            rates: Vec::new(),
            probes: Vec::new(),
            scheduler: Scheduler::Uniform,
            on_the_fly: true,
            budget: Budget::default(),
        })
        .expect("check");
        assert!(out.starts_with("TRUE"), "{out}");
        assert!(out.contains("witness trace:"), "{out}");
        assert!(out.contains("materialized states  0"), "{out}");

        // Out-of-fragment formula: falls back to the eager evaluator.
        let out = execute(&Command::Check {
            input: model.clone(),
            formula: "<\"a\"> true".into(),
            rates: Vec::new(),
            probes: Vec::new(),
            scheduler: Scheduler::Uniform,
            on_the_fly: true,
            budget: Budget::default(),
        })
        .expect("check");
        assert!(out.contains("outside the on-the-fly fragment"), "{out}");
        assert!(out.contains("TRUE"), "{out}");

        // Trace comparison straight from the term graphs.
        let plain = dir.join("plain.lot");
        std::fs::write(&plain, "behaviour a; b; stop").expect("write");
        let plain = plain.to_string_lossy().into_owned();
        let out = execute(&Command::Compare {
            left: model.clone(),
            right: plain.clone(),
            relation: Relation::Traces,
            on_the_fly: true,
        })
        .expect("compare");
        assert!(out.starts_with("EQUIVALENT"), "{out}");

        let other = dir.join("other.lot");
        std::fs::write(&other, "behaviour a; c; stop").expect("write");
        let other = other.to_string_lossy().into_owned();
        let out = execute(&Command::Compare {
            left: plain,
            right: other,
            relation: Relation::Traces,
            on_the_fly: true,
        })
        .expect("compare");
        assert!(out.starts_with("NOT EQUIVALENT"), "{out}");
        assert!(out.contains("distinguishing trace:"), "{out}");
    }

    #[test]
    fn parses_solve_rates() {
        let cmd = parse_args(&args(&[
            "solve", "m.lot", "--rate", "put=2.5", "--rate", "get=1", "--probe", "get",
        ]))
        .expect("parses");
        match cmd {
            Command::Solve { rates, probes, .. } => {
                assert_eq!(rates.len(), 2);
                assert_eq!(rates[0], ("put".to_owned(), 2.5));
                assert_eq!(probes, vec!["get"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_simulate() {
        let cmd = parse_args(&args(&[
            "simulate",
            "m.lot",
            "--rate",
            "put=2.5",
            "--horizon",
            "50",
            "--time",
            "3",
            "--trajectories",
            "1000",
            "--seed",
            "7",
            "--threads",
            "4",
            "--rel-width",
            "0.1",
            "--confidence",
            "0.95",
        ]))
        .expect("parses");
        match cmd {
            Command::Simulate {
                input,
                rates,
                horizon,
                time,
                trajectories,
                seed,
                threads,
                rel_width,
                confidence,
                ..
            } => {
                assert_eq!(input, "m.lot");
                assert_eq!(rates, vec![("put".to_owned(), 2.5)]);
                assert_eq!(horizon, 50.0);
                assert_eq!(time, Some(3.0));
                assert_eq!(trajectories, 1000);
                assert_eq!(seed, 7);
                assert_eq!(threads, 4);
                assert_eq!(rel_width, 0.1);
                assert_eq!(confidence, 0.95);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A rate is required, and confidence must lie strictly inside (0, 1).
        assert!(parse_args(&args(&["simulate", "m.lot"])).is_err());
        assert!(parse_args(&args(&["simulate", "m.lot", "--rate", "a=1", "--confidence", "1.0"]))
            .is_err());
    }

    #[test]
    fn parses_check_performance_flags() {
        let cmd = parse_args(&args(&[
            "check",
            "m.lot",
            "throughput(done) >= 2",
            "--rate",
            "fast=4",
            "--rate",
            "slow=1",
            "--probe",
            "done",
            "--scheduler",
            "bounds",
        ]))
        .expect("parses");
        match cmd {
            Command::Check { formula, rates, probes, scheduler, .. } => {
                assert_eq!(formula, "throughput(done) >= 2");
                assert_eq!(rates.len(), 2);
                assert_eq!(probes, vec!["done"]);
                assert_eq!(scheduler, Scheduler::Bounds);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Scheduler/probe flags imply performance mode, which needs rates.
        assert!(parse_args(&args(&["check", "m.lot", "f", "--scheduler", "min"])).is_err());
        assert!(parse_args(&args(&["check", "m.lot", "f", "--probe", "g"])).is_err());
        // Unknown scheduler values are rejected.
        assert!(parse_args(&args(&[
            "check",
            "m.lot",
            "f",
            "--rate",
            "a=1",
            "--scheduler",
            "median"
        ]))
        .is_err());
        // Performance mode conflicts with --on-the-fly.
        assert!(
            parse_args(&args(&["check", "m.lot", "f", "--rate", "a=1", "--on-the-fly"])).is_err()
        );
        // simulate rejects one-sided schedulers; bounds parses.
        assert!(parse_args(&args(&["simulate", "m.lot", "--rate", "a=1", "--scheduler", "min"]))
            .is_err());
        let cmd =
            parse_args(&args(&["simulate", "m.lot", "--rate", "a=1", "--scheduler", "bounds"]))
                .expect("parses");
        assert!(matches!(cmd, Command::Simulate { scheduler: Scheduler::Bounds, .. }));
    }

    #[test]
    fn parses_perf_predicates() {
        let p = parse_perf_predicate("throughput(push) >= 0.5").expect("parses");
        assert_eq!(p.measure, Measure::Throughput("push".into()));
        assert_eq!(p.cmp, Cmp::Ge);
        assert_eq!(p.threshold, 0.5);
        assert_eq!(p.measure.to_string(), "throughput(push)");

        let p = parse_perf_predicate("occupancy(1, 2) <= 0.8").expect("parses");
        assert_eq!(p.measure, Measure::Occupancy(vec![1, 2]));
        assert_eq!(p.cmp, Cmp::Le);

        let p = parse_perf_predicate("latency(3) <= 2").expect("parses");
        assert_eq!(p.measure, Measure::Latency(vec![3]));

        let p = parse_perf_predicate("transient(3,4 @ 0.5) >= 0.9").expect("parses");
        assert_eq!(p.measure, Measure::Transient(vec![3, 4], 0.5));
        assert_eq!(p.measure.to_string(), "transient(3,4 @ 0.5)");

        assert!(parse_perf_predicate("throughput(push) == 1").is_err());
        assert!(parse_perf_predicate("speed(push) >= 1").is_err());
        assert!(parse_perf_predicate("throughput(a,b) >= 1").is_err());
        assert!(parse_perf_predicate("occupancy() >= 1").is_err());
        assert!(parse_perf_predicate("transient(1) >= 0.5").is_err());
        assert!(parse_perf_predicate("latency(x) <= 2").is_err());
        assert!(parse_perf_predicate("latency(1) <= fast").is_err());
    }

    /// Two τ-guarded service paths: after hiding, the initial state picks
    /// internally between an exp(4) and an exp(1) round, each ending in the
    /// (instantaneous) probe `done`.
    const ARBITER: &str = "process Arb[pa, pb, fast, slow, done] :=
            pa; fast; done; Arb[pa, pb, fast, slow, done]
         [] pb; slow; done; Arb[pa, pb, fast, slow, done]
         endproc
         behaviour Arb[pa, pb, fast, slow, done]";

    #[test]
    fn check_performance_quantifies_schedulers() {
        let dir = std::env::temp_dir().join("multival-cli-test8");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("arbiter.lot");
        std::fs::write(&model, ARBITER).expect("write");
        let model = model.to_string_lossy().into_owned();

        let check = |formula: &str, scheduler: Scheduler| {
            execute(&Command::Check {
                input: model.clone(),
                formula: formula.into(),
                rates: vec![("fast".to_owned(), 4.0), ("slow".to_owned(), 1.0)],
                probes: vec!["done".to_owned()],
                scheduler,
                on_the_fly: false,
                budget: Budget::default(),
            })
            .expect("check")
        };

        // Uniform resolution: mean round 0.5·(1/4) + 0.5·1 → throughput 1.6.
        let out = check("throughput(done) >= 2", Scheduler::Uniform);
        assert_eq!(out.status, CmdStatus::Ok);
        assert!(out.contains("FALSE"), "{out}");
        assert!(out.contains("1.6000"), "{out}");

        // Worst case 1, best case 4: the interval straddles 2 → exit 2.
        let out = check("throughput(done) >= 2", Scheduler::Bounds);
        assert_eq!(out.status, CmdStatus::NotConverged);
        assert!(out.contains("NO VERDICT"), "{out}");
        assert!(out.contains("1.0000"), "{out}");
        assert!(out.contains("4.0000"), "{out}");
        assert!(out.contains("ctmdp states:"), "{out}");

        // One-sided quantification gives a definite verdict on each side.
        let out = check("throughput(done) >= 2", Scheduler::Min);
        assert_eq!(out.status, CmdStatus::Ok);
        assert!(out.contains("FALSE"), "{out}");
        let out = check("throughput(done) >= 2", Scheduler::Max);
        assert!(out.contains("TRUE"), "{out}");

        // A threshold below the whole interval holds for every scheduler.
        let out = check("throughput(done) >= 0.5", Scheduler::Bounds);
        assert_eq!(out.status, CmdStatus::Ok);
        assert!(out.contains("TRUE"), "{out}");
    }

    #[test]
    fn check_performance_measures_on_a_deterministic_model() {
        let dir = std::env::temp_dir().join("multival-cli-test9");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("buf.lot");
        std::fs::write(
            &model,
            "process Buf[put, get](full: bool) :=
                 [not full] -> put; Buf[put, get](true)
              [] [full] -> get; Buf[put, get](false)
             endproc
             behaviour Buf[put, get](false)",
        )
        .expect("write");
        let model = model.to_string_lossy().into_owned();

        let check = |formula: &str, scheduler: Scheduler| {
            execute(&Command::Check {
                input: model.clone(),
                formula: formula.into(),
                rates: vec![("put".to_owned(), 2.0), ("get".to_owned(), 1.0)],
                probes: Vec::new(),
                scheduler,
                on_the_fly: false,
                budget: Budget::default(),
            })
            .expect("check")
        };

        // Functional state 1 (full) holds exp(1): occupied 2/3 of the time.
        let out = check("occupancy(1) >= 0.5", Scheduler::Uniform);
        assert!(out.contains("TRUE"), "{out}");
        assert!(out.contains("0.6667"), "{out}");
        // No nondeterminism: the interval is a point with the same verdict.
        let out = check("occupancy(1) >= 0.5", Scheduler::Bounds);
        assert_eq!(out.status, CmdStatus::Ok);
        assert!(out.contains("TRUE"), "{out}");

        // Expected first fill takes 1/put = 0.5.
        let out = check("latency(1) <= 0.6", Scheduler::Bounds);
        assert!(out.contains("TRUE"), "{out}");
        assert!(out.contains("0.5000"), "{out}");

        // P(full by t = 0.3) = 1 − e^{−0.6} ≈ 0.4512.
        let out = check("transient(1 @ 0.3) >= 0.5", Scheduler::Bounds);
        assert!(out.contains("FALSE"), "{out}");
        let out = check("transient(1 @ 0.3) >= 0.4", Scheduler::Uniform);
        assert!(out.contains("TRUE"), "{out}");
    }

    #[test]
    fn simulate_executes_and_is_thread_invariant() {
        let dir = std::env::temp_dir().join("multival-cli-test5");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("sim.lot");
        std::fs::write(
            &model,
            "process Buf[put, get](full: bool) :=
                 [not full] -> put; Buf[put, get](true)
              [] [full] -> get; Buf[put, get](false)
             endproc
             behaviour Buf[put, get](false)",
        )
        .expect("write");
        let model = model.to_string_lossy().into_owned();

        let run = |threads: usize| {
            execute(&Command::Simulate {
                input: model.clone(),
                rates: vec![("put".to_owned(), 2.0), ("get".to_owned(), 3.0)],
                probes: Vec::new(),
                horizon: 80.0,
                time: Some(1.5),
                trajectories: 2048,
                seed: 11,
                threads,
                rel_width: 0.05,
                confidence: 0.99,
                budget: Budget::default(),
                scheduler: Scheduler::Bounds,
            })
            .expect("simulate")
        };
        let out = run(1);
        assert!(out.contains("ctmc states: 2"), "{out}");
        assert!(out.contains("occupancy vs steady state"), "{out}");
        assert!(out.contains("transient vs uniformization"), "{out}");
        // Every estimate must agree with the numerical answer.
        assert!(out.contains("agreement: 2/2"), "{out}");
        // --scheduler bounds adds the interval cross-check; a deterministic
        // model collapses it onto the steady state, and the sampled
        // estimates must fall inside.
        assert!(out.contains("occupancy scheduler bounds"), "{out}");
        assert!(out.contains("bounds agreement: 2/2"), "{out}");
        assert!(!out.contains("NO"), "{out}");

        // Estimates depend on the seed only: threads=4 gives bit-identical
        // output once the timing lines are stripped.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| {
                    !l.contains("wall-clock")
                        && !l.contains("trajectories/sec")
                        && !l.contains("threads")
                        // Separator width tracks the widest (timed) cell.
                        && !l.chars().all(|c| c == '-')
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&out), strip(&run(4)));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&args(&["explode"])).is_err());
        assert!(parse_args(&args(&["check", "m.lot"])).is_err());
        assert!(parse_args(&args(&["solve", "m.lot"])).is_err());
        assert!(parse_args(&args(&["compare", "a.aut"])).is_err());
        assert!(parse_args(&args(&["solve", "m.lot", "--rate", "nope"])).is_err());
        assert!(matches!(parse_args(&args(&[])), Ok(Command::Help)));
    }

    #[test]
    fn lint_command_reports_findings() {
        let dir = std::env::temp_dir().join("multival-cli-test3");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("lint.lot");
        std::fs::write(&model, "behaviour (a; stop) |[a, ghost]| (a; stop)").expect("write");
        let model = model.to_string_lossy().into_owned();
        let cmd = parse_args(&args(&["lint", &model])).expect("parses");
        let out = execute(&cmd).expect("lints");
        assert!(out.contains("ghost"), "{out}");
        assert!(out.contains("blocks forever"), "{out}");
    }

    #[test]
    fn parses_walk_and_refines() {
        let cmd =
            parse_args(&args(&["walk", "m.lot", "--steps", "5", "--seed", "7"])).expect("parses");
        assert_eq!(cmd, Command::Walk { input: "m.lot".into(), steps: 5, seed: 7 });
        let cmd = parse_args(&args(&["refines", "a.aut", "b.aut", "--weak"])).expect("parses");
        assert_eq!(cmd, Command::Refines { imp: "a.aut".into(), spec: "b.aut".into(), weak: true });
        assert!(parse_args(&args(&["refines", "only-one"])).is_err());
    }

    #[test]
    fn walk_and_refines_execute() {
        let dir = std::env::temp_dir().join("multival-cli-test2");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let imp = dir.join("imp.lot");
        let spec = dir.join("spec.lot");
        std::fs::write(&imp, "behaviour a; b; stop").expect("write");
        std::fs::write(&spec, "behaviour a; (b; stop [] c; stop)").expect("write");
        let imp = imp.to_string_lossy().into_owned();
        let spec = spec.to_string_lossy().into_owned();

        let out = execute(&Command::Walk { input: imp.clone(), steps: 10, seed: 1 }).expect("walk");
        assert!(out.contains("--a-->"), "{out}");
        assert!(out.contains("DEADLOCK"), "chain ends: {out}");
        // Reproducibility.
        let again =
            execute(&Command::Walk { input: imp.clone(), steps: 10, seed: 1 }).expect("walk");
        assert_eq!(out, again);

        let ok = execute(&Command::Refines { imp: imp.clone(), spec: spec.clone(), weak: false })
            .expect("refines");
        assert!(ok.starts_with("REFINES"), "{ok}");
        let not =
            execute(&Command::Refines { imp: spec, spec: imp, weak: false }).expect("refines");
        assert!(not.starts_with("DOES NOT"), "{not}");
    }

    #[test]
    fn parses_reduce() {
        use multival_lts::pipeline::Order;
        let cmd = parse_args(&args(&["reduce", "m.lot"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Reduce {
                input: "m.lot".into(),
                eq: Equivalence::Branching,
                order: Order::Smart,
                aut: None,
                blts: None,
                checkpoint: None,
                budget: Budget::default(),
                mem_budget: None,
            }
        );
        let cmd = parse_args(&args(&[
            "reduce",
            "m.lot",
            "--eq",
            "strong",
            "--order",
            "seed:42",
            "--aut",
            "out.aut",
            "--checkpoint",
            "ckpt",
            "--max-states",
            "100",
            "--blts",
            "out.blts",
            "--mem-budget",
            "64m",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Reduce {
                input: "m.lot".into(),
                eq: Equivalence::Strong,
                order: Order::Seeded(42),
                aut: Some("out.aut".into()),
                blts: Some("out.blts".into()),
                checkpoint: Some("ckpt".into()),
                budget: Budget::default().with_max_states(100),
                mem_budget: Some(64 << 20),
            }
        );
        assert!(parse_args(&args(&["reduce", "m.lot", "--order", "bogus"])).is_err());
        assert!(parse_args(&args(&["reduce"])).is_err());
    }

    #[test]
    fn parses_store_flags() {
        let cmd = parse_args(&args(&["explore", "m.lot", "--mem-budget", "512k"])).expect("parses");
        assert!(matches!(cmd, Command::Explore { mem_budget: Some(524_288), .. }));
        // Plain bytes and every suffix case parse; garbage does not.
        assert_eq!(parse_mem("123"), Ok(123));
        assert_eq!(parse_mem("2K"), Ok(2048));
        assert_eq!(parse_mem("3g"), Ok(3 << 30));
        assert!(parse_mem("").is_err());
        assert!(parse_mem("12q").is_err());
        assert!(parse_mem("m").is_err());
        // The scan keeps no state table, so a memory budget conflicts with it.
        assert!(
            parse_args(&args(&["explore", "m.lot", "--on-the-fly", "--mem-budget", "1m"])).is_err()
        );
        assert!(
            parse_args(&args(&["explore", "m.lot", "--on-the-fly", "--blts", "o.blts"])).is_err()
        );
    }

    /// A three-component buffer chain whose interior gates are hidden.
    const CHAIN_NET: &str = "process Gen[a, m] := a; m; Gen[a, m] endproc
         process Buf[m, n] := m; n; Buf[m, n] endproc
         process Sink[n, b] := n; b; Sink[n, b] endproc
         behaviour hide m, n in ( Gen[a, m] |[m]| ( Buf[m, n] |[n]| Sink[n, b] ) )";

    #[test]
    fn reduce_executes_canonically_and_trips_its_budget() {
        use multival_lts::pipeline::Order;
        let dir = std::env::temp_dir().join("multival-cli-test6");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("chain.lot");
        std::fs::write(&model, CHAIN_NET).expect("write");
        let model = model.to_string_lossy().into_owned();

        let reduce = |order: Order, aut: &str| Command::Reduce {
            input: model.clone(),
            eq: Equivalence::Branching,
            order,
            aut: Some(dir.join(aut).to_string_lossy().into_owned()),
            blts: None,
            checkpoint: None,
            budget: Budget::default(),
            mem_budget: None,
        };
        let out = execute(&reduce(Order::Smart, "smart.aut")).expect("reduce");
        assert_eq!(out.status, CmdStatus::Ok);
        assert!(out.contains("Gen"), "{}", out.text);
        assert!(out.contains("peak intermediate states:"), "{}", out.text);
        assert!(out.contains("reduced:"), "{}", out.text);

        // Every order must produce byte-identical output.
        execute(&reduce(Order::Given, "given.aut")).expect("reduce");
        execute(&reduce(Order::Seeded(9), "seeded.aut")).expect("reduce");
        let smart = std::fs::read(dir.join("smart.aut")).expect("read");
        assert!(!smart.is_empty());
        assert_eq!(smart, std::fs::read(dir.join("given.aut")).expect("read"));
        assert_eq!(smart, std::fs::read(dir.join("seeded.aut")).expect("read"));

        // A one-state cap trips before any product materializes: partial
        // report, budget exit status.
        let out = execute(&Command::Reduce {
            input: model.clone(),
            eq: Equivalence::Branching,
            order: Order::Smart,
            aut: None,
            blts: None,
            checkpoint: None,
            budget: Budget::default().with_max_states(1),
            mem_budget: None,
        })
        .expect("reduce");
        assert_eq!(out.status, CmdStatus::BudgetExceeded);
        assert!(out.contains("Budget exceeded"), "{}", out.text);

        // A .aut input has no component network to reduce.
        let aut_path = dir.join("smart.aut").to_string_lossy().into_owned();
        let err = execute(&Command::Reduce {
            input: aut_path,
            eq: Equivalence::Branching,
            order: Order::Smart,
            aut: None,
            blts: None,
            checkpoint: None,
            budget: Budget::default(),
            mem_budget: None,
        })
        .expect_err("rejects .aut input");
        assert!(err.to_string().contains("parallel structure"), "{err}");
    }

    #[test]
    fn reduce_resumes_from_its_checkpoint() {
        use multival_lts::pipeline::Order;
        let dir = std::env::temp_dir().join("multival-cli-test7");
        // A stale checkpoint from a previous test run must not leak in.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("chain.lot");
        std::fs::write(&model, CHAIN_NET).expect("write");
        let model = model.to_string_lossy().into_owned();
        let ckpt = dir.join("ckpt").to_string_lossy().into_owned();

        let cmd = Command::Reduce {
            input: model,
            eq: Equivalence::Branching,
            order: Order::Smart,
            aut: None,
            blts: None,
            checkpoint: Some(ckpt),
            budget: Budget::default(),
            mem_budget: None,
        };
        let first = execute(&cmd).expect("reduce");
        assert!(!first.contains("resumed"), "{}", first.text);
        let second = execute(&cmd).expect("reduce");
        assert!(second.contains("resumed"), "{}", second.text);
        // The resumed run reports the same reduction.
        let tail = |s: &str| s.lines().rfind(|l| l.starts_with("reduced:")).map(str::to_owned);
        assert_eq!(tail(&first), tail(&second));
    }

    #[test]
    fn threaded_explore_reports_stats_and_partial_work() {
        let dir = std::env::temp_dir().join("multival-cli-test4");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("grid.lot");
        std::fs::write(
            &model,
            "process Count[tick](n: int 0..40) :=
                 [n < 40] -> tick; Count[tick](n + 1)
             endproc
             behaviour Count[tick](0) ||| Count[tick](0)",
        )
        .expect("write");
        let model = model.to_string_lossy().into_owned();

        // A full run reports the whole state space.
        let out = execute(&Command::Explore {
            input: model.clone(),
            aut: None,
            blts: None,
            dot: None,
            budget: Budget::default().with_max_states(10_000),
            on_the_fly: false,
            mem_budget: None,
        })
        .expect("explore");
        assert!(out.contains("states: 1681"), "{out}");
        assert!(!out.contains("warning"), "{out}");

        // A cap abort reports the partial state space instead of discarding it.
        let out = execute(&Command::Explore {
            input: model,
            aut: None,
            blts: None,
            dot: None,
            budget: Budget::default().with_max_states(100),
            on_the_fly: false,
            mem_budget: None,
        })
        .expect("partial result, not an error");
        assert!(out.contains("warning: exploration aborted"), "{out}");
        assert!(out.contains("states: 100"), "{out}");
    }

    #[test]
    fn end_to_end_on_temp_files() {
        let dir = std::env::temp_dir().join("multival-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("buf.lot");
        std::fs::write(
            &model,
            "process Buf[put, get](full: bool) :=
                 [not full] -> put; Buf[put, get](true)
              [] [full] -> get; Buf[put, get](false)
             endproc
             behaviour Buf[put, get](false)",
        )
        .expect("write");
        let model = model.to_string_lossy().into_owned();
        let aut = dir.join("buf.aut").to_string_lossy().into_owned();

        // explore → .aut
        let out = execute(&Command::Explore {
            input: model.clone(),
            aut: Some(aut.clone()),
            blts: None,
            dot: None,
            budget: Budget::default().with_max_states(1000),
            on_the_fly: false,
            mem_budget: None,
        })
        .expect("explore");
        assert!(out.contains("states: 2"));

        // check on both the model and the exported .aut
        for input in [&model, &aut] {
            let out = execute(&Command::Check {
                input: input.clone(),
                formula: "nu X. <true> true and [true] X".into(),
                rates: Vec::new(),
                probes: Vec::new(),
                scheduler: Scheduler::Uniform,
                on_the_fly: false,
                budget: Budget::default(),
            })
            .expect("check");
            assert!(out.starts_with("TRUE"), "{out}");
        }

        // minimize the aut
        let out =
            execute(&Command::Minimize { input: aut.clone(), eq: Equivalence::Strong, aut: None })
                .expect("minimize");
        assert!(out.contains("2 states"));

        // compare model against its own export
        let out = execute(&Command::Compare {
            left: model.clone(),
            right: aut.clone(),
            relation: Relation::Strong,
            on_the_fly: false,
        })
        .expect("compare");
        assert!(out.starts_with("EQUIVALENT"));

        // solve with throughput probe
        let out = execute(&Command::Solve {
            input: model,
            rates: vec![("put".into(), 2.0), ("get".into(), 1.0)],
            probes: vec!["get".into()],
        })
        .expect("solve");
        assert!(out.contains("0.6667"), "{out}");
    }
}
