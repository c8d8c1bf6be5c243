//! Job requests: the JSON surface of `POST /v1/jobs`, their canonical form
//! (the cache key), and their evaluation against the flow engines.
//!
//! A request names a *kind* (`explore`, `check`, `steady`, `transient`,
//! `simulate`, `bounds`, `reduce`), a *model* (a built-in case study, an inline mini-LOTOS
//! `source`, or an uploaded Aldebaran `aut` text), and kind-specific
//! parameters. Canonicalization fills every default in and sorts object
//! keys, so two requests that mean the same thing hash to the same cache
//! key regardless of member order or omitted fields.
//!
//! Evaluation is deterministic: results carry no timestamps, job ids, or
//! wall-clock readings, and the Monte-Carlo engine is bit-identical across
//! thread counts, so the same canonical request always produces the same
//! response body — the property the content-addressed cache rests on.

use crate::json::{parse, Json};
use multival::budget::{read_aut_capped, Budget};
use multival::flow::Flow;
use multival::imc::NondetPolicy;
use multival_ctmc::McOptions;
use multival_lts::minimize::Equivalence;
use multival_lts::pipeline::{run_pipeline, Order, PipelineOptions};
use multival_lts::Lts;
use multival_models::common::explore_model;
use multival_models::fame2::coherence::Protocol;
use multival_models::fame2::mpi::{MpiConfig, MpiImpl, MpiModel};
use multival_models::fame2::topology::Topology;
use multival_models::faust::noc::single_packet_source;
use multival_models::xstream::perf::{analyze_with_delays, explore_pipeline, PerfConfig};
use multival_pa::{explore_partial, parse_spec, ExploreOptions};
use multival_par::Workers;
use std::collections::HashMap;

/// What the job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// State-space statistics (states, transitions, deadlocks).
    Explore,
    /// μ-calculus model checking (`formula` required).
    Check,
    /// Steady-state distribution and probe throughputs (`rates` required).
    Steady,
    /// Transient distribution at `time` (`rates` required).
    Transient,
    /// Monte-Carlo occupancy estimation (`rates` required).
    Simulate,
    /// Scheduler-quantified throughput bounds over every resolution of the
    /// model's nondeterminism (`rates` required): min/max per probe via the
    /// lifted CTMDP.
    Bounds,
    /// Compositional smart reduction over the model's component network
    /// (inline `source` models only).
    Reduce,
    /// One point of a design-space sweep over the xSTream pipeline: a full
    /// pipeline configuration (capacities, stage rates, transfer-delay
    /// style, scheduler) evaluated to throughput/latency/occupancy plus the
    /// fit accuracy of the transfer delay against an ideal deterministic
    /// transfer (`sweep` object required, `model.builtin` must be
    /// `xstream_pipeline`). The `explore-space` driver expands a sweep spec
    /// into many of these, so shared points cache and coalesce.
    Sweep,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Explore => "explore",
            Kind::Check => "check",
            Kind::Steady => "steady",
            Kind::Transient => "transient",
            Kind::Simulate => "simulate",
            Kind::Bounds => "bounds",
            Kind::Reduce => "reduce",
            Kind::Sweep => "sweep",
        }
    }
}

/// The transfer-delay axis of a sweep point: how the NoC transfer stage is
/// modeled. Written `exponential`, `erlang:K`, or `det:TOL` in requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepDelay {
    /// Memoryless transfer at the configured rate (Erlang order 1).
    Exponential,
    /// Hand-picked Erlang order k at the configured mean.
    Erlang {
        /// Number of phases k ≥ 1.
        k: u32,
    },
    /// Deterministic transfer auto-fitted by `ctmc::phfit` to the stated
    /// sup-CDF tolerance — the driver's "state the delay and the accuracy"
    /// mode.
    Deterministic {
        /// Sup-CDF tolerance in (0, 1).
        tol: f64,
    },
}

impl SweepDelay {
    /// The canonical request/axis syntax (`det:5e-2` parses, `det:0.05`
    /// is what canonicalization and result bodies emit).
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            SweepDelay::Exponential => "exponential".to_owned(),
            SweepDelay::Erlang { k } => format!("erlang:{k}"),
            SweepDelay::Deterministic { tol } => format!("det:{tol}"),
        }
    }

    /// Parses the axis syntax.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown styles or out-of-range parameters.
    pub fn parse(s: &str) -> Result<SweepDelay, String> {
        if s == "exponential" {
            return Ok(SweepDelay::Exponential);
        }
        if let Some(k) = s.strip_prefix("erlang:") {
            let k: u32 = k.parse().map_err(|_| format!("bad Erlang order in `{s}`"))?;
            if k == 0 || k > 4096 {
                return Err(format!("Erlang order must be in 1..=4096, got {k}"));
            }
            return Ok(SweepDelay::Erlang { k });
        }
        if let Some(t) = s.strip_prefix("det:") {
            let tol: f64 = t.parse().map_err(|_| format!("bad tolerance in `{s}`"))?;
            if !(tol > 0.0 && tol < 1.0) {
                return Err(format!("tolerance must be in (0, 1), got {tol}"));
            }
            return Ok(SweepDelay::Deterministic { tol });
        }
        Err(format!("unknown delay `{s}` (expected exponential, erlang:K, or det:TOL)"))
    }
}

/// The scheduler axis of a sweep point. `min`/`max` report the endpoint of
/// the scheduler-quantified throughput interval (via the lifted CTMDP);
/// on the nondeterminism-free pipeline all three coincide — computed
/// honestly, not assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepScheduler {
    /// Uniform resolution (the seed's policy).
    Uniform,
    /// Throughput-minimizing scheduler.
    Min,
    /// Throughput-maximizing scheduler.
    Max,
}

impl SweepScheduler {
    fn name(self) -> &'static str {
        match self {
            SweepScheduler::Uniform => "uniform",
            SweepScheduler::Min => "min",
            SweepScheduler::Max => "max",
        }
    }
}

/// One fully resolved sweep point: the pipeline configuration plus the
/// delay-style and scheduler axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Push-queue capacity (1..=16).
    pub push_capacity: u8,
    /// Pop-queue capacity (1..=16).
    pub pop_capacity: u8,
    /// Producer stage rate.
    pub producer_rate: f64,
    /// NoC transfer rate (mean transfer time is its reciprocal).
    pub transfer_rate: f64,
    /// Consumer stage rate.
    pub consumer_rate: f64,
    /// Credit-return rate.
    pub credit_rate: f64,
    /// Transfer-delay style.
    pub delay: SweepDelay,
    /// Scheduler policy.
    pub scheduler: SweepScheduler,
}

fn sweep_capacity(v: &Json, key: &str, default: u8) -> Result<u8, String> {
    match opt_uint(v, key)? {
        None => Ok(default),
        Some(x) if (1..=16).contains(&x) => Ok(x as u8),
        Some(x) => Err(format!("`{key}` must be in 1..=16, got {x}")),
    }
}

fn sweep_rate(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match opt_num(v, key)? {
        None => Ok(default),
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        Some(x) => Err(format!("`{key}` must be a positive rate, got {x}")),
    }
}

/// Where the model comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSource {
    /// A named built-in case study (see [`builtin_names`]).
    Builtin(String),
    /// Inline mini-LOTOS source text.
    Source(String),
    /// Inline Aldebaran `.aut` text.
    Aut(String),
}

/// A fully parsed job request with every default resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// What to compute.
    pub kind: Kind,
    /// The model under evaluation.
    pub model: ModelSource,
    /// μ-calculus formula (check only).
    pub formula: Option<String>,
    /// Gate → exponential rate (performance kinds).
    pub rates: Vec<(String, f64)>,
    /// Throughput probes (steady only).
    pub probes: Vec<String>,
    /// Transient evaluation time.
    pub time: f64,
    /// Occupancy horizon per trajectory (simulate).
    pub horizon: f64,
    /// Trajectory cap (simulate).
    pub trajectories: usize,
    /// Base RNG seed (simulate; estimates depend on this only).
    pub seed: u64,
    /// Equivalence minimized modulo at every stage (reduce).
    pub eq: Equivalence,
    /// Composition-order policy (reduce; the result never depends on it).
    pub order: Order,
    /// Resident-memory budget in bytes for the stage products' state
    /// stores, which spill to disk past it (reduce; the reduced LTS never
    /// depends on it).
    pub mem_budget: Option<usize>,
    /// Sweep-point parameters (sweep only).
    pub sweep: Option<SweepParams>,
    /// Resource budget (state cap + wall-clock limit).
    pub budget: Budget,
}

/// The names accepted by `{"model":{"builtin":...}}`, in stable order.
#[must_use]
pub fn builtin_names() -> [&'static str; 3] {
    ["xstream_pipeline", "fame2_ping_pong", "faust_single_packet"]
}

/// Materializes a built-in case study as an LTS.
///
/// # Errors
///
/// Returns a message for unknown names or (theoretical) exploration caps.
pub fn builtin_lts(name: &str) -> Result<Lts, String> {
    match name {
        "xstream_pipeline" => Ok(explore_pipeline(&PerfConfig::default())
            .map_err(|e| format!("xstream_pipeline: {e}"))?
            .lts),
        "fame2_ping_pong" => {
            let config = MpiConfig {
                topology: Topology::Crossbar(2),
                protocol: Protocol::Msi,
                implementation: MpiImpl::Eager,
                payload: 1,
            };
            Ok(explore_model(&MpiModel::ping_pong(config), 4_000_000)
                .map_err(|e| format!("fame2_ping_pong: {e}"))?
                .lts)
        }
        "faust_single_packet" => {
            let spec = parse_spec(&single_packet_source(3))
                .map_err(|e| format!("faust_single_packet: {e}"))?;
            let explored = explore_partial(&spec, &ExploreOptions::default());
            match explored.aborted {
                Some(e) => Err(format!("faust_single_packet: {e}")),
                None => Ok(explored.explored.lts),
            }
        }
        other => Err(format!(
            "unknown builtin model `{other}` (expected one of {})",
            builtin_names().join(", ")
        )),
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn opt_num(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(x)) => Ok(Some(*x)),
        Some(_) => Err(format!("`{key}` must be a number")),
    }
}

fn opt_uint(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match opt_num(v, key)? {
        None => Ok(None),
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2u64.pow(53) as f64 => Ok(Some(x as u64)),
        Some(x) => Err(format!("`{key}` must be a non-negative integer, got {x}")),
    }
}

impl JobRequest {
    /// Parses a request from JSON text, filling defaults.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_json_text(text: &str) -> Result<JobRequest, String> {
        let v = parse(text).map_err(|e| e.to_string())?;
        JobRequest::from_json(&v)
    }

    /// Parses a request from a JSON value, filling defaults.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_json(v: &Json) -> Result<JobRequest, String> {
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("explore") => Kind::Explore,
            Some("check") => Kind::Check,
            Some("steady") => Kind::Steady,
            Some("transient") => Kind::Transient,
            Some("simulate") => Kind::Simulate,
            Some("bounds") => Kind::Bounds,
            Some("reduce") => Kind::Reduce,
            Some("sweep") => Kind::Sweep,
            Some(other) => return Err(format!("unknown kind `{other}`")),
            None => return Err("`kind` is required".to_owned()),
        };
        let model_obj = v.get("model").ok_or("`model` is required")?;
        let model = match (
            opt_str(model_obj, "builtin")?,
            opt_str(model_obj, "source")?,
            opt_str(model_obj, "aut")?,
        ) {
            (Some(name), None, None) => ModelSource::Builtin(name),
            (None, Some(src), None) => ModelSource::Source(src),
            (None, None, Some(aut)) => ModelSource::Aut(aut),
            _ => {
                return Err("`model` must have exactly one of `builtin`, `source`, `aut`".to_owned())
            }
        };
        if kind == Kind::Reduce && !matches!(model, ModelSource::Source(_)) {
            return Err("kind `reduce` needs an inline `source` model: built-in and `aut` \
                 models are already flat LTSs with no parallel structure to reduce"
                .to_owned());
        }
        let formula = opt_str(v, "formula")?;
        if kind == Kind::Check && formula.is_none() {
            return Err("`formula` is required for kind `check`".to_owned());
        }
        let mut rates = Vec::new();
        if let Some(rv) = v.get("rates") {
            let Json::Obj(members) = rv else {
                return Err("`rates` must be an object of gate: rate".to_owned());
            };
            for (gate, rate) in members {
                let rate = rate.as_num().ok_or(format!("rate for `{gate}` must be a number"))?;
                if rate <= 0.0 {
                    return Err(format!("rate for `{gate}` must be positive"));
                }
                rates.push((gate.clone(), rate));
            }
        }
        // Canonical rate order is alphabetical, not submission order.
        rates.sort_by(|a, b| a.0.cmp(&b.0));
        rates.dedup_by(|a, b| a.0 == b.0);
        if matches!(kind, Kind::Steady | Kind::Transient | Kind::Simulate | Kind::Bounds)
            && rates.is_empty()
        {
            return Err(format!("`rates` is required for kind `{}`", kind.name()));
        }
        let mut probes = match v.get("probes") {
            None => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|p| p.as_str().map(str::to_owned).ok_or("probes must be strings"))
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("`probes` must be an array of strings".to_owned()),
        };
        probes.sort();
        probes.dedup();
        let time = opt_num(v, "time")?.unwrap_or(1.0);
        let horizon = opt_num(v, "horizon")?.unwrap_or(100.0);
        if !time.is_finite() || time < 0.0 || !horizon.is_finite() || horizon <= 0.0 {
            return Err("`time`/`horizon` must be finite and non-negative".to_owned());
        }
        let trajectories = opt_uint(v, "trajectories")?.unwrap_or(8192) as usize;
        let seed = opt_uint(v, "seed")?.unwrap_or(42);
        let eq = match opt_str(v, "eq")?.as_deref() {
            None | Some("branching") => Equivalence::Branching,
            Some("strong") => Equivalence::Strong,
            Some(other) => return Err(format!("unknown equivalence `{other}`")),
        };
        let order = match opt_str(v, "order")?.as_deref() {
            None | Some("smart") => Order::Smart,
            Some("given") => Order::Given,
            Some(other) => match other.strip_prefix("seed:").and_then(|s| s.parse().ok()) {
                Some(seed) => Order::Seeded(seed),
                None => {
                    return Err(format!(
                        "unknown order `{other}` (expected smart, given, or seed:N)"
                    ))
                }
            },
        };
        if v.get("store").is_some() {
            return Err("`store` is no longer a job parameter: there is one state store, \
                        and `mem_budget` alone makes it spill to disk"
                .to_owned());
        }
        let mem_budget = opt_uint(v, "mem_budget")?.map(|b| b as usize);
        let sweep = if kind == Kind::Sweep {
            if !matches!(&model, ModelSource::Builtin(n) if n == "xstream_pipeline") {
                return Err(
                    "kind `sweep` needs `model.builtin` = `xstream_pipeline`: sweep points \
                     are pipeline configurations"
                        .to_owned(),
                );
            }
            let sv = v.get("sweep").ok_or("`sweep` is required for kind `sweep`")?;
            let d = PerfConfig::default();
            Some(SweepParams {
                push_capacity: sweep_capacity(sv, "push_capacity", d.push_capacity)?,
                pop_capacity: sweep_capacity(sv, "pop_capacity", d.pop_capacity)?,
                producer_rate: sweep_rate(sv, "producer_rate", d.producer_rate)?,
                transfer_rate: sweep_rate(sv, "transfer_rate", d.transfer_rate)?,
                consumer_rate: sweep_rate(sv, "consumer_rate", d.consumer_rate)?,
                credit_rate: sweep_rate(sv, "credit_rate", d.credit_rate)?,
                delay: match opt_str(sv, "delay")? {
                    None => SweepDelay::Exponential,
                    Some(s) => SweepDelay::parse(&s)?,
                },
                scheduler: match opt_str(sv, "scheduler")?.as_deref() {
                    None | Some("uniform") => SweepScheduler::Uniform,
                    Some("min") => SweepScheduler::Min,
                    Some("max") => SweepScheduler::Max,
                    Some(other) => {
                        return Err(format!(
                            "unknown scheduler `{other}` (expected uniform, min, or max)"
                        ))
                    }
                },
            })
        } else {
            // Canonical texts of non-sweep kinds carry `"sweep":null`.
            if !matches!(v.get("sweep"), None | Some(Json::Null)) {
                return Err(format!(
                    "`sweep` is only valid for kind `sweep`, not `{}`",
                    kind.name()
                ));
            }
            None
        };
        let mut budget = Budget::default();
        if let Some(cap) = opt_uint(v, "max_states")? {
            budget = budget.with_max_states(cap as usize);
        }
        if let Some(secs) = opt_uint(v, "timeout_secs")? {
            budget = budget.with_timeout_secs(secs);
        }
        Ok(JobRequest {
            kind,
            model,
            formula,
            rates,
            probes,
            time,
            horizon,
            trajectories,
            seed,
            eq,
            order,
            mem_budget,
            sweep,
            budget,
        })
    }

    /// The canonical serialization: every field (defaults included) in
    /// sorted-key order. Hashing this string is the job's cache key.
    #[must_use]
    pub fn canonical(&self) -> String {
        let model = match &self.model {
            ModelSource::Builtin(n) => Json::Obj(vec![("builtin".into(), Json::str(n.clone()))]),
            ModelSource::Source(s) => Json::Obj(vec![("source".into(), Json::str(s.clone()))]),
            ModelSource::Aut(a) => Json::Obj(vec![("aut".into(), Json::str(a.clone()))]),
        };
        let mut members: Vec<(String, Json)> = vec![
            ("kind".into(), Json::str(self.kind.name())),
            ("model".into(), model),
            ("formula".into(), self.formula.as_ref().map_or(Json::Null, |f| Json::str(f.clone()))),
            (
                "rates".into(),
                Json::Obj(self.rates.iter().map(|(g, r)| (g.clone(), Json::num(*r))).collect()),
            ),
            (
                "probes".into(),
                Json::Arr(self.probes.iter().map(|p| Json::str(p.clone())).collect()),
            ),
            ("time".into(), Json::num(self.time)),
            ("horizon".into(), Json::num(self.horizon)),
            ("trajectories".into(), Json::num(self.trajectories as f64)),
            ("seed".into(), Json::num(self.seed as f64)),
            (
                "eq".into(),
                Json::str(match self.eq {
                    Equivalence::Strong => "strong",
                    Equivalence::Branching => "branching",
                    // Not reachable from `from_json` (the API surface only
                    // accepts strong/branching), kept total for safety.
                    Equivalence::BranchingDivergence => "divbranching",
                }),
            ),
            ("order".into(), Json::str(self.order.to_string())),
            ("mem_budget".into(), self.mem_budget.map_or(Json::Null, |b| Json::num(b as f64))),
            (
                "sweep".into(),
                self.sweep.as_ref().map_or(Json::Null, |p| {
                    Json::Obj(vec![
                        ("consumer_rate".into(), Json::num(p.consumer_rate)),
                        ("credit_rate".into(), Json::num(p.credit_rate)),
                        ("delay".into(), Json::str(p.delay.canonical())),
                        ("pop_capacity".into(), Json::num(f64::from(p.pop_capacity))),
                        ("producer_rate".into(), Json::num(p.producer_rate)),
                        ("push_capacity".into(), Json::num(f64::from(p.push_capacity))),
                        ("scheduler".into(), Json::str(p.scheduler.name())),
                        ("transfer_rate".into(), Json::num(p.transfer_rate)),
                    ])
                }),
            ),
            (
                "max_states".into(),
                self.budget.max_states.map_or(Json::Null, |c| Json::num(c as f64)),
            ),
            (
                "timeout_secs".into(),
                self.budget.timeout.map_or(Json::Null, |t| Json::num(t.as_secs() as f64)),
            ),
        ];
        members.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(members).canonicalized().to_string()
    }

    /// Materializes the model as an LTS under the request's budget.
    fn load_model(&self) -> Result<Lts, String> {
        match &self.model {
            ModelSource::Builtin(name) => builtin_lts(name),
            ModelSource::Aut(text) => read_aut_capped(text, self.budget.max_states_or(1_000_000)),
            ModelSource::Source(text) => {
                let spec = parse_spec(text).map_err(|e| e.to_string())?;
                let mut options =
                    ExploreOptions::with_max_states(self.budget.max_states_or(1_000_000));
                if let Some(deadline) = self.budget.deadline() {
                    options = options.with_deadline(deadline);
                }
                let exploration = explore_partial(&spec, &options);
                match exploration.aborted {
                    Some(e) => Err(format!("Budget exceeded: {e}")),
                    None => Ok(exploration.explored.lts),
                }
            }
        }
    }

    /// Evaluates the request to its deterministic result JSON.
    ///
    /// # Errors
    ///
    /// Returns a message on model/formula/solver failures or tripped
    /// budgets; errors are never cached.
    pub fn evaluate(&self, workers: Workers) -> Result<Json, String> {
        if self.kind == Kind::Reduce {
            return self.evaluate_reduce();
        }
        if self.kind == Kind::Sweep {
            return self.evaluate_sweep();
        }
        let lts = self.load_model()?;
        match self.kind {
            Kind::Explore => {
                let deadlocks = lts.deadlock_states().len();
                Ok(Json::Obj(vec![
                    ("states".into(), Json::num(lts.num_states() as f64)),
                    ("transitions".into(), Json::num(lts.num_transitions() as f64)),
                    ("deadlocks".into(), Json::num(deadlocks as f64)),
                ]))
            }
            Kind::Check => {
                let formula = self.formula.as_deref().expect("validated at parse");
                let f = multival::mcl::parse_formula(formula).map_err(|e| e.to_string())?;
                let result = multival::mcl::check(&lts, &f).map_err(|e| e.to_string())?;
                Ok(Json::Obj(vec![
                    ("holds".into(), Json::Bool(result.holds)),
                    ("satisfying".into(), Json::num(result.satisfying as f64)),
                    ("total".into(), Json::num(result.total as f64)),
                ]))
            }
            Kind::Steady | Kind::Transient | Kind::Simulate | Kind::Bounds => {
                self.evaluate_perf(lts, workers)
            }
            Kind::Reduce | Kind::Sweep => unreachable!("handled before the model is flattened"),
        }
    }

    /// Evaluates one sweep point: build the configured pipeline, resolve
    /// the transfer-delay axis (fitting deterministic delays through
    /// `ctmc::phfit`), solve, and report measures plus the fit's accuracy
    /// against an ideal deterministic transfer. A `max_states` budget is
    /// checked against the point's CTMC size — a trip is an error (never
    /// cached), which the driver reports as a *partial* point with exit 3.
    fn evaluate_sweep(&self) -> Result<Json, String> {
        use multival::imc::phase_type::Delay;
        use multival_ctmc::phfit;

        let p = self.sweep.as_ref().expect("validated at parse");
        let config = PerfConfig {
            push_capacity: p.push_capacity,
            pop_capacity: p.pop_capacity,
            producer_rate: p.producer_rate,
            transfer_rate: p.transfer_rate,
            consumer_rate: p.consumer_rate,
            credit_rate: p.credit_rate,
        };
        // Resolve the transfer-delay axis to a concrete phase-type delay
        // plus its sup-CDF accuracy against the ideal deterministic
        // transfer of the same mean (exponential is Erlang-1).
        let xfer_mean = 1.0 / p.transfer_rate;
        let (xfer_delay, fit_k, accuracy_error, tolerance_met) = match p.delay {
            SweepDelay::Exponential => (
                Delay::Exponential { rate: p.transfer_rate },
                1usize,
                phfit::sup_error_vs_step(
                    1,
                    xfer_mean,
                    phfit::DEFAULT_JUMP_WINDOW,
                    phfit::DEFAULT_SAMPLES,
                ),
                true,
            ),
            SweepDelay::Erlang { k } => (
                Delay::fixed(xfer_mean, k),
                k as usize,
                phfit::sup_error_vs_step(
                    k as usize,
                    xfer_mean,
                    phfit::DEFAULT_JUMP_WINDOW,
                    phfit::DEFAULT_SAMPLES,
                ),
                true,
            ),
            SweepDelay::Deterministic { tol } => {
                let fit = phfit::fit_deterministic(xfer_mean, tol, &phfit::FitOptions::default())
                    .map_err(|e| e.to_string())?;
                (
                    Delay::Erlang { phases: fit.k as u32, rate: fit.rate },
                    fit.k,
                    fit.achieved_error,
                    fit.tolerance_met,
                )
            }
        };
        let mut delay_of = |label: &str| -> Option<Delay> {
            match label {
                "push" => Some(Delay::Exponential { rate: config.producer_rate }),
                "xfer" => Some(xfer_delay.clone()),
                "pop" => Some(Delay::Exponential { rate: config.consumer_rate }),
                "credit" => Some(Delay::Exponential { rate: config.credit_rate }),
                _ => None,
            }
        };
        let report = analyze_with_delays(&config, &mut delay_of).map_err(|e| e.to_string())?;
        if let Some(cap) = self.budget.max_states {
            if report.ctmc_states > cap {
                return Err(format!(
                    "Budget exceeded: sweep point needs {} CTMC states (cap {cap})",
                    report.ctmc_states
                ));
            }
        }
        let throughput = match p.scheduler {
            SweepScheduler::Uniform => report.throughput,
            // min/max go through the lifted CTMDP and report the interval
            // endpoint. The pipeline has no nondeterminism, so the endpoint
            // equals the uniform value — but it is *computed*, not assumed.
            SweepScheduler::Min | SweepScheduler::Max => {
                let lts = explore_pipeline(&config).map_err(|e| e.to_string())?.lts;
                let bounds = Flow::from_lts(lts)
                    .with_delays_by_label(&mut delay_of)
                    .solve_bounds(&["pop"])
                    .map_err(|e| e.to_string())?;
                let tb = bounds.throughput_bounds().map_err(|e| e.to_string())?;
                let interval = tb
                    .iter()
                    .find(|(l, _)| l == "pop")
                    .map(|&(_, i)| i)
                    .ok_or("sweep: `pop` probe missing from bounds")?;
                match p.scheduler {
                    SweepScheduler::Min => interval.min,
                    _ => interval.max,
                }
            }
        };
        let latency = if throughput > 0.0 { report.mean_items / throughput } else { f64::INFINITY };
        Ok(Json::Obj(vec![
            ("ctmc_states".into(), Json::num(report.ctmc_states as f64)),
            ("throughput".into(), Json::num(throughput)),
            ("latency".into(), Json::num(latency)),
            ("mean_items".into(), Json::num(report.mean_items)),
            ("fit_k".into(), Json::num(fit_k as f64)),
            ("accuracy_error".into(), Json::num(accuracy_error)),
            ("fit_tolerance_met".into(), Json::Bool(tolerance_met)),
            ("delay".into(), Json::str(p.delay.canonical())),
            ("scheduler".into(), Json::str(p.scheduler.name())),
        ]))
    }

    /// Runs the compositional reduction pipeline on an inline source model.
    ///
    /// A tripped budget is an error (never cached); everything else is
    /// deterministic — the canonical reduced LTS and the stage accounting
    /// are byte-identical across order seeds and memory budgets. A
    /// budgeted job also reports its spilling store's counters.
    fn evaluate_reduce(&self) -> Result<Json, String> {
        let ModelSource::Source(text) = &self.model else {
            unreachable!("validated at parse: reduce needs a source model")
        };
        let spec = parse_spec(text).map_err(|e| e.to_string())?;
        let network = multival_pa::extract_network(&spec, &ExploreOptions::default())
            .map_err(|e| e.to_string())?;
        let options = PipelineOptions {
            equivalence: self.eq,
            order: self.order,
            max_states: self.budget.max_states,
            deadline: self.budget.deadline(),
            checkpoint_dir: None,
            mem_budget: self.mem_budget,
        };
        let run = run_pipeline(&network, &options);
        if let Some(reason) = &run.abort {
            return Err(format!("Budget exceeded: {reason}"));
        }
        let order: Vec<Json> =
            run.order.iter().map(|&i| Json::str(network.components()[i].0.clone())).collect();
        let stages: Vec<Json> = run
            .stages
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("component".into(), Json::str(s.component.clone())),
                    ("states_before".into(), Json::num(s.states_before as f64)),
                    ("transitions_before".into(), Json::num(s.transitions_before as f64)),
                    ("states_after".into(), Json::num(s.states_after as f64)),
                    ("transitions_after".into(), Json::num(s.transitions_after as f64)),
                    (
                        "hidden".into(),
                        Json::Arr(s.hidden.iter().map(|g| Json::str(g.clone())).collect()),
                    ),
                ])
            })
            .collect();
        let mut members = vec![
            ("states".into(), Json::num(run.lts.num_states() as f64)),
            ("transitions".into(), Json::num(run.lts.num_transitions() as f64)),
            ("peak_states".into(), Json::num(run.peak_states() as f64)),
            ("order".into(), Json::Arr(order)),
            ("stages".into(), Json::Arr(stages)),
        ];
        if self.mem_budget.is_some() {
            let count = |n: usize| Json::num(n as f64);
            members.push((
                "store".into(),
                Json::Obj(vec![
                    ("states".into(), count(run.store.states)),
                    ("key_bytes".into(), count(run.store.key_bytes)),
                    ("spilled_bytes".into(), count(run.store.spilled_bytes)),
                    ("spilled_segments".into(), count(run.store.spilled_segments)),
                ]),
            ));
        }
        Ok(Json::Obj(members))
    }

    fn evaluate_perf(&self, lts: Lts, workers: Workers) -> Result<Json, String> {
        let rate_map: HashMap<String, f64> = self.rates.iter().cloned().collect();
        let probe_refs: Vec<&str> = self.probes.iter().map(String::as_str).collect();
        if self.kind == Kind::Bounds {
            let bounds = Flow::from_lts(lts)
                .with_rates(&rate_map)
                .solve_bounds(&probe_refs)
                .map_err(|e| e.to_string())?;
            let mdp = bounds.mdp();
            let instant = (0..mdp.num_states()).filter(|&s| mdp.is_instant(s)).count();
            let throughputs: Vec<(String, Json)> = bounds
                .throughput_bounds()
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|(probe, i)| {
                    let member = Json::Obj(vec![
                        ("min".into(), Json::num(i.min)),
                        ("max".into(), Json::num(i.max)),
                    ]);
                    (probe, member)
                })
                .collect();
            return Ok(Json::Obj(vec![
                ("states".into(), Json::num(bounds.mdp().num_states() as f64)),
                ("instant".into(), Json::num(instant as f64)),
                ("throughput_bounds".into(), Json::Obj(throughputs)),
            ]));
        }
        let solved = Flow::from_lts(lts)
            .with_rates(&rate_map)
            .solve(NondetPolicy::Uniform, &probe_refs)
            .map_err(|e| e.to_string())?;
        let states = solved.ctmc().num_states();
        match self.kind {
            Kind::Steady => {
                let pi = solved.steady_state().map_err(|e| e.to_string())?;
                let throughputs = solved.throughputs().map_err(|e| e.to_string())?;
                Ok(Json::Obj(vec![
                    ("states".into(), Json::num(states as f64)),
                    ("steady_state".into(), vector_json(&pi)),
                    (
                        "throughputs".into(),
                        Json::Obj(
                            throughputs
                                .into_iter()
                                .map(|(probe, tp)| (probe, Json::num(tp)))
                                .collect(),
                        ),
                    ),
                ]))
            }
            Kind::Transient => {
                let dist = solved.transient(self.time).map_err(|e| e.to_string())?;
                Ok(Json::Obj(vec![
                    ("states".into(), Json::num(states as f64)),
                    ("time".into(), Json::num(self.time)),
                    ("distribution".into(), vector_json(&dist)),
                ]))
            }
            Kind::Simulate => {
                let opts = McOptions {
                    seed: self.seed,
                    workers,
                    max_trajectories: self.trajectories,
                    deadline: self.budget.deadline(),
                    ..McOptions::default()
                };
                let run = solved.simulate_occupancy(self.horizon, &opts);
                if run.budget_hit {
                    return Err(format!(
                        "Budget exceeded: wall-clock limit hit after {} trajectories",
                        run.trajectories
                    ));
                }
                let estimates: Vec<Json> = run
                    .estimates
                    .iter()
                    .take(VECTOR_CAP)
                    .map(|e| {
                        Json::Obj(vec![
                            ("mean".into(), Json::num(e.mean)),
                            ("half_width".into(), Json::num(e.half_width)),
                        ])
                    })
                    .collect();
                Ok(Json::Obj(vec![
                    ("states".into(), Json::num(states as f64)),
                    ("horizon".into(), Json::num(self.horizon)),
                    ("trajectories".into(), Json::num(run.trajectories as f64)),
                    ("converged".into(), Json::Bool(run.converged)),
                    ("estimates".into(), Json::Arr(estimates)),
                ]))
            }
            _ => unreachable!("evaluate_perf only handles performance kinds"),
        }
    }
}

/// Largest vector echoed back in a response body; longer ones are
/// truncated (the `states` field always carries the true size).
const VECTOR_CAP: usize = 64;

fn vector_json(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().take(VECTOR_CAP).map(|&x| Json::num(x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUF: &str = "process Buf[put, get](full: bool) :=
         [not full] -> put; Buf[put, get](true)
      [] [full] -> get; Buf[put, get](false)
     endproc
     behaviour Buf[put, get](false)";

    fn req(text: &str) -> JobRequest {
        JobRequest::from_json_text(text).expect("parses")
    }

    #[test]
    fn parse_fills_defaults_and_canonicalizes() {
        let a = req(r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"}}"#);
        let b =
            req(r#"{"model":{"builtin":"xstream_pipeline"},"kind":"explore","seed":42,"time":1}"#);
        assert_eq!(a.canonical(), b.canonical(), "field order and defaults must not matter");
        assert!(a.canonical().contains("\"trajectories\":8192"));
    }

    #[test]
    fn different_requests_have_different_canonicals() {
        let a = req(r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"}}"#);
        let b = req(r#"{"kind":"explore","model":{"builtin":"fame2_ping_pong"}}"#);
        let c = req(r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"},"seed":43}"#);
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn rate_order_is_canonicalized() {
        let a = req(&format!(
            r#"{{"kind":"steady","model":{{"source":{src}}},"rates":{{"put":2,"get":1}}}}"#,
            src = Json::str(BUF)
        ));
        let b = req(&format!(
            r#"{{"kind":"steady","model":{{"source":{src}}},"rates":{{"get":1,"put":2}}}}"#,
            src = Json::str(BUF)
        ));
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            r#"{}"#,
            r#"{"kind":"explode","model":{"builtin":"x"}}"#,
            r#"{"kind":"explore"}"#,
            r#"{"kind":"explore","model":{}}"#,
            r#"{"kind":"explore","model":{"builtin":"a","source":"b"}}"#,
            r#"{"kind":"check","model":{"builtin":"xstream_pipeline"}}"#,
            r#"{"kind":"steady","model":{"builtin":"xstream_pipeline"}}"#,
            r#"{"kind":"bounds","model":{"builtin":"xstream_pipeline"}}"#,
            r#"{"kind":"steady","model":{"builtin":"xstream_pipeline"},"rates":{"a":-1}}"#,
            r#"{"kind":"simulate","model":{"builtin":"xstream_pipeline"},"rates":{"a":1},"seed":-3}"#,
        ] {
            assert!(JobRequest::from_json_text(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn explore_and_check_evaluate() {
        let r = req(&format!(
            r#"{{"kind":"explore","model":{{"source":{src}}}}}"#,
            src = Json::str(BUF)
        ));
        let out = r.evaluate(Workers::sequential()).expect("evaluates");
        assert_eq!(out.get("states").and_then(Json::as_num), Some(2.0));

        let r = req(&format!(
            r#"{{"kind":"check","model":{{"source":{src}}},"formula":"nu X. <true> true and [true] X"}}"#,
            src = Json::str(BUF)
        ));
        let out = r.evaluate(Workers::sequential()).expect("evaluates");
        assert_eq!(out.get("holds").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn steady_evaluates_and_is_deterministic() {
        let text = format!(
            r#"{{"kind":"steady","model":{{"source":{src}}},"rates":{{"put":2,"get":1}},"probes":["get"]}}"#,
            src = Json::str(BUF)
        );
        let a = req(&text).evaluate(Workers::sequential()).expect("evaluates").to_string();
        let b = req(&text).evaluate(Workers::new(4)).expect("evaluates").to_string();
        assert_eq!(a, b, "solver output must not depend on workers");
        assert!(a.contains("\"throughputs\":{\"get\":"), "{a}");
    }

    #[test]
    fn simulate_is_thread_invariant() {
        let text = format!(
            r#"{{"kind":"simulate","model":{{"source":{src}}},"rates":{{"put":2,"get":3}},"trajectories":512,"horizon":20}}"#,
            src = Json::str(BUF)
        );
        let a = req(&text).evaluate(Workers::sequential()).expect("evaluates").to_string();
        let b = req(&text).evaluate(Workers::new(4)).expect("evaluates").to_string();
        assert_eq!(a, b, "MC estimates depend on the seed only");
    }

    /// Two rounds racing for an arbiter: the winning branch is decided by an
    /// interactive (hence nondeterministic) choice, so throughput genuinely
    /// depends on the scheduler — exp(4) rounds give 4/s, exp(1) rounds 1/s.
    const ARB: &str = "process Arb[pa, pb, fast, slow, done] :=
            pa; fast; done; Arb[pa, pb, fast, slow, done]
         [] pb; slow; done; Arb[pa, pb, fast, slow, done]
         endproc
         behaviour Arb[pa, pb, fast, slow, done]";

    fn probe_bounds(out: &Json, probe: &str) -> (f64, f64) {
        let tp = out
            .get("throughput_bounds")
            .and_then(|t| t.get(probe))
            .unwrap_or_else(|| panic!("probe `{probe}` missing in {out}"));
        let min = tp.get("min").and_then(Json::as_num).expect("min");
        let max = tp.get("max").and_then(Json::as_num).expect("max");
        (min, max)
    }

    #[test]
    fn bounds_evaluates_and_is_thread_invariant() {
        let text = format!(
            r#"{{"kind":"bounds","model":{{"source":{src}}},"rates":{{"fast":4,"slow":1}},"probes":["done"]}}"#,
            src = Json::str(ARB)
        );
        let a = req(&text).evaluate(Workers::sequential()).expect("evaluates").to_string();
        let b = req(&text).evaluate(Workers::new(4)).expect("evaluates").to_string();
        assert_eq!(a, b, "value iteration must not depend on workers");
        let out = parse(&a).expect("json");
        let (min, max) = probe_bounds(&out, "done");
        assert!((min - 1.0).abs() < 1e-6, "worst scheduler always takes the slow round: {a}");
        assert!((max - 4.0).abs() < 1e-6, "best scheduler always takes the fast round: {a}");
        assert!(out.get("instant").and_then(Json::as_num) > Some(0.0), "{a}");
    }

    #[test]
    fn bounds_collapse_onto_steady_without_nondeterminism() {
        let bounds = req(&format!(
            r#"{{"kind":"bounds","model":{{"source":{src}}},"rates":{{"put":2,"get":1}},"probes":["get"]}}"#,
            src = Json::str(BUF)
        ))
        .evaluate(Workers::sequential())
        .expect("evaluates");
        let (min, max) = probe_bounds(&bounds, "get");
        assert!((max - min).abs() < 1e-9, "a deterministic model has a point interval");

        let steady = req(&format!(
            r#"{{"kind":"steady","model":{{"source":{src}}},"rates":{{"put":2,"get":1}},"probes":["get"]}}"#,
            src = Json::str(BUF)
        ))
        .evaluate(Workers::sequential())
        .expect("evaluates");
        let tp = steady
            .get("throughputs")
            .and_then(|t| t.get("get"))
            .and_then(Json::as_num)
            .expect("steady throughput");
        assert!((min - tp).abs() < 1e-9, "bounds {min} vs steady {tp}");
    }

    #[test]
    fn budget_trips_are_errors_not_results() {
        let r = req(&format!(
            r#"{{"kind":"explore","model":{{"source":{src}}},"max_states":1}}"#,
            src = Json::str(
                "process C[t](n: int 0..9) := [n < 9] -> t; C[t](n + 1) endproc
                 behaviour C[t](0)"
            )
        ));
        let err = r.evaluate(Workers::sequential()).expect_err("budget trips");
        assert!(err.contains("Budget exceeded"), "{err}");
    }

    /// A two-component producer/consumer network with a hidden middle gate.
    const NET: &str = "process P[a, m] := a; m; P[a, m] endproc
         process Q[m, b] := m; b; Q[m, b] endproc
         behaviour hide m in ( P[a, m] |[m]| Q[m, b] )";

    #[test]
    fn reduce_evaluates_deterministically_across_workers_and_orders() {
        let smart =
            format!(r#"{{"kind":"reduce","model":{{"source":{src}}}}}"#, src = Json::str(NET));
        let a = req(&smart).evaluate(Workers::sequential()).expect("evaluates").to_string();
        let b = req(&smart).evaluate(Workers::new(4)).expect("evaluates").to_string();
        assert_eq!(a, b, "reduction must not depend on workers");
        assert!(a.contains("\"peak_states\":"), "{a}");
        assert!(a.contains("\"stages\":"), "{a}");

        // A different order policy folds in a different sequence but the
        // reduced LTS is identical.
        let given = format!(
            r#"{{"kind":"reduce","model":{{"source":{src}}},"order":"given"}}"#,
            src = Json::str(NET)
        );
        let g = req(&given).evaluate(Workers::sequential()).expect("evaluates");
        let a = parse(&a).expect("json");
        assert_eq!(a.get("states").and_then(Json::as_num), g.get("states").and_then(Json::as_num));
        assert_eq!(
            a.get("transitions").and_then(Json::as_num),
            g.get("transitions").and_then(Json::as_num)
        );
        // The two requests are distinct cache entries.
        assert_ne!(req(&smart).canonical(), req(&given).canonical());
    }

    #[test]
    fn reduce_accepts_store_backend_params() {
        let spill = format!(
            r#"{{"kind":"reduce","model":{{"source":{src}}},"mem_budget":1}}"#,
            src = Json::str(NET)
        );
        let s = req(&spill).evaluate(Workers::sequential()).expect("evaluates");
        let default =
            format!(r#"{{"kind":"reduce","model":{{"source":{src}}}}}"#, src = Json::str(NET));
        let d = req(&default).evaluate(Workers::sequential()).expect("evaluates");
        assert!(d.get("store").is_none(), "an unbudgeted job reports no store");
        let store = s.get("store").expect("a budgeted job reports its store");
        assert!(store.get("spilled_segments").and_then(Json::as_num).is_some(), "{store}");
        let Json::Obj(mut members) = s else { panic!("object result") };
        members.retain(|(k, _)| k != "store");
        assert_eq!(
            Json::Obj(members).to_string(),
            d.to_string(),
            "the reduced LTS must not depend on the memory budget"
        );
        // Distinct cache entries nonetheless: the budget is part of the key.
        assert_ne!(req(&spill).canonical(), req(&default).canonical());
        let bad = format!(
            r#"{{"kind":"reduce","model":{{"source":{src}}},"mem_budget":"64k"}}"#,
            src = Json::str(NET)
        );
        assert!(JobRequest::from_json_text(&bad).is_err());
        // The retired backend choice is refused, not silently ignored.
        let old = format!(
            r#"{{"kind":"reduce","model":{{"source":{src}}},"store":"spill"}}"#,
            src = Json::str(NET)
        );
        let err = JobRequest::from_json_text(&old).expect_err("`store` is refused");
        assert!(err.contains("mem_budget"), "{err}");
    }

    #[test]
    fn reduce_validates_its_model_and_budget() {
        assert!(JobRequest::from_json_text(
            r#"{"kind":"reduce","model":{"builtin":"xstream_pipeline"}}"#
        )
        .is_err());
        assert!(JobRequest::from_json_text(
            r#"{"kind":"reduce","model":{"aut":"des (0, 1, 2)\n(0, \"a\", 1)\n"}}"#
        )
        .is_err());
        let bad_order = format!(
            r#"{{"kind":"reduce","model":{{"source":{src}}},"order":"bogus"}}"#,
            src = Json::str(NET)
        );
        assert!(JobRequest::from_json_text(&bad_order).is_err());

        let capped = format!(
            r#"{{"kind":"reduce","model":{{"source":{src}}},"max_states":1}}"#,
            src = Json::str(NET)
        );
        let err = req(&capped).evaluate(Workers::sequential()).expect_err("budget trips");
        assert!(err.contains("Budget exceeded"), "{err}");
    }

    #[test]
    fn sweep_parses_fills_defaults_and_canonicalizes() {
        let a = req(r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{}}"#);
        let b = req(r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},
                "sweep":{"push_capacity":2,"delay":"exponential","scheduler":"uniform"}}"#);
        assert_eq!(a.canonical(), b.canonical(), "sweep defaults must canonicalize");
        assert!(a.canonical().contains("\"delay\":\"exponential\""));
        // Equivalent spellings of the tolerance canonicalize identically.
        let c = req(
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"delay":"det:5e-2"}}"#,
        );
        assert!(c.canonical().contains("\"delay\":\"det:0.05\""), "{}", c.canonical());
    }

    #[test]
    fn sweep_rejects_malformed() {
        for bad in [
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"}}"#,
            r#"{"kind":"sweep","model":{"builtin":"fame2_ping_pong"},"sweep":{}}"#,
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"delay":"erlang:0"}}"#,
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"delay":"det:2"}}"#,
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"delay":"fixed"}}"#,
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"scheduler":"best"}}"#,
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"push_capacity":0}}"#,
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"transfer_rate":-1}}"#,
            r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"},"sweep":{}}"#,
        ] {
            assert!(JobRequest::from_json_text(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn sweep_evaluates_and_erlang_order_shrinks_error() {
        let eval = |delay: &str| {
            req(&format!(
                r#"{{"kind":"sweep","model":{{"builtin":"xstream_pipeline"}},"sweep":{{"delay":"{delay}"}}}}"#
            ))
            .evaluate(Workers::sequential())
            .expect(delay)
        };
        let e1 = eval("exponential");
        let e8 = eval("erlang:8");
        let err1 = e1.get("accuracy_error").and_then(Json::as_num).expect("error");
        let err8 = e8.get("accuracy_error").and_then(Json::as_num).expect("error");
        assert!(err8 < err1, "higher order must be more accurate: {err8} !< {err1}");
        let s1 = e1.get("ctmc_states").and_then(Json::as_num).expect("states");
        let s8 = e8.get("ctmc_states").and_then(Json::as_num).expect("states");
        assert!(s8 > s1, "higher order must cost states: {s8} !> {s1}");
    }

    #[test]
    fn sweep_deterministic_delay_autofits_to_tolerance() {
        let out = req(
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"delay":"det:0.1"}}"#,
        )
        .evaluate(Workers::sequential())
        .expect("evaluates");
        assert_eq!(out.get("fit_tolerance_met").and_then(Json::as_bool), Some(true));
        let err = out.get("accuracy_error").and_then(Json::as_num).expect("error");
        assert!(err <= 0.1, "fit must meet the stated tolerance: {err}");
        assert!(out.get("fit_k").and_then(Json::as_num) > Some(1.0));
    }

    #[test]
    fn sweep_schedulers_coincide_on_deterministic_pipeline() {
        let eval = |sched: &str| {
            req(&format!(
                r#"{{"kind":"sweep","model":{{"builtin":"xstream_pipeline"}},"sweep":{{"delay":"erlang:2","scheduler":"{sched}"}}}}"#
            ))
            .evaluate(Workers::sequential())
            .expect(sched)
        };
        let tp = |o: &Json| o.get("throughput").and_then(Json::as_num).expect("throughput");
        let (u, mn, mx) = (tp(&eval("uniform")), tp(&eval("min")), tp(&eval("max")));
        assert!((u - mn).abs() < 1e-6 && (u - mx).abs() < 1e-6, "{u} {mn} {mx}");
    }

    #[test]
    fn sweep_budget_trips_are_errors() {
        let r = req(
            r#"{"kind":"sweep","model":{"builtin":"xstream_pipeline"},"sweep":{"delay":"erlang:8"},"max_states":10}"#,
        );
        let err = r.evaluate(Workers::sequential()).expect_err("budget trips");
        assert!(err.contains("Budget exceeded"), "{err}");
    }

    #[test]
    fn builtins_all_materialize() {
        for name in builtin_names() {
            let lts = builtin_lts(name).expect(name);
            assert!(lts.num_states() > 1, "{name}");
        }
        assert!(builtin_lts("nope").is_err());
    }
}
