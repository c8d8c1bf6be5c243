//! Plain-text table rendering for the experiment harness, plus the
//! parallel-exploration throughput report.

use crate::flow::Interval;
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// A simple left-padded ASCII table.
///
/// # Examples
///
/// ```
/// use multival::report::Table;
///
/// let mut t = Table::new(&["model", "states"]);
/// t.row(&["queue", "42"]);
/// let text = t.render();
/// assert!(text.contains("model"));
/// assert!(text.contains("42"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..width[i] {
                    out.push(' ');
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }
}

/// Report for an on-the-fly run: how much of the implicit state space the
/// search actually visited versus what was materialized as an explicit LTS.
///
/// Rendered by the `--on-the-fly` paths of `multival explore` and
/// `multival check`.
#[derive(Debug, Clone)]
#[must_use]
pub struct FlyStats {
    /// States the search visited.
    pub visited: usize,
    /// Transitions the search crossed.
    pub transitions: usize,
    /// States held in memory as an explicit LTS (0 when the walk ran
    /// straight over the term graph or lazy product).
    pub materialized: usize,
    /// Whether the state cap truncated the walk.
    pub truncated: bool,
}

impl FlyStats {
    /// Renders the report as an aligned two-column table, with a warning
    /// line when the cap cut the walk short.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["on-the-fly", "value"]);
        t.row_owned(vec!["visited states".into(), self.visited.to_string()]);
        t.row_owned(vec!["transitions".into(), self.transitions.to_string()]);
        t.row_owned(vec!["materialized states".into(), self.materialized.to_string()]);
        let mut out = t.render();
        if self.truncated {
            out.push_str("warning: state cap hit; the walk is incomplete\n");
        }
        out
    }
}

/// Report for the spilling state store of an exploration or reduction
/// run under `--mem-budget`.
#[derive(Debug, Clone)]
#[must_use]
pub struct StoreReport {
    /// Counter snapshot at the end of the run.
    pub stats: multival_lts::StoreStats,
}

impl StoreReport {
    /// Renders the one-line store summary.
    pub fn render(&self) -> String {
        let mib = |b: usize| (b as f64) / (1024.0 * 1024.0);
        let mut line = format!(
            "store spill: {} states, {:.1} MiB keys, {:.1} MiB resident",
            self.stats.states,
            mib(self.stats.key_bytes),
            mib(self.stats.mem_bytes),
        );
        if self.stats.spilled_segments > 0 {
            line.push_str(&format!(
                ", {:.1} MiB spilled across {} segments",
                mib(self.stats.spilled_bytes),
                self.stats.spilled_segments
            ));
        }
        line.push('\n');
        line
    }
}

/// Report for a Monte-Carlo simulation run.
///
/// Rendered by the `multival simulate` path and the `Flow` simulation entry
/// points.
#[derive(Debug, Clone)]
#[must_use]
pub struct SimStats {
    /// Trajectories sampled.
    pub trajectories: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Confidence level of the intervals (e.g. `0.99`).
    pub confidence: f64,
    /// Largest confidence-interval half-width over all estimates.
    pub max_half_width: f64,
    /// Whether the width stopping rule was met before the trajectory cap.
    pub converged: bool,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl From<&multival_ctmc::McRun> for SimStats {
    fn from(run: &multival_ctmc::McRun) -> SimStats {
        SimStats {
            trajectories: run.trajectories,
            threads: run.threads,
            confidence: run.confidence,
            max_half_width: run.max_half_width(),
            converged: run.converged,
            wall: run.wall,
        }
    }
}

impl SimStats {
    /// Trajectories sampled per second of wall-clock time.
    pub fn trajectories_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.trajectories as f64 / secs
        }
    }

    /// Renders the report as an aligned two-column table, with a warning
    /// line when the trajectory cap stopped the run before convergence.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["simulation", "value"]);
        t.row_owned(vec!["trajectories".into(), self.trajectories.to_string()]);
        t.row_owned(vec!["threads".into(), self.threads.to_string()]);
        t.row_owned(vec!["confidence".into(), format!("{:.1}%", self.confidence * 100.0)]);
        t.row_owned(vec!["max CI half-width".into(), format!("{:.6}", self.max_half_width)]);
        t.row_owned(vec!["wall-clock".into(), format!("{:.1} ms", self.wall.as_secs_f64() * 1e3)]);
        t.row_owned(vec!["trajectories/sec".into(), fmt_f(self.trajectories_per_sec())]);
        let mut out = t.render();
        if !self.converged {
            out.push_str("warning: trajectory cap hit before the requested CI width\n");
        }
        out
    }
}

/// Report for one evaluation-service run, rendered when `multival serve`
/// shuts down (and mirrored by the `/v1/metrics` endpoint as JSON).
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct ServeStats {
    /// Jobs accepted into the queue.
    pub accepted: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed (bad model, solver error, …).
    pub failed: usize,
    /// Jobs rejected because the submission queue was full.
    pub rejected: usize,
    /// Jobs cancelled before a worker picked them up.
    pub cancelled: usize,
    /// Jobs coalesced behind an identical in-flight evaluation.
    pub coalesced: usize,
    /// Jobs replayed from the journal on startup.
    pub recovered: usize,
    /// Result-cache hits (answers served without touching the engines).
    pub cache_hits: usize,
    /// Result-cache misses.
    pub cache_misses: usize,
    /// Wall-clock time the service was up.
    pub uptime: Duration,
}

impl ServeStats {
    /// Cache hit rate in `[0, 1]`; `0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the report as an aligned two-column table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["service", "value"]);
        t.row_owned(vec!["jobs accepted".into(), self.accepted.to_string()]);
        t.row_owned(vec!["jobs done".into(), self.done.to_string()]);
        t.row_owned(vec!["jobs failed".into(), self.failed.to_string()]);
        t.row_owned(vec!["jobs rejected".into(), self.rejected.to_string()]);
        t.row_owned(vec!["jobs cancelled".into(), self.cancelled.to_string()]);
        t.row_owned(vec!["jobs coalesced".into(), self.coalesced.to_string()]);
        t.row_owned(vec!["jobs recovered".into(), self.recovered.to_string()]);
        t.row_owned(vec!["cache hits".into(), self.cache_hits.to_string()]);
        t.row_owned(vec!["cache misses".into(), self.cache_misses.to_string()]);
        t.row_owned(vec!["cache hit rate".into(), format!("{:.1}%", self.hit_rate() * 100.0)]);
        t.row_owned(vec!["uptime".into(), format!("{:.1} s", self.uptime.as_secs_f64())]);
        t.render()
    }
}

/// One stage of a compositional reduction run, as rendered by
/// `multival reduce` (a de-coupled mirror of the pipeline's stage stats so
/// the report layer stays engine-agnostic).
#[derive(Debug, Clone)]
pub struct ReduceStageRow {
    /// Stage index (0-based).
    pub stage: usize,
    /// Component folded in at this stage.
    pub component: String,
    /// Product states before hiding/minimization.
    pub states_before: usize,
    /// Product transitions before hiding/minimization.
    pub transitions_before: usize,
    /// States after hiding + minimization.
    pub states_after: usize,
    /// Transitions after hiding + minimization.
    pub transitions_after: usize,
    /// Gates whose possessor sets completed at this stage (now hidden).
    pub hidden: Vec<String>,
}

/// Report for a `multival reduce` run: the per-stage fold table plus the
/// peak/final summary.
#[derive(Debug, Clone)]
#[must_use]
pub struct ReduceStats {
    /// Completed stages, in execution order.
    pub stages: Vec<ReduceStageRow>,
    /// Largest intermediate state count (inclusive of pre-minimization
    /// products).
    pub peak_states: usize,
    /// States of the final (or last completed) reduced LTS.
    pub final_states: usize,
    /// Transitions of the final reduced LTS.
    pub final_transitions: usize,
    /// Leading stages restored from a checkpoint instead of recomputed.
    pub resumed_stages: usize,
}

impl ReduceStats {
    /// Renders the stage table plus the summary lines.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["stage", "component", "product", "reduced", "hides"]);
        for s in &self.stages {
            t.row_owned(vec![
                s.stage.to_string(),
                s.component.clone(),
                format!("{}/{}", s.states_before, s.transitions_before),
                format!("{}/{}", s.states_after, s.transitions_after),
                if s.hidden.is_empty() { "-".to_owned() } else { s.hidden.join(",") },
            ]);
        }
        let mut out = t.render();
        if self.resumed_stages > 0 {
            let _ = writeln!(out, "resumed {} stage(s) from checkpoint", self.resumed_stages);
        }
        let _ = writeln!(out, "peak intermediate states: {}", self.peak_states);
        let _ = writeln!(
            out,
            "reduced: {} states / {} transitions",
            self.final_states, self.final_transitions
        );
        out
    }
}

/// Three-valued verdict of a scheduler interval against a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsVerdict {
    /// The predicate holds under every scheduler.
    True,
    /// The predicate fails under every scheduler.
    False,
    /// The interval straddles the threshold: the answer is
    /// scheduler-dependent.
    NoVerdict,
}

impl fmt::Display for BoundsVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BoundsVerdict::True => "TRUE",
            BoundsVerdict::False => "FALSE",
            BoundsVerdict::NoVerdict => "NO VERDICT",
        })
    }
}

/// One row of a [`BoundsReport`]: a measure with its scheduler interval and
/// an optional threshold verdict.
#[derive(Debug, Clone)]
pub struct BoundsRow {
    /// Measure label, e.g. `throughput(push)`.
    pub measure: String,
    /// `[min, max]` over all schedulers (equal endpoints for a single
    /// resolved value).
    pub interval: Interval,
    /// Rendered threshold (e.g. `>= 0.5`) and its verdict, in check mode.
    pub verdict: Option<(String, BoundsVerdict)>,
}

/// Report for a scheduler-quantified evaluation (`--scheduler`): one row
/// per measure.
///
/// Rendered by `multival check` in performance mode and by the bounds
/// sections of `simulate` and the experiment harness.
#[derive(Debug, Clone)]
#[must_use]
pub struct BoundsReport {
    /// Measures, in evaluation order.
    pub rows: Vec<BoundsRow>,
    /// Render a single `value` column instead of `min`/`max`/`width`
    /// (uniform/min/max schedulers resolve to one number per measure).
    pub point: bool,
}

impl BoundsReport {
    /// Renders the measure table; threshold/verdict columns appear only
    /// when at least one row carries a verdict.
    pub fn render(&self) -> String {
        let with_verdict = self.rows.iter().any(|r| r.verdict.is_some());
        let mut header: Vec<&str> = if self.point {
            vec!["measure", "value"]
        } else {
            vec!["measure", "min", "max", "width"]
        };
        if with_verdict {
            header.push("threshold");
            header.push("verdict");
        }
        let mut t = Table::new(&header);
        for r in &self.rows {
            let mut cells = vec![r.measure.clone(), fmt_f(r.interval.min)];
            if !self.point {
                cells.push(fmt_f(r.interval.max));
                cells.push(fmt_f(r.interval.width()));
            }
            if with_verdict {
                match &r.verdict {
                    Some((threshold, v)) => {
                        cells.push(threshold.clone());
                        cells.push(v.to_string());
                    }
                    None => {
                        cells.push("-".to_owned());
                        cells.push("-".to_owned());
                    }
                }
            }
            t.row_owned(cells);
        }
        t.render()
    }
}

/// Terminal state of one sweep point in a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepRowStatus {
    /// Evaluated to a full result.
    Ok,
    /// A budget cap tripped on this point; the rest of the sweep still
    /// reports (overall exit 3).
    Partial(String),
    /// Evaluation failed for a non-budget reason (overall exit 2).
    Failed(String),
}

/// One evaluated point of an `explore-space` sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Axis assignments, e.g. `delay=erlang:4 push_capacity=2`.
    pub label: String,
    /// Resolved transfer-delay style (`exponential`, `erlang:K`, `det:TOL`).
    pub delay: String,
    /// Fitted/assigned Erlang order of the transfer delay.
    pub fit_k: Option<usize>,
    /// Sup-CDF error of the transfer delay vs the ideal deterministic
    /// transfer (outside the jump band) — the *accuracy* objective.
    pub accuracy_error: Option<f64>,
    /// CTMC size of the point — the *peak states* objective.
    pub ctmc_states: Option<usize>,
    /// Steady-state `pop` throughput.
    pub throughput: Option<f64>,
    /// Mean items / throughput (Little's law).
    pub latency: Option<f64>,
    /// Whether the stated fit tolerance was met (false: order cap reached).
    pub tolerance_met: bool,
    /// Membership in the accuracy-vs-peak-states Pareto front.
    pub on_front: bool,
    /// Terminal state.
    pub status: SweepRowStatus,
}

/// Report for one `explore-space` run: every point in deterministic
/// expansion order plus the Pareto front. Rendering carries no timings or
/// wall-clock readings — it is byte-identical across worker counts,
/// transports, and cache states (the driver prints timing separately).
#[derive(Debug, Clone)]
#[must_use]
pub struct SweepReport {
    /// Spec name.
    pub name: String,
    /// Points in expansion order.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Renders the per-point table, the Pareto front, and any partial or
    /// failed points.
    pub fn render(&self) -> String {
        let ok = self.rows.iter().filter(|r| r.status == SweepRowStatus::Ok).count();
        let partial =
            self.rows.iter().filter(|r| matches!(r.status, SweepRowStatus::Partial(_))).count();
        let failed =
            self.rows.iter().filter(|r| matches!(r.status, SweepRowStatus::Failed(_))).count();
        let mut out = format!(
            "sweep {}: {} points ({ok} ok, {partial} partial, {failed} failed)\n\n",
            self.name,
            self.rows.len()
        );
        let dash = || "-".to_owned();
        let mut t = Table::new(&[
            "point",
            "delay",
            "k",
            "error",
            "states",
            "throughput",
            "latency",
            "fit",
            "front",
        ]);
        for r in &self.rows {
            t.row_owned(vec![
                r.label.clone(),
                r.delay.clone(),
                r.fit_k.map_or_else(dash, |k| k.to_string()),
                r.accuracy_error.map_or_else(dash, |e| format!("{e:.3e}")),
                r.ctmc_states.map_or_else(dash, |s| s.to_string()),
                r.throughput.map_or_else(dash, fmt_f),
                r.latency.map_or_else(dash, fmt_f),
                match r.status {
                    SweepRowStatus::Ok if r.tolerance_met => "met".to_owned(),
                    SweepRowStatus::Ok => "UNMET".to_owned(),
                    SweepRowStatus::Partial(_) => "partial".to_owned(),
                    SweepRowStatus::Failed(_) => "failed".to_owned(),
                },
                if r.on_front { "*".to_owned() } else { String::new() },
            ]);
        }
        out.push_str(&t.render());
        let front: Vec<&SweepRow> = self.rows.iter().filter(|r| r.on_front).collect();
        let _ = writeln!(out, "\nPareto front (accuracy vs peak states): {} points", front.len());
        for r in front {
            let _ = writeln!(out, "  {}", r.label);
        }
        for r in &self.rows {
            match &r.status {
                SweepRowStatus::Partial(reason) => {
                    let _ = writeln!(out, "partial {}: {reason}", r.label);
                }
                SweepRowStatus::Failed(reason) => {
                    let _ = writeln!(out, "failed {}: {reason}", r.label);
                }
                SweepRowStatus::Ok => {}
            }
        }
        out
    }
}

/// Formats a float with 4 significant decimals, trimming noise.
pub fn fmt_f(x: f64) -> String {
    if x == f64::INFINITY {
        "inf".to_owned()
    } else if x.abs() >= 1000.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["short", "1"]);
        t.row(&["a-much-longer-name", "2345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fly_stats_report() {
        let stats = FlyStats { visited: 12, transitions: 30, materialized: 0, truncated: false };
        let text = stats.render();
        assert!(text.contains("visited states"), "{text}");
        assert!(text.contains("materialized states  0"), "{text}");
        assert!(!text.contains("warning"), "{text}");
        let cut = FlyStats { truncated: true, ..stats };
        assert!(cut.render().contains("state cap hit"), "{}", cut.render());
    }

    #[test]
    fn sim_stats_report() {
        let stats = SimStats {
            trajectories: 4096,
            threads: 4,
            confidence: 0.99,
            max_half_width: 0.0123,
            converged: true,
            wall: Duration::from_millis(12),
        };
        let text = stats.render();
        assert!(text.contains("4096"), "{text}");
        assert!(text.contains("99.0%"), "{text}");
        assert!(text.contains("0.012300"), "{text}");
        assert!(!text.contains("warning"), "{text}");
        let capped = SimStats { converged: false, ..stats };
        assert!(capped.render().contains("trajectory cap hit"), "{}", capped.render());
    }

    #[test]
    fn serve_stats_report() {
        let stats = ServeStats {
            accepted: 10,
            done: 8,
            failed: 1,
            rejected: 2,
            cancelled: 1,
            coalesced: 4,
            recovered: 2,
            cache_hits: 3,
            cache_misses: 9,
            uptime: Duration::from_millis(2500),
        };
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        let text = stats.render();
        assert!(text.contains("jobs accepted"), "{text}");
        assert!(text.contains("jobs coalesced  4"), "{text}");
        assert!(text.contains("jobs recovered  2"), "{text}");
        assert!(text.contains("cache hit rate  25.0%"), "{text}");
        assert!(text.contains("2.5 s"), "{text}");
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn reduce_stats_report() {
        let stats = ReduceStats {
            stages: vec![
                ReduceStageRow {
                    stage: 0,
                    component: "Window".into(),
                    states_before: 3,
                    transitions_before: 4,
                    states_after: 3,
                    transitions_after: 4,
                    hidden: vec![],
                },
                ReduceStageRow {
                    stage: 1,
                    component: "Hop".into(),
                    states_before: 6,
                    transitions_before: 11,
                    states_after: 4,
                    transitions_after: 6,
                    hidden: vec!["f1".into(), "f2".into()],
                },
            ],
            peak_states: 6,
            final_states: 4,
            final_transitions: 6,
            resumed_stages: 1,
        };
        let text = stats.render();
        assert!(text.contains("6/11"), "{text}");
        assert!(text.contains("f1,f2"), "{text}");
        assert!(text.contains("resumed 1 stage(s)"), "{text}");
        assert!(text.contains("peak intermediate states: 6"), "{text}");
        let fresh = ReduceStats { resumed_stages: 0, ..stats };
        assert!(!fresh.render().contains("resumed"), "{}", fresh.render());
    }

    #[test]
    fn bounds_report_renders_intervals_and_points() {
        let report = BoundsReport {
            rows: vec![BoundsRow {
                measure: "throughput(push)".into(),
                interval: Interval { min: 1.0, max: 4.0 },
                verdict: Some((">= 2".into(), BoundsVerdict::NoVerdict)),
            }],
            point: false,
        };
        let text = report.render();
        assert!(text.contains("min"), "{text}");
        assert!(text.contains("width"), "{text}");
        assert!(text.contains("3.0000"), "{text}");
        assert!(text.contains("NO VERDICT"), "{text}");

        let point = BoundsReport {
            rows: vec![BoundsRow {
                measure: "latency(2)".into(),
                interval: Interval { min: 0.5, max: 0.5 },
                verdict: None,
            }],
            point: true,
        };
        let text = point.render();
        assert!(text.contains("value"), "{text}");
        assert!(!text.contains("width"), "{text}");
        assert!(!text.contains("verdict"), "{text}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.123456), "0.1235");
        assert_eq!(fmt_f(12345.6), "12345.6");
        assert_eq!(fmt_f(f64::INFINITY), "inf");
    }
}
