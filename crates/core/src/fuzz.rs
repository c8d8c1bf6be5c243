//! Differential fuzzing over generated xMAS fabrics (`multival fuzz`).
//!
//! Each seed becomes a well-typed fabric
//! ([`multival_models::xmas::generate`]) and is swept through the full
//! flow with four independent oracles:
//!
//! 1. **Pipeline vs monolithic** — the smart compositional reduction and
//!    the one-shot product must canonicalize to byte-identical LTSs.
//! 2. **Builder vs `.lot`** — the directly-built component network and
//!    the rendered mini-LOTOS frontend path (parse → extract → reduce)
//!    must canonicalize identically. `inject_flip` plants a switch-
//!    polarity bug in the renderer to prove the harness catches
//!    miscompilation.
//! 3. **Deadlock oracle** — on-the-fly search over the rendered spec
//!    must agree with deadlock detection on the divergence-preserving
//!    reduction of the built network.
//! 4. **Throughput bounds** — when the fabric carries rate annotations,
//!    the `[min, max]` scheduler bounds must form a non-empty interval.
//!
//! Any disagreement is minimized by [`multival_models::xmas::shrink()`]
//! (same oracle as the predicate) and written to the corpus directory as
//! a standalone `.lot` reproducer. Budget trips (shared [`Budget`] —
//! `--max-states` / `--timeout-secs`) abort the sweep, *skip the corpus
//! write*, and surface as exit code 3.

use crate::budget::Budget;
use multival_lts::analysis::deadlock_witness;
use multival_lts::io::write_aut;
use multival_lts::minimize::Equivalence;
use multival_lts::pipeline::{canonicalize, monolithic, run_pipeline, PipelineOptions};
use multival_lts::reach::deadlock_search;
use multival_lts::{ReachOptions, Workers};
use multival_models::xmas::{generate, render_lot, shrink, Fabric, GenConfig, RenderOptions};
use multival_pa::{extract_network, parse_spec, ExploreOptions, PaTs};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Monolithic products larger than this (estimated as the product of the
/// component state counts) are skipped — the pipeline-vs-mono oracle then
/// reports the seed in [`FuzzReport::mono_skipped`] instead of silently
/// covering it.
const MONO_PRODUCT_CAP: u128 = 1 << 20;

/// Default per-seed state cap when the budget sets none.
const DEFAULT_MAX_STATES: usize = 1 << 22;

/// Which differential oracle disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Smart pipeline vs monolithic composition (canonical LTS bytes).
    PipelineVsMono,
    /// Direct builder network vs rendered `.lot` frontend path.
    BuilderVsLot,
    /// On-the-fly deadlock search vs reduced-model deadlock detection.
    DeadlockOracle,
    /// Scheduler throughput bounds (`min <= max`).
    Bounds,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckKind::PipelineVsMono => "pipeline-vs-mono",
            CheckKind::BuilderVsLot => "builder-vs-lot",
            CheckKind::DeadlockOracle => "deadlock-oracle",
            CheckKind::Bounds => "bounds",
        })
    }
}

/// Options for [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Directory for minimized reproducers (created on demand); `None`
    /// disables the corpus write.
    pub corpus_dir: Option<PathBuf>,
    /// Shared wall-clock / state budget for the whole sweep.
    pub budget: Budget,
    /// Topology budget for the generator.
    pub gen: GenConfig,
    /// Plant the switch-polarity bug in the `.lot` renderer (harness
    /// self-test: the sweep must then *find* mismatches).
    pub inject_flip: bool,
    /// Maximum accepted shrink steps per mismatch.
    pub max_shrink_rounds: usize,
    /// Resident-memory budget of the pipeline stage products' state
    /// stores; given, they spill to disk past it.
    pub mem_budget: Option<usize>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed_start: 0,
            seed_end: 16,
            corpus_dir: None,
            budget: Budget::default(),
            gen: GenConfig::default(),
            inject_flip: false,
            max_shrink_rounds: 64,
            mem_budget: None,
        }
    }
}

/// One confirmed oracle disagreement, already minimized.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Seed of the generated fabric.
    pub seed: u64,
    /// Which oracle disagreed.
    pub kind: CheckKind,
    /// Human-readable detail of the disagreement.
    pub detail: String,
    /// The minimized reproducer.
    pub shrunk: Fabric,
    /// Where the reproducer was written (when the corpus is enabled and
    /// the budget did not trip).
    pub corpus_path: Option<PathBuf>,
}

/// Aggregated result of a fuzz sweep.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds fully checked.
    pub seeds_run: usize,
    /// Confirmed, minimized disagreements.
    pub mismatches: Vec<Mismatch>,
    /// The shared budget cut the sweep short.
    pub budget_tripped: bool,
    /// Total product states explored across all oracles.
    pub states_explored: usize,
    /// Seeds whose reduced fabric contains a reachable deadlock.
    pub deadlocks_found: usize,
    /// Seeds where the throughput-bounds oracle ran.
    pub bounds_checked: usize,
    /// Seeds where the bounds oracle does not apply (no rated probe, or a
    /// deadlocking fabric).
    pub bounds_skipped: usize,
    /// Seeds where the bounds oracle applies but the solver returned an
    /// error (conversion refused, no convergence, Zeno guard).
    pub bounds_refused: usize,
    /// Seeds whose monolithic product exceeded the size cap.
    pub mono_skipped: usize,
    /// Seeds where the planted flip does not type-check (the flipped
    /// model validates to an error instead of a wrong LTS).
    pub flip_skipped: usize,
}

impl FuzzReport {
    /// Renders the sweep summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} seeds, {} mismatches, {} states explored",
            self.seeds_run,
            self.mismatches.len(),
            self.states_explored
        );
        let _ = writeln!(
            out,
            "oracles: bounds {} checked / {} skipped / {} refused, mono {} skipped, \
             {} deadlocking fabrics, flip {} skipped",
            self.bounds_checked,
            self.bounds_skipped,
            self.bounds_refused,
            self.mono_skipped,
            self.deadlocks_found,
            self.flip_skipped
        );
        for m in &self.mismatches {
            let _ = writeln!(
                out,
                "MISMATCH seed {} [{}]: {} (reproducer: {} primitives{})",
                m.seed,
                m.kind,
                m.detail,
                m.shrunk.num_prims(),
                match &m.corpus_path {
                    Some(p) => format!(", {}", p.display()),
                    None => String::new(),
                }
            );
        }
        if self.budget_tripped {
            let _ = writeln!(out, "Budget exceeded; partial sweep, corpus write skipped");
        }
        out
    }
}

/// Outcome of checking one fabric.
enum SeedOutcome {
    Clean(SeedStats),
    Mismatch(CheckKind, String),
    Budget,
}

#[derive(Default)]
struct SeedStats {
    states: usize,
    deadlocks: bool,
    bounds_checked: bool,
    bounds_skipped: bool,
    bounds_refused: bool,
    mono_skipped: bool,
    flip_skipped: bool,
}

/// Runs the differential sweep.
#[must_use]
pub fn run_fuzz(options: &FuzzOptions) -> FuzzReport {
    let deadline = options.budget.deadline();
    let max_states = options.budget.max_states_or(DEFAULT_MAX_STATES);
    let mut report = FuzzReport::default();

    for seed in options.seed_start..options.seed_end {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            report.budget_tripped = true;
            break;
        }
        let fabric = generate(seed, &options.gen);
        match check_fabric(&fabric, options, max_states, deadline) {
            SeedOutcome::Clean(stats) => {
                report.seeds_run += 1;
                report.states_explored += stats.states;
                report.deadlocks_found += usize::from(stats.deadlocks);
                report.bounds_checked += usize::from(stats.bounds_checked);
                report.bounds_skipped += usize::from(stats.bounds_skipped);
                report.bounds_refused += usize::from(stats.bounds_refused);
                report.mono_skipped += usize::from(stats.mono_skipped);
                report.flip_skipped += usize::from(stats.flip_skipped);
            }
            SeedOutcome::Mismatch(kind, detail) => {
                report.seeds_run += 1;
                let shrunk = shrink(
                    &fabric,
                    |cand| {
                        matches!(
                            check_fabric(cand, options, max_states, deadline),
                            SeedOutcome::Mismatch(k, _) if k == kind
                        )
                    },
                    options.max_shrink_rounds,
                );
                report.mismatches.push(Mismatch { seed, kind, detail, shrunk, corpus_path: None });
            }
            SeedOutcome::Budget => {
                report.budget_tripped = true;
                break;
            }
        }
    }

    // The corpus write is skipped wholesale on a budget trip: a partial
    // sweep must not publish reproducers it could not finish minimizing.
    if !report.budget_tripped {
        if let Some(dir) = &options.corpus_dir {
            if !report.mismatches.is_empty() {
                let _ = std::fs::create_dir_all(dir);
                for m in &mut report.mismatches {
                    let path = dir.join(format!("xmas_seed{}.lot", m.seed));
                    let body = render_lot(&m.shrunk, &RenderOptions::default())
                        .unwrap_or_else(|e| format!("-- unrenderable reproducer: {e}\n"));
                    let text = format!(
                        "-- multival fuzz reproducer\n-- seed: {}  check: {}\n-- {}\n{}",
                        m.seed, m.kind, m.detail, body
                    );
                    if std::fs::write(&path, text).is_ok() {
                        m.corpus_path = Some(path);
                    }
                }
            }
        }
    }
    report
}

/// Sweeps one fabric through all four oracles.
fn check_fabric(
    fabric: &Fabric,
    options: &FuzzOptions,
    max_states: usize,
    deadline: Option<Instant>,
) -> SeedOutcome {
    let mut stats = SeedStats::default();
    let analysis = match fabric.validate() {
        Ok(a) => a,
        Err(e) => {
            return SeedOutcome::Mismatch(
                CheckKind::BuilderVsLot,
                format!("generated fabric fails to validate: {e}"),
            )
        }
    };
    let net = multival_models::xmas::compile::network_from_analysis(&analysis);
    let pipe_opts = PipelineOptions {
        equivalence: Equivalence::Branching,
        max_states: Some(max_states),
        deadline,
        mem_budget: options.mem_budget,
        ..PipelineOptions::default()
    };

    // Oracle 1: smart pipeline vs monolithic composition.
    let run = run_pipeline(&net, &pipe_opts);
    if !run.complete() {
        return SeedOutcome::Budget;
    }
    stats.states += run.stages.iter().map(|s| s.states_before).sum::<usize>();
    let reduced = canonicalize(&run.lts);
    let reduced_aut = write_aut(&reduced);
    let product_bound: u128 = net
        .components()
        .iter()
        .map(|(_, lts)| lts.num_states() as u128)
        .try_fold(1u128, |acc, n| acc.checked_mul(n))
        .unwrap_or(u128::MAX);
    if product_bound <= MONO_PRODUCT_CAP {
        let mono = monolithic(&net, Equivalence::Branching, Workers::sequential());
        stats.states += mono.product_states;
        if write_aut(&canonicalize(&mono.lts)) != reduced_aut {
            return SeedOutcome::Mismatch(
                CheckKind::PipelineVsMono,
                format!(
                    "pipeline result ({} states) differs from monolithic ({} states)",
                    reduced.num_states(),
                    mono.lts.num_states()
                ),
            );
        }
    } else {
        stats.mono_skipped = true;
    }

    // Oracle 2: rendered `.lot` through the pa frontend.
    let render_opts = RenderOptions { flip_switch: options.inject_flip };
    let rendered = match render_lot(fabric, &render_opts) {
        Ok(src) => Some(src),
        Err(_) if options.inject_flip => {
            // The flipped fabric no longer type-checks (e.g. a dead
            // branch): fall back to the honest render for this seed.
            stats.flip_skipped = true;
            render_lot(fabric, &RenderOptions::default()).ok()
        }
        Err(e) => {
            return SeedOutcome::Mismatch(
                CheckKind::BuilderVsLot,
                format!("validated fabric fails to render: {e}"),
            )
        }
    };
    let Some(rendered) = rendered else {
        return SeedOutcome::Mismatch(
            CheckKind::BuilderVsLot,
            "validated fabric fails to render".to_owned(),
        );
    };
    let spec = match parse_spec(&rendered) {
        Ok(s) => s,
        Err(e) => {
            return SeedOutcome::Mismatch(
                CheckKind::BuilderVsLot,
                format!("rendered model does not parse: {e}"),
            )
        }
    };
    let lot_net = match extract_network(&spec, &ExploreOptions::with_max_states(max_states)) {
        Ok(n) => n,
        Err(e) => {
            return SeedOutcome::Mismatch(
                CheckKind::BuilderVsLot,
                format!("rendered model does not extract: {e}"),
            )
        }
    };
    let lot_run = run_pipeline(&lot_net, &pipe_opts);
    if !lot_run.complete() {
        return SeedOutcome::Budget;
    }
    stats.states += lot_run.stages.iter().map(|s| s.states_before).sum::<usize>();
    if write_aut(&canonicalize(&lot_run.lts)) != reduced_aut {
        return SeedOutcome::Mismatch(
            CheckKind::BuilderVsLot,
            format!(
                "frontend path ({} states) differs from builder path ({} states)",
                lot_run.lts.num_states(),
                reduced.num_states()
            ),
        );
    }

    // Oracle 3: on-the-fly deadlock search vs the divergence-preserving
    // reduction (plain branching may merge a tau-loop with a deadlock, so
    // the reduced side must stay divergence-sensitive).
    let ts = PaTs::new(&spec);
    let search = deadlock_search(&ts, &ReachOptions::with_max_states(max_states));
    if search.stats.truncated {
        return SeedOutcome::Budget;
    }
    stats.states += search.stats.visited;
    let div_opts =
        PipelineOptions { equivalence: Equivalence::BranchingDivergence, ..pipe_opts.clone() };
    let div_run = run_pipeline(&net, &div_opts);
    if !div_run.complete() {
        return SeedOutcome::Budget;
    }
    let reduced_deadlock = deadlock_witness(&div_run.lts).is_some();
    let onthefly_deadlock = search.witness.is_some();
    if reduced_deadlock != onthefly_deadlock {
        return SeedOutcome::Mismatch(
            CheckKind::DeadlockOracle,
            format!(
                "on-the-fly search says deadlock={onthefly_deadlock}, \
                 divergence-preserving reduction says deadlock={reduced_deadlock}"
            ),
        );
    }
    stats.deadlocks = onthefly_deadlock;

    // Oracle 4: scheduler throughput bounds on the reduced model.
    let rates: HashMap<String, f64> = fabric.rates().iter().map(|(k, v)| (k.clone(), *v)).collect();
    let visible = analysis.visible_gates();
    let probes: Vec<&str> =
        visible.iter().map(String::as_str).filter(|g| rates.contains_key(*g)).collect();
    if probes.is_empty() || onthefly_deadlock {
        stats.bounds_skipped = true;
    } else {
        let flow = crate::flow::Flow::from_lts(reduced.clone());
        match flow.with_rates(&rates).solve_bounds(&probes) {
            Ok(solved) => match solved.throughput_bounds() {
                Ok(bounds) => {
                    stats.bounds_checked = true;
                    for (gate, interval) in bounds {
                        if interval.min > interval.max + 1e-9 {
                            return SeedOutcome::Mismatch(
                                CheckKind::Bounds,
                                format!(
                                    "throughput bounds for `{gate}` are inverted: \
                                     [{}, {}]",
                                    interval.min, interval.max
                                ),
                            );
                        }
                    }
                }
                Err(_) => stats.bounds_refused = true,
            },
            Err(_) => stats.bounds_refused = true,
        }
    }

    SeedOutcome::Clean(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_over_default_seeds() {
        let options = FuzzOptions { seed_start: 0, seed_end: 12, ..FuzzOptions::default() };
        let report = run_fuzz(&options);
        assert_eq!(report.seeds_run, 12);
        assert!(report.mismatches.is_empty(), "{}", report.render());
        assert!(!report.budget_tripped);
        assert!(report.states_explored > 0);
        // The bounds solver answers every fabric the oracle applies to.
        assert!(report.bounds_checked > 0, "{}", report.render());
        assert_eq!(report.bounds_refused, 0, "{}", report.render());
        assert!(report.render().contains(" / 0 refused,"), "{}", report.render());
    }

    #[test]
    fn budget_trip_skips_corpus_write() {
        let dir = std::env::temp_dir().join("multival_fuzz_budget_test");
        let _ = std::fs::remove_dir_all(&dir);
        let options = FuzzOptions {
            seed_start: 0,
            seed_end: 8,
            corpus_dir: Some(dir.clone()),
            budget: Budget::default().with_max_states(8),
            inject_flip: true,
            ..FuzzOptions::default()
        };
        let report = run_fuzz(&options);
        assert!(report.budget_tripped);
        assert!(!dir.exists(), "budget trip must skip the corpus write");
    }

    #[test]
    fn injected_flip_is_caught_and_shrunk() {
        let options = FuzzOptions {
            seed_start: 0,
            seed_end: 64,
            inject_flip: true,
            ..FuzzOptions::default()
        };
        let report = run_fuzz(&options);
        assert!(
            !report.mismatches.is_empty(),
            "the planted switch-polarity bug must be caught:\n{}",
            report.render()
        );
        let smallest =
            report.mismatches.iter().map(|m| m.shrunk.num_prims()).min().expect("nonempty");
        assert!(
            smallest <= 6,
            "expected a reproducer of <= 6 primitives, got {smallest}:\n{}",
            report.render()
        );
        for m in &report.mismatches {
            assert_eq!(m.kind, CheckKind::BuilderVsLot);
            assert!(m.shrunk.validate().is_ok(), "reproducers stay well-typed");
        }
    }
}
