//! State-space generation: breadth-first enumeration of the SOS semantics
//! into an explicit LTS (the CADP `cæsar`/`generator` role).
//!
//! Exploration is sequential and runs on the compiled successor function
//! of `crate::compiled`: a state is a vector of sequential-component
//! states, not a term. State ids are BFS discovery order, and every entry
//! point — term-keeping or store-backed, with or without a memory budget —
//! runs the same loop, so their LTSs and abort reports are byte-identical
//! to each other and to a BFS over [`crate::ts::PaTs`]. See `DESIGN.md` §6.

use crate::compiled::Engine;
use crate::pack::pack;
use crate::semantics::{Label, SemError};
use crate::spec::Spec;
use crate::term::Term;
use multival_lts::store::{make_store, ArenaStore, StateStore, StoreStats};
use multival_lts::{LabelId, Lts, LtsBuilder, StateId};
use std::fmt;
use std::sync::Arc;

/// Exploration limits and options.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum number of states to enumerate before aborting.
    pub max_states: usize,
    /// Maximum number of transitions to enumerate before aborting.
    pub max_transitions: usize,
    /// Wall-clock budget: exploration aborts (keeping partial work) once
    /// this instant passes. `None` (the default) runs unbounded. Unlike the
    /// state caps, where the abort lands depends on machine speed — callers
    /// wanting reproducible truncation should cap states instead.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions { max_states: 1_000_000, max_transitions: 8_000_000, deadline: None }
    }
}

impl ExploreOptions {
    /// Options with a custom state cap (transition cap scales 8×).
    pub fn with_max_states(max_states: usize) -> Self {
        ExploreOptions {
            max_states,
            max_transitions: max_states.saturating_mul(8),
            ..Self::default()
        }
    }

    /// Accepts and ignores a worker-thread count: exploration is
    /// sequential. Kept only so the standalone `perfbench` package, which
    /// is versioned apart from this crate, still compiles; no code in this
    /// workspace calls it.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Error raised by [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// A cap was exceeded (state-space explosion). The counts report the
    /// work actually admitted before the abort — both caps are inclusive:
    /// exploration fails on the first state/transition that would push a
    /// count *past* its cap.
    Explosion {
        /// States enumerated when the cap was hit.
        states: usize,
        /// Transitions enumerated when the cap was hit.
        transitions: usize,
        /// BFS depth of the state being expanded when the cap was hit.
        depth: usize,
    },
    /// The semantics reported a modeling error, with the shortest-path
    /// offending state printed for diagnosis.
    Semantics {
        /// The underlying error.
        error: SemError,
        /// Display form of the state whose transitions failed to derive.
        state: String,
    },
    /// The wall-clock budget ([`ExploreOptions::deadline`]) ran out. The
    /// counts report the work admitted before the abort.
    Deadline {
        /// States enumerated when the budget ran out.
        states: usize,
        /// Transitions enumerated when the budget ran out.
        transitions: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Explosion { states, transitions, depth } => write!(
                f,
                "state-space explosion: caps exceeded after {states} states / \
                 {transitions} transitions (BFS depth {depth})"
            ),
            ExploreError::Semantics { error, state } => {
                write!(f, "{error} (in state `{state}`)")
            }
            ExploreError::Deadline { states, transitions } => write!(
                f,
                "wall-clock budget exhausted after {states} states / \
                 {transitions} transitions"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// The result of a successful exploration: the LTS plus the term each state
/// id denotes (for state-predicate checks on the model's data).
#[derive(Debug, Clone)]
#[must_use]
pub struct Explored {
    /// The generated LTS; state ids are BFS discovery order, state 0 initial.
    pub lts: Lts,
    /// `states[i]` is the closed term that state `i` denotes.
    pub states: Vec<Arc<Term>>,
}

impl Explored {
    /// Finds all states whose term satisfies `pred`.
    pub fn states_where(&self, mut pred: impl FnMut(&Term) -> bool) -> Vec<StateId> {
        self.states.iter().enumerate().filter(|(_, t)| pred(t)).map(|(i, _)| i as StateId).collect()
    }
}

/// An exploration outcome that keeps partial work on failure: `explored`
/// holds whatever was enumerated before completion or abort.
#[derive(Debug, Clone)]
#[must_use]
pub struct Exploration {
    /// Everything enumerated so far (complete iff `aborted` is `None`).
    pub explored: Explored,
    /// `None` when exploration ran to completion; the abort reason
    /// otherwise.
    pub aborted: Option<ExploreError>,
}

impl Exploration {
    /// Converts to a plain result, dropping partial work on failure.
    pub fn into_result(self) -> Result<Explored, ExploreError> {
        match self.aborted {
            None => Ok(self.explored),
            Some(e) => Err(e),
        }
    }
}

/// Explores the state space of `spec`'s top behaviour.
///
/// # Errors
///
/// Returns [`ExploreError::Explosion`] when a cap is exceeded and
/// [`ExploreError::Semantics`] when transition derivation fails (which
/// pinpoints the offending reachable state).
///
/// # Examples
///
/// ```
/// use multival_pa::parser::parse_spec;
/// use multival_pa::explorer::{explore, ExploreOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = parse_spec(
///     "process P[a, b] := a; b; P[a, b] endproc
///      behaviour P[x, y]",
/// )?;
/// let explored = explore(&spec, &ExploreOptions::default())?;
/// assert_eq!(explored.lts.num_states(), 2);
/// # Ok(())
/// # }
/// ```
pub fn explore(spec: &Spec, options: &ExploreOptions) -> Result<Explored, ExploreError> {
    explore_term(spec.top().clone(), spec, options)
}

/// Explores from an explicit initial term (rather than the spec's top).
///
/// # Errors
///
/// Same as [`explore`].
pub fn explore_term(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
) -> Result<Explored, ExploreError> {
    explore_kept(initial, spec, options).into_result()
}

/// Like [`explore`], but retains partial work when exploration aborts.
pub fn explore_partial(spec: &Spec, options: &ExploreOptions) -> Exploration {
    explore_kept(spec.top().clone(), spec, options)
}

/// How many expanded states pass between wall-clock checks — keeps
/// `Instant::now` off the per-state hot path.
const DEADLINE_STRIDE: usize = 128;

/// Whether the options' wall-clock budget has run out.
fn past_deadline(options: &ExploreOptions) -> bool {
    options.deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// The term-keeping exploration from `initial`, retaining partial work
/// when it aborts: on a cap hit or semantics error, `explored` holds
/// exactly the states and transitions admitted before the abort.
fn explore_kept(initial: Arc<Term>, spec: &Spec, options: &ExploreOptions) -> Exploration {
    let mut store = ArenaStore::new();
    let run = bfs(initial, spec, options, &mut store, true);
    Exploration { explored: Explored { lts: run.lts, states: run.terms }, aborted: run.aborted }
}

/// Result of a store-backed exploration: the LTS plus the dedup store's
/// accounting. Unlike [`Explored`], per-state terms are *not* retained:
/// the dedup index holds each state's packed leaf-id vector (one varint
/// per sequential component, see `crate::compiled`) in a [`StateStore`],
/// and only the current BFS level's vectors stay resident besides. This
/// is the million-state entry point: under a memory budget the store
/// spills to disk, so resident memory is bounded by the budget, the
/// fingerprint table and the frontier.
#[derive(Debug, Clone)]
#[must_use]
pub struct StoreExploration {
    /// The generated LTS; numbering is identical to [`explore`]'s.
    pub lts: Lts,
    /// Dedup-store counters (states, key bytes, resident/spilled bytes).
    pub store: StoreStats,
    /// `None` when exploration ran to completion; the abort reason
    /// otherwise (partial work is kept in `lts`).
    pub aborted: Option<ExploreError>,
}

/// Explores from `initial` through a state store, without retaining a
/// term per state: an arena, or a store spilling to disk past
/// `mem_budget` bytes when a budget is given. Partial work is kept when
/// exploration aborts.
///
/// The LTS — state numbering, label table, transitions — and the abort
/// report are byte-identical to [`explore_term`]'s either way.
pub fn explore_term_store_partial(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
    mem_budget: Option<usize>,
) -> StoreExploration {
    let mut store = make_store(mem_budget);
    let run = bfs(initial, spec, options, store.as_mut(), false);
    StoreExploration { lts: run.lts, store: store.stats(), aborted: run.aborted }
}

/// What [`bfs`] produced: the LTS, the per-state terms when asked for,
/// and the abort reason.
struct Bfs {
    lts: Lts,
    terms: Vec<Arc<Term>>,
    aborted: Option<ExploreError>,
}

/// The one breadth-first search behind every entry point. States are
/// compiled leaf-id vectors (`crate::compiled`), deduplicated on their
/// packed keys in `store`; ids are discovery order. `keep_terms` also
/// builds the closed term of each state, sharing unchanged subterms with
/// its BFS parent's.
///
/// Successors, labels and cap checks are admitted in exactly the order
/// the term semantics derives them, so the LTS and any abort report are
/// those of a BFS over terms.
fn bfs(
    initial: Arc<Term>,
    spec: &Spec,
    options: &ExploreOptions,
    store: &mut dyn StateStore,
    keep_terms: bool,
) -> Bfs {
    let (mut engine, init) = Engine::new(&initial, spec);
    let width = init.len();
    let mut builder = LtsBuilder::new();
    // LTS label id per engine label id, interned at first emission.
    let mut lts_labels: Vec<Option<LabelId>> = Vec::new();
    let mut key = Vec::new();
    pack(&init, &mut key);
    builder.add_state();
    store.get_or_insert(&key);
    let mut terms = if keep_terms { vec![initial] } else { Vec::new() };

    // Vectors of the BFS level being expanded, in id order, and of the
    // next level as it is discovered.
    let mut frontier = init;
    let mut next: Vec<u32> = Vec::new();
    let mut succ: Vec<u32> = Vec::with_capacity(width);
    let mut src: StateId = 0;
    let mut nstates = 1usize;
    let mut ntrans = 0usize;
    let mut depth = 0usize;
    let mut since_check = 0usize;

    let aborted = 'search: loop {
        if frontier.is_empty() {
            break None;
        }
        for v in frontier.chunks_exact(width) {
            since_check += 1;
            if since_check >= DEADLINE_STRIDE {
                since_check = 0;
                if past_deadline(options) {
                    break 'search Some(ExploreError::Deadline {
                        states: nstates,
                        transitions: ntrans,
                    });
                }
            }
            if let Err(error) = engine.derive(v) {
                let term = if keep_terms { terms[src as usize].clone() } else { engine.term(v) };
                break 'search Some(ExploreError::Semantics { error, state: term.to_string() });
            }
            for &m in engine.moves() {
                engine.apply(m, v, &mut succ);
                pack(&succ, &mut key);
                let (dst, is_new) = store.get_or_insert(&key);
                if is_new {
                    if nstates >= options.max_states {
                        break 'search Some(ExploreError::Explosion {
                            states: nstates,
                            transitions: ntrans,
                            depth,
                        });
                    }
                    let b = builder.add_state();
                    debug_assert_eq!(b, dst);
                    nstates += 1;
                    next.extend_from_slice(&succ);
                    if keep_terms {
                        let term = engine.rebuild(&terms[src as usize], v, &succ);
                        terms.push(term);
                    }
                }
                if ntrans >= options.max_transitions {
                    break 'search Some(ExploreError::Explosion {
                        states: nstates,
                        transitions: ntrans,
                        depth,
                    });
                }
                ntrans += 1;
                let slot = m.label as usize;
                if slot >= lts_labels.len() {
                    lts_labels.resize(slot + 1, None);
                }
                let lid = *lts_labels[slot]
                    .get_or_insert_with(|| builder.intern(&render_label(engine.label(m.label))));
                builder.add_transition_id(src, lid, dst);
            }
            src += 1;
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        depth += 1;
    };
    Bfs { lts: builder.build(0), terms, aborted }
}

/// Renders a semantic label in the LTS textual convention
/// (`i`, `exit !v…`, `GATE !v…`).
pub fn render_label(label: &Label) -> String {
    label.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::spec::ProcDef;
    use crate::term::{Action, Offer, SyncKind};
    use crate::value::{sym, Type};
    use multival_lts::io::write_aut;

    fn counter_spec(max: i64) -> Spec {
        // Count[up, down](n): up when n<max, down when n>0.
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("Count"),
            gates: vec![sym("up"), sym("down")],
            params: vec![(sym("n"), Type::Int(0, max))],
            body: Term::Choice(
                Term::Guard(
                    Expr::bin(BinOp::Lt, Expr::var("n"), Expr::int(max)),
                    Term::Prefix(
                        Action::bare("up"),
                        Term::Call(
                            sym("Count"),
                            vec![sym("up"), sym("down")],
                            vec![Expr::bin(BinOp::Add, Expr::var("n"), Expr::int(1))],
                        )
                        .rc(),
                    )
                    .rc(),
                )
                .rc(),
                Term::Guard(
                    Expr::bin(BinOp::Gt, Expr::var("n"), Expr::int(0)),
                    Term::Prefix(
                        Action::bare("down"),
                        Term::Call(
                            sym("Count"),
                            vec![sym("up"), sym("down")],
                            vec![Expr::bin(BinOp::Sub, Expr::var("n"), Expr::int(1))],
                        )
                        .rc(),
                    )
                    .rc(),
                )
                .rc(),
            )
            .rc(),
        });
        s.set_top(Term::Call(sym("Count"), vec![sym("up"), sym("down")], vec![Expr::int(0)]).rc());
        s
    }

    /// Three interleaved counters: 5³ = 125 states over several wide BFS
    /// levels.
    fn triple_counter_top() -> (Spec, Arc<Term>) {
        let s = counter_spec(4);
        let call = |u: &str, d: &str| {
            Term::Call(sym("Count"), vec![sym(u), sym(d)], vec![Expr::int(0)]).rc()
        };
        let top = Term::Par(
            SyncKind::Interleave,
            call("u1", "d1"),
            Term::Par(SyncKind::Interleave, call("u2", "d2"), call("u3", "d3")).rc(),
        )
        .rc();
        (s, top)
    }

    #[test]
    fn counter_has_linear_state_space() {
        let s = counter_spec(4);
        let e = explore(&s, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 5);
        assert_eq!(e.lts.num_transitions(), 8); // 4 up + 4 down
        assert!(e.lts.deadlock_states().is_empty());
    }

    #[test]
    fn state_cap_triggers_explosion_error() {
        let s = counter_spec(100);
        let err = explore(&s, &ExploreOptions::with_max_states(10)).expect_err("cap");
        assert!(matches!(err, ExploreError::Explosion { .. }));
    }

    #[test]
    fn state_cap_is_inclusive_at_the_boundary() {
        // The full space is 5 states / 8 transitions: caps equal to the
        // exact counts must succeed, caps one below must fail and report
        // exactly the admitted work.
        let s = counter_spec(4);
        let exact =
            ExploreOptions { max_states: 5, max_transitions: 8, ..ExploreOptions::default() };
        let e = explore(&s, &exact).expect("caps equal to the space succeed");
        assert_eq!(e.lts.num_states(), 5);
        assert_eq!(e.lts.num_transitions(), 8);

        let tight_states =
            ExploreOptions { max_states: 4, max_transitions: 8, ..ExploreOptions::default() };
        match explore(&s, &tight_states).expect_err("state cap") {
            ExploreError::Explosion { states, .. } => assert_eq!(states, 4),
            other => panic!("unexpected {other}"),
        }

        let tight_trans =
            ExploreOptions { max_states: 5, max_transitions: 7, ..ExploreOptions::default() };
        match explore(&s, &tight_trans).expect_err("transition cap") {
            ExploreError::Explosion { transitions, .. } => assert_eq!(transitions, 7),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn explosion_retains_partial_work() {
        let s = counter_spec(100);
        let opts =
            ExploreOptions { max_states: 10, max_transitions: 800, ..ExploreOptions::default() };
        let partial = explore_partial(&s, &opts);
        let err = partial.aborted.expect("cap hit");
        match err {
            ExploreError::Explosion { states, transitions, depth } => {
                assert_eq!(states, 10, "all admitted states reported");
                assert_eq!(partial.explored.states.len(), 10);
                assert_eq!(partial.explored.lts.num_states(), 10);
                assert_eq!(partial.explored.lts.num_transitions(), transitions);
                assert!(depth > 0, "the counter chain is deeper than one level");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn semantic_error_pinpoints_state() {
        let mut s = Spec::new();
        s.set_top(Term::Exit(vec![Expr::var("ghost")]).rc());
        let err = explore(&s, &ExploreOptions::default()).expect_err("unbound");
        match err {
            ExploreError::Semantics { error, state } => {
                assert!(matches!(error, SemError::Eval(_)));
                assert!(state.contains("ghost"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn interleaving_counters_multiply() {
        // Two independent 3-state counters → 9 product states.
        let s = counter_spec(2);
        let top = Term::Par(
            SyncKind::Interleave,
            Term::Call(sym("Count"), vec![sym("u1"), sym("d1")], vec![Expr::int(0)]).rc(),
            Term::Call(sym("Count"), vec![sym("u2"), sym("d2")], vec![Expr::int(0)]).rc(),
        )
        .rc();
        let e = explore_term(top, &s, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_states(), 9);
    }

    #[test]
    fn store_backed_exploration_is_backend_and_thread_invariant() {
        let (s, top) = triple_counter_top();
        let base = explore_term(top.clone(), &s, &ExploreOptions::default()).expect("baseline");
        // The arena, and the spill store at a 1-byte budget, which pages
        // on every sealed segment.
        for mem_budget in [None, Some(1)] {
            let run =
                explore_term_store_partial(top.clone(), &s, &ExploreOptions::default(), mem_budget);
            assert!(run.aborted.is_none());
            assert_eq!(write_aut(&run.lts), write_aut(&base.lts), "budget {mem_budget:?}");
        }
    }

    #[test]
    fn store_backed_explosion_matches_sequential_partial_work() {
        let (s, top) = triple_counter_top();
        let opts =
            ExploreOptions { max_states: 60, max_transitions: 480, ..ExploreOptions::default() };
        let seq = explore_kept(top.clone(), &s, &opts);
        let run = explore_term_store_partial(top, &s, &opts, None);
        assert_eq!(seq.aborted, run.aborted, "identical abort report");
        assert!(run.aborted.is_some(), "cap must trigger");
        assert_eq!(write_aut(&seq.explored.lts), write_aut(&run.lts));
        assert!(run.store.states >= run.lts.num_states(), "store saw every admitted state");
    }

    #[test]
    fn store_backed_semantic_error_matches_sequential() {
        let mut s = Spec::new();
        s.set_top(Term::Exit(vec![Expr::var("ghost")]).rc());
        let seq = explore_partial(&s, &ExploreOptions::default());
        let run = explore_term_store_partial(s.top().clone(), &s, &ExploreOptions::default(), None);
        assert_eq!(seq.aborted, run.aborted);
    }

    #[test]
    fn states_where_inspects_terms() {
        let s = counter_spec(3);
        let e = explore(&s, &ExploreOptions::default()).expect("explores");
        // All states are process calls Count(..) — count those with arg 0.
        let zeros = e.states_where(|t| {
            matches!(t, Term::Call(_, _, args)
            if args == &vec![Expr::int(0)])
        });
        assert_eq!(zeros.len(), 1);
    }

    #[test]
    fn data_offers_fan_out() {
        let mut s = Spec::new();
        s.set_top(
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Recv(sym("x"), Type::Int(0, 4))] },
                Term::Stop.rc(),
            )
            .rc(),
        );
        let e = explore(&s, &ExploreOptions::default()).expect("explores");
        assert_eq!(e.lts.num_transitions(), 5);
        assert_eq!(e.lts.num_states(), 2, "all branches reach the same stop state");
    }
}
