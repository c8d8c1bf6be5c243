//! The SOS successor function exposed as a [`TransitionSystem`]: a
//! specification's behaviour can be explored, composed with observers, and
//! model-checked on the fly, without ever materializing its LTS.
//!
//! [`PaTs`] interns labels *lazily*: the label table grows as new actions
//! are derived, in discovery order (see `multival_lts::ts`).
//!
//! Semantic errors (undefined process, unguarded recursion, …) cannot be
//! surfaced through the infallible successor signature; they are parked in
//! a side channel instead, and the affected state reports no successors.
//! Callers must check [`PaTs::take_error`] after exploring — a search that
//! hit an error is inconclusive.

use crate::semantics::{transitions, Label, SemError};
use crate::spec::Spec;
use crate::term::Term;
use multival_lts::{LabelId, LabelTable, TransitionSystem};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A process-algebra specification viewed as an implicit transition system
/// over its terms.
pub struct PaTs<'a> {
    spec: &'a Spec,
    /// Lazily grown label table plus the semantic-label → id cache, guarded
    /// together so an id is never observed before its name is interned.
    labels: Mutex<(LabelTable, HashMap<Label, LabelId>)>,
    /// First semantic error encountered, with the term that raised it.
    error: Mutex<Option<(SemError, Arc<Term>)>>,
}

impl<'a> PaTs<'a> {
    /// Views `spec`'s top behaviour as a transition system.
    ///
    /// # Panics
    ///
    /// Panics if the specification has no top behaviour.
    pub fn new(spec: &'a Spec) -> Self {
        assert!(spec.try_top().is_some(), "specification has no top behaviour");
        PaTs {
            spec,
            labels: Mutex::new((LabelTable::new(), HashMap::new())),
            error: Mutex::new(None),
        }
    }

    /// Takes the first semantic error hit during exploration, if any;
    /// the state that raised it is returned alongside.
    pub fn take_error(&self) -> Option<(SemError, Arc<Term>)> {
        self.error.lock().expect("error channel poisoned").take()
    }

    /// Whether a semantic error has been recorded.
    pub fn has_error(&self) -> bool {
        self.error.lock().expect("error channel poisoned").is_some()
    }

    fn intern(&self, label: &Label) -> LabelId {
        let mut guard = self.labels.lock().expect("label table poisoned");
        let (table, cache) = &mut *guard;
        match cache.get(label) {
            Some(&id) => id,
            None => {
                let id = table.intern(&crate::explorer::render_label(label));
                cache.insert(label.clone(), id);
                id
            }
        }
    }
}

impl TransitionSystem for PaTs<'_> {
    type State = Arc<Term>;

    fn initial_state(&self) -> Arc<Term> {
        self.spec.top().clone()
    }

    fn successors(&self, state: &Arc<Term>) -> Vec<(LabelId, Arc<Term>)> {
        match transitions(state, self.spec) {
            Ok(succ) => succ.into_iter().map(|(label, term)| (self.intern(&label), term)).collect(),
            Err(error) => {
                let mut slot = self.error.lock().expect("error channel poisoned");
                if slot.is_none() {
                    *slot = Some((error, state.clone()));
                }
                Vec::new()
            }
        }
    }

    fn label_table(&self) -> LabelTable {
        self.labels.lock().expect("label table poisoned").0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spec;
    use multival_lts::reach::{deadlock_search, materialize, ReachOptions};

    #[test]
    fn pa_ts_matches_eager_explorer() {
        let spec = parse_spec("behaviour hide m in (a; m; stop |[m]| m; b; stop)").expect("parses");
        let ts = PaTs::new(&spec);
        let lazy = materialize(&ts);
        let eager = crate::explorer::explore(&spec, &crate::explorer::ExploreOptions::default())
            .expect("explores");
        assert_eq!(
            multival_lts::io::write_aut(&lazy),
            multival_lts::io::write_aut(&eager.lts),
            "lazy exploration must match the eager explorer byte-for-byte"
        );
        assert!(ts.take_error().is_none());
    }

    #[test]
    fn deadlock_search_runs_directly_on_terms() {
        let spec = parse_spec("behaviour a; b; stop").expect("parses");
        let ts = PaTs::new(&spec);
        let outcome = deadlock_search(&ts, &ReachOptions::default());
        assert_eq!(outcome.witness, Some(vec!["a".to_owned(), "b".to_owned()]));
        assert!(!ts.has_error());
    }

    #[test]
    fn semantic_errors_are_parked_in_the_side_channel() {
        // Unguarded recursion parses fine but fails during derivation.
        let spec = parse_spec(
            "process Loop := Loop endproc\n\
             behaviour Loop",
        )
        .expect("parses");
        let ts = PaTs::new(&spec);
        let _ = materialize(&ts);
        assert!(ts.has_error(), "unguarded recursion must surface as an error");
        let (err, _) = ts.take_error().expect("error recorded");
        assert!(err.to_string().contains("unguarded recursion"), "got: {err}");
    }
}
