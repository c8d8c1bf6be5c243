//! Implicit transition systems: the successor-function seam of the flow.
//!
//! A [`TransitionSystem`] is a graph given *intensionally* — an initial
//! state and a successor function — rather than as stored arrays. It is
//! the Rust counterpart of CADP's Open/Caesar implicit-graph API: every
//! on-the-fly algorithm in [`crate::reach`] (materialization, deadlock
//! search, violation search) is written once against this trait and works
//! for explicit [`Lts`] graphs, lazy parallel products, relabeling views,
//! and the process-algebra explorer's SOS successor function alike.
//!
//! # Determinism
//!
//! Traversal is sequential and follows each system's canonical derivation
//! order, so materialization and on-the-fly searches are reproducible for
//! every implementation. Systems that intern labels lazily (the `pa`
//! explorer's term-level system, [`RenameView`]) assign label ids in
//! discovery order.

use crate::label::{gate_of, LabelId, LabelTable};
use crate::lts::{Lts, StateId};
use crate::ops;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// A transition system given by its successor function.
///
/// States are opaque hashable values; transitions carry ids from the
/// system's [`LabelTable`]. See the [module docs](self) on determinism.
pub trait TransitionSystem: Sync {
    /// The state representation (a dense id, a tuple of component states,
    /// a process-algebra term, ...).
    type State: Clone + Eq + std::hash::Hash + Send + Sync;

    /// The initial state.
    fn initial_state(&self) -> Self::State;

    /// The outgoing transitions of `state`, as `(label, target)` pairs in
    /// the system's canonical derivation order.
    fn successors(&self, state: &Self::State) -> Vec<(LabelId, Self::State)>;

    /// A snapshot of the label table. For lazily-interning systems the
    /// snapshot grows as exploration proceeds; every label id already
    /// returned by [`successors`](TransitionSystem::successors) is valid
    /// in every later snapshot.
    fn label_table(&self) -> LabelTable;

    /// An upper-bound hint on the number of reachable states, when one is
    /// known (used only for capacity pre-allocation).
    fn state_hint(&self) -> Option<usize> {
        None
    }
}

/// An explicit [`Lts`] is trivially a transition system.
impl TransitionSystem for Lts {
    type State = StateId;

    fn initial_state(&self) -> StateId {
        self.initial()
    }

    fn successors(&self, state: &StateId) -> Vec<(LabelId, StateId)> {
        self.transitions_from(*state).iter().map(|t| (t.label, t.target)).collect()
    }

    fn label_table(&self) -> LabelTable {
        self.labels().clone()
    }

    fn state_hint(&self) -> Option<usize> {
        Some(self.num_states())
    }
}

/// On-the-fly N-way parallel composition: the product of `N` component
/// LTSs under one [`ops::Sync`] discipline, *walked* instead of stored.
///
/// States are tuples of component states; only the successor function is
/// computed, so a deadlock or safety search can stop after visiting a
/// fraction of the full product. Materializing the binary product
/// ([`crate::reach::materialize`]) is byte-identical to the eager
/// [`ops::compose`] — the eager operators are thin wrappers over this type.
///
/// Synchronization follows the LOTOS discipline of [`ops::compose`]: a
/// label whose gate is in the sync set (or is `exit`) must be taken
/// jointly by *all* components with identical full labels; τ and
/// non-synchronizing labels interleave. For `N > 2` this coincides with
/// the left fold `(((p1 |[G]| p2) |[G]| p3) ...)` up to state numbering.
///
/// # Examples
///
/// ```
/// use multival_lts::equiv::lts_from_triples;
/// use multival_lts::ops::Sync;
/// use multival_lts::reach::materialize;
/// use multival_lts::ts::LazyProduct;
///
/// let a = lts_from_triples(&[(0, "GO", 1), (1, "i", 0)]);
/// let b = lts_from_triples(&[(0, "GO", 1), (1, "i", 0)]);
/// let product = LazyProduct::new(&[&a, &b], &Sync::on(["GO"]));
/// assert_eq!(materialize(&product).num_states(), 4);
/// ```
pub struct LazyProduct<'a> {
    parts: Vec<&'a Lts>,
    labels: LabelTable,
    /// `prod[k][l]` — product-table id of component `k`'s label `l`.
    prod: Vec<Vec<LabelId>>,
    /// `syncs[k][l]` — does component `k`'s label `l` synchronize?
    syncs: Vec<Vec<bool>>,
    /// `partner[k - 1][l]` — component `k`'s label with the identical full
    /// name as component 0's synchronizing label `l` (LOTOS value
    /// negotiation), if any.
    partner: Vec<Vec<Option<LabelId>>>,
}

impl<'a> LazyProduct<'a> {
    /// Builds the lazy product of `parts` under `sync`.
    ///
    /// The product label table is fixed here: component labels are
    /// interned rightmost-component first, matching the table layout the
    /// eager binary [`ops::compose`] has always produced.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: &[&'a Lts], sync: &ops::Sync) -> Self {
        assert!(!parts.is_empty(), "LazyProduct needs at least one component");
        let is_sync = |id: LabelId, name: &str| {
            !id.is_tau() && (gate_of(name) == "exit" || sync.synchronizes(gate_of(name)))
        };
        let mut labels = LabelTable::new();
        let mut prod = vec![Vec::new(); parts.len()];
        let mut syncs = vec![Vec::new(); parts.len()];
        for (k, part) in parts.iter().enumerate().rev() {
            for (id, name) in part.labels().iter() {
                prod[k].push(labels.intern(name));
                syncs[k].push(is_sync(id, name));
            }
        }
        let mut partner = Vec::with_capacity(parts.len() - 1);
        for k in 1..parts.len() {
            let col = parts[0]
                .labels()
                .iter()
                .map(|(id, name)| {
                    if syncs[0][id.index()] {
                        parts[k].labels().lookup(name).filter(|p| syncs[k][p.index()])
                    } else {
                        None
                    }
                })
                .collect();
            partner.push(col);
        }
        LazyProduct { parts: parts.to_vec(), labels, prod, syncs, partner }
    }

    /// The component LTSs.
    pub fn components(&self) -> &[&'a Lts] {
        &self.parts
    }

    /// Number of states of the *full* explicit product (the materialized
    /// space is the reachable subset of this).
    pub fn full_product_states(&self) -> usize {
        self.parts.iter().map(|p| p.num_states()).product()
    }

    /// Emits every synchronized move driven by component 0's transition
    /// `(label0, target0)`: the cross-product of each other component's
    /// identically-labeled moves, enumerated component 1 outermost (the
    /// order the eager binary compose produced).
    fn sync_moves(
        &self,
        state: &[StateId],
        label0: LabelId,
        next: &mut Vec<StateId>,
        k: usize,
        out: &mut Vec<(LabelId, Vec<StateId>)>,
    ) {
        if k == self.parts.len() {
            out.push((self.prod[0][label0.index()], next.clone()));
            return;
        }
        let Some(p) = self.partner[k - 1][label0.index()] else { return };
        for t in self.parts[k].transitions_from(state[k]) {
            if t.label == p {
                next[k] = t.target;
                self.sync_moves(state, label0, next, k + 1, out);
            }
        }
    }
}

impl TransitionSystem for LazyProduct<'_> {
    type State = Vec<StateId>;

    fn initial_state(&self) -> Vec<StateId> {
        self.parts.iter().map(|p| p.initial()).collect()
    }

    fn successors(&self, state: &Vec<StateId>) -> Vec<(LabelId, Vec<StateId>)> {
        let mut out = Vec::new();
        // Independent moves, component by component left to right — for two
        // components this is exactly the left-independent-then-right order
        // of the historical eager compose.
        for (k, part) in self.parts.iter().enumerate() {
            for t in part.transitions_from(state[k]) {
                if !self.syncs[k][t.label.index()] {
                    let mut next = state.clone();
                    next[k] = t.target;
                    out.push((self.prod[k][t.label.index()], next));
                }
            }
        }
        // Synchronized moves, driven by component 0.
        for t0 in self.parts[0].transitions_from(state[0]) {
            if self.syncs[0][t0.label.index()] {
                let mut next = state.clone();
                next[0] = t0.target;
                self.sync_moves(state, t0.label, &mut next, 1, &mut out);
            }
        }
        out
    }

    fn label_table(&self) -> LabelTable {
        self.labels.clone()
    }

    fn state_hint(&self) -> Option<usize> {
        Some(self.full_product_states())
    }
}

/// A lazy hiding view: labels whose gate is in (or, with
/// [`HideView::all_but`], *not* in) the gate set appear as τ.
///
/// Label ids and the label table pass through unchanged — hidden labels
/// are merely *reported* as τ. The hidden/visible decision per label id
/// is memoized.
pub struct HideView<'a, T: TransitionSystem> {
    inner: &'a T,
    gates: HashSet<String>,
    /// `false`: hide the listed gates; `true`: hide everything else.
    keep_listed: bool,
    verdicts: Mutex<HashMap<LabelId, bool>>,
}

impl<'a, T: TransitionSystem> HideView<'a, T> {
    /// Hides every label whose gate is in `gates` (LOTOS `hide G in B`).
    pub fn new<I, S>(inner: &'a T, gates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        HideView {
            inner,
            gates: gates.into_iter().map(Into::into).collect(),
            keep_listed: false,
            verdicts: Mutex::new(HashMap::new()),
        }
    }

    /// Hides every label whose gate is *not* in `gates`.
    pub fn all_but<I, S>(inner: &'a T, gates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut view = Self::new(inner, gates);
        view.keep_listed = true;
        view
    }

    fn is_hidden(&self, label: LabelId) -> bool {
        if label.is_tau() {
            return false; // Already τ; nothing to decide.
        }
        let mut verdicts = self.verdicts.lock().expect("verdict cache poisoned");
        if let Some(&hidden) = verdicts.get(&label) {
            return hidden;
        }
        let table = self.inner.label_table();
        let hidden = self.gates.contains(table.gate(label)) != self.keep_listed;
        verdicts.insert(label, hidden);
        hidden
    }
}

impl<T: TransitionSystem> TransitionSystem for HideView<'_, T> {
    type State = T::State;

    fn initial_state(&self) -> T::State {
        self.inner.initial_state()
    }

    fn successors(&self, state: &T::State) -> Vec<(LabelId, T::State)> {
        self.inner
            .successors(state)
            .into_iter()
            .map(|(l, t)| (if self.is_hidden(l) { LabelId::TAU } else { l }, t))
            .collect()
    }

    fn label_table(&self) -> LabelTable {
        self.inner.label_table()
    }

    fn state_hint(&self) -> Option<usize> {
        self.inner.state_hint()
    }
}

/// A lazy gate-renaming view: a label `G !1` with `map[G] = H` is reported
/// as `H !1`; offers are preserved.
///
/// Renaming changes label spellings, so the view owns a fresh
/// [`LabelTable`] and interns renamed labels in discovery order, like the
/// `pa` explorer (see the [module docs](self)).
pub struct RenameView<'a, T: TransitionSystem> {
    inner: &'a T,
    map: HashMap<String, String>,
    /// Own table plus the inner-id → own-id translation, both grown lazily.
    interned: Mutex<(LabelTable, HashMap<LabelId, LabelId>)>,
}

impl<'a, T: TransitionSystem> RenameView<'a, T> {
    /// Renames gates according to `map`; unmapped gates pass through.
    pub fn new(inner: &'a T, map: HashMap<String, String>) -> Self {
        RenameView { inner, map, interned: Mutex::new((LabelTable::new(), HashMap::new())) }
    }

    fn renamed(&self, label: LabelId) -> LabelId {
        if label.is_tau() {
            return LabelId::TAU;
        }
        let mut interned = self.interned.lock().expect("rename cache poisoned");
        if let Some(&id) = interned.1.get(&label) {
            return id;
        }
        let table = self.inner.label_table();
        let name = table.name(label);
        let gate = gate_of(name);
        let id = match self.map.get(gate) {
            Some(new_gate) => interned.0.intern(&format!("{new_gate}{}", &name[gate.len()..])),
            None => interned.0.intern(name),
        };
        interned.1.insert(label, id);
        id
    }
}

impl<T: TransitionSystem> TransitionSystem for RenameView<'_, T> {
    type State = T::State;

    fn initial_state(&self) -> T::State {
        self.inner.initial_state()
    }

    fn successors(&self, state: &T::State) -> Vec<(LabelId, T::State)> {
        self.inner.successors(state).into_iter().map(|(l, t)| (self.renamed(l), t)).collect()
    }

    fn label_table(&self) -> LabelTable {
        self.interned.lock().expect("rename cache poisoned").0.clone()
    }

    fn state_hint(&self) -> Option<usize> {
        self.inner.state_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::lts_from_triples;
    use crate::reach::materialize;

    #[test]
    fn lts_is_its_own_transition_system() {
        let lts = lts_from_triples(&[(0, "a", 1), (1, "b", 0)]);
        assert_eq!(lts.initial_state(), 0);
        assert_eq!(lts.state_hint(), Some(2));
        let succ = TransitionSystem::successors(&lts, &0);
        assert_eq!(succ.len(), 1);
        assert_eq!(lts.label_table().name(succ[0].0), "a");
    }

    #[test]
    fn lazy_product_interleaves_and_synchronizes() {
        let a = lts_from_triples(&[(0, "GO", 1), (1, "LA", 0)]);
        let b = lts_from_triples(&[(0, "GO", 1), (1, "LB", 0)]);
        let product = LazyProduct::new(&[&a, &b], &ops::Sync::on(["GO"]));
        assert_eq!(product.full_product_states(), 4);
        let init = product.initial_state();
        let succ = product.successors(&init);
        // Only the joint GO move is enabled initially.
        assert_eq!(succ.len(), 1);
        assert_eq!(product.label_table().name(succ[0].0), "GO");
        assert_eq!(succ[0].1, vec![1, 1]);
        // After GO the two local moves interleave.
        assert_eq!(product.successors(&succ[0].1).len(), 2);
    }

    #[test]
    fn single_component_product_is_the_component() {
        let a = lts_from_triples(&[(0, "X", 1), (1, "i", 0)]);
        let product = LazyProduct::new(&[&a], &ops::Sync::on(["X"]));
        let m = materialize(&product);
        assert_eq!(m.num_states(), a.num_states());
        assert_eq!(m.num_transitions(), a.num_transitions());
    }

    #[test]
    fn three_way_sync_requires_all_components() {
        let a = lts_from_triples(&[(0, "S", 1)]);
        let b = lts_from_triples(&[(0, "S", 1)]);
        let c = lts_from_triples(&[(0, "other", 1)]);
        // c never offers S, so the three-way product has no move at all
        // besides c's independent step.
        let product = LazyProduct::new(&[&a, &b, &c], &ops::Sync::on(["S"]));
        let succ = product.successors(&product.initial_state());
        assert_eq!(succ.len(), 1);
        assert_eq!(product.label_table().name(succ[0].0), "other");
    }

    #[test]
    fn hide_view_maps_gates_to_tau() {
        let lts = lts_from_triples(&[(0, "INT !1", 1), (1, "OBS", 0)]);
        let view = HideView::new(&lts, ["INT"]);
        let succ = view.successors(&0);
        assert!(succ[0].0.is_tau());
        let succ = view.successors(&1);
        assert_eq!(view.label_table().name(succ[0].0), "OBS");

        let keep = HideView::all_but(&lts, ["OBS"]);
        assert!(keep.successors(&0)[0].0.is_tau());
        assert!(!keep.successors(&1)[0].0.is_tau());
    }

    #[test]
    fn rename_view_preserves_offers() {
        let lts = lts_from_triples(&[(0, "PUSH !7", 1), (1, "i", 0)]);
        let map = HashMap::from([("PUSH".to_owned(), "IN".to_owned())]);
        let view = RenameView::new(&lts, map);
        let succ = view.successors(&0);
        assert_eq!(view.label_table().name(succ[0].0), "IN !7");
        assert!(view.successors(&1)[0].0.is_tau());
        // Materializing the view agrees with the eager renaming.
        let m = materialize(&view);
        assert!(m.labels().lookup("IN !7").is_some());
        assert_eq!(m.num_transitions(), 2);
    }
}
