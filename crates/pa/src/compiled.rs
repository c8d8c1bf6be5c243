//! The compiled successor function behind [`crate::explorer`]: CADP's
//! Cæsar/EXP.OPEN idea applied to the term semantics.
//!
//! Under the SOS rules the `hide`, renaming and parallel operators of a
//! behaviour keep their shape: a step rewrites the sequential components
//! below them and nothing else, except that a joint `exit` turns a
//! parallel composition into `stop`. [`Engine::new`] therefore splits the
//! initial term once at those operators into *leaves*. A state is a vector
//! of leaf-local ids, one per leaf. Each leaf's transitions are derived by
//! [`transitions`] once per leaf state and memoized, and each label is
//! interned once.
//!
//! [`Engine::derive`] combines the leaves' moves in exactly the order
//! `semantics::derive_par` would produce them: left-only moves, then
//! right-only moves, then synchronized pairs. The first leaf (left to
//! right) whose derivation fails reports the error, as the term rules do.
//! So a breadth-first search over vectors numbers states, interns labels
//! and hits caps exactly as one over terms does. `DESIGN.md` §6 has the
//! argument.
//!
//! Two things make the combination cheap:
//!
//! * Chains of `|||` are flattened into one n-ary node. Interleaving emits
//!   its children's moves in order, which the binary rule also does
//!   whatever the nesting, so the flat node only has to handle joint
//!   `exit`s.
//! * Synchronized pairs are matched through a label-indexed join instead
//!   of a nested loop. The join visits, for each left move in order, the
//!   right moves with the same label in their order, which is the
//!   nested loop's emission order.
//!
//! Moves live in one buffer and their leaf updates in another, both
//! reused across states, so no move allocates.

use crate::semantics::{hide_label, must_sync, rename_label, transitions, Label, SemError};
use crate::spec::Spec;
use crate::term::{SyncKind, Term};
use crate::value::Sym;
use multival_par::fx::FxHashMap;
use std::ops::Range;
use std::sync::Arc;

/// The id every leaf holds once a joint `exit` has turned the network
/// into `stop`.
///
/// Only the topmost parallel operator can ever become `stop`: a
/// composition that terminates emits δ, and δ must synchronize at every
/// enclosing parallel operator, so they all terminate in the same step.
/// One marker over the whole vector therefore records the collapse, and
/// vector equality stays term equality.
pub(crate) const STOPPED: u32 = u32::MAX;

/// Marks an empty slot in the per-label caches and the join index.
const NONE: u32 = u32::MAX;

/// [`Move::len`] of a joint `exit`: the move has no leaf updates and
/// leaves the network `stop`.
const COLLAPSE: u32 = u32::MAX;

/// One node of the static operator tree. Node ids index [`Engine::nodes`].
#[derive(Clone)]
enum Node {
    /// A sequential component.
    Leaf(usize),
    Hide(Arc<[Sym]>, usize),
    Rename(Arc<[(Sym, Sym)]>, usize),
    Par(SyncKind, usize, usize),
}

/// A tree node and the contiguous range of leaves below it.
struct Placed {
    node: Node,
    leaves: Range<usize>,
}

/// How a unary operator maps its body's labels.
enum Relabel {
    Hide(Arc<[Sym]>),
    Rename(Arc<[(Sym, Sym)]>),
}

/// One node of the successor plan: the operator tree with `|||` chains
/// flattened. Op ids index [`Engine::ops`].
enum Op {
    Leaf(usize),
    /// `hide` or renaming, with the mapped label id per body label id.
    Relabel {
        child: usize,
        relabel: Relabel,
        cache: Vec<u32>,
    },
    /// Interleaving of the ops `kids[range]`, in order.
    Interleave(Range<usize>),
    /// Binary parallel composition, with a per-label-id flag cache
    /// (0 unknown, 1 independent, 2 synchronizing).
    Sync {
        kind: SyncKind,
        left: usize,
        right: usize,
        cache: Vec<u8>,
    },
}

/// A move of the network: a label plus the leaf updates it makes.
#[derive(Clone, Copy)]
pub(crate) struct Move {
    /// Engine label id; see [`Engine::label`].
    pub(crate) label: u32,
    /// Start of the updates in the edit buffer.
    edits: u32,
    /// Number of updates, or [`COLLAPSE`].
    len: u32,
}

/// Interned semantic labels.
#[derive(Default)]
struct Labels {
    table: Vec<Label>,
    ids: FxHashMap<Label, u32>,
}

impl Labels {
    fn intern(&mut self, label: Label) -> u32 {
        if let Some(&id) = self.ids.get(&label) {
            return id;
        }
        let id = self.table.len() as u32;
        self.table.push(label.clone());
        self.ids.insert(label, id);
        id
    }

    fn is_exit(&self, id: u32) -> bool {
        matches!(self.table[id as usize], Label::Exit(_))
    }
}

/// One sequential component: its interned terms and their memoized
/// transitions.
#[derive(Default)]
struct Leaf {
    ids: FxHashMap<Arc<Term>, u32>,
    terms: Vec<Arc<Term>>,
    /// Per local state: the range of its transitions in `succ`, once
    /// derived.
    derived: Vec<Option<Result<(u32, u32), SemError>>>,
    /// (label id, target local id), grouped per derived state.
    succ: Vec<(u32, u32)>,
}

impl Leaf {
    fn intern(&mut self, term: Arc<Term>) -> u32 {
        if let Some(&id) = self.ids.get(&term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.clone());
        self.derived.push(None);
        self.ids.insert(term, id);
        id
    }
}

/// A behaviour compiled into a network of memoized sequential leaves.
pub(crate) struct Engine<'s> {
    spec: &'s Spec,
    nodes: Vec<Placed>,
    root_node: usize,
    ops: Vec<Op>,
    kids: Vec<usize>,
    root_op: usize,
    leaves: Vec<Leaf>,
    labels: Labels,
    // Per-state scratch, reused across states.
    moves: Vec<Move>,
    /// (leaf, new local id) updates referenced by [`Move`]s.
    edits: Vec<(u32, u32)>,
    /// Child end offsets of the interleavings being derived (a stack).
    bounds: Vec<usize>,
    lsync: Vec<Move>,
    rsync: Vec<Move>,
    /// Join index: first `rsync` entry per label id, chained by `next`.
    head: Vec<u32>,
    next: Vec<u32>,
}

impl<'s> Engine<'s> {
    /// Compiles `initial` and returns the engine with the initial state
    /// vector (every leaf at local id 0).
    pub(crate) fn new(initial: &Arc<Term>, spec: &'s Spec) -> (Engine<'s>, Vec<u32>) {
        let mut engine = Engine {
            spec,
            nodes: Vec::new(),
            root_node: 0,
            ops: Vec::new(),
            kids: Vec::new(),
            root_op: 0,
            leaves: Vec::new(),
            labels: Labels::default(),
            moves: Vec::new(),
            edits: Vec::new(),
            bounds: Vec::new(),
            lsync: Vec::new(),
            rsync: Vec::new(),
            head: Vec::new(),
            next: Vec::new(),
        };
        let mut init = Vec::new();
        engine.root_node = engine.place(initial, &mut init);
        engine.root_op = engine.plan(engine.root_node);
        (engine, init)
    }

    /// Adds the operator tree of `term` to `nodes` and its leaves to
    /// `leaves`, pushing each leaf's initial id onto `init`.
    fn place(&mut self, term: &Arc<Term>, init: &mut Vec<u32>) -> usize {
        let lo = init.len();
        let node = match &**term {
            Term::Hide(gates, body) => Node::Hide(gates.clone(), self.place(body, init)),
            Term::Rename(map, body) => Node::Rename(map.clone(), self.place(body, init)),
            Term::Par(kind, l, r) => {
                let l = self.place(l, init);
                let r = self.place(r, init);
                Node::Par(kind.clone(), l, r)
            }
            _ => {
                let mut leaf = Leaf::default();
                init.push(leaf.intern(term.clone()));
                self.leaves.push(leaf);
                Node::Leaf(self.leaves.len() - 1)
            }
        };
        self.nodes.push(Placed { node, leaves: lo..init.len() });
        self.nodes.len() - 1
    }

    /// Builds the successor plan of node `n`, returning its op id.
    fn plan(&mut self, n: usize) -> usize {
        let op = match self.nodes[n].node.clone() {
            Node::Leaf(l) => Op::Leaf(l),
            Node::Hide(gates, c) => Op::Relabel {
                child: self.plan(c),
                relabel: Relabel::Hide(gates),
                cache: Vec::new(),
            },
            Node::Rename(map, c) => Op::Relabel {
                child: self.plan(c),
                relabel: Relabel::Rename(map),
                cache: Vec::new(),
            },
            Node::Par(SyncKind::Interleave, ..) => {
                let mut parts = Vec::new();
                self.interleaved(n, &mut parts);
                let kids: Vec<usize> = parts.into_iter().map(|p| self.plan(p)).collect();
                let first = self.kids.len();
                self.kids.extend(kids);
                Op::Interleave(first..self.kids.len())
            }
            Node::Par(kind, l, r) => {
                Op::Sync { kind, left: self.plan(l), right: self.plan(r), cache: Vec::new() }
            }
        };
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// The maximal non-`|||` subtrees of the `|||` chain at `n`, left to
    /// right.
    fn interleaved(&self, n: usize, out: &mut Vec<usize>) {
        match self.nodes[n].node {
            Node::Par(SyncKind::Interleave, l, r) => {
                self.interleaved(l, out);
                self.interleaved(r, out);
            }
            _ => out.push(n),
        }
    }

    /// The semantic label of an engine label id.
    pub(crate) fn label(&self, id: u32) -> &Label {
        &self.labels.table[id as usize]
    }

    /// Derives the moves of state `v` into [`Engine::moves`], in the term
    /// semantics' order.
    ///
    /// # Errors
    ///
    /// The error of the leftmost leaf whose transitions fail to derive.
    pub(crate) fn derive(&mut self, v: &[u32]) -> Result<(), SemError> {
        self.moves.clear();
        self.edits.clear();
        self.bounds.clear();
        if v[0] == STOPPED {
            return Ok(());
        }
        self.gen(self.root_op, v)
    }

    /// The moves of the last [`Engine::derive`]d state.
    pub(crate) fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// Writes the successor of `src` under move `m` into `dst`.
    pub(crate) fn apply(&self, m: Move, src: &[u32], dst: &mut Vec<u32>) {
        dst.clear();
        if m.len == COLLAPSE {
            dst.resize(src.len(), STOPPED);
            return;
        }
        dst.extend_from_slice(src);
        let start = m.edits as usize;
        for &(leaf, id) in &self.edits[start..start + m.len as usize] {
            dst[leaf as usize] = id;
        }
    }

    /// The closed term state `v` denotes.
    pub(crate) fn term(&self, v: &[u32]) -> Arc<Term> {
        self.build(self.root_node, v)
    }

    /// The term of state `new`, reusing every subterm of `old_term` (the
    /// term of `old`) whose leaves did not change.
    pub(crate) fn rebuild(&self, old_term: &Arc<Term>, old: &[u32], new: &[u32]) -> Arc<Term> {
        self.rebuild_at(self.root_node, old_term, old, new)
    }

    fn build(&self, n: usize, v: &[u32]) -> Arc<Term> {
        let placed = &self.nodes[n];
        match &placed.node {
            Node::Leaf(l) => self.leaves[*l].terms[v[*l] as usize].clone(),
            Node::Hide(gates, c) => Term::Hide(gates.clone(), self.build(*c, v)).rc(),
            Node::Rename(map, c) => Term::Rename(map.clone(), self.build(*c, v)).rc(),
            Node::Par(..) if v[placed.leaves.start] == STOPPED => Term::Stop.rc(),
            Node::Par(kind, l, r) => {
                Term::Par(kind.clone(), self.build(*l, v), self.build(*r, v)).rc()
            }
        }
    }

    fn rebuild_at(&self, n: usize, old_term: &Arc<Term>, old: &[u32], new: &[u32]) -> Arc<Term> {
        let placed = &self.nodes[n];
        let range = placed.leaves.clone();
        if old[range.clone()] == new[range.clone()] {
            return old_term.clone();
        }
        match (&placed.node, &**old_term) {
            (Node::Hide(gates, c), Term::Hide(_, body)) => {
                Term::Hide(gates.clone(), self.rebuild_at(*c, body, old, new)).rc()
            }
            (Node::Rename(map, c), Term::Rename(_, body)) => {
                Term::Rename(map.clone(), self.rebuild_at(*c, body, old, new)).rc()
            }
            (Node::Par(kind, l, r), Term::Par(_, a, b)) if new[range.start] != STOPPED => {
                Term::Par(
                    kind.clone(),
                    self.rebuild_at(*l, a, old, new),
                    self.rebuild_at(*r, b, old, new),
                )
                .rc()
            }
            // A leaf, or the joint `exit` that turns the network into `stop`.
            _ => self.build(n, new),
        }
    }

    fn gen(&mut self, op: usize, v: &[u32]) -> Result<(), SemError> {
        match self.ops[op] {
            Op::Leaf(l) => self.gen_leaf(l, v),
            Op::Relabel { child, .. } => {
                let start = self.moves.len();
                self.gen(child, v)?;
                let Op::Relabel { relabel, cache, .. } = &mut self.ops[op] else { unreachable!() };
                for m in &mut self.moves[start..] {
                    m.label = relabel_id(cache, relabel, &mut self.labels, m.label);
                }
                Ok(())
            }
            Op::Interleave(ref kids) => {
                let kids = kids.clone();
                self.gen_interleave(kids, v)
            }
            Op::Sync { left, right, .. } => self.gen_sync(op, left, right, v),
        }
    }

    /// The memoized transitions of leaf `l` in local state `id`, as a
    /// range of its `succ`.
    fn leaf_range(&mut self, l: usize, id: u32) -> Result<(u32, u32), SemError> {
        let leaf = &mut self.leaves[l];
        if let Some(done) = &leaf.derived[id as usize] {
            return done.clone();
        }
        let term = leaf.terms[id as usize].clone();
        let result = transitions(&term, self.spec).map(|list| {
            let start = leaf.succ.len() as u32;
            for (label, target) in list {
                let label = self.labels.intern(label);
                let target = leaf.intern(target);
                leaf.succ.push((label, target));
            }
            (start, leaf.succ.len() as u32)
        });
        leaf.derived[id as usize] = Some(result.clone());
        result
    }

    fn gen_leaf(&mut self, l: usize, v: &[u32]) -> Result<(), SemError> {
        let (start, end) = self.leaf_range(l, v[l])?;
        for &(label, target) in &self.leaves[l].succ[start as usize..end as usize] {
            self.moves.push(Move { label, edits: self.edits.len() as u32, len: 1 });
            self.edits.push((l as u32, target));
        }
        Ok(())
    }

    /// `|||` over several children: their moves in order, except that δ
    /// must be offered by every child and then ends the composition.
    fn gen_interleave(&mut self, kids: Range<usize>, v: &[u32]) -> Result<(), SemError> {
        let start = self.moves.len();
        let mark = self.bounds.len();
        for k in kids {
            self.gen(self.kids[k], v)?;
            self.bounds.push(self.moves.len());
        }
        if self.moves[start..].iter().any(|m| self.labels.is_exit(m.label)) {
            self.join_exits(start, mark);
        }
        self.bounds.truncate(mark);
        Ok(())
    }

    /// Replaces the δ moves of the interleaving whose children's moves
    /// start at `start` (child ends at `bounds[mark..]`) by the joint
    /// terminations. Nested binary `|||` would pair each δ of the first
    /// child, in order, with every equal δ combination of the others.
    fn join_exits(&mut self, start: usize, mark: usize) {
        let ends = self.bounds[mark..].to_vec();
        let exits_in = |from: usize, to: usize, label: u32| {
            self.moves[from..to].iter().filter(|m| m.label == label).count()
        };
        let mut joint = Vec::new();
        for m in &self.moves[start..ends[0]] {
            if !self.labels.is_exit(m.label) {
                continue;
            }
            let combos: usize = ends.windows(2).map(|w| exits_in(w[0], w[1], m.label)).product();
            joint.extend(std::iter::repeat_n(m.label, combos));
        }
        let labels = &self.labels;
        let mut w = start;
        for i in start..self.moves.len() {
            if !labels.is_exit(self.moves[i].label) {
                self.moves[w] = self.moves[i];
                w += 1;
            }
        }
        self.moves.truncate(w);
        self.moves.extend(joint.into_iter().map(|label| Move { label, edits: 0, len: COLLAPSE }));
    }

    /// `|[G]|` or `||`: independent left moves, independent right moves,
    /// then every equal-label pair of synchronizing moves.
    fn gen_sync(
        &mut self,
        op: usize,
        left: usize,
        right: usize,
        v: &[u32],
    ) -> Result<(), SemError> {
        let start = self.moves.len();
        self.gen(left, v)?;
        let mid = self.moves.len();
        self.gen(right, v)?;
        let Op::Sync { kind, cache, .. } = &mut self.ops[op] else { unreachable!() };
        self.lsync.clear();
        self.rsync.clear();
        let mut w = start;
        for i in start..self.moves.len() {
            let m = self.moves[i];
            if sync_flag(cache, kind, &self.labels, m.label) {
                if i < mid {
                    self.lsync.push(m);
                } else {
                    self.rsync.push(m);
                }
            } else {
                self.moves[w] = m;
                w += 1;
            }
        }
        self.moves.truncate(w);
        if self.lsync.is_empty() || self.rsync.is_empty() {
            return Ok(());
        }
        if self.head.len() < self.labels.table.len() {
            self.head.resize(self.labels.table.len(), NONE);
        }
        self.next.clear();
        self.next.resize(self.rsync.len(), NONE);
        for (j, r) in self.rsync.iter().enumerate().rev() {
            let head = &mut self.head[r.label as usize];
            self.next[j] = *head;
            *head = j as u32;
        }
        for l in &self.lsync {
            let mut j = self.head[l.label as usize];
            while j != NONE {
                let r = self.rsync[j as usize];
                if self.labels.is_exit(l.label) {
                    self.moves.push(Move { label: l.label, edits: 0, len: COLLAPSE });
                } else {
                    let edits = self.edits.len() as u32;
                    for m in [l, &r] {
                        let from = m.edits as usize;
                        self.edits.extend_from_within(from..from + m.len as usize);
                    }
                    self.moves.push(Move { label: l.label, edits, len: l.len + r.len });
                }
                j = self.next[j as usize];
            }
        }
        for r in &self.rsync {
            self.head[r.label as usize] = NONE;
        }
        Ok(())
    }
}

/// The label id `relabel` maps body label `id` to, cached per op.
fn relabel_id(cache: &mut Vec<u32>, relabel: &Relabel, labels: &mut Labels, id: u32) -> u32 {
    let i = id as usize;
    if i >= cache.len() {
        cache.resize(labels.table.len(), NONE);
    }
    if cache[i] == NONE {
        let label = labels.table[i].clone();
        let mapped = match relabel {
            Relabel::Hide(gates) => hide_label(gates, label),
            Relabel::Rename(map) => rename_label(map, label),
        };
        cache[i] = labels.intern(mapped);
    }
    cache[i]
}

/// Whether label `id` must synchronize under `kind`, cached per op.
fn sync_flag(cache: &mut Vec<u8>, kind: &SyncKind, labels: &Labels, id: u32) -> bool {
    let i = id as usize;
    if i >= cache.len() {
        cache.resize(labels.table.len(), 0);
    }
    if cache[i] == 0 {
        cache[i] = 1 + u8::from(must_sync(kind, &labels.table[i]));
    }
    cache[i] == 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spec;

    #[test]
    fn interleaving_chains_flatten_whatever_the_nesting() {
        for top in ["((a; stop ||| b; stop) ||| c; stop)", "(a; stop ||| (b; stop ||| c; stop))"] {
            let spec = parse_spec(&format!("behaviour hide a in {top}")).expect("parses");
            let (engine, init) = Engine::new(spec.top(), &spec);
            assert_eq!(init, vec![0, 0, 0]);
            let Op::Relabel { child, .. } = &engine.ops[engine.root_op] else {
                panic!("hide compiles to a relabelling")
            };
            assert!(
                matches!(&engine.ops[*child], Op::Interleave(kids) if kids.len() == 3),
                "{top}"
            );
            assert_eq!(engine.term(&init), *spec.top(), "the vector denotes the initial term");
        }
    }

    #[test]
    fn moves_come_in_the_term_semantics_order() {
        // Left-only, right-only, then synchronized pairs in nested-loop
        // order; the hidden gate shows as τ.
        let spec =
            parse_spec("behaviour hide h in ((a; stop [] g; stop [] h; stop) |[g, h]| (h; stop [] g; stop [] b; stop))")
                .expect("parses");
        let (mut engine, init) = Engine::new(spec.top(), &spec);
        engine.derive(&init).expect("derivable");
        let labels: Vec<String> =
            engine.moves().iter().map(|m| engine.label(m.label).to_string()).collect();
        let want: Vec<String> = crate::semantics::transitions(spec.top(), &spec)
            .expect("derivable")
            .into_iter()
            .map(|(label, _)| label.to_string())
            .collect();
        assert_eq!(labels, want);
        assert_eq!(labels, ["a", "b", "g", "i"]);
    }
}
