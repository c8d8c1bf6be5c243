//! Bisimulation minimization (the CADP `bcg_min` / `aldebaran` role).
//!
//! Implements signature-based partition refinement (Blom–Orzan style) for
//! *strong* and *branching* bisimulation (divergence-blind, as is customary
//! for compositional verification flows, and divergence-sensitive for
//! livelock-preserving reductions). Branching minimization first collapses
//! τ-SCCs.
//!
//! Minimization is the engine of the paper's compositional verification:
//! sub-module LTSs are minimized before being composed, keeping intermediate
//! state spaces small (experiment E1/E9).
//!
//! Signatures are interned into blocks in state order, so the resulting
//! partition, block numbering included, is deterministic.

use crate::lts::{Lts, StateId};
use std::collections::HashMap;

/// Which behavioural equivalence to minimize (or compare) modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Equivalence {
    /// Strong bisimulation: τ is treated like any other label.
    Strong,
    /// Branching bisimulation (divergence-blind): inert τ steps are
    /// abstracted away while preserving the branching structure.
    Branching,
    /// Divergence-sensitive branching bisimulation: like
    /// [`Equivalence::Branching`], but a state that admits an infinite
    /// internal run (reaches a τ-cycle through τ steps) is never merged
    /// with one that does not, and the quotient keeps a τ self-loop on
    /// divergent classes. This is the variant needed when livelocks matter
    /// — e.g. before an IMC maximal-progress analysis, where divergence is
    /// a timelock.
    BranchingDivergence,
}

/// A partition of the states of an LTS into equivalence blocks.
#[derive(Debug, Clone)]
pub struct Partition {
    block_of: Vec<u32>,
    num_blocks: u32,
}

impl Partition {
    /// The trivial one-block partition over `n` states.
    pub fn unit(n: usize) -> Self {
        Partition { block_of: vec![0; n], num_blocks: if n == 0 { 0 } else { 1 } }
    }

    /// Builds a partition from an explicit block assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not dense in `0..num_blocks`.
    pub fn from_assignment(block_of: Vec<u32>, num_blocks: u32) -> Self {
        debug_assert!(block_of.iter().all(|&b| b < num_blocks));
        Partition { block_of, num_blocks }
    }

    /// Block id of state `s`.
    pub fn block(&self, s: StateId) -> u32 {
        self.block_of[s as usize]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u32 {
        self.num_blocks
    }

    /// Number of states covered.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// `true` if the partition covers no states.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }
}

/// Statistics reported by [`minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct ReductionStats {
    /// States before minimization.
    pub states_before: usize,
    /// States after minimization.
    pub states_after: usize,
    /// Transitions before minimization.
    pub transitions_before: usize,
    /// Transitions after minimization.
    pub transitions_after: usize,
    /// Number of refinement sweeps until the partition stabilized.
    pub iterations: usize,
}

/// Computes the coarsest partition of `lts` for the given equivalence.
pub fn partition_refinement(lts: &Lts, eq: Equivalence) -> Partition {
    refine(lts, eq).0
}

/// The coarsest partition plus the number of refinement sweeps it took.
fn refine(lts: &Lts, eq: Equivalence) -> (Partition, usize) {
    match eq {
        Equivalence::Strong => strong_partition(lts),
        Equivalence::Branching => branching_partition(lts, false),
        Equivalence::BranchingDivergence => branching_partition(lts, true),
    }
}

/// Minimizes `lts` modulo `eq`, returning the quotient and statistics.
///
/// # Examples
///
/// ```
/// use multival_lts::{LtsBuilder, minimize::{minimize, Equivalence}};
///
/// // Two strongly bisimilar branches collapse into one.
/// let mut b = LtsBuilder::new();
/// let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
/// b.add_transition(s[0], "A", s[1]);
/// b.add_transition(s[0], "A", s[2]);
/// let lts = b.build(s[0]);
/// let (min, stats) = minimize(&lts, Equivalence::Strong);
/// assert_eq!(min.num_states(), 2);
/// assert_eq!(stats.states_before, 3);
/// ```
pub fn minimize(lts: &Lts, eq: Equivalence) -> (Lts, ReductionStats) {
    let (part, iterations) = refine(lts, eq);
    let quotient = quotient(lts, &part, eq);
    let stats = ReductionStats {
        states_before: lts.num_states(),
        states_after: quotient.num_states(),
        transitions_before: lts.num_transitions(),
        transitions_after: quotient.num_transitions(),
        iterations,
    };
    (quotient, stats)
}

/// Builds the quotient LTS induced by a (stable) partition.
///
/// For [`Equivalence::Branching`], inert τ transitions (block to itself) are
/// dropped, matching the stuttering abstraction; for strong bisimulation all
/// transitions are kept (dedup'd per block).
pub fn quotient(lts: &Lts, part: &Partition, eq: Equivalence) -> Lts {
    let nb = part.num_blocks();
    let mut set: std::collections::BTreeSet<(u32, crate::label::LabelId, u32)> =
        std::collections::BTreeSet::new();
    let branching_like = matches!(eq, Equivalence::Branching | Equivalence::BranchingDivergence);
    for (s, l, t) in lts.iter_transitions() {
        let (bs, bt) = (part.block(s), part.block(t));
        if branching_like && l.is_tau() && bs == bt {
            continue;
        }
        set.insert((bs, l, bt));
    }
    if eq == Equivalence::BranchingDivergence {
        // Divergent classes keep a τ self-loop so the quotient diverges
        // exactly where the original does.
        for s in divergent_closure(lts) {
            let b = part.block(s);
            set.insert((b, crate::label::LabelId::TAU, b));
        }
    }
    let transitions: Vec<(StateId, crate::label::LabelId, StateId)> = set.into_iter().collect();
    let initial = part.block(lts.initial());
    let full = Lts::from_parts(lts.labels().clone(), nb.max(1), initial, transitions);
    // Renumber blocks in BFS order for determinism (and drop any block that
    // became unreachable, which cannot happen for stable partitions but keeps
    // the invariant obvious).
    full.reachable().0
}

fn strong_partition(lts: &Lts) -> (Partition, usize) {
    let n = lts.num_states();
    let mut part = Partition::unit(n);
    let mut iterations = 0;
    loop {
        iterations += 1;
        // Intern per-state signatures in state order, which fixes the new
        // block numbering deterministically.
        let mut sig_index: HashMap<(u32, Vec<(u32, u32)>), u32> = HashMap::new();
        let mut new_block = vec![0u32; n];
        for (s, slot) in new_block.iter_mut().enumerate() {
            let s = s as StateId;
            let mut sig: Vec<(u32, u32)> =
                lts.transitions_from(s).iter().map(|t| (t.label.0, part.block(t.target))).collect();
            sig.sort_unstable();
            sig.dedup();
            let key = (part.block(s), sig);
            let next = sig_index.len() as u32;
            *slot = *sig_index.entry(key).or_insert(next);
        }
        let nb = sig_index.len() as u32;
        if nb == part.num_blocks() {
            return (part, iterations);
        }
        part = Partition::from_assignment(new_block, nb);
    }
}

/// Tarjan SCC over the τ-subgraph; returns (scc id per state, #sccs) with
/// SCC ids in reverse topological order (successors have smaller ids).
fn tau_sccs(lts: &Lts) -> (Vec<u32>, u32) {
    let n = lts.num_states();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![u32::MAX; n];
    let mut stack: Vec<StateId> = Vec::new();
    let mut next_index = 0u32;
    let mut next_scc = 0u32;

    // Iterative Tarjan to avoid recursion-depth limits on long τ chains.
    enum Frame {
        Enter(StateId),
        Post(StateId, StateId),
    }
    for root in 0..n as StateId {
        if index[root as usize] != u32::MAX {
            continue;
        }
        let mut call = vec![Frame::Enter(root)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    if index[v as usize] != u32::MAX {
                        continue;
                    }
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    // Re-visit v after children to pop the SCC.
                    call.push(Frame::Post(v, v));
                    for t in lts.transitions_from(v) {
                        if !t.label.is_tau() {
                            continue;
                        }
                        let w = t.target;
                        if index[w as usize] == u32::MAX {
                            call.push(Frame::Post(v, w));
                            call.push(Frame::Enter(w));
                        } else if on_stack[w as usize] {
                            low[v as usize] = low[v as usize].min(index[w as usize]);
                        }
                    }
                }
                Frame::Post(v, w) => {
                    if w != v {
                        // Child w finished: propagate lowlink — but only if w
                        // is still in an open SCC. If w was completed into
                        // another SCC (it was reached first through a sibling
                        // subtree), this edge is a cross edge and must not
                        // propagate.
                        if scc[w as usize] == u32::MAX {
                            low[v as usize] = low[v as usize].min(low[w as usize]);
                        }
                        continue;
                    }
                    if low[v as usize] == index[v as usize] {
                        loop {
                            let x = stack.pop().expect("tarjan stack underflow");
                            on_stack[x as usize] = false;
                            scc[x as usize] = next_scc;
                            if x == v {
                                break;
                            }
                        }
                        next_scc += 1;
                    }
                }
            }
        }
    }
    (scc, next_scc)
}

fn branching_partition(lts: &Lts, divergence_sensitive: bool) -> (Partition, usize) {
    let n = lts.num_states();
    if n == 0 {
        return (Partition::unit(0), 0);
    }
    // Step 1: collapse τ-SCCs — branching bisimulation (either flavour)
    // equates all states on a τ-cycle with each other; the divergence flag
    // below keeps divergent and non-divergent states apart.
    let (scc_of, _num_sccs) = tau_sccs(lts);

    // Members per τ-SCC, in ascending SCC id. Tarjan emits SCC ids in
    // reverse topological order, so ascending ids list τ-successors before
    // their predecessors — exactly the propagation order the inert closure
    // needs.
    let num_sccs_usize = _num_sccs as usize;
    let mut members: Vec<Vec<StateId>> = vec![Vec::new(); num_sccs_usize];
    for s in 0..n {
        members[scc_of[s] as usize].push(s as StateId);
    }

    let mut part = Partition::unit(n);
    if divergence_sensitive && n > 0 {
        // Initial split: divergent vs non-divergent states. Divergence is a
        // static property, so the split persists through refinement.
        let divergent = divergent_closure(lts);
        let mut is_div = vec![false; n];
        for s in &divergent {
            is_div[*s as usize] = true;
        }
        if divergent.len() < n && !divergent.is_empty() {
            let assignment: Vec<u32> = (0..n).map(|s| u32::from(is_div[s])).collect();
            part = Partition::from_assignment(assignment, 2);
        }
    }
    let mut iterations = 0;
    loop {
        iterations += 1;
        // Branching signature, computed at τ-SCC granularity (mutually
        // inert-reachable states always share blocks and signatures):
        //   sig(C) = ⋃ over s ∈ C of
        //              {(l, B(t)) | s -l-> t non-inert}
        //            ∪ {sig(C') | s -τ-> t inert, t ∈ C' ≠ C}
        // where "inert" means τ with B(s) == B(t).
        //
        // Ascending SCC order (Tarjan ids are reverse-topological) makes
        // every referenced sig(C') final before it is read.
        let mut scc_sigs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(num_sccs_usize);
        let mut deps: Vec<usize> = Vec::new();
        for (c, scc_members) in members.iter().enumerate() {
            let mut sig: Vec<(u32, u32)> = Vec::new();
            deps.clear();
            for &s in scc_members {
                for t in lts.transitions_from(s) {
                    let inert = t.label.is_tau() && part.block(t.target) == part.block(s);
                    if inert {
                        let c2 = scc_of[t.target as usize] as usize;
                        if c2 != c {
                            deps.push(c2);
                        }
                    } else {
                        sig.push((t.label.0, part.block(t.target)));
                    }
                }
            }
            for &c2 in &deps {
                debug_assert!(c2 < c, "τ-successor SCC must precede");
                sig.extend_from_slice(&scc_sigs[c2]);
            }
            sig.sort_unstable();
            sig.dedup();
            scc_sigs.push(sig);
        }
        let mut sig_index: HashMap<(u32, Vec<(u32, u32)>), u32> = HashMap::new();
        let mut new_block = vec![0u32; n];
        for s in 0..n {
            let key = (part.block(s as StateId), scc_sigs[scc_of[s] as usize].clone());
            let next = sig_index.len() as u32;
            let id = *sig_index.entry(key).or_insert(next);
            new_block[s] = id;
        }
        let nb = sig_index.len() as u32;
        if nb == part.num_blocks() {
            return (part, iterations);
        }
        part = Partition::from_assignment(new_block, nb);
    }
}

/// Compresses τ-SCCs of an LTS without any other reduction: every τ-cycle is
/// collapsed to a single state. Useful as a cheap preprocessing step and for
/// divergence (livelock) analysis.
pub fn collapse_tau_sccs(lts: &Lts) -> (Lts, Vec<u32>) {
    let (scc_of, num_sccs) = tau_sccs(lts);
    let mut set: std::collections::BTreeSet<(u32, crate::label::LabelId, u32)> =
        std::collections::BTreeSet::new();
    for (s, l, t) in lts.iter_transitions() {
        let (a, b) = (scc_of[s as usize], scc_of[t as usize]);
        if l.is_tau() && a == b {
            continue;
        }
        set.insert((a, l, b));
    }
    let transitions: Vec<_> = set.into_iter().collect();
    let initial = scc_of[lts.initial() as usize];
    let lts2 = Lts::from_parts(lts.labels().clone(), num_sccs.max(1), initial, transitions);
    (lts2.reachable().0, scc_of)
}

/// States that admit an infinite internal run: they can reach a τ-cycle
/// through τ steps (the divergence predicate of
/// [`Equivalence::BranchingDivergence`]).
pub fn divergent_closure(lts: &Lts) -> Vec<StateId> {
    let cyclic = divergent_states(lts);
    let n = lts.num_states();
    let mut div = vec![false; n];
    for &s in &cyclic {
        div[s as usize] = true;
    }
    // Backward closure over τ edges.
    let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for (s, l, t) in lts.iter_transitions() {
        if l.is_tau() {
            rev[t as usize].push(s);
        }
    }
    let mut stack = cyclic;
    while let Some(s) = stack.pop() {
        for &p in &rev[s as usize] {
            if !div[p as usize] {
                div[p as usize] = true;
                stack.push(p);
            }
        }
    }
    (0..n as StateId).filter(|&s| div[s as usize]).collect()
}

/// States that can diverge: members of a τ-SCC that contains a τ-cycle
/// (including τ self-loops). In LOTOS terms these are livelocks.
pub fn divergent_states(lts: &Lts) -> Vec<StateId> {
    let (scc_of, num_sccs) = tau_sccs(lts);
    let mut scc_size = vec![0u32; num_sccs as usize];
    for s in 0..lts.num_states() {
        scc_size[scc_of[s] as usize] += 1;
    }
    let mut divergent_scc = vec![false; num_sccs as usize];
    for (s, l, t) in lts.iter_transitions() {
        if l.is_tau() && scc_of[s as usize] == scc_of[t as usize] {
            // τ self-loop, or a τ edge inside a multi-state SCC.
            if s == t || scc_size[scc_of[s as usize] as usize] > 1 {
                divergent_scc[scc_of[s as usize] as usize] = true;
            }
        }
    }
    (0..lts.num_states() as StateId)
        .filter(|&s| divergent_scc[scc_of[s as usize] as usize])
        .collect()
}

/// Helper used by tests and the equivalence checker: do two states of one
/// LTS share a block under `eq`?
pub fn same_block(lts: &Lts, a: StateId, b: StateId, eq: Equivalence) -> bool {
    let part = partition_refinement(lts, eq);
    part.block(a) == part.block(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::LtsBuilder;

    /// a.(b + c) vs a.b + a.c — branching-equivalent? No! Classic example:
    /// they are *not* strongly bisimilar and not branching bisimilar.
    #[test]
    fn classic_nondeterminism_not_bisimilar() {
        // P = a.(b.0 + c.0)
        let mut p = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| p.add_state()).collect();
        p.add_transition(s[0], "a", s[1]);
        p.add_transition(s[1], "b", s[2]);
        p.add_transition(s[1], "c", s[3]);
        let p = p.build(s[0]);

        // Q = a.b.0 + a.c.0
        let mut q = LtsBuilder::new();
        let t: Vec<_> = (0..5).map(|_| q.add_state()).collect();
        q.add_transition(t[0], "a", t[1]);
        q.add_transition(t[1], "b", t[3]);
        q.add_transition(t[0], "a", t[2]);
        q.add_transition(t[2], "c", t[4]);
        let q = q.build(t[0]);

        let (mp, _) = minimize(&p, Equivalence::Strong);
        let (mq, _) = minimize(&q, Equivalence::Strong);
        assert_ne!(mp.num_states(), mq.num_states());
    }

    #[test]
    fn strong_collapses_duplicate_branches() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        // 0 -a-> 1 -b-> 3 ; 0 -a-> 2 -b-> 4 : 1≡2, 3≡4
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "a", s[2]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[2], "b", s[4]);
        let lts = b.build(s[0]);
        let (min, stats) = minimize(&lts, Equivalence::Strong);
        assert_eq!(min.num_states(), 3);
        assert_eq!(min.num_transitions(), 2);
        assert_eq!(stats.states_before, 5);
    }

    #[test]
    fn strong_keeps_tau_distinctions() {
        // 0 -tau-> 1 -a-> 2  vs  0' -a-> 1' are NOT strongly bisimilar.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Strong);
        assert_eq!(min.num_states(), 3);
    }

    #[test]
    fn branching_removes_inert_tau() {
        // 0 -tau-> 1 -a-> 2 is branching equivalent to  0 -a-> 1.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(min.num_states(), 2);
        assert_eq!(min.num_transitions(), 1);
    }

    #[test]
    fn branching_keeps_observable_choice_tau() {
        // 0 -tau-> 1 (1 can only do b), 0 -a-> 2: the τ is NOT inert
        // (it discards the option a), so it must be kept.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[0], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        // The τ must be kept: 0 and 1 differ (0 offers a, 1 does not). The
        // only reduction is merging the two deadlock states {2, 3}.
        assert_eq!(min.num_states(), 3);
        assert_eq!(min.num_transitions(), 3);
        assert!(min.has_tau(min.initial()), "non-inert tau survives");
    }

    #[test]
    fn branching_collapses_tau_cycles() {
        // 0 <-> 1 by τ, both can do a to 2: divergence-blind branching
        // collapses {0,1}.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[0], "a", s[2]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(min.num_states(), 2);
        assert_eq!(min.num_transitions(), 1);
    }

    #[test]
    fn branching_tau_cycle_with_escape_via_member() {
        // SCC {0,1}; only 1 offers a. Divergence-blind: 0 ≡ 1 (0 reaches the
        // offer via inert τ).
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[1], "a", s[2]);
        let lts = b.build(s[0]);
        let (min, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(min.num_states(), 2);
    }

    #[test]
    fn divergence_sensitive_keeps_livelocks_apart() {
        // 0 -a-> 1 (τ self-loop), 0 -b-> 2 (deadlock): divergence-blind
        // branching merges 1 and 2? No — 1 has a τ loop (inert) and nothing
        // else; blind branching treats it like a deadlock, so {1,2} merge.
        // Divergence-sensitive must keep them apart and keep the τ loop.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[1], "i", s[1]);
        b.add_transition(s[0], "b", s[2]);
        let lts = b.build(s[0]);
        let (blind, _) = minimize(&lts, Equivalence::Branching);
        assert_eq!(blind.num_states(), 2, "blind: livelock ≡ deadlock");
        let (sensitive, _) = minimize(&lts, Equivalence::BranchingDivergence);
        assert_eq!(sensitive.num_states(), 3, "sensitive: livelock ≠ deadlock");
        assert!(!divergent_states(&sensitive).is_empty(), "the quotient must still diverge");
    }

    #[test]
    fn divergence_closure_includes_tau_paths_into_cycles() {
        // 0 -τ-> 1 -τ-> 1: both 0 and 1 admit infinite internal runs.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..2).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[1]);
        let lts = b.build(s[0]);
        assert_eq!(divergent_closure(&lts), vec![0, 1]);
        assert_eq!(divergent_states(&lts), vec![1]);
    }

    #[test]
    fn divergence_sensitive_idempotent_and_refines_blind() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[1], "a", s[2]);
        b.add_transition(s[2], "a", s[3]);
        b.add_transition(s[3], "i", s[4]);
        let lts = b.build(s[0]);
        let (m1, _) = minimize(&lts, Equivalence::BranchingDivergence);
        let (m2, _) = minimize(&m1, Equivalence::BranchingDivergence);
        assert_eq!(m1.num_states(), m2.num_states());
        let (blind, _) = minimize(&lts, Equivalence::Branching);
        assert!(m1.num_states() >= blind.num_states());
    }

    #[test]
    fn divergence_detection() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[1], "i", s[1]); // τ self-loop: livelock
        b.add_transition(s[0], "b", s[2]);
        let lts = b.build(s[0]);
        assert_eq!(divergent_states(&lts), vec![1]);
    }

    #[test]
    fn collapse_tau_sccs_shrinks_cycles() {
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "i", s[1]);
        b.add_transition(s[1], "i", s[0]);
        b.add_transition(s[1], "a", s[2]);
        b.add_transition(s[2], "i", s[3]);
        let lts = b.build(s[0]);
        let (c, _) = collapse_tau_sccs(&lts);
        assert_eq!(c.num_states(), 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn quotient_preserves_determinism_of_minimal_lts() {
        // Minimizing twice is idempotent.
        let mut b = LtsBuilder::new();
        let s: Vec<_> = (0..6).map(|_| b.add_state()).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "a", s[2]);
        b.add_transition(s[1], "i", s[3]);
        b.add_transition(s[2], "i", s[4]);
        b.add_transition(s[3], "b", s[5]);
        b.add_transition(s[4], "b", s[5]);
        let lts = b.build(s[0]);
        for eq in [Equivalence::Strong, Equivalence::Branching] {
            let (m1, _) = minimize(&lts, eq);
            let (m2, _) = minimize(&m1, eq);
            assert_eq!(m1.num_states(), m2.num_states(), "{eq:?} not idempotent");
            assert_eq!(m1.num_transitions(), m2.num_transitions());
        }
    }
}
