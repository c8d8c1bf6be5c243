//! Sparse GTH state elimination.
//!
//! The Grassmann–Taksar–Heyman algorithm is Gaussian elimination on a
//! Markov generator written without a single subtraction: when a state `k`
//! is eliminated, every path `i → k → j` becomes a direct edge of weight
//! `w(i,k)·w(k,j)/S(k)`, where `S(k)` is the *sum* of `k`'s remaining
//! out-weights (not the diagonal entry, which would be a difference). All
//! quantities stay non-negative, so the result is accurate however stiff
//! the chain is: an Erlang ladder with rates `10³` apart costs one
//! elimination pass, where uniformized power iteration needs a number of
//! sweeps that grows with the rate ratio.
//!
//! One elimination serves both sides of a Markov chain:
//!
//! * the left null vector — the stationary distribution — by forward
//!   substitution over the recorded in-edges ([`Gth::stationary`]);
//! * right-hand systems `(S − W) h = b`, such as the bias equations of
//!   policy evaluation, by back substitution over the recorded out-edges
//!   ([`Gth::back_substitute`]). Per-state right-hand-side vectors fold
//!   along the same paths: eliminating `k` adds `w(i,k)/S(k)·rhs(k)` to
//!   `rhs(i)`.
//!
//! Rows are weighted edge lists. Scaling one state's row by a positive
//! factor changes neither the elimination's edges nor the solution of the
//! other states, so exponential rates and probability weights can be
//! mixed freely (the CTMDP solver feeds instant states' distributions next
//! to tangible rates).
//!
//! A state with no out-edge left when it comes up is kept as the *root* of
//! its closed class: every closed class of the input keeps exactly one
//! root, and every other state is eliminated. States are taken in order of
//! the smallest product of in- and out-degree among the remaining states,
//! ties broken by the smaller index, so the order (and every result) is
//! deterministic.
//!
//! The elimination counts the entries it creates and refuses to grow past
//! [`FILL_FACTOR`] times the input size ([`Overfill`]), so no input can
//! drive an allocation beyond a fixed multiple of its own size. Callers
//! fall back to an iterative method on that error.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fill bound: an elimination may create at most this many new entries per
/// state and input edge.
pub const FILL_FACTOR: usize = 16;

/// Marker for an empty slot in the scatter array.
const EMPTY: u32 = u32::MAX;

/// The elimination would create more entries than its fill bound allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overfill {
    /// Entries created before the refused growth.
    pub fill: usize,
    /// The bound: [`FILL_FACTOR`] × (states + input edges).
    pub bound: usize,
}

/// Growable rows in one flat pool: row `r` is
/// `pool[start[r]..start[r] + len[r]]`, with room up to `cap[r]`. A full row
/// moves to the end of the pool with twice the room, so the pool stays
/// within a small multiple of the entries ever stored, and clearing it
/// keeps its allocation for the next solve.
#[derive(Debug, Default)]
struct Rows<T> {
    pool: Vec<T>,
    start: Vec<usize>,
    len: Vec<u32>,
    cap: Vec<u32>,
}

impl<T: Copy + Default> Rows<T> {
    fn reset(&mut self, n: usize) {
        self.pool.clear();
        self.start.clear();
        self.start.resize(n, 0);
        self.len.clear();
        self.len.resize(n, 0);
        self.cap.clear();
        self.cap.resize(n, 0);
    }

    fn row(&self, r: usize) -> &[T] {
        &self.pool[self.start[r]..self.start[r] + self.len[r] as usize]
    }

    fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.pool[self.start[r]..self.start[r] + self.len[r] as usize]
    }

    fn push(&mut self, r: usize, x: T) {
        let (start, len) = (self.start[r], self.len[r] as usize);
        if len == self.cap[r] as usize {
            let cap = (2 * len).max(4);
            let moved = self.pool.len();
            self.pool.extend_from_within(start..start + len);
            self.pool.resize(moved + cap, T::default());
            self.start[r] = moved;
            self.cap[r] = cap as u32;
        }
        self.pool[self.start[r] + len] = x;
        self.len[r] += 1;
    }

    fn swap_remove(&mut self, r: usize, i: usize) -> T {
        let row = self.row_mut(r);
        let last = row.len() - 1;
        row.swap(i, last);
        self.len[r] -= 1;
        self.pool[self.start[r] + last]
    }

    fn clear(&mut self, r: usize) {
        self.len[r] = 0;
    }
}

/// Elimination workspace and result. Reusable: [`Gth::reset`] keeps every
/// buffer's capacity, so repeated solves (policy iteration) do not
/// reallocate.
#[derive(Debug, Default)]
pub struct Gth {
    n: usize,
    /// Input edges (after merging duplicates and dropping self-loops).
    edges: usize,
    /// Live out-edges `(target, weight)` of each remaining state, to
    /// remaining states.
    out: Rows<(u32, f64)>,
    /// Live in-neighbors of each remaining state.
    inn: Rows<u32>,
    /// Copies of the row and the in-neighbors of the state being
    /// eliminated.
    row_k: Vec<(u32, f64)>,
    preds: Vec<u32>,
    /// Scatter array: position of a target in the row being updated.
    slot: Vec<u32>,
    /// Current priority (in-degree × out-degree) of each state.
    cost: Vec<u64>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Eliminated states in elimination order.
    order: Vec<u32>,
    /// `S(k)` of the state eliminated at each position.
    exit: Vec<f64>,
    /// In-edges `(source, weight)` recorded at each elimination, flat;
    /// position `p` owns `in_ptr[p]..in_ptr[p + 1]`.
    in_ptr: Vec<usize>,
    in_edge: Vec<(u32, f64)>,
    /// Out-edges `(target, weight)` recorded at each elimination, flat.
    out_ptr: Vec<usize>,
    out_edge: Vec<(u32, f64)>,
    /// One state per closed class, in the order they were found.
    roots: Vec<u32>,
    fill: usize,
}

impl Gth {
    /// Clears the workspace for an input of `n` states with no edges.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges = 0;
        self.out.reset(n);
        self.inn.reset(n);
        self.slot.clear();
        self.slot.resize(n, EMPTY);
        self.cost.clear();
        self.cost.resize(n, 0);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();
        self.order.clear();
        self.exit.clear();
        self.in_ptr.clear();
        self.in_ptr.push(0);
        self.in_edge.clear();
        self.out_ptr.clear();
        self.out_ptr.push(0);
        self.out_edge.clear();
        self.roots.clear();
        self.fill = 0;
    }

    /// Adds the out-edges of state `s`. Duplicate targets are merged and
    /// self-loops dropped (neither changes a stationary vector or a bias).
    /// Call at most once per state, after [`Gth::reset`].
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range; debug builds also reject
    /// non-positive weights.
    pub fn add_row(&mut self, s: usize, row: impl IntoIterator<Item = (usize, f64)>) {
        debug_assert!(self.out.row(s).is_empty(), "row {s} added twice");
        for (t, w) in row {
            debug_assert!(w > 0.0, "non-positive weight {w} on {s} -> {t}");
            if t == s {
                continue;
            }
            if self.slot[t] == EMPTY {
                self.slot[t] = self.out.row(s).len() as u32;
                self.out.push(s, (t as u32, w));
                self.inn.push(t, s as u32);
            } else {
                self.out.row_mut(s)[self.slot[t] as usize].1 += w;
            }
        }
        for &(t, _) in self.out.row(s) {
            self.slot[t as usize] = EMPTY;
        }
        self.edges += self.out.row(s).len();
    }

    /// Entries created by the last elimination.
    #[must_use]
    pub fn fill(&self) -> usize {
        self.fill
    }

    /// The fill bound of the current input.
    #[must_use]
    pub fn bound(&self) -> usize {
        FILL_FACTOR.saturating_mul(self.n + self.edges)
    }

    /// The root of each closed class, in the order they were found.
    #[must_use]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    fn push(&mut self, s: usize) {
        let c = self.inn.row(s).len() as u64 * self.out.row(s).len() as u64;
        self.cost[s] = c;
        self.heap.push(Reverse((c, s as u32)));
    }

    /// Eliminates every state except one root per closed class. `rhs`
    /// holds `nrhs` values per state (state-major) and is folded along
    /// the eliminated paths: afterwards an eliminated state's entries are
    /// its values when it was eliminated, and a root's are its class
    /// totals.
    ///
    /// # Errors
    ///
    /// [`Overfill`] when the elimination would create more entries than
    /// [`Gth::bound`]; the workspace is then unusable until the next
    /// [`Gth::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != n · nrhs`.
    pub fn eliminate(&mut self, rhs: &mut [f64], nrhs: usize) -> Result<(), Overfill> {
        assert_eq!(rhs.len(), self.n * nrhs, "rhs must hold nrhs values per state");
        let bound = self.bound();
        for s in 0..self.n {
            self.push(s);
        }
        while let Some(Reverse((c, k))) = self.heap.pop() {
            let k = k as usize;
            if self.done[k] || self.cost[k] != c {
                continue;
            }
            self.done[k] = true;
            if self.out.row(k).is_empty() {
                self.roots.push(k as u32);
                continue;
            }
            self.eliminate_one(k, rhs, nrhs, bound)?;
        }
        Ok(())
    }

    fn eliminate_one(
        &mut self,
        k: usize,
        rhs: &mut [f64],
        nrhs: usize,
        bound: usize,
    ) -> Result<(), Overfill> {
        let mut row_k = std::mem::take(&mut self.row_k);
        let mut preds = std::mem::take(&mut self.preds);
        row_k.clear();
        row_k.extend_from_slice(self.out.row(k));
        preds.clear();
        preds.extend_from_slice(self.inn.row(k));
        self.out.clear(k);
        self.inn.clear(k);
        let total: f64 = row_k.iter().map(|&(_, w)| w).sum();
        for &i in &preds {
            let i = i as usize;
            let pos = self.out.row(i).iter().position(|&(t, _)| t as usize == k);
            let (_, w_ik) = self.out.swap_remove(i, pos.expect("in-lists mirror out-lists"));
            self.in_edge.push((i as u32, w_ik));
            let f = w_ik / total;
            for r in 0..nrhs {
                rhs[i * nrhs + r] += f * rhs[k * nrhs + r];
            }
            for (p, &(t, _)) in self.out.row(i).iter().enumerate() {
                self.slot[t as usize] = p as u32;
            }
            for &(j, w_kj) in &row_k {
                let j = j as usize;
                if j == i {
                    continue;
                }
                let p = self.slot[j];
                if p != EMPTY {
                    self.out.row_mut(i)[p as usize].1 += f * w_kj;
                    continue;
                }
                if self.fill >= bound {
                    return Err(Overfill { fill: self.fill, bound });
                }
                self.fill += 1;
                self.slot[j] = self.out.row(i).len() as u32;
                self.out.push(i, (j as u32, f * w_kj));
                self.inn.push(j, i as u32);
            }
            for &(t, _) in self.out.row(i) {
                self.slot[t as usize] = EMPTY;
            }
        }
        for &(j, w_kj) in &row_k {
            let j = j as usize;
            let pos = self.inn.row(j).iter().position(|&s| s as usize == k);
            self.inn.swap_remove(j, pos.expect("out-lists mirror in-lists"));
            self.out_edge.push((j as u32, w_kj));
        }
        for &i in &preds {
            self.push(i as usize);
        }
        for &(j, _) in &row_k {
            self.push(j as usize);
        }
        self.order.push(k as u32);
        self.exit.push(total);
        self.in_ptr.push(self.in_edge.len());
        self.out_ptr.push(self.out_edge.len());
        self.row_k = row_k;
        self.preds = preds;
        Ok(())
    }

    /// The stationary flow vector of the eliminated input: every root gets
    /// 1 and every other state the flow its class's root induces (states
    /// outside closed classes get 0). For a rate matrix this is the
    /// stationary distribution of each closed class up to scale. `x` must
    /// hold one entry per state.
    pub fn stationary(&self, x: &mut [f64]) {
        x.fill(0.0);
        for &r in &self.roots {
            x[r as usize] = 1.0;
        }
        for p in (0..self.order.len()).rev() {
            let inflow: f64 = self.in_edge[self.in_ptr[p]..self.in_ptr[p + 1]]
                .iter()
                .map(|&(i, w)| x[i as usize] * w)
                .sum();
            x[self.order[p] as usize] = inflow / self.exit[p];
        }
    }

    /// Solves `S(s)·h(s) − Σ w(s,t)·h(t) = b(s)` for the eliminated states
    /// by back substitution, with `h = 0` at every root. `b(k)` is read
    /// when `k` is reached, so it may depend on the folded right-hand
    /// sides. `h` must hold one entry per state.
    pub fn back_substitute(&self, b: impl Fn(usize) -> f64, h: &mut [f64]) {
        for &r in &self.roots {
            h[r as usize] = 0.0;
        }
        for p in (0..self.order.len()).rev() {
            let k = self.order[p] as usize;
            let ahead: f64 = self.out_edge[self.out_ptr[p]..self.out_ptr[p + 1]]
                .iter()
                .map(|&(j, w)| w * h[j as usize])
                .sum();
            h[k] = (b(k) + ahead) / self.exit[p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, edges: &[(usize, usize, f64)]) -> Gth {
        let mut g = Gth::default();
        g.reset(n);
        for s in 0..n {
            g.add_row(s, edges.iter().filter(|e| e.0 == s).map(|&(_, t, w)| (t, w)));
        }
        g
    }

    fn normalized(g: &Gth, n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        g.stationary(&mut x);
        let z: f64 = x.iter().sum();
        x.iter().map(|v| v / z).collect()
    }

    #[test]
    fn birth_death_stationary() {
        // Rates 1 up, 2 down: π ∝ (4, 2, 1).
        let mut g = build(3, &[(0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0), (2, 1, 2.0)]);
        g.eliminate(&mut [], 0).expect("no fill");
        assert_eq!(g.roots().len(), 1);
        let pi = normalized(&g, 3);
        for (got, want) in pi.iter().zip([4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0]) {
            assert!((got - want).abs() < 1e-15, "{pi:?}");
        }
    }

    #[test]
    fn duplicates_merge_and_self_loops_drop() {
        let mut g = build(2, &[(0, 1, 0.5), (0, 1, 1.5), (0, 0, 7.0), (1, 0, 1.0)]);
        g.eliminate(&mut [], 0).expect("no fill");
        let pi = normalized(&g, 2);
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-15, "{pi:?}");
    }

    #[test]
    fn one_root_per_closed_class() {
        // 0 → {1, 2} and 0 → {3}: two closed classes and a transient state.
        let mut g = build(4, &[(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 1, 3.0)]);
        g.eliminate(&mut [], 0).expect("no fill");
        let mut roots = g.roots().to_vec();
        roots.sort_unstable();
        assert_eq!(roots.len(), 2);
        assert!(roots.contains(&3));
        let mut x = vec![0.0; 4];
        g.stationary(&mut x);
        assert_eq!(x[0], 0.0, "transient states carry no flow");
        assert!((x[1] / x[2] - 3.0).abs() < 1e-15, "{x:?}");
    }

    #[test]
    fn rhs_folds_and_back_substitution_solves() {
        // Hitting times of state 2 on a line 0 → 1 → 2 with rates 1, 4:
        // S(s)·h(s) − Σ w·h = 1 per unit rate, i.e. b(s) = 1.
        let mut g = build(3, &[(0, 1, 1.0), (1, 2, 4.0), (1, 0, 1.0)]);
        let mut rhs = vec![1.0, 1.0, 0.0];
        g.eliminate(&mut rhs, 1).expect("no fill");
        assert_eq!(g.roots(), &[2]);
        let mut h = vec![0.0; 3];
        g.back_substitute(|k| rhs[k], &mut h);
        // h1 = (1 + h0)/5, h0 = 1 + h1 → h1 = 0.5, h0 = 1.5.
        assert!((h[0] - 1.5).abs() < 1e-15, "{h:?}");
        assert!((h[1] - 0.5).abs() < 1e-15, "{h:?}");
    }

    #[test]
    fn closed_class_root_accumulates_flow_weighted_rhs() {
        // Cycle 0 → 1 → 2 → 0 plus a chord 1 → 0: the root's folded value
        // is Σ x(s)·rhs(s) over its class, with x the flow (x(root) = 1).
        let edges = [(0, 1, 1.0), (1, 2, 2.0), (1, 0, 0.5), (2, 0, 4.0)];
        let mut g = build(3, &edges);
        let values = [3.0, 5.0, 7.0];
        let mut rhs = values.to_vec();
        g.eliminate(&mut rhs, 1).expect("no fill");
        let root = g.roots()[0] as usize;
        let mut x = vec![0.0; 3];
        g.stationary(&mut x);
        let want: f64 = x.iter().zip(values).map(|(x, v)| x * v).sum();
        assert!((rhs[root] - want).abs() < 1e-14 * want, "{} vs {want}", rhs[root]);
    }

    #[test]
    fn order_is_deterministic_across_runs() {
        let edges: Vec<(usize, usize, f64)> = (0..12)
            .flat_map(|s| [(s, (s + 1) % 12, 1.0 + s as f64), (s, (s * 5) % 12, 2.0)])
            .collect();
        let mut a = build(12, &edges);
        let mut b = build(12, &edges);
        a.eliminate(&mut [], 0).expect("fits");
        b.eliminate(&mut [], 0).expect("fits");
        assert_eq!(a.order, b.order);
        assert_eq!(normalized(&a, 12), normalized(&b, 12));
    }
}
