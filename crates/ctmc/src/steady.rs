//! Steady-state analysis (the CADP `bcg_steady` role).
//!
//! The long-run distribution of a CTMC is computed per *bottom strongly
//! connected component* (BSCC): within each BSCC the stationary equations
//! πQ = 0 are solved directly by sparse GTH elimination ([`crate::gth`]),
//! and the answer is checked by its scaled residual; across BSCCs the
//! long-run mass is the probability of absorption into each BSCC from the
//! initial distribution, computed by iterating the embedded jump chain.

use crate::ctmc::{Ctmc, CtmcError, State};
use crate::gth::Gth;
use crate::sparse::Csr;

/// Options for the solvers.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Accuracy demanded of an answer. A direct BSCC solve is refused when
    /// its scaled residual `max|πQ| / max_s π(s)·E(s)` exceeds it; the
    /// iterative stages (absorption into the BSCCs, and power iteration on
    /// a BSCC whose elimination would over-fill) stop once successive
    /// iterates differ by less than it in the max-norm.
    pub tolerance: f64,
    /// Iteration cap of the iterative stages. The direct solve does not
    /// iterate.
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { tolerance: 1e-12, max_iterations: 200_000 }
    }
}

/// Tarjan SCC over the rate graph (CSR form). Returns (scc id per state,
/// #sccs); ids are in reverse topological order.
pub(crate) fn sccs(csr: &Csr) -> (Vec<u32>, u32) {
    let n = csr.num_states();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![u32::MAX; n];
    let mut stack: Vec<State> = Vec::new();
    let mut next_index = 0u32;
    let mut next_scc = 0u32;

    enum Frame {
        Enter(State),
        Post(State, State),
    }
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        let mut call = vec![Frame::Enter(root)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    if index[v] != u32::MAX {
                        continue;
                    }
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push(Frame::Post(v, v));
                    let (cols, _) = csr.row(v);
                    for &c in cols {
                        let w = c as State;
                        if index[w] == u32::MAX {
                            call.push(Frame::Post(v, w));
                            call.push(Frame::Enter(w));
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                }
                Frame::Post(v, w) => {
                    if w != v {
                        if scc[w] == u32::MAX {
                            low[v] = low[v].min(low[w]);
                        }
                        continue;
                    }
                    if low[v] == index[v] {
                        loop {
                            let x = stack.pop().expect("tarjan stack underflow");
                            on_stack[x] = false;
                            scc[x] = next_scc;
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

/// Identifies the bottom SCCs: SCC ids with no transition leaving the SCC.
/// Returns for each SCC id whether it is bottom.
pub(crate) fn bottom_sccs(csr: &Csr, scc_of: &[u32], num_sccs: u32) -> Vec<bool> {
    let mut bottom = vec![true; num_sccs as usize];
    for s in 0..csr.num_states() {
        let (cols, _) = csr.row(s);
        for &c in cols {
            if scc_of[c as usize] != scc_of[s] {
                bottom[scc_of[s] as usize] = false;
            }
        }
    }
    bottom
}

/// Steady-state distribution of an *irreducible* sub-chain given by
/// `members` (states of one BSCC), by GTH elimination; `local` is scratch
/// of one entry per chain state. Falls back to uniformized power iteration
/// when the elimination would over-fill.
fn solve_bscc(
    csr: &Csr,
    members: &[State],
    local: &mut [u32],
    gth: &mut Gth,
    options: &SolveOptions,
) -> Result<Vec<f64>, CtmcError> {
    let m = members.len();
    if m == 1 {
        return Ok(vec![1.0]);
    }
    for (i, &s) in members.iter().enumerate() {
        local[s] = i as u32;
    }
    gth.reset(m);
    for (i, &s) in members.iter().enumerate() {
        let (cols, rates) = csr.row(s);
        // BSCC: targets stay inside.
        gth.add_row(i, cols.iter().zip(rates).map(|(&c, &r)| (local[c as usize] as usize, r)));
    }
    if gth.eliminate(&mut [], 0).is_err() {
        return power_iteration(csr, members, local, options);
    }
    debug_assert_eq!(gth.roots().len(), 1, "a BSCC is one closed class");
    let mut pi = vec![0.0; m];
    gth.stationary(&mut pi);
    let total: f64 = pi.iter().sum();
    for p in &mut pi {
        *p /= total;
    }
    check_residual(csr, members, local, pi, options)
}

/// Returns `pi` if its scaled residual `max_j |(πQ)(j)| / max_s π(s)·E(s)`
/// is within `options.tolerance`, and [`CtmcError::NoConvergence`] naming
/// the residual otherwise. `pi` is indexed like `members`, mapped by
/// `local`.
fn check_residual(
    csr: &Csr,
    members: &[State],
    local: &[u32],
    pi: Vec<f64>,
    options: &SolveOptions,
) -> Result<Vec<f64>, CtmcError> {
    let mut balance = vec![0.0; members.len()];
    let mut scale = 0.0f64;
    for (i, &s) in members.iter().enumerate() {
        let (cols, rates) = csr.row(s);
        let mut outflow = 0.0;
        for (&c, &r) in cols.iter().zip(rates) {
            let j = local[c as usize] as usize;
            if j != i {
                balance[j] += pi[i] * r;
                outflow += pi[i] * r;
            }
        }
        balance[i] -= outflow;
        scale = scale.max(outflow);
    }
    let residual = balance.iter().map(|b| b.abs()).fold(0.0, f64::max) / scale;
    if residual.is_nan() || residual > options.tolerance {
        return Err(CtmcError::NoConvergence {
            what: "steady-state GTH elimination (scaled residual check)",
            iterations: 1,
            residual,
        });
    }
    Ok(pi)
}

/// Uniformized power iteration on one BSCC: the bail-out for chains whose
/// elimination would over-fill. The stationary distribution of the CTMC
/// equals that of `P = I + Q/Λ`, and the slack above the maximum exit rate
/// gives every state a self-loop, so the chain is aperiodic and the
/// iteration converges geometrically.
fn power_iteration(
    csr: &Csr,
    members: &[State],
    local: &[u32],
    options: &SolveOptions,
) -> Result<Vec<f64>, CtmcError> {
    let m = members.len();
    let mut row_ptr = Vec::with_capacity(m + 1);
    let mut col: Vec<u32> = Vec::new();
    let mut rate: Vec<f64> = Vec::new();
    let mut exit = vec![0.0; m];
    row_ptr.push(0usize);
    for (i, &s) in members.iter().enumerate() {
        let (cols, rates) = csr.row(s);
        for (&c, &r) in cols.iter().zip(rates) {
            col.push(local[c as usize]);
            rate.push(r);
            exit[i] += r;
        }
        row_ptr.push(col.len());
    }
    let lambda = exit.iter().copied().fold(0.0f64, f64::max) * 1.02;
    let mut pi = vec![1.0 / m as f64; m];
    let mut next = vec![0.0f64; m];
    for iter in 0..options.max_iterations {
        next.fill(0.0);
        for i in 0..m {
            next[i] += pi[i] * (1.0 - exit[i] / lambda);
            let scale = pi[i] / lambda;
            for k in row_ptr[i]..row_ptr[i + 1] {
                next[col[k] as usize] += scale * rate[k];
            }
        }
        // Normalize each sweep to stop drift.
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for p in &mut next {
                *p /= total;
            }
        }
        let delta = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        std::mem::swap(&mut pi, &mut next);
        if delta < options.tolerance {
            return Ok(pi);
        }
        if iter == options.max_iterations - 1 {
            return Err(CtmcError::NoConvergence {
                what: "steady-state uniformized power iteration",
                iterations: options.max_iterations,
                residual: delta,
            });
        }
    }
    unreachable!("loop returns")
}

/// Probability of absorption into each BSCC from the initial distribution,
/// computed by iterating the embedded jump chain until the transient mass
/// vanishes.
fn absorption_probabilities(
    csr: &Csr,
    initial: Vec<f64>,
    scc_of: &[u32],
    bottom: &[bool],
    options: &SolveOptions,
) -> Result<Vec<f64>, CtmcError> {
    let n = csr.num_states();
    let mut mass = initial;
    let mut absorbed = vec![0.0; bottom.len()];
    // Move mass already in BSCCs.
    for s in 0..n {
        let c = scc_of[s] as usize;
        if bottom[c] && mass[s] > 0.0 {
            absorbed[c] += mass[s];
            mass[s] = 0.0;
        }
    }
    let mut transient: f64 = mass.iter().sum();
    let mut iterations = 0;
    while transient > options.tolerance {
        iterations += 1;
        if iterations > options.max_iterations {
            return Err(CtmcError::NoConvergence {
                what: "absorption probabilities",
                iterations,
                residual: transient,
            });
        }
        let mut next = vec![0.0; n];
        for s in 0..n {
            if mass[s] == 0.0 {
                continue;
            }
            let e = csr.exit(s);
            if e == 0.0 {
                // Absorbing singleton state: its SCC is bottom by definition.
                absorbed[scc_of[s] as usize] += mass[s];
                continue;
            }
            let (cols, rates) = csr.row(s);
            for (&tgt, &r) in cols.iter().zip(rates) {
                let p = mass[s] * r / e;
                let c = scc_of[tgt as usize] as usize;
                if bottom[c] {
                    absorbed[c] += p;
                } else {
                    next[tgt as usize] += p;
                }
            }
        }
        mass = next;
        transient = mass.iter().sum();
    }
    Ok(absorbed)
}

/// Long-run (steady-state) distribution of the chain from its initial
/// distribution. Handles reducible chains: the result is the mixture of
/// per-BSCC stationary distributions weighted by absorption probabilities.
///
/// # Errors
///
/// Returns [`CtmcError::NoConvergence`] if an iterative stage exceeds its
/// iteration cap, or a direct BSCC solve's scaled residual exceeds
/// `options.tolerance`.
///
/// # Examples
///
/// ```
/// use multival_ctmc::{CtmcBuilder, steady::{steady_state, SolveOptions}};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Birth-death chain: rates 1.0 up, 2.0 down — π ∝ (1, 1/2, 1/4).
/// let mut b = CtmcBuilder::new(3);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 2, 1.0)?;
/// b.rate(1, 0, 2.0)?;
/// b.rate(2, 1, 2.0)?;
/// let pi = steady_state(&b.build()?, &SolveOptions::default())?;
/// assert!((pi[0] - 4.0 / 7.0).abs() < 1e-9);
/// assert!((pi[1] - 2.0 / 7.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn steady_state(ctmc: &Ctmc, options: &SolveOptions) -> Result<Vec<f64>, CtmcError> {
    let csr = Csr::new(ctmc);
    let (scc_of, num_sccs) = sccs(&csr);
    let bottom = bottom_sccs(&csr, &scc_of, num_sccs);
    let absorbed = absorption_probabilities(&csr, ctmc.initial_dense(), &scc_of, &bottom, options)?;

    let mut members: Vec<Vec<State>> = vec![Vec::new(); num_sccs as usize];
    for s in 0..ctmc.num_states() {
        members[scc_of[s] as usize].push(s);
    }
    let mut pi = vec![0.0; ctmc.num_states()];
    let mut index = vec![0u32; ctmc.num_states()];
    let mut gth = Gth::default();
    for c in 0..num_sccs as usize {
        if !bottom[c] || absorbed[c] <= 0.0 {
            continue;
        }
        let local = solve_bscc(&csr, &members[c], &mut index, &mut gth, options)?;
        for (i, &s) in members[c].iter().enumerate() {
            pi[s] = absorbed[c] * local[i];
        }
    }
    Ok(pi)
}

/// Steady-state *throughput* of each label: Σ_s π(s) · rate of transitions
/// from `s` carrying that label. Returns `(label name, throughput)` pairs in
/// label-id order.
///
/// # Errors
///
/// Propagates [`steady_state`] errors.
pub fn throughputs(ctmc: &Ctmc, options: &SolveOptions) -> Result<Vec<(String, f64)>, CtmcError> {
    let pi = steady_state(ctmc, options)?;
    let mut tp = vec![0.0; ctmc.labels().len()];
    for (s, &p) in pi.iter().enumerate() {
        for t in ctmc.transitions_from(s) {
            if let Some(l) = t.label {
                tp[l as usize] += p * t.rate;
            }
        }
    }
    Ok(ctmc.labels().iter().cloned().zip(tp).collect())
}

/// Expected value of a state reward function under the steady-state
/// distribution.
///
/// # Errors
///
/// Propagates [`steady_state`] errors.
pub fn steady_reward(
    ctmc: &Ctmc,
    reward: impl Fn(State) -> f64,
    options: &SolveOptions,
) -> Result<f64, CtmcError> {
    let pi = steady_state(ctmc, options)?;
    Ok(pi.iter().enumerate().map(|(s, &p)| p * reward(s)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    /// M/M/1/K queue: arrivals λ, service μ, capacity K.
    fn mm1k(lambda: f64, mu: f64, k: usize) -> Ctmc {
        let mut b = CtmcBuilder::new(k + 1);
        for n in 0..k {
            b.rate_labeled(n, n + 1, lambda, "arrive").unwrap();
            b.rate_labeled(n + 1, n, mu, "serve").unwrap();
        }
        b.build().unwrap()
    }

    fn mm1k_analytic(rho: f64, k: usize) -> Vec<f64> {
        let weights: Vec<f64> = (0..=k).map(|n| rho.powi(n as i32)).collect();
        let z: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / z).collect()
    }

    #[test]
    fn mm1k_matches_analytic() {
        for (lambda, mu, k) in [(1.0, 2.0, 4), (3.0, 2.0, 6), (1.0, 1.0, 3)] {
            let c = mm1k(lambda, mu, k);
            let pi = steady_state(&c, &SolveOptions::default()).expect("converges");
            let expect = mm1k_analytic(lambda / mu, k);
            for (i, (&got, want)) in pi.iter().zip(expect).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "λ={lambda} μ={mu} K={k}: π[{i}] = {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn residual_check_refuses_a_corrupted_solution() {
        let c = mm1k(1.0, 2.0, 4);
        let csr = Csr::new(&c);
        let members: Vec<State> = (0..5).collect();
        let local: Vec<u32> = (0..5).collect();
        let opts = SolveOptions::default();
        let pi = steady_state(&c, &opts).expect("solves");
        let tight = SolveOptions { tolerance: 1e-14, ..opts };
        let good = check_residual(&csr, &members, &local, pi.clone(), &tight).expect("passes");
        assert_eq!(good, pi);
        // Move 1e-9 of mass from the last state to the first.
        let mut bad = pi;
        bad[0] += 1e-9;
        bad[4] -= 1e-9;
        match check_residual(&csr, &members, &local, bad, &opts) {
            Err(CtmcError::NoConvergence { what, residual, .. }) => {
                assert!(what.contains("residual"), "{what}");
                assert!(residual > 1e-10, "residual {residual:e}");
            }
            other => panic!("corrupted π must be refused: {other:?}"),
        }
    }

    #[test]
    fn steady_state_sums_to_one() {
        let c = mm1k(2.0, 3.0, 5);
        let pi = steady_state(&c, &SolveOptions::default()).expect("converges");
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_balances_at_steady_state() {
        // In steady state, arrival throughput == service throughput.
        let c = mm1k(1.0, 2.0, 4);
        let tp = throughputs(&c, &SolveOptions::default()).expect("converges");
        let arrive = tp.iter().find(|(l, _)| l == "arrive").expect("label").1;
        let serve = tp.iter().find(|(l, _)| l == "serve").expect("label").1;
        assert!((arrive - serve).abs() < 1e-9, "flow balance: {arrive} vs {serve}");
        // Effective throughput < λ because of blocking.
        assert!(arrive < 1.0);
    }

    #[test]
    fn reducible_chain_mixes_bsccs() {
        // 0 → 1 (rate 1) and 0 → 2 (rate 3); 1 and 2 are absorbing self-BSCCs
        // but CTMC absorbing states have no self-loop; give each a cycle.
        let mut b = CtmcBuilder::new(5);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(0, 3, 3.0).unwrap();
        b.rate(1, 2, 1.0).unwrap();
        b.rate(2, 1, 1.0).unwrap();
        b.rate(3, 4, 2.0).unwrap();
        b.rate(4, 3, 2.0).unwrap();
        let pi = steady_state(&b.build().unwrap(), &SolveOptions::default()).expect("ok");
        // BSCC {1,2} reached w.p. 1/4, split evenly (symmetric rates).
        assert!((pi[1] - 0.125).abs() < 1e-9);
        assert!((pi[2] - 0.125).abs() < 1e-9);
        // BSCC {3,4} reached w.p. 3/4.
        assert!((pi[3] - 0.375).abs() < 1e-9);
        assert!((pi[4] - 0.375).abs() < 1e-9);
        assert!(pi[0].abs() < 1e-12, "transient state has no long-run mass");
    }

    #[test]
    fn absorbing_state_gets_all_mass() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 2, 1.0).unwrap();
        let pi = steady_state(&b.build().unwrap(), &SolveOptions::default()).expect("ok");
        assert!((pi[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn steady_reward_is_expected_occupancy() {
        // Mean queue length of M/M/1/K.
        let c = mm1k(1.0, 2.0, 4);
        let pi = steady_state(&c, &SolveOptions::default()).expect("ok");
        let direct: f64 = pi.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
        let via_reward = steady_reward(&c, |s| s as f64, &SolveOptions::default()).expect("ok");
        assert!((direct - via_reward).abs() < 1e-12);
    }

    #[test]
    fn initial_distribution_affects_reducible_result() {
        let mut b = CtmcBuilder::new(2);
        // Two disconnected absorbing states.
        b.set_initial(vec![(0, 0.3), (1, 0.7)]).unwrap();
        let pi = steady_state(&b.build().unwrap(), &SolveOptions::default()).expect("ok");
        assert!((pi[0] - 0.3).abs() < 1e-12);
        assert!((pi[1] - 0.7).abs() < 1e-12);
    }
}
