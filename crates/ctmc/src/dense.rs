//! Dense reference solvers.
//!
//! They exist as oracles for the sparse production paths: the metamorphic
//! property suite and the differential solver suite check that the sparse
//! and dense answers agree to 1e-9, and the bench harness reports the
//! dense-vs-CSR wall-time ratio.
//!
//! * [`transient_dense`] runs the same uniformization as
//!   [`crate::transient`] through a naive dense `n × n` kernel, so it checks
//!   the CSR kernel, not the algorithm.
//! * [`steady_state_dense`] does *not* run the production algorithm. It
//!   finds the closed classes from all-pairs reachability (not Tarjan), solves
//!   each class by Gaussian elimination with partial pivoting on `πQ = 0`
//!   with one equation replaced by `Σπ = 1` (not subtraction-free GTH
//!   elimination, and no fill bound), and gets the absorption
//!   probabilities from a dense solve for the expected time spent in each
//!   transient state (not by iterating the jump chain). That independence
//!   is what makes it an oracle for [`crate::steady::steady_state`].
//!
//! O(n³) time and O(n²) memory — keep `n` small.

use crate::ctmc::{Ctmc, CtmcError};
use crate::steady::SolveOptions;
use crate::transient::{uniformize_with, TransientOptions};

/// The dense uniformized jump matrix `P = I + Q/Λ` (row-major, `n × n`)
/// and the uniformization rate `Λ = 1.02 · max exit rate`.
#[must_use]
pub fn uniformized_matrix(ctmc: &Ctmc) -> (Vec<f64>, f64) {
    let n = ctmc.num_states();
    let lambda = ctmc.max_exit_rate() * 1.02;
    let mut p = vec![0.0; n * n];
    for s in 0..n {
        let mut exit = 0.0;
        for t in ctmc.transitions_from(s) {
            p[s * n + t.target] += t.rate / lambda;
            exit += t.rate;
        }
        p[s * n + s] += 1.0 - exit / lambda;
    }
    (p, lambda)
}

/// Dense vector-matrix product `out = v · P`.
fn dense_step(n: usize, p: &[f64], v: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for s in 0..n {
        let mass = v[s];
        if mass == 0.0 {
            continue;
        }
        let row = &p[s * n..(s + 1) * n];
        for (o, &q) in out.iter_mut().zip(row) {
            *o += mass * q;
        }
    }
}

/// Transient distribution at time `t` via uniformization with the dense
/// kernel — the reference against which [`crate::transient::transient`]
/// (CSR) is cross-validated.
///
/// # Errors
///
/// As [`crate::transient::transient`].
pub fn transient_dense(
    ctmc: &Ctmc,
    t: f64,
    options: &TransientOptions,
) -> Result<Vec<f64>, CtmcError> {
    let n = ctmc.num_states();
    let (p, _) = uniformized_matrix(ctmc);
    uniformize_with(ctmc.initial_dense(), ctmc.max_exit_rate(), t, options, |v, out| {
        dense_step(n, &p, v, out);
    })
}

/// Long-run distribution by dense direct solves: the closed classes come
/// from all-pairs reachability, each class's stationary vector from Gaussian
/// elimination with partial pivoting, and the mass each class receives
/// from a dense solve for the expected time spent in each transient state
/// before absorption. `_options` is unused: nothing iterates.
///
/// # Errors
///
/// Returns [`CtmcError::Undefined`] when a dense system is numerically
/// singular.
pub fn steady_state_dense(ctmc: &Ctmc, _options: &SolveOptions) -> Result<Vec<f64>, CtmcError> {
    let n = ctmc.num_states();
    // Dense off-diagonal rates (duplicates merged, self-loops ignored).
    let mut q = vec![0.0; n * n];
    for s in 0..n {
        for t in ctmc.transitions_from(s) {
            if t.target != s {
                q[s * n + t.target] += t.rate;
            }
        }
    }
    let reach: Vec<Vec<bool>> = (0..n).map(|s| reachable(ctmc, s)).collect();
    // A state is recurrent when every state it reaches reaches it back;
    // its closed class is then exactly the set it reaches.
    let recurrent: Vec<bool> =
        (0..n).map(|s| (0..n).all(|t| !reach[s][t] || reach[t][s])).collect();
    let transient: Vec<usize> = (0..n).filter(|&s| !recurrent[s]).collect();
    let initial = ctmc.initial_dense();
    // Expected time in each transient state: z · (−Q_TT) = initial_T.
    let m = transient.len();
    let mut time = vec![0.0; m];
    if initial.iter().zip(&recurrent).any(|(&p, &r)| p > 0.0 && !r) {
        let mut a = vec![0.0; m * m];
        for (i, &s) in transient.iter().enumerate() {
            let exit: f64 = q[s * n..(s + 1) * n].iter().sum();
            a[i * m + i] = exit;
            for (j, &t) in transient.iter().enumerate() {
                // Transposed: row j of the system is column j of −Q_TT.
                a[j * m + i] -= q[s * n + t];
            }
            time[i] = initial[s];
        }
        solve(&mut a, &mut time, m)?;
    }
    let mut pi = vec![0.0; n];
    let mut seen = vec![false; n];
    for s in 0..n {
        if !recurrent[s] || seen[s] {
            continue;
        }
        let class: Vec<usize> = (0..n).filter(|&t| reach[s][t]).collect();
        let mut mass: f64 = class.iter().map(|&c| initial[c]).sum();
        for (i, &t) in transient.iter().enumerate() {
            mass += time[i] * class.iter().map(|&c| q[t * n + c]).sum::<f64>();
        }
        // πQ = 0 restricted to the class, transposed, last row Σπ = 1.
        let c = class.len();
        let mut a = vec![0.0; c * c];
        for (i, &u) in class.iter().enumerate() {
            for (j, &v) in class.iter().enumerate() {
                if i != j {
                    a[j * c + i] += q[u * n + v];
                    a[i * c + i] -= q[u * n + v];
                }
            }
        }
        let mut b = vec![0.0; c];
        a[(c - 1) * c..].fill(1.0);
        b[c - 1] = 1.0;
        solve(&mut a, &mut b, c)?;
        for (&u, &p) in class.iter().zip(&b) {
            seen[u] = true;
            pi[u] = mass * p;
        }
    }
    Ok(pi)
}

/// The states reachable from `s` (including `s`).
fn reachable(ctmc: &Ctmc, s: usize) -> Vec<bool> {
    let mut seen = vec![false; ctmc.num_states()];
    seen[s] = true;
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        for t in ctmc.transitions_from(u) {
            if !seen[t.target] {
                seen[t.target] = true;
                stack.push(t.target);
            }
        }
    }
    seen
}

/// Solves `a · x = b` in place (`b` becomes `x`) by Gaussian elimination
/// with partial pivoting; `a` is row-major `n × n` and is destroyed.
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), CtmcError> {
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
            .expect("non-empty pivot range");
        if a[pivot * n + col] == 0.0 {
            return Err(CtmcError::Undefined("singular dense steady-state system".to_owned()));
        }
        if pivot != col {
            for k in 0..n {
                a.swap(pivot * n + k, col * n + k);
            }
            b.swap(pivot, col);
        }
        let d = a[col * n + col];
        for row in col + 1..n {
            let f = a[row * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    for col in (0..n).rev() {
        let tail: f64 = (col + 1..n).map(|k| a[col * n + k] * b[k]).sum();
        b[col] = (b[col] - tail) / a[col * n + col];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;
    use crate::steady::steady_state;
    use crate::transient::transient;

    fn flip_flop() -> Ctmc {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 2, 1.5).unwrap();
        b.rate(2, 0, 0.7).unwrap();
        b.rate(1, 0, 0.3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dense_transient_matches_csr() {
        let c = flip_flop();
        for t in [0.1, 1.0, 5.0, 25.0] {
            let sparse = transient(&c, t, &TransientOptions::default()).expect("csr");
            let dense = transient_dense(&c, t, &TransientOptions::default()).expect("dense");
            for (a, b) in sparse.iter().zip(&dense) {
                assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dense_steady_matches_bscc_solver() {
        let c = flip_flop();
        let fast = steady_state(&c, &SolveOptions::default()).expect("bscc");
        let slow = steady_state_dense(&c, &SolveOptions::default()).expect("dense");
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
