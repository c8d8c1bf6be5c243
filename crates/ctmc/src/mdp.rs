//! Continuous-time Markov decision processes (CTMDPs).
//!
//! The paper's §5 lists "new algorithms to handle nondeterminism (currently
//! not accepted by the Markov solvers of CADP)" as an open issue: an IMC
//! whose τ-nondeterminism cannot be resolved does not induce a single CTMC.
//! This module provides the missing piece — a CTMDP with value-iteration
//! solvers giving *best-case/worst-case bounds* over all schedulers
//! (experiments E8 and E13).
//!
//! Two kinds of states coexist (a Markov-automaton flavor): *tangible*
//! states whose choices are sets of rate transitions racing exponentially,
//! and *instant* states ([`Ctmdp::set_instant`]) whose choices are
//! probability distributions taken in zero time. Instant states are how
//! nondeterministic vanishing states of an IMC survive the lifting without
//! being forced into a single resolution (see `multival_imc::to_ctmdp_lifted`).

use crate::ctmc::{CtmcError, State};
use crate::gth::{Gth, Overfill};

/// Inner fixpoint tolerance for instant-state propagation.
const INSTANT_TOL: f64 = 1e-13;
/// Iteration cap for the instant-state fixpoint: generous, because a slow
/// geometric escape out of an instant cycle is legitimate; a *divergent*
/// series (Zeno cycle accumulating impulse reward) must still be caught.
const INSTANT_MAX_ITERS: usize = 100_000;

/// One nondeterministic choice available in a state: a set of rate
/// transitions taken together (a "Markovian action").
#[derive(Debug, Clone, PartialEq)]
pub struct ActionChoice {
    /// Optional action name (for diagnostics).
    pub name: Option<String>,
    /// Rate transitions fired under this choice.
    pub transitions: Vec<(State, f64)>,
}

impl ActionChoice {
    /// Total exit rate of this choice.
    pub fn exit_rate(&self) -> f64 {
        self.transitions.iter().map(|&(_, r)| r).sum()
    }
}

/// Optimization direction for scheduler quantification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opt {
    /// Best case over schedulers.
    Min,
    /// Worst case over schedulers.
    Max,
}

impl Opt {
    fn pick(self, a: f64, b: f64) -> f64 {
        match self {
            Opt::Min => a.min(b),
            Opt::Max => a.max(b),
        }
    }

    fn unit(self) -> f64 {
        match self {
            Opt::Min => f64::INFINITY,
            Opt::Max => f64::NEG_INFINITY,
        }
    }
}

/// A sparse CTMDP. States without choices are absorbing.
///
/// # Examples
///
/// ```
/// use multival_ctmc::mdp::{Ctmdp, ActionChoice, Opt};
///
/// let mut m = Ctmdp::new(3);
/// // State 0: scheduler picks the fast or the slow route to state 2.
/// m.add_choice(0, ActionChoice { name: Some("fast".into()),
///                                transitions: vec![(2, 4.0)] });
/// m.add_choice(0, ActionChoice { name: Some("slow".into()),
///                                transitions: vec![(1, 1.0)] });
/// m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
/// let best = m.expected_time_to_reach(&[2], Opt::Min, 1e-12, 100_000).unwrap();
/// let worst = m.expected_time_to_reach(&[2], Opt::Max, 1e-12, 100_000).unwrap();
/// assert!((best[0] - 0.25).abs() < 1e-9);
/// assert!((worst[0] - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ctmdp {
    choices: Vec<Vec<ActionChoice>>,
    instant: Vec<bool>,
}

impl Ctmdp {
    /// A CTMDP with `n` states and no choices yet.
    pub fn new(n: usize) -> Self {
        Ctmdp { choices: vec![Vec::new(); n], instant: vec![false; n] }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.choices.len()
    }

    /// Appends a new state.
    pub fn add_state(&mut self) -> State {
        self.choices.push(Vec::new());
        self.instant.push(false);
        self.choices.len() - 1
    }

    /// Marks `s` as *instant*: its sojourn time is zero and each of its
    /// choices is read as a probability distribution (transition weights
    /// normalized by their sum) instead of a race of exponentials.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn set_instant(&mut self, s: State) {
        assert!(s < self.choices.len(), "state out of range");
        self.instant[s] = true;
    }

    /// Whether `s` is an instant (zero-sojourn) state.
    pub fn is_instant(&self, s: State) -> bool {
        self.instant[s]
    }

    /// Adds a nondeterministic choice to `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range, a transition target is out of range,
    /// or the choice has a non-positive exit rate.
    pub fn add_choice(&mut self, s: State, choice: ActionChoice) {
        assert!(s < self.choices.len(), "state out of range");
        assert!(
            choice.transitions.iter().all(|&(t, r)| t < self.choices.len() && r > 0.0),
            "bad transition in choice"
        );
        assert!(choice.exit_rate() > 0.0, "choice must have positive exit rate");
        self.choices[s].push(choice);
    }

    /// The choices of state `s`.
    pub fn choices(&self, s: State) -> &[ActionChoice] {
        &self.choices[s]
    }

    /// The maximum exit rate over all choices (including instant states,
    /// whose "rates" are probability weights — prefer
    /// [`Ctmdp::uniformization_rate`] when instant states are present).
    pub fn max_exit_rate(&self) -> f64 {
        self.choices
            .iter()
            .flat_map(|cs| cs.iter().map(ActionChoice::exit_rate))
            .fold(0.0, f64::max)
    }

    /// The uniformization base: maximum exit rate over *tangible* states
    /// only. Instant states take zero time, so their weights must not widen
    /// the Poisson rate.
    pub fn uniformization_rate(&self) -> f64 {
        self.choices
            .iter()
            .enumerate()
            .filter(|&(s, _)| !self.instant[s])
            .flat_map(|(_, cs)| cs.iter().map(ActionChoice::exit_rate))
            .fold(0.0, f64::max)
    }

    /// Propagates values through instant states by Gauss-Seidel until the
    /// fixpoint `v(s) = opt_a [impulse(s,a) + Σ p·v(t)]`. States where
    /// `fixed` holds (targets, tangible states) keep their value. When
    /// `reset` is set, non-fixed instant states restart from 0, yielding the
    /// *least* fixpoint — the sound direction for reachability-style values
    /// (a zero-probability instant cycle stays at 0 instead of retaining a
    /// stale warm-start value).
    ///
    /// Returns [`CtmcError::NoConvergence`] when the fixpoint does not
    /// settle — the Zeno guard: an instant cycle a Max scheduler can spin in
    /// while accumulating impulse reward has no finite value.
    fn solve_instant(
        &self,
        v: &mut [f64],
        fixed: &[bool],
        impulse: Option<&[Vec<f64>]>,
        opt: Opt,
        reset: bool,
    ) -> Result<(), CtmcError> {
        let n = self.num_states();
        let mut any = false;
        for s in 0..n {
            if self.instant[s] && !fixed[s] && !self.choices[s].is_empty() {
                any = true;
                if reset {
                    v[s] = 0.0;
                }
            }
        }
        if !any {
            return Ok(());
        }
        let mut residual = 0.0;
        for _ in 0..INSTANT_MAX_ITERS {
            let mut delta: f64 = 0.0;
            for s in 0..n {
                if !self.instant[s] || fixed[s] || self.choices[s].is_empty() {
                    continue;
                }
                let mut best = opt.unit();
                for (i, c) in self.choices[s].iter().enumerate() {
                    let e = c.exit_rate();
                    let mut acc = impulse.map_or(0.0, |imp| imp[s][i]);
                    for &(t, w) in &c.transitions {
                        acc += (w / e) * v[t];
                    }
                    best = opt.pick(best, acc);
                }
                delta = delta.max((best - v[s]).abs());
                v[s] = best;
            }
            if delta < INSTANT_TOL {
                return Ok(());
            }
            residual = delta;
        }
        Err(CtmcError::NoConvergence {
            what: "CTMDP instant-state fixpoint (Zeno cycle?)",
            iterations: INSTANT_MAX_ITERS,
            residual,
        })
    }

    /// Min/max probability of eventually reaching `targets`, by value
    /// iteration on the embedded MDP.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NoConvergence`] if value iteration does not
    /// converge within `max_iterations`.
    pub fn reach_probability(
        &self,
        targets: &[State],
        opt: Opt,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<Vec<f64>, CtmcError> {
        let n = self.num_states();
        let mut is_target = vec![false; n];
        for &t in targets {
            is_target[t] = true;
        }
        let mut p = vec![0.0f64; n];
        for &t in targets {
            p[t] = 1.0;
        }
        for iter in 0..max_iterations {
            let mut delta: f64 = 0.0;
            for s in 0..n {
                if is_target[s] || self.choices[s].is_empty() {
                    continue;
                }
                let mut best = opt.unit();
                for c in &self.choices[s] {
                    let e = c.exit_rate();
                    let v: f64 = c.transitions.iter().map(|&(t, r)| (r / e) * p[t]).sum();
                    best = opt.pick(best, v);
                }
                delta = delta.max((best - p[s]).abs());
                p[s] = best;
            }
            if delta < tolerance {
                return Ok(p);
            }
            if iter == max_iterations - 1 {
                return Err(CtmcError::NoConvergence {
                    what: "CTMDP reachability value iteration",
                    iterations: max_iterations,
                    residual: delta,
                });
            }
        }
        unreachable!("loop returns")
    }

    /// Min/max expected time to reach `targets`, by value iteration on
    /// `h(s) = opt_a [1/E_a + Σ P_a(s,s')·h(s')]`. States from which a
    /// scheduler can (Min)/must (Max) avoid the target get `∞`. Instant
    /// states contribute zero sojourn time.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NoConvergence`] if value iteration does not
    /// converge within `max_iterations`.
    pub fn expected_time_to_reach(
        &self,
        targets: &[State],
        opt: Opt,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<Vec<f64>, CtmcError> {
        let n = self.num_states();
        let mut is_target = vec![false; n];
        for &t in targets {
            is_target[t] = true;
        }
        // Qualitative pre-pass: under the chosen quantification, which
        // states have reach probability 1? Others get ∞.
        let reach = self.reach_probability(targets, opt, 1e-9, max_iterations)?;
        let mut h: Vec<f64> = (0..n)
            .map(|s| if is_target[s] || reach[s] > 1.0 - 1e-6 { 0.0 } else { f64::INFINITY })
            .collect();
        for iter in 0..max_iterations {
            let mut delta: f64 = 0.0;
            for s in 0..n {
                if is_target[s] || h[s].is_infinite() || self.choices[s].is_empty() {
                    continue;
                }
                let mut best = opt.unit();
                for c in &self.choices[s] {
                    let e = c.exit_rate();
                    let mut v = if self.instant[s] { 0.0 } else { 1.0 / e };
                    for &(t, r) in &c.transitions {
                        if h[t].is_infinite() {
                            v = f64::INFINITY;
                            break;
                        }
                        v += (r / e) * h[t];
                    }
                    best = opt.pick(best, v);
                }
                if best.is_finite() {
                    delta = delta.max((best - h[s]).abs());
                    h[s] = best;
                }
            }
            if delta < tolerance {
                return Ok(h);
            }
            if iter == max_iterations - 1 {
                return Err(CtmcError::NoConvergence {
                    what: "CTMDP expected-time value iteration",
                    iterations: max_iterations,
                    residual: delta,
                });
            }
        }
        unreachable!("loop returns")
    }

    /// Like [`Ctmdp::expected_time_to_reach`], additionally returning the
    /// optimal memoryless policy: for each state, the index of the choice
    /// achieving the bound (`None` for targets, absorbing states, and
    /// states with infinite value).
    ///
    /// # Errors
    ///
    /// Propagates value-iteration convergence failures.
    pub fn optimal_expected_time(
        &self,
        targets: &[State],
        opt: Opt,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<(Vec<f64>, Vec<Option<usize>>), CtmcError> {
        let h = self.expected_time_to_reach(targets, opt, tolerance, max_iterations)?;
        let mut is_target = vec![false; self.num_states()];
        for &t in targets {
            is_target[t] = true;
        }
        let mut policy = vec![None; self.num_states()];
        for s in 0..self.num_states() {
            if is_target[s] || h[s].is_infinite() || self.choices[s].is_empty() {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in self.choices[s].iter().enumerate() {
                let e = c.exit_rate();
                let mut v = if self.instant[s] { 0.0 } else { 1.0 / e };
                for &(t, r) in &c.transitions {
                    if h[t].is_infinite() {
                        v = f64::INFINITY;
                        break;
                    }
                    v += (r / e) * h[t];
                }
                let better = match best {
                    None => true,
                    Some((_, bv)) => match opt {
                        Opt::Min => v < bv,
                        Opt::Max => v > bv,
                    },
                };
                if better {
                    best = Some((i, v));
                }
            }
            policy[s] = best.map(|(i, _)| i);
        }
        Ok((h, policy))
    }

    /// Min/max probability of reaching `targets` *within time bound `t`*,
    /// via uniformization-based value iteration (ε-approximation in the
    /// style of time-bounded CTMDP analysis). Instant states are folded in
    /// by a zero-time fixpoint between Poisson steps.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::Undefined`] for a negative bound and
    /// [`CtmcError::NoConvergence`] when an instant-state cycle does not
    /// settle.
    pub fn timed_reach_probability(
        &self,
        targets: &[State],
        bound: f64,
        opt: Opt,
        epsilon: f64,
    ) -> Result<Vec<f64>, CtmcError> {
        if bound < 0.0 || !bound.is_finite() {
            return Err(CtmcError::Undefined(format!("time bound {bound} must be >= 0")));
        }
        let n = self.num_states();
        let mut is_target = vec![false; n];
        for &s in targets {
            is_target[s] = true;
        }
        let lambda = self.uniformization_rate().max(1e-12) * 1.02;
        let q = lambda * bound;
        // Uniformization with Poisson weights (exact for a single-choice
        // CTMDP, a greedy ε-approximation otherwise, per the uniform-CTMDP
        // algorithm of Baier et al.):
        //   P(reach ≤ t) = Σ_k PoissonPMF(q, k) · r_k(s)
        // where r_k(s) is the optimal probability of reaching the target
        // within k jumps of the uniformized step chain:
        //   r_0 = 1_target,
        //   r_{k+1}(s) = 1 if target, else opt_a [(1-E_a/Λ)·r_k(s) + Σ r/Λ·r_k(s')].
        // Instant states take no Poisson step: after every tangible update
        // (and once at k = 0) their values are the least fixpoint of
        // zero-time propagation toward the tangible/target frontier.
        let mut r: Vec<f64> = (0..n).map(|s| if is_target[s] { 1.0 } else { 0.0 }).collect();
        self.solve_instant(&mut r, &is_target, None, opt, true)?;
        let mut result = vec![0.0f64; n];
        let mut w = (-q).exp();
        let scaled = w == 0.0;
        if scaled {
            w = f64::MIN_POSITIVE * 1e16;
        }
        let mut weight_sum = 0.0;
        let mut covered = 0.0;
        let mut k = 0usize;
        let max_terms = (q + 10.0 * q.sqrt() + 50.0 + 10.0 / epsilon.max(1e-15)) as usize;
        loop {
            for s in 0..n {
                result[s] += w * r[s];
            }
            weight_sum += w;
            if !scaled {
                covered += w;
                if covered >= 1.0 - epsilon {
                    break;
                }
            } else if (k as f64) > q && w < weight_sum * epsilon {
                break;
            }
            k += 1;
            if k > max_terms {
                break;
            }
            // r ← one optimal step of the uniformized chain (tangible states
            // only), then re-propagate through the instant layer.
            let mut next = r.clone();
            for s in 0..n {
                if is_target[s] || self.instant[s] || self.choices[s].is_empty() {
                    continue;
                }
                let mut best = opt.unit();
                for c in &self.choices[s] {
                    let e = c.exit_rate();
                    let mut acc = (1.0 - e / lambda) * r[s];
                    for &(t, rate) in &c.transitions {
                        acc += (rate / lambda) * r[t];
                    }
                    best = opt.pick(best, acc);
                }
                next[s] = best;
            }
            self.solve_instant(&mut next, &is_target, None, opt, true)?;
            r = next;
            w *= q / k as f64;
            if w > 1e280 {
                for x in result.iter_mut() {
                    *x /= 1e280;
                }
                weight_sum /= 1e280;
                w /= 1e280;
            }
        }
        if scaled && weight_sum > 0.0 {
            for x in result.iter_mut() {
                *x /= weight_sum;
            }
        } else {
            // Account for the truncated tail by leaving result as the
            // partial sum (an under-approximation within ε).
        }
        Ok(result)
    }

    /// Min/max *long-run average reward* over all schedulers, by policy
    /// iteration over GTH elimination ([`crate::gth`]).
    ///
    /// `rate_reward[s]` accrues per unit of time spent in `s` (occupancy
    /// measures); `impulse[s][a]` is earned per transition taken from `s`
    /// under choice `a` (throughput measures — for a tangible choice the
    /// reward rate is `E_a · impulse`, for an instant choice it is earned at
    /// each zero-time traversal).
    ///
    /// Each memoryless policy is evaluated exactly: its induced chain is
    /// eliminated down to one reference state per closed class, with
    /// tangible rates and instant-state probability weights entering the
    /// elimination alike and the reward and the sojourn time of every state
    /// folded along as right-hand sides (instant states add impulse but no
    /// time). A class's gain is the reward accumulated at its reference over
    /// the time accumulated there, and the bias comes from back
    /// substitution. Improvement starts from choice 0 everywhere and
    /// switches a state's choice only when its one-step value (a Bellman
    /// backup on the chain uniformized at `Λ = 1.02 · max tangible exit
    /// rate`) improves by more than `tolerance`; `max_iterations` caps the
    /// number of policies evaluated. A chain whose elimination would
    /// over-fill is solved instead by relative value iteration on the
    /// uniformized chain (span-seminorm stopping), where `tolerance` bounds
    /// the span and `max_iterations` the sweeps.
    ///
    /// The model is assumed unichain under every scheduler (every memoryless
    /// policy yields one recurrent class — true for the lumped ergodic
    /// chains of the case studies); several closed classes are accepted
    /// when their gains agree to `tolerance` (relative).
    ///
    /// # Errors
    ///
    /// [`CtmcError::Undefined`] when no tangible Markovian choice exists
    /// (time never advances). [`CtmcError::NoConvergence`] when a policy
    /// has closed classes with unequal gains (multichain), a closed class
    /// that takes no time (a Zeno cycle of instant states), or when the
    /// iteration cap is overrun.
    ///
    /// # Panics
    ///
    /// Panics if `rate_reward` or `impulse` are not shaped like the state
    /// and choice vectors.
    ///
    /// # Examples
    ///
    /// ```
    /// use multival_ctmc::mdp::{ActionChoice, Ctmdp, Opt};
    ///
    /// // Flip-flop where the scheduler picks the 0→1 rate from {1, 2}:
    /// // occupancy of state 0 is (1/E)/(1/E + 1) → bounds [1/3, 1/2].
    /// let mut m = Ctmdp::new(2);
    /// m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 2.0)] });
    /// m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
    /// m.add_choice(1, ActionChoice { name: None, transitions: vec![(0, 1.0)] });
    /// let occ = [1.0, 0.0];
    /// let lo = m.long_run_average(&occ, None, Opt::Min, 1e-12, 100_000).unwrap();
    /// let hi = m.long_run_average(&occ, None, Opt::Max, 1e-12, 100_000).unwrap();
    /// assert!((lo - 1.0 / 3.0).abs() < 1e-9);
    /// assert!((hi - 0.5).abs() < 1e-9);
    /// ```
    pub fn long_run_average(
        &self,
        rate_reward: &[f64],
        impulse: Option<&[Vec<f64>]>,
        opt: Opt,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<f64, CtmcError> {
        let n = self.num_states();
        assert_eq!(rate_reward.len(), n, "rate_reward must have one entry per state");
        if let Some(imp) = impulse {
            assert_eq!(imp.len(), n, "impulse must have one row per state");
            for (s, row) in imp.iter().enumerate() {
                assert_eq!(row.len(), self.choices[s].len(), "impulse arity mismatch at {s}");
            }
        }
        let lambda = self.uniformization_rate() * 1.02;
        if lambda <= 0.0 {
            return Err(CtmcError::Undefined(
                "long-run average needs at least one tangible Markovian choice".to_owned(),
            ));
        }
        let reward = Reward { rate: rate_reward, impulse };
        match self.policy_iteration(&reward, opt, lambda, tolerance, max_iterations) {
            Ok(solved) => solved,
            Err(Overfill { .. }) => {
                self.relative_value_iteration(&reward, opt, lambda, tolerance, max_iterations)
            }
        }
    }

    /// Policy iteration for [`Ctmdp::long_run_average`]; `Err` when a
    /// policy's elimination would over-fill.
    fn policy_iteration(
        &self,
        reward: &Reward<'_>,
        opt: Opt,
        lambda: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<Result<f64, CtmcError>, Overfill> {
        let n = self.num_states();
        let mut policy = vec![0usize; n];
        let mut gth = Gth::default();
        let mut rhs = Vec::new();
        let mut h = vec![0.0; n];
        let mut residual = f64::INFINITY;
        for iteration in 1..=max_iterations {
            let evaluated =
                self.evaluate_policy(&policy, reward, &mut gth, &mut rhs, tolerance, iteration)?;
            let g = match evaluated {
                Ok(g) => g,
                Err(e) => return Ok(Err(e)),
            };
            // RHS of the bias equations: reward minus gain × time, as folded.
            gth.back_substitute(|k| rhs[2 * k] - g * rhs[2 * k + 1], &mut h);
            residual = 0.0;
            let mut improved = false;
            for (s, chosen) in policy.iter_mut().enumerate() {
                if self.choices[s].len() < 2 {
                    continue;
                }
                let value = |a: usize| self.one_step(s, a, reward, g, lambda, &h);
                let current = value(*chosen);
                let mut best = (*chosen, current);
                for a in 0..self.choices[s].len() {
                    let v = value(a);
                    let better = match opt {
                        Opt::Min => v < best.1,
                        Opt::Max => v > best.1,
                    };
                    if better {
                        best = (a, v);
                    }
                }
                let gap = (best.1 - current).abs();
                if gap > tolerance {
                    *chosen = best.0;
                    improved = true;
                    residual = residual.max(gap);
                }
            }
            if !improved {
                return Ok(Ok(g));
            }
        }
        Ok(Err(CtmcError::NoConvergence {
            what: "CTMDP long-run policy iteration",
            iterations: max_iterations,
            residual,
        }))
    }

    /// Gain of one memoryless policy (the `iteration`-th evaluated),
    /// leaving its elimination in `gth` and the folded (reward, time) pair
    /// of each state in `rhs`.
    fn evaluate_policy(
        &self,
        policy: &[usize],
        reward: &Reward<'_>,
        gth: &mut Gth,
        rhs: &mut Vec<f64>,
        tolerance: f64,
        iteration: usize,
    ) -> Result<Result<f64, CtmcError>, Overfill> {
        let n = self.num_states();
        gth.reset(n);
        rhs.clear();
        rhs.resize(2 * n, 0.0);
        for s in 0..n {
            let tangible = !self.instant[s];
            // Row weights are rates (tangible) or probability weights
            // (instant); the reward and time of a visit are scaled by the
            // row's total weight, as the elimination expects.
            let (reward_weight, time_weight) = match self.choices[s].get(policy[s]) {
                // Absorbing: a closed class of its own.
                None if tangible => (reward.rate[s], 1.0),
                None => (0.0, 0.0),
                Some(c) => {
                    gth.add_row(s, c.transitions.iter().copied());
                    let jumps = c.exit_rate() * reward.impulse_of(s, policy[s]);
                    if tangible {
                        (reward.rate[s] + jumps, 1.0)
                    } else {
                        (jumps, 0.0)
                    }
                }
            };
            rhs[2 * s] = reward_weight;
            rhs[2 * s + 1] = time_weight;
        }
        gth.eliminate(rhs, 2)?;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &r in gth.roots() {
            let (reward_sum, time_sum) = (rhs[2 * r as usize], rhs[2 * r as usize + 1]);
            if time_sum <= 0.0 {
                return Ok(Err(CtmcError::NoConvergence {
                    what: "CTMDP policy evaluation: a closed class takes no time (Zeno cycle?)",
                    iterations: iteration,
                    residual: reward_sum,
                }));
            }
            let g = reward_sum / time_sum;
            lo = lo.min(g);
            hi = hi.max(g);
        }
        if hi - lo > tolerance * lo.abs().max(hi.abs()).max(1.0) {
            return Ok(Err(CtmcError::NoConvergence {
                what: "CTMDP policy evaluation: closed classes with unequal gains (multichain)",
                iterations: iteration,
                residual: hi - lo,
            }));
        }
        Ok(Ok((lo + hi) / 2.0))
    }

    /// One-step value of choice `a` at `s` against gain `g` and bias `h`:
    /// the uniformized Bellman backup minus `h(s)` for a tangible state,
    /// the zero-time backup for an instant one.
    fn one_step(
        &self,
        s: State,
        a: usize,
        reward: &Reward<'_>,
        g: f64,
        lambda: f64,
        h: &[f64],
    ) -> f64 {
        let c = &self.choices[s][a];
        let e = c.exit_rate();
        let impulse = reward.impulse_of(s, a);
        if self.instant[s] {
            impulse + c.transitions.iter().map(|&(t, w)| (w / e) * h[t]).sum::<f64>()
        } else {
            let drift: f64 = c.transitions.iter().map(|&(t, r)| r * (h[t] - h[s])).sum();
            (reward.rate[s] + e * impulse - g + drift) / lambda
        }
    }

    /// Relative value iteration on the uniformized chain: the bail-out of
    /// [`Ctmdp::long_run_average`] for models whose elimination would
    /// over-fill.
    fn relative_value_iteration(
        &self,
        reward: &Reward<'_>,
        opt: Opt,
        lambda: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<f64, CtmcError> {
        let n = self.num_states();
        let (rate_reward, impulse) = (reward.rate, reward.impulse);
        let tangible: Vec<State> = (0..n).filter(|&s| !self.instant[s]).collect();
        let fixed: Vec<bool> = (0..n).map(|s| !self.instant[s]).collect();
        let mut h = vec![0.0f64; n];
        self.solve_instant(&mut h, &fixed, impulse, opt, false)?;
        let mut new_h = h.clone();
        let mut span = f64::INFINITY;
        for iter in 0..max_iterations {
            // One Jacobi sweep over tangible states; instant successors carry
            // the values of the previous instant fixpoint, so a tangible →
            // instant → tangible path contributes consistently.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &s in &tangible {
                let v = if self.choices[s].is_empty() {
                    // Absorbing tangible state: drifts at its own reward
                    // rate. If that differs from the rest, the span below
                    // never closes and the honest answer is NoConvergence.
                    rate_reward[s] / lambda + h[s]
                } else {
                    let mut best = opt.unit();
                    for (i, c) in self.choices[s].iter().enumerate() {
                        let e = c.exit_rate();
                        let mut acc = rate_reward[s] / lambda
                            + (e / lambda) * impulse.map_or(0.0, |imp| imp[s][i])
                            + (1.0 - e / lambda) * h[s];
                        for &(t, r) in &c.transitions {
                            acc += (r / lambda) * h[t];
                        }
                        best = opt.pick(best, acc);
                    }
                    best
                };
                new_h[s] = v;
                let d = v - h[s];
                lo = lo.min(d);
                hi = hi.max(d);
            }
            span = hi - lo;
            if span < tolerance {
                // Every tangible state gains the same amount per uniformized
                // step: the common drift is g/Λ.
                return Ok(lambda * (hi + lo) / 2.0);
            }
            // Commit, pin the first tangible state to 0 to stop the drift
            // from overflowing h, and refresh the instant layer.
            let reference = new_h[tangible[0]];
            for s in 0..n {
                h[s] = if self.instant[s] { h[s] - reference } else { new_h[s] - reference };
            }
            self.solve_instant(&mut h, &fixed, impulse, opt, false)?;
            if iter == max_iterations - 1 {
                break;
            }
        }
        Err(CtmcError::NoConvergence {
            what: "CTMDP long-run relative value iteration",
            iterations: max_iterations,
            residual: span,
        })
    }
}

/// The reward structure of a long-run query.
struct Reward<'a> {
    rate: &'a [f64],
    impulse: Option<&'a [Vec<f64>]>,
}

impl Reward<'_> {
    fn impulse_of(&self, s: State, a: usize) -> f64 {
        self.impulse.map_or(0.0, |imp| imp[s][a])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race() -> Ctmdp {
        // 0 --fast(4)--> 2 or 0 --slow(1)--> 1 --(1)--> 2
        let mut m = Ctmdp::new(3);
        m.add_choice(0, ActionChoice { name: Some("fast".into()), transitions: vec![(2, 4.0)] });
        m.add_choice(0, ActionChoice { name: Some("slow".into()), transitions: vec![(1, 1.0)] });
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
        m
    }

    #[test]
    fn expected_time_bounds() {
        let m = race();
        let best = m.expected_time_to_reach(&[2], Opt::Min, 1e-12, 100_000).unwrap();
        let worst = m.expected_time_to_reach(&[2], Opt::Max, 1e-12, 100_000).unwrap();
        assert!((best[0] - 0.25).abs() < 1e-9);
        assert!((worst[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reach_probability_with_trap() {
        // 0 can choose: to target (rate 1) or to a trap (rate 1).
        let mut m = Ctmdp::new(3);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
        let pmax = m.reach_probability(&[1], Opt::Max, 1e-12, 10_000).unwrap();
        let pmin = m.reach_probability(&[1], Opt::Min, 1e-12, 10_000).unwrap();
        assert!((pmax[0] - 1.0).abs() < 1e-9);
        assert!(pmin[0].abs() < 1e-9);
    }

    #[test]
    fn min_expected_time_infinite_when_avoidable() {
        let mut m = Ctmdp::new(3);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
        // Min scheduler avoids the target entirely → infinite.
        let h = m.expected_time_to_reach(&[1], Opt::Min, 1e-12, 10_000).unwrap();
        assert!(h[0].is_infinite());
    }

    #[test]
    fn single_choice_reduces_to_ctmc() {
        // Deterministic chain: CTMDP bounds coincide with CTMC values.
        let mut m = Ctmdp::new(3);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 2.0)] });
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 2.0)] });
        let lo = m.expected_time_to_reach(&[2], Opt::Min, 1e-12, 10_000).unwrap();
        let hi = m.expected_time_to_reach(&[2], Opt::Max, 1e-12, 10_000).unwrap();
        assert!((lo[0] - 1.0).abs() < 1e-9);
        assert!((hi[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_policy_picks_the_fast_branch() {
        let m = race();
        let (h, policy) = m.optimal_expected_time(&[2], Opt::Min, 1e-12, 100_000).expect("vi");
        assert!((h[0] - 0.25).abs() < 1e-9);
        // Choice 0 is "fast": the min policy must select it at state 0.
        assert_eq!(policy[0], Some(0));
        assert_eq!(policy[2], None, "target has no policy entry");
        let (_, worst) = m.optimal_expected_time(&[2], Opt::Max, 1e-12, 100_000).expect("vi");
        assert_eq!(worst[0], Some(1), "the max policy takes the slow route");
    }

    #[test]
    fn timed_reachability_brackets_exponential() {
        // Single exponential rate 1: P(T ≤ 1) = 1 - 1/e ≈ 0.632.
        let mut m = Ctmdp::new(2);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        let v = m.timed_reach_probability(&[1], 1.0, Opt::Max, 1e-9).unwrap();
        assert!((v[0] - 0.6321).abs() < 0.01, "got {}", v[0]);
    }

    #[test]
    fn timed_bounds_ordered() {
        let m = race();
        let lo = m.timed_reach_probability(&[2], 0.5, Opt::Min, 1e-9).unwrap();
        let hi = m.timed_reach_probability(&[2], 0.5, Opt::Max, 1e-9).unwrap();
        assert!(lo[0] <= hi[0] + 1e-12);
        assert!(hi[0] > lo[0] + 0.1, "choices should matter: {lo:?} {hi:?}");
    }

    /// 0 --(rate 2)--> [instant 1] --(prob 1)--> 2: the instant hop is
    /// invisible in every time-dependent measure.
    fn instant_relay() -> Ctmdp {
        let mut m = Ctmdp::new(3);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 2.0)] });
        m.set_instant(1);
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
        m
    }

    #[test]
    fn instant_state_adds_no_time() {
        let m = instant_relay();
        for opt in [Opt::Min, Opt::Max] {
            let h = m.expected_time_to_reach(&[2], opt, 1e-12, 10_000).unwrap();
            assert!((h[0] - 0.5).abs() < 1e-9, "{opt:?}: {}", h[0]);
            assert!(h[1].abs() < 1e-9, "instant state itself takes no time");
            let p = m.timed_reach_probability(&[2], 1.0, opt, 1e-9).unwrap();
            let want = 1.0 - (-2.0f64).exp();
            assert!((p[0] - want).abs() < 1e-4, "{opt:?}: {} vs {want}", p[0]);
        }
    }

    #[test]
    fn instant_choice_splits_expected_time() {
        // [instant 0] picks the rate-4 or the rate-1 branch to 2.
        let mut m = Ctmdp::new(4);
        m.set_instant(0);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(3, 1.0)] });
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 4.0)] });
        m.add_choice(3, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
        let lo = m.expected_time_to_reach(&[2], Opt::Min, 1e-12, 10_000).unwrap();
        let hi = m.expected_time_to_reach(&[2], Opt::Max, 1e-12, 10_000).unwrap();
        assert!((lo[0] - 0.25).abs() < 1e-9);
        assert!((hi[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn long_run_occupancy_bounds() {
        // Doc example, plus: a single-choice model must collapse to the
        // CTMC steady-state answer on both sides.
        let mut m = Ctmdp::new(2);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 2.0)] });
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(0, 1.0)] });
        let occ = [1.0, 0.0];
        let lo = m.long_run_average(&occ, None, Opt::Min, 1e-12, 100_000).unwrap();
        let hi = m.long_run_average(&occ, None, Opt::Max, 1e-12, 100_000).unwrap();
        assert!((lo - 1.0 / 3.0).abs() < 1e-9, "{lo}");
        assert!((hi - 1.0 / 3.0).abs() < 1e-9, "{hi}");
    }

    #[test]
    fn long_run_impulse_is_throughput() {
        // Flip-flop rates (2, 1); impulse 1 on the 1→0 jump: the long-run
        // rate of that jump is π₁·1 = 2/3.
        let mut m = Ctmdp::new(2);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 2.0)] });
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(0, 1.0)] });
        let imp = vec![vec![0.0], vec![1.0]];
        let rr = [0.0, 0.0];
        for opt in [Opt::Min, Opt::Max] {
            let g = m.long_run_average(&rr, Some(&imp), opt, 1e-12, 100_000).unwrap();
            assert!((g - 2.0 / 3.0).abs() < 1e-9, "{opt:?}: {g}");
        }
    }

    #[test]
    fn long_run_bounds_with_instant_arbitration() {
        // Tangible 0 --(rate 1)--> [instant 1] which routes to a fast
        // (rate 4) or slow (rate 1) server back to 0. Cycle time is
        // 1 + 1/rate, and the impulse on the server completion counts
        // round trips: bounds are [1/(1+1), 1/(1+1/4)] = [0.5, 0.8].
        let mut m = Ctmdp::new(4);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.set_instant(1);
        m.add_choice(1, ActionChoice { name: Some("fast".into()), transitions: vec![(2, 1.0)] });
        m.add_choice(1, ActionChoice { name: Some("slow".into()), transitions: vec![(3, 1.0)] });
        m.add_choice(2, ActionChoice { name: None, transitions: vec![(0, 4.0)] });
        m.add_choice(3, ActionChoice { name: None, transitions: vec![(0, 1.0)] });
        let imp = vec![vec![0.0], vec![0.0, 0.0], vec![1.0], vec![1.0]];
        let rr = [0.0; 4];
        let lo = m.long_run_average(&rr, Some(&imp), Opt::Min, 1e-12, 100_000).unwrap();
        let hi = m.long_run_average(&rr, Some(&imp), Opt::Max, 1e-12, 100_000).unwrap();
        assert!((lo - 0.5).abs() < 1e-9, "{lo}");
        assert!((hi - 0.8).abs() < 1e-9, "{hi}");
    }

    #[test]
    fn zeno_cycle_is_caught() {
        // Two instant states spinning on each other with impulse reward:
        // a Max scheduler accumulates unbounded reward in zero time. The
        // solver must refuse rather than loop or return garbage.
        let mut m = Ctmdp::new(3);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.set_instant(1);
        m.set_instant(2);
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 1.0)] });
        m.add_choice(2, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        let imp = vec![vec![0.0], vec![1.0], vec![1.0]];
        let rr = [0.0; 3];
        let err = m.long_run_average(&rr, Some(&imp), Opt::Max, 1e-9, 10_000);
        assert!(
            matches!(err, Err(CtmcError::NoConvergence { .. })),
            "Zeno cycle must not converge: {err:?}"
        );
    }

    /// Two disjoint flip-flops, each with a choice of rates: states 0–1
    /// with 0→1 at rate 1 or 4, and 2–3 with 2→3 at rate 3 or 12 (1→0 at 1,
    /// 3→2 at 3). Occupancy of {0, 2} is 1/2 for the slow choices and 1/5
    /// for the fast ones in both classes.
    fn twin_flip_flops() -> Ctmdp {
        let mut m = Ctmdp::new(4);
        for (a, b, slow) in [(0, 1, 1.0), (2, 3, 3.0)] {
            m.add_choice(a, ActionChoice { name: None, transitions: vec![(b, slow)] });
            m.add_choice(a, ActionChoice { name: None, transitions: vec![(b, 4.0 * slow)] });
            m.add_choice(b, ActionChoice { name: None, transitions: vec![(a, slow)] });
        }
        m
    }

    #[test]
    fn closed_classes_with_equal_gains_solve() {
        let m = twin_flip_flops();
        let occ = [1.0, 0.0, 1.0, 0.0];
        let lo = m.long_run_average(&occ, None, Opt::Min, 1e-12, 100).unwrap();
        let hi = m.long_run_average(&occ, None, Opt::Max, 1e-12, 100).unwrap();
        assert!((lo - 0.2).abs() < 1e-12, "{lo}");
        assert!((hi - 0.5).abs() < 1e-12, "{hi}");
    }

    #[test]
    fn closed_classes_with_unequal_gains_are_refused() {
        // Only the first class's state 0 counts: the classes' gains differ.
        let m = twin_flip_flops();
        let occ = [1.0, 0.0, 0.0, 0.0];
        for opt in [Opt::Min, Opt::Max] {
            match m.long_run_average(&occ, None, opt, 1e-12, 100) {
                Err(CtmcError::NoConvergence { what, residual, .. }) => {
                    assert!(what.contains("unequal gains"), "{what}");
                    assert!(residual > 0.1, "the gain gap is reported: {residual}");
                }
                other => panic!("{opt:?}: a multichain answer must be refused: {other:?}"),
            }
        }
    }

    #[test]
    fn policy_iteration_cap_overrun_is_refused() {
        // The doc example: the max policy needs one switch, so one
        // evaluation is not enough and two are.
        let mut m = Ctmdp::new(2);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 2.0)] });
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(0, 1.0)] });
        let occ = [1.0, 0.0];
        let err = m.long_run_average(&occ, None, Opt::Max, 1e-12, 1);
        assert!(
            matches!(err, Err(CtmcError::NoConvergence { iterations: 1, .. })),
            "one evaluation cannot finish: {err:?}"
        );
        let hi = m.long_run_average(&occ, None, Opt::Max, 1e-12, 2).unwrap();
        assert!((hi - 0.5).abs() < 1e-12, "{hi}");
    }

    #[test]
    fn absorbing_tangible_state_gains_its_reward_rate() {
        // 0 → 1 (rate 1), and 1 absorbs: the long-run occupancy of 1 is 1.
        let mut m = Ctmdp::new(2);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        let g = m.long_run_average(&[0.0, 1.0], None, Opt::Max, 1e-12, 100).unwrap();
        assert!((g - 1.0).abs() < 1e-15, "{g}");
    }

    #[test]
    fn instant_cycle_with_escape_converges() {
        // Instant 1 can re-enter itself via 2 or escape to tangible 3;
        // uniform-style resolutions escape with probability 1, and the
        // bounds stay finite because impulses are only on the escape.
        let mut m = Ctmdp::new(4);
        m.add_choice(0, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.set_instant(1);
        m.set_instant(2);
        m.add_choice(1, ActionChoice { name: None, transitions: vec![(2, 1.0), (3, 1.0)] });
        m.add_choice(2, ActionChoice { name: None, transitions: vec![(1, 1.0)] });
        m.add_choice(3, ActionChoice { name: None, transitions: vec![(0, 2.0)] });
        for opt in [Opt::Min, Opt::Max] {
            let h = m.expected_time_to_reach(&[3], opt, 1e-12, 100_000).unwrap();
            assert!((h[0] - 1.0).abs() < 1e-9, "{opt:?}: {}", h[0]);
        }
    }
}
