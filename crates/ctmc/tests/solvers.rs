//! Differential solver suite: the sparse production solvers against
//! independent oracles on seeded random inputs.
//!
//! * `steady_state` (GTH elimination per BSCC) against the dense direct
//!   solver `dense::steady_state_dense` on random irreducible chains,
//!   reducible chains with several BSCCs, and stiff Erlang rings;
//! * `Ctmdp::long_run_average` (policy iteration) against the brute-force
//!   min/max over every deterministic memoryless policy, each solved
//!   densely;
//! * a chain whose elimination fills in heavily (a random 4-regular
//!   graph): the elimination must refuse at its fill bound, and the
//!   iterative bail-outs must still match the dense oracle.
//!
//! Every input is drawn from a splitmix64 stream, so a failing seed
//! reproduces exactly.

use multival_ctmc::dense::steady_state_dense;
use multival_ctmc::gth::Gth;
use multival_ctmc::mdp::{ActionChoice, Ctmdp, Opt};
use multival_ctmc::steady::{steady_state, SolveOptions};
use multival_ctmc::{Ctmc, CtmcBuilder};

/// splitmix64: one `u64` seed expands into a whole random model.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi]`.
    fn rate(&mut self, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(self.unit())
    }
}

fn assert_matches_dense(ctmc: &Ctmc, what: &str) {
    let opts = SolveOptions::default();
    let sparse = steady_state(ctmc, &opts).unwrap_or_else(|e| panic!("{what}: sparse: {e}"));
    let dense = steady_state_dense(ctmc, &opts).unwrap_or_else(|e| panic!("{what}: dense: {e}"));
    for (s, (a, b)) in sparse.iter().zip(&dense).enumerate() {
        assert!((a - b).abs() < 1e-9, "{what}: state {s}: sparse {a} vs dense {b}");
    }
    let total: f64 = sparse.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "{what}: mass {total}");
}

/// A random irreducible chain: a ring through every state plus random
/// chords, rates log-uniform over four decades.
fn irreducible(rng: &mut Mix, n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new(n);
    for s in 0..n {
        b.rate(s, (s + 1) % n, rng.rate(1e-2, 1e2)).expect("rate");
        for _ in 0..rng.below(4) {
            b.rate(s, rng.below(n), rng.rate(1e-2, 1e2)).expect("rate");
        }
    }
    b.build().expect("chain")
}

#[test]
fn random_irreducible_chains_match_dense() {
    for seed in 0..64 {
        let mut rng = Mix(seed);
        let n = 2 + rng.below(39);
        assert_matches_dense(&irreducible(&mut rng, n), &format!("seed {seed}, {n} states"));
    }
}

/// A random reducible chain: several closed classes (some single
/// absorbing states), transient states feeding them and each other, and
/// an initial distribution spread over transient and recurrent states.
fn reducible(rng: &mut Mix) -> Ctmc {
    let classes = 2 + rng.below(3);
    let mut sizes: Vec<usize> = (0..classes).map(|_| 1 + rng.below(6)).collect();
    let transient = 1 + rng.below(8);
    sizes.push(transient);
    let n: usize = sizes.iter().sum();
    let mut b = CtmcBuilder::new(n);
    let mut start = 0;
    for &size in &sizes[..classes] {
        for i in 0..size {
            if size > 1 {
                b.rate(start + i, start + (i + 1) % size, rng.rate(1e-1, 1e1)).expect("rate");
                b.rate(start + i, start + rng.below(size), rng.rate(1e-1, 1e1)).expect("rate");
            }
        }
        start += size;
    }
    // Transient states: each exits to some class, and may also move to
    // other transient states (cycles among them included).
    for t in start..n {
        b.rate(t, rng.below(start), rng.rate(1e-1, 1e1)).expect("rate");
        for _ in 0..rng.below(3) {
            b.rate(t, start + rng.below(transient), rng.rate(1e-1, 1e1)).expect("rate");
        }
    }
    let picks: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(n)).collect();
    let mut initial: Vec<(usize, f64)> = Vec::new();
    for s in picks {
        if !initial.iter().any(|&(t, _)| t == s) {
            initial.push((s, 0.0));
        }
    }
    let weights: Vec<f64> = initial.iter().map(|_| 0.1 + rng.unit()).collect();
    let z: f64 = weights.iter().sum();
    for ((_, p), w) in initial.iter_mut().zip(weights) {
        *p = w / z;
    }
    b.set_initial(initial).expect("initial");
    b.build().expect("chain")
}

#[test]
fn reducible_chains_with_several_bsccs_match_dense() {
    for seed in 0..64 {
        let mut rng = Mix(1_000 + seed);
        assert_matches_dense(&reducible(&mut rng), &format!("seed {seed}"));
    }
}

/// A stiff ring: an idle state (rate 1 out) feeds one of two Erlang-k
/// service ladders whose phases run `ratio` times faster, then a slow
/// repair state closes the ring.
fn erlang_ring(k: usize, ratio: f64, split: f64) -> Ctmc {
    let n = 2 + 2 * k;
    let (idle, repair) = (0, n - 1);
    let mut b = CtmcBuilder::new(n);
    for (ladder, weight) in [(0, split), (1, 1.0 - split)] {
        let first = 1 + ladder * k;
        b.rate(idle, first, weight).expect("rate");
        let phase = k as f64 * ratio * (1.0 + ladder as f64);
        for i in 0..k {
            let next = if i + 1 < k { first + i + 1 } else { repair };
            b.rate(first + i, next, phase).expect("rate");
        }
    }
    b.rate(repair, idle, 0.5).expect("rate");
    b.build().expect("chain")
}

#[test]
fn stiff_erlang_rings_match_dense() {
    let mut rng = Mix(7);
    for k in [1, 2, 8, 16, 42, 64] {
        for ratio in [1e3, 1e4, 1e6] {
            let split = 0.05 + 0.9 * rng.unit();
            assert_matches_dense(&erlang_ring(k, ratio, split), &format!("k={k}, ratio={ratio:e}"));
        }
    }
}

/// A random tangible-only CTMDP whose every policy is unichain: every
/// choice of every state has a transition to state 0.
fn unichain_ctmdp(rng: &mut Mix) -> (Ctmdp, Vec<f64>, Vec<Vec<f64>>) {
    let n = 1 + rng.below(6);
    let mut m = Ctmdp::new(n);
    let mut impulse = Vec::new();
    for s in 0..n {
        let mut row = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut transitions = vec![(0, rng.rate(1e-1, 1e1))];
            for _ in 0..rng.below(3) {
                transitions.push((rng.below(n), rng.rate(1e-1, 1e1)));
            }
            if s == 0 && transitions.iter().all(|&(t, _)| t == 0) && n > 1 {
                transitions.push((1 + rng.below(n - 1), rng.rate(1e-1, 1e1)));
            }
            m.add_choice(s, ActionChoice { name: None, transitions });
            row.push(2.0 * rng.unit());
        }
        impulse.push(row);
    }
    let rate_reward = (0..n).map(|_| rng.unit()).collect();
    (m, rate_reward, impulse)
}

/// The gain of one deterministic policy, through the dense oracle.
fn policy_gain(m: &Ctmdp, policy: &[usize], rate_reward: &[f64], impulse: &[Vec<f64>]) -> f64 {
    let n = m.num_states();
    let mut b = CtmcBuilder::new(n);
    for (s, &a) in policy.iter().enumerate() {
        for &(t, r) in &m.choices(s)[a].transitions {
            b.rate(s, t, r).expect("rate");
        }
    }
    let pi =
        steady_state_dense(&b.build().expect("chain"), &SolveOptions::default()).expect("dense");
    (0..n)
        .map(|s| {
            let c = &m.choices(s)[policy[s]];
            pi[s] * (rate_reward[s] + c.exit_rate() * impulse[s][policy[s]])
        })
        .sum()
}

/// Min and max gain over every deterministic memoryless policy.
fn brute_force(m: &Ctmdp, rate_reward: &[f64], impulse: &[Vec<f64>]) -> (f64, f64) {
    let n = m.num_states();
    let mut policy = vec![0; n];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    loop {
        let g = policy_gain(m, &policy, rate_reward, impulse);
        lo = lo.min(g);
        hi = hi.max(g);
        // Next policy in mixed-radix order.
        let mut s = 0;
        while s < n {
            policy[s] += 1;
            if policy[s] < m.choices(s).len() {
                break;
            }
            policy[s] = 0;
            s += 1;
        }
        if s == n {
            return (lo, hi);
        }
    }
}

#[test]
fn policy_iteration_matches_brute_force_over_policies() {
    for seed in 0..96 {
        let mut rng = Mix(5_000 + seed);
        let (m, rate_reward, impulse) = unichain_ctmdp(&mut rng);
        let (lo, hi) = brute_force(&m, &rate_reward, &impulse);
        for (opt, want) in [(Opt::Min, lo), (Opt::Max, hi)] {
            let got = m
                .long_run_average(&rate_reward, Some(&impulse), opt, 1e-12, 10_000)
                .unwrap_or_else(|e| panic!("seed {seed} {opt:?}: {e}"));
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "seed {seed} {opt:?}: policy iteration {got} vs brute force {want}"
            );
        }
    }
}

/// A random sparse 4-regular graph (two random permutations and their
/// inverses) with random rates: an expander, so eliminating it fills in
/// almost densely.
fn four_regular(rng: &mut Mix, n: usize) -> Vec<(usize, usize, f64)> {
    let mut edges = Vec::new();
    for _ in 0..2 {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        for (s, &t) in perm.iter().enumerate() {
            if s != t {
                edges.push((s, t, rng.rate(0.5, 2.0)));
                edges.push((t, s, rng.rate(0.5, 2.0)));
            }
        }
    }
    edges
}

/// States of the heavy-fill graph: enough for its elimination to exceed
/// the fill bound, small enough for the dense oracle.
const HEAVY: usize = 800;

#[test]
fn heavy_fill_takes_the_bail_out_and_still_matches_dense() {
    let mut rng = Mix(42);
    let edges = four_regular(&mut rng, HEAVY);
    let mut gth = Gth::default();
    gth.reset(HEAVY);
    for s in 0..HEAVY {
        gth.add_row(s, edges.iter().filter(|e| e.0 == s).map(|&(_, t, w)| (t, w)));
    }
    let bound = gth.bound();
    let refused = gth.eliminate(&mut [], 0).expect_err("an expander over-fills");
    assert_eq!(refused.bound, bound);
    assert!(refused.fill <= bound, "fill {} past the bound {bound}", refused.fill);
    assert_eq!(gth.fill(), refused.fill, "the refusal comes before the growth");

    // The steady-state solver bails out to power iteration.
    let mut b = CtmcBuilder::new(HEAVY);
    for &(s, t, r) in &edges {
        b.rate(s, t, r).expect("rate");
    }
    let ctmc = b.build().expect("chain");
    assert_matches_dense(&ctmc, "4-regular");

    // So does the CTMDP solver, to relative value iteration.
    let mut m = Ctmdp::new(HEAVY);
    for s in 0..HEAVY {
        let transitions = edges.iter().filter(|e| e.0 == s).map(|&(_, t, r)| (t, r)).collect();
        m.add_choice(s, ActionChoice { name: None, transitions });
    }
    let occupancy: Vec<f64> = (0..HEAVY).map(|s| if s % 3 == 0 { 1.0 } else { 0.0 }).collect();
    let pi = steady_state_dense(&ctmc, &SolveOptions::default()).expect("dense");
    let want: f64 = pi.iter().zip(&occupancy).map(|(p, r)| p * r).sum();
    for opt in [Opt::Min, Opt::Max] {
        let got = m.long_run_average(&occupancy, None, opt, 1e-12, 100_000).expect("converges");
        assert!((got - want).abs() < 1e-9, "{opt:?}: {got} vs dense {want}");
    }
}
