//! Integration: the complete §2–§4 flow on one model, cross-checked
//! numerically against Monte-Carlo simulation.

use multival::ctmc::{McOptions, McSim};
use multival::flow::Flow;
use multival::imc::NondetPolicy;
use multival::lts::minimize::Equivalence;
use std::collections::HashMap;

const MODEL: &str = "
process Station[req, grant, release](busy: bool) :=
    [not busy] -> req; Station[req, grant, release](true)
 [] [busy]     -> grant; release; Station[req, grant, release](false)
endproc
behaviour Station[req, grant, release](false)
";

#[test]
fn verify_then_evaluate() {
    let flow = Flow::from_source(MODEL).expect("parses and explores");
    // Functional: deadlock-free, grant never precedes req.
    assert!(flow.deadlock().is_none());
    assert!(flow.check("nu X. [\"grant\"] false and [not \"req\"] X").expect("mc").holds);

    // Performance: decorate all three actions.
    let mut rates = HashMap::new();
    rates.insert("req".to_owned(), 4.0);
    rates.insert("grant".to_owned(), 2.0);
    rates.insert("release".to_owned(), 1.0);
    let solved = flow
        .with_rates(&rates)
        .solve(NondetPolicy::Reject, &["req", "grant", "release"])
        .expect("solves");
    let tp = solved.throughputs().expect("throughputs");
    // Cycle time = 1/4 + 1/2 + 1 = 7/4 → each label fires at 4/7.
    for (label, x) in &tp {
        assert!((x - 4.0 / 7.0).abs() < 1e-9, "{label}: {x}");
    }
}

#[test]
fn numeric_flow_matches_simulation() {
    let flow = Flow::from_source(MODEL).expect("parses");
    let mut rates = HashMap::new();
    rates.insert("req".to_owned(), 3.0);
    rates.insert("grant".to_owned(), 1.0);
    rates.insert("release".to_owned(), 2.0);
    let solved = flow.with_rates(&rates).solve(NondetPolicy::Reject, &[]).expect("solves");
    let pi = solved.steady_state().expect("steady");
    // 64 trajectories of 1,000 time units each, from a fixed seed.
    let opts = McOptions { seed: 2024, batch: 64, max_trajectories: 64, ..McOptions::default() };
    let est = McSim::new(solved.ctmc()).occupancy(1_000.0, &opts);
    for (s, (&exact, sim)) in pi.iter().zip(&est.estimates).enumerate() {
        let sim = sim.mean;
        assert!((exact - sim).abs() < 0.02, "state {s}: exact {exact} vs simulated {sim}");
    }
}

#[test]
fn minimization_preserves_properties() {
    let flow = Flow::from_source(MODEL).expect("parses");
    let (min, stats) = flow.minimized(Equivalence::Branching);
    assert!(stats.states_after <= stats.states_before);
    // The quotient satisfies the same stutter-insensitive properties.
    for f in [
        "nu X. <true> true and [true] X",
        "nu X. [\"grant\"] false and [not \"req\"] X",
        "mu X. <\"release\"> true or <true> X",
    ] {
        assert_eq!(
            flow.check(f).expect("mc").holds,
            min.check(f).expect("mc").holds,
            "property `{f}` differs on the quotient"
        );
    }
}

#[test]
fn hiding_then_divergence_analysis() {
    let flow = Flow::from_source(MODEL).expect("parses");
    let hidden = flow.hidden(["grant", "release"]);
    // Hidden internal activity forms no τ-cycle here (req still visible).
    assert!(hidden.divergences().is_empty());
    // Hiding everything yields a τ-cycle: divergence appears.
    let all_hidden = flow.hidden(["req", "grant", "release"]);
    assert!(!all_hidden.divergences().is_empty());
}
