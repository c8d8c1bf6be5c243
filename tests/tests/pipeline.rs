//! Differential harness for the compositional reduction pipeline: on
//! random component networks, `run_pipeline` must produce the *byte-same*
//! canonical LTS as the monolithic reference — for every composition-order
//! policy, and with or without checkpoint/resume — and that
//! LTS must be bisimilar to the monolithic product under the chosen
//! equivalence (an independent check through the equivalence engine, not
//! the canonicalizer).
//!
//! A failing case shrinks to a minimal network: fewer/smaller components,
//! shorter transition lists, smaller sync/hide sets.

use multival::lts::equiv::{equivalent, Verdict};
use multival::lts::io::write_aut;
use multival::lts::minimize::Equivalence;
use multival::lts::pipeline::{monolithic, run_pipeline, Network, Order, PipelineOptions};
use multival::lts::{Lts, LtsBuilder, Workers};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Strategy: a random component LTS with up to `max_states` states over a
/// tiny gate pool (τ spelled `i`), fully reachable by a spanning chain.
fn arb_component(max_states: usize) -> impl Strategy<Value = Lts> {
    let labels = prop::sample::select(vec!["a", "b", "c", "d", "i"]);
    (1..=max_states).prop_flat_map(move |n| {
        let chain = prop::collection::vec(labels.clone(), n - 1);
        let extra = prop::collection::vec((0..n as u32, labels.clone(), 0..n as u32), 0..(2 * n));
        (chain, extra).prop_map(move |(chain, extra)| {
            let mut b = LtsBuilder::new();
            for _ in 0..n {
                b.add_state();
            }
            for (i, l) in chain.iter().enumerate() {
                b.add_transition(i as u32, l, i as u32 + 1);
            }
            for (s, l, t) in extra {
                b.add_transition(s, l, t);
            }
            b.build(0)
        })
    })
}

/// Strategy: a random network of 2–4 components with random sync and
/// hidden gate sets over the same pool.
fn arb_network() -> impl Strategy<Value = Network> {
    let gates = || prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d"]), 0..=3);
    (prop::collection::vec(arb_component(4), 2..=4), gates(), gates()).prop_map(
        |(components, sync, hide)| {
            let mut net = Network::new();
            for (k, lts) in components.into_iter().enumerate() {
                net.add_component(format!("c{k}"), lts);
            }
            net.sync_on(sync);
            net.hide(hide);
            net
        },
    )
}

/// The differential core: every pipeline configuration must reproduce the
/// monolithic reference byte for byte, and the result must pass an
/// independent bisimilarity check against the (unreduced-path) product.
fn check_differential(net: &Network, eq: Equivalence, seed: u64) -> Result<(), TestCaseError> {
    let mono = monolithic(net, eq, Workers::sequential());
    let reference = write_aut(&mono.lts);
    let mut smart_run = None;
    for order in [Order::Given, Order::Smart, Order::Seeded(seed)] {
        let options = PipelineOptions { equivalence: eq, order, ..PipelineOptions::default() };
        let run = run_pipeline(net, &options);
        prop_assert!(run.complete(), "unbudgeted run must complete ({order})");
        prop_assert_eq!(
            write_aut(&run.lts),
            reference.clone(),
            "order {} diverged from the monolithic reference",
            order
        );
        smart_run = Some(run);
    }
    // Independent semantic check, through the equivalence engine rather
    // than the canonicalizer both sides share.
    let run = smart_run.expect("at least one configuration ran");
    prop_assert!(
        matches!(equivalent(&run.lts, &mono.lts, eq), Verdict::Equivalent),
        "pipeline result must be {eq:?}-equivalent to the monolithic product"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipeline_matches_the_monolithic_reference_branching(
        net in arb_network(),
        seed in 0u64..1_000_000,
    ) {
        check_differential(&net, Equivalence::Branching, seed)?;
    }

    #[test]
    fn pipeline_matches_the_monolithic_reference_strong(
        net in arb_network(),
        seed in 0u64..1_000_000,
    ) {
        check_differential(&net, Equivalence::Strong, seed)?;
    }

    #[test]
    fn checkpointed_runs_resume_to_the_same_bytes(net in arb_network()) {
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir()
            .join(format!("multival-pipeline-diff-{}", UNIQUE.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_dir_all(&dir);
        let options = PipelineOptions {
            checkpoint_dir: Some(dir.clone()),
            ..PipelineOptions::default()
        };
        let fresh = run_pipeline(&net, &options);
        prop_assert_eq!(fresh.resumed_stages, 0, "first run starts clean");
        let resumed = run_pipeline(&net, &options);
        prop_assert!(
            resumed.resumed_stages > 0,
            "second run must pick the checkpoint up"
        );
        prop_assert_eq!(write_aut(&fresh.lts), write_aut(&resumed.lts));
        prop_assert_eq!(&fresh.stages, &resumed.stages, "stage accounting must survive resume");
        let plain = run_pipeline(&net, &PipelineOptions::default());
        prop_assert_eq!(write_aut(&plain.lts), write_aut(&resumed.lts));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
