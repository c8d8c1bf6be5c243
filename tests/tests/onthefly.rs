//! Cross-crate tests of the on-the-fly layer: the lazy product must be
//! byte-identical to eager composition in the arena and the spill store
//! alike, and the short-circuiting searches must reach the same verdicts
//! as the eager flow while materializing strictly less.

use multival::lts::io::write_aut;
use multival::lts::ops::{compose, compose_all, Sync};
use multival::lts::reach::{deadlock_search, materialize, materialize_store, ReachOptions};
use multival::lts::ts::LazyProduct;
use multival::lts::{make_store, Lts, LtsBuilder};
use multival::mcl::{check_on_the_fly, patterns};
use multival::models::rings::{full_product_states, ring_parts, ring_sync};
use multival::models::xstream::queue;
use multival::pa::{explore, ExploreOptions, PaTs};
use proptest::prelude::*;

/// Strategy: a random component LTS with up to `max_states` states over a
/// tiny alphabet (τ included), fully reachable by a spanning chain.
fn arb_component(max_states: usize) -> impl Strategy<Value = Lts> {
    let labels = prop::sample::select(vec!["a", "b", "c", "i"]);
    (2..=max_states).prop_flat_map(move |n| {
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

/// Strategy: one of the synchronization disciplines exercised by the case
/// studies (interleaving, full synchrony, and gate-set synchrony).
fn arb_sync() -> impl Strategy<Value = Sync> {
    prop::sample::select(vec![Sync::Interleave, Sync::Full, Sync::on(["a"]), Sync::on(["a", "b"])])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lazy_product_matches_eager_compose_all(
        parts in prop::collection::vec(arb_component(6), 2..=3),
        sync in arb_sync(),
    ) {
        let refs: Vec<&Lts> = parts.iter().collect();
        let eager = compose_all(&refs, &sync);
        let lazy = LazyProduct::new(&refs, &sync);
        let reference = materialize(&lazy);
        prop_assert_eq!(write_aut(&eager), write_aut(&reference), "arena-store composition");
        // A 1-byte budget pages every sealed key segment out.
        let mut store = make_store(Some(1));
        let spilled = materialize_store(&lazy, store.as_mut());
        prop_assert_eq!(write_aut(&spilled), write_aut(&reference), "spill-store materialization");
    }

    #[test]
    fn binary_compose_is_the_two_way_lazy_product(
        left in arb_component(6),
        right in arb_component(6),
        sync in arb_sync(),
    ) {
        let eager = compose(&left, &right, &sync);
        let lazy = materialize(&LazyProduct::new(&[&left, &right], &sync));
        prop_assert_eq!(write_aut(&lazy), write_aut(&eager));
    }
}

#[test]
fn on_the_fly_deadlock_matches_eager_on_the_xstream_bug() {
    // Issue 1 of the xSTream case study (E2): the lossy credit-return
    // queue deadlocks. The on-the-fly search over the term graph must find
    // a shortest trace of the same length as the eager BFS witness.
    let spec = queue::buggy_credit_spec().expect("parses");
    let eager_lts = explore(&spec, &ExploreOptions::default()).expect("explores").lts;
    let eager = multival::lts::analysis::deadlock_witness(&eager_lts).expect("deadlocks");

    let ts = PaTs::new(&spec);
    let outcome = deadlock_search(&ts, &ReachOptions::default());
    assert!(!ts.has_error(), "no semantic errors on this model");
    let fly = outcome.witness.expect("deadlocks");
    assert_eq!(fly.len(), eager.len(), "eager `{eager:?}` vs on-the-fly `{fly:?}`");
    assert!(
        outcome.stats.visited <= eager_lts.num_states() as usize,
        "the search must not visit more than the full space"
    );
}

#[test]
fn searches_materialize_strictly_less_than_the_full_product() {
    // Three-component composition whose product explodes while the
    // interesting behaviour is shallow: both the deadlock search and the
    // safety check settle after a fraction of the full product.
    let parts = ring_parts(3, 8);
    let refs: Vec<&Lts> = parts.iter().collect();
    let sync = ring_sync();
    let full = full_product_states(3, 8);
    assert_eq!(compose_all(&refs, &sync).num_states() as usize, full);

    let lazy = LazyProduct::new(&refs, &sync);
    let deadlock = deadlock_search(&lazy, &ReachOptions::default());
    assert!(deadlock.witness.is_some());
    assert!(
        deadlock.stats.visited < full,
        "deadlock search visited {} of {} product states",
        deadlock.stats.visited,
        full
    );

    // Safety ("HALT never happens") fails with a one-step counterexample.
    let report = check_on_the_fly(
        &lazy,
        &patterns::never(multival::mcl::ActionFormula::pattern("HALT")),
        &ReachOptions::default(),
    )
    .expect("in fragment")
    .expect("not truncated");
    assert!(!report.holds);
    assert_eq!(report.trace, Some(vec!["HALT".to_owned()]));
    assert!(
        report.stats.visited < full,
        "safety check visited {} of {} product states",
        report.stats.visited,
        full
    );
}
