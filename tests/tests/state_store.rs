//! Differential and property coverage for the pluggable state-store
//! exploration backends and the compact binary BLTS format.
//!
//! The store-backed explorer promises *byte-identical* canonical LTSs —
//! same state numbering, same transition order, same abort report —
//! whatever backend holds the dedup table. These tests pin that promise on
//! models from the paper's three case studies and on random specs, and pin
//! the BLTS codec against the Aldebaran text format on random LTSs.

use multival::lts::io::{read_aut, read_blts, write_aut, write_blts};
use multival::lts::store::{StoreConfig, StoreKind};
use multival::lts::{Lts, LtsBuilder};
use multival::models::fame2::network::ping_pong_source;
use multival::models::faust::mesh::complement_source_n;
use multival::models::faust::noc::single_packet_source;
use multival::models::xstream::pipeline::library;
use multival::pa::{
    explore, explore_partial, explore_term_store, explore_term_store_partial, parse_behaviour,
    parse_spec, ExploreOptions,
};
use proptest::prelude::*;

/// An xSTream-style flat pipeline assembled from the component library:
/// producer → queue → queue → consumer with the interior gate hidden.
const XSTREAM_FLAT: &str = "hide m in ( Producer[push] |[push]| ( Queue[push, m](0, 2) \
     |[m]| ( Queue[m, pop](0, 2) |[pop]| Consumer[pop] ) ) )";

/// One flat model per case study: xSTream pipeline, FAME2 ping-pong,
/// FAUST NoC (single packet plus the flow-controlled 2×2 complement mesh).
fn case_studies() -> Vec<(&'static str, multival::pa::Spec)> {
    let xstream = {
        let mut spec = library();
        let top = parse_behaviour(XSTREAM_FLAT, &spec).expect("xstream top parses");
        spec.set_top(top);
        spec
    };
    vec![
        ("xstream_pipeline", xstream),
        ("fame2_ping_pong", parse_spec(&ping_pong_source(2)).expect("parses")),
        ("faust_single_packet", parse_spec(&single_packet_source(3)).expect("parses")),
        ("faust_complement_2x2", parse_spec(&complement_source_n(2, Some(2))).expect("parses")),
    ]
}

/// Every backend × (tight or absent) memory budget yields the
/// byte-identical canonical LTS the classic explorer produces.
#[test]
fn backends_and_workers_agree_on_case_study_models() {
    for (name, spec) in case_studies() {
        let baseline =
            write_aut(&explore(&spec, &ExploreOptions::default()).expect("explores").lts);
        for kind in StoreKind::ALL {
            // A 1-byte budget forces the spill backend to page on every
            // segment; the others ignore it.
            for mem_budget in [None, Some(1)] {
                let config = StoreConfig { kind, mem_budget };
                let lts = explore_term_store(
                    spec.top().clone(),
                    &spec,
                    &ExploreOptions::default(),
                    &config,
                )
                .expect("explores");
                assert_eq!(
                    baseline,
                    write_aut(&lts),
                    "{name}: {kind:?} × budget {mem_budget:?} \
                     must match the classic explorer byte for byte"
                );
            }
        }
    }
}

/// Decodes a byte genome into a closed mini-LOTOS behaviour. Every genome
/// decodes to a valid, finite spec, so the strategy never needs rejection
/// sampling; the decoder consumes bytes left to right and bottoms out on
/// `stop` when the budget runs dry.
fn decode_term(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> String {
    let gates = ["a", "b", "c"];
    let Some(&op) = bytes.next() else {
        return "stop".to_owned();
    };
    let gate = gates[(op / 8) as usize % 3];
    if depth == 0 {
        return format!("{gate}; stop");
    }
    match op % 6 {
        0 | 1 => format!("{gate}; {}", decode_term(bytes, depth - 1)),
        2 => format!("({} [] {})", decode_term(bytes, depth - 1), decode_term(bytes, depth - 1)),
        3 => format!("({} ||| {})", decode_term(bytes, depth - 1), decode_term(bytes, depth - 1)),
        4 => format!(
            "({} |[{gate}]| {})",
            decode_term(bytes, depth - 1),
            decode_term(bytes, depth - 1)
        ),
        // A data-carrying cyclic process: exercises guards, arithmetic,
        // and value-dependent labels.
        _ => format!("Cnt[{gate}, {}](0)", gates[(op / 8 + 1) as usize % 3]),
    }
}

fn decode_spec(genome: &[u8]) -> String {
    let mut bytes = genome.iter();
    format!(
        "process Cnt[up, down](n: int 0..5) :=
             [n < 5] -> up; Cnt[up, down](n + 1)
          [] [n > 0] -> down; Cnt[up, down](n - 1)
         endproc
         behaviour {}",
        decode_term(&mut bytes, 3)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random specs explored through the term index and through the arena
    /// store give byte-identical `.aut` and the same abort report.
    #[test]
    fn arena_exploration_matches_the_term_index_on_random_specs(
        genome in prop::collection::vec(0u8..255, 1..24)
    ) {
        let src = decode_spec(&genome);
        let spec = parse_spec(&src).expect("decoder only emits valid specs");
        // Cap low enough to keep runtime sane; a hit must abort both runs
        // identically, so capped cases still assert something useful.
        let options = ExploreOptions::with_max_states(4_000);
        let config = StoreConfig { kind: StoreKind::Arena, mem_budget: None };
        let indexed = explore_partial(&spec, &options);
        let stored = explore_term_store_partial(spec.top().clone(), &spec, &options, &config);
        prop_assert_eq!(
            indexed.aborted.as_ref().map(ToString::to_string),
            stored.aborted.as_ref().map(ToString::to_string),
            "abort outcome diverged on {}", src
        );
        prop_assert_eq!(
            write_aut(&indexed.explored.lts),
            write_aut(&stored.lts),
            "LTS diverged on {}", src
        );
    }
}

/// Strategy: a random LTS over a small alphabet with states kept
/// reachable by a spanning chain (mirrors `properties.rs`).
fn arb_lts(max_states: usize) -> impl Strategy<Value = Lts> {
    let labels = prop::sample::select(vec!["a", "b!1", "i", "long label with spaces"]);
    (2..=max_states).prop_flat_map(move |n| {
        let chain = prop::collection::vec(labels.clone(), n - 1);
        let extra = prop::collection::vec((0..n as u32, labels.clone(), 0..n as u32), 0..(3 * n));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `.aut` and BLTS are interchangeable carriers. BLTS preserves label
    /// ids exactly, so it round-trips any render byte-identically; `.aut`
    /// re-interns labels in first-occurrence order, so its render reaches
    /// a fixpoint after one pass — and BLTS agrees on that canonical form.
    #[test]
    fn aut_and_blts_roundtrips_are_byte_identical(lts in arb_lts(24)) {
        let direct = write_aut(&lts);
        let via_blts = read_blts(&write_blts(&lts)).expect("BLTS decodes");
        prop_assert_eq!(&direct, &write_aut(&via_blts));

        let canonical_lts = read_aut(&direct).expect(".aut parses");
        let canonical = write_aut(&canonical_lts);
        let again = read_aut(&canonical).expect("canonical .aut parses");
        prop_assert_eq!(&canonical, &write_aut(&again));
        let via_both = read_blts(&write_blts(&canonical_lts)).expect("BLTS decodes");
        prop_assert_eq!(&canonical, &write_aut(&via_both));
    }
}

/// The committed CI smoke model must track the mesh generator: CI reduces
/// `examples/mesh_3x3.lot` under a memory budget, so drift between the
/// file and `complement_source_n` would silently change what CI exercises.
#[test]
fn committed_3x3_mesh_model_matches_the_generator() {
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples/mesh_3x3.lot");
    let want = complement_source_n(3, Some(2));
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, &want).expect("write model");
        return;
    }
    let got = std::fs::read_to_string(&path).expect("committed examples/mesh_3x3.lot");
    assert_eq!(
        got, want,
        "examples/mesh_3x3.lot drifted from complement_source_n(3, Some(2)); \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Decoding must fail loudly — never panic, never return a mangled LTS —
/// on every truncation and on single-byte corruption of a real file.
#[test]
fn blts_decode_rejects_truncation_and_corruption() {
    let spec = parse_spec(&single_packet_source(3)).expect("parses");
    let lts = explore(&spec, &ExploreOptions::default()).expect("explores").lts;
    let bytes = write_blts(&lts);
    let canonical = write_aut(&lts);
    for len in 0..bytes.len() {
        assert!(read_blts(&bytes[..len]).is_err(), "truncation at {len} must error");
    }
    // Flip one byte at a stride through the file: the checksum trailer
    // (or an earlier structural check) must catch every flip.
    for pos in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x41;
        match read_blts(&bad) {
            Err(_) => {}
            Ok(decoded) => assert_eq!(
                write_aut(&decoded),
                canonical,
                "an accepted flip at {pos} must still decode to the same LTS"
            ),
        }
    }
}
