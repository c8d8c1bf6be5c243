//! Differential and property coverage for the state-store exploration
//! paths and the compact binary BLTS format.
//!
//! The store-backed explorer promises *byte-identical* canonical LTSs —
//! same state numbering, same transition order, same abort report —
//! whether the dedup table stays in its arena or spills to disk. These tests pin that promise on
//! models from the paper's three case studies and on random specs, and pin
//! the BLTS codec against the Aldebaran text format on random LTSs.

use multival::lts::io::{read_aut, read_blts, write_aut, write_blts};
use multival::lts::reach::materialize;
use multival::lts::{Lts, LtsBuilder};
use multival::models::fame2::network::ping_pong_source;
use multival::models::faust::mesh::complement_source_n;
use multival::models::faust::noc::single_packet_source;
use multival::models::xmas::{generate, render_lot, GenConfig, RenderOptions};
use multival::models::xstream::pipeline::library;
use multival::pa::{
    explore, explore_partial, explore_term_store_partial, parse_behaviour, parse_spec, transitions,
    Exploration, ExploreOptions, PaTs, Spec,
};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// The arena store, and the spill store at a 1-byte budget (which pages
/// on every segment), yield the byte-identical canonical LTS the
/// term-keeping explorer produces.
#[test]
fn backends_and_workers_agree_on_case_study_models() {
    for (name, spec) in case_studies() {
        let run = explore_all_backends(name, &spec, &ExploreOptions::default());
        assert!(run.aborted.is_none(), "{name}");
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

    /// Random specs explored through the term-keeping explorer, through
    /// the arena store, and — when the cap is not hit — by materializing
    /// the term semantics ([`PaTs`]) give byte-identical `.aut` and the
    /// same abort report, and the kept state terms are the term semantics'
    /// states.
    #[test]
    fn arena_exploration_matches_the_term_index_on_random_specs(
        genome in prop::collection::vec(0u8..255, 1..24)
    ) {
        let src = decode_spec(&genome);
        let spec = parse_spec(&src).expect("decoder only emits valid specs");
        // Cap low enough to keep runtime sane; a hit must abort both runs
        // identically, so capped cases still assert something useful.
        let options = ExploreOptions::with_max_states(4_000);
        let indexed = explore_partial(&spec, &options);
        let stored = explore_term_store_partial(spec.top().clone(), &spec, &options, None);
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
        if indexed.aborted.is_none() {
            assert_matches_term_semantics(&src, &spec, &indexed);
        }
    }
}

/// Asserts that a complete exploration is the term semantics: its `.aut`
/// is byte-identical to materializing [`PaTs`], its state terms are
/// distinct, and each state's transitions are exactly the SOS
/// derivations of its term.
fn assert_matches_term_semantics(name: &str, spec: &Spec, run: &Exploration) {
    assert!(run.aborted.is_none(), "{name}: exploration must be complete");
    let ts = PaTs::new(spec);
    let reference = materialize(&ts);
    assert!(ts.take_error().is_none(), "{name}: the term semantics hit an error");
    let explored = &run.explored;
    assert_eq!(write_aut(&explored.lts), write_aut(&reference), "{name}: LTS differs from PaTs");

    let index: HashMap<_, _> = explored.states.iter().enumerate().map(|(i, t)| (t, i)).collect();
    assert_eq!(index.len(), explored.states.len(), "{name}: state terms must be distinct");
    for (s, term) in explored.states.iter().enumerate() {
        let mut want: Vec<(String, usize)> = transitions(term, spec)
            .expect("derivable")
            .into_iter()
            .map(|(label, target)| (label.to_string(), index[&target]))
            .collect();
        let mut got: Vec<(String, usize)> = explored
            .lts
            .transitions_from(s as u32)
            .iter()
            .map(|t| (explored.lts.labels().name(t.label).to_owned(), t.target as usize))
            .collect();
        // The LTS keeps each state's transitions sorted by label id.
        want.sort();
        got.sort();
        assert_eq!(got, want, "{name}: state {s} `{term}`");
    }
}

/// Explores `src` through the arena store and the spill store at a
/// 1-byte budget, and checks both agree with the term-keeping explorer,
/// which is returned.
fn explore_all_backends(name: &str, spec: &Spec, options: &ExploreOptions) -> Exploration {
    let run = explore_partial(spec, options);
    let aut = write_aut(&run.explored.lts);
    for mem_budget in [None, Some(1)] {
        let stored = explore_term_store_partial(spec.top().clone(), spec, options, mem_budget);
        assert_eq!(run.aborted, stored.aborted, "{name}: budget {mem_budget:?} abort report");
        assert_eq!(aut, write_aut(&stored.lts), "{name}: budget {mem_budget:?} LTS");
    }
    run
}

/// Every committed example (the xMAS fixtures among them) and a seeded
/// range of generated xMAS fabrics explore to the term semantics' LTS,
/// through the arena and the spill store alike.
#[test]
fn compiled_exploration_matches_the_term_semantics_on_committed_and_generated_models() {
    let examples = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples");
    // (name, source, state cap): the committed examples run uncapped; the
    // generated fabrics are capped so that the two largest of the range
    // (~18k states) only meet the backend comparison, which keeps the
    // term-semantics side of this debug-built test to a few seconds.
    let mut inputs: Vec<(String, String, usize)> = Vec::new();
    for entry in std::fs::read_dir(&examples).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "lot") {
            let source = std::fs::read_to_string(&path).expect("read example");
            inputs.push((path.display().to_string(), source, 1_000_000));
        }
    }
    assert!(inputs.len() >= 11, "the committed examples are all found");
    for seed in 0..40 {
        let fabric = generate(seed, &GenConfig::default());
        let source = render_lot(&fabric, &RenderOptions::default()).expect("fabric renders");
        inputs.push((format!("xmas seed {seed}"), source, 4_000));
    }
    let mut complete = 0;
    for (name, source, cap) in &inputs {
        let spec = parse_spec(source).expect("parses");
        let run = explore_all_backends(name, &spec, &ExploreOptions::with_max_states(*cap));
        if run.aborted.is_none() {
            assert_matches_term_semantics(name, &spec, &run);
            complete += 1;
        }
    }
    assert!(complete >= 45, "most inputs explore within their cap ({complete})");
}

/// Joint `exit`s: a `|||` chain terminating under `hide`, exits under
/// `|[G]|` inside `|||` followed by `>>`, value-carrying exits that only
/// partly agree, duplicate δ moves whose combinations multiply, an exit
/// feeding `accept`, and termination through a renaming.
const EXIT_SPECS: [&str; 6] = [
    "process W[a, b](n: int 0..2) :=
         [n < 2] -> a !n; W[a, b](n + 1)
      [] [n == 2] -> b; exit
     endproc
     behaviour hide b in (W[a, b](0) ||| W[c, b](1) ||| (e; exit))",
    "behaviour ((((a; exit) |[a]| (a; exit)) ||| ((b; exit) [] (c; exit))) >> (d; stop))
         |[d]| (d; e; stop)",
    "behaviour ((g; exit(1)) [] (g; exit(2))) |[g]| ((g; exit(2)) [] (g; (exit(1) [] exit(2))))",
    "behaviour hide a in ((exit [] exit) ||| (exit [] (a; exit)) ||| ((b; exit) [] (exit [] exit)))",
    "behaviour ((a; exit(1)) ||| (b; exit(1))) >> accept x: int 0..3 in (c !x; stop)",
    "behaviour hide k in ((rename h -> k in ((h; exit) ||| (h; exit))) |[k]| (k; k; exit))",
];

#[test]
fn joint_exits_match_the_term_semantics() {
    for src in EXIT_SPECS {
        let spec = parse_spec(src).expect("parses");
        let run = explore_all_backends(src, &spec, &ExploreOptions::default());
        assert_matches_term_semantics(src, &spec, &run);
    }
}

const CNT: &str = "process Cnt[up, down](n: int 0..3) :=
       [n < 3] -> up; Cnt[up, down](n + 1)
    [] [n > 0] -> down; Cnt[up, down](n - 1)
   endproc
   behaviour hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))";

/// An aborted exploration with its abort report, partial `.aut` and state
/// terms, pinned from the term-rewriting explorer.
struct Pinned {
    source: &'static str,
    max_states: usize,
    max_transitions: usize,
    aborted: &'static str,
    aut: &'static str,
    states: &'static str,
}

const PINNED: [Pinned; 4] = [
    // A semantic error reached mid-exploration, after other states.
    Pinned {
        source: "process P[a](n: int 0..3) := a !n; P[a](n + 1) endproc
                 process R[b](m: int 0..2) :=
                     [m < 2] -> b; R[b](m + 1)
                  [] [m == 2] -> b; R[b](0)
                 endproc
                 behaviour hide a in (R[b](0) ||| P[a](0))",
        max_states: 1000,
        max_transitions: 8000,
        aborted:
            "Some(Semantics { error: TypeRange(\"argument `n` of `P`: 4 is not in int 0..3\"), \
                  state: \"hide a in (R[b](0) ||| P[a](4))\" })",
        aut: "des (0, 22, 14)\n(0, \"i\", 2)\n(0, \"b\", 1)\n(1, \"i\", 4)\n(1, \"b\", 3)\n\
              (2, \"i\", 5)\n(2, \"b\", 4)\n(3, \"i\", 6)\n(3, \"b\", 0)\n(4, \"i\", 7)\n\
              (4, \"b\", 6)\n(5, \"i\", 8)\n(5, \"b\", 7)\n(6, \"i\", 9)\n(6, \"b\", 2)\n\
              (7, \"i\", 10)\n(7, \"b\", 9)\n(8, \"i\", 11)\n(8, \"b\", 10)\n(9, \"i\", 12)\n\
              (9, \"b\", 5)\n(10, \"i\", 13)\n(10, \"b\", 12)\n",
        states: "hide a in (R[b](0) ||| P[a](0))
hide a in (R[b](1) ||| P[a](0))
hide a in (R[b](0) ||| P[a](1))
hide a in (R[b](2) ||| P[a](0))
hide a in (R[b](1) ||| P[a](1))
hide a in (R[b](0) ||| P[a](2))
hide a in (R[b](2) ||| P[a](1))
hide a in (R[b](1) ||| P[a](2))
hide a in (R[b](0) ||| P[a](3))
hide a in (R[b](2) ||| P[a](2))
hide a in (R[b](1) ||| P[a](3))
hide a in (R[b](0) ||| P[a](4))
hide a in (R[b](2) ||| P[a](3))
hide a in (R[b](1) ||| P[a](4))
",
    },
    // Two leaves fail in the same state: the leftmost one reports.
    Pinned {
        source: "process P[a](n: int 0..2) := a; P[a](n + 1) endproc
                 process Q[a](n: int 0..2) := a; Q[a](n + 1) endproc
                 behaviour (P[a](0) |[a]| Q[a](0)) ||| (b; stop)",
        max_states: 1000,
        max_transitions: 8000,
        aborted:
            "Some(Semantics { error: TypeRange(\"argument `n` of `P`: 3 is not in int 0..2\"), \
                  state: \"((P[a](3) |[a]| Q[a](3)) ||| b; stop)\" })",
        aut: "des (0, 8, 7)\n(0, \"a\", 1)\n(0, \"b\", 2)\n(1, \"a\", 3)\n(1, \"b\", 4)\n\
              (2, \"a\", 4)\n(3, \"a\", 5)\n(3, \"b\", 6)\n(4, \"a\", 6)\n",
        states: "((P[a](0) |[a]| Q[a](0)) ||| b; stop)
((P[a](1) |[a]| Q[a](1)) ||| b; stop)
((P[a](0) |[a]| Q[a](0)) ||| stop)
((P[a](2) |[a]| Q[a](2)) ||| b; stop)
((P[a](1) |[a]| Q[a](1)) ||| stop)
((P[a](3) |[a]| Q[a](3)) ||| b; stop)
((P[a](2) |[a]| Q[a](2)) ||| stop)
",
    },
    // The state cap.
    Pinned {
        source: CNT,
        max_states: 7,
        max_transitions: 1000,
        aborted: "Some(Explosion { states: 7, transitions: 8, depth: 1 })",
        aut: "des (0, 8, 7)\n(0, \"u1\", 1)\n(0, \"x\", 2)\n(0, \"u2\", 3)\n(1, \"i\", 0)\n\
              (1, \"u1\", 4)\n(1, \"x\", 5)\n(1, \"u2\", 6)\n(2, \"u1\", 5)\n",
        states: "hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))
hide d1 in ((Cnt[u1, d1](1) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))
hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](0))
hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](1)) |[u2]| Cnt[u2, x](2))
hide d1 in ((Cnt[u1, d1](2) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))
hide d1 in ((Cnt[u1, d1](1) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](0))
hide d1 in ((Cnt[u1, d1](1) ||| Cnt[u2, d2](1)) |[u2]| Cnt[u2, x](2))
",
    },
    // The transition cap.
    Pinned {
        source: CNT,
        max_states: 1000,
        max_transitions: 9,
        aborted: "Some(Explosion { states: 8, transitions: 9, depth: 1 })",
        aut: "des (0, 9, 8)\n(0, \"u1\", 1)\n(0, \"x\", 2)\n(0, \"u2\", 3)\n(1, \"i\", 0)\n\
              (1, \"u1\", 4)\n(1, \"x\", 5)\n(1, \"u2\", 6)\n(2, \"u1\", 5)\n(2, \"u2\", 7)\n",
        states: "hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))
hide d1 in ((Cnt[u1, d1](1) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))
hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](0))
hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](1)) |[u2]| Cnt[u2, x](2))
hide d1 in ((Cnt[u1, d1](2) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](1))
hide d1 in ((Cnt[u1, d1](1) ||| Cnt[u2, d2](0)) |[u2]| Cnt[u2, x](0))
hide d1 in ((Cnt[u1, d1](1) ||| Cnt[u2, d2](1)) |[u2]| Cnt[u2, x](2))
hide d1 in ((Cnt[u1, d1](0) ||| Cnt[u2, d2](1)) |[u2]| Cnt[u2, x](1))
",
    },
];

/// A semantic error and both caps abort with the report, the partial
/// `.aut` and the state terms the term-rewriting explorer produced,
/// through the arena and the spill store alike.
#[test]
fn errors_and_caps_keep_the_pinned_partial_work() {
    for case in PINNED {
        let spec = parse_spec(case.source).expect("parses");
        let options = ExploreOptions {
            max_states: case.max_states,
            max_transitions: case.max_transitions,
            ..ExploreOptions::default()
        };
        let run = explore_all_backends(case.source, &spec, &options);
        assert_eq!(format!("{:?}", run.aborted), case.aborted, "{}", case.source);
        assert_eq!(write_aut(&run.explored.lts), case.aut, "{}", case.source);
        let states: String = run.explored.states.iter().map(|t| format!("{t}\n")).collect();
        assert_eq!(states, case.states, "{}", case.source);
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
