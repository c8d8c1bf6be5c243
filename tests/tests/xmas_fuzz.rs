//! The xMAS workbench end to end: committed fixture fabrics, canonical
//! LTS digests, generator/pipeline determinism across thread counts and
//! store backends, and property tests over the generator and shrinker.
//!
//! The `.lot` fixtures under `examples/` are themselves golden: they are
//! regenerated from their seeds and compared byte-for-byte, so a
//! generator or renderer change that re-shapes the fixture fleet shows
//! up as a diff. Regenerate after a verified intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p multival-integration --test xmas_fuzz`.

use multival::fuzz::{run_fuzz, CheckKind, FuzzOptions};
use multival::lts::io::write_aut;
use multival::lts::minimize::Equivalence;
use multival::lts::pipeline::{canonicalize, run_pipeline, PipelineOptions};
use multival::models::xmas::{compile_network, generate, render_lot, GenConfig, RenderOptions};
use multival::pa::{extract_network, parse_spec, ExploreOptions};
use proptest::prelude::*;
use std::path::PathBuf;

/// The committed fixture fleet: seeds picked to cover every primitive
/// kind (switches, credit rings, merges/joins, multi-color palettes).
const FIXTURE_SEEDS: [u64; 8] = [3, 11, 25, 29, 42, 47, 54, 60];

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples")
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data").join(name)
}

fn check_golden(path: &PathBuf, contents: &str) {
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
        std::fs::write(path, contents).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); create it with UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        want,
        contents,
        "golden mismatch for {}; if the change is intentional and verified, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

fn canonical_aut(seed: u64) -> String {
    let fab = generate(seed, &GenConfig::default());
    let net = compile_network(&fab).expect("fixture fabrics compile");
    let run = run_pipeline(&net, &PipelineOptions::default());
    assert!(run.complete(), "fixture fabrics reduce without a budget");
    write_aut(&canonicalize(&run.lts))
}

/// The eight fixture fabrics under `examples/` regenerate byte-identically
/// from their seeds, and their canonical reduced LTSs match the committed
/// SHA-256 digests.
#[test]
fn fixture_fabrics_and_digests_are_golden() {
    for seed in FIXTURE_SEEDS {
        let fab = generate(seed, &GenConfig::default());
        let header = format!(
            "-- xMAS fixture fabric (seed {seed}, default generator config)\n\
             -- regenerate: UPDATE_GOLDEN=1 cargo test -p multival-integration --test xmas_fuzz\n"
        );
        let body = render_lot(&fab, &RenderOptions::default()).expect("fixture renders");
        let lot = format!("{header}{body}");
        check_golden(&examples_dir().join(format!("xmas_fab_{seed}.lot")), &lot);

        let digest =
            format!("{}\n", multival_integration::sha256_hex(canonical_aut(seed).as_bytes()));
        check_golden(&fixture_path(&format!("xmas_fab_{seed}.aut.sha256")), &digest);
    }
}

/// The rendered fixtures are real models: they parse, extract, and reduce
/// to the same canonical LTS as the directly-compiled network.
#[test]
fn fixture_files_round_trip_through_the_frontend() {
    for seed in FIXTURE_SEEDS {
        let path = examples_dir().join(format!("xmas_fab_{seed}.lot"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            assert!(
                std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1"),
                "missing {}; create it with UPDATE_GOLDEN=1",
                path.display()
            );
            continue;
        };
        let spec = parse_spec(&text).expect("fixture parses");
        let net = extract_network(&spec, &ExploreOptions::default()).expect("fixture extracts");
        let run = run_pipeline(&net, &PipelineOptions::default());
        assert!(run.complete());
        assert_eq!(
            write_aut(&canonicalize(&run.lts)),
            canonical_aut(seed),
            "seed {seed}: the committed .lot must stay equivalent to its generator"
        );
    }
}

/// Same seed → byte-identical topology and canonical LTS regardless of
/// state-store backend.
#[test]
fn generation_and_reduction_are_deterministic() {
    let cfg = GenConfig::default();
    for seed in [0u64, 7, 25, 42] {
        let fab = generate(seed, &cfg);
        assert_eq!(fab, generate(seed, &cfg), "seed {seed}: topology must regenerate");
        let render = render_lot(&fab, &RenderOptions::default()).expect("renders");
        assert_eq!(
            render,
            render_lot(&generate(seed, &cfg), &RenderOptions::default()).expect("renders"),
            "seed {seed}: render must be byte-identical"
        );

        let net = compile_network(&fab).expect("compiles");
        let mut results = Vec::new();
        // The arena, and the spill store at a 1-byte budget.
        for mem_budget in [None, Some(1)] {
            let options = PipelineOptions {
                equivalence: Equivalence::Branching,
                mem_budget,
                ..PipelineOptions::default()
            };
            let run = run_pipeline(&net, &options);
            assert!(run.complete());
            results.push(write_aut(&canonicalize(&run.lts)));
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: canonical LTS must not depend on the memory budget"
        );
    }
}

/// The full differential sweep over the acceptance seed range is clean.
#[test]
fn fuzz_sweep_0_to_64_finds_no_mismatches() {
    let report = run_fuzz(&FuzzOptions { seed_start: 0, seed_end: 64, ..FuzzOptions::default() });
    assert_eq!(report.seeds_run, 64);
    assert!(report.mismatches.is_empty(), "{}", report.render());
    assert!(!report.budget_tripped);
}

/// The planted renderer bug is found and minimized to a tiny reproducer
/// (the issue's acceptance bound is six primitives).
#[test]
fn injected_switch_flip_is_caught_and_minimized() {
    let report = run_fuzz(&FuzzOptions {
        seed_start: 0,
        seed_end: 64,
        inject_flip: true,
        ..FuzzOptions::default()
    });
    assert!(!report.mismatches.is_empty(), "the planted bug must be caught");
    for m in &report.mismatches {
        assert_eq!(m.kind, CheckKind::BuilderVsLot);
    }
    let smallest = report.mismatches.iter().map(|m| m.shrunk.num_prims()).min().expect("some");
    assert!(smallest <= 6, "reproducer must shrink to <= 6 primitives, got {smallest}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated fabric is well-typed, for any seed and any shape
    /// budget in the supported envelope.
    #[test]
    fn generated_fabrics_validate(
        seed in 0u64..u64::MAX,
        max_steps in 0usize..12,
        max_colors in 1usize..5,
        max_cap in 1usize..4,
        credit_rings in 0usize..2,
    ) {
        let cfg = GenConfig { max_steps, max_colors, max_cap, credit_rings: credit_rings == 1 };
        let fab = generate(seed, &cfg);
        prop_assert!(fab.validate().is_ok(), "{:?}", fab.validate().err());
    }

    /// Shrinking preserves well-typedness and the caller's predicate, and
    /// never grows the fabric — even under predicates unrelated to any
    /// real failure.
    #[test]
    fn shrinker_outputs_stay_well_typed(seed in 0u64..u64::MAX, min_prims in 2usize..6) {
        let fab = generate(seed, &GenConfig::default());
        let pred = |f: &multival::models::xmas::Fabric| f.num_prims() >= min_prims;
        if !pred(&fab) {
            return Ok(());
        }
        let small = multival::models::xmas::shrink(&fab, pred, 32);
        prop_assert!(small.validate().is_ok(), "{:?}", small.validate().err());
        prop_assert!(pred(&small));
        prop_assert!(small.size_metric() <= fab.size_metric());
    }
}
