//! Golden regression fixtures for the three case-study pipelines: the
//! functional state space as `.aut` plus a measure snapshot combining the
//! numerical answers with fixed-seed Monte-Carlo estimates. Any drift in
//! exploration order, solver output, or the simulation's random stream
//! shows up as a diff against `tests/data/`.
//!
//! Regenerate after a verified intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p multival-integration --test golden`.

use multival::ctmc::absorb::mean_time_to_target;
use multival::ctmc::steady::{steady_state, SolveOptions};
use multival::ctmc::{McOptions, McRun, McSim, Workers};
use multival::imc::decorate::decorate_by_label_with_map;
use multival::imc::to_ctmc::{to_ctmc, NondetPolicy};
use multival::imc::Delay;
use multival::lts::io::{read_blts, write_aut, write_blts};
use multival::lts::pipeline::{monolithic, run_pipeline, Network, PipelineOptions};
use multival::models::common::explore_model;
use multival::models::fame2::benchmark::{
    contended_fabric_bounds, ping_pong_bandwidth, ping_pong_bandwidth_bounds, ping_pong_chain,
    RateConfig,
};
use multival::models::fame2::coherence::Protocol;
use multival::models::fame2::mpi::{MpiConfig, MpiImpl, MpiModel};
use multival::models::fame2::network::ping_pong_network;
use multival::models::fame2::topology::Topology;
use multival::models::faust::noc::{complement_network, single_packet_chain, single_packet_source};
use multival::models::xstream::perf::{
    analyze, explore_pipeline, perf_conversion, throughput_bounds, NocBoundsConfig, PerfConfig,
};
use multival::models::xstream::pipeline::{network as xstream_network, PipelineConfig};
use multival::pa::{explore, parse_spec, ExploreOptions};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data").join(name)
}

/// Compares `contents` against the committed fixture, or rewrites the
/// fixture when `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, contents: &str) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("data dir")).expect("mkdir");
        std::fs::write(&path, contents).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); create it with UPDATE_GOLDEN=1"));
    assert_eq!(
        want, contents,
        "golden mismatch for {name}; if the change is intentional and verified, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Binary-fixture variant of [`check_golden`] for `.blts` snapshots, with
/// a decode round-trip so a committed fixture is guaranteed readable.
fn check_golden_blts(name: &str, lts: &multival::lts::Lts) {
    let bytes = write_blts(lts);
    let back = read_blts(&bytes).expect("fresh BLTS bytes decode");
    assert_eq!(write_aut(&back), write_aut(lts), "BLTS round-trip must be exact");
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("data dir")).expect("mkdir");
        std::fs::write(&path, &bytes).expect("write fixture");
        return;
    }
    let want = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); create it with UPDATE_GOLDEN=1"));
    assert_eq!(
        want, bytes,
        "golden mismatch for {name}; if the change is intentional and verified, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Fixed-seed simulation options: deterministic across runs, platforms,
/// and thread counts, so the estimates are safe to commit.
fn mc_opts(abs_width: f64) -> McOptions {
    McOptions {
        seed: 42,
        workers: Workers::new(2),
        max_trajectories: 8192,
        abs_width,
        rel_width: 0.0,
        ..McOptions::default()
    }
}

fn fmt_run_scalar(run: &McRun) -> String {
    let e = &run.estimates[0];
    format!("{:.6} ± {:.6} ({} trajectories)", e.mean, e.half_width, run.trajectories)
}

/// xSTream pipeline: recurrent chain, so the measures are steady-state
/// occupancies cross-validated by long-run simulation.
#[test]
fn xstream_pipeline_golden() {
    let cfg = PerfConfig::default();
    let explored = explore_pipeline(&cfg).expect("explores");
    check_golden("xstream_pipeline.aut", &write_aut(&explored.lts));

    let conv = perf_conversion(&cfg).expect("converts");
    let pi = steady_state(&conv.ctmc, &SolveOptions::default()).expect("solves");
    let run = McSim::new(&conv.ctmc).occupancy(300.0, &mc_opts(8e-3));

    let mut snap = String::new();
    let _ = writeln!(snap, "functional states: {}", explored.lts.num_states());
    let _ = writeln!(snap, "ctmc states: {}", conv.ctmc.num_states());
    for (s, p) in pi.iter().enumerate().take(6) {
        let e = &run.estimates[s];
        let _ = writeln!(snap, "state {s}: steady {p:.6}  mc {:.6} ± {:.6}", e.mean, e.half_width);
    }
    let _ = writeln!(snap, "mc trajectories: {}", run.trajectories);
    check_golden("xstream_pipeline.measures.txt", &snap);

    // Acceptance: every simulated occupancy brackets the numerical answer.
    for (s, (e, want)) in run.estimates.iter().zip(&pi).enumerate() {
        assert!(
            (e.mean - want).abs() <= e.half_width + 6e-3,
            "state {s}: mc {} ± {} vs steady {want}",
            e.mean,
            e.half_width
        );
    }
}

/// The direct steady-state solve is checked by its scaled residual against
/// `SolveOptions::tolerance` (1e-12 by default). The committed pipeline
/// passes with two orders of magnitude to spare, including its stiffest
/// sweep points: a transfer fitted by Erlang k = 42 (the `det:0.25` fit)
/// against producer, consumer and credit rates near 1.
#[test]
fn steady_solves_pass_the_residual_check_with_margin() {
    let tight = SolveOptions { tolerance: 1e-14, ..SolveOptions::default() };
    let conv = perf_conversion(&PerfConfig::default()).expect("converts");
    steady_state(&conv.ctmc, &tight).expect("default rates");
    for push_capacity in [1, 2, 3] {
        let config = PerfConfig { push_capacity, ..PerfConfig::default() };
        let explored = explore_pipeline(&config).expect("explores");
        let (imc, _) = decorate_by_label_with_map(&explored.lts, |label| match label {
            "push" => Some(Delay::Exponential { rate: config.producer_rate }),
            "xfer" => Some(Delay::fixed(1.0 / config.transfer_rate, 42)),
            "pop" => Some(Delay::Exponential { rate: config.consumer_rate }),
            "credit" => Some(Delay::Exponential { rate: config.credit_rate }),
            _ => None,
        });
        let conv = to_ctmc(&imc, NondetPolicy::Reject, &["push", "xfer", "pop", "credit"])
            .expect("converts");
        steady_state(&conv.ctmc, &tight)
            .unwrap_or_else(|e| panic!("push capacity {push_capacity}: {e}"));
    }
}

/// FAME2 MPI ping-pong: absorbing round trip, so the measure is the mean
/// latency cross-validated by simulated hitting times.
#[test]
fn fame2_ping_pong_golden() {
    let config = MpiConfig {
        topology: Topology::Crossbar(2),
        protocol: Protocol::Msi,
        implementation: MpiImpl::Eager,
        payload: 1,
    };
    let rates = RateConfig::default();
    let explored = explore_model(&MpiModel::ping_pong(config), 4_000_000).expect("explores");
    check_golden("fame2_ping_pong.aut", &write_aut(&explored.lts));

    let chain = ping_pong_chain(&config, &rates).expect("builds chain");
    let latency = mean_time_to_target(&chain.conv.ctmc, &chain.done, &SolveOptions::default())
        .expect("solves");
    let run = McSim::new(&chain.conv.ctmc).hitting_time(&chain.done, 1e4, &mc_opts(5e-3));

    let mut snap = String::new();
    let _ = writeln!(snap, "functional states: {}", chain.functional_states);
    let _ = writeln!(snap, "ctmc states: {}", chain.conv.ctmc.num_states());
    let _ = writeln!(snap, "completion states: {}", chain.done.len());
    let _ = writeln!(snap, "mean latency: {latency:.6}");
    let _ = writeln!(snap, "mc hitting time: {}", fmt_run_scalar(&run));
    check_golden("fame2_ping_pong.measures.txt", &snap);

    let e = &run.estimates[0];
    assert!(
        (e.mean - latency).abs() <= e.half_width + 2e-3,
        "mc {} ± {} vs latency {latency}",
        e.mean,
        e.half_width
    );
}

/// Snapshots a reduction-pipeline run: the resolved order, every stage's
/// product → reduced counts with the gates hidden there, the peak, and the
/// monolithic product it must strictly undercut.
fn pipeline_snapshot(net: &Network) -> (String, multival::lts::Lts) {
    use multival::lts::minimize::Equivalence;
    let run = run_pipeline(net, &PipelineOptions::default());
    assert!(run.complete(), "case-study networks reduce without a budget");
    let mono = monolithic(net, Equivalence::Branching, Workers::sequential());
    assert_eq!(
        write_aut(&run.lts),
        write_aut(&mono.lts),
        "pipeline must agree with the monolithic reference"
    );
    assert!(
        run.peak_states() < mono.product_states,
        "pipeline peak {} must undercut the monolithic product {}",
        run.peak_states(),
        mono.product_states
    );
    let mut snap = String::new();
    let _ = writeln!(snap, "components: {}", net.components().len());
    let names: Vec<&str> = run.order.iter().map(|&i| net.components()[i].0.as_str()).collect();
    let _ = writeln!(snap, "order: {}", names.join(" "));
    for s in &run.stages {
        let hidden = if s.hidden.is_empty() { "-".to_owned() } else { s.hidden.join(",") };
        let _ = writeln!(
            snap,
            "stage {} fold {}: {}/{} -> {}/{} hide {}",
            s.stage,
            s.component,
            s.states_before,
            s.transitions_before,
            s.states_after,
            s.transitions_after,
            hidden
        );
    }
    let _ = writeln!(snap, "peak intermediate states: {}", run.peak_states());
    let _ = writeln!(
        snap,
        "monolithic product: {} states / {} transitions",
        mono.product_states, mono.product_transitions
    );
    let _ = writeln!(
        snap,
        "reduced: {} states / {} transitions",
        run.lts.num_states(),
        run.lts.num_transitions()
    );
    (snap, run.lts)
}

/// Smart reduction over the three case-study networks: the per-stage
/// accounting and the canonical reduced LTSs are golden, and on every
/// network the pipeline's peak stays strictly below the monolithic
/// product (the compositional win the paper's flow rests on).
///
/// The FAUST complement mesh renders to an ~82k-line `.aut`, so its
/// fixture is the compact binary `.blts` plus the SHA-256 of the
/// canonical text render — any drift still fails, without megabytes of
/// committed text.
#[test]
fn reduction_pipeline_golden() {
    let cases: [(&str, Network); 3] = [
        ("xstream_pipeline", xstream_network(&PipelineConfig::default())),
        ("fame2_ping_pong", ping_pong_network(2)),
        ("faust_complement", complement_network()),
    ];
    for (name, net) in cases {
        let (snap, lts) = pipeline_snapshot(&net);
        check_golden(&format!("pipeline_{name}.stages.txt"), &snap);
        if name == "faust_complement" {
            check_golden_blts("pipeline_faust_complement.blts", &lts);
            let digest =
                format!("{}\n", multival_integration::sha256_hex(write_aut(&lts).as_bytes()));
            check_golden("pipeline_faust_complement.aut.sha256", &digest);
        } else {
            check_golden(&format!("pipeline_{name}.aut"), &write_aut(&lts));
        }
    }
}

/// The explored numbering of every committed example: the digest of
/// `multival explore <stem>.lot --aut` pins state ids, transition order
/// and the label table, not just the canonical quotient. The digests were
/// generated by the term-rewriting explorer, so they also pin that the
/// compiled explorer numbers states exactly as a BFS over terms does.
#[test]
fn explored_numbering_golden() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let mut stems: Vec<String> = std::fs::read_dir(&examples)
        .expect("examples dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().expect("utf-8 name");
            name.strip_suffix(".lot").map(str::to_owned)
        })
        .collect();
    stems.sort();
    assert!(stems.len() >= 11, "the committed examples are all found: {stems:?}");
    for stem in stems {
        let source = std::fs::read_to_string(examples.join(format!("{stem}.lot"))).expect("read");
        let spec = parse_spec(&source).expect("example parses");
        let lts = explore(&spec, &ExploreOptions::default()).expect("example explores").lts;
        let digest = format!("{}\n", multival_integration::sha256_hex(write_aut(&lts).as_bytes()));
        check_golden(&format!("explore_{stem}.aut.sha256"), &digest);
    }
}

/// Scheduler-quantified bounds for the two nondeterministic case studies:
/// the xSTream routed pipeline (fast/slow NoC route chosen per transfer)
/// and the FAME2 contended fabric (cache-to-cache flush vs home-memory
/// fetch). Each fixture pins the CTMDP shape and the `[min, max]`
/// interval, plus the deterministic references the endpoints must match —
/// so a regression in the lifting, the uniformization, or the value
/// iteration shows up as a one-line diff.
#[test]
fn scheduler_bounds_golden() {
    // xSTream: the interval endpoints are provably the always-slow and
    // always-fast single-route pipelines.
    let cfg = NocBoundsConfig::default();
    let b = throughput_bounds(&cfg).expect("bounds");
    let slow =
        analyze(&PerfConfig { transfer_rate: cfg.slow_rate, ..cfg.base }).expect("slow pipeline");
    let fast =
        analyze(&PerfConfig { transfer_rate: cfg.fast_rate, ..cfg.base }).expect("fast pipeline");
    let mut snap = String::new();
    let _ = writeln!(
        snap,
        "routed pipeline ctmdp states: {} ({} instant)",
        b.ctmdp_states, b.instant_states
    );
    let _ = writeln!(snap, "throughput bounds: [{:.6}, {:.6}]", b.min, b.max);
    let _ = writeln!(snap, "always-slow pipeline: {:.6}", slow.throughput);
    let _ = writeln!(snap, "always-fast pipeline: {:.6}", fast.throughput);
    check_golden("bounds_xstream.txt", &snap);
    assert!(b.max > b.min + 1e-6, "the routed pipeline must have a genuine spread");
    assert!((b.min - slow.throughput).abs() < 1e-6 && (b.max - fast.throughput).abs() < 1e-6);

    // FAME2: the contended fabric has a genuine spread; the cyclic
    // ping-pong benchmark is confluent, so its interval collapses onto the
    // seed's uniform-policy answer — both facts are part of the fixture.
    let rates = RateConfig::default();
    let fabric = contended_fabric_bounds(&rates, 1).expect("fabric bounds");
    let config = MpiConfig {
        topology: Topology::Crossbar(2),
        protocol: Protocol::Msi,
        implementation: MpiImpl::Eager,
        payload: 1,
    };
    let cyclic = ping_pong_bandwidth_bounds(&config, &rates).expect("cyclic bounds");
    let uniform = ping_pong_bandwidth(&config, &rates).expect("uniform bandwidth");
    let mut snap = String::new();
    let _ = writeln!(
        snap,
        "contended fabric ctmdp states: {} ({} instant)",
        fabric.ctmdp_states, fabric.instant_states
    );
    let _ = writeln!(
        snap,
        "rounds/time bounds: [{:.6}, {:.6}]",
        fabric.min_rounds_per_time, fabric.max_rounds_per_time
    );
    let _ = writeln!(
        snap,
        "cyclic ping-pong ctmdp states: {} ({} instant)",
        cyclic.ctmdp_states, cyclic.instant_states
    );
    let _ = writeln!(
        snap,
        "cyclic ping-pong bounds: [{:.6}, {:.6}]",
        cyclic.min_rounds_per_time, cyclic.max_rounds_per_time
    );
    let _ = writeln!(snap, "cyclic ping-pong uniform: {:.6}", uniform.rounds_per_time);
    check_golden("bounds_fame2.txt", &snap);
    assert!(
        fabric.max_rounds_per_time > fabric.min_rounds_per_time + 1e-6,
        "the fabric arbitration must have a genuine spread"
    );
    assert!(
        (cyclic.max_rounds_per_time - cyclic.min_rounds_per_time).abs() < 1e-9
            && (cyclic.min_rounds_per_time - uniform.rounds_per_time).abs() < 1e-6,
        "the confluent cyclic benchmark must collapse onto the uniform policy"
    );
}

/// FAUST NoC single packet: absorbing delivery, measured as the mean
/// quiescence time cross-validated by simulated hitting times.
#[test]
fn faust_single_packet_golden() {
    let (dest, link_rate, local_rate) = (3, 4.0, 20.0);
    let spec = parse_spec(&single_packet_source(dest)).expect("parses");
    let explored = explore(&spec, &ExploreOptions::default()).expect("explores");
    check_golden("faust_single_packet.aut", &write_aut(&explored.lts));

    let (conv, done) = single_packet_chain(dest, link_rate, local_rate).expect("builds chain");
    let latency = mean_time_to_target(&conv.ctmc, &done, &SolveOptions::default()).expect("solves");
    let run = McSim::new(&conv.ctmc).hitting_time(&done, 1e4, &mc_opts(2e-2));

    let mut snap = String::new();
    let _ = writeln!(snap, "functional states: {}", explored.lts.num_states());
    let _ = writeln!(snap, "ctmc states: {}", conv.ctmc.num_states());
    let _ = writeln!(snap, "delivery states: {}", done.len());
    let _ = writeln!(snap, "mean quiescence time: {latency:.6}");
    let _ = writeln!(snap, "mc hitting time: {}", fmt_run_scalar(&run));
    check_golden("faust_single_packet.measures.txt", &snap);

    let e = &run.estimates[0];
    assert!(
        (e.mean - latency).abs() <= e.half_width + 5e-3,
        "mc {} ± {} vs latency {latency}",
        e.mean,
        e.half_width
    );
}
