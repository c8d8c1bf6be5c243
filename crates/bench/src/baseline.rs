//! The `BENCH_baseline.json` emitter (`experiments --bench-json`):
//! machine-readable state counts and wall-clock times for the E1 and E9
//! workloads, plus the 1-vs-4-thread Monte-Carlo speedup, the one
//! state-space-adjacent path that runs in parallel.
//!
//! The JSON is handwritten (no serde in the dependency closure); every
//! number is either an integer or a `{:.3}`-formatted millisecond float,
//! so the output is stable enough to diff across commits.

use multival::ctmc::dense::transient_dense;
use multival::ctmc::transient::transient;
use multival::ctmc::{Ctmc, CtmcBuilder, McOptions, McSim, TransientOptions, Workers};
use multival::fuzz::{run_fuzz, FuzzOptions};
use multival::imc::compositional::{compose_minimize, peak_states, Component, PipelineOptions};
use multival::imc::ImcBuilder;
use multival::lts::ops::compose_all;
use multival::lts::pipeline::{
    monolithic, run_pipeline, Network, PipelineOptions as ReduceOptions,
};
use multival::lts::reach::{deadlock_search, ReachOptions};
use multival::lts::ts::LazyProduct;
use multival::lts::Lts;
use multival::models::fame2::network::ping_pong_network;
use multival::models::faust::mesh::{complement_network_n, complement_spec_n};
use multival::models::faust::noc::complement_network;
use multival::models::rings::{ring_parts, ring_sync};
use multival::models::xmas::GenConfig;
use multival::models::xstream::pipeline::{network as xstream_network, PipelineConfig};
use multival::pa::{explore, explore_term_store_partial, parse_spec, ExploreOptions};
use multival::par::fx::FxHashMap;
use multival::par::par_map_stats;
use multival_svc::json::{parse, Json};
use multival_svc::server::{serve, ServerConfig};
use multival_svc::sweep::{run_explore_space, SweepOptions, SweepSpec};
use std::error::Error;
use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The three-interleaved-queues E1 workload (same source as the
/// `state_space` Criterion bench).
pub fn three_queues_src(cap: i64) -> String {
    format!(
        "process Queue[enq, deq](n: int 0..8, c: int 1..8) :=
             [n < c] -> enq; Queue[enq, deq](n + 1, c)
          [] [n > 0] -> deq; Queue[enq, deq](n - 1, c)
         endproc
         behaviour Queue[a, b](0, {cap}) ||| Queue[c, d](0, {cap}) ||| Queue[e, f](0, {cap})"
    )
}

/// Runs `f` three times and returns the last value with the best (minimum)
/// wall-clock — a cheap noise filter for a one-shot baseline file.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best = Duration::MAX;
    let mut value = None;
    for _ in 0..3 {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed());
        value = Some(v);
    }
    (value.expect("three runs"), best)
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// A birth–death chain with `n` states: two transitions per row, so the
/// uniformization step is the sparse regime where CSR beats a dense matrix.
fn birth_death(n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new(n);
    for i in 0..n {
        if i + 1 < n {
            b.rate(i, i + 1, 3.0).expect("rate");
        }
        if i > 0 {
            b.rate(i, i - 1, 2.0).expect("rate");
        }
    }
    b.build().expect("chain")
}

/// The E9 server-farm workload (same shape as the `lumping` bench).
fn farm(n: usize) -> Vec<Component> {
    let source = {
        let mut b = ImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.markovian(s0, s1, 1.0).expect("rate");
        b.interactive(s1, "go", s0);
        b.build(s0)
    };
    let mut comps = vec![Component::new("src", source, [] as [&str; 0])];
    for i in 0..n {
        let mut b = ImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, "go", s1);
        b.markovian(s1, s0, 2.0).expect("rate");
        comps.push(Component::new(&format!("srv{i}"), b.build(s0), ["go"]));
    }
    comps
}

/// Renders the baseline JSON document.
///
/// # Errors
///
/// Propagates parse/exploration errors from the E1 workloads.
pub fn bench_baseline() -> Result<String, Box<dyn Error>> {
    let mut out = String::from("{\n  \"e1_three_queues\": [\n");

    // E1: sequential exploration at each cap.
    let caps = [2i64, 4, 8];
    for (i, &cap) in caps.iter().enumerate() {
        let spec = parse_spec(&three_queues_src(cap))?;
        let (explored, wall) =
            timed(|| explore(&spec, &ExploreOptions::default()).expect("explores"));
        let _ = write!(
            out,
            "    {{\"cap\": {cap}, \"states\": {}, \"transitions\": {}, \"wall_ms\": {}}}",
            explored.lts.num_states(),
            explored.lts.num_transitions(),
            ms(wall)
        );
        out.push_str(if i + 1 < caps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    // E1 on-the-fly: deadlock search over the lazy counter-ring product
    // visits a fraction of what eager composition materializes.
    out.push_str("  \"e1_on_the_fly\": [\n");
    let rings = [(2usize, 8usize), (3, 8), (3, 16)];
    for (i, &(n, len)) in rings.iter().enumerate() {
        let parts = ring_parts(n, len);
        let refs: Vec<&Lts> = parts.iter().collect();
        let sync = ring_sync();
        let (materialized, wall_eager) = timed(|| compose_all(&refs, &sync).num_states());
        let (outcome, wall_fly) =
            timed(|| deadlock_search(&LazyProduct::new(&refs, &sync), &ReachOptions::default()));
        let _ = write!(
            out,
            "    {{\"rings\": {n}, \"len\": {len}, \"materialized_states\": {materialized}, \
             \"visited_states\": {}, \"wall_ms_eager\": {}, \"wall_ms_fly\": {}}}",
            outcome.stats.visited,
            ms(wall_eager),
            ms(wall_fly)
        );
        out.push_str(if i + 1 < rings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    // Sparse kernels: the dense n×n uniformization reference vs the CSR
    // path on birth–death chains (2 transitions per row).
    out.push_str("  \"kernels_transient\": [\n");
    let chain_sizes = [128usize, 512, 2048];
    let t_opts = TransientOptions::default();
    for (i, &n) in chain_sizes.iter().enumerate() {
        let chain = birth_death(n);
        let (dense, wall_dense) =
            timed(|| transient_dense(&chain, 1.0, &t_opts).expect("dense transient"));
        let (csr, wall_csr) = timed(|| transient(&chain, 1.0, &t_opts).expect("csr transient"));
        let max_diff = dense.iter().zip(&csr).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        let _ = write!(
            out,
            "    {{\"states\": {n}, \"wall_ms_dense\": {}, \"wall_ms_csr\": {}, \
             \"max_abs_diff\": {max_diff:.3e}}}",
            ms(wall_dense),
            ms(wall_csr)
        );
        out.push_str(if i + 1 < chain_sizes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    // Monte-Carlo thread scaling: occupancy estimation with the width
    // stopping rule disabled, so both runs sample the full trajectory
    // budget and the walls are comparable. The estimates must come out
    // bit-identical — that equality is the determinism acceptance gate.
    // `hardware_threads` qualifies the speedup: on a single-core host the
    // physical ceiling is 1.0x regardless of the worker count.
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let sim = McSim::new(&birth_death(64));
    let sim_opts = |threads: usize| McOptions {
        seed: 7,
        workers: Workers::new(threads),
        max_trajectories: 4096,
        rel_width: 0.0,
        abs_width: 0.0,
        ..McOptions::default()
    };
    let (run_t1, sim_wall_t1) = timed(|| sim.occupancy(50.0, &sim_opts(1)));
    let (run_t4, sim_wall_t4) = timed(|| sim.occupancy(50.0, &sim_opts(4)));
    let estimates_equal = run_t1
        .estimates
        .iter()
        .zip(&run_t4.estimates)
        .all(|(a, b)| a.mean.to_bits() == b.mean.to_bits());
    let _ = writeln!(
        out,
        "  \"mc_simulation_threads\": {{\"model\": \"birth_death_64\", \
         \"trajectories\": {}, \"hardware_threads\": {hw}, \
         \"wall_ms_t1\": {}, \"wall_ms_t4\": {}, \"speedup_t4\": {:.2}, \
         \"estimates_equal\": {estimates_equal}}},",
        run_t1.trajectories,
        ms(sim_wall_t1),
        ms(sim_wall_t4),
        sim_wall_t1.as_secs_f64() / sim_wall_t4.as_secs_f64().max(1e-9)
    );

    // Service layer: end-to-end HTTP throughput on a loopback socket —
    // eight concurrent clients, a cold round (results computed) and a warm
    // round (identical jobs, answered from the content-addressed cache).
    out.push_str(&serve_throughput_section()?);

    // State storage: the pluggable dedup backends (E12). Fast mode sizes
    // the 3×3 pool-throttled mesh; `BENCH_FULL=1` runs the 4×4 frontier
    // instance (~470k states, ~1.5M transitions, minutes per backend).
    out.push_str(&state_store_section(full_mode())?);

    // Hot-path hashing: SipHash (std default) vs the FxHash used by the
    // explorer's state index and the label interner.
    out.push_str(&hash_interning_section());

    // Adaptive chunking: how `par_map_stats` actually scheduled a cheap
    // and a costly workload on this machine (workers == 1 reports the
    // sequential fast path that fixed the historical negative speedups).
    out.push_str(&par_chunking_section());

    // Reduction pipeline: the smart compositional order vs the monolithic
    // product on the three case-study networks. The paper's flow rests on
    // `peak_states` staying strictly below `product_states`.
    out.push_str(&pipeline_reduction_section(full_mode()));

    // E9: compositional IMC generation with lumping.
    out.push_str("  \"e9_farm\": [\n");
    let sizes = [4usize, 6, 8];
    for (i, &n) in sizes.iter().enumerate() {
        let comps = farm(n);
        let ((product, stages), wall) =
            timed(|| compose_minimize(&comps, &PipelineOptions::default()));
        let _ = write!(
            out,
            "    {{\"servers\": {n}, \"peak_states\": {}, \"final_states\": {}, \
             \"wall_ms\": {}}}",
            peak_states(&stages),
            product.num_states(),
            ms(wall)
        );
        out.push_str(if i + 1 < sizes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    // Sweep driver: points/sec on the golden-spec shape, cold vs a rerun
    // through a shared disk cache.
    out.push_str(&explore_space_section()?);

    // xMAS workbench: differential fuzzing throughput at two size tiers.
    out.push_str(&fuzz_fabrics_section(full_mode()));
    out.push_str("}\n");
    Ok(out)
}

/// The `fuzz_fabrics` section: end-to-end throughput of the xMAS
/// differential fuzz harness (generate → compile → reduce → four oracles)
/// at two topology size tiers. `fabrics_per_sec` is the sweep rate over
/// seeds; `states_per_sec` counts the states visited by the per-component
/// pipeline reductions inside those sweeps. The sweep doubles as a cheap
/// correctness gate — a baseline run with any oracle mismatch panics.
fn fuzz_fabrics_section(full: bool) -> String {
    let mut out = String::from("  \"fuzz_fabrics\": [\n");
    let tiers: [(&str, usize, u64); 2] =
        [("small", 7, if full { 32 } else { 8 }), ("large", 10, if full { 12 } else { 4 })];
    for (i, &(tier, max_steps, seeds)) in tiers.iter().enumerate() {
        let options = FuzzOptions {
            seed_end: seeds,
            gen: GenConfig { max_steps, ..GenConfig::default() },
            ..FuzzOptions::default()
        };
        let (report, wall) = timed(|| run_fuzz(&options));
        assert!(report.mismatches.is_empty(), "baseline fuzz sweep must be clean");
        let secs = wall.as_secs_f64().max(1e-9);
        let _ = write!(
            out,
            "    {{\"tier\": \"{tier}\", \"max_steps\": {max_steps}, \"seeds\": {seeds}, \
             \"states\": {}, \"fabrics_per_sec\": {:.2}, \"states_per_sec\": {:.0}, \
             \"wall_ms\": {}}}",
            report.states_explored,
            seeds as f64 / secs,
            report.states_explored as f64 / secs,
            ms(wall)
        );
        out.push_str(if i + 1 < tiers.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n");
    out
}

/// The `explore_space` section: sweep-driver throughput on the same spec
/// shape as the committed `tests/data/sweep_xstream.toml` golden (Erlang
/// order × push depth over the xSTream pipeline). The cold run evaluates
/// every point into a fresh disk cache; the warm rerun must be answered
/// entirely from that cache — a cold-equals-warm report mismatch or a
/// warm evaluation is a correctness failure, not a slow baseline.
fn explore_space_section() -> Result<String, Box<dyn Error>> {
    const SPEC: &str = "\
        name = \"xstream_erlang_depth\"\n\
        model = \"xstream_pipeline\"\n\
        [base]\n\
        transfer_rate = 4.0\n\
        [axes]\n\
        delay = [\"erlang:1\", \"erlang:2\", \"erlang:4\", \"erlang:8\"]\n\
        push_capacity = [1, 2]\n";
    let spec = SweepSpec::parse(SPEC)?;
    let cache_dir =
        std::env::temp_dir().join(format!("multival-bench-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir)?;
    let options = SweepOptions {
        workers: 4,
        endpoint: None,
        cache_dir: Some(cache_dir.clone()),
        max_states: None,
    };
    // The cold run is single-shot: `timed`'s best-of-3 would let runs 2-3
    // answer from the disk cache run 1 just filled, reporting cache-served
    // throughput as evaluation throughput.
    let started = Instant::now();
    let cold = run_explore_space(&spec, &options).expect("cold sweep");
    let cold_wall = started.elapsed();
    let (warm, warm_wall) = timed(|| run_explore_space(&spec, &options).expect("warm sweep"));
    assert_eq!(
        cold.report().render(),
        warm.report().render(),
        "cache-served rerun must render identically"
    );
    assert_eq!(cold.evaluated, spec.num_points() as u64, "a fresh dir must evaluate every point");
    assert_eq!(warm.evaluated, 0, "warm sweep must be answered from the disk cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let points = spec.num_points();
    let ratio = |hits: u64| hits as f64 / points as f64;
    Ok(format!(
        "  \"explore_space\": {{\"points\": {points}, \"pareto_points\": {}, \
         \"cold\": {{\"evaluated\": {}, \"cache_hit_ratio\": {:.2}, \
         \"points_per_sec\": {:.1}, \"wall_ms\": {}}}, \
         \"warm\": {{\"evaluated\": {}, \"cache_hit_ratio\": {:.2}, \
         \"points_per_sec\": {:.1}, \"wall_ms\": {}}}}},\n",
        cold.front.len(),
        cold.evaluated,
        ratio(cold.cache_hits),
        points as f64 / cold_wall.as_secs_f64().max(1e-9),
        ms(cold_wall),
        warm.evaluated,
        ratio(warm.cache_hits),
        points as f64 / warm_wall.as_secs_f64().max(1e-9),
        ms(warm_wall),
    ))
}

/// `BENCH_FULL=1` adds the slow E12 frontier rows (the 4×4 mesh
/// exploration and the 3×3 mesh reduction — minutes to hours of wall
/// clock); the default keeps `--bench-json` and the well-formedness test
/// cheap.
fn full_mode() -> bool {
    std::env::var("BENCH_FULL").as_deref() == Ok("1")
}

/// The `state_store` section: one flat exploration of the pool-throttled
/// bit-complement mesh in the arena store, and one under a stated memory
/// budget tight enough to page key segments to disk. Both must agree on
/// the state/transition counts (the differential suite separately pins
/// byte equality). Keys are packed leaf-id vectors,
/// one byte per component here (65 on the 4×4 mesh, ~30 MiB in all;
/// 34 on the 3×3, ~52 KiB), so the budgets sit below those totals.
fn state_store_section(full: bool) -> Result<String, Box<dyn Error>> {
    let (model, n, k, budget) =
        if full { ("mesh_4x4", 4, 3, 16usize << 20) } else { ("mesh_3x3", 3, 2, 16 << 10) };
    let spec = complement_spec_n(n, Some(k))?;
    let opts = ExploreOptions {
        max_states: 2_000_000,
        max_transitions: 16_000_000,
        ..ExploreOptions::default()
    };
    let mut out = String::from("  \"state_store\": [\n");
    let rows = [("arena", None), ("spill", Some(budget))];
    for (i, &(backend, mem_budget)) in rows.iter().enumerate() {
        let start = Instant::now();
        let run = explore_term_store_partial(spec.top().clone(), &spec, &opts, mem_budget);
        let wall = start.elapsed();
        assert!(run.aborted.is_none(), "{model} exploration aborted: {:?}", run.aborted);
        let _ = write!(
            out,
            "    {{\"model\": \"{model}\", \"backend\": \"{backend}\", \"mem_budget\": {}, \
             \"states\": {}, \"transitions\": {}, \"wall_ms\": {}, \
             \"resident_bytes\": {}, \"spilled_bytes\": {}, \"spilled_segments\": {}}}",
            mem_budget.map_or("null".to_owned(), |b| b.to_string()),
            run.lts.num_states(),
            run.lts.num_transitions(),
            ms(wall),
            run.store.mem_bytes,
            run.store.spilled_bytes,
            run.store.spilled_segments
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    Ok(out)
}

/// The `hash_interning` section: interning + probing a seen-set of short
/// binary keys (the explorer's hot dedup shape) through std's SipHash
/// map vs the FxHash map the hot paths now use.
fn hash_interning_section() -> String {
    const KEYS: usize = 200_000;
    let keys: Vec<[u8; 24]> = (0..KEYS as u64)
        .map(|i| {
            let mut k = [0u8; 24];
            k[..8].copy_from_slice(&i.to_le_bytes());
            k[8..16].copy_from_slice(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
            k[16..].copy_from_slice(&(i << 7 ^ 0xfeed).to_le_bytes());
            k
        })
        .collect();
    let (sip_len, wall_sip) = timed(|| {
        let mut m: std::collections::HashMap<&[u8], u32> = std::collections::HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            m.insert(k, i as u32);
        }
        let mut hits = 0usize;
        for k in &keys {
            hits += usize::from(m.contains_key(k.as_slice()));
        }
        hits
    });
    let (fx_len, wall_fx) = timed(|| {
        let mut m: FxHashMap<&[u8], u32> = FxHashMap::default();
        for (i, k) in keys.iter().enumerate() {
            m.insert(k, i as u32);
        }
        let mut hits = 0usize;
        for k in &keys {
            hits += usize::from(m.contains_key(k.as_slice()));
        }
        hits
    });
    assert_eq!(sip_len, fx_len, "both maps must intern every key");
    format!(
        "  \"hash_interning\": {{\"keys\": {KEYS}, \"wall_ms_siphash\": {}, \
         \"wall_ms_fxhash\": {}, \"speedup\": {:.2}}},\n",
        ms(wall_sip),
        ms(wall_fx),
        wall_sip.as_secs_f64() / wall_fx.as_secs_f64().max(1e-9)
    )
}

/// The `par_chunking` section: the adaptive stride's actual schedule on a
/// cheap and a costly workload. The numbers of record are the chunk
/// statistics — on a single-core host both rows degenerate to the
/// sequential fast path (`workers: 1`), which is itself the fix the
/// negative historical `speedup_t4` rows called for.
fn par_chunking_section() -> String {
    let cheap: Vec<u64> = (0..59_049u64).collect();
    let (_, cheap_stats) = par_map_stats(Workers::new(4), 4096, &cheap, |i, &x| x * 2 + i as u64);
    let costly: Vec<u64> = (0..512u64).collect();
    let (_, costly_stats) = par_map_stats(Workers::new(4), 16, &costly, |_, &x| {
        let mut acc = x;
        for i in 0..2_000u64 {
            acc = std::hint::black_box(
                acc.wrapping_mul(6_364_136_223_846_793_005).rotate_left((i % 63) as u32),
            );
        }
        acc
    });
    let row = |name: &str, s: &multival::par::ParStats| {
        format!(
            "    {{\"workload\": \"{name}\", \"items\": {}, \"workers\": {}, \
             \"initial_chunk\": {}, \"max_chunk\": {}, \"grabs\": {}}}",
            s.items, s.workers, s.initial_chunk, s.max_chunk, s.grabs
        )
    };
    format!(
        "  \"par_chunking\": [\n{},\n{}\n  ],\n",
        row("cheap_items", &cheap_stats),
        row("costly_items", &costly_stats)
    )
}

/// The `pipeline_reduction` section: monolithic product size vs the smart
/// pipeline's peak intermediate on the three case-study networks. Timed
/// once per side — the numbers of record here are state counts, not walls.
///
/// In full mode a fourth row probes the pool-throttled 4×4 mesh under an
/// explicit intermediate-state budget and a spill-store memory budget.
/// That row has no monolithic reference and may legitimately report
/// `complete: false`: the mesh's global flow-control constraint binds
/// only once every component has folded (E11's honest limit), so its
/// intermediate products — past a million states — are exactly the
/// frontier the budgets and the spill backend exist to probe safely.
fn pipeline_reduction_section(full: bool) -> String {
    use multival::lts::minimize::Equivalence;
    let cases: [(&str, Network); 3] = [
        ("xstream_pipeline", xstream_network(&PipelineConfig::default())),
        ("fame2_ping_pong", ping_pong_network(2)),
        ("faust_complement", complement_network()),
    ];
    let mut out = String::from("  \"pipeline_reduction\": [\n");
    let last = cases.len() - 1;
    for (i, (name, net)) in cases.into_iter().enumerate() {
        let start = Instant::now();
        let mono = monolithic(&net, Equivalence::Branching, Workers::sequential());
        let wall_mono = start.elapsed();
        let start = Instant::now();
        let run = run_pipeline(&net, &ReduceOptions::default());
        let wall_smart = start.elapsed();
        assert!(run.complete(), "case-study networks reduce without a budget");
        let _ = write!(
            out,
            "    {{\"network\": \"{name}\", \"components\": {}, \
             \"product_states\": {}, \"peak_states\": {}, \"final_states\": {}, \
             \"wall_ms_monolithic\": {}, \"wall_ms_smart\": {}}}",
            net.components().len(),
            mono.product_states,
            run.peak_states(),
            run.lts.num_states(),
            ms(wall_mono),
            ms(wall_smart)
        );
        out.push_str(if i < last { ",\n" } else { "\n" });
    }
    if full {
        let net = complement_network_n(4, Some(3)).expect("mesh network extracts");
        let mem_budget = 8usize << 20;
        let state_budget = 4_000_000;
        let options = ReduceOptions {
            max_states: Some(state_budget),
            mem_budget: Some(mem_budget),
            ..ReduceOptions::default()
        };
        let start = Instant::now();
        let run = run_pipeline(&net, &options);
        let wall = start.elapsed();
        out.pop(); // rejoin the previous row: it was written as the last
        let _ = write!(
            out,
            ",\n    {{\"network\": \"faust_mesh_4x4\", \"components\": {}, \
             \"store\": \"spill\", \"mem_budget\": {mem_budget}, \
             \"max_states\": {state_budget}, \"complete\": {}, \"stages_done\": {}, \
             \"peak_states\": {}, \"wall_ms_smart\": {}}}\n",
            net.components().len(),
            run.complete(),
            run.stages.len(),
            run.peak_states(),
            ms(wall)
        );
    }
    out.push_str("  ],\n");
    out
}

/// One blocking HTTP exchange against the benchmark server.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default()
}

/// Submits one job and polls it to completion.
fn run_job(addr: SocketAddr, request: &str) {
    let body = http(addr, "POST", "/v1/jobs", request);
    let id = parse(&body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_num))
        .unwrap_or_else(|| panic!("submit failed: {body}")) as u64;
    loop {
        let body = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        match body.contains("\"status\":\"done\"") || body.contains("\"status\":\"failed\"") {
            true => return,
            false => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn cache_hits(addr: SocketAddr) -> u64 {
    let metrics = parse(&http(addr, "GET", "/v1/metrics", "")).expect("metrics JSON");
    let cache = metrics.get("cache").expect("cache section");
    let grab = |k: &str| cache.get(k).and_then(Json::as_num).expect("counter") as u64;
    grab("mem_hits") + grab("disk_hits")
}

/// Client-observed percentile over submit→done round-trip latencies.
fn pct_us(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

fn jobs_counter(addr: SocketAddr, name: &str) -> u64 {
    let metrics = parse(&http(addr, "GET", "/v1/metrics", "")).expect("metrics JSON");
    metrics
        .get("jobs")
        .and_then(|j| j.get(name))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("metrics counter jobs.{name}")) as u64
}

/// The `serve_throughput` section: one submit→done round trip per client
/// per row, against the event-loop server. `cold` is all-distinct
/// evaluations, `warm` re-submits them (pure cache hits), `coalesced`
/// piles every client onto one fresh request so exactly one evaluation
/// runs. Fast mode keeps a small client count for CI; `BENCH_FULL=1`
/// scales to 128 concurrent clients.
fn serve_throughput_section() -> Result<String, Box<dyn Error>> {
    let clients: usize = if full_mode() { 128 } else { 16 };
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_cap: clients.max(256),
        // The cache shards its capacity 8 ways; size it so even a shard
        // that drew every key keeps the whole working set resident, or
        // the warm round sees spurious evictions.
        cache_capacity: 8 * (clients + 1),
        mc_workers: 1,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bench server failed to start: {e}"))?;
    let addr = handle.addr();
    let source = three_queues_src(2).replace('\n', " ").replace('"', "\\\"");
    let request = |seed: usize| {
        format!(r#"{{"kind":"explore","model":{{"source":"{source}"}},"seed":{seed}}}"#)
    };
    // Runs one round: client `i` submits `seeds[i]` and polls it to done,
    // all clients concurrent. Returns (wall, per-client latencies in µs).
    let round = |seeds: Vec<usize>| {
        let start = Instant::now();
        let latencies: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let req = request(seed);
                    scope.spawn(move || {
                        let t = Instant::now();
                        run_job(addr, &req);
                        u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("bench client")).collect()
        });
        (start.elapsed(), latencies)
    };
    let row = |name: &str, wall: Duration, mut lat: Vec<u64>, extra: String| {
        format!(
            "\"{name}\": {{\"jobs\": {}, \"wall_ms\": {}, \"p50_us\": {}, \"p99_us\": {}{extra}}}",
            lat.len(),
            ms(wall),
            pct_us(&mut lat, 50.0),
            pct_us(&mut lat, 99.0),
        )
    };

    // Cold: every client evaluates its own distinct request.
    let (cold_wall, cold_lat) = round((0..clients).collect());
    let cold_evaluated = jobs_counter(addr, "evaluated");
    // Warm: the same requests again — all answered from the cache.
    let hits_before = cache_hits(addr);
    let (warm_wall, warm_lat) = round((0..clients).collect());
    let warm_hits = cache_hits(addr) - hits_before;
    let warm_evaluated = jobs_counter(addr, "evaluated");
    // Coalesced: everyone submits one identical fresh request at once;
    // in-flight coalescing must collapse the pile to a single evaluation.
    let (co_wall, co_lat) = round(vec![clients + 1; clients]);
    let co_evaluated = jobs_counter(addr, "evaluated") - warm_evaluated;
    let co_count = jobs_counter(addr, "coalesced");

    let stats = handle.shutdown_and_drain();
    Ok(format!(
        "  \"serve_throughput\": {{\"clients\": {clients}, {}, {}, {}, \
         \"dropped\": {}, \"drained_done\": {}}},\n",
        row("cold", cold_wall, cold_lat, format!(", \"evaluated\": {cold_evaluated}")),
        row("warm", warm_wall, warm_lat, format!(", \"cache_hits\": {warm_hits}")),
        row(
            "coalesced",
            co_wall,
            co_lat,
            format!(", \"evaluated\": {co_evaluated}, \"coalesced\": {co_count}")
        ),
        stats.rejected,
        stats.done
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_is_well_formed() {
        let json = bench_baseline().expect("runs");
        // Cheap structural checks: balanced braces/brackets and the keys
        // the acceptance gate and CI consumers look for.
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "{json}");
        for key in [
            "e1_three_queues",
            "speedup_t4",
            "e1_on_the_fly",
            "kernels_transient",
            "mc_simulation_threads",
            "serve_throughput",
            "state_store",
            "hash_interning",
            "par_chunking",
            "pipeline_reduction",
            "e9_farm",
            "fuzz_fabrics",
            "explore_space",
        ] {
            assert!(json.contains(key), "missing {key}:\n{json}");
        }
        // The service rows: nothing may be dropped, the warm round must be
        // answered entirely from the cache, and the coalesced round must
        // collapse every concurrent identical submission onto exactly one
        // evaluation.
        assert!(json.contains("\"dropped\": 0"), "{json}");
        for row in ["\"cold\": {", "\"warm\": {", "\"coalesced\": {"] {
            assert!(json.contains(row), "missing serve row {row}:\n{json}");
        }
        assert!(json.contains("\"cache_hits\": 16"), "{json}");
        assert!(json.contains("\"evaluated\": 1,"), "{json}");
        assert!(json.contains("\"p99_us\":"), "{json}");
        assert!(json.contains("\"drained_done\": 48"), "{json}");
        // CSR and dense kernels run the same truncation, so they agree far
        // below solver tolerance, and the threaded simulation must be
        // bit-deterministic.
        assert!(json.contains("\"estimates_equal\": true"), "{json}");
        // Three queues of capacity 8 interleaved: 9^3 = 729 states.
        assert!(json.contains("\"cap\": 8, \"states\": 729"), "{json}");
        // Three rings of 8: the eager product is 8^3 + 1 = 513 states; the
        // on-the-fly search must get away with strictly fewer.
        assert!(json.contains("\"materialized_states\": 513"), "{json}");
        let fly = json.split("\"e1_on_the_fly\"").nth(1).expect("section");
        for entry in fly.split('{').skip(1).take(3) {
            let grab = |key: &str| -> usize {
                entry
                    .split(key)
                    .nth(1)
                    .and_then(|s| s[2..].split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("missing {key} in {entry}"))
            };
            assert!(
                grab("\"visited_states\"") < grab("\"materialized_states\""),
                "on-the-fly visited no fewer states: {entry}"
            );
        }
        // The arena and spill rows must agree on the explored space, and
        // the tight fast-mode budget must actually force the store to page
        // key segments out.
        let store = json.split("\"state_store\"").nth(1).expect("section");
        let states: Vec<&str> = store
            .split("\"states\": ")
            .skip(1)
            .take(2)
            .map(|s| s.split(',').next().expect("number"))
            .collect();
        assert_eq!(states.len(), 2, "{json}");
        assert!(states.windows(2).all(|w| w[0] == w[1]), "backends disagree: {states:?}");
        let spill = store.split("\"backend\": \"spill\"").nth(1).expect("spill row");
        let spilled: usize = spill
            .split("\"spilled_segments\": ")
            .nth(1)
            .and_then(|s| s.split('}').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("spilled_segments");
        assert!(spilled > 0, "the tight budget must force paging: {json}");
        // The compositional win: on every case-study network the smart
        // pipeline's peak intermediate stays strictly below the monolithic
        // product.
        let reduction = json.split("\"pipeline_reduction\"").nth(1).expect("section");
        for entry in reduction.split('{').skip(1).take(3) {
            let grab = |key: &str| -> usize {
                entry
                    .split(key)
                    .nth(1)
                    .and_then(|s| s[2..].split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("missing {key} in {entry}"))
            };
            assert!(
                grab("\"peak_states\"") < grab("\"product_states\""),
                "pipeline peak must undercut the monolithic product: {entry}"
            );
        }
    }
}
