//! E1 timing: state-space generation and compositional construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multival::models::xstream::pipeline::{
    build_buffer_chain, build_compositional, build_monolithic, PipelineConfig,
};
use multival::pa::{explore, parse_spec, ExploreOptions};
use multival_bench::baseline::three_queues_src;

fn bench_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore");
    for cap in [2i64, 4, 8] {
        let spec = parse_spec(&three_queues_src(cap)).expect("parses");
        group.bench_with_input(BenchmarkId::new("three_queues", cap), &spec, |b, spec| {
            b.iter(|| explore(spec, &ExploreOptions::default()).expect("explores").lts.num_states())
        });
    }
    group.finish();
}

fn bench_pipeline_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_build");
    let cfg = PipelineConfig { push_capacity: 4, pop_capacity: 4, credits: 4 };
    group.bench_function("monolithic_cap4", |b| b.iter(|| build_monolithic(&cfg).lts.num_states()));
    group.bench_function("compositional_cap4", |b| {
        b.iter(|| build_compositional(&cfg).lts.num_states())
    });
    group.finish();
}

fn bench_buffer_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_chain_k10");
    group.bench_function("monolithic", |b| b.iter(|| build_buffer_chain(10, false).peak_states));
    group.bench_function("compositional", |b| b.iter(|| build_buffer_chain(10, true).peak_states));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_exploration, bench_pipeline_builds, bench_buffer_chain
}
criterion_main!(benches);
