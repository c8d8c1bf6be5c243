//! E9 timing: stochastic lumping and bisimulation minimization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multival::imc::compositional::{compose_minimize, Component, PipelineOptions};
use multival::imc::{lump, Imc, ImcBuilder, LumpOptions};
use multival::lts::minimize::{minimize, Equivalence};
use multival::models::xstream::pipeline::{build_monolithic, PipelineConfig};

fn symmetric_farm(n: usize) -> Vec<Component> {
    let source = {
        let mut b = ImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.markovian(s0, s1, 1.0).expect("rate");
        b.interactive(s1, "go", s0);
        b.build(s0)
    };
    let server = || -> Imc {
        let mut b = ImcBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, "go", s1);
        b.markovian(s1, s0, 2.0).expect("rate");
        b.build(s0)
    };
    let mut comps = vec![Component::new("src", source, [] as [&str; 0])];
    for i in 0..n {
        comps.push(Component::new(&format!("srv{i}"), server(), ["go"]));
    }
    comps
}

fn bench_compose_minimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("compose_minimize");
    for n in [4usize, 6, 8] {
        let comps = symmetric_farm(n);
        group.bench_with_input(BenchmarkId::new("lumping_on", n), &comps, |b, comps| {
            b.iter(|| compose_minimize(comps, &PipelineOptions::default()).0.num_states())
        });
        group.bench_with_input(BenchmarkId::new("lumping_off", n), &comps, |b, comps| {
            b.iter(|| {
                compose_minimize(comps, &PipelineOptions { minimize: false, ..Default::default() })
                    .0
                    .num_states()
            })
        });
    }
    group.finish();
}

fn bench_single_lump(c: &mut Criterion) {
    // Lump the biggest unminimized farm product once.
    let comps = symmetric_farm(8);
    let (product, _) =
        compose_minimize(&comps, &PipelineOptions { minimize: false, ..Default::default() });
    c.bench_function("lump_farm8", |b| {
        b.iter(|| lump(&product, &LumpOptions::default()).0.num_states())
    });
}

fn bench_lts_minimization(c: &mut Criterion) {
    let cfg = PipelineConfig { push_capacity: 6, pop_capacity: 6, credits: 6 };
    let lts = build_monolithic(&cfg).lts;
    let mut group = c.benchmark_group("lts_minimize");
    group.bench_function("strong", |b| {
        b.iter(|| minimize(&lts, Equivalence::Strong).0.num_states())
    });
    group.bench_function("branching", |b| {
        b.iter(|| minimize(&lts, Equivalence::Branching).0.num_states())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compose_minimize, bench_single_lump, bench_lts_minimization
}
criterion_main!(benches);
