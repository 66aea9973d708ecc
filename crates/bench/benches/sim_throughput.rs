//! Criterion benches of the simulation substrate itself: simulator
//! throughput under different prefetchers, trace generation, and the
//! hot inner structures (the LRU page table, delta history).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hnp_baselines::{MarkovConfig, MarkovPrefetcher, StrideConfig, StridePrefetcher};
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::memory::LocalMemory;
use hnp_memsim::{NoPrefetcher, Prefetcher, SimConfig, Simulator};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Pattern;

fn bench_simulator(c: &mut Criterion) {
    let trace = AppWorkload::PageRankLike.generate(20_000, 3);
    let sim = Simulator::new(SimConfig::default().sized_to(&trace, 0.5));
    let mut group = c.benchmark_group("sim_20k_accesses");
    group.sample_size(10);
    type Factory = Box<dyn Fn() -> Box<dyn Prefetcher>>;
    let cases: Vec<(&str, Factory)> = vec![
        ("none", Box::new(|| Box::new(NoPrefetcher))),
        (
            "stride",
            Box::new(|| Box::new(StridePrefetcher::with_config(StrideConfig::default()))),
        ),
        (
            "markov",
            Box::new(|| Box::new(MarkovPrefetcher::with_config(MarkovConfig::default()))),
        ),
        (
            "cls-hebbian",
            Box::new(|| Box::new(ClsPrefetcher::new(ClsConfig::default()))),
        ),
    ];
    for (name, make) in cases {
        group.bench_function(BenchmarkId::new("prefetcher", name), |b| {
            b.iter(|| {
                let mut p = make();
                std::hint::black_box(sim.run(&trace, p.as_mut()))
            })
        });
    }
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.bench_function("trace_gen_pagerank_20k", |b| {
        b.iter(|| std::hint::black_box(AppWorkload::PageRankLike.generate(20_000, 3)))
    });
    group.bench_function("trace_gen_pattern_20k", |b| {
        b.iter(|| std::hint::black_box(Pattern::PointerChase.generate(20_000, 3)))
    });
    group.bench_function("lru_churn_10k", |b| {
        b.iter(|| {
            let mut m = LocalMemory::new(512);
            for i in 0..10_000u64 {
                let page = (i * 7) % 1024;
                if !m.contains(page) {
                    m.insert(page, false, i);
                }
                m.touch(page);
            }
            std::hint::black_box(m.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_substrate);
criterion_main!(benches);
