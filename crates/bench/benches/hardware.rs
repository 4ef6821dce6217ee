//! Criterion benches of the hardware simulator: datapath network
//! evaluation, the conversion kernels and whole engine requests.

use agnn_algo::pipeline::SampleParams;
use agnn_graph::datasets::Dataset;
use agnn_graph::{generate, Vid};
use agnn_hw::engine::AutoGnnEngine;
use agnn_hw::kernel::{convert, Reshaper, UpeKernel};
use agnn_hw::scr::Scr;
use agnn_hw::upe::Upe;
use agnn_hw::{HwConfig, ScrConfig, UpeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_upe_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("upe_networks");
    for width in [64usize, 256] {
        let upe = Upe::new(width);
        let cond: Vec<bool> = (0..width).map(|i| i % 3 == 0).collect();
        let values: Vec<u64> = (0..width as u64).collect();
        group.bench_with_input(BenchmarkId::new("prefix_sum", width), &width, |b, _| {
            b.iter(|| upe.prefix_sum_network(&cond))
        });
        group.bench_with_input(BenchmarkId::new("set_partition", width), &width, |b, _| {
            b.iter(|| upe.set_partition(&values, &cond))
        });
        group.bench_with_input(BenchmarkId::new("radix_chunk", width), &width, |b, _| {
            b.iter(|| upe.radix_sort_chunk(&values))
        });
    }
    group.finish();
}

fn bench_scr(c: &mut Criterion) {
    let mut group = c.benchmark_group("scr");
    let scr = Scr::new(1024);
    let window: Vec<u32> = (0..1024).collect();
    let mapping: Vec<(u32, u32)> = (0..1024).map(|i| (i * 7, i)).collect();
    group.bench_function("adder_tree_count", |b| {
        b.iter(|| scr.count_less_than(&window, 512))
    });
    group.bench_function("filter_tree_lookup", |b| {
        b.iter(|| scr.filter_lookup(&mapping, 700))
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let g = generate::power_law(2_000, 20_000, 0.9, 7);
    let kernel = UpeKernel::new(UpeConfig::new(16, 64));
    group.bench_function("sort_edges_fast", |b| {
        b.iter(|| kernel.sort_edges(g.edges()))
    });
    let sorted = agnn_algo::ordering::order_edges_radix(g.edges());
    let dsts: Vec<Vid> = sorted.iter().map(|e| e.dst).collect();
    let reshaper = Reshaper::new(ScrConfig::new(4, 256));
    group.bench_function("reshaper", |b| {
        b.iter(|| reshaper.build_pointers(g.num_vertices(), &dsts))
    });
    group.bench_function("convert_fast", |b| {
        b.iter(|| convert(&kernel, &reshaper, g.num_vertices(), g.edges()))
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_preprocess");
    let g = generate::power_law(500, 5_000, 0.9, 9);
    let batch: Vec<Vid> = (0..8).map(Vid).collect();
    let params = SampleParams::new(5, 2);
    let cfg = HwConfig {
        upe: UpeConfig::new(8, 32),
        scr: ScrConfig::new(2, 64),
    };
    group.bench_function("small", |b| {
        b.iter(|| AutoGnnEngine::new(cfg).preprocess(&g, &batch, &params, 1))
    });
    // The `preprocess_convert` request shape (batch 16, k = 10, 2 hops) on
    // ~300k-edge graphs: RD's 2,987 vertices keep the sampler's reach below
    // half the graph, so only the frontiers' lists are built; TB's 172
    // vertices are within reach, so the whole graph is converted.
    let params = SampleParams::new(10, 2);
    for dataset in [Dataset::Reddit, Dataset::Taobao] {
        let g = dataset.generate_scaled(dataset.scale_for_max_edges(300_000), 1);
        let stride = g.num_vertices() / 16;
        let batch: Vec<Vid> = (0..16).map(|i| Vid::from_index(i * stride)).collect();
        let cfg = HwConfig::vpk180_default();
        group.bench_function(format!("{}_300k_batch16", dataset.abbrev()), |b| {
            b.iter(|| AutoGnnEngine::new(cfg).preprocess(&g, &batch, &params, 1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_upe_networks,
    bench_scr,
    bench_kernels,
    bench_engine
);
criterion_main!(benches);
