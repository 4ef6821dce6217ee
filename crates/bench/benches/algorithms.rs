//! Criterion benches of the Table IV software algorithms: the measured CPU
//! costs behind each preprocessing task.

use agnn_algo::ordering::{order_edges_counting, order_edges_radix, order_edges_std};
use agnn_algo::reindex::{reindex_hashmap, reindex_set_counting};
use agnn_algo::reshape::{
    pointer_array_histogram, pointer_array_sequential, pointer_array_set_counting,
};
use agnn_algo::select::{reservoir_sample, uni_random_bitmap, uni_random_hashset};
use agnn_graph::{generate, Vid};
use agnn_hw::kernel::Reindexer;
use agnn_hw::ScrConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordering");
    for edges in [10_000usize, 100_000] {
        let g = generate::power_law(edges / 10, edges, 0.9, 1);
        group.bench_with_input(BenchmarkId::new("std_sort", edges), &g, |b, g| {
            b.iter(|| order_edges_std(g.edges()))
        });
        group.bench_with_input(BenchmarkId::new("radix_sort", edges), &g, |b, g| {
            b.iter(|| order_edges_radix(g.edges()))
        });
        // Not a Table IV algorithm: the engine's host-side ordering.
        group.bench_with_input(BenchmarkId::new("counting", edges), &g, |b, g| {
            b.iter(|| order_edges_counting(g.edges()))
        });
    }
    group.finish();
}

fn bench_reshaping(c: &mut Criterion) {
    let mut group = c.benchmark_group("reshaping");
    let n = 20_000;
    let g = generate::power_law(n, 200_000, 0.9, 2);
    let mut dsts: Vec<Vid> = g.edges().iter().map(|e| e.dst).collect();
    dsts.sort_unstable();
    group.bench_function("sequential_scan", |b| {
        b.iter(|| pointer_array_sequential(n, &dsts))
    });
    group.bench_function("set_counting", |b| {
        b.iter(|| pointer_array_set_counting(n, &dsts))
    });
    group.bench_function("histogram_hashing", |b| {
        b.iter(|| pointer_array_histogram(n, &dsts))
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    let pool: Vec<Vid> = (0..10_000).map(Vid).collect();
    let k = 10;
    group.bench_function("bitmap_partition", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| uni_random_bitmap(&pool, k, &mut rng))
    });
    group.bench_function("hashset_retry", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| uni_random_hashset(&pool, k, &mut rng))
    });
    group.bench_function("reservoir", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| reservoir_sample(&pool, k, &mut rng))
    });
    group.finish();
}

fn bench_reindexing(c: &mut Criterion) {
    let mut group = c.benchmark_group("reindexing");
    let g = generate::power_law(2_000, 20_000, 1.2, 4);
    let stream: Vec<Vid> = g.edges().iter().map(|e| e.dst).take(5_000).collect();
    group.bench_function("hashmap", |b| b.iter(|| reindex_hashmap(&stream)));
    group.bench_function("set_counting", |b| b.iter(|| reindex_set_counting(&stream)));
    // Not a Table IV algorithm: the SCR reindexer's Fast host path.
    let reindexer = Reindexer::new(ScrConfig::new(4, 64));
    group.bench_function("hw_fast", |b| b.iter(|| reindexer.reindex(&stream)));
    group.finish();
}

criterion_group!(
    benches,
    bench_ordering,
    bench_reshaping,
    bench_selection,
    bench_reindexing
);
criterion_main!(benches);
