//! Criterion benches of the end-to-end stack: software pipeline vs
//! simulated hardware engine, GNN forward passes, cost evaluation and the
//! configuration search.

use agnn_algo::pipeline::{preprocess, SampleParams};
use agnn_cost::optimizer::{search, SearchSpace};
use agnn_cost::{BitstreamLibrary, CostModel, Workload};
use agnn_devices::fpga::FpgaModel;
use agnn_gnn::features::FeatureTable;
use agnn_gnn::models::{forward, GnnModel, GnnSpec};
use agnn_graph::datasets::Dataset;
use agnn_graph::Vid;
use agnn_hw::engine::AutoGnnEngine;
use agnn_hw::floorplan::Floorplan;
use agnn_hw::HwConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_preprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess_ph_scaled");
    group.sample_size(20);
    let d = Dataset::Physics;
    let g = d.generate_scaled(d.scale_for_max_edges(50_000), 1);
    let batch: Vec<Vid> = (0..30).map(Vid).collect();
    let params = SampleParams::new(10, 2);
    group.bench_function("software_pipeline", |b| {
        b.iter(|| preprocess(&g, &batch, &params, 3))
    });
    group.bench_function("hardware_engine_fast", |b| {
        b.iter(|| AutoGnnEngine::new(HwConfig::vpk180_default()).preprocess(&g, &batch, &params, 3))
    });
    group.finish();
}

fn bench_gnn_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("gnn_forward");
    let g = agnn_graph::generate::power_law(1_000, 10_000, 0.9, 5);
    let batch: Vec<Vid> = (0..16).map(Vid).collect();
    let out = preprocess(&g, &batch, &SampleParams::new(8, 2), 7);
    let table = FeatureTable::random(1_000, 32, 9);
    for model in GnnModel::ALL {
        let spec = GnnSpec::new(model, 2, 32, 32);
        group.bench_with_input(BenchmarkId::new("model", model.name()), &spec, |b, spec| {
            b.iter(|| forward(spec, &out.subgraph, &table, 11))
        });
    }
    group.finish();
}

fn bench_cost_and_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost");
    let w = Workload::new(2_450_000, 123_000_000, 3_000, 10, 2);
    let plan = Floorplan::vpk180();
    let library = BitstreamLibrary::for_floorplan(&plan);
    let fpga = FpgaModel::default();
    // The paper reports cost evaluation under 0.1 ms; the full search
    // across the 10x10 library should stay well under that budget.
    group.bench_function("table_i_estimate", |b| {
        b.iter(|| CostModel.estimate(&w, HwConfig::vpk180_default()))
    });
    group.bench_function("table_i_full_search", |b| {
        b.iter(|| CostModel.choose_config(&w, &library))
    });
    group.bench_function("timing_aware_full_search", |b| {
        b.iter(|| search(&plan, SearchSpace::Full, |c| fpga.analytic_secs(&w, c)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocess,
    bench_gnn_models,
    bench_cost_and_search
);
criterion_main!(benches);
