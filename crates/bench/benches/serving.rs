//! Criterion benches of the serving layer: discrete-event replay
//! throughput under FIFO vs reconfig-aware dispatch, the pool-size ×
//! placement-policy sweep, and the arrival generators in isolation.

use agnn_graph::datasets::Dataset;
use agnn_serve::pool::PlacementPolicy;
use agnn_serve::sim::{simulate, DispatchPolicy, ServeConfig};
use agnn_serve::tenant::{ArrivalProcess, TenantSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixed_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("movies", Dataset::Movie, 20.0),
        TenantSpec::new("feed", Dataset::StackOverflow, 20.0),
        TenantSpec::new("papers", Dataset::Arxiv, 10.0),
    ]
}

fn bench_dispatch_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_dispatch");
    group.sample_size(10);
    for (name, policy) in [
        ("fifo", DispatchPolicy::Fifo),
        ("reconfig_aware", DispatchPolicy::ReconfigAware),
    ] {
        group.bench_with_input(
            BenchmarkId::new("replay_10k", name),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    simulate(
                        mixed_tenants(),
                        ServeConfig {
                            seed: 3,
                            total_requests: 10_000,
                            policy,
                            ..ServeConfig::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

/// The pool-size × placement-policy sweep: replay cost of sharding the
/// same 10k-request trace over 1/2/4/8 boards under each placement.
fn bench_board_pool_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_pool");
    group.sample_size(10);
    for boards in [1usize, 2, 4, 8] {
        for placement in [
            PlacementPolicy::TenantAffine,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::BitstreamAffine,
        ] {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("replay_10k_{}", placement.name()),
                    format!("{boards}_boards"),
                ),
                &(boards, placement),
                |b, &(boards, placement)| {
                    b.iter(|| {
                        simulate(
                            mixed_tenants(),
                            ServeConfig {
                                seed: 3,
                                total_requests: 10_000,
                                boards,
                                placement,
                                policy: DispatchPolicy::ReconfigAware,
                                ..ServeConfig::default()
                            },
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_arrival_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_arrivals");
    let poisson = ArrivalProcess::Poisson { rate_rps: 100.0 };
    let diurnal = ArrivalProcess::Diurnal {
        mean_rps: 100.0,
        amplitude: 0.9,
        period_secs: 86_400.0,
        phase_secs: 0.0,
    };
    for (name, process) in [("poisson", poisson), ("diurnal", diurnal)] {
        group.bench_with_input(
            BenchmarkId::new("draw_100k", name),
            &process,
            |b, process| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut t = 0.0;
                    for _ in 0..100_000 {
                        t = process.next_after(t, &mut rng);
                    }
                    t
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch_policies,
    bench_board_pool_sweep,
    bench_arrival_generators
);
criterion_main!(benches);
