//! Criterion bench: Hamiltonian-circuit construction heuristics and the
//! W-TCTP weighted-path construction, across instance sizes. This is the
//! tour-construction ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mule_graph::{construct_circuit, ChbConfig, SearchMode, TourConstruction};
use mule_road::TravelMetric;
use mule_workload::layout::bench_layout;
use mule_workload::{ScenarioConfig, WeightSpec};
use patrol_core::{BreakEdgePolicy, WTctp};
use std::hint::black_box;

fn tour_constructions(c: &mut Criterion) {
    let mut group = c.benchmark_group("tour_construction");
    for &targets in &[10usize, 25, 50] {
        let scenario = ScenarioConfig::paper_default()
            .with_targets(targets)
            .with_seed(42)
            .generate();
        let points = scenario.patrolled_positions();
        for construction in TourConstruction::ALL {
            group.bench_with_input(
                BenchmarkId::new(construction.label(), targets),
                &points,
                |b, pts| b.iter(|| black_box(construction.build(black_box(pts)))),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("chb_polished", targets),
            &points,
            |b, pts| {
                b.iter(|| {
                    black_box(construct_circuit(
                        black_box(pts),
                        &TravelMetric::Euclidean,
                        &ChbConfig::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Exact vs. candidate-list pipeline at scale: n ∈ {50, 200, 1000, 5000}.
/// The exact pipeline is `O(n³)` in construction, so it is only timed up to
/// 1000 points (the same cap `patrolctl bench-tours` applies by default).
fn scaled_tour_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("tour_construction_scaled");
    let exact = ChbConfig::default().with_search(SearchMode::Exact);
    let fast = ChbConfig::default().with_search(SearchMode::Candidates(10));
    for &targets in &[50usize, 200, 1000, 5000] {
        let points = bench_layout(42, targets);
        group.bench_with_input(
            BenchmarkId::new("candidates", targets),
            &points,
            |b, pts| {
                b.iter(|| {
                    black_box(construct_circuit(
                        black_box(pts),
                        &TravelMetric::Euclidean,
                        &fast,
                    ))
                })
            },
        );
        if targets <= 1000 {
            group.bench_with_input(BenchmarkId::new("exact", targets), &points, |b, pts| {
                b.iter(|| {
                    black_box(construct_circuit(
                        black_box(pts),
                        &TravelMetric::Euclidean,
                        &exact,
                    ))
                })
            });
        }
    }
    group.finish();
}

fn wpp_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("wpp_construction");
    for &vips in &[2usize, 6] {
        let scenario = ScenarioConfig::paper_default()
            .with_targets(25)
            .with_weights(WeightSpec::UniformVips {
                count: vips,
                weight: 4,
            })
            .with_seed(43)
            .generate();
        for policy in BreakEdgePolicy::ALL {
            group.bench_with_input(BenchmarkId::new(policy.label(), vips), &scenario, |b, s| {
                let planner = WTctp::new(policy);
                b.iter(|| black_box(planner.build_wpp_waypoints(black_box(s)).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = tour_constructions, wpp_construction
}
// The scaled group re-runs the exact O(n³) pipeline at n = 1000, so it gets
// a small sample budget of its own.
criterion_group! {
    name = scaled;
    config = Criterion::default().sample_size(2);
    targets = scaled_tour_construction
}
criterion_main!(benches, scaled);
