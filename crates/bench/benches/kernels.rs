//! Timings of graph construction: kernel evaluation, affinity matrices,
//! bandwidth rules and sparse graph builders.

#![allow(
    clippy::expect_used,
    reason = "a Criterion timing closure cannot return an error; a failed setup or iteration aborts the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gssl_datasets::synthetic::{paper_dataset, PaperModel};
use gssl_graph::{
    affinity::{affinity_matrix, pairwise_squared_distances},
    bandwidth::{median_heuristic, paper_rate},
    epsilon_graph, knn_graph, laplacian, Kernel, LaplacianKind, Symmetrization,
};
use gssl_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_points(count: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(2);
    paper_dataset(PaperModel::Linear, count, &mut rng)
        .expect("generation")
        .inputs()
        .clone()
}

fn bench_affinity_by_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("affinity_300pts_by_kernel");
    group.sample_size(20);
    let points = sample_points(300);
    for kernel in Kernel::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel),
            &kernel,
            |b, &kernel| {
                b.iter(|| affinity_matrix(&points, kernel, 0.5).expect("affinity"));
            },
        );
    }
    group.finish();
}

fn bench_affinity_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("affinity_scaling_gaussian");
    group.sample_size(10);
    for &count in &[100usize, 300, 600] {
        let points = sample_points(count);
        group.bench_with_input(BenchmarkId::from_parameter(count), &points, |b, pts| {
            b.iter(|| affinity_matrix(pts, Kernel::Gaussian, 0.5).expect("affinity"));
        });
    }
    group.finish();
}

fn bench_bandwidth_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandwidth_rules_300pts");
    group.sample_size(20);
    let points = sample_points(300);
    group.bench_function("median_heuristic", |b| {
        b.iter(|| median_heuristic(&points).expect("median"));
    });
    group.bench_function("paper_rate", |b| {
        b.iter(|| paper_rate(300, 5).expect("rate"));
    });
    group.bench_function("pairwise_distances", |b| {
        b.iter(|| pairwise_squared_distances(&points).expect("distances"));
    });
    group.finish();
}

fn bench_sparse_builders(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_graphs_300pts");
    group.sample_size(10);
    let points = sample_points(300);
    group.bench_function("knn_k10_union", |b| {
        b.iter(|| {
            knn_graph(&points, 10, Kernel::Gaussian, 0.5, Symmetrization::Union).expect("knn graph")
        });
    });
    group.bench_function("epsilon_0p5", |b| {
        b.iter(|| epsilon_graph(&points, 0.5, Kernel::Gaussian, 0.5).expect("epsilon graph"));
    });
    group.finish();
}

fn bench_laplacians(c: &mut Criterion) {
    let mut group = c.benchmark_group("laplacian_300pts");
    group.sample_size(20);
    let points = sample_points(300);
    let w = affinity_matrix(&points, Kernel::Gaussian, 0.5).expect("affinity");
    for kind in [
        LaplacianKind::Unnormalized,
        LaplacianKind::Symmetric,
        LaplacianKind::RandomWalk,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| {
                b.iter(|| laplacian(&w, kind).expect("laplacian"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_affinity_by_kernel,
    bench_affinity_scaling,
    bench_bandwidth_rules,
    bench_sparse_builders,
    bench_laplacians
);
criterion_main!(benches);
