//! The paper's complexity remark, measured: solving the hard criterion
//! costs `O(m³)` while the soft criterion costs `O((m+n)³)` (full system)
//! or `O(n³ + m³)` (block form of Eq. 4). With `n ≫ m` the hard solve is
//! dramatically cheaper — "another advantage of the hard criterion".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gssl::{HardCriterion, HardSolver, Problem, SoftCriterion, SweepKind};
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_linalg::{AmgOptions, CsrMatrix, Matrix, SolverPolicy, SparseStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_problem(n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(1);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng).expect("generation");
    let ssl = ds.arrange_prefix(n).expect("arrangement");
    let h = paper_rate(n, PAPER_DIM).expect("rate");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
    Problem::new(w, ssl.labels.clone()).expect("valid problem")
}

/// Hard vs soft at fixed labeled size: the hard criterion only factors
/// the m×m block.
fn bench_hard_vs_soft(c: &mut Criterion) {
    let mut group = c.benchmark_group("hard_vs_soft_n200");
    group.sample_size(10);
    for &m in &[20usize, 50, 100, 200] {
        let problem = build_problem(200, m);
        group.bench_with_input(BenchmarkId::new("hard", m), &problem, |b, p| {
            b.iter(|| HardCriterion::new().fit(p).expect("hard fit"));
        });
        group.bench_with_input(BenchmarkId::new("soft_block", m), &problem, |b, p| {
            let soft = SoftCriterion::new(0.1).expect("lambda");
            b.iter(|| soft.fit(p).expect("soft fit"));
        });
        group.bench_with_input(BenchmarkId::new("soft_full", m), &problem, |b, p| {
            let soft = SoftCriterion::new(0.1).expect("lambda");
            b.iter(|| soft.fit_full_system(p).expect("soft full fit"));
        });
    }
    group.finish();
}

/// The m³ scaling of the hard solve in isolation (n fixed and large).
fn bench_hard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("hard_scaling_in_m");
    group.sample_size(10);
    for &m in &[25usize, 50, 100, 200] {
        let problem = build_problem(300, m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &problem, |b, p| {
            b.iter(|| HardCriterion::new().fit(p).expect("hard fit"));
        });
    }
    group.finish();
}

/// Backend ablation: direct, CG and propagation backends on one problem.
fn bench_hard_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("hard_backends_n200_m100");
    group.sample_size(10);
    let problem = build_problem(200, 100);
    let backends: Vec<(&str, HardCriterion)> = vec![
        ("cholesky", HardCriterion::new()),
        ("lu", HardCriterion::new().solver(HardSolver::Lu)),
        (
            "conjugate_gradient",
            HardCriterion::new().solver(HardSolver::ConjugateGradient(Default::default())),
        ),
        (
            "propagation_jacobi",
            HardCriterion::new().solver(HardSolver::Propagation(SweepKind::Simultaneous)),
        ),
        (
            "propagation_gauss_seidel",
            HardCriterion::new().solver(HardSolver::Propagation(SweepKind::InPlace)),
        ),
    ];
    for (name, solver) in backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), &solver, |b, s| {
            b.iter(|| s.fit(&problem).expect("fit succeeds"));
        });
    }
    group.finish();
}

/// A banded similarity graph (path plus short-range edges) with `total`
/// vertices — sparse at every size, so it can be held dense or as CSR.
fn banded_graph(total: usize) -> Matrix {
    let mut w = Matrix::zeros(total, total);
    for i in 0..total {
        for d in 1..=3usize {
            if i + d < total {
                let weight = 1.0 / d as f64;
                w.set(i, i + d, weight);
                w.set(i + d, i, weight);
            }
        }
    }
    w
}

/// Dense-direct vs sparse-CG crossover: the same banded problem solved
/// through the dense representation (policy picks a direct factorization
/// below the dimension cutoff) and the CSR representation (policy picks
/// Jacobi-CG once the system is large and sparse). Direct costs `O(m³)`
/// regardless of sparsity; CG costs `O(nnz · iters)` — the crossover in
/// wall time is the point the `SolverPolicy` defaults encode.
fn bench_dense_vs_sparse_cg_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_vs_sparse_cg_crossover");
    group.sample_size(10);
    let n_labeled = 8;
    for &total in &[64usize, 128, 256, 512] {
        let w = banded_graph(total);
        let labels: Vec<f64> = (0..n_labeled).map(|i| (i % 2) as f64).collect();
        let dense = Problem::new(w.clone(), labels.clone()).expect("dense problem");
        let sparse =
            Problem::new(CsrMatrix::from_dense(&w, 0.0), labels.clone()).expect("sparse problem");
        let auto = HardCriterion::new().solver(HardSolver::Auto(SolverPolicy::default()));
        group.bench_with_input(BenchmarkId::new("dense_direct", total), &dense, |b, p| {
            let direct = HardCriterion::new().solver(HardSolver::Cholesky);
            b.iter(|| direct.fit(p).expect("dense direct fit"));
        });
        group.bench_with_input(BenchmarkId::new("sparse_cg", total), &sparse, |b, p| {
            let cg = HardCriterion::new().solver(HardSolver::ConjugateGradient(Default::default()));
            b.iter(|| cg.fit(p).expect("sparse cg fit"));
        });
        group.bench_with_input(BenchmarkId::new("auto_dense", total), &dense, |b, p| {
            b.iter(|| auto.fit(p).expect("auto dense fit"));
        });
        group.bench_with_input(BenchmarkId::new("auto_sparse", total), &sparse, |b, p| {
            b.iter(|| auto.fit(p).expect("auto sparse fit"));
        });
    }
    group.finish();
}

/// A policy forcing the given sparse strategy regardless of size, so the
/// preconditioner families can be compared on the same problem.
fn forced(strategy: SparseStrategy) -> HardCriterion {
    HardCriterion::new().solver(HardSolver::Auto(SolverPolicy {
        sparse: strategy,
        ..SolverPolicy::default()
    }))
}

/// Preconditioner ablation on the banded graph: plain Jacobi-CG vs
/// IC(0) PCG vs AMG through the forced-strategy policy routes. IC(0) is
/// exact on banded matrices, so its iteration advantage over Jacobi
/// translates directly into wall time here; AMG pays a hierarchy setup
/// that only amortizes at larger sizes (the committed `BENCH_solver.json`
/// sweep shows where).
fn bench_preconditioner_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("preconditioner_ablation");
    group.sample_size(10);
    let n_labeled = 8;
    for &total in &[256usize, 512, 1024] {
        let w = banded_graph(total);
        let labels: Vec<f64> = (0..n_labeled).map(|i| (i % 2) as f64).collect();
        let sparse =
            Problem::new(CsrMatrix::from_dense(&w, 0.0), labels.clone()).expect("sparse problem");
        let strategies: Vec<(&str, HardCriterion)> = vec![
            ("jacobi_cg", forced(SparseStrategy::Jacobi)),
            ("ic0_pcg", forced(SparseStrategy::Ic0)),
            (
                "amg_pcg",
                forced(SparseStrategy::Amg(AmgOptions::default())),
            ),
        ];
        for (name, criterion) in strategies {
            group.bench_with_input(BenchmarkId::new(name, total), &criterion, |b, s| {
                b.iter(|| s.fit(&sparse).expect("forced-strategy fit"));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hard_vs_soft,
    bench_hard_scaling,
    bench_hard_backends,
    bench_dense_vs_sparse_cg_crossover,
    bench_preconditioner_ablation
);
criterion_main!(benches);
