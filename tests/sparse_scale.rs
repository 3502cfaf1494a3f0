//! Integration tests of the sparse, matrix-free solver path at sizes
//! where the dense path would allocate hundreds of MB — now expressed
//! through the unified `Problem` holding CSR weights.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{HardCriterion, HardSolver, LabelPropagation, Problem};
use gssl_datasets::synthetic::two_moons;
use gssl_graph::{knn_graph, Kernel, Symmetrization};
use gssl_linalg::{CgOptions, SolverPolicy, SparseStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn moons_sparse(total: usize, k: usize) -> (Problem, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(77);
    let ds = two_moons(total, 0.05, &mut rng).expect("generation");
    let ssl = ds.arrange(&[total / 4, 3 * total / 4]).expect("labels");
    let graph =
        knn_graph(&ssl.inputs, k, Kernel::Gaussian, 0.2, Symmetrization::Union).expect("knn graph");
    let truth = ssl.hidden_targets_binary();
    (
        Problem::new(graph, ssl.labels.clone()).expect("valid problem"),
        truth,
    )
}

fn cg_solver(options: CgOptions) -> HardCriterion {
    HardCriterion::new().solver(HardSolver::Auto(SolverPolicy {
        sparse: SparseStrategy::Jacobi,
        ..SolverPolicy::with_cg(options)
    }))
}

#[test]
fn sparse_cg_solves_large_two_moons() {
    let (problem, truth) = moons_sparse(2000, 10);
    let scores = cg_solver(CgOptions::default())
        .fit(&problem)
        .expect("cg solve");
    let accuracy = scores
        .unlabeled_predictions(0.5)
        .iter()
        .zip(&truth)
        .filter(|(p, t)| p == t)
        .count() as f64
        / truth.len() as f64;
    assert!(accuracy > 0.95, "accuracy only {accuracy}");
}

#[test]
fn sparse_propagation_agrees_with_cg_at_scale() {
    let (problem, _) = moons_sparse(1500, 10);
    let cg = cg_solver(CgOptions {
        tolerance: 1e-11,
        ..CgOptions::default()
    })
    .fit(&problem)
    .expect("cg solve");
    let (prop, sweeps) = LabelPropagation::new()
        .max_iterations(100_000)
        .tolerance(1e-11)
        .fit_with_iterations(&problem)
        .expect("propagation");
    assert!(sweeps > 1);
    let gap = cg
        .unlabeled()
        .iter()
        .zip(prop.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(gap < 1e-6, "solvers disagree by {gap}");
}

#[test]
fn sparse_and_dense_paths_agree_on_moderate_graph() {
    let (sparse_problem, _) = moons_sparse(300, 8);
    let dense_problem = Problem::new(
        sparse_problem.weights().to_dense(),
        sparse_problem.labels().to_vec(),
    )
    .expect("dense problem");
    let dense = HardCriterion::new()
        .fit(&dense_problem)
        .expect("dense solve");
    let sparse = cg_solver(CgOptions {
        tolerance: 1e-12,
        ..CgOptions::default()
    })
    .fit(&sparse_problem)
    .expect("sparse solve");
    let gap = dense
        .unlabeled()
        .iter()
        .zip(sparse.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(gap < 1e-7, "paths disagree by {gap}");
}

#[test]
fn sparse_scores_obey_maximum_principle() {
    let (problem, _) = moons_sparse(800, 12);
    let scores = cg_solver(CgOptions::default())
        .fit(&problem)
        .expect("solve");
    for &s in scores.unlabeled() {
        assert!((-1e-8..=1.0 + 1e-8).contains(&s), "score {s} out of range");
    }
}
