//! Backend-agreement integration tests: all hard-criterion solvers (direct
//! Cholesky/LU, conjugate gradient, iterative propagation) coincide on
//! realistic graphs, including sparse kNN constructions.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{HardCriterion, HardSolver, LabelPropagation, Problem, SweepKind, TransductiveModel};
use gssl_datasets::synthetic::two_moons;
use gssl_graph::{affinity::affinity_matrix, knn_graph, Kernel, Symmetrization};
use gssl_linalg::{SolverPolicy, SparseStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn moons_problem(seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = two_moons(120, 0.05, &mut rng).expect("generation");
    // Label the mid-arc point of each moon (indices 30 and 90): the
    // points farthest from the opposite moon.
    let ssl = ds.arrange(&[30, 90]).expect("one label per moon");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, 0.25).expect("affinity");
    Problem::new(w, ssl.labels.clone()).expect("valid problem")
}

#[test]
fn all_backends_agree_on_two_moons() {
    let problem = moons_problem(1);
    let reference = HardCriterion::new().fit(&problem).expect("cholesky");
    let jacobi_cg = SolverPolicy {
        sparse: SparseStrategy::Jacobi,
        ..SolverPolicy::default()
    };
    let others: [(&str, Box<dyn TransductiveModel>); 4] = [
        ("lu", Box::new(HardCriterion::new().solver(HardSolver::Lu))),
        (
            "jacobi-cg",
            Box::new(HardCriterion::new().solver(HardSolver::Auto(jacobi_cg))),
        ),
        (
            "propagation-jacobi",
            Box::new(LabelPropagation::new().sweep(SweepKind::Simultaneous)),
        ),
        (
            "propagation-gauss-seidel",
            Box::new(LabelPropagation::new().sweep(SweepKind::InPlace)),
        ),
    ];
    for (name, backend) in others {
        let scores = backend.fit(&problem).expect("backend fits");
        let gap = reference
            .unlabeled()
            .iter()
            .zip(scores.unlabeled())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(gap < 1e-5, "{name} diverges by {gap}");
    }
}

#[test]
fn propagation_on_sparse_knn_graph_matches_dense_solver() {
    // Build the same graph sparsely (kNN) and densify for the direct
    // solver; the iterative path should reach the same harmonic solution.
    let mut rng = StdRng::seed_from_u64(2);
    let ds = two_moons(100, 0.05, &mut rng).expect("generation");
    let ssl = ds.arrange(&[0, 50]).expect("one label per moon");
    let sparse =
        knn_graph(&ssl.inputs, 8, Kernel::Gaussian, 0.4, Symmetrization::Union).expect("knn graph");
    let dense = sparse.to_dense();
    let problem = Problem::new(dense, ssl.labels.clone()).expect("valid problem");

    let direct = HardCriterion::new().fit(&problem).expect("direct");
    let (iterative, sweeps) = LabelPropagation::new()
        .tolerance(1e-11)
        .fit_with_iterations(&problem)
        .expect("propagation");
    assert!(sweeps > 1);
    let gap = direct
        .unlabeled()
        .iter()
        .zip(iterative.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(gap < 1e-7, "propagation diverges by {gap}");
}

#[test]
fn gauss_seidel_needs_no_more_sweeps_than_jacobi() {
    let problem = moons_problem(3);
    let (_, jacobi) = LabelPropagation::new()
        .fit_with_iterations(&problem)
        .expect("jacobi");
    let (_, gs) = LabelPropagation::new()
        .sweep(SweepKind::InPlace)
        .fit_with_iterations(&problem)
        .expect("gauss-seidel");
    assert!(gs <= jacobi, "GS took {gs} sweeps vs Jacobi's {jacobi}");
}

#[test]
fn two_moons_is_solved_with_one_label_per_moon() {
    let problem = moons_problem(4);
    let scores = HardCriterion::new().fit(&problem).expect("fit");
    // Reconstruct the ground truth through the same arrangement.
    let mut rng = StdRng::seed_from_u64(4);
    let ds = two_moons(120, 0.05, &mut rng).expect("generation");
    let ssl = ds.arrange(&[30, 90]).expect("arrangement");
    let truth = ssl.hidden_targets_binary();
    let accuracy = scores
        .unlabeled_predictions(0.5)
        .iter()
        .zip(&truth)
        .filter(|(p, t)| p == t)
        .count() as f64
        / truth.len() as f64;
    assert!(accuracy > 0.9, "two moons accuracy only {accuracy}");
}
