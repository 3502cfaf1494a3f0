//! Backend-equivalence suite for the unified solver stack: every
//! factorization backend must produce the same hard and soft scores on
//! the same problem, whichever [`Weights`] representation (dense or CSR)
//! the problem holds, to 1e-8. Degenerate shapes — no unlabeled
//! vertices, disconnected unlabeled islands, and the λ = 0 limit of the
//! soft criterion (Proposition II.1) — must behave identically too.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{Error, HardCriterion, HardSolver, Problem, Scores, SoftCriterion, Weights};
use gssl_linalg::{AmgOptions, CgOptions, CsrMatrix, Matrix, SolverPolicy, SparseStrategy};

/// Deterministic LCG so the random problems are reproducible.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// A random connected symmetric graph with zero entries (so dense and
/// CSR representations genuinely differ in storage): a spanning path
/// plus ~25% extra random edges with random positive weights.
fn random_graph(total: usize, seed: u64) -> Matrix {
    let mut rng = Lcg(seed);
    let mut w = Matrix::zeros(total, total);
    for i in 1..total {
        let weight = 0.5 + rng.next_f64();
        w.set(i - 1, i, weight);
        w.set(i, i - 1, weight);
    }
    for i in 0..total {
        for j in (i + 2)..total {
            if rng.next_f64() < 0.25 {
                let weight = 0.2 + rng.next_f64();
                w.set(i, j, weight);
                w.set(j, i, weight);
            }
        }
    }
    w
}

fn random_labels(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
    (0..n).map(|_| f64::from(rng.next_f64() > 0.5)).collect()
}

/// The same graph and labels as two problems: one holding the dense
/// matrix, one holding its CSR conversion.
fn both_representations(w: &Matrix, labels: &[f64]) -> (Problem, Problem) {
    let dense = Problem::new(w.clone(), labels.to_vec()).expect("dense problem");
    let sparse =
        Problem::new(CsrMatrix::from_dense(w, 0.0), labels.to_vec()).expect("sparse problem");
    assert!(!dense.weights().is_sparse());
    assert!(sparse.weights().is_sparse());
    (dense, sparse)
}

fn assert_scores_close(got: &Scores, want: &Scores, tol: f64, context: &str) {
    assert_eq!(got.all().len(), want.all().len(), "{context}: length");
    for (i, (g, w)) in got.all().iter().zip(want.all()).enumerate() {
        assert!(
            (g - w).abs() < tol,
            "{context}: score {i} differs, {g} vs {w}"
        );
    }
}

/// Every hard backend the factorization layer can dispatch to, including
/// a forced-strategy `Auto` route per preconditioner family and AMG (the
/// forced Jacobi route is the Jacobi-preconditioned CG solver).
fn hard_backends() -> Vec<(&'static str, HardSolver)> {
    let mut backends = vec![
        ("cholesky", HardSolver::Cholesky),
        ("lu", HardSolver::Lu),
        ("auto", HardSolver::Auto(SolverPolicy::default())),
    ];
    for (name, policy) in forced_iterative_policies() {
        backends.push((name, HardSolver::Auto(policy)));
    }
    backends
}

/// A policy forcing the given iterative strategy, which takes the
/// iterative route even on small dense systems.
fn force_strategy_policy(strategy: SparseStrategy) -> SolverPolicy {
    SolverPolicy {
        cg: CgOptions {
            max_iterations: 0,
            tolerance: 1e-12,
        },
        sparse: strategy,
        ..SolverPolicy::default()
    }
}

/// A policy forcing the Jacobi CG backend even on small dense systems,
/// so the soft criterion's CG route is exercised.
fn force_cg_policy() -> SolverPolicy {
    force_strategy_policy(SparseStrategy::Jacobi)
}

/// One forced-iterative policy per solver family the sparse-first stack
/// can dispatch to: Jacobi PCG and AMG.
fn forced_iterative_policies() -> Vec<(&'static str, SolverPolicy)> {
    vec![
        ("forced-jacobi", force_cg_policy()),
        (
            "forced-amg",
            force_strategy_policy(SparseStrategy::Amg(AmgOptions::default())),
        ),
    ]
}

#[test]
fn hard_backends_agree_across_representations() {
    for seed in [3, 17, 92] {
        let w = random_graph(24, seed);
        let labels = random_labels(6, seed);
        let (dense, sparse) = both_representations(&w, &labels);
        let reference = HardCriterion::new()
            .solver(HardSolver::Cholesky)
            .fit(&dense)
            .expect("reference fit");
        for (name, solver) in hard_backends() {
            for (rep, problem) in [("dense", &dense), ("sparse", &sparse)] {
                let scores = HardCriterion::new()
                    .solver(solver.clone())
                    .fit(problem)
                    .unwrap_or_else(|e| panic!("seed {seed} {name}/{rep}: {e}"));
                assert_scores_close(
                    &scores,
                    &reference,
                    1e-8,
                    &format!("seed {seed} {name}/{rep}"),
                );
            }
        }
    }
}

#[test]
fn soft_backends_agree_across_representations() {
    for seed in [5, 41] {
        let w = random_graph(20, seed);
        let labels = random_labels(5, seed);
        let (dense, sparse) = both_representations(&w, &labels);
        for lambda in [0.1, 1.0] {
            let reference = SoftCriterion::new(lambda)
                .expect("lambda")
                .fit(&dense)
                .expect("reference fit");
            let mut policies = vec![("default", SolverPolicy::default())];
            policies.extend(forced_iterative_policies());
            for (name, policy) in policies {
                for (rep, problem) in [("dense", &dense), ("sparse", &sparse)] {
                    let scores = SoftCriterion::new(lambda)
                        .expect("lambda")
                        .policy(policy.clone())
                        .fit(problem)
                        .unwrap_or_else(|e| panic!("seed {seed} λ={lambda} {name}/{rep}: {e}"));
                    assert_scores_close(
                        &scores,
                        &reference,
                        1e-8,
                        &format!("seed {seed} λ={lambda} {name}/{rep}"),
                    );
                }
            }
        }
    }
}

/// Proposition II.1: at λ = 0 the soft criterion degenerates to the hard
/// criterion — on either representation, through any policy.
#[test]
fn soft_lambda_zero_matches_hard() {
    let w = random_graph(18, 7);
    let labels = random_labels(5, 7);
    let (dense, sparse) = both_representations(&w, &labels);
    let hard = HardCriterion::new().fit(&dense).expect("hard fit");
    let mut policies = vec![SolverPolicy::default()];
    policies.extend(forced_iterative_policies().into_iter().map(|(_, p)| p));
    for policy in policies {
        for problem in [&dense, &sparse] {
            let soft = SoftCriterion::new(0.0)
                .expect("lambda 0")
                .policy(policy.clone())
                .fit(problem)
                .expect("soft fit");
            assert_scores_close(&soft, &hard, 1e-8, "lambda 0");
        }
    }
}

/// With no unlabeled vertices every backend returns the labels verbatim.
#[test]
fn fully_labeled_problem_is_degenerate_for_every_backend() {
    let w = random_graph(8, 11);
    let labels = random_labels(8, 11);
    let (dense, sparse) = both_representations(&w, &labels);
    for problem in [&dense, &sparse] {
        for (name, solver) in hard_backends() {
            let scores = HardCriterion::new()
                .solver(solver)
                .fit(problem)
                .unwrap_or_else(|e| panic!("m=0 {name}: {e}"));
            assert_eq!(scores.labeled(), labels.as_slice(), "m=0 {name}");
            assert!(scores.unlabeled().is_empty(), "m=0 {name}");
        }
        let soft = SoftCriterion::new(0.5)
            .expect("lambda")
            .fit(problem)
            .expect("m=0 soft fit");
        assert_eq!(soft.all().len(), 8);
        assert!(soft.unlabeled().is_empty());
    }
}

/// An unlabeled island (no path to any label) must be rejected as
/// `UnanchoredUnlabeled` by every backend, on either representation,
/// before any factorization is attempted.
#[test]
fn disconnected_unlabeled_island_is_rejected_by_every_backend() {
    // Vertices 0..4 form a labeled-anchored path; vertices 4..6 form an
    // island with no edge to the rest.
    let mut w = Matrix::zeros(6, 6);
    for i in 1..4 {
        w.set(i - 1, i, 1.0);
        w.set(i, i - 1, 1.0);
    }
    w.set(4, 5, 1.0);
    w.set(5, 4, 1.0);
    let labels = vec![1.0];
    let (dense, sparse) = both_representations(&w, &labels);
    for problem in [&dense, &sparse] {
        for (name, solver) in hard_backends() {
            let err = HardCriterion::new()
                .solver(solver)
                .fit(problem)
                .expect_err("island must be rejected");
            assert!(
                matches!(
                    err,
                    Error::UnanchoredUnlabeled {
                        unlabeled_index: 3 | 4
                    }
                ),
                "{name}: unexpected error {err:?}"
            );
        }
        let err = SoftCriterion::new(0.5)
            .expect("lambda")
            .fit(problem)
            .expect_err("island must be rejected (soft)");
        assert!(matches!(err, Error::UnanchoredUnlabeled { .. }));
    }
}

/// The `Weights` accessors the criteria rely on agree between the two
/// representations on the random graphs used above.
#[test]
fn weights_accessors_agree_on_random_graphs() {
    let w = random_graph(16, 23);
    let dense = Weights::from(w.clone());
    let sparse = Weights::from(CsrMatrix::from_dense(&w, 0.0));
    assert_eq!(dense.nnz(), sparse.nnz());
    assert_eq!(dense.degrees().as_slice(), sparse.degrees().as_slice());
    for i in 0..16 {
        let d: Vec<_> = dense.row_entries(i).collect();
        let s: Vec<_> = sparse.row_entries(i).collect();
        assert_eq!(d, s, "row {i}");
    }
}
