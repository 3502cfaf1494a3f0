//! The hard criterion (Eq. 1/5 of the paper): harmonic scores with the
//! labeled responses clamped.
//!
//! ```text
//! min_f Σ_ij w_ij (f_i − f_j)²   subject to   f_i = Y_i, i ≤ n
//! ```
//!
//! whose unlabeled solution is `f_U = (D₂₂ − W₂₂)⁻¹ W₂₁ Y_n` (Eq. 5).
//! Theorem II.1 proves this estimator consistent when `h_n → 0`,
//! `n h_n^d → ∞` and `m = o(n h_n^d)`.

use crate::error::{Error, Result};
use crate::multiclass::MulticlassScores;
use crate::problem::{Problem, Scores};
use crate::traits::TransductiveModel;
use crate::weights::Weights;
use gssl_linalg::{strict, Cholesky, Factorization, Lu, Matrix, SolverBackend, SolverPolicy};

/// Numerical backend used to solve the `m × m` hard-criterion system.
///
/// Each variant resolves to a [`gssl_linalg::Factorization`] backend; the
/// actual solve always runs through that shared layer. Jacobi-preconditioned
/// CG is `Auto` with [`gssl_linalg::SparseStrategy::Jacobi`]; label
/// propagation is [`crate::LabelPropagation`].
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum HardSolver {
    /// Cholesky factorization — the default; `D₂₂ − W₂₂` is symmetric
    /// positive definite whenever the problem is anchored.
    #[default]
    Cholesky,
    /// LU with partial pivoting — slightly more robust to borderline
    /// conditioning, twice the work of Cholesky.
    Lu,
    /// Let a [`SolverPolicy`] pick the backend from system size, symmetry,
    /// and nonzero density, or force an iterative one.
    Auto(SolverPolicy),
}

/// The hard criterion solver.
///
/// ```
/// use gssl::{HardCriterion, Problem, TransductiveModel};
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl::Error> {
/// // A labeled vertex (y = 1) strongly tied to one unlabeled vertex and
/// // weakly to another.
/// let w = Matrix::from_rows(&[
///     &[1.0, 0.9, 0.1],
///     &[0.9, 1.0, 0.5],
///     &[0.1, 0.5, 1.0],
/// ])?;
/// let problem = Problem::new(w, vec![1.0])?;
/// let scores = HardCriterion::new().fit(&problem)?;
/// // Labeled response is reproduced exactly; unlabeled scores interpolate.
/// assert_eq!(scores.labeled(), &[1.0]);
/// assert!(scores.unlabeled().iter().all(|&s| (0.0..=1.0).contains(&s)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HardCriterion {
    solver: HardSolver,
    executor: gssl_runtime::Executor,
}

impl HardCriterion {
    /// Creates a hard-criterion solver with the default (Cholesky)
    /// backend.
    pub fn new() -> Self {
        HardCriterion::default()
    }

    /// Selects the numerical backend.
    pub fn solver(mut self, solver: HardSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Runs the factorization (and, for CG, the solves' matvecs) on
    /// `executor`. Scores stay bit-identical to the sequential fit at any
    /// worker count.
    #[must_use]
    pub fn with_executor(mut self, executor: gssl_runtime::Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Borrows the configured backend.
    pub fn solver_kind(&self) -> &HardSolver {
        &self.solver
    }

    /// Borrows the executor the factorization runs on.
    pub fn executor(&self) -> &gssl_runtime::Executor {
        &self.executor
    }

    /// Resolves the configured solver to a factored backend for this
    /// problem's `D₂₂ − W₂₂` system. Direct backends assemble densely, and
    /// `Auto` defers to its [`SolverPolicy`] on whichever representation
    /// the problem holds.
    fn factor_for(&self, problem: &Problem) -> Result<SolverBackend> {
        match &self.solver {
            HardSolver::Cholesky => Ok(SolverBackend::Cholesky(Cholesky::factor_with(
                &problem.unlabeled_system()?,
                &self.executor,
            )?)),
            HardSolver::Lu => Ok(SolverBackend::Lu(Lu::factor_with(
                &problem.unlabeled_system()?,
                &self.executor,
            )?)),
            HardSolver::Auto(policy) => {
                // The criterion's executor wins when one was set; otherwise
                // the policy keeps whatever executor it was built with.
                let policy = if self.executor.is_sequential() {
                    policy.clone()
                } else {
                    policy.clone().with_executor(self.executor.clone())
                };
                match problem.weights() {
                    Weights::Dense(_) => Ok(policy.factor_dense(&problem.unlabeled_system()?)?),
                    Weights::Sparse(_) => {
                        Ok(policy.factor_sparse(problem.unlabeled_system_csr()?)?)
                    }
                }
            }
        }
    }

    /// Solves `(D₂₂ − W₂₂) f_U = W₂₁ Y_n` and returns all scores.
    ///
    /// # Errors
    ///
    /// * [`crate::Error::UnanchoredUnlabeled`] when some unlabeled vertex has no
    ///   positive-weight path to a labeled vertex (singular system).
    /// * [`crate::Error::Linalg`] when the backend fails (e.g. CG budget
    ///   exhausted).
    ///
    /// deterministic
    pub fn fit(&self, problem: &Problem) -> Result<Scores> {
        problem.require_anchored(0.0)?;
        if problem.n_unlabeled() == 0 {
            return Ok(Scores::from_parts(problem.labels(), &[]));
        }
        let backend = self.factor_for(problem)?;
        let unlabeled = backend.solve(&problem.unlabeled_rhs()?)?;
        strict::check_finite("hard criterion output", unlabeled.as_slice())?;
        Ok(Scores::from_parts(problem.labels(), unlabeled.as_slice()))
    }

    /// One-vs-rest multiclass with a *shared* factorization: the system
    /// `D₂₂ − W₂₂` is identical for every class (only the right-hand side
    /// `W₂₁ Y⁽ᶜ⁾` changes), so it is factored once and all `k` class
    /// columns are solved through `solve_matrix` — `O(m³ + k·m²)` instead
    /// of the `O(k·m³)` of refactoring per class.
    ///
    /// `class_labels[i]` is the class of labeled vertex `i`; classes are
    /// `0..class_count`. Produces the same scores as fitting
    /// [`crate::OneVsRest`] over this criterion class by class.
    ///
    /// Every backend (Cholesky, LU, `Auto`) shares one factored handle
    /// across all classes.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when `class_count < 2`.
    /// * [`Error::InvalidProblem`] when a class label is out of range or
    ///   counts mismatch the weight matrix.
    /// * [`Error::UnanchoredUnlabeled`] / [`Error::Linalg`] as in
    ///   [`HardCriterion::fit`].
    ///
    /// deterministic
    pub fn fit_multiclass(
        &self,
        weights: &Matrix,
        class_labels: &[usize],
        class_count: usize,
    ) -> Result<MulticlassScores> {
        if class_count < 2 {
            return Err(Error::InvalidParameter {
                message: format!("multiclass needs >= 2 classes, got {class_count}"),
            });
        }
        if let Some(&bad) = class_labels.iter().find(|&&c| c >= class_count) {
            return Err(Error::InvalidProblem {
                message: format!("class label {bad} out of range for {class_count} classes"),
            });
        }
        let n = class_labels.len();
        // `(n + m) × k` indicator targets, labeled rows one-hot.
        let indicators =
            Matrix::from_fn(
                n,
                class_count,
                |i, c| {
                    if class_labels[i] == c {
                        1.0
                    } else {
                        0.0
                    }
                },
            );
        // Validation (shape, symmetry, finiteness, anchoring) happens once
        // through the class-0 problem; every class shares the same graph.
        let problem = Problem::new(weights.clone(), indicators.col(0).into_inner())?;
        problem.require_anchored(0.0)?;
        let total = problem.len();
        let m = problem.n_unlabeled();

        let mut scores = Matrix::zeros(total, class_count);
        for i in 0..n {
            for c in 0..class_count {
                scores.set(i, c, indicators.get(i, c));
            }
        }
        if m == 0 {
            return Ok(MulticlassScores::from_matrix(scores, n));
        }

        // One shared factorization for every class: only the RHS block
        // W₂₁ Y_ind changes per class.
        let rhs = problem.weight_blocks()?.a21.matmul(&indicators)?;
        let unlabeled = self.factor_for(&problem)?.solve_matrix(&rhs)?;
        strict::check_finite_matrix("hard multiclass output", &unlabeled)?;
        for a in 0..m {
            for c in 0..class_count {
                scores.set(n + a, c, unlabeled.get(a, c));
            }
        }
        Ok(MulticlassScores::from_matrix(scores, n))
    }
}

impl TransductiveModel for HardCriterion {
    fn fit(&self, problem: &Problem) -> Result<Scores> {
        HardCriterion::fit(self, problem)
    }

    fn name(&self) -> String {
        "hard criterion (lambda = 0)".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::{LabelPropagation, SweepKind};
    use gssl_linalg::{CgOptions, Matrix, SparseStrategy};

    /// Jacobi-preconditioned CG through the policy.
    fn jacobi_cg(cg: CgOptions) -> HardSolver {
        HardSolver::Auto(SolverPolicy {
            sparse: SparseStrategy::Jacobi,
            ..SolverPolicy::with_cg(cg)
        })
    }

    fn sample_problem() -> Problem {
        let w = Matrix::from_rows(&[
            &[1.0, 0.2, 0.7, 0.1],
            &[0.2, 1.0, 0.3, 0.8],
            &[0.7, 0.3, 1.0, 0.4],
            &[0.1, 0.8, 0.4, 1.0],
        ])
        .unwrap();
        Problem::new(w, vec![1.0, 0.0]).unwrap()
    }

    fn all_backends() -> Vec<(&'static str, Box<dyn TransductiveModel>)> {
        vec![
            ("cholesky", Box::new(HardCriterion::new())),
            ("lu", Box::new(HardCriterion::new().solver(HardSolver::Lu))),
            (
                "jacobi-cg",
                Box::new(HardCriterion::new().solver(jacobi_cg(CgOptions {
                    tolerance: 1e-12,
                    ..CgOptions::default()
                }))),
            ),
            (
                "propagation-jacobi",
                Box::new(LabelPropagation::new().sweep(SweepKind::Simultaneous)),
            ),
            (
                "propagation-gauss-seidel",
                Box::new(LabelPropagation::new().sweep(SweepKind::InPlace)),
            ),
            (
                "auto",
                Box::new(HardCriterion::new().solver(HardSolver::Auto(SolverPolicy::default()))),
            ),
        ]
    }

    #[test]
    fn all_backends_agree() {
        let p = sample_problem();
        let reference = HardCriterion::new().fit(&p).unwrap();
        for (name, backend) in all_backends() {
            let scores = backend.fit(&p).unwrap();
            for (a, b) in reference.unlabeled().iter().zip(scores.unlabeled()) {
                assert!((a - b).abs() < 1e-6, "{name} disagrees: {a} vs {b}");
            }
        }
    }

    #[test]
    fn solution_satisfies_normal_equations() {
        let p = sample_problem();
        let scores = HardCriterion::new().fit(&p).unwrap();
        let system = p.unlabeled_system().unwrap();
        let rhs = p.unlabeled_rhs().unwrap();
        let f_u = gssl_linalg::Vector::from(scores.unlabeled());
        let residual = &system.matvec(&f_u).unwrap() - &rhs;
        assert!(residual.norm_max() < 1e-10);
    }

    #[test]
    fn maximum_principle_holds() {
        // Unlabeled harmonic scores lie within [min Y, max Y].
        let p = sample_problem();
        let scores = HardCriterion::new().fit(&p).unwrap();
        for &s in scores.unlabeled() {
            assert!((0.0..=1.0).contains(&s), "score {s} escapes label range");
        }
    }

    #[test]
    fn labeled_scores_equal_observations() {
        let p = sample_problem();
        let scores = HardCriterion::new().fit(&p).unwrap();
        assert_eq!(scores.labeled(), p.labels());
    }

    #[test]
    fn toy_example_identical_inputs_give_label_mean() {
        // Section III of the paper: when all inputs coincide (w_ij ≡ 1),
        // every unlabeled score equals the mean of the observed labels.
        let size = 6;
        let n = 4;
        let w = Matrix::filled(size, size, 1.0);
        let labels = vec![1.0, 0.0, 1.0, 1.0];
        let mean = 3.0 / 4.0;
        let p = Problem::new(w, labels).unwrap();
        let scores = HardCriterion::new().fit(&p).unwrap();
        assert_eq!(scores.unlabeled().len(), size - n);
        for &s in scores.unlabeled() {
            assert!((s - mean).abs() < 1e-10, "expected label mean, got {s}");
        }
    }

    #[test]
    fn toy_example_inverse_matches_closed_form() {
        // The explicit inverse in Section III:
        // (D22 - W22)^{-1} = (n+1)/(n(m+n)) on the diagonal,
        //                    1/(n(m+n)) off the diagonal.
        let n = 3;
        let m = 2;
        let size = n + m;
        let w = Matrix::filled(size, size, 1.0);
        let p = Problem::new(w, vec![1.0; n]).unwrap();
        let system = p.unlabeled_system().unwrap();
        let inv = gssl_linalg::inverse(&system).unwrap();
        let nf = n as f64;
        let total = (n + m) as f64;
        for a in 0..m {
            for b in 0..m {
                let expected = if a == b {
                    (nf + 1.0) / (nf * total)
                } else {
                    1.0 / (nf * total)
                };
                assert!(
                    (inv.get(a, b) - expected).abs() < 1e-12,
                    "inverse entry ({a},{b}) = {} != {expected}",
                    inv.get(a, b)
                );
            }
        }
    }

    #[test]
    fn executor_leaves_fit_bit_identical() {
        // A dense anchored problem large enough to cross the LU/Cholesky
        // panel width, so the parallel trailing updates actually run.
        let size = 72;
        let n = 12;
        let w = Matrix::from_fn(size, size, |i, j| {
            if i == j {
                1.0
            } else {
                (-(((i as f64) - (j as f64)) / 10.0).powi(2)).exp()
            }
        });
        let labels: Vec<f64> = (0..n).map(|i| f64::from(i as u8 % 2)).collect();
        let p = Problem::new(w, labels).unwrap();
        for solver in [
            HardSolver::Cholesky,
            HardSolver::Lu,
            jacobi_cg(CgOptions::default()),
            HardSolver::Auto(SolverPolicy::default()),
        ] {
            let reference = HardCriterion::new().solver(solver.clone()).fit(&p).unwrap();
            for workers in [1, 2, 4] {
                let scores = HardCriterion::new()
                    .solver(solver.clone())
                    .with_executor(gssl_runtime::Executor::with_workers(workers))
                    .fit(&p)
                    .unwrap();
                assert_eq!(
                    scores.unlabeled(),
                    reference.unlabeled(),
                    "{solver:?} at {workers} workers diverged"
                );
            }
        }
    }

    #[test]
    fn rejects_unanchored_problems() {
        let w = Matrix::from_rows(&[&[1.0, 0.5, 0.0], &[0.5, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let p = Problem::new(w, vec![1.0]).unwrap();
        for (name, backend) in all_backends() {
            assert!(
                matches!(
                    backend.fit(&p),
                    Err(Error::UnanchoredUnlabeled { unlabeled_index: 1 })
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn fully_labeled_problem_returns_labels() {
        let w = Matrix::filled(2, 2, 1.0);
        let p = Problem::new(w, vec![0.3, 0.9]).unwrap();
        let scores = HardCriterion::new().fit(&p).unwrap();
        assert_eq!(scores.all(), &[0.3, 0.9]);
        assert!(scores.unlabeled().is_empty());
    }

    #[test]
    fn cg_on_a_csr_path_graph_interpolates_linearly() {
        // A path graph labeled 0 and 1 at its two ends: the harmonic
        // solution is the linear interpolation, and CG on the CSR system
        // reaches it. Labels come first, so the path runs
        // 0 - 2 - 3 - ... - 11 - 1.
        let total = 12;
        let path: Vec<usize> = std::iter::once(0)
            .chain(2..total)
            .chain(std::iter::once(1))
            .collect();
        let mut triplets = Vec::new();
        for pair in path.windows(2) {
            triplets.push((pair[0], pair[1], 1.0));
            triplets.push((pair[1], pair[0], 1.0));
        }
        let w = gssl_linalg::CsrMatrix::from_triplets(total, total, &triplets).unwrap();
        let p = Problem::new(w, vec![0.0, 1.0]).unwrap();
        let scores = HardCriterion::new()
            .solver(jacobi_cg(CgOptions {
                tolerance: 1e-13,
                ..CgOptions::default()
            }))
            .fit(&p)
            .unwrap();
        // Vertex path[k] scores k / (total - 1).
        let f = scores.all();
        for (k, &v) in path.iter().enumerate() {
            let expected = k as f64 / (total - 1) as f64;
            assert!(
                (f[v] - expected).abs() < 1e-8,
                "path vertex {v}: {} vs {expected}",
                f[v]
            );
        }
    }

    #[test]
    fn trait_object_usage() {
        let model: Box<dyn TransductiveModel> = Box::new(HardCriterion::new());
        assert!(model.name().contains("hard"));
        let p = sample_problem();
        assert!(model.fit(&p).is_ok());
    }
}
