//! The soft criterion (Eq. 2/3/4 of the paper): Laplacian-regularized
//! least squares.
//!
//! ```text
//! min_f Σ_{i≤n} (Y_i − f_i)² + (λ/2) Σ_ij w_ij (f_i − f_j)²
//! ```
//!
//! In matrix form `min_f (f − Y)ᵀ V (f − Y) + λ fᵀ L f` (Eq. 3), with the
//! block-explicit unlabeled solution of Eq. 4:
//!
//! ```text
//! f_U = (D₂₂ − W₂₂ − λ W₂₁ A⁻¹ W₁₂)⁻¹ W₂₁ A⁻¹ Y_n,
//! A = I_n + λ D₁₁ − λ W₁₁.
//! ```
//!
//! Evaluated literally at `λ = 0` this reduces to the hard criterion's
//! Eq. 5 — Proposition II.1. Proposition II.2 shows the criterion is
//! *inconsistent* for large `λ` (at `λ = ∞` it predicts the constant
//! `mean(Y_n)` everywhere on a connected graph).
//!
//! Every linear solve goes through the [`gssl_linalg::Factorization`]
//! backend layer: `A` and the Schur system are symmetric positive definite
//! (strict diagonal dominance), so [`SolverPolicy::factor_spd`] routes them
//! to Cholesky — half the work of the LU factorization earlier revisions
//! hardcoded — and sparse problems solve the CSR-assembled Eq. 3 system
//! without densifying.

use crate::error::{Error, Result};
use crate::problem::{Problem, Scores};
use crate::traits::TransductiveModel;
use gssl_linalg::float::is_exactly_zero;
use gssl_linalg::{strict, Factorization, SolverPolicy, Vector};

/// The soft criterion solver with tuning parameter `λ ≥ 0`.
///
/// ```
/// use gssl::{HardCriterion, Problem, SoftCriterion, TransductiveModel};
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl::Error> {
/// let w = Matrix::from_rows(&[
///     &[1.0, 0.6, 0.2],
///     &[0.6, 1.0, 0.5],
///     &[0.2, 0.5, 1.0],
/// ])?;
/// let problem = Problem::new(w, vec![1.0])?;
/// // Proposition II.1: at λ = 0 the soft criterion equals the hard one.
/// let soft0 = SoftCriterion::new(0.0)?.fit(&problem)?;
/// let hard = HardCriterion::new().fit(&problem)?;
/// assert!((soft0.unlabeled()[0] - hard.unlabeled()[0]).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftCriterion {
    lambda: f64,
    policy: SolverPolicy,
}

impl SoftCriterion {
    /// Creates a soft-criterion solver with the default backend policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `lambda` is negative or
    /// not finite.
    pub fn new(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(Error::InvalidParameter {
                message: format!("lambda must be finite and nonnegative, got {lambda}"),
            });
        }
        Ok(SoftCriterion {
            lambda,
            policy: SolverPolicy::default(),
        })
    }

    /// The tuning parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Overrides the backend-selection policy (e.g. to tune the CG budget
    /// used on large sparse problems).
    pub fn policy(mut self, policy: SolverPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Borrows the active backend-selection policy.
    pub fn solver_policy(&self) -> &SolverPolicy {
        &self.policy
    }

    /// Solves the criterion: the paper's block form (Eq. 4) on dense
    /// problems, the CSR-assembled full system on sparse ones. Works for
    /// every `λ ≥ 0`, including `λ = 0` where it reproduces the hard
    /// criterion (Proposition II.1).
    ///
    /// # Errors
    ///
    /// * [`Error::UnanchoredUnlabeled`] when the unlabeled block system is
    ///   singular because a component has no labeled anchor.
    /// * [`Error::Linalg`] on numerical failure.
    ///
    /// deterministic
    pub fn fit(&self, problem: &Problem) -> Result<Scores> {
        problem.require_anchored(0.0)?;
        let n = problem.n_labeled();
        let m = problem.n_unlabeled();
        let y = problem.labels_vector();
        if m == 0 {
            // No unlabeled block; the criterion reduces to ridge-like
            // smoothing of the labeled scores.
            let f_l = self.labeled_only_scores(problem, &y)?;
            return Ok(Scores::from_parts(f_l.as_slice(), &[]));
        }
        if problem.weights().is_sparse() {
            return self.fit_sparse(problem);
        }

        let blocks = problem.weight_blocks()?;
        let degrees = problem.degrees();

        // A = I_n + λ D₁₁ − λ W₁₁ — SPD by strict diagonal dominance.
        let mut a = blocks.a11.map(|x| -self.lambda * x);
        for i in 0..n {
            a.set(
                i,
                i,
                1.0 + self.lambda * degrees[i] - self.lambda * blocks.a11.get(i, i),
            );
        }
        let a_fact = self.policy.factor_spd(&a)?;

        // A⁻¹ Y and A⁻¹ W₁₂.
        let a_inv_y = a_fact.solve(&y)?;
        let a_inv_w12 = a_fact.solve_matrix(&blocks.a12)?;

        // Schur system: D₂₂ − W₂₂ − λ W₂₁ A⁻¹ W₁₂ — SPD on anchored graphs.
        let base = problem.unlabeled_system()?;
        let correction = blocks.a21.matmul(&a_inv_w12)?;
        let system = &base - &(&correction * self.lambda);
        let rhs = blocks.a21.matvec(&a_inv_y)?;
        let f_u = self.policy.factor_spd(&system)?.solve(&rhs)?;

        // Labeled block: f_L = A⁻¹ (Y + λ W₁₂ f_U).
        let w12_fu = blocks.a12.matvec(&f_u)?;
        let mut rhs_l = y.clone();
        rhs_l.axpy(self.lambda, &w12_fu)?;
        let f_l = a_fact.solve(&rhs_l)?;

        strict::check_finite("soft criterion labeled output", f_l.as_slice())?;
        strict::check_finite("soft criterion unlabeled output", f_u.as_slice())?;
        Ok(Scores::from_parts(f_l.as_slice(), f_u.as_slice()))
    }

    /// Sparse-representation path. At `λ = 0` the criterion *is* the hard
    /// criterion (Proposition II.1), so the CSR-assembled `D₂₂ − W₂₂`
    /// system is solved directly; at `λ > 0` the full Eq. 3 system
    /// `V + λL` is assembled in CSR and routed through the policy, which
    /// keeps large sparse graphs iterative instead of densifying them.
    fn fit_sparse(&self, problem: &Problem) -> Result<Scores> {
        let n = problem.n_labeled();
        if is_exactly_zero(self.lambda) {
            let backend = self
                .policy
                .factor_sparse(&problem.unlabeled_system_csr()?)?;
            let f_u = backend.solve(&problem.unlabeled_rhs()?)?;
            strict::check_finite("soft criterion unlabeled output", f_u.as_slice())?;
            return Ok(Scores::from_parts(problem.labels(), f_u.as_slice()));
        }
        let system = problem.soft_system_csr(self.lambda)?;
        let mut rhs = vec![0.0; problem.len()];
        rhs[..n].copy_from_slice(problem.labels());
        let f = self
            .policy
            .factor_sparse(&system)?
            .solve(&Vector::from(rhs))?;
        strict::check_finite("soft criterion output", f.as_slice())?;
        Ok(Scores::from_parts(&f.as_slice()[..n], &f.as_slice()[n..]))
    }

    /// Solves the criterion by assembling the full `(n+m) × (n+m)` system
    /// `(V + λL) f = (Y; 0)` — the literal Eq. 3. Requires `λ > 0`
    /// (at `λ = 0` the full matrix is singular on the unlabeled block; use
    /// [`SoftCriterion::fit`], which implements the block form).
    ///
    /// Exposed separately because the paper's complexity remark compares
    /// the `O((m+n)³)` cost of this path against the `O(m³)` hard solve.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when `λ = 0`.
    /// * [`Error::Linalg`] when the system is singular.
    ///
    /// deterministic
    pub fn fit_full_system(&self, problem: &Problem) -> Result<Scores> {
        if is_exactly_zero(self.lambda) {
            return Err(Error::InvalidParameter {
                message: "the full-system path requires lambda > 0; use fit() for lambda = 0"
                    .to_owned(),
            });
        }
        let n = problem.n_labeled();
        let system = problem.soft_system_csr(self.lambda)?;
        let mut rhs = vec![0.0; problem.len()];
        rhs[..n].copy_from_slice(problem.labels());
        let f = self
            .policy
            .factor_sparse(&system)?
            .solve(&Vector::from(rhs))?;
        strict::check_finite("soft criterion full-system output", f.as_slice())?;
        Ok(Scores::from_parts(&f.as_slice()[..n], &f.as_slice()[n..]))
    }

    /// Scores when every vertex is labeled: `(I + λL) f = Y`. With `V = I`
    /// the CSR assembly of Eq. 3 is exactly that system, on either
    /// representation.
    fn labeled_only_scores(&self, problem: &Problem, y: &Vector) -> Result<Vector> {
        if is_exactly_zero(self.lambda) {
            return Ok(y.clone());
        }
        let system = problem.soft_system_csr(self.lambda)?;
        Ok(self.policy.factor_sparse(&system)?.solve(y)?)
    }

    /// The objective value of Eq. 2 at a given score vector — useful for
    /// verifying optimality in tests and diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProblem`] when `scores` has the wrong
    /// length.
    pub fn objective(&self, problem: &Problem, scores: &[f64]) -> Result<f64> {
        if scores.len() != problem.len() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "scores must have {} entries, got {}",
                    problem.len(),
                    scores.len()
                ),
            });
        }
        let loss: f64 = problem
            .labels()
            .iter()
            .zip(scores)
            .map(|(y, f)| (y - f) * (y - f))
            .sum();
        let energy = problem.weights().dirichlet_energy(&Vector::from(scores))?;
        Ok(loss + 0.5 * self.lambda * energy)
    }
}

impl TransductiveModel for SoftCriterion {
    fn fit(&self, problem: &Problem) -> Result<Scores> {
        SoftCriterion::fit(self, problem)
    }

    fn name(&self) -> String {
        format!("soft criterion (lambda = {})", self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::HardCriterion;
    use gssl_linalg::{CsrMatrix, Lu, Matrix};

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

    #[test]
    fn lambda_validation() {
        assert!(SoftCriterion::new(-0.1).is_err());
        assert!(SoftCriterion::new(f64::NAN).is_err());
        assert!(SoftCriterion::new(f64::INFINITY).is_err());
        assert_eq!(SoftCriterion::new(2.0).unwrap().lambda(), 2.0);
    }

    #[test]
    fn proposition_ii1_soft_at_zero_equals_hard() {
        let p = sample_problem();
        let soft = SoftCriterion::new(0.0).unwrap().fit(&p).unwrap();
        let hard = HardCriterion::new().fit(&p).unwrap();
        for (s, h) in soft.unlabeled().iter().zip(hard.unlabeled()) {
            assert!((s - h).abs() < 1e-10);
        }
        // At λ = 0 the labeled scores equal the observations.
        assert_eq!(soft.labeled(), p.labels());
    }

    #[test]
    fn block_form_matches_full_system() {
        let p = sample_problem();
        for &lambda in &[0.01, 0.1, 1.0, 5.0] {
            let soft = SoftCriterion::new(lambda).unwrap();
            let block = soft.fit(&p).unwrap();
            let full = soft.fit_full_system(&p).unwrap();
            for (a, b) in block.all().iter().zip(full.all()) {
                assert!((a - b).abs() < 1e-9, "lambda {lambda}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn cholesky_route_matches_legacy_lu_path() {
        // Earlier revisions factored both A and the Schur system with LU;
        // the policy now routes these SPD systems to Cholesky. Pin the new
        // path to a verbatim reproduction of the old one at 1e-10.
        let p = sample_problem();
        for &lambda in &[0.0, 0.05, 0.5, 2.0] {
            let scores = SoftCriterion::new(lambda).unwrap().fit(&p).unwrap();

            let n = p.n_labeled();
            let blocks = p.weight_blocks().unwrap();
            let degrees = p.degrees();
            let y = p.labels_vector();
            let mut a = blocks.a11.map(|x| -lambda * x);
            for i in 0..n {
                a.set(
                    i,
                    i,
                    1.0 + lambda * degrees[i] - lambda * blocks.a11.get(i, i),
                );
            }
            let a_lu = Lu::factor(&a).unwrap();
            let a_inv_y = a_lu.solve(&y).unwrap();
            let a_inv_w12 = a_lu.solve_matrix(&blocks.a12).unwrap();
            let base = p.unlabeled_system().unwrap();
            let correction = blocks.a21.matmul(&a_inv_w12).unwrap();
            let system = &base - &(&correction * lambda);
            let rhs = blocks.a21.matvec(&a_inv_y).unwrap();
            let f_u = Lu::factor(&system).unwrap().solve(&rhs).unwrap();
            let w12_fu = blocks.a12.matvec(&f_u).unwrap();
            let mut rhs_l = y.clone();
            rhs_l.axpy(lambda, &w12_fu).unwrap();
            let f_l = a_lu.solve(&rhs_l).unwrap();

            for (new, old) in scores.unlabeled().iter().zip(f_u.as_slice()) {
                assert!((new - old).abs() < 1e-10, "lambda {lambda}: {new} vs {old}");
            }
            for (new, old) in scores.labeled().iter().zip(f_l.as_slice()) {
                assert!((new - old).abs() < 1e-10, "lambda {lambda}: {new} vs {old}");
            }
        }
    }

    #[test]
    fn sparse_representation_matches_dense() {
        let dense = sample_problem();
        let csr = CsrMatrix::from_dense(dense.dense_weights().unwrap(), 0.0);
        let sparse = Problem::new(csr, dense.labels().to_vec()).unwrap();
        for &lambda in &[0.0, 0.1, 1.0] {
            let soft = SoftCriterion::new(lambda).unwrap();
            let d = soft.fit(&dense).unwrap();
            let s = soft.fit(&sparse).unwrap();
            for (a, b) in d.all().iter().zip(s.all()) {
                assert!((a - b).abs() < 1e-8, "lambda {lambda}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn full_system_requires_positive_lambda() {
        let p = sample_problem();
        assert!(matches!(
            SoftCriterion::new(0.0).unwrap().fit_full_system(&p),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn solution_minimizes_the_objective() {
        let p = sample_problem();
        let soft = SoftCriterion::new(0.5).unwrap();
        let scores = soft.fit(&p).unwrap();
        let optimum = soft.objective(&p, scores.all()).unwrap();
        // Perturbing any coordinate must not decrease the objective.
        for i in 0..p.len() {
            for &delta in &[0.01, -0.01, 0.1, -0.1] {
                let mut perturbed = scores.all().to_vec();
                perturbed[i] += delta;
                let value = soft.objective(&p, &perturbed).unwrap();
                assert!(
                    value >= optimum - 1e-12,
                    "perturbation at {i} by {delta} improved the objective"
                );
            }
        }
    }

    #[test]
    fn larger_lambda_pulls_unlabeled_scores_toward_label_mean() {
        let p = sample_problem();
        let mean = 0.5; // labels are {1, 0}
        let near = SoftCriterion::new(0.01).unwrap().fit(&p).unwrap();
        let far = SoftCriterion::new(100.0).unwrap().fit(&p).unwrap();
        let spread = |scores: &Scores| {
            scores
                .unlabeled()
                .iter()
                .map(|s| (s - mean).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(spread(&far) < spread(&near));
        // Proposition II.2 limit: at huge λ all scores approach mean(Y).
        for &s in far.all() {
            assert!((s - mean).abs() < 0.05, "score {s} far from label mean");
        }
    }

    #[test]
    fn soft_criterion_smooths_labeled_scores() {
        // Unlike the hard criterion, λ > 0 lets labeled scores deviate
        // from the observations (trading loss for smoothness).
        let p = sample_problem();
        let scores = SoftCriterion::new(1.0).unwrap().fit(&p).unwrap();
        let deviates = scores
            .labeled()
            .iter()
            .zip(p.labels())
            .any(|(f, y)| (f - y).abs() > 1e-3);
        assert!(deviates);
    }

    #[test]
    fn fully_labeled_problem_is_ridge_smoothing() {
        let w = Matrix::from_rows(&[&[1.0, 0.9], &[0.9, 1.0]]).unwrap();
        let p = Problem::new(w, vec![0.0, 1.0]).unwrap();
        let scores = SoftCriterion::new(0.0).unwrap().fit(&p).unwrap();
        assert_eq!(scores.all(), &[0.0, 1.0]);
        let smoothed = SoftCriterion::new(10.0).unwrap().fit(&p).unwrap();
        // Heavy smoothing pulls both toward the common mean 0.5.
        assert!((smoothed.all()[0] - 0.5).abs() < 0.1);
        assert!((smoothed.all()[1] - 0.5).abs() < 0.1);
    }

    #[test]
    fn objective_validates_length() {
        let p = sample_problem();
        let soft = SoftCriterion::new(1.0).unwrap();
        assert!(soft.objective(&p, &[0.0; 2]).is_err());
    }

    #[test]
    fn name_mentions_lambda() {
        assert!(SoftCriterion::new(0.25).unwrap().name().contains("0.25"));
    }
}
