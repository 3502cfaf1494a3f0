//! Iterative label propagation (Zhu, Ghahramani & Lafferty, 2003).
//!
//! The harmonic fixed point of the hard criterion —
//! `f_{n+a} = Σ_j w_{n+a,j} f_j / d_{n+a}` — can be reached without any
//! matrix factorization by repeatedly averaging neighbours:
//!
//! ```text
//! f_U ← D₂₂⁻¹ (W₂₁ Y + W₂₂ f_U)
//! ```
//!
//! which is exactly Jacobi iteration on `(D₂₂ − W₂₂) f_U = W₂₁ Y`. This
//! backend scales to sparse graphs where direct solves are too expensive.

use crate::error::{Error, Result};
use crate::problem::{Problem, Scores};
use crate::traits::TransductiveModel;
use gssl_linalg::stationary::{gauss_seidel, jacobi, IterationOptions};
use gssl_linalg::CsrMatrix;

/// Which sweep order the propagation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepKind {
    /// Classic simultaneous update (Jacobi) — the textbook formulation.
    #[default]
    Simultaneous,
    /// In-place update (Gauss–Seidel) — usually converges in about half
    /// the sweeps.
    InPlace,
}

/// Iterative label propagation solver for the hard criterion.
///
/// ```
/// use gssl::{LabelPropagation, Problem, TransductiveModel};
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl::Error> {
/// let w = Matrix::from_rows(&[
///     &[1.0, 0.9, 0.0],
///     &[0.9, 1.0, 0.9],
///     &[0.0, 0.9, 1.0],
/// ])?;
/// let problem = Problem::new(w, vec![1.0])?;
/// let scores = LabelPropagation::new().fit(&problem)?;
/// assert!(scores.unlabeled().iter().all(|&s| (0.0..=1.0).contains(&s)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabelPropagation {
    sweep: SweepKind,
    options: IterationOptions,
}

impl LabelPropagation {
    /// Creates a propagation solver with default options (simultaneous
    /// sweeps, `1e-10` tolerance, automatic iteration budget).
    pub fn new() -> Self {
        LabelPropagation::default()
    }

    /// Selects the sweep order.
    pub fn sweep(mut self, sweep: SweepKind) -> Self {
        self.sweep = sweep;
        self
    }

    /// Sets the maximum number of sweeps (0 = automatic).
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.options.max_iterations = max_iterations;
        self
    }

    /// Sets the convergence tolerance on the max-norm change per sweep.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.options.tolerance = tolerance;
        self
    }

    /// Runs the propagation, also returning the number of sweeps.
    ///
    /// # Errors
    ///
    /// * [`Error::UnanchoredUnlabeled`] when some unlabeled vertex cannot
    ///   be reached from the labeled set.
    /// * [`Error::Linalg`] wrapping `NotConverged` when the sweep budget
    ///   is exhausted.
    ///
    /// hot
    /// complexity: O(iters * nnz)
    pub fn fit_with_iterations(&self, problem: &Problem) -> Result<(Scores, usize)> {
        problem.require_anchored(0.0)?;
        if problem.n_unlabeled() == 0 {
            return Ok((Scores::from_parts(problem.labels(), &[]), 0));
        }
        if let Some(w) = problem.weights().as_sparse() {
            return self.fit_sparse(problem, w);
        }
        let system = problem.unlabeled_system()?;
        let rhs = problem.unlabeled_rhs()?;
        let outcome = match self.sweep {
            SweepKind::Simultaneous => jacobi(&system, &rhs, None, &self.options),
            SweepKind::InPlace => gauss_seidel(&system, &rhs, None, &self.options),
        }
        .map_err(Error::from)?;
        Ok((
            Scores::from_parts(problem.labels(), outcome.solution.as_slice()),
            outcome.iterations,
        ))
    }

    /// Matrix-free sweeps over the CSR structure: the `m × m` system is
    /// never assembled, each sweep walks the stored edges of the unlabeled
    /// rows directly. An exhausted budget reports the last iterate's
    /// residual `‖(D₂₂ − W₂₂) f − W₂₁ Y‖₂`, as the dense sweeps do, from
    /// one product of the stored `W` with `[Y; f]`.
    fn fit_sparse(&self, problem: &Problem, w: &CsrMatrix) -> Result<(Scores, usize)> {
        let n = problem.n_labeled();
        let m = problem.n_unlabeled();
        let degrees = problem.degrees();
        let rhs = problem.unlabeled_rhs()?;
        let budget = if self.options.max_iterations == 0 {
            (100 * m).clamp(1000, 100_000)
        } else {
            self.options.max_iterations
        };
        let mut f = vec![0.0; m];
        let mut next = vec![0.0; m];
        for sweep in 1..=budget {
            let mut change = 0.0f64;
            for a in 0..m {
                let i = n + a;
                let mut numerator = rhs[a];
                let mut diagonal = degrees[i];
                for (j, v) in w.row_iter(i) {
                    if j == i {
                        diagonal -= v;
                    } else if j >= n {
                        let current = match self.sweep {
                            SweepKind::Simultaneous => f[j - n],
                            // Gauss–Seidel reads already-updated scores.
                            SweepKind::InPlace => {
                                if j - n < a {
                                    next[j - n]
                                } else {
                                    f[j - n]
                                }
                            }
                        };
                        numerator += v * current;
                    }
                }
                if !(diagonal > 0.0) {
                    // Defensive: anchoring was checked above, but a zero
                    // diagonal would divide to infinity.
                    return Err(Error::UnanchoredUnlabeled { unlabeled_index: a });
                }
                let value = numerator / diagonal;
                change = change.max((value - f[a]).abs());
                next[a] = value;
            }
            std::mem::swap(&mut f, &mut next);
            if change <= self.options.tolerance {
                return Ok((Scores::from_parts(problem.labels(), &f), sweep));
            }
        }
        // Row i of W [Y; f] is W₂₁ Y + W₂₂ f, self-loop included, so the
        // residual row is d_i f_a minus it.
        let scores: Vec<f64> = problem.labels().iter().chain(&f).copied().collect();
        let propagated = w.matvec(&scores);
        let residual = degrees.as_slice()[n..]
            .iter()
            .zip(&f)
            .zip(&propagated[n..])
            .map(|((d, fa), wf)| (d * fa - wf).powi(2))
            .sum::<f64>()
            .sqrt();
        Err(Error::Linalg(gssl_linalg::Error::NotConverged {
            iterations: budget,
            residual,
        }))
    }
}

impl TransductiveModel for LabelPropagation {
    fn fit(&self, problem: &Problem) -> Result<Scores> {
        Ok(self.fit_with_iterations(problem)?.0)
    }

    fn name(&self) -> String {
        match self.sweep {
            SweepKind::Simultaneous => "label-propagation (jacobi)".to_owned(),
            SweepKind::InPlace => "label-propagation (gauss-seidel)".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gssl_linalg::Matrix;

    fn chain_problem() -> Problem {
        let w = Matrix::from_rows(&[
            &[1.0, 0.5, 0.0, 0.0],
            &[0.5, 1.0, 0.5, 0.0],
            &[0.0, 0.5, 1.0, 0.5],
            &[0.0, 0.0, 0.5, 1.0],
        ])
        .unwrap();
        Problem::new(w, vec![0.0, 1.0]).unwrap()
    }

    #[test]
    fn propagation_reaches_harmonic_solution() {
        let p = chain_problem();
        let (scores, iterations) = LabelPropagation::new().fit_with_iterations(&p).unwrap();
        assert!(iterations > 0);
        // Harmonicity: each unlabeled score is the weighted average of its
        // neighbours.
        let f = scores.all();
        let w = p.weights();
        let d = p.degrees();
        for a in 2..4 {
            let avg: f64 = (0..4)
                .filter(|&j| j != a)
                .map(|j| w.get(a, j) * f[j])
                .sum::<f64>()
                / (d[a] - w.get(a, a));
            assert!((f[a] - avg).abs() < 1e-7, "vertex {a} not harmonic");
        }
    }

    #[test]
    fn jacobi_and_gauss_seidel_agree() {
        let p = chain_problem();
        let a = LabelPropagation::new().fit(&p).unwrap();
        let b = LabelPropagation::new()
            .sweep(SweepKind::InPlace)
            .fit(&p)
            .unwrap();
        for (x, y) in a.unlabeled().iter().zip(b.unlabeled()) {
            assert!((x - y).abs() < 1e-7);
        }
    }

    #[test]
    fn labeled_scores_stay_clamped() {
        let p = chain_problem();
        let scores = LabelPropagation::new().fit(&p).unwrap();
        assert_eq!(scores.labeled(), &[0.0, 1.0]);
    }

    #[test]
    fn rejects_unanchored_problem() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let p = Problem::new(w, vec![1.0]).unwrap();
        assert!(matches!(
            LabelPropagation::new().fit(&p),
            Err(Error::UnanchoredUnlabeled { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let dense = chain_problem();
        let sparse = Problem::new(
            CsrMatrix::from_dense(dense.dense_weights().unwrap(), 0.0),
            dense.labels().to_vec(),
        )
        .unwrap();
        for sweep in [SweepKind::Simultaneous, SweepKind::InPlace] {
            let residuals: Vec<f64> = [&dense, &sparse]
                .into_iter()
                .map(|p| {
                    let result = LabelPropagation::new()
                        .sweep(sweep)
                        .max_iterations(1)
                        .tolerance(1e-15)
                        .fit(p);
                    match result {
                        Err(Error::Linalg(gssl_linalg::Error::NotConverged {
                            iterations: 1,
                            residual,
                        })) => residual,
                        other => panic!("{sweep:?}: expected NotConverged, got {other:?}"),
                    }
                })
                .collect();
            let (dense_r, sparse_r) = (residuals[0], residuals[1]);
            assert!(dense_r.is_finite() && dense_r > 0.0, "{sweep:?}: {dense_r}");
            assert!(
                (sparse_r - dense_r).abs() <= 1e-9 * dense_r,
                "{sweep:?}: sparse {sparse_r} vs dense {dense_r}"
            );
        }
    }

    #[test]
    fn fully_labeled_problem_short_circuits() {
        let w = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 1.0]]).unwrap();
        let p = Problem::new(w, vec![0.0, 1.0]).unwrap();
        let (scores, iterations) = LabelPropagation::new().fit_with_iterations(&p).unwrap();
        assert_eq!(iterations, 0);
        assert!(scores.unlabeled().is_empty());
    }

    #[test]
    fn sparse_representation_matches_dense() {
        let dense = chain_problem();
        let csr = gssl_linalg::CsrMatrix::from_dense(dense.dense_weights().unwrap(), 0.0);
        let sparse = Problem::new(csr, dense.labels().to_vec()).unwrap();
        for sweep in [SweepKind::Simultaneous, SweepKind::InPlace] {
            let a = LabelPropagation::new().sweep(sweep).fit(&dense).unwrap();
            let b = LabelPropagation::new().sweep(sweep).fit(&sparse).unwrap();
            for (x, y) in a.unlabeled().iter().zip(b.unlabeled()) {
                assert!((x - y).abs() < 1e-7, "{sweep:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(
            LabelPropagation::new().name(),
            LabelPropagation::new().sweep(SweepKind::InPlace).name()
        );
    }
}
