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
//! which is exactly Jacobi iteration on `(D₂₂ − W₂₂) f_U = W₂₁ Y`. Each
//! sweep walks the stored entries of the unlabeled rows of `W` through
//! [`crate::Weights::row_entries`], so dense and CSR weights run the same
//! matrix-free loop and the `m × m` system is never assembled.

use crate::error::{Error, Result};
use crate::problem::{Problem, Scores};
use crate::traits::TransductiveModel;

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
#[derive(Debug, Clone, PartialEq)]
pub struct LabelPropagation {
    sweep: SweepKind,
    /// Sweep budget; 0 means `100·m` clamped to `[1000, 100 000]`.
    max_iterations: usize,
    /// Largest max-norm change of a sweep that counts as converged.
    tolerance: f64,
}

impl Default for LabelPropagation {
    fn default() -> Self {
        LabelPropagation {
            sweep: SweepKind::default(),
            max_iterations: 0,
            tolerance: 1e-10,
        }
    }
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
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the convergence tolerance on the max-norm change per sweep.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
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
        self.propagate(problem)
    }

    /// Matrix-free sweeps over the stored entries of the unlabeled rows of
    /// `W`, whichever representation holds them. An exhausted budget
    /// reports the last iterate's residual `‖(D₂₂ − W₂₂) f − W₂₁ Y‖₂`,
    /// from one product of those rows with `[Y; f]`.
    fn propagate(&self, problem: &Problem) -> Result<(Scores, usize)> {
        let n = problem.n_labeled();
        let m = problem.n_unlabeled();
        let w = problem.weights();
        let degrees = problem.degrees();
        let rhs = problem.unlabeled_rhs()?;
        let budget = if self.max_iterations == 0 {
            (100 * m).clamp(1000, 100_000)
        } else {
            self.max_iterations
        };
        let mut f = vec![0.0; m];
        let mut next = vec![0.0; m];
        for sweep in 1..=budget {
            let mut change = 0.0f64;
            for a in 0..m {
                let i = n + a;
                let mut numerator = rhs[a];
                let mut diagonal = degrees[i];
                for (j, v) in w.row_entries(i) {
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
            if change <= self.tolerance {
                return Ok((Scores::from_parts(problem.labels(), &f), sweep));
            }
        }
        // Row i of W [Y; f] is W₂₁ Y + W₂₂ f, self-loop included, so the
        // residual row is d_i f_a minus it.
        let scores: Vec<f64> = problem.labels().iter().chain(&f).copied().collect();
        let residual = (n..n + m)
            .zip(&f)
            .map(|(i, fa)| {
                let wf = w
                    .row_entries(i)
                    .fold(0.0, |sum, (j, v)| sum + v * scores[j]);
                (degrees[i] * fa - wf).powi(2)
            })
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
    use gssl_graph::{affinity::affinity_matrix, Kernel};
    use gssl_linalg::{CsrMatrix, Matrix};

    /// The dense Jacobi / Gauss–Seidel loop over the assembled
    /// `D₂₂ − W₂₂` system — the bitwise oracle for the one sweep. Returns
    /// the unlabeled scores and the sweep count at the default tolerance
    /// and budget.
    fn dense_oracle(problem: &Problem, sweep: SweepKind) -> (Vec<f64>, usize) {
        let a = problem.unlabeled_system().unwrap();
        let b = problem.unlabeled_rhs().unwrap();
        let m = a.rows();
        let mut x = vec![0.0; m];
        let mut next = vec![0.0; m];
        for sweeps in 1..=(100 * m).clamp(1000, 100_000) {
            let mut change: f64 = 0.0;
            for i in 0..m {
                let mut sum = b[i];
                for (j, (&a_ij, &xj)) in a.row(i).iter().zip(&x).enumerate() {
                    if j != i {
                        sum -= a_ij * xj;
                    }
                }
                let xi = sum / a.get(i, i);
                change = change.max((xi - x[i]).abs());
                match sweep {
                    SweepKind::Simultaneous => next[i] = xi,
                    SweepKind::InPlace => x[i] = xi,
                }
            }
            if sweep == SweepKind::Simultaneous {
                std::mem::swap(&mut x, &mut next);
            }
            if change <= 1e-10 {
                return (x, sweeps);
            }
        }
        panic!("the dense oracle did not converge");
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

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
            assert_eq!(
                dense_r.to_bits(),
                sparse_r.to_bits(),
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
        let csr = CsrMatrix::from_dense(dense.dense_weights().unwrap(), 0.0);
        let sparse = Problem::new(csr, dense.labels().to_vec()).unwrap();
        for sweep in [SweepKind::Simultaneous, SweepKind::InPlace] {
            let propagation = LabelPropagation::new().sweep(sweep);
            let (a, a_sweeps) = propagation.fit_with_iterations(&dense).unwrap();
            let (b, b_sweeps) = propagation.fit_with_iterations(&sparse).unwrap();
            assert_eq!(bits(a.all()), bits(b.all()), "{sweep:?}");
            assert_eq!(a_sweeps, b_sweeps, "{sweep:?}");
        }
    }

    #[test]
    fn one_sweep_matches_the_dense_oracle_bitwise() {
        for seed in 0..3 {
            // The R2 low-discrepancy sequence: well spread over the square.
            let pts = Matrix::from_fn(50, 2, |i, j| {
                let step = [0.754_877_666_246_692_8, 0.569_840_290_998_053_3][j];
                (0.5 + (i + 50 * seed) as f64 * step).fract()
            });
            let labels: Vec<f64> = (0..8).map(|i| f64::from(i % 2)).collect();
            for kernel in [
                Kernel::Gaussian,
                Kernel::Epanechnikov,
                Kernel::Boxcar,
                Kernel::Tricube,
            ] {
                let w = affinity_matrix(&pts, kernel, 0.45).unwrap();
                // Compact kernels leave exact zeros for the sweep to skip.
                assert_eq!(
                    kernel.is_compactly_supported(),
                    w.as_slice().contains(&0.0),
                    "{kernel}"
                );
                let problem = Problem::new(w, labels.clone()).unwrap();
                for sweep in [SweepKind::Simultaneous, SweepKind::InPlace] {
                    let (scores, sweeps) = LabelPropagation::new()
                        .sweep(sweep)
                        .fit_with_iterations(&problem)
                        .unwrap();
                    let (oracle, oracle_sweeps) = dense_oracle(&problem, sweep);
                    let context = format!("seed {seed}, {kernel}, {sweep:?}");
                    assert_eq!(bits(scores.unlabeled()), bits(&oracle), "{context}");
                    assert_eq!(sweeps, oracle_sweeps, "{context}");
                }
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
