//! The preconditioned conjugate-gradient kernel behind [`crate::PrecondCg`]
//! and [`crate::AmgCg`].
//!
//! Both backends run it on a CSR system through [`CsrOnExecutor`]: the
//! hard criterion's `D₂₂ − W₂₂` is SPD whenever every unlabeled vertex is
//! connected (possibly through other unlabeled vertices) to a labeled
//! vertex.

use crate::error::{Error, Result};
use crate::float::is_exactly_zero;
use crate::ops::LinearOperator;
use crate::precond::Preconditioner;
use crate::sparse::CsrMatrix;
use crate::strict;
use crate::vector::{dot_slices, Vector};
use gssl_runtime::Executor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Options controlling a conjugate-gradient run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Maximum number of iterations (0 means `max(2 * dim, 50)`).
    pub max_iterations: usize,
    /// Convergence threshold on the *relative* residual `‖r‖/‖b‖`.
    pub tolerance: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iterations: 0,
            tolerance: 1e-10,
        }
    }
}

/// Outcome of a successful conjugate-gradient run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CgOutcome {
    /// The approximate solution.
    pub(crate) solution: Vector,
    /// Iterations performed.
    pub(crate) iterations: usize,
    /// Final absolute residual norm `‖b − A x‖₂`.
    pub(crate) residual_norm: f64,
}

/// A CSR system whose CG matvecs run on an executor: the outer operator of
/// both [`crate::PrecondCg`] and [`crate::AmgCg`].
///
/// Every matvec goes through `CsrMatrix::matvec_into_with`, which shards
/// the rows only when the matrix stores at least `PARALLEL_MIN_NNZ`
/// entries and the executor has workers, and otherwise calls
/// `matvec_into` on the calling thread. Each row is the same kernel call
/// either way, so CG sees the same iterates at any worker count.
pub(crate) struct CsrOnExecutor<'a> {
    pub(crate) matrix: &'a CsrMatrix,
    pub(crate) executor: &'a Executor,
}

impl LinearOperator for CsrOnExecutor<'_> {
    fn dim(&self) -> usize {
        self.matrix.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.matrix.matvec_into_with(x, out, self.executor);
    }
}

/// Iteration count and residual of an iterative backend's most recent
/// solve, for [`crate::Factorization::report`].
///
/// Written with `SeqCst` so concurrent serve readers observe a consistent
/// snapshot; `usize::MAX` / NaN bits mean "no solve recorded yet". A clone
/// starts from the values at clone time.
#[derive(Debug)]
pub(crate) struct LastSolve {
    iterations: AtomicUsize,
    residual: AtomicU64,
}

impl LastSolve {
    pub(crate) fn new() -> Self {
        LastSolve {
            iterations: AtomicUsize::new(usize::MAX),
            residual: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// Iterations of the most recent solve (`None` before the first).
    pub(crate) fn iterations(&self) -> Option<usize> {
        let v = self.iterations.load(Ordering::SeqCst);
        if v == usize::MAX {
            None
        } else {
            Some(v)
        }
    }

    /// Final residual norm of the most recent solve (`None` before the
    /// first).
    pub(crate) fn residual(&self) -> Option<f64> {
        let v = f64::from_bits(self.residual.load(Ordering::SeqCst));
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Records a CG run and hands back its solution. A run that hit its
    /// iteration cap is recorded too, so serve-side diagnostics can
    /// observe a refit that did not converge.
    pub(crate) fn record(&self, outcome: Result<CgOutcome>) -> Result<Vector> {
        if let Ok(CgOutcome {
            iterations,
            residual_norm: residual,
            ..
        })
        | Err(Error::NotConverged {
            iterations,
            residual,
        }) = &outcome
        {
            self.iterations.store(*iterations, Ordering::SeqCst);
            self.residual.store(residual.to_bits(), Ordering::SeqCst);
        }
        outcome.map(|out| out.solution)
    }
}

impl Clone for LastSolve {
    fn clone(&self) -> Self {
        LastSolve {
            iterations: AtomicUsize::new(self.iterations.load(Ordering::SeqCst)),
            residual: AtomicU64::new(self.residual.load(Ordering::SeqCst)),
        }
    }
}

/// Solves `A x = b` by the flexible preconditioned conjugate-gradient
/// method, FCG(1) (Notay, SISC 2000), with any [`Preconditioner`].
///
/// Each new direction is made A-conjugate to the previous one explicitly,
/// `β = −⟨z_{k+1}, A p_k⟩ / ⟨p_k, A p_k⟩`. For a fixed SPD preconditioner
/// that equals the classical `⟨r_{k+1}, z_{k+1}⟩ / ⟨r_k, z_k⟩` in exact
/// arithmetic. A preconditioner that varies between calls, such as AMG's
/// K-cycle, needs the explicit form: with the classical ratio its
/// directions lose conjugacy and CG converges more slowly.
/// `A` must be symmetric positive definite and the preconditioner
/// positive; neither is checked here (the [`crate::PrecondCg`] backend
/// validates at factor time, and breakdown is reported as
/// non-convergence).
/// Convergence is measured on the *true* residual `‖b − A x‖₂ / ‖b‖₂`.
/// With a Jacobi preconditioner of unit diagonal, `z = r` bit for bit and
/// the iteration is plain CG.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when `b.len() != op.dim()` or
///   `precond.dim() != op.dim()`.
/// * [`Error::InvalidArgument`] when the tolerance is not positive.
/// * [`Error::NotConverged`] when the iteration budget is exhausted or a
///   direction of non-positive curvature is met.
/// * [`Error::NonFiniteValue`] under `strict-checks` when the right-hand
///   side or the computed solution is non-finite.
///
/// hot
/// complexity: O(iters * nnz)
pub(crate) fn preconditioned_cg_with(
    op: &(impl LinearOperator + ?Sized),
    b: &Vector,
    precond: &(impl Preconditioner + ?Sized),
    options: &CgOptions,
) -> Result<CgOutcome> {
    let n = op.dim();
    if b.len() != n {
        return Err(Error::DimensionMismatch {
            operation: "preconditioned_conjugate_gradient",
            left: (n, n),
            right: (b.len(), 1),
        });
    }
    if precond.dim() != n {
        return Err(Error::DimensionMismatch {
            operation: "preconditioned_conjugate_gradient preconditioner",
            left: (n, n),
            right: (precond.dim(), 1),
        });
    }
    if !(options.tolerance > 0.0) {
        return Err(Error::InvalidArgument {
            message: format!("tolerance must be positive, got {}", options.tolerance),
        });
    }
    strict::check_finite("preconditioned_conjugate_gradient rhs", b.as_slice())?;
    let max_iterations = if options.max_iterations == 0 {
        (2 * n).max(50)
    } else {
        options.max_iterations
    };

    let b_norm = b.norm_l2();
    if is_exactly_zero(b_norm) {
        return Ok(CgOutcome {
            solution: Vector::zeros(n),
            iterations: 0,
            residual_norm: 0.0,
        });
    }
    let threshold = options.tolerance * b_norm;

    let mut x = vec![0.0; n];
    let mut r = b.as_slice().to_vec();
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz = dot_slices(&r, &z);
    let mut r_norm2 = dot_slices(&r, &r);

    for k in 0..max_iterations {
        if r_norm2.sqrt() <= threshold {
            strict::check_finite("preconditioned_conjugate_gradient output", &x)?;
            return Ok(CgOutcome {
                solution: Vector::from(x),
                iterations: k,
                residual_norm: r_norm2.sqrt(),
            });
        }
        op.apply(&p, &mut ap);
        let p_ap = dot_slices(&p, &ap);
        if p_ap <= 0.0 || !p_ap.is_finite() || rz <= 0.0 {
            // Non-positive curvature or an indefinite preconditioned system:
            // A (or M) is not SPD, or we hit numerical breakdown.
            return Err(Error::NotConverged {
                iterations: k,
                residual: r_norm2.sqrt(),
            });
        }
        let alpha = rz / p_ap;
        for ((xi, pi), (ri, api)) in x.iter_mut().zip(&p).zip(r.iter_mut().zip(&ap)) {
            *xi += alpha * pi;
            *ri -= alpha * api;
        }
        precond.apply(&r, &mut z);
        rz = dot_slices(&r, &z);
        // FCG(1): make the new direction A-conjugate to the last one
        // explicitly, so a preconditioner that varies between calls
        // keeps CG's local optimality.
        let beta = -dot_slices(&z, &ap) / p_ap;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
        r_norm2 = dot_slices(&r, &r);
    }

    if r_norm2.sqrt() <= threshold {
        strict::check_finite("preconditioned_conjugate_gradient output", &x)?;
        Ok(CgOutcome {
            solution: Vector::from(x),
            iterations: max_iterations,
            residual_norm: r_norm2.sqrt(),
        })
    } else {
        Err(Error::NotConverged {
            iterations: max_iterations,
            residual: r_norm2.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::precond::JacobiPrecond;
    use std::cell::Cell;

    /// The identity preconditioner: plain, unpreconditioned CG.
    fn unit(n: usize) -> JacobiPrecond {
        JacobiPrecond::from_diagonal(std::iter::repeat_n(1.0, n)).unwrap()
    }

    fn cg(
        op: &(impl LinearOperator + ?Sized),
        b: &Vector,
        options: &CgOptions,
    ) -> Result<CgOutcome> {
        preconditioned_cg_with(op, b, &unit(op.dim()), options)
    }

    #[test]
    fn solves_small_spd_system() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0]);
        let out = cg(&a, &b, &CgOptions::default()).unwrap();
        let exact = crate::lu::solve(&a, &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-8));
        assert!(out.iterations <= 2 + 1); // CG converges in <= n steps exactly
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = Matrix::identity(3);
        let out = cg(&a, &Vector::zeros(3), &CgOptions::default()).unwrap();
        assert_eq!(out.solution, Vector::zeros(3));
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let a = Matrix::identity(2);
        let err = cg(&a, &Vector::zeros(3), &CgOptions::default()).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_nonpositive_tolerance() {
        let a = Matrix::identity(2);
        let opts = CgOptions {
            tolerance: 0.0,
            ..CgOptions::default()
        };
        assert!(matches!(
            cg(&a, &Vector::ones(2), &opts),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn reports_non_convergence_on_tiny_budget() {
        // A moderately conditioned SPD matrix cannot converge in one step.
        let a =
            Matrix::from_rows(&[&[10.0, 1.0, 0.0], &[1.0, 5.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap();
        let opts = CgOptions {
            max_iterations: 1,
            tolerance: 1e-14,
        };
        let err = cg(&a, &Vector::ones(3), &opts).unwrap_err();
        assert!(matches!(err, Error::NotConverged { iterations: 1, .. }));
    }

    #[test]
    fn detects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let b = Vector::from(vec![0.0, 1.0]);
        assert!(cg(&a, &b, &CgOptions::default()).is_err());
    }

    #[test]
    fn works_through_operator_abstraction() {
        // Solve (L + I) x = b with L a graph Laplacian, as a CSR operator.
        let l =
            Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]).unwrap();
        let dense = &l + &Matrix::identity(3);
        let shifted = CsrMatrix::from_dense(&dense, 0.0);
        let b = Vector::from(vec![1.0, 0.0, -1.0]);
        let out = cg(&shifted, &b, &CgOptions::default()).unwrap();
        let exact = crate::lu::solve(&dense, &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-8));
    }

    #[test]
    fn preconditioned_matches_plain_cg() {
        // Badly scaled SPD diagonal-dominant matrix: Jacobi preconditioning
        // should converge in no more iterations than plain CG.
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0 + 100.0 * (i as f64)
            } else if i.abs_diff(j) == 1 {
                -0.5
            } else {
                0.0
            }
        });
        let b = Vector::from_fn(n, |i| ((i + 1) as f64).cos());
        let jacobi = JacobiPrecond::from_diagonal((0..n).map(|i| a.get(i, i))).unwrap();
        let plain = cg(&a, &b, &CgOptions::default()).unwrap();
        let pcg = preconditioned_cg_with(&a, &b, &jacobi, &CgOptions::default()).unwrap();
        assert!(pcg.solution.approx_eq(&plain.solution, 1e-7));
        assert!(pcg.iterations <= plain.iterations);
    }

    /// Alternates between two diagonal scalings from one call to the next,
    /// so it is no fixed linear operator.
    struct Alternating {
        calls: Cell<usize>,
    }

    impl Preconditioner for Alternating {
        fn dim(&self) -> usize {
            2
        }

        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let call = self.calls.get();
            self.calls.set(call + 1);
            let scale = if call.is_multiple_of(2) {
                [1.0, 1.0]
            } else {
                [1.0, 10.0]
            };
            for ((zi, ri), si) in z.iter_mut().zip(r).zip(scale) {
                *zi = ri * si;
            }
        }
    }

    #[test]
    fn a_varying_preconditioner_keeps_two_step_convergence() {
        // FCG(1) makes the second direction A-conjugate to the first, so in
        // two dimensions the second step lands on the solution whatever the
        // preconditioner returned. The fixed-preconditioner β = ⟨r₁, z₁⟩ /
        // ⟨r₀, z₀⟩ loses that conjugacy here and needs more steps.
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0]);
        let precond = Alternating {
            calls: Cell::new(0),
        };
        let options = CgOptions {
            tolerance: 1e-12,
            ..CgOptions::default()
        };
        let out = preconditioned_cg_with(&a, &b, &precond, &options).unwrap();
        assert_eq!(out.iterations, 2);
        let exact = crate::lu::solve(&a, &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-12));
    }

    #[test]
    fn preconditioned_rejects_bad_preconditioner_len() {
        let a = Matrix::identity(3);
        let err = preconditioned_cg_with(&a, &Vector::ones(3), &unit(2), &CgOptions::default())
            .unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn larger_laplacian_like_system() {
        // Path-graph Laplacian plus diagonal anchor, n = 50.
        let n = 50;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.5
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let b = Vector::from_fn(n, |i| (i as f64 / n as f64).sin());
        let out = cg(&a, &b, &CgOptions::default()).unwrap();
        let exact = crate::lu::solve(&a, &b).unwrap();
        assert!(out.solution.approx_eq(&exact, 1e-7));
    }
}
