//! The preconditioned conjugate-gradient kernel behind [`crate::PrecondCg`]
//! and [`crate::AmgCg`].
//!
//! Used as the matrix-free backend for the hard criterion: `D₂₂ − W₂₂` is
//! SPD whenever every unlabeled vertex is connected (possibly through other
//! unlabeled vertices) to a labeled vertex.

use crate::error::{Error, Result};
use crate::float::is_exactly_zero;
use crate::ops::LinearOperator;
use crate::precond::Preconditioner;
use crate::strict;
use crate::vector::{dot_slices, Vector};

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
pub struct CgOutcome {
    /// The approximate solution.
    pub solution: Vector,
    /// Iterations performed.
    pub iterations: usize,
    /// Final absolute residual norm `‖b − A x‖₂`.
    pub residual_norm: f64,
}

/// Solves `A x = b` by the preconditioned conjugate-gradient method with an
/// arbitrary SPD [`Preconditioner`] `M⁻¹`.
///
/// `A` must be symmetric positive definite and the preconditioner must be
/// SPD; neither is checked here (the [`crate::PrecondCg`] backend validates
/// at factor time, and breakdown is reported as non-convergence).
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
    let mut rz_old = dot_slices(&r, &z);
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
        if p_ap <= 0.0 || !p_ap.is_finite() || rz_old <= 0.0 {
            // Non-positive curvature or an indefinite preconditioned system:
            // A (or M) is not SPD, or we hit numerical breakdown.
            return Err(Error::NotConverged {
                iterations: k,
                residual: r_norm2.sqrt(),
            });
        }
        let alpha = rz_old / p_ap;
        for ((xi, pi), (ri, api)) in x.iter_mut().zip(&p).zip(r.iter_mut().zip(&ap)) {
            *xi += alpha * pi;
            *ri -= alpha * api;
        }
        precond.apply(&r, &mut z);
        let rz_new = dot_slices(&r, &z);
        let beta = rz_new / rz_old;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
        rz_old = rz_new;
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
    use crate::ops::ShiftedOperator;
    use crate::precond::JacobiPrecond;

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
        // Solve (L + I) x = b with L a graph Laplacian given lazily.
        let l =
            Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]).unwrap();
        let shifted = ShiftedOperator::new(&l, 1.0);
        let b = Vector::from(vec![1.0, 0.0, -1.0]);
        let out = cg(&shifted, &b, &CgOptions::default()).unwrap();
        let dense = &l + &Matrix::identity(3);
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
