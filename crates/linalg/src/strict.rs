//! Runtime numeric sanitizer.
//!
//! With the `strict-checks` cargo feature enabled, the checks in this
//! module verify finiteness (and, where relevant, symmetry) of solver
//! inputs and outputs at every solver boundary — LU, Cholesky, conjugate
//! gradients, and (via `gssl`) the paper's criteria. A NaN or infinity is
//! reported as [`Error::NonFiniteValue`] at the boundary where it first
//! appears instead of silently propagating through the arithmetic.
//!
//! Without the feature every function here compiles to a no-op returning
//! `Ok(())`, so release builds pay nothing.

#[cfg(feature = "strict-checks")]
use crate::error::Error;
use crate::error::Result;
use crate::matrix::Matrix;

/// Checks that every element of `values` is finite.
///
/// `context` names the boundary being guarded (e.g. `"lu.factor input"`)
/// and is embedded in the error report.
///
/// # Errors
///
/// With `strict-checks` enabled, returns
/// [`Error::NonFiniteValue`](crate::Error::NonFiniteValue) naming the first
/// offending flat index. Always `Ok(())` otherwise.
pub fn check_finite(context: &'static str, values: &[f64]) -> Result<()> {
    #[cfg(feature = "strict-checks")]
    {
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue { context, index });
        }
    }
    #[cfg(not(feature = "strict-checks"))]
    let _ = (context, values);
    Ok(())
}

/// Checks that every entry of `matrix` is finite.
///
/// # Errors
///
/// With `strict-checks` enabled, returns
/// [`Error::NonFiniteValue`](crate::Error::NonFiniteValue) with the flat
/// (row-major) index of the first offending entry. Always `Ok(())`
/// otherwise.
pub fn check_finite_matrix(context: &'static str, matrix: &Matrix) -> Result<()> {
    check_finite(context, matrix.as_slice())
}

/// Checks that `matrix` is symmetric to within `tol` (absolute).
///
/// Used by the sanitizer on Laplacian blocks: the systems produced by both
/// of the paper's criteria are symmetric by construction, so asymmetry at
/// a solver boundary means an upstream indexing or assembly bug.
///
/// # Errors
///
/// With `strict-checks` enabled, returns
/// [`Error::InvalidArgument`](crate::Error::InvalidArgument) when a pair
/// of mirrored entries differs by more than `tol`. Always `Ok(())`
/// otherwise.
pub fn check_symmetric(context: &'static str, matrix: &Matrix, tol: f64) -> Result<()> {
    #[cfg(feature = "strict-checks")]
    {
        if !matrix.is_symmetric(tol) {
            return Err(Error::InvalidArgument {
                message: format!("{context}: matrix is not symmetric (tolerance {tol:e})"),
            });
        }
    }
    #[cfg(not(feature = "strict-checks"))]
    let _ = (context, matrix, tol);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "strict-checks")]
    #[test]
    fn reports_first_non_finite_index() {
        let err = check_finite("test boundary", &[0.0, f64::NAN, f64::INFINITY]).unwrap_err();
        assert!(matches!(
            err,
            Error::NonFiniteValue {
                context: "test boundary",
                index: 1
            }
        ));
    }

    #[cfg(feature = "strict-checks")]
    #[test]
    fn rejects_asymmetric_matrix() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(check_symmetric("test boundary", &m, 1e-12).is_err());
        assert!(check_symmetric("test boundary", &m, 2.0).is_ok());
    }

    #[cfg(not(feature = "strict-checks"))]
    #[test]
    fn disabled_checks_accept_anything() {
        assert!(check_finite("off", &[f64::NAN]).is_ok());
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(check_symmetric("off", &m, 0.0).is_ok());
    }

    #[test]
    fn finite_data_always_passes() {
        assert!(check_finite("ok", &[1.0, -2.0, 0.0]).is_ok());
        assert!(check_finite_matrix("ok", &Matrix::identity(3)).is_ok());
        assert!(check_symmetric("ok", &Matrix::identity(3), 0.0).is_ok());
    }
}
