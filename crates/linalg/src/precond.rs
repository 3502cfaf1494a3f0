//! Preconditioners for the conjugate-gradient backends.
//!
//! A preconditioner approximates `A⁻¹` cheaply enough to apply once per CG
//! iteration: the closer `M⁻¹ A` is to the identity, the fewer iterations
//! PCG needs. [`crate::PrecondCg`] builds [`JacobiPrecond`], `M = diag(A)`:
//! free to build, one multiply per entry to apply, and it only corrects
//! scaling. [`crate::AmgCg`]'s K-cycle is the other [`Preconditioner`];
//! it keeps the iteration count flat as the graph grows. Both are
//! deterministic: building and applying them performs the same
//! floating-point operations in the same order on every run and at every
//! worker count.

use crate::error::{Error, Result};
use crate::sparse::CsrMatrix;

/// Application side of a preconditioner: `z = M⁻¹ r`.
///
/// The CG loop is flexible (FCG(1)), so an application need not be one
/// fixed linear operator: AMG's K-cycle runs Krylov steps inside and is
/// nonlinear in `r`. It should still be positive (`⟨r, z⟩ > 0` whenever
/// `r ≠ 0`); [`JacobiPrecond`] is SPD by construction (a positive
/// diagonal).
pub trait Preconditioner {
    /// Dimension of the preconditioned system.
    fn dim(&self) -> usize;

    /// Applies `z = M⁻¹ r`. Both slices have length [`Preconditioner::dim`];
    /// callers guarantee this (the PCG driver checks once per solve).
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// Diagonal (Jacobi) preconditioner `M⁻¹ = diag(A)⁻¹`.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds from an explicit diagonal, rejecting non-positive pivots (an
    /// SPD matrix has a strictly positive diagonal).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotPositiveDefinite`] naming the first offending
    /// pivot.
    pub fn from_diagonal(diag: impl Iterator<Item = f64>) -> Result<Self> {
        let mut inv_diag = Vec::with_capacity(diag.size_hint().0);
        for (i, d) in diag.enumerate() {
            if !(d > 0.0) || !d.is_finite() {
                return Err(Error::NotPositiveDefinite { pivot: i });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(JacobiPrecond { inv_diag })
    }

    /// Builds from the diagonal of a CSR matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] on a non-positive diagonal entry.
    pub fn from_csr(a: &CsrMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(Error::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        JacobiPrecond::from_diagonal((0..a.rows()).map(|i| a.get(i, i)))
    }

    /// Borrows the stored inverse diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Consumes the preconditioner, yielding the inverse diagonal.
    pub fn into_inv_diag(self) -> Vec<f64> {
        self.inv_diag
    }
}

impl Preconditioner for JacobiPrecond {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    /// hot
    /// complexity: O(n)
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_tridiagonal(n: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 3.0 + 0.1 * i as f64));
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
                triplets.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    fn apply_inverse(p: &(impl Preconditioner + ?Sized), r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        p.apply(r, &mut z);
        z
    }

    #[test]
    fn jacobi_scales_by_the_inverse_diagonal() {
        let a = spd_tridiagonal(8);
        let p = JacobiPrecond::from_csr(&a).unwrap();
        let r: Vec<f64> = (0..8).map(|i| (i as f64).sin() + 2.0).collect();
        let want: Vec<f64> = (0..8).map(|i| r[i] * (1.0 / a.get(i, i))).collect();
        assert_eq!(apply_inverse(&p, &r), want);
        assert_eq!(p.dim(), 8);
        assert_eq!(p.inv_diag().len(), 8);
    }

    #[test]
    fn jacobi_rejects_nonpositive_diagonal() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, -2.0)]).unwrap();
        assert!(matches!(
            JacobiPrecond::from_csr(&a),
            Err(Error::NotPositiveDefinite { pivot: 1 })
        ));
        assert!(matches!(
            JacobiPrecond::from_csr(&CsrMatrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }
}
