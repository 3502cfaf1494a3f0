//! The [`LinearOperator`] abstraction: anything that can apply `x ↦ A x`.
//!
//! The CG kernel behind [`crate::PrecondCg`] and [`crate::AmgCg`] is
//! written against this trait, and so is the power iteration in
//! `gssl_graph::spectral`, which runs on dense and CSR matrices alike.

use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;
use crate::vector::dot_slices;

/// A square linear operator on `R^dim`.
///
/// Implementors must write `A x` into `out`; both slices have length
/// [`LinearOperator::dim`]. The trait is object-safe so solvers can accept
/// `&dyn LinearOperator`.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `out = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.len()` or `out.len()` differ from
    /// [`LinearOperator::dim`].
    fn apply(&self, x: &[f64], out: &mut [f64]);
}

impl LinearOperator for Matrix {
    fn dim(&self) -> usize {
        debug_assert!(self.is_square(), "LinearOperator requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "operand length mismatch");
        assert_eq!(out.len(), self.rows(), "output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot_slices(self.row(i), x);
        }
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.matvec_into(x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn apply_to_vec(op: &dyn LinearOperator, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; op.dim()];
        op.apply(x, &mut out);
        out
    }

    #[test]
    fn matrix_as_operator_matches_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let out = apply_to_vec(&a, &[1.0, 1.0]);
        assert_eq!(out, vec![3.0, 7.0]);
    }

    #[test]
    fn operators_are_object_safe() {
        let a = Matrix::identity(2);
        let boxed: Box<dyn LinearOperator> = Box::new(a);
        assert_eq!(boxed.dim(), 2);
    }
}
