//! # gssl-linalg
//!
//! Dense and sparse linear algebra substrate for the `gssl` workspace — a
//! from-scratch reproduction of the numerical kernel needed by graph-based
//! semi-supervised learning (Du, Zhao & Wang, ICDCS 2019).
//!
//! Everything the paper's closed forms require is here:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major storage with the usual
//!   algebra (products, norms, block extraction, stacking).
//! * [`Lu`] — LU factorization with partial pivoting for general square
//!   systems (Eq. 4 of the paper).
//! * [`Cholesky`] — for the symmetric positive-definite systems that both
//!   criteria produce on connected graphs (Eq. 5).
//! * [`PrecondCg`] / [`AmgCg`] — conjugate gradient preconditioned by
//!   Jacobi, block-Jacobi, IC(0) or an AMG V-cycle — and the stationary
//!   solvers in [`stationary`]: matrix-free backends behind the
//!   [`LinearOperator`] trait.
//! * [`CsrMatrix`] — compressed sparse rows for kNN / ε-threshold graphs.
//! * [`Factorization`] / [`SolverPolicy`] — the unified backend layer:
//!   factor once (Cholesky, LU, or Jacobi-preconditioned CG), solve many,
//!   with auto-selection from size, symmetry, and nonzero density.
//! * [`BlockPartition`] — the labeled/unlabeled 2×2 split the paper's
//!   derivation is written in.
//!
//! ## Example
//!
//! Solve the hard-criterion system `(D₂₂ − W₂₂) f = W₂₁ y` directly:
//!
//! ```
//! use gssl_linalg::{Cholesky, Matrix, Vector};
//! # fn main() -> Result<(), gssl_linalg::Error> {
//! // A 1-labeled + 2-unlabeled toy graph with all similarities 1.
//! let system = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]])?;
//! let rhs = Vector::from(vec![1.0, 1.0]); // W21 * y with y = [1]
//! let scores = Cholesky::factor(&system)?.solve(&rhs)?;
//! assert!(scores.approx_eq(&Vector::from(vec![1.0, 1.0]), 1e-12));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod amg;
mod blocks;
mod cg;
mod cholesky;
mod eigen;
mod error;
mod factor;
/// Named helpers for the rare exact floating-point comparisons.
pub mod float;
mod iterative;
mod lu;
mod matrix;
mod ops;
mod precond;
mod sparse;
/// Runtime numeric sanitizer behind the `strict-checks` feature.
pub mod strict;
mod vector;

pub use amg::{AmgCg, AmgOptions};
pub use blocks::BlockPartition;
pub use cg::{CgOptions, CgOutcome};
pub use cholesky::{is_positive_definite, Cholesky};
pub use eigen::{symmetric_eigen, EigenOptions, SymmetricEigen};
pub use error::{Error, Result};
pub use factor::{
    BackendKind, CgSystem, FactorReport, Factorization, PrecondCg, SolverBackend, SolverPolicy,
    SparseStrategy,
};
pub use lu::{inverse, solve, solve_matrix, Lu};
pub use matrix::Matrix;
pub use ops::{DiagonalOperator, LinearOperator, ShiftedOperator, SumOperator};
pub use precond::{
    BlockJacobiPrecond, Ic0, JacobiPrecond, Precond, PrecondKind, Preconditioner, DEFAULT_BLOCK_DIM,
};
pub use sparse::CsrMatrix;
pub use vector::Vector;

/// Stationary iterative solvers (Jacobi, Gauss–Seidel).
pub mod stationary {
    pub use crate::iterative::{gauss_seidel, jacobi, IterationOptions, IterationOutcome};
}
