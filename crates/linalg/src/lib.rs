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
//! * [`PrecondCg`] / [`AmgCg`] — conjugate gradient on a CSR system,
//!   preconditioned by Jacobi, IC(0) or an AMG V-cycle.
//! * [`stationary`] — Jacobi and Gauss–Seidel sweeps on a dense system.
//! * [`CsrMatrix`] — compressed sparse rows for kNN / ε-threshold graphs.
//! * [`Factorization`] / [`SolverPolicy`] — the unified backend layer:
//!   factor once (Cholesky, LU, Jacobi- or IC(0)-preconditioned CG, or
//!   AMG), solve many, with auto-selection from size, symmetry, nonzero
//!   density and bandwidth.
//! * [`LinearOperator`] — `x ↦ A x` for dense and CSR matrices, the
//!   interface the CG kernel and `gssl_graph`'s power iteration run on.
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
pub use cg::CgOptions;
pub use cholesky::{is_positive_definite, Cholesky};
pub use eigen::{symmetric_eigen, EigenOptions, SymmetricEigen};
pub use error::{Error, Result};
pub use factor::{
    BackendKind, FactorReport, Factorization, PrecondCg, SolverBackend, SolverPolicy,
    SparseStrategy,
};
pub use lu::{inverse, solve, solve_matrix, Lu};
pub use matrix::Matrix;
pub use ops::LinearOperator;
pub use precond::{Ic0, JacobiPrecond, Precond, PrecondKind, Preconditioner};
pub use sparse::CsrMatrix;
pub use vector::Vector;

/// Stationary iterative solvers (Jacobi, Gauss–Seidel).
pub mod stationary {
    pub use crate::iterative::{gauss_seidel, jacobi, IterationOptions, IterationOutcome};
}

#[cfg(test)]
/// Test-only bitwise oracles for the dense kernels, and what the
/// kernels' oracle tests share.
mod dense_oracles {
    use crate::float::is_exactly_zero;
    use crate::{strict, Error, Matrix, Result};

    include!("../tests/support/dense_oracles.rs");

    /// Worker counts every dense kernel is checked at.
    pub const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

    /// Orders on each side of the 32-column panel edges, plus the empty
    /// matrix.
    pub const ORDERS: [usize; 9] = [0, 1, 31, 32, 33, 64, 65, 83, 200];

    /// Every entry's bit pattern, so `-0.0` and `0.0` differ.
    pub fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }
}
