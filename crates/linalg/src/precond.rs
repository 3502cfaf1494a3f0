//! Preconditioners for the conjugate-gradient backend.
//!
//! A preconditioner approximates `A⁻¹` cheaply enough to apply once per CG
//! iteration: the closer `M⁻¹ A` is to the identity, the fewer iterations
//! PCG needs. [`crate::PrecondCg`] builds one of two classical choices,
//! in increasing strength (and setup cost):
//!
//! * [`JacobiPrecond`] — `M = diag(A)`. Free to build, one multiply per
//!   entry to apply; only corrects scaling.
//! * [`Ic0`] — incomplete Cholesky with zero fill-in: a lower-triangular
//!   `L` on the sparsity pattern of `tril(A)` with `L Lᵀ ≈ A`. On banded
//!   matrices (no fill-in discarded) it is *exact* and PCG converges in a
//!   handful of iterations.
//!
//! [`crate::AmgCg`]'s K-cycle is the third [`Preconditioner`]. All of
//! them are deterministic: building and applying them performs the same
//! floating-point operations in the same order on every run and at every
//! worker count.

use crate::error::{Error, Result};
use crate::sparse::{widen, CsrMatrix};
use crate::strict;

/// Application side of a preconditioner: `z = M⁻¹ r`.
///
/// The CG loop is flexible (FCG(1)), so an application need not be one
/// fixed linear operator: AMG's K-cycle runs Krylov steps inside and is
/// nonlinear in `r`. It should still be positive (`⟨r, z⟩ > 0` whenever
/// `r ≠ 0`); the concrete types in this module are SPD by construction
/// (positive diagonals, `L Lᵀ` products).
pub trait Preconditioner {
    /// Dimension of the preconditioned system.
    fn dim(&self) -> usize;

    /// Applies `z = M⁻¹ r`. Both slices have length [`Preconditioner::dim`];
    /// callers guarantee this (the PCG driver checks once per solve).
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// Which preconditioner [`crate::PrecondCg`] should build at factor time.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum PrecondKind {
    /// Diagonal (Jacobi) scaling — the historical default.
    #[default]
    Jacobi,
    /// Incomplete Cholesky with zero fill-in on the pattern of `tril(A)`.
    Ic0,
}

/// A built preconditioner: the concrete, cloneable sum type
/// [`crate::PrecondCg`] stores (one variant per [`PrecondKind`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Precond {
    /// Diagonal (Jacobi) scaling.
    Jacobi(JacobiPrecond),
    /// Incomplete Cholesky IC(0).
    Ic0(Ic0),
}

impl Precond {
    /// Builds the preconditioner `kind` from a CSR system matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] when the diagonal has a
    ///   non-positive entry, or the IC(0) recurrence breaks down (a pivot
    ///   `a_ii − Σ l_ik²` drops to zero or below) — IC(0) can break down
    ///   on SPD matrices that are far from diagonally dominant even though
    ///   the exact factorization exists.
    pub fn build(a: &CsrMatrix, kind: &PrecondKind) -> Result<Precond> {
        match kind {
            PrecondKind::Jacobi => Ok(Precond::Jacobi(JacobiPrecond::from_csr(a)?)),
            PrecondKind::Ic0 => Ok(Precond::Ic0(Ic0::factor(a)?)),
        }
    }

    /// The [`PrecondKind`] this preconditioner was built as.
    pub fn kind(&self) -> PrecondKind {
        match self {
            Precond::Jacobi(_) => PrecondKind::Jacobi,
            Precond::Ic0(_) => PrecondKind::Ic0,
        }
    }
}

impl Preconditioner for Precond {
    fn dim(&self) -> usize {
        match self {
            Precond::Jacobi(p) => p.dim(),
            Precond::Ic0(p) => p.dim(),
        }
    }

    /// hot
    /// complexity: O(nnz)
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            Precond::Jacobi(p) => p.apply(r, z),
            Precond::Ic0(p) => p.apply(r, z),
        }
    }
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

/// Incomplete Cholesky with zero fill-in, IC(0).
///
/// Computes a lower-triangular `L` restricted to the sparsity pattern of
/// `tril(A)` by the standard recurrence
///
/// ```text
/// l_ij = (a_ij − Σ_{k<j} l_ik l_jk) / l_jj        (j < i, (i,j) stored)
/// l_ii = sqrt(a_ii − Σ_{k<i} l_ik²)
/// ```
///
/// dropping every product outside the pattern. `M = L Lᵀ` is SPD whenever
/// the recurrence completes with positive pivots; applying `M⁻¹` is one
/// sparse forward and one sparse backward substitution. On matrices whose
/// exact factor has no fill-in (e.g. banded systems ordered naturally)
/// IC(0) *is* the exact Cholesky factor.
#[derive(Debug, Clone)]
pub struct Ic0 {
    dim: usize,
    // Lower factor in CSR (rows sorted by column; diagonal entry last),
    // with `u32` column ids as in `CsrMatrix`.
    l_indptr: Vec<usize>,
    l_indices: Vec<u32>,
    l_values: Vec<f64>,
    // Lᵀ in CSR (each row i holds the strictly-upper entries u_ij = l_ji,
    // j > i, plus the diagonal first) for the cache-friendly backward solve.
    u_indptr: Vec<usize>,
    u_indices: Vec<u32>,
    u_values: Vec<f64>,
}

impl Ic0 {
    /// Factors `a` on the pattern of its lower triangle.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] when a diagonal entry is missing,
    ///   non-positive, or the recurrence breaks down at some pivot.
    ///
    /// complexity: O(nnz * rows)
    /// deterministic
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(Error::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        // The pattern of tril(A): CSR rows are sorted, so each row's lower
        // part is a prefix ending with the diagonal. Count it first so L is
        // allocated at exactly its size.
        let lower = |i: usize| {
            let (cols, vals) = a.row(i);
            let len = cols.partition_point(|&j| widen(j) <= i);
            (&cols[..len], &vals[..len])
        };
        let lower_nnz = (0..n).map(|i| lower(i).0.len()).sum();
        let mut l_indptr = Vec::with_capacity(n + 1);
        let mut l_indices = Vec::with_capacity(lower_nnz);
        let mut l_values = Vec::with_capacity(lower_nnz);
        l_indptr.push(0);
        for i in 0..n {
            let (cols, vals) = lower(i);
            if cols.last().is_none_or(|&j| widen(j) != i) {
                // An SPD matrix stores a (positive) diagonal in every row.
                return Err(Error::NotPositiveDefinite { pivot: i });
            }
            // Seed with a_ij; the elimination below subtracts the
            // already-computed products in place.
            l_indices.extend_from_slice(cols);
            l_values.extend_from_slice(vals);
            l_indptr.push(l_indices.len());
        }

        for i in 0..n {
            let (row_start, row_end) = (l_indptr[i], l_indptr[i + 1]);
            for idx in row_start..row_end {
                let j = widen(l_indices[idx]);
                let sum = sparse_row_dot(
                    &l_indices,
                    &l_values,
                    row_start..idx,
                    l_indptr[j]..l_indptr[j + 1],
                    j,
                );
                let seeded = l_values[idx] - sum;
                if j == i {
                    if !(seeded > 0.0) || !seeded.is_finite() {
                        return Err(Error::NotPositiveDefinite { pivot: i });
                    }
                    l_values[idx] = seeded.sqrt();
                } else {
                    // The diagonal of row j is its last stored entry.
                    let ljj = l_values[l_indptr[j + 1] - 1];
                    l_values[idx] = seeded / ljj;
                }
            }
        }
        strict::check_finite("ic0 factor values", &l_values)?;

        // Transpose L into U = Lᵀ by a counting sort over columns, keeping
        // each U row sorted (diagonal first, then j > i in order).
        let nnz = l_indices.len();
        let mut u_indptr = vec![0usize; n + 1];
        for &j in &l_indices {
            u_indptr[widen(j) + 1] += 1;
        }
        for k in 0..n {
            u_indptr[k + 1] += u_indptr[k];
        }
        let mut u_indices = vec![0u32; nnz];
        let mut u_values = vec![0.0f64; nnz];
        let mut cursor = u_indptr.clone();
        // Row ids of L are column ids of Lᵀ; the range stops at u32::MAX
        // without overflowing, and n <= 2^32.
        for (i, row_id) in (0..n).zip(0..=u32::MAX) {
            for idx in l_indptr[i]..l_indptr[i + 1] {
                let j = widen(l_indices[idx]);
                let at = cursor[j];
                u_indices[at] = row_id;
                u_values[at] = l_values[idx];
                cursor[j] = at + 1;
            }
        }

        Ok(Ic0 {
            dim: n,
            l_indptr,
            l_indices,
            l_values,
            u_indptr,
            u_indices,
            u_values,
        })
    }

    /// Number of stored entries of the factor `L`.
    pub fn nnz(&self) -> usize {
        self.l_indices.len()
    }
}

impl Preconditioner for Ic0 {
    fn dim(&self) -> usize {
        self.dim
    }

    /// Solves `L Lᵀ z = r`: sparse forward substitution on the rows of
    /// `L`, then sparse backward substitution on the rows of `Lᵀ`, both in
    /// place in `z`.
    /// hot
    /// complexity: O(nnz)
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.dim;
        // Forward: L y = r (each row ends with its diagonal).
        for i in 0..n {
            let (start, end) = (self.l_indptr[i], self.l_indptr[i + 1]);
            let mut sum = r[i];
            for idx in start..end - 1 {
                sum -= self.l_values[idx] * z[widen(self.l_indices[idx])];
            }
            z[i] = sum / self.l_values[end - 1];
        }
        // Backward: Lᵀ x = y (each U row starts with its diagonal).
        for i in (0..n).rev() {
            let (start, end) = (self.u_indptr[i], self.u_indptr[i + 1]);
            let mut sum = z[i];
            for idx in start + 1..end {
                sum -= self.u_values[idx] * z[widen(self.u_indices[idx])];
            }
            z[i] = sum / self.u_values[start];
        }
    }
}

/// Sparse dot product of two CSR rows of `L` over the shared columns
/// `k < stop_col`: a two-pointer merge of two sorted index ranges into the
/// shared `indices`/`values` storage.
/// complexity: O(len)
fn sparse_row_dot(
    indices: &[u32],
    values: &[f64],
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    stop_col: usize,
) -> f64 {
    let mut sum = 0.0;
    let mut p = a.start;
    let mut q = b.start;
    while p < a.end && q < b.end {
        let (cp, cq) = (widen(indices[p]), widen(indices[q]));
        if cp == stop_col || cq == stop_col {
            break;
        }
        match cp.cmp(&cq) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                sum += values[p] * values[q];
                p += 1;
                q += 1;
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

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

    #[test]
    fn ic0_is_exact_on_banded_systems() {
        // A tridiagonal matrix has a bidiagonal exact factor: IC(0) keeps
        // every entry, so M = A exactly and apply() is a direct solve.
        let n = 12;
        let a = spd_tridiagonal(n);
        let ic = Ic0::factor(&a).unwrap();
        let dense = a.to_dense();
        let r = Vector::from_fn(n, |i| ((i as f64) * 0.9).sin() + 1.5);
        let z = apply_inverse(&ic, r.as_slice());
        let exact = crate::lu::solve(&dense, &r).unwrap();
        for (zi, ei) in z.iter().zip(exact.as_slice()) {
            assert!((zi - ei).abs() < 1e-10);
        }
        assert!(ic.nnz() > 0);
    }

    #[test]
    fn ic0_pattern_restriction_drops_fill_in() {
        // An arrow matrix fills in completely under exact Cholesky; IC(0)
        // must keep only the arrow pattern yet still produce an SPD M.
        let n = 6;
        let mut triplets = vec![];
        for i in 0..n {
            triplets.push((i, i, 4.0));
        }
        for i in 1..n {
            triplets.push((0, i, 1.0));
            triplets.push((i, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let ic = Ic0::factor(&a).unwrap();
        // Pattern of L == pattern of tril(A): first column + diagonal.
        assert_eq!(ic.nnz(), n + (n - 1));
        // M⁻¹ applied to anything stays finite and symmetric:
        // (e_i, M⁻¹ e_j) == (e_j, M⁻¹ e_i).
        let mut basis = vec![vec![0.0; n]; n];
        for (i, b) in basis.iter_mut().enumerate() {
            b[i] = 1.0;
        }
        for i in 0..n {
            let zi = apply_inverse(&ic, &basis[i]);
            for (j, zj) in basis.iter().enumerate().skip(i + 1) {
                let zj = apply_inverse(&ic, zj);
                assert!((zi[j] - zj[i]).abs() < 1e-12, "M must stay symmetric");
            }
        }
    }

    #[test]
    fn ic0_validates_inputs() {
        assert!(matches!(
            Ic0::factor(&CsrMatrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
        // Missing diagonal entry.
        let no_diag =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 0.5), (1, 0, 0.5)]).unwrap();
        assert!(matches!(
            Ic0::factor(&no_diag),
            Err(Error::NotPositiveDefinite { pivot: 1 })
        ));
        // Indefinite input breaks the recurrence.
        let indef =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)])
                .unwrap();
        assert!(matches!(
            Ic0::factor(&indef),
            Err(Error::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn precond_enum_builds_and_reports_kind() {
        let a = spd_tridiagonal(9);
        let jacobi = Precond::build(&a, &PrecondKind::Jacobi).unwrap();
        assert_eq!(jacobi.kind(), PrecondKind::Jacobi);
        let ic = Precond::build(&a, &PrecondKind::Ic0).unwrap();
        assert_eq!(ic.kind(), PrecondKind::Ic0);
        for p in [&jacobi, &ic] {
            assert_eq!(p.dim(), 9);
            let r = vec![1.0; 9];
            let z = apply_inverse(p, &r);
            assert!(z.iter().all(|v| v.is_finite()));
        }
    }
}
