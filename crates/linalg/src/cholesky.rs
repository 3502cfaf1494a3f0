//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The hard-criterion system matrix `D₂₂ − W₂₂` and the soft-criterion
//! matrix `V + λL` are symmetric and (on suitable graphs) positive definite,
//! so Cholesky is the natural direct backend: half the work of LU and an
//! SPD-validity check for free.

use crate::error::{Error, Result};
use crate::matrix::{row_block, Matrix};
use crate::strict;
use crate::vector::Vector;
use gssl_runtime::Executor;

/// Columns swept together by the substitution kernel: their running
/// values stay in registers while `k` walks down the factor.
const SWEEP_WIDTH: usize = 8;

/// Absolute symmetry tolerance applied by the `strict-checks` sanitizer to
/// Cholesky inputs (the criteria's system matrices are symmetric exactly,
/// up to assembly rounding).
const STRICT_SYMMETRY_TOL: f64 = 1e-9;

/// A Cholesky factorization `A = L Lᵀ` with `L` lower triangular.
///
/// ```
/// use gssl_linalg::{Cholesky, Matrix, Vector};
/// # fn main() -> Result<(), gssl_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&Vector::from(vec![6.0, 5.0]))?;
/// let back = a.matvec(&x)?;
/// assert!(back.approx_eq(&Vector::from(vec![6.0, 5.0]), 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense (upper part zero).
    lower: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix: the blocked
    /// [`Cholesky::factor_with`] kernel on the calling thread.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (use [`Matrix::is_symmetric`] to check).
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] when a diagonal pivot is `<= 0`
    ///   (or not finite).
    /// * [`Error::NonFiniteValue`] / [`Error::InvalidArgument`] under
    ///   `strict-checks` when `a` is non-finite or asymmetric.
    ///
    /// hot
    /// complexity: O(n^3)
    /// deterministic
    pub fn factor(a: &Matrix) -> Result<Self> {
        Cholesky::factor_with(a, &Executor::Sequential)
    }

    /// Factorizes a symmetric positive-definite matrix with trailing-block
    /// updates spread across `executor`; the factor is bit-identical at
    /// every worker count.
    ///
    /// The algorithm is a right-looking blocked factorization over a
    /// working copy of `a`: each panel of `PANEL_WIDTH` (32) columns is
    /// factored in place, then every trailing row subtracts the panel's
    /// outer products independently — one task per row block, reading a
    /// snapshot of the panel's `L` columns so no task reads a row another
    /// is writing. Each element sees exactly the left-looking sequence of
    /// operations: the subtractions `l[i][k] · l[j][k]` in globally
    /// increasing `k`, then one division by the pivot (or one square root
    /// on the diagonal). A sequential executor runs the row blocks in
    /// order on the calling thread.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::factor`].
    ///
    /// hot
    /// complexity: O(n^3)
    /// deterministic
    pub fn factor_with(a: &Matrix, executor: &Executor) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        strict::check_finite_matrix("cholesky.factor input", a)?;
        strict::check_symmetric("cholesky.factor input", a, STRICT_SYMMETRY_TOL)?;
        let n = a.rows();
        // Working copy: the lower triangle turns into L panel by panel;
        // the upper triangle is never read and is zeroed at the end.
        let mut w = a.clone();

        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + Self::PANEL_WIDTH).min(n);
            // Panel factorization: columns j0..j1 sequentially. Entries in
            // these columns already carry the subtractions for k < j0 from
            // earlier trailing updates, so only the within-panel k remain.
            for j in j0..j1 {
                let mut diag = w.get(j, j);
                for &v in &w.row(j)[j0..j] {
                    diag -= v * v;
                }
                if !(diag > 0.0) || !diag.is_finite() {
                    return Err(Error::NotPositiveDefinite { pivot: j });
                }
                let diag_sqrt = diag.sqrt();
                w.set(j, j, diag_sqrt);
                for i in (j + 1)..n {
                    let mut sum = w.get(i, j);
                    for (lik, ljk) in w.row(i)[j0..j].iter().zip(&w.row(j)[j0..j]) {
                        sum -= lik * ljk;
                    }
                    w.set(i, j, sum / diag_sqrt);
                }
            }
            if j1 == n {
                break;
            }
            // Snapshot the finished panel columns of the trailing rows
            // (`L21`), stored column-major (one contiguous run per panel
            // column): trailing row i reads rows j >= j1 of this block
            // while their owners write other columns of the same rows, so
            // the read side must not alias the write side — and the
            // transposed layout makes the innermost update a contiguous
            // zip instead of a strided indexed walk.
            let pw = j1 - j0;
            let trailing_rows = n - j1;
            let mut l21t = vec![0.0; pw * trailing_rows];
            for k_off in 0..pw {
                let col = &mut l21t[k_off * trailing_rows..(k_off + 1) * trailing_rows];
                for (dst, i) in col.iter_mut().zip(j1..n) {
                    *dst = w.get(i, j0 + k_off);
                }
            }
            // Trailing update, parallel by row block: lower-triangle entry
            // (i, j) with j >= j1 subtracts l[i][k] * l[j][k] for the
            // panel's k in increasing order — the same operations, on the
            // same running value, as the left-looking inner loop.
            let block_rows = row_block(trailing_rows, executor);
            let data = w.as_mut_slice();
            let tail = &mut data[j1 * n..];
            let l21t = &l21t[..];
            executor.for_each_chunk_mut(tail, block_rows * n, |start, chunk| {
                let first_row = j1 + start / n;
                for (local, row) in chunk.chunks_mut(n).enumerate() {
                    let i = first_row + local;
                    for k_off in 0..pw {
                        let lk = &l21t[k_off * trailing_rows..(k_off + 1) * trailing_rows];
                        let lik = lk[i - j1];
                        let updated = &mut row[j1..=i];
                        for (value, ljk) in updated.iter_mut().zip(lk) {
                            *value -= lik * ljk;
                        }
                    }
                }
            })?;
            j0 = j1;
        }

        // `L` is lower triangular: clear the never-read upper triangle of
        // the working copy.
        for i in 0..n {
            for j in (i + 1)..n {
                w.set(i, j, 0.0);
            }
        }
        Ok(Cholesky { lower: w })
    }

    /// Panel width of the blocked [`Cholesky::factor_with`] algorithm:
    /// wide enough to amortize the sequential panel work, narrow enough
    /// that trailing updates dominate and parallelize.
    const PANEL_WIDTH: usize = 32;

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lower.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    /// shape: (n, n)
    pub fn lower(&self) -> &Matrix {
        &self.lower
    }

    /// Solves `A x = b` via forward and back substitution: the
    /// one-column case of [`Cholesky::solve_matrix`], through the same
    /// substitution kernel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `b.len() != dim()`, or
    /// [`Error::NonFiniteValue`] under `strict-checks` when the right-hand
    /// side or the computed solution is non-finite.
    /// shape: (b.len,)
    /// hot
    /// complexity: O(n^2)
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "cholesky solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x = b.as_slice().to_vec();
        self.substitute(&mut x, 1)?;
        Ok(Vector::from(x))
    }

    /// Solves `A X = B` for all columns of `B` together, by forward and
    /// back substitution over a row-major copy of `B`.
    ///
    /// Each column sees exactly the operation sequence of
    /// [`Cholesky::solve`] — the same subtractions in the same ascending
    /// order, then the same division — so the result is bitwise the
    /// column-by-column solve at any column count. Only the traversal
    /// changes: columns are swept eight at a time, so each cache line of
    /// `X`, and each strided read of `L` in the backward sweep, serves
    /// eight columns instead of one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `B.rows() != dim()`, or
    /// [`Error::NonFiniteValue`] under `strict-checks` when `B` or the
    /// computed solution is non-finite (flat row-major index).
    /// shape: (b.rows, b.cols)
    /// hot
    /// complexity: O(n^2 * c)
    /// deterministic
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                operation: "cholesky solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut x = b.as_slice().to_vec();
        self.substitute(&mut x, b.cols())?;
        Matrix::from_vec(n, b.cols(), x)
    }

    /// Overwrites `x`, an `n × cols` row-major block of right-hand sides,
    /// with the solutions of `A X = B`.
    ///
    /// Forward sweep (`L Y = B`): row `i` starts from `b[i]`, subtracts
    /// `L[i][k]·y[k]` for `k = 0..i` in ascending order, then divides by
    /// `L[i][i]`. Backward sweep (`Lᵀ X = Y`): row `i` subtracts
    /// `L[k][i]·x[k]` for `k = i+1..n` in ascending order, then divides
    /// by `L[i][i]`. Columns are independent, so they are swept
    /// [`SWEEP_WIDTH`] at a time with their running values in registers;
    /// no fused multiply-add and no reordering of a column's `k` sum, so
    /// every column's bits are independent of `cols`.
    /// hot
    /// complexity: O(n^2 * c)
    #[inline(always)]
    fn substitute(&self, x: &mut [f64], cols: usize) -> Result<()> {
        strict::check_finite("cholesky.solve rhs", x)?;
        let mut c0 = 0;
        while c0 + SWEEP_WIDTH <= cols {
            self.sweep::<SWEEP_WIDTH>(x, cols, c0);
            c0 += SWEEP_WIDTH;
        }
        for c in c0..cols {
            self.sweep::<1>(x, cols, c);
        }
        strict::check_finite("cholesky.solve output", x)
    }

    /// Forward then backward substitution of the `W` columns
    /// `c0..c0 + W` of the row-major `n × cols` block `x` (`c = W`).
    /// hot
    /// complexity: O(n^2 * c)
    #[inline(always)]
    fn sweep<const W: usize>(&self, x: &mut [f64], cols: usize, c0: usize) {
        let n = self.dim();
        for i in 0..n {
            let row = self.lower.row(i);
            let mut acc = [0.0; W];
            acc.copy_from_slice(&x[i * cols + c0..][..W]);
            for (&lik, xk) in row[..i].iter().zip(x.chunks_exact(cols)) {
                for (a, &u) in acc.iter_mut().zip(&xk[c0..c0 + W]) {
                    *a -= lik * u;
                }
            }
            let pivot = row[i];
            for (v, a) in x[i * cols + c0..][..W].iter_mut().zip(acc) {
                *v = a / pivot;
            }
        }
        for i in (0..n).rev() {
            let mut acc = [0.0; W];
            acc.copy_from_slice(&x[i * cols + c0..][..W]);
            for (k, xk) in (i + 1..n).zip(x[(i + 1) * cols..].chunks_exact(cols)) {
                let lki = self.lower.get(k, i);
                for (a, &u) in acc.iter_mut().zip(&xk[c0..c0 + W]) {
                    *a -= lki * u;
                }
            }
            let pivot = self.lower.get(i, i);
            for (v, a) in x[i * cols + c0..][..W].iter_mut().zip(acc) {
                *v = a / pivot;
            }
        }
    }

    /// Determinant (product of squared diagonal entries of `L`).
    pub fn det(&self) -> f64 {
        let mut det = 1.0;
        for i in 0..self.dim() {
            let d = self.lower.get(i, i);
            det *= d * d;
        }
        det
    }

    /// Log-determinant, numerically stable for large well-conditioned
    /// matrices where [`Cholesky::det`] would overflow.
    pub fn log_det(&self) -> f64 {
        (0..self.dim())
            .map(|i| 2.0 * self.lower.get(i, i).ln())
            .sum()
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors from the underlying solves.
    /// shape: (n, n)
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// Tests whether a symmetric matrix is positive definite by attempting a
/// Cholesky factorization.
pub fn is_positive_definite(a: &Matrix) -> bool {
    Cholesky::factor(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_oracles as oracles;

    fn spd_sample() -> Matrix {
        // A = Bᵀ B + I is SPD for any B.
        let b =
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]).unwrap();
        &b.transpose().matmul(&b).unwrap() + &Matrix::identity(3)
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_sample();
        let chol = Cholesky::factor(&a).unwrap();
        let l = chol.lower();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn lower_factor_is_lower_triangular() {
        let chol = Cholesky::factor(&spd_sample()).unwrap();
        let l = chol.lower();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn solve_has_small_residual() {
        let a = spd_sample();
        let b = Vector::from(vec![1.0, -2.0, 0.5]);
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_matrix_matches_identity_inverse() {
        let a = spd_sample();
        let chol = Cholesky::factor(&a).unwrap();
        let inv = chol.inverse().unwrap();
        assert!(a
            .matmul(&inv)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-11));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(Error::NotPositiveDefinite { pivot: 1 })
        ));
        assert!(!is_positive_definite(&a));
        assert!(is_positive_definite(&Matrix::identity(2)));
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_zero_matrix() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 2)),
            Err(Error::NotPositiveDefinite { pivot: 0 })
        ));
    }

    /// `BᵀB + n·I` for a dense `B`: SPD at every order.
    fn spd(n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) as f64 * 0.37).sin());
        let mut a = b.transpose().matmul(&b).unwrap();
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64);
        }
        a
    }

    /// The factor (or error) at every worker count, `factor` included,
    /// equals the left-looking oracle's.
    fn assert_matches_oracle(a: &Matrix, label: &str) {
        let want = oracles::cholesky(a).map(|l| oracles::bits(&l));
        let got = Cholesky::factor(a).map(|c| oracles::bits(c.lower()));
        assert_eq!(got, want, "{label}, factor");
        for workers in oracles::WORKERS {
            let executor = Executor::with_workers(workers);
            let got = Cholesky::factor_with(a, &executor).map(|c| oracles::bits(c.lower()));
            assert_eq!(got, want, "{label}, {workers} workers");
        }
    }

    #[test]
    fn factor_is_bitwise_the_left_looking_oracle() {
        for n in oracles::ORDERS {
            assert_matches_oracle(&spd(n), &format!("n = {n}"));
        }
    }

    #[test]
    fn factor_errors_match_the_oracle() {
        // Indefinite past two panels: the failing pivot is only reached
        // after trailing updates have run.
        let mut indefinite = spd(83);
        indefinite.set(70, 70, -1.0);
        assert!(matches!(
            oracles::cholesky(&indefinite),
            Err(Error::NotPositiveDefinite { pivot: 70 })
        ));
        assert_matches_oracle(&indefinite, "indefinite");
        assert_matches_oracle(&Matrix::zeros(2, 3), "non-square");
    }

    #[test]
    fn det_and_log_det_agree() {
        let a = spd_sample();
        let chol = Cholesky::factor(&a).unwrap();
        assert!((chol.det().ln() - chol.log_det()).abs() < 1e-10);
        // Cross-check against LU determinant.
        let lu_det = crate::lu::Lu::factor(&a).unwrap().det();
        assert!((chol.det() - lu_det).abs() < 1e-8 * lu_det.abs());
    }

    #[test]
    fn solve_rejects_wrong_len() {
        let chol = Cholesky::factor(&Matrix::identity(2)).unwrap();
        assert!(chol.solve(&Vector::zeros(3)).is_err());
        assert!(chol.solve_matrix(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn matches_lu_solution() {
        let a = spd_sample();
        let b = Vector::from(vec![3.0, 1.0, 4.0]);
        let x_chol = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        assert!(x_chol.approx_eq(&x_lu, 1e-10));
    }
}
