// Bitwise oracles for the dense kernels: the sequential bodies that
// `Cholesky::factor` (left-looking), `Lu::factor` (unblocked) and
// `Matrix::matmul` (i-k-j) ran before each kernel kept a single executor
// body. They are copied verbatim, except that the receiver is an argument,
// private fields are read through accessors and the factors are returned
// as plain parts. The one-body kernels must reproduce them bit for bit at
// every worker count.
//
// Test-only code, pulled in with `include!` by gssl-linalg's unit tests
// and by the workspace determinism suite. The including module brings
// `Matrix`, `Error`, `Result`, `strict` and `is_exactly_zero` into scope.

/// `cholesky.rs`'s `strict-checks` symmetry tolerance.
const STRICT_SYMMETRY_TOL: f64 = 1e-9;

/// `lu.rs`'s relative singularity threshold.
const SINGULARITY_RTOL: f64 = 1e-13;

/// The left-looking Cholesky factorization; returns `L`.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(Error::NotSquare { shape: a.shape() });
    }
    strict::check_finite_matrix("cholesky.factor input", a)?;
    strict::check_symmetric("cholesky.factor input", a, STRICT_SYMMETRY_TOL)?;
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut diag = a.get(j, j);
        for &v in &l.row(j)[..j] {
            diag -= v * v;
        }
        if !(diag > 0.0) || !diag.is_finite() {
            return Err(Error::NotPositiveDefinite { pivot: j });
        }
        let diag_sqrt = diag.sqrt();
        l.set(j, j, diag_sqrt);
        for i in (j + 1)..n {
            let mut sum = a.get(i, j);
            for (lik, ljk) in l.row(i)[..j].iter().zip(&l.row(j)[..j]) {
                sum -= lik * ljk;
            }
            l.set(i, j, sum / diag_sqrt);
        }
    }
    Ok(l)
}

/// The unblocked LU elimination with partial pivoting; returns the packed
/// factors, the row permutation and its sign.
pub fn lu(a: &Matrix) -> Result<(Matrix, Vec<usize>, f64)> {
    if !a.is_square() {
        return Err(Error::NotSquare { shape: a.shape() });
    }
    strict::check_finite_matrix("lu.factor input", a)?;
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut perm_sign = 1.0;
    let scale = a.norm_max().max(f64::MIN_POSITIVE);

    for k in 0..n {
        // Partial pivoting: bring the largest |entry| in column k to row k.
        let mut pivot_row = k;
        let mut pivot_val = lu.get(k, k).abs();
        for i in (k + 1)..n {
            let v = lu.get(i, k).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val <= SINGULARITY_RTOL * scale {
            return Err(Error::Singular { pivot: k });
        }
        if pivot_row != k {
            lu.swap_rows(k, pivot_row);
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
        }
        let pivot = lu.get(k, k);
        let data = lu.as_mut_slice();
        let (head, tail) = data.split_at_mut((k + 1) * n);
        let pivot_row = &head[k * n + k + 1..(k + 1) * n];
        for row in tail.chunks_mut(n) {
            let factor = row[k] / pivot;
            row[k] = factor;
            if !is_exactly_zero(factor) {
                for (value, u) in row[k + 1..].iter_mut().zip(pivot_row) {
                    *value -= factor * u;
                }
            }
        }
    }

    Ok((lu, perm, perm_sign))
}

/// The i-k-j matrix product `lhs * rhs`.
pub fn matmul(lhs: &Matrix, rhs: &Matrix) -> Result<Matrix> {
    if lhs.cols() != rhs.rows() {
        return Err(Error::DimensionMismatch {
            operation: "matmul",
            left: lhs.shape(),
            right: rhs.shape(),
        });
    }
    let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
    // i-k-j loop order keeps the inner loop contiguous in both operands.
    for i in 0..lhs.rows() {
        let lhs_row = lhs.row(i);
        for (k, &a_ik) in lhs_row.iter().enumerate() {
            if is_exactly_zero(a_ik) {
                continue;
            }
            let rhs_row = rhs.row(k);
            let out_row = out.row_mut(i);
            for (o, r) in out_row.iter_mut().zip(rhs_row) {
                *o += a_ik * r;
            }
        }
    }
    Ok(out)
}
