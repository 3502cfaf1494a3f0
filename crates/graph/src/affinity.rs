//! Dense affinity (similarity) matrices: `W = [w_ij]` with
//! `w_ij = K(‖x_i − x_j‖ / h)`.

use crate::bandwidth::{squared_distance, Bandwidth};
use crate::error::{Error, Result};
use crate::kernel::Kernel;
use gssl_linalg::Matrix;
use gssl_runtime::Executor;

/// Row-block width used by the parallel assembly paths: a few blocks per
/// worker so stragglers even out without shredding cache locality.
fn row_block(rows: usize, executor: &Executor) -> usize {
    rows.div_ceil(executor.workers().saturating_mul(4)).max(1)
}

/// Pairwise squared-distance matrix of a point set (rows are points).
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] when `points` has no rows.
///
/// ```
/// use gssl_graph::affinity::pairwise_squared_distances;
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl_graph::Error> {
/// let pts = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]])?;
/// let d2 = pairwise_squared_distances(&pts)?;
/// assert_eq!(d2.get(0, 1), 25.0);
/// assert_eq!(d2.get(1, 1), 0.0);
/// # Ok(())
/// # }
/// ```
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn pairwise_squared_distances(points: &Matrix) -> Result<Matrix> {
    let n = points.rows();
    if n == 0 {
        return Err(Error::EmptyInput {
            required: "at least one point",
        });
    }
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        let row_i = points.row(i);
        for j in (i + 1)..n {
            let d2 = squared_distance(row_i, points.row(j));
            out.set(i, j, d2);
            out.set(j, i, d2);
        }
    }
    Ok(out)
}

/// [`pairwise_squared_distances`] with the row loop sharded across
/// `executor`, producing a matrix **bit-identical** to the sequential one.
///
/// Each worker computes the strict upper-triangle tail of a block of rows
/// — every `d²(i, j)` by the same `squared_distance` call as the
/// sequential path — and the tails are mirrored into the matrix in row
/// order afterwards, so worker count never changes a single bit.
///
/// # Errors
///
/// Same as [`pairwise_squared_distances`].
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn pairwise_squared_distances_with(points: &Matrix, executor: &Executor) -> Result<Matrix> {
    if executor.is_sequential() {
        return pairwise_squared_distances(points);
    }
    let n = points.rows();
    if n == 0 {
        return Err(Error::EmptyInput {
            required: "at least one point",
        });
    }
    let tails: Vec<Vec<f64>> = executor.map_chunks(n, row_block(n, executor), |range| {
        let mut rows = Vec::with_capacity(range.len());
        for i in range {
            let row_i = points.row(i);
            let mut tail = Vec::with_capacity(n - i - 1);
            for j in (i + 1)..n {
                tail.push(squared_distance(row_i, points.row(j)));
            }
            rows.push(tail);
        }
        Ok::<_, Error>(rows)
    })?;
    let mut out = Matrix::zeros(n, n);
    for (i, tail) in tails.iter().enumerate() {
        for (offset, &d2) in tail.iter().enumerate() {
            let j = i + 1 + offset;
            out.set(i, j, d2);
            out.set(j, i, d2);
        }
    }
    Ok(out)
}

/// Builds the dense affinity matrix `W` for `points` (rows are points)
/// using `kernel` at a concrete `bandwidth`.
///
/// The diagonal is included (`w_ii = K(0) = 1`), matching the paper's
/// definition of `W` where `d_i = Σ_j w_ij` sums over all `j` including
/// `j = i`. (The Laplacian `D − W` is unaffected by the diagonal.)
///
/// # Errors
///
/// * [`Error::EmptyInput`] when `points` has no rows.
/// * [`Error::InvalidBandwidth`] when `bandwidth <= 0`.
///
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn affinity_matrix(points: &Matrix, kernel: Kernel, bandwidth: f64) -> Result<Matrix> {
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let d2 = pairwise_squared_distances(points)?;
    affinity_from_distances(&d2, kernel, bandwidth)
}

/// [`affinity_matrix`] with both the distance and kernel passes sharded
/// across `executor`; output bit-identical to the sequential one.
///
/// # Errors
///
/// Same as [`affinity_matrix`].
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn affinity_matrix_with(
    points: &Matrix,
    kernel: Kernel,
    bandwidth: f64,
    executor: &Executor,
) -> Result<Matrix> {
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let d2 = pairwise_squared_distances_with(points, executor)?;
    affinity_from_distances_with(&d2, kernel, bandwidth, executor)
}

/// Builds the affinity matrix from a precomputed squared-distance matrix.
///
/// Useful when several bandwidths or kernels are swept over the same point
/// set (as in the paper's λ sweeps): the `O(n² d)` distance computation is
/// paid once.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when `squared_distances` is not square.
/// * [`Error::InvalidBandwidth`] when `bandwidth <= 0`.
///
/// shape: (squared_distances.rows, squared_distances.cols)
/// hot
/// complexity: O(n^2)
/// deterministic
pub fn affinity_from_distances(
    squared_distances: &Matrix,
    kernel: Kernel,
    bandwidth: f64,
) -> Result<Matrix> {
    if !squared_distances.is_square() {
        return Err(Error::InvalidArgument {
            message: format!(
                "squared-distance matrix must be square, got {}x{}",
                squared_distances.rows(),
                squared_distances.cols()
            ),
        });
    }
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let n = squared_distances.rows();
    let diagonal = kernel.weight_unchecked(0.0, bandwidth);
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        w.set(i, i, diagonal);
        for j in (i + 1)..n {
            let d2 = squared_distances.get(i, j);
            if d2 < 0.0 {
                return Err(Error::InvalidArgument {
                    message: format!("squared distance must be nonnegative, got {d2}"),
                });
            }
            let weight = kernel.weight_unchecked(d2, bandwidth);
            w.set(i, j, weight);
            w.set(j, i, weight);
        }
    }
    Ok(w)
}

/// [`affinity_from_distances`] with the kernel evaluation sharded across
/// `executor`; output bit-identical to the sequential one.
///
/// Each worker evaluates `kernel.weight` over the upper-triangle tail of a
/// block of rows (plus the row's diagonal `K(0)`), in the same order as
/// the sequential double loop; the tails are then mirrored in row order.
///
/// # Errors
///
/// Same as [`affinity_from_distances`].
/// shape: (squared_distances.rows, squared_distances.cols)
/// hot
/// complexity: O(n^2)
/// deterministic
pub fn affinity_from_distances_with(
    squared_distances: &Matrix,
    kernel: Kernel,
    bandwidth: f64,
    executor: &Executor,
) -> Result<Matrix> {
    if executor.is_sequential() {
        return affinity_from_distances(squared_distances, kernel, bandwidth);
    }
    if !squared_distances.is_square() {
        return Err(Error::InvalidArgument {
            message: format!(
                "squared-distance matrix must be square, got {}x{}",
                squared_distances.rows(),
                squared_distances.cols()
            ),
        });
    }
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let n = squared_distances.rows();
    let diagonal = kernel.weight_unchecked(0.0, bandwidth);
    // Per row: the diagonal weight K(0) followed by the strict upper tail.
    let tails: Vec<Vec<f64>> = executor.map_chunks(n, row_block(n, executor), |range| {
        let mut rows = Vec::with_capacity(range.len());
        for i in range {
            let mut tail = Vec::with_capacity(n - i);
            tail.push(diagonal);
            for j in (i + 1)..n {
                let d2 = squared_distances.get(i, j);
                if d2 < 0.0 {
                    return Err(Error::InvalidArgument {
                        message: format!("squared distance must be nonnegative, got {d2}"),
                    });
                }
                tail.push(kernel.weight_unchecked(d2, bandwidth));
            }
            rows.push(tail);
        }
        Ok::<_, Error>(rows)
    })?;
    let mut w = Matrix::zeros(n, n);
    for (i, tail) in tails.iter().enumerate() {
        w.set(i, i, tail[0]);
        for (offset, &weight) in tail[1..].iter().enumerate() {
            let j = i + 1 + offset;
            w.set(i, j, weight);
            w.set(j, i, weight);
        }
    }
    Ok(w)
}

/// Convenience wrapper: resolves a [`Bandwidth`] rule and builds the
/// affinity matrix in one call.
///
/// `rate_n` is forwarded to [`Bandwidth::resolve`] (the paper resolves its
/// rate with the labeled sample size).
///
/// # Errors
///
/// Propagates bandwidth-resolution and affinity-construction errors.
/// shape: (points.rows, points.rows)
/// deterministic
pub fn affinity_with_rule(
    points: &Matrix,
    kernel: Kernel,
    bandwidth: Bandwidth,
    rate_n: Option<usize>,
) -> Result<(Matrix, f64)> {
    let h = bandwidth.resolve(points, rate_n)?;
    let w = affinity_matrix(points, kernel, h)?;
    Ok((w, h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap()
    }

    #[test]
    fn distances_are_symmetric_with_zero_diagonal() {
        let d2 = pairwise_squared_distances(&triangle()).unwrap();
        assert!(d2.is_symmetric(0.0));
        for i in 0..3 {
            assert_eq!(d2.get(i, i), 0.0);
        }
        assert_eq!(d2.get(0, 1), 1.0);
        assert_eq!(d2.get(1, 2), 2.0);
    }

    #[test]
    fn affinity_is_symmetric_with_unit_diagonal() {
        let w = affinity_matrix(&triangle(), Kernel::Gaussian, 1.0).unwrap();
        assert!(w.is_symmetric(0.0));
        for i in 0..3 {
            assert_eq!(w.get(i, i), 1.0);
        }
        assert!((w.get(0, 1) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn affinity_entries_are_in_unit_interval() {
        for kernel in Kernel::all() {
            let w = affinity_matrix(&triangle(), kernel, 0.8).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    let v = w.get(i, j);
                    assert!((0.0..=1.0).contains(&v), "{kernel} out of range");
                }
            }
        }
    }

    #[test]
    fn compact_kernel_gives_sparse_affinity() {
        // Distance between the two clusters exceeds the bandwidth.
        let pts = Matrix::from_rows(&[&[0.0], &[0.1], &[10.0], &[10.1]]).unwrap();
        let w = affinity_matrix(&pts, Kernel::Boxcar, 1.0).unwrap();
        assert_eq!(w.get(0, 1), 1.0);
        assert_eq!(w.get(0, 2), 0.0);
        assert_eq!(w.get(2, 3), 1.0);
    }

    #[test]
    fn affinity_validates_arguments() {
        assert!(matches!(
            affinity_matrix(&triangle(), Kernel::Gaussian, 0.0),
            Err(Error::InvalidBandwidth { .. })
        ));
        assert!(matches!(
            pairwise_squared_distances(&Matrix::zeros(0, 2)),
            Err(Error::EmptyInput { .. })
        ));
        assert!(affinity_from_distances(&Matrix::zeros(2, 3), Kernel::Gaussian, 1.0).is_err());
    }

    #[test]
    fn precomputed_distances_match_direct_path() {
        let pts = triangle();
        let d2 = pairwise_squared_distances(&pts).unwrap();
        let w_direct = affinity_matrix(&pts, Kernel::Epanechnikov, 2.0).unwrap();
        let w_cached = affinity_from_distances(&d2, Kernel::Epanechnikov, 2.0).unwrap();
        assert!(w_direct.approx_eq(&w_cached, 0.0));
    }

    #[test]
    fn parallel_assembly_is_bit_identical_to_sequential() {
        use gssl_runtime::Executor;
        // Enough rows for several chunks per worker.
        let pts = Matrix::from_fn(60, 3, |i, j| ((i * 7 + j * 3) as f64 * 0.31).sin());
        let d2 = pairwise_squared_distances(&pts).unwrap();
        let w = affinity_matrix(&pts, Kernel::Gaussian, 0.7).unwrap();
        for workers in [1, 2, 3, 4] {
            let executor = Executor::with_workers(workers);
            let d2_par = pairwise_squared_distances_with(&pts, &executor).unwrap();
            assert_eq!(d2_par.as_slice(), d2.as_slice(), "d2 at {workers} workers");
            let w_par = affinity_matrix_with(&pts, Kernel::Gaussian, 0.7, &executor).unwrap();
            assert_eq!(w_par.as_slice(), w.as_slice(), "W at {workers} workers");
            let w_cached =
                affinity_from_distances_with(&d2, Kernel::Gaussian, 0.7, &executor).unwrap();
            assert_eq!(w_cached.as_slice(), w.as_slice());
        }
    }

    #[test]
    fn parallel_assembly_propagates_validation_errors() {
        use gssl_runtime::Executor;
        let executor = Executor::with_workers(2);
        assert!(matches!(
            affinity_matrix_with(&triangle(), Kernel::Gaussian, 0.0, &executor),
            Err(Error::InvalidBandwidth { .. })
        ));
        assert!(matches!(
            pairwise_squared_distances_with(&Matrix::zeros(0, 2), &executor),
            Err(Error::EmptyInput { .. })
        ));
        assert!(affinity_from_distances_with(
            &Matrix::zeros(2, 3),
            Kernel::Gaussian,
            1.0,
            &executor
        )
        .is_err());
    }

    #[test]
    fn rule_wrapper_reports_resolved_bandwidth() {
        let pts = triangle();
        let (w, h) =
            affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::Fixed(0.5), None).unwrap();
        assert_eq!(h, 0.5);
        assert_eq!(w.rows(), 3);
        let (_, h_rate) =
            affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::PaperRate, Some(50)).unwrap();
        assert!((h_rate - crate::bandwidth::paper_rate(50, 2).unwrap()).abs() < 1e-15);
    }
}
