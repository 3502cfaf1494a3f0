//! Dense affinity (similarity) matrices: `W = [w_ij]` with
//! `w_ij = K(‖x_i − x_j‖ / h)`.
//!
//! Each builder is one sequential loop over the upper triangle, mirrored
//! into the lower one as it goes. A pooled assembly would have to carry
//! every row's upper tail (`n²/2` extra `f64`) from the workers to the
//! mirroring pass, and on a 2-core host it ran slower than this loop at
//! every size from 500 to 4 000 points.

use crate::bandwidth::{squared_distance, Bandwidth};
use crate::error::{Error, Result};
use crate::kernel::Kernel;
use gssl_linalg::Matrix;

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

/// Builds the affinity matrix from a precomputed squared-distance matrix.
///
/// Useful when several bandwidths or kernels are swept over the same point
/// set (as in the paper's λ sweeps): the `O(n² d)` distance computation is
/// paid once.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when `squared_distances` is not square,
///   or when an upper-triangle entry is negative or NaN.
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
            if !(d2 >= 0.0) {
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
        for bad in [-1.0, f64::NAN] {
            let mut d2 = pairwise_squared_distances(&triangle()).unwrap();
            d2.set(0, 2, bad);
            for kernel in Kernel::all() {
                assert!(
                    matches!(
                        affinity_from_distances(&d2, kernel, 1.0),
                        Err(Error::InvalidArgument { .. })
                    ),
                    "{kernel} accepted the squared distance {bad}"
                );
            }
        }
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
