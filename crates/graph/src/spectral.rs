//! Spectral utilities: power iteration and spectral-radius estimates.
//!
//! The paper's proof of Theorem II.1 hinges on the Neumann series
//! `(I − D₂₂⁻¹W₂₂)⁻¹ = I + Σ_l (D₂₂⁻¹W₂₂)^l` converging, i.e. on the
//! spectral radius of `D₂₂⁻¹W₂₂` staying below 1.
//! [`spectral_radius`](crate::spectral::spectral_radius) lets the
//! `gssl::theory` module measure that quantity directly.

use crate::error::{Error, Result};
use gssl_linalg::float::is_exactly_zero;
use gssl_linalg::{LinearOperator, Vector};

/// Options for power iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerIterationOptions {
    /// Maximum iterations (0 means 10_000).
    pub max_iterations: usize,
    /// Convergence threshold on successive eigenvalue estimates.
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> Self {
        PowerIterationOptions {
            max_iterations: 0,
            tolerance: 1e-10,
        }
    }
}

/// Result of a power iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerIterationOutcome {
    /// Estimated dominant eigenvalue (by magnitude). For symmetric
    /// operators this is signed via the Rayleigh quotient.
    pub eigenvalue: f64,
    /// The associated unit eigenvector estimate.
    pub eigenvector: Vector,
    /// Iterations performed.
    pub iterations: usize,
}

/// Estimates the dominant eigenpair of `op` by power iteration with a
/// deterministic starting vector.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when the operator has dimension 0.
/// * [`Error::Linalg`] wrapping `NotConverged` when the budget runs out
///   (e.g. for operators with two dominant eigenvalues of equal modulus).
pub fn power_iteration(
    op: &(impl LinearOperator + ?Sized),
    options: &PowerIterationOptions,
) -> Result<PowerIterationOutcome> {
    let n = op.dim();
    if n == 0 {
        return Err(Error::InvalidArgument {
            message: "power iteration needs a nonempty operator".to_owned(),
        });
    }
    let max_iterations = if options.max_iterations == 0 {
        10_000
    } else {
        options.max_iterations
    };

    // Deterministic, generic starting vector (non-orthogonal to most
    // eigenvectors): pseudo-random unit vector from a fixed LCG.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut x: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 + 1e-3
        })
        .collect();
    normalize(&mut x);

    let mut y = vec![0.0; n];
    let mut prev_lambda = f64::INFINITY;
    for iter in 1..=max_iterations {
        op.apply(&x, &mut y);
        // Rayleigh quotient gives a signed estimate.
        let lambda: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let norm = l2(&y);
        if is_exactly_zero(norm) {
            // x is in the null space and the operator may be 0; eigenvalue 0.
            return Ok(PowerIterationOutcome {
                eigenvalue: 0.0,
                eigenvector: Vector::from(x),
                iterations: iter,
            });
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
        if (lambda - prev_lambda).abs() <= options.tolerance * lambda.abs().max(1.0) {
            return Ok(PowerIterationOutcome {
                eigenvalue: lambda,
                eigenvector: Vector::from(x),
                iterations: iter,
            });
        }
        prev_lambda = lambda;
    }

    Err(Error::Linalg(gssl_linalg::Error::NotConverged {
        iterations: max_iterations,
        residual: f64::NAN,
    }))
}

/// Estimates the spectral radius `ρ(A)` (magnitude of the dominant
/// eigenvalue) of `op`.
///
/// # Errors
///
/// Propagates [`power_iteration`] errors.
pub fn spectral_radius(
    op: &(impl LinearOperator + ?Sized),
    options: &PowerIterationOptions,
) -> Result<f64> {
    Ok(power_iteration(op, options)?.eigenvalue.abs())
}

/// The Fiedler vector of a weighted graph: the eigenvector of the
/// unnormalized Laplacian paired with its second-smallest eigenvalue.
/// Its sign pattern cuts the graph along its sparsest bottleneck — the
/// spectral view of the cluster assumption the paper's introduction
/// invokes.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when `w` is not square or has fewer than
///   two vertices.
/// * [`Error::Linalg`] when the eigensolver fails to converge.
///
/// shape: (w.rows,)
pub fn fiedler_vector(w: &gssl_linalg::Matrix) -> Result<Vector> {
    let embedding = spectral_embedding(w, 1)?;
    Ok(embedding.col(0))
}

/// Spectral embedding: the `k` eigenvectors of the unnormalized Laplacian
/// following the trivial constant one, as columns of an `n × k` matrix.
/// Rows are vertex coordinates in the embedded space.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when `w` is not square or
///   `k >= w.rows()` or `k == 0`.
/// * [`Error::Linalg`] when the eigensolver fails to converge.
///
/// shape: (w.rows, k)
pub fn spectral_embedding(w: &gssl_linalg::Matrix, k: usize) -> Result<gssl_linalg::Matrix> {
    if !w.is_square() {
        return Err(Error::InvalidArgument {
            message: format!(
                "affinity matrix must be square, got {}x{}",
                w.rows(),
                w.cols()
            ),
        });
    }
    let n = w.rows();
    if k == 0 || k + 1 > n {
        return Err(Error::InvalidArgument {
            message: format!("embedding dimension k must satisfy 1 <= k < n (= {n}), got {k}"),
        });
    }
    let l = crate::laplacian(w, crate::LaplacianKind::Unnormalized)?;
    let eig = gssl_linalg::symmetric_eigen(&l, &gssl_linalg::EigenOptions::default())
        .map_err(Error::Linalg)?;
    // Columns 1..=k (column 0 pairs with the smallest eigenvalue, the
    // constant vector on connected graphs).
    Ok(gssl_linalg::Matrix::from_fn(n, k, |i, j| {
        eig.eigenvectors().get(i, j + 1)
    }))
}

/// Spectral clustering: embed with [`spectral_embedding`] into `k − 1`
/// dimensions (or 1 for `k = 2`) and run Lloyd's k-means with
/// deterministic farthest-point initialization. Returns one cluster id in
/// `0..k` per vertex.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when `k < 2` or `k > w.rows()`.
/// * Propagates [`spectral_embedding`] errors.
pub fn spectral_clusters(w: &gssl_linalg::Matrix, k: usize) -> Result<Vec<usize>> {
    let n = w.rows();
    if k < 2 || k > n {
        return Err(Error::InvalidArgument {
            message: format!("cluster count must satisfy 2 <= k <= n (= {n}), got {k}"),
        });
    }
    let dims = (k - 1).max(1).min(n.saturating_sub(1).max(1));
    let embedding = spectral_embedding(w, dims)?;
    Ok(lloyd_kmeans(&embedding, k))
}

/// Lloyd's algorithm with farthest-point (k-means++-style, deterministic)
/// initialization on row vectors.
fn lloyd_kmeans(points: &gssl_linalg::Matrix, k: usize) -> Vec<usize> {
    let n = points.rows();
    let d = points.cols();
    let dist2 =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };

    // Farthest-point init: start from the vector with the largest norm
    // (deterministic), then greedily add the point farthest from the
    // current centers.
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = (0..n)
        .max_by(|&a, &b| {
            let na: f64 = points.row(a).iter().map(|v| v * v).sum();
            let nb: f64 = points.row(b).iter().map(|v| v * v).sum();
            na.total_cmp(&nb)
        })
        .unwrap_or(0);
    centers.push(points.row(first).to_vec());
    while centers.len() < k {
        let next = (0..n)
            .max_by(|&a, &b| {
                let da = centers.iter().map(|c| dist2(points.row(a), c)).fold(
                    f64::INFINITY,
                    |acc, x| {
                        if x.total_cmp(&acc).is_lt() {
                            x
                        } else {
                            acc
                        }
                    },
                );
                let db = centers.iter().map(|c| dist2(points.row(b), c)).fold(
                    f64::INFINITY,
                    |acc, x| {
                        if x.total_cmp(&acc).is_lt() {
                            x
                        } else {
                            acc
                        }
                    },
                );
                da.total_cmp(&db)
            })
            .unwrap_or(0);
        centers.push(points.row(next).to_vec());
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..100 {
        // Assign.
        let mut changed = false;
        for i in 0..n {
            let best = centers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    dist2(points.row(i), a).total_cmp(&dist2(points.row(i), b))
                })
                .map(|(c, _)| c)
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Update.
        for (c, center) in centers.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue; // keep the old center for empty clusters
            }
            for (j, value) in center.iter_mut().enumerate().take(d) {
                *value =
                    members.iter().map(|&i| points.get(i, j)).sum::<f64>() / members.len() as f64;
            }
        }
    }
    assignment
}

fn l2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn normalize(x: &mut [f64]) {
    let norm = l2(x);
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gssl_linalg::Matrix;

    #[test]
    fn dominant_eigenvalue_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[1.0, 3.0, -2.0]);
        let out = power_iteration(&a, &PowerIterationOptions::default()).unwrap();
        assert!((out.eigenvalue - 3.0).abs() < 1e-8);
        // Eigenvector concentrates on coordinate 1.
        assert!(out.eigenvector[1].abs() > 0.999);
    }

    #[test]
    fn signed_estimate_for_negative_dominant() {
        let a = Matrix::from_diag(&[-5.0, 2.0]);
        let out = power_iteration(&a, &PowerIterationOptions::default()).unwrap();
        // Power iteration oscillates in sign for negative eigenvalues, but the
        // Rayleigh quotient magnitude converges to 5.
        assert!((out.eigenvalue.abs() - 5.0).abs() < 1e-6);
        assert!(
            (spectral_radius(&a, &PowerIterationOptions::default()).unwrap() - 5.0).abs() < 1e-6
        );
    }

    #[test]
    fn symmetric_matrix_known_spectrum() {
        // Eigenvalues 3 and 1 for [[2,1],[1,2]].
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let opts = PowerIterationOptions {
            tolerance: 1e-14,
            ..PowerIterationOptions::default()
        };
        let out = power_iteration(&a, &opts).unwrap();
        assert!((out.eigenvalue - 3.0).abs() < 1e-8);
        // The eigenvector converges more slowly than the Rayleigh quotient;
        // a loose check on the direction is enough here.
        let v = &out.eigenvector;
        assert!((v[0].abs() - v[1].abs()).abs() < 1e-4);
    }

    #[test]
    fn zero_matrix_reports_zero() {
        let a = Matrix::zeros(3, 3);
        let out = power_iteration(&a, &PowerIterationOptions::default()).unwrap();
        assert_eq!(out.eigenvalue, 0.0);
    }

    #[test]
    fn row_stochastic_matrix_has_radius_one() {
        // D⁻¹W of a connected graph is row-stochastic: ρ = 1.
        let a = Matrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.75]]).unwrap();
        let rho = spectral_radius(&a, &PowerIterationOptions::default()).unwrap();
        assert!((rho - 1.0).abs() < 1e-8);
    }

    #[test]
    fn substochastic_matrix_has_radius_below_one() {
        // The paper's D₂₂⁻¹W₂₂ is strictly substochastic when labeled mass
        // exists: the Neumann series converges.
        let a = Matrix::from_rows(&[&[0.3, 0.4], &[0.2, 0.5]]).unwrap();
        let rho = spectral_radius(&a, &PowerIterationOptions::default()).unwrap();
        assert!(rho < 1.0);
        assert!(rho > 0.0);
    }

    /// Two cliques of 3 joined by one weak edge.
    fn barbell() -> Matrix {
        let mut w = Matrix::zeros(6, 6);
        for &(a, b) in &[(0usize, 1usize), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            w.set(a, b, 1.0);
            w.set(b, a, 1.0);
        }
        w.set(2, 3, 0.05);
        w.set(3, 2, 0.05);
        w
    }

    #[test]
    fn fiedler_vector_cuts_the_bottleneck() {
        let v = fiedler_vector(&barbell()).unwrap();
        // Sign pattern separates {0,1,2} from {3,4,5}.
        let side = |i: usize| v[i] >= 0.0;
        assert_eq!(side(0), side(1));
        assert_eq!(side(0), side(2));
        assert_eq!(side(3), side(4));
        assert_eq!(side(3), side(5));
        assert_ne!(
            side(0),
            side(3),
            "Fiedler vector failed to split the barbell"
        );
    }

    #[test]
    fn spectral_embedding_shapes_and_validation() {
        let w = barbell();
        let e = spectral_embedding(&w, 2).unwrap();
        assert_eq!(e.shape(), (6, 2));
        assert!(spectral_embedding(&w, 0).is_err());
        assert!(spectral_embedding(&w, 6).is_err());
        assert!(spectral_embedding(&Matrix::zeros(2, 3), 1).is_err());
    }

    #[test]
    fn spectral_clusters_recover_the_cliques() {
        let labels = spectral_clusters(&barbell(), 2).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3]);
        assert!(spectral_clusters(&barbell(), 1).is_err());
        assert!(spectral_clusters(&barbell(), 7).is_err());
    }

    #[test]
    fn three_cluster_spectral_recovery() {
        // Three tight pairs, weakly chained.
        let mut w = Matrix::zeros(6, 6);
        for &(a, b) in &[(0usize, 1usize), (2, 3), (4, 5)] {
            w.set(a, b, 1.0);
            w.set(b, a, 1.0);
        }
        for &(a, b) in &[(1usize, 2usize), (3, 4)] {
            w.set(a, b, 0.02);
            w.set(b, a, 0.02);
        }
        let labels = spectral_clusters(&w, 3).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[4], labels[5]);
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn rejects_empty_operator() {
        let a = Matrix::zeros(0, 0);
        assert!(power_iteration(&a, &PowerIterationOptions::default()).is_err());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A one-iteration budget with zero-slack tolerance cannot settle.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let opts = PowerIterationOptions {
            max_iterations: 1,
            tolerance: f64::MIN_POSITIVE,
        };
        assert!(power_iteration(&a, &opts).is_err());
    }
}
