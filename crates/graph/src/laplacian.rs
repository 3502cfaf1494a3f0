//! Graph Laplacians and the Dirichlet energy both criteria regularize.

use crate::error::{Error, Result};
use gssl_linalg::{Matrix, Vector};

/// Which Laplacian normalization to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum LaplacianKind {
    /// `L = D − W` — the paper's choice (see its Eq. 3).
    #[default]
    Unnormalized,
    /// `L_sym = I − D^{-1/2} W D^{-1/2}`.
    Symmetric,
    /// `L_rw = I − D^{-1} W`.
    RandomWalk,
}

/// Degree vector `d_i = Σ_j w_ij` of an affinity matrix.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `w` is not square.
/// shape: (w.rows,)
pub fn degrees(w: &Matrix) -> Result<Vector> {
    require_square(w)?;
    Ok(w.row_sums())
}

/// Volume of the graph: `Σ_i d_i`.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `w` is not square.
pub fn volume(w: &Matrix) -> Result<f64> {
    Ok(degrees(w)?.sum())
}

/// Builds the requested graph Laplacian from an affinity matrix.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] when `w` is not square or (for the
///   normalized kinds) when some vertex has zero degree.
///
/// ```
/// use gssl_graph::{laplacian, LaplacianKind};
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl_graph::Error> {
/// let w = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
/// let l = laplacian(&w, LaplacianKind::Unnormalized)?;
/// assert_eq!(l.get(0, 0), 1.0);
/// assert_eq!(l.get(0, 1), -1.0);
/// # Ok(())
/// # }
/// ```
/// shape: (w.rows, w.rows)
pub fn laplacian(w: &Matrix, kind: LaplacianKind) -> Result<Matrix> {
    require_square(w)?;
    let n = w.rows();
    let d = degrees(w)?;
    match kind {
        LaplacianKind::Unnormalized => {
            let mut l = w.map(|x| -x);
            for i in 0..n {
                l.set(i, i, d[i] - w.get(i, i));
            }
            Ok(l)
        }
        LaplacianKind::Symmetric => {
            let inv_sqrt = positive_degree_transform(&d, |x| 1.0 / x.sqrt())?;
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let normalized = inv_sqrt[i] * w.get(i, j) * inv_sqrt[j];
                    let identity = if i == j { 1.0 } else { 0.0 };
                    l.set(i, j, identity - normalized);
                }
            }
            Ok(l)
        }
        LaplacianKind::RandomWalk => {
            let inv = positive_degree_transform(&d, |x| 1.0 / x)?;
            let mut l = Matrix::zeros(n, n);
            for (i, &inv_i) in inv.iter().enumerate() {
                for j in 0..n {
                    let identity = if i == j { 1.0 } else { 0.0 };
                    l.set(i, j, identity - inv_i * w.get(i, j));
                }
            }
            Ok(l)
        }
    }
}

/// The paper's smoothness penalty `Σ_i Σ_j w_ij (f_i − f_j)²`.
///
/// Equals `2 fᵀ L f` for the unnormalized Laplacian — an identity the test
/// suite checks on random inputs.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `w` is not square or `f` has the
/// wrong length.
pub fn dirichlet_energy(w: &Matrix, f: &Vector) -> Result<f64> {
    require_square(w)?;
    if f.len() != w.rows() {
        return Err(Error::InvalidArgument {
            message: format!("score vector has length {}, expected {}", f.len(), w.rows()),
        });
    }
    let mut energy = 0.0;
    for i in 0..w.rows() {
        for j in 0..w.cols() {
            let diff = f[i] - f[j];
            energy += w.get(i, j) * diff * diff;
        }
    }
    Ok(energy)
}

fn require_square(w: &Matrix) -> Result<()> {
    if w.is_square() {
        Ok(())
    } else {
        Err(Error::InvalidArgument {
            message: format!(
                "affinity matrix must be square, got {}x{}",
                w.rows(),
                w.cols()
            ),
        })
    }
}

fn positive_degree_transform(d: &Vector, f: impl Fn(f64) -> f64) -> Result<Vec<f64>> {
    d.iter()
        .enumerate()
        .map(|(i, di)| {
            if di > 0.0 {
                Ok(f(di))
            } else {
                Err(Error::InvalidArgument {
                    message: format!("vertex {i} has zero degree; normalized Laplacian undefined"),
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Matrix {
        // 0 - 1 - 2 path with unit weights.
        Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]).unwrap()
    }

    #[test]
    fn degrees_and_volume() {
        let w = path_graph();
        assert_eq!(degrees(&w).unwrap().as_slice(), &[1.0, 2.0, 1.0]);
        assert_eq!(volume(&w).unwrap(), 4.0);
    }

    #[test]
    fn unnormalized_rows_sum_to_zero_and_symmetric() {
        let l = laplacian(&path_graph(), LaplacianKind::Unnormalized).unwrap();
        assert!(l.is_symmetric(0.0));
        for s in l.row_sums().iter() {
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn unnormalized_ignores_self_loops() {
        // Self-loops cancel in D - W: diagonal gets d_i - w_ii.
        let mut w = path_graph();
        let l_plain = laplacian(&w, LaplacianKind::Unnormalized).unwrap();
        for i in 0..3 {
            w.set(i, i, 5.0);
        }
        let l_loops = laplacian(&w, LaplacianKind::Unnormalized).unwrap();
        assert!(l_plain.approx_eq(&l_loops, 1e-15));
    }

    #[test]
    fn symmetric_laplacian_of_regular_graph() {
        // Complete graph K3 without self-loops: every degree is 2.
        let w = Matrix::from_rows(&[&[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0], &[1.0, 1.0, 0.0]]).unwrap();
        let l = laplacian(&w, LaplacianKind::Symmetric).unwrap();
        assert!(l.is_symmetric(1e-15));
        assert!((l.get(0, 0) - 1.0).abs() < 1e-15);
        assert!((l.get(0, 1) + 0.5).abs() < 1e-15);
    }

    #[test]
    fn random_walk_rows_sum_to_zero() {
        let l = laplacian(&path_graph(), LaplacianKind::RandomWalk).unwrap();
        for s in l.row_sums().iter() {
            assert!(s.abs() < 1e-15);
        }
        // Not symmetric in general for irregular graphs.
        assert!((l.get(0, 1) + 1.0).abs() < 1e-15); // -w01/d0 = -1/1
        assert!((l.get(1, 0) + 0.5).abs() < 1e-15); // -w10/d1 = -1/2
    }

    #[test]
    fn normalized_kinds_reject_isolated_vertices() {
        let w = Matrix::zeros(2, 2);
        assert!(laplacian(&w, LaplacianKind::Symmetric).is_err());
        assert!(laplacian(&w, LaplacianKind::RandomWalk).is_err());
        // Unnormalized is fine: L = 0.
        let l = laplacian(&w, LaplacianKind::Unnormalized).unwrap();
        assert!(l.approx_eq(&Matrix::zeros(2, 2), 0.0));
    }

    #[test]
    fn dirichlet_energy_identity_with_quadratic_form() {
        let w = path_graph();
        let l = laplacian(&w, LaplacianKind::Unnormalized).unwrap();
        let f = Vector::from(vec![1.0, -0.5, 2.0]);
        let energy = dirichlet_energy(&w, &f).unwrap();
        let quad = f.dot(&l.matvec(&f).unwrap()).unwrap();
        assert!((energy - 2.0 * quad).abs() < 1e-12);
    }

    #[test]
    fn dirichlet_energy_zero_for_constant_scores() {
        let w = path_graph();
        let f = Vector::filled(3, 4.2);
        assert_eq!(dirichlet_energy(&w, &f).unwrap(), 0.0);
    }

    #[test]
    fn laplacian_is_positive_semidefinite() {
        let w = path_graph();
        let l = laplacian(&w, LaplacianKind::Unnormalized).unwrap();
        // xᵀLx >= 0 on a grid of directions.
        for seed in 0..20 {
            let f = Vector::from_fn(3, |i| ((seed * 3 + i) as f64 * 0.7).sin());
            let quad = f.dot(&l.matvec(&f).unwrap()).unwrap();
            assert!(quad >= -1e-12);
        }
    }

    #[test]
    fn validates_shapes() {
        let rect = Matrix::zeros(2, 3);
        assert!(laplacian(&rect, LaplacianKind::Unnormalized).is_err());
        assert!(degrees(&rect).is_err());
        assert!(dirichlet_energy(&path_graph(), &Vector::zeros(5)).is_err());
    }
}
