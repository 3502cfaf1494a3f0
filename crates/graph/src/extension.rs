//! Out-of-sample kernel extension: evaluating the fitted similarity
//! kernel between a *new* point and every vertex of an existing graph.
//!
//! The paper's Theorem II.1 couples the hard criterion to the
//! Nadaraya–Watson estimator (Eq. 6), whose form
//! `f(x) = Σᵢ w(x, xᵢ) fᵢ / Σᵢ w(x, xᵢ)` extends graph predictions to
//! points that were not part of the original graph. The one graph-side
//! primitive that extension needs is the *kernel row* `[w(x, x₁), …,
//! w(x, x_N)]` evaluated with the same kernel and bandwidth the graph was
//! fitted with — that is what [`KernelGraph::kernel_row`] provides.

use crate::affinity::{affinity_matrix, affinity_matrix_with};
use crate::components::{component_partition, UnionFind};
use crate::error::{Error, Result};
use crate::kernel::Kernel;
use gssl_index::NeighborSearch;
use gssl_linalg::{Matrix, Vector};

/// A kernel graph frozen at fit time: the point cloud together with the
/// kernel and bandwidth that generated its affinity matrix.
///
/// Unlike the free functions in [`crate::affinity`], this type remembers
/// the fitted bandwidth, so out-of-sample rows are guaranteed to be
/// computed with exactly the weights the in-sample matrix used.
///
/// ```
/// use gssl_graph::{Kernel, KernelGraph};
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl_graph::Error> {
/// let pts = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]])?;
/// let graph = KernelGraph::fit(pts, Kernel::Gaussian, 0.5)?;
/// let row = graph.kernel_row(&[0.0, 0.0])?;
/// // The row at an existing vertex reproduces that vertex's affinity row.
/// assert_eq!(row.as_slice(), graph.weights()?.row(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGraph {
    points: Matrix,
    kernel: Kernel,
    bandwidth: f64,
}

impl KernelGraph {
    /// Freezes a point cloud (rows are points) with a kernel and a
    /// concrete bandwidth.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyInput`] when `points` has no rows or no columns.
    /// * [`Error::InvalidBandwidth`] when `bandwidth <= 0` or non-finite.
    /// * [`Error::InvalidArgument`] when any coordinate is non-finite.
    ///
    /// deterministic
    pub fn fit(points: Matrix, kernel: Kernel, bandwidth: f64) -> Result<Self> {
        if points.rows() == 0 {
            return Err(Error::EmptyInput {
                required: "at least one point",
            });
        }
        if points.cols() == 0 {
            return Err(Error::EmptyInput {
                required: "at least one coordinate per point",
            });
        }
        if !bandwidth.is_finite() || !(bandwidth > 0.0) {
            return Err(Error::InvalidBandwidth { value: bandwidth });
        }
        if let Some(index) = points.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(Error::InvalidArgument {
                message: format!("graph point coordinate {index} is not finite"),
            });
        }
        Ok(KernelGraph {
            points,
            kernel,
            bandwidth,
        })
    }

    /// Number of graph vertices.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// Returns `true` when the graph has no vertices (impossible after
    /// construction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.rows() == 0
    }

    /// Input dimension `d`.
    pub fn dim(&self) -> usize {
        self.points.cols()
    }

    /// Borrows the fitted point cloud (rows are points).
    /// shape: (n, d)
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The fitted bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The in-sample affinity matrix `W = [K(‖x_i − x_j‖/h)]`.
    ///
    /// # Errors
    ///
    /// Propagates affinity-construction errors (none for a constructed
    /// graph).
    /// shape: (n, n)
    /// deterministic
    pub fn weights(&self) -> Result<Matrix> {
        affinity_matrix(&self.points, self.kernel, self.bandwidth)
    }

    /// [`KernelGraph::weights`] assembled on `executor`: row blocks of the
    /// affinity matrix are computed in parallel, with output bit-identical
    /// to the sequential path at any worker count.
    ///
    /// # Errors
    ///
    /// Same as [`KernelGraph::weights`].
    /// shape: (n, n)
    /// deterministic
    pub fn weights_with(&self, executor: &gssl_runtime::Executor) -> Result<Matrix> {
        affinity_matrix_with(&self.points, self.kernel, self.bandwidth, executor)
    }

    /// The connected components of the kernel graph in canonical order
    /// (smallest member first, members ascending), found without
    /// building the `N × N` weight matrix: exactly
    /// [`component_partition`]`(&self.weights()?, 0.0)` for every kernel.
    ///
    /// Each vertex runs one [`NeighborSearch::within_radius`] query at
    /// [`Kernel::support_radius`], and a pair is an edge iff
    /// [`Kernel::weight_unchecked`] of its squared distance is `> 0.0` —
    /// the dense assembly's own test on the same distance bits
    /// (`gssl_index::squared_distance` is the graph's expression). Those
    /// edges feed the union–find and grouping routine the dense
    /// partition uses. When `h·h` is not a normal `f64` the support
    /// radius certifies nothing, and the dense partition runs instead.
    ///
    /// `index` must hold exactly this graph's points, in row order.
    ///
    /// ```
    /// use gssl_graph::{component_partition, Kernel, KernelGraph};
    /// use gssl_index::{NeighborSearch, SpatialIndex};
    /// use gssl_linalg::Matrix;
    /// # fn main() -> Result<(), gssl_graph::Error> {
    /// let pts = Matrix::from_rows(&[&[0.0], &[9.0], &[0.5], &[9.5]])?;
    /// let graph = KernelGraph::fit(pts.clone(), Kernel::Epanechnikov, 1.0)?;
    /// let index = SpatialIndex::build(&pts)?;
    /// let parts = graph.component_partition(&index)?;
    /// assert_eq!(parts, vec![vec![0, 2], vec![1, 3]]);
    /// assert_eq!(parts, component_partition(&graph.weights()?, 0.0)?);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when `index` does not hold exactly the
    /// graph's points; propagates index query errors.
    /// complexity: O(n * k * d)
    /// deterministic
    pub fn component_partition<I: NeighborSearch>(&self, index: &I) -> Result<Vec<Vec<usize>>> {
        let n = self.len();
        if index.len() != n
            || index.dim() != self.dim()
            || (0..n).any(|i| index.point(i) != self.points.row(i))
        {
            return Err(Error::InvalidArgument {
                message: format!(
                    "spatial index over {} points of dimension {} does not hold the \
                     graph's {n} points of dimension {}",
                    index.len(),
                    index.dim(),
                    self.dim()
                ),
            });
        }
        let h = self.bandwidth;
        if !(h * h).is_normal() {
            return component_partition(&self.weights()?, 0.0);
        }
        let radius = self.kernel.support_radius(h);
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            // Radius queries are symmetric, so every pair is found from
            // both ends; its lower end unions it.
            for nb in index.within_radius(self.points.row(i), radius)? {
                if nb.index > i && self.kernel.weight_unchecked(nb.dist2, h) > 0.0 {
                    uf.union(i, nb.index);
                }
            }
        }
        Ok(uf.into_partition())
    }

    /// The kernel row of a new point `x`: `[w(x, x₁), …, w(x, x_N)]`,
    /// evaluated with the fitted kernel and bandwidth — the `O(N·d)`
    /// primitive behind out-of-sample extension.
    ///
    /// When `x` coincides with graph vertex `i`, the returned row equals
    /// row `i` of [`KernelGraph::weights`] exactly.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `x.len() != self.dim()`.
    /// * [`Error::InvalidArgument`] when a coordinate of `x` is
    ///   non-finite.
    ///
    /// shape: (n,)
    /// hot
    /// complexity: O(n * d)
    /// deterministic
    pub fn kernel_row(&self, x: &[f64]) -> Result<Vector> {
        let mut row = vec![0.0; self.len()];
        self.kernel_row_into(x, &mut row)?;
        Ok(Vector::from(row))
    }

    /// [`KernelGraph::kernel_row`] into a caller-provided buffer, so batch
    /// callers can reuse one scratch row instead of allocating per query.
    ///
    /// The fitted bandwidth was validated at [`KernelGraph::fit`] time and
    /// squared distances are nonnegative by construction, so the loop runs
    /// validation-free per entry.
    ///
    /// # Errors
    ///
    /// Same as [`KernelGraph::kernel_row`], plus
    /// [`Error::DimensionMismatch`] when `out.len() != self.len()`.
    /// hot
    /// complexity: O(n * d)
    /// deterministic
    pub fn kernel_row_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
                index: 0,
            });
        }
        if out.len() != self.len() {
            return Err(Error::DimensionMismatch {
                expected: self.len(),
                actual: out.len(),
                index: 0,
            });
        }
        if let Some(index) = x.iter().position(|v| !v.is_finite()) {
            return Err(Error::InvalidArgument {
                message: format!("query coordinate {index} is not finite"),
            });
        }
        for (i, w) in out.iter_mut().enumerate() {
            let d2 = crate::bandwidth::squared_distance(x, self.points.row(i));
            *w = self.kernel.weight_unchecked(d2, self.bandwidth);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.3, 0.7], &[2.0, 2.0]]).unwrap()
    }

    #[test]
    fn kernel_row_at_vertices_matches_pairwise_affinity() {
        for kernel in Kernel::all() {
            let graph = KernelGraph::fit(sample_points(), kernel, 0.8).unwrap();
            let w = graph.weights().unwrap();
            for i in 0..graph.len() {
                let row = graph.kernel_row(graph.points().row(i)).unwrap();
                for j in 0..graph.len() {
                    assert!(
                        (row.as_slice()[j] - w.get(i, j)).abs() < 1e-15,
                        "{kernel}: row {i} entry {j} disagrees with affinity matrix"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_row_honors_fitted_bandwidth() {
        let narrow = KernelGraph::fit(sample_points(), Kernel::Gaussian, 0.2).unwrap();
        let wide = KernelGraph::fit(sample_points(), Kernel::Gaussian, 2.0).unwrap();
        let q = [0.5, 0.5];
        let rn = narrow.kernel_row(&q).unwrap();
        let rw = wide.kernel_row(&q).unwrap();
        // Wider bandwidth means uniformly larger off-point weights.
        for (a, b) in rn.iter().zip(rw.iter()) {
            assert!(a < b);
        }
        // And the narrow row really used h = 0.2: check one entry by hand.
        let d2 = 0.5f64 * 0.5 + 0.5 * 0.5;
        assert!((rn.as_slice()[0] - (-d2 / (0.2 * 0.2)).exp()).abs() < 1e-15);
    }

    #[test]
    fn compact_kernel_far_query_row_is_zero() {
        let graph = KernelGraph::fit(sample_points(), Kernel::Boxcar, 0.5).unwrap();
        let row = graph.kernel_row(&[50.0, 50.0]).unwrap();
        assert!(row.iter().all(|w| w == 0.0));
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            KernelGraph::fit(Matrix::zeros(0, 2), Kernel::Gaussian, 1.0),
            Err(Error::EmptyInput { .. })
        ));
        assert!(matches!(
            KernelGraph::fit(Matrix::zeros(2, 0), Kernel::Gaussian, 1.0),
            Err(Error::EmptyInput { .. })
        ));
        assert!(matches!(
            KernelGraph::fit(sample_points(), Kernel::Gaussian, 0.0),
            Err(Error::InvalidBandwidth { .. })
        ));
        assert!(matches!(
            KernelGraph::fit(sample_points(), Kernel::Gaussian, f64::NAN),
            Err(Error::InvalidBandwidth { .. })
        ));
        let mut bad = sample_points();
        bad.set(1, 1, f64::NAN);
        assert!(matches!(
            KernelGraph::fit(bad, Kernel::Gaussian, 1.0),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn kernel_row_validates_queries() {
        let graph = KernelGraph::fit(sample_points(), Kernel::Gaussian, 1.0).unwrap();
        assert!(matches!(
            graph.kernel_row(&[1.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            graph.kernel_row(&[1.0, f64::INFINITY]),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn weights_with_matches_sequential_weights() {
        let pts = Matrix::from_fn(40, 2, |i, j| ((i * 9 + j * 4) as f64 * 0.23).sin());
        let graph = KernelGraph::fit(pts, Kernel::Gaussian, 0.6).unwrap();
        let w = graph.weights().unwrap();
        for workers in [1, 2, 4] {
            let executor = gssl_runtime::Executor::with_workers(workers);
            let w_par = graph.weights_with(&executor).unwrap();
            assert_eq!(w_par.as_slice(), w.as_slice(), "{workers} workers");
        }
    }

    #[test]
    fn accessors_report_fit_state() {
        let graph = KernelGraph::fit(sample_points(), Kernel::Tricube, 0.9).unwrap();
        assert_eq!(graph.len(), 4);
        assert!(!graph.is_empty());
        assert_eq!(graph.dim(), 2);
        assert_eq!(graph.kernel(), Kernel::Tricube);
        assert_eq!(graph.bandwidth(), 0.9);
        assert_eq!(graph.points().rows(), 4);
    }
}
