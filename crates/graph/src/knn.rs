//! Sparse graph constructions: k-nearest-neighbour and ε-threshold graphs.
//!
//! Dense kernel graphs scale as `O((n+m)²)` memory; for large unlabeled
//! pools the standard alternative (Chapelle et al., §11) is to keep only
//! the strongest edges. These builders produce [`CsrMatrix`] affinities
//! compatible with the iterative solvers in `gssl`.

use crate::error::{Error, Result};
use crate::kernel::Kernel;
use gssl_index::{
    self_k_nearest_batch, self_within_radius_batch, NeighborRows, NeighborSearch, SpatialIndex,
};
use gssl_linalg::{CsrMatrix, Matrix};
use gssl_runtime::Executor;

/// How to symmetrize a directed kNN relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Symmetrization {
    /// Keep an edge when *either* endpoint lists the other among its k
    /// nearest neighbours (the usual choice; keeps the graph connected
    /// longer).
    #[default]
    Union,
    /// Keep an edge only when *both* endpoints list each other.
    Mutual,
}

/// Builds a symmetric k-nearest-neighbour affinity graph:
/// [`knn_graph_with`] on [`Executor::Sequential`].
///
/// Edge weights are `kernel.weight(dist², bandwidth)`. Self-loops are not
/// included (the paper's dense `W` has them, but they cancel in `D − W`;
/// sparse graphs conventionally omit them).
///
/// The neighbour relation is resolved by a `gssl-index` spatial index,
/// which is exact: the graph is bitwise the one an `O(n²·d)` linear scan
/// gives, with ties at the k-th distance broken by ascending index.
///
/// # Errors
///
/// * [`Error::EmptyInput`] when `points` has no rows.
/// * [`Error::InvalidArgument`] when `k == 0` or `k >= points.rows()`,
///   or when a coordinate is NaN or infinite.
/// * [`Error::InvalidBandwidth`] when `bandwidth <= 0`.
///
/// shape: (points.rows, points.rows)
/// complexity: O(n * k * d)
/// deterministic
pub fn knn_graph(
    points: &Matrix,
    k: usize,
    kernel: Kernel,
    bandwidth: f64,
    symmetrization: Symmetrization,
) -> Result<CsrMatrix> {
    knn_graph_with(
        points,
        k,
        kernel,
        bandwidth,
        symmetrization,
        &Executor::Sequential,
    )
}

/// [`knn_graph`] with the neighbour queries sharded across `executor`,
/// producing the same graph bit for bit at any worker count.
///
/// The point cloud is indexed once (`O(n log n)` for the KD-tree that
/// low-dimensional data selects) and each vertex then resolves its k
/// nearest in sublinear time. The trees are exact and canonicalize ties
/// by index (see the `gssl-index` crate docs for the full argument), and
/// the batched queries write each row back at its vertex id, whatever
/// order the index runs them in and at any worker count.
///
/// # Errors
///
/// Same as [`knn_graph`].
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n * k * d)
/// deterministic
pub fn knn_graph_with(
    points: &Matrix,
    k: usize,
    kernel: Kernel,
    bandwidth: f64,
    symmetrization: Symmetrization,
    executor: &Executor,
) -> Result<CsrMatrix> {
    let n = points.rows();
    if n == 0 {
        return Err(Error::EmptyInput {
            required: "at least one point",
        });
    }
    if k == 0 || k >= n {
        return Err(Error::InvalidArgument {
            message: format!("k must satisfy 1 <= k < n (= {n}), got {k}"),
        });
    }
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let index = SpatialIndex::build(points)?;
    let neighbors = self_k_nearest_batch(&index, k, executor)?;
    symmetrize_knn(&neighbors, kernel, bandwidth, symmetrization)
}

/// Turns the directed neighbour relation into a symmetric weighted CSR
/// graph (sequentially, in row order).
///
/// Weights reuse the squared distances the neighbour search already
/// computed — `Neighbor::dist2` comes from the same `squared_distance`
/// call, in the same argument order, as a recomputation would, so edge
/// weights are bitwise those of the pairwise formula. The caller
/// validates the bandwidth, and a sum of squares is never negative, so
/// the unchecked kernel evaluation is [`Kernel::weight`] without its
/// error paths.
///
/// The edges stream into the CSR constructor, which walks them twice
/// (count, then fill); no triplet list is built.
fn symmetrize_knn(
    neighbors: &NeighborRows,
    kernel: Kernel,
    bandwidth: f64,
    symmetrization: Symmetrization,
) -> Result<CsrMatrix> {
    let n = neighbors.len();
    // Neighbor ids come from a search over these same n points, so every
    // stored index is a valid row.
    debug_assert!(neighbors
        .rows()
        .flatten()
        .all(|nb| nb.index < n && !(nb.dist2 < 0.0)));
    let lists_mention = |j: usize, i: usize| neighbors.row(j).iter().any(|nb| nb.index == i);
    let edges = (0..n).flat_map(move |i| {
        neighbors.row(i).iter().filter_map(move |nb| {
            let j = nb.index;
            let keep = match symmetrization {
                Symmetrization::Union => true,
                Symmetrization::Mutual => lists_mention(j, i),
            };
            // Emit each undirected edge once: from the lower-index side
            // when it lists the other, otherwise from the higher-index
            // side (a union edge the lower side never discovered).
            let emit = keep && (i < j || (j < i && !lists_mention(j, i)));
            if !emit {
                return None;
            }
            let w = kernel.weight_unchecked(nb.dist2, bandwidth);
            (w > 0.0).then_some((i, j, w))
        })
    });
    let entries = edges.flat_map(|(i, j, w)| [(i, j, w), (j, i, w)]);
    Ok(CsrMatrix::from_entries(n, n, entries)?)
}

/// Builds an ε-neighbourhood affinity graph — vertices within Euclidean
/// distance `epsilon` are connected with kernel weights:
/// [`epsilon_graph_with`] on [`Executor::Sequential`].
///
/// # Errors
///
/// * [`Error::EmptyInput`] when `points` has no rows.
/// * [`Error::InvalidArgument`] when `epsilon` is not positive and
///   finite, or when a coordinate is NaN or infinite.
/// * [`Error::InvalidBandwidth`] when `bandwidth <= 0`.
///
/// shape: (points.rows, points.rows)
/// deterministic
pub fn epsilon_graph(
    points: &Matrix,
    epsilon: f64,
    kernel: Kernel,
    bandwidth: f64,
) -> Result<CsrMatrix> {
    epsilon_graph_with(points, epsilon, kernel, bandwidth, &Executor::Sequential)
}

/// [`epsilon_graph`] with the range queries sharded across `executor`:
/// each vertex finds its ε-ball with one query against a spatial index
/// instead of scanning all n points. Membership is `dist² <= ε²` on the
/// pairwise squared distance, and the graph is the same bit for bit at
/// any worker count.
///
/// # Errors
///
/// Same as [`epsilon_graph`].
/// shape: (points.rows, points.rows)
/// hot
/// complexity: O(n * k * d)
/// deterministic
pub fn epsilon_graph_with(
    points: &Matrix,
    epsilon: f64,
    kernel: Kernel,
    bandwidth: f64,
    executor: &Executor,
) -> Result<CsrMatrix> {
    let n = points.rows();
    if n == 0 {
        return Err(Error::EmptyInput {
            required: "at least one point",
        });
    }
    if !(epsilon > 0.0) {
        return Err(Error::InvalidArgument {
            message: format!("epsilon must be positive, got {epsilon}"),
        });
    }
    if !(bandwidth > 0.0) {
        return Err(Error::InvalidBandwidth { value: bandwidth });
    }
    let index = SpatialIndex::build(points)?;
    let balls = self_within_radius_batch(&index, epsilon, executor)?;
    // Each undirected pair appears in both endpoint balls and is emitted
    // once, from its lower endpoint, as both orientations; the pairs
    // stream into the CSR constructor with no triplet list in between.
    // The bandwidth is validated above and a squared distance is never
    // negative, so the unchecked weight is `Kernel::weight`'s value.
    let balls = &balls;
    let edges = (0..n).flat_map(move |i| {
        let ball = balls.row(i).iter();
        ball.filter(move |nb| nb.index > i).filter_map(move |nb| {
            let w = kernel.weight_unchecked(nb.dist2, bandwidth);
            (w > 0.0).then_some((i, nb.index, w))
        })
    });
    let entries = edges.flat_map(|(i, j, w)| [(i, j, w), (j, i, w)]);
    Ok(CsrMatrix::from_entries(n, n, entries)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::squared_distance;
    use gssl_index::BruteForce;

    /// The exact linear scan: brute-force neighbour rows through the same
    /// symmetrization — the bitwise oracle for the indexed builders.
    fn brute_force_knn(
        points: &Matrix,
        k: usize,
        kernel: Kernel,
        bandwidth: f64,
        symmetrization: Symmetrization,
    ) -> CsrMatrix {
        let index = BruteForce::build(points).unwrap();
        let neighbors = self_k_nearest_batch(&index, k, &Executor::Sequential).unwrap();
        symmetrize_knn(&neighbors, kernel, bandwidth, symmetrization).unwrap()
    }

    /// The pairwise double loop over `dist² <= ε²` — the bitwise oracle
    /// for the indexed ε-graph.
    fn double_loop_epsilon(points: &Matrix, epsilon: f64, kernel: Kernel, h: f64) -> CsrMatrix {
        let n = points.rows();
        let eps2 = epsilon * epsilon;
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = squared_distance(points.row(i), points.row(j));
                if d2 <= eps2 {
                    let w = kernel.weight(d2, h).unwrap();
                    if w > 0.0 {
                        triplets.push((i, j, w));
                        triplets.push((j, i, w));
                    }
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    /// Five points on a line at 0, 1, 2, 10, 11.
    fn line_points() -> Matrix {
        Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0]]).unwrap()
    }

    #[test]
    fn knn_graph_is_symmetric() {
        let g = knn_graph(
            &line_points(),
            2,
            Kernel::Gaussian,
            1.0,
            Symmetrization::Union,
        )
        .unwrap();
        assert!(g.is_symmetric(1e-15));
        assert_eq!(g.rows(), 5);
    }

    #[test]
    fn knn_union_vs_mutual() {
        // Point 2's 1-NN is point 1; point 3's 1-NN is point 4.
        // Union(1-NN) keeps 1-2 and 3-4 edges; mutual keeps only pairs that
        // choose each other: (0,1)? 0's NN is 1; 1's NN is 0 or 2 (dist 1
        // both, sort stable -> 0 first). Check counts differ or mutual ⊆ union.
        let union = knn_graph(
            &line_points(),
            2,
            Kernel::Gaussian,
            5.0,
            Symmetrization::Union,
        )
        .unwrap();
        let mutual = knn_graph(
            &line_points(),
            2,
            Kernel::Gaussian,
            5.0,
            Symmetrization::Mutual,
        )
        .unwrap();
        assert!(mutual.nnz() <= union.nnz());
        // Every mutual edge is a union edge with equal weight.
        for i in 0..5 {
            for (j, v) in mutual.row_iter(i) {
                assert!((union.get(i, j) - v).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn knn_has_no_self_loops() {
        let g = knn_graph(
            &line_points(),
            3,
            Kernel::Gaussian,
            1.0,
            Symmetrization::Union,
        )
        .unwrap();
        for i in 0..5 {
            assert_eq!(g.get(i, i), 0.0);
        }
    }

    #[test]
    fn knn_weights_match_kernel() {
        let g = knn_graph(
            &line_points(),
            1,
            Kernel::Gaussian,
            2.0,
            Symmetrization::Union,
        )
        .unwrap();
        // Edge 0-1 has distance 1 => weight exp(-1/4).
        assert!((g.get(0, 1) - (-0.25f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn knn_validates_arguments() {
        let pts = line_points();
        assert!(knn_graph(&pts, 0, Kernel::Gaussian, 1.0, Symmetrization::Union).is_err());
        assert!(knn_graph(&pts, 5, Kernel::Gaussian, 1.0, Symmetrization::Union).is_err());
        assert!(knn_graph(&pts, 2, Kernel::Gaussian, 0.0, Symmetrization::Union).is_err());
        assert!(knn_graph(
            &Matrix::zeros(0, 1),
            1,
            Kernel::Gaussian,
            1.0,
            Symmetrization::Union
        )
        .is_err());
    }

    #[test]
    fn epsilon_graph_connects_only_near_points() {
        let g = epsilon_graph(&line_points(), 1.5, Kernel::Boxcar, 2.0).unwrap();
        assert!(g.get(0, 1) > 0.0);
        assert!(g.get(1, 2) > 0.0);
        assert_eq!(g.get(2, 3), 0.0); // distance 8 > epsilon
        assert!(g.get(3, 4) > 0.0);
        assert!(g.is_symmetric(1e-15));
    }

    #[test]
    fn epsilon_graph_cluster_structure() {
        let g = epsilon_graph(&line_points(), 2.5, Kernel::Gaussian, 1.0).unwrap();
        let dense = g.to_dense();
        let labels = crate::components::connected_components(&dense, 0.0).unwrap();
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn epsilon_graph_validates_arguments() {
        let pts = line_points();
        assert!(epsilon_graph(&pts, 0.0, Kernel::Gaussian, 1.0).is_err());
        assert!(epsilon_graph(&pts, f64::INFINITY, Kernel::Gaussian, 1.0).is_err());
        assert!(epsilon_graph(&pts, 1.0, Kernel::Gaussian, -1.0).is_err());
        assert!(epsilon_graph(&Matrix::zeros(0, 1), 1.0, Kernel::Gaussian, 1.0).is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            let mut pts = line_points();
            pts.set(3, 0, bad);
            assert!(
                matches!(
                    epsilon_graph(&pts, 1.5, Kernel::Gaussian, 1.0),
                    Err(Error::InvalidArgument { .. })
                ),
                "a {bad} coordinate was accepted"
            );
        }
    }

    #[test]
    fn knn_graph_matches_the_brute_force_oracle() {
        // 2-d points route to the KD-tree, 20-d points to the cover tree.
        let clouds = [
            Matrix::from_fn(48, 2, |i, j| ((i * 13 + j * 5) as f64 * 0.47).cos()),
            Matrix::from_fn(40, 20, |i, j| ((i * 17 + j * 7) as f64 * 0.31).sin()),
        ];
        for pts in &clouds {
            for symmetrization in [Symmetrization::Union, Symmetrization::Mutual] {
                let oracle = brute_force_knn(pts, 4, Kernel::Gaussian, 0.9, symmetrization);
                let graph = knn_graph(pts, 4, Kernel::Gaussian, 0.9, symmetrization).unwrap();
                assert_eq!(graph, oracle, "{symmetrization:?}");
                for workers in [1, 2, 4] {
                    let executor = Executor::with_workers(workers);
                    let parallel =
                        knn_graph_with(pts, 4, Kernel::Gaussian, 0.9, symmetrization, &executor)
                            .unwrap();
                    assert_eq!(
                        parallel, oracle,
                        "kNN graph differs at {workers} workers ({symmetrization:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_knn_validates_arguments() {
        let pts = line_points();
        let executor = Executor::with_workers(2);
        for bad_k in [0, 5] {
            assert!(knn_graph_with(
                &pts,
                bad_k,
                Kernel::Gaussian,
                1.0,
                Symmetrization::Union,
                &executor
            )
            .is_err());
        }
    }

    #[test]
    fn epsilon_graph_matches_the_double_loop_oracle() {
        let pts = Matrix::from_fn(48, 2, |i, j| ((i * 13 + j * 5) as f64 * 0.47).cos());
        for kernel in [Kernel::Gaussian, Kernel::Boxcar] {
            let oracle = double_loop_epsilon(&pts, 0.6, kernel, 0.5);
            assert_eq!(epsilon_graph(&pts, 0.6, kernel, 0.5).unwrap(), oracle);
            for workers in [1, 2, 4] {
                let executor = Executor::with_workers(workers);
                let indexed = epsilon_graph_with(&pts, 0.6, kernel, 0.5, &executor).unwrap();
                assert_eq!(
                    indexed, oracle,
                    "{kernel} epsilon graph differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_epsilon_graph_validates_arguments() {
        let pts = line_points();
        let executor = Executor::with_workers(2);
        assert!(epsilon_graph_with(&pts, 0.0, Kernel::Gaussian, 1.0, &executor).is_err());
        assert!(epsilon_graph_with(&pts, 1.0, Kernel::Gaussian, -1.0, &executor).is_err());
        assert!(
            epsilon_graph_with(&Matrix::zeros(0, 1), 1.0, Kernel::Gaussian, 1.0, &executor)
                .is_err()
        );
    }

    #[test]
    fn compact_kernel_can_zero_out_knn_edges() {
        // Boxcar with bandwidth 0.5: even nearest neighbours at distance 1
        // get weight 0, so the edge is dropped entirely.
        let g = knn_graph(
            &line_points(),
            1,
            Kernel::Boxcar,
            0.5,
            Symmetrization::Union,
        )
        .unwrap();
        assert_eq!(g.nnz(), 0);
    }
}
