//! Sparse graph constructions: k-nearest-neighbour and ε-threshold graphs.
//!
//! Dense kernel graphs scale as `O((n+m)²)` memory; for large unlabeled
//! pools the standard alternative (Chapelle et al., §11) is to keep only
//! the strongest edges. These builders produce [`CsrMatrix`] affinities
//! compatible with the iterative solvers in `gssl`.

use crate::bandwidth::squared_distance;
use crate::error::{Error, Result};
use crate::kernel::Kernel;
use gssl_index::{
    self_k_nearest_batch, self_within_radius_batch, BruteForce, NeighborRows, NeighborSearch,
    SpatialIndex,
};
use gssl_linalg::{CsrMatrix, Matrix};

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

/// Shared argument validation for the kNN builders.
fn check_knn_args(n: usize, k: usize, bandwidth: f64) -> Result<()> {
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
    Ok(())
}

/// Shared argument validation for the ε-graph builders.
fn check_epsilon_args(n: usize, epsilon: f64, bandwidth: f64) -> Result<()> {
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
    Ok(())
}

/// Builds a symmetric k-nearest-neighbour affinity graph.
///
/// Edge weights are `kernel.weight(dist², bandwidth)`. Self-loops are not
/// included (the paper's dense `W` has them, but they cancel in `D − W`;
/// sparse graphs conventionally omit them).
///
/// The neighbour relation is resolved by the [`BruteForce`] backend of
/// `gssl-index` — the exact linear scan this function always performed,
/// now shared with the spatial trees as their test oracle. Ties at the
/// k-th distance break by ascending index, exactly as the historical
/// stable sort did.
///
/// # Errors
///
/// * [`Error::EmptyInput`] when `points` has no rows.
/// * [`Error::InvalidArgument`] when `k == 0` or `k >= points.rows()`.
/// * [`Error::InvalidBandwidth`] when `bandwidth <= 0`.
///
/// shape: (points.rows, points.rows)
/// complexity: O(n^2 * d)
/// deterministic
pub fn knn_graph(
    points: &Matrix,
    k: usize,
    kernel: Kernel,
    bandwidth: f64,
    symmetrization: Symmetrization,
) -> Result<CsrMatrix> {
    check_knn_args(points.rows(), k, bandwidth)?;
    let index = BruteForce::build(points)?;
    let neighbors = self_k_nearest_batch(&index, k, &gssl_runtime::Executor::Sequential)?;
    symmetrize_knn(&neighbors, kernel, bandwidth, symmetrization)
}

/// [`knn_graph`] accelerated by a spatial index and sharded across
/// `executor`, producing a graph **bit-identical** to the sequential
/// brute-force one.
///
/// The point cloud is indexed once (`O(n log n)` for the KD-tree that
/// low-dimensional data selects) and each vertex then resolves its k
/// nearest in sublinear time — the `O(n²·d)` wall this crate used to hit
/// at scale is gone even at one worker. Bit-identity to [`knn_graph`]
/// holds because the trees are exact and canonicalize ties by index (see
/// the `gssl-index` crate docs for the full argument), and the batched
/// queries write each row back at its vertex id, whatever order the
/// index runs them in and at any worker count.
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
    executor: &gssl_runtime::Executor,
) -> Result<CsrMatrix> {
    check_knn_args(points.rows(), k, bandwidth)?;
    let index = SpatialIndex::build(points)?;
    let neighbors = self_k_nearest_batch(&index, k, executor)?;
    symmetrize_knn(&neighbors, kernel, bandwidth, symmetrization)
}

/// Shared tail of the kNN builders: turns the directed neighbour relation
/// into a symmetric weighted CSR graph (sequentially, in row order).
///
/// Weights reuse the squared distances the neighbour search already
/// computed — `Neighbor::dist2` comes from the same `squared_distance`
/// call, in the same argument order, as the historical recomputation, so
/// edge weights are bitwise unchanged. Both callers validate the
/// bandwidth, and a sum of squares is never negative, so the unchecked
/// kernel evaluation is [`Kernel::weight`] without its error paths.
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

/// Builds an ε-neighbourhood affinity graph: vertices within Euclidean
/// distance `epsilon` are connected with kernel weights.
///
/// # Errors
///
/// * [`Error::EmptyInput`] when `points` has no rows.
/// * [`Error::InvalidArgument`] when `epsilon <= 0`.
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
    let n = points.rows();
    check_epsilon_args(n, epsilon, bandwidth)?;
    let eps2 = epsilon * epsilon;
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let d2 = squared_distance(points.row(i), points.row(j));
            if d2 <= eps2 {
                let w = kernel.weight(d2, bandwidth)?;
                if w > 0.0 {
                    triplets.push((i, j, w));
                    triplets.push((j, i, w));
                }
            }
        }
    }
    Ok(CsrMatrix::from_triplets(n, n, &triplets)?)
}

/// [`epsilon_graph`] accelerated by a spatial index and sharded across
/// `executor`: each vertex finds its ε-ball with a range query instead
/// of scanning all n points, and the result is **bit-identical** to the
/// sequential double loop (membership `dist² <= ε²` and the edge weights
/// are computed by the very same expressions).
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
    executor: &gssl_runtime::Executor,
) -> Result<CsrMatrix> {
    let n = points.rows();
    check_epsilon_args(n, epsilon, bandwidth)?;
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
        assert!(epsilon_graph(&pts, 1.0, Kernel::Gaussian, -1.0).is_err());
        assert!(epsilon_graph(&Matrix::zeros(0, 1), 1.0, Kernel::Gaussian, 1.0).is_err());
    }

    #[test]
    fn parallel_knn_is_bit_identical_to_sequential() {
        use gssl_runtime::Executor;
        let pts = Matrix::from_fn(48, 2, |i, j| ((i * 13 + j * 5) as f64 * 0.47).cos());
        for symmetrization in [Symmetrization::Union, Symmetrization::Mutual] {
            let sequential = knn_graph(&pts, 4, Kernel::Gaussian, 0.9, symmetrization).unwrap();
            for workers in [1, 2, 4] {
                let executor = Executor::with_workers(workers);
                let parallel =
                    knn_graph_with(&pts, 4, Kernel::Gaussian, 0.9, symmetrization, &executor)
                        .unwrap();
                assert_eq!(parallel.nnz(), sequential.nnz());
                assert_eq!(
                    parallel.to_dense().as_slice(),
                    sequential.to_dense().as_slice(),
                    "kNN graph differs at {workers} workers ({symmetrization:?})"
                );
            }
        }
    }

    #[test]
    fn parallel_knn_validates_arguments() {
        use gssl_runtime::Executor;
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
    fn parallel_epsilon_graph_is_bit_identical_to_sequential() {
        use gssl_runtime::Executor;
        let pts = Matrix::from_fn(48, 2, |i, j| ((i * 13 + j * 5) as f64 * 0.47).cos());
        let sequential = epsilon_graph(&pts, 0.6, Kernel::Gaussian, 0.9).unwrap();
        for workers in [1, 2, 4] {
            let executor = Executor::with_workers(workers);
            let indexed = epsilon_graph_with(&pts, 0.6, Kernel::Gaussian, 0.9, &executor).unwrap();
            assert_eq!(indexed.nnz(), sequential.nnz());
            assert_eq!(
                indexed.to_dense().as_slice(),
                sequential.to_dense().as_slice(),
                "epsilon graph differs at {workers} workers"
            );
        }
    }

    #[test]
    fn parallel_epsilon_graph_validates_arguments() {
        use gssl_runtime::Executor;
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
    fn knn_graph_with_handles_high_dimension_via_cover_tree() {
        use gssl_runtime::Executor;
        // 20-dimensional points route to the cover tree backend; the
        // result must still equal the brute-force oracle bit for bit.
        let pts = Matrix::from_fn(40, 20, |i, j| ((i * 17 + j * 7) as f64 * 0.31).sin());
        let sequential = knn_graph(&pts, 5, Kernel::Gaussian, 1.4, Symmetrization::Union).unwrap();
        let indexed = knn_graph_with(
            &pts,
            5,
            Kernel::Gaussian,
            1.4,
            Symmetrization::Union,
            &Executor::Sequential,
        )
        .unwrap();
        assert_eq!(
            indexed.to_dense().as_slice(),
            sequential.to_dense().as_slice()
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
