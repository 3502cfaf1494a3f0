//! Property-style tests for graph construction invariants.
//!
//! Originally written against `proptest`; the workspace is now fully
//! offline and dependency-free, so each property is exercised over a
//! deterministic sweep of seeded random cases instead of a shrinking
//! strategy. Seeds are fixed, so failures are exactly reproducible.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl_graph::{
    affinity::{affinity_matrix, pairwise_squared_distances},
    component_partition,
    components::{connected_components, is_connected},
    degrees, dirichlet_energy, epsilon_graph, knn_graph, laplacian, Kernel, KernelGraph,
    LaplacianKind, Symmetrization,
};
use gssl_index::{BruteForce, CoverTree, KdTree, NeighborSearch};
use gssl_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const N_POINTS: usize = 8;
const DIM: usize = 3;
const CASES: u64 = 24;

fn point_cloud(rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(N_POINTS, DIM, |_, _| rng.gen::<f64>() * 4.0 - 2.0)
}

fn any_kernel(rng: &mut StdRng) -> Kernel {
    *Kernel::all().choose(rng).expect("kernel list is non-empty")
}

fn scores(rng: &mut StdRng) -> Vector {
    Vector::from_fn(N_POINTS, |_| rng.gen::<f64>() * 2.0 - 1.0)
}

/// Runs `body` once per seeded case.
fn for_cases(mut body: impl FnMut(&mut StdRng)) {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6A17 + seed);
        body(&mut rng);
    }
}

#[test]
fn affinity_is_symmetric_in_unit_range() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let kernel = any_kernel(rng);
        let h = rng.gen_range(0.1..3.0);
        let w = affinity_matrix(&pts, kernel, h).unwrap();
        assert!(w.is_symmetric(0.0));
        for i in 0..N_POINTS {
            assert_eq!(w.get(i, i), 1.0);
            for j in 0..N_POINTS {
                let v = w.get(i, j);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    });
}

#[test]
fn affinity_decreases_with_distance_rank() {
    for_cases(|rng| {
        // For the Gaussian kernel, larger distance => no larger weight.
        let pts = point_cloud(rng);
        let h = rng.gen_range(0.2..2.0);
        let d2 = pairwise_squared_distances(&pts).unwrap();
        let w = affinity_matrix(&pts, Kernel::Gaussian, h).unwrap();
        for i in 0..N_POINTS {
            for j in 0..N_POINTS {
                for k in 0..N_POINTS {
                    if d2.get(i, j) <= d2.get(i, k) {
                        assert!(w.get(i, j) >= w.get(i, k) - 1e-15);
                    }
                }
            }
        }
    });
}

#[test]
fn laplacian_rows_sum_to_zero_and_psd() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let kernel = any_kernel(rng);
        let h = rng.gen_range(0.1..3.0);
        let f = scores(rng);
        let w = affinity_matrix(&pts, kernel, h).unwrap();
        let l = laplacian(&w, LaplacianKind::Unnormalized).unwrap();
        assert!(l.is_symmetric(1e-12));
        for s in l.row_sums().iter() {
            assert!(s.abs() < 1e-10);
        }
        let quad = f.dot(&l.matvec(&f).unwrap()).unwrap();
        assert!(quad >= -1e-10);
        // The paper's penalty is exactly twice the quadratic form.
        let energy = dirichlet_energy(&w, &f).unwrap();
        assert!((energy - 2.0 * quad).abs() <= 1e-9 * energy.abs().max(1.0));
    });
}

#[test]
fn degrees_are_at_least_self_weight() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let kernel = any_kernel(rng);
        let h = rng.gen_range(0.1..3.0);
        let w = affinity_matrix(&pts, kernel, h).unwrap();
        for d in degrees(&w).unwrap().iter() {
            assert!(d >= 1.0 - 1e-15); // w_ii = 1 contributes
        }
    });
}

#[test]
fn knn_graph_is_symmetric_without_self_loops() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let k = rng.gen_range(1..N_POINTS);
        let h = rng.gen_range(0.2..2.0);
        let g = knn_graph(&pts, k, Kernel::Gaussian, h, Symmetrization::Union).unwrap();
        assert!(g.is_symmetric(1e-12));
        for i in 0..N_POINTS {
            assert_eq!(g.get(i, i), 0.0);
        }
        // Union graph has at least k edges incident per vertex... at least
        // the out-edges survive (Gaussian weight is always positive).
        for i in 0..N_POINTS {
            assert!(g.row_iter(i).count() >= k);
        }
    });
}

#[test]
fn mutual_knn_is_subgraph_of_union() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let k = rng.gen_range(1..N_POINTS);
        let h = rng.gen_range(0.2..2.0);
        let union = knn_graph(&pts, k, Kernel::Gaussian, h, Symmetrization::Union).unwrap();
        let mutual = knn_graph(&pts, k, Kernel::Gaussian, h, Symmetrization::Mutual).unwrap();
        assert!(mutual.nnz() <= union.nnz());
        for i in 0..N_POINTS {
            for (j, v) in mutual.row_iter(i) {
                assert!((union.get(i, j) - v).abs() < 1e-15);
            }
        }
    });
}

#[test]
fn epsilon_graph_edges_respect_radius() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let eps = rng.gen_range(0.5..4.0);
        let g = epsilon_graph(&pts, eps, Kernel::Gaussian, 1.0).unwrap();
        let d2 = pairwise_squared_distances(&pts).unwrap();
        for i in 0..N_POINTS {
            for (j, _) in g.row_iter(i) {
                assert!(d2.get(i, j) <= eps * eps + 1e-12);
            }
        }
    });
}

#[test]
fn full_gaussian_graph_is_connected() {
    for_cases(|rng| {
        // Gaussian weights are strictly positive => one component. (At
        // much smaller bandwidths exp(-d²/h²) underflows to exactly 0 in
        // f64, so the bandwidth range here keeps weights representable.)
        let pts = point_cloud(rng);
        let h = rng.gen_range(1.0..3.0);
        let w = affinity_matrix(&pts, Kernel::Gaussian, h).unwrap();
        assert!(is_connected(&w, 0.0).unwrap());
        let labels = connected_components(&w, 0.0).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    });
}

#[test]
fn component_labels_are_contiguous() {
    for_cases(|rng| {
        let pts = point_cloud(rng);
        let eps = rng.gen_range(0.2..3.0);
        let g = epsilon_graph(&pts, eps, Kernel::Boxcar, eps).unwrap();
        let labels = connected_components(&g.to_dense(), 0.0).unwrap();
        let max = labels.iter().copied().max().unwrap();
        for expect in 0..=max {
            assert!(labels.contains(&expect), "label {expect} skipped");
        }
    });
}

/// Clustered clouds whose gaps straddle the kernel's support: `clusters`
/// blobs of jittered points on a line of centers `gap` apart, in `d`
/// dimensions, shuffled so components interleave in index order.
fn cluster_cloud(rng: &mut StdRng, clusters: usize, per: usize, d: usize, gap: f64) -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..clusters * per)
        .map(|i| {
            (0..d)
                .map(|j| {
                    let center = if j == 0 {
                        (i % clusters) as f64 * gap
                    } else {
                        0.0
                    };
                    center + rng.gen::<f64>() * 1.5
                })
                .collect()
        })
        .collect();
    rows.shuffle(rng);
    Matrix::from_fn(rows.len(), d, |i, j| rows[i][j])
}

/// The graph partition through every exact index backend, checked equal
/// to the dense `component_partition(&weights, 0.0)`.
fn assert_partition_matches_dense(graph: &KernelGraph, what: &str) -> Vec<Vec<usize>> {
    let dense = component_partition(&graph.weights().unwrap(), 0.0).unwrap();
    let pts = graph.points();
    let brute = graph
        .component_partition(&BruteForce::build(pts).unwrap())
        .unwrap();
    let cover = graph
        .component_partition(&CoverTree::build(pts).unwrap())
        .unwrap();
    assert_eq!(brute, dense, "{what}: brute-force partition");
    assert_eq!(cover, dense, "{what}: cover-tree partition");
    if pts.cols() <= 16 {
        let kd = graph
            .component_partition(&KdTree::build(pts).unwrap())
            .unwrap();
        assert_eq!(kd, dense, "{what}: kd-tree partition");
    }
    dense
}

#[test]
fn graph_partition_equals_the_dense_partition_for_every_kernel() {
    for_cases(|rng| {
        let clusters: usize = rng.gen_range(1usize..5);
        let per: usize = rng.gen_range(1usize..7);
        let d: usize = rng.gen_range(1usize..4);
        // Gaps from well inside the support to well beyond it, so some
        // cases chain clusters together and others split them.
        let gap = rng.gen_range(1.0..6.0);
        let h = rng.gen_range(0.3..3.0);
        let pts = cluster_cloud(rng, clusters, per, d, gap);
        for kernel in Kernel::all() {
            let graph = KernelGraph::fit(pts.clone(), kernel, h).unwrap();
            assert_partition_matches_dense(&graph, &format!("{kernel} h={h} gap={gap}"));
        }
    });
}

#[test]
fn gaussian_partition_splits_where_weights_underflow() {
    // Clusters 100 bandwidths apart: exp(-d²/h²) underflows to exactly
    // 0.0 between them, so even the Gaussian graph has one component
    // per cluster.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let pts = cluster_cloud(&mut rng, 4, 6, 2, 100.0);
    let graph = KernelGraph::fit(pts, Kernel::Gaussian, 1.0).unwrap();
    let parts = assert_partition_matches_dense(&graph, "gaussian underflow");
    assert_eq!(parts.len(), 4);
}

#[test]
fn boxcar_pair_one_ulp_past_the_bandwidth_is_one_component() {
    // d² = 1 + 2⁻⁵² > h² = 1, yet the boxcar weight is 1: a radius
    // query at exactly h would split this pair.
    let pts = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 2f64.powi(-26)], &[5.0, 0.0]]).unwrap();
    let graph = KernelGraph::fit(pts, Kernel::Boxcar, 1.0).unwrap();
    let parts = assert_partition_matches_dense(&graph, "boxcar ulp pair");
    assert_eq!(parts, vec![vec![0, 1], vec![2]]);
}

#[test]
fn partition_outside_the_normal_bandwidth_range_falls_back_exactly() {
    // h² underflows below the normal range: the support radius no longer
    // certifies exact zeros, and the dense partition runs instead.
    let h = 1e-160;
    let pts = Matrix::from_fn(6, 1, |i, _| {
        (i / 2) as f64 * 3e-160 + (i % 2) as f64 * 5e-161
    });
    for kernel in Kernel::all() {
        let graph = KernelGraph::fit(pts.clone(), kernel, h).unwrap();
        assert_partition_matches_dense(&graph, &format!("{kernel} tiny h"));
    }
}

#[test]
fn graph_partition_rejects_a_foreign_index() {
    let pts = Matrix::from_fn(5, 2, |i, j| (i + j) as f64);
    let graph = KernelGraph::fit(pts.clone(), Kernel::Epanechnikov, 1.5).unwrap();
    let fewer = BruteForce::build(&Matrix::from_fn(4, 2, |i, j| (i + j) as f64)).unwrap();
    assert!(graph.component_partition(&fewer).is_err());
    let moved = BruteForce::build(&Matrix::from_fn(5, 2, |i, j| (i + j) as f64 + 0.5)).unwrap();
    assert!(graph.component_partition(&moved).is_err());
    let wider = BruteForce::build(&Matrix::zeros(5, 3)).unwrap();
    assert!(graph.component_partition(&wider).is_err());
}
