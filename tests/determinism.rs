//! Determinism suite for the shared execution layer: every parallel code
//! path in the workspace must produce output **bit-identical** (`==` on
//! `f64` slices, not epsilon-close) to its sequential counterpart, at
//! every worker count.
//!
//! The claim being tested is the `gssl-runtime` contract: work is split
//! into contiguous chunks, each item is computed by exactly one worker
//! with the same per-item operation order as the sequential loop, and
//! results are reassembled in input order. Under that protocol the
//! floating-point result cannot depend on the worker count — which the
//! tests here check end to end for kernel assembly, hard and soft fits,
//! one-vs-rest multiclass, and batch serving, and which
//! `sim::enumerate_schedules` proves exhaustively for the claim protocol
//! itself.

use gssl::cmn::argsort_scores;
use gssl::{HardCriterion, OneVsRest, Problem, SoftCriterion};
use gssl_graph::{
    affinity::{
        affinity_from_distances, affinity_from_distances_with, affinity_matrix,
        affinity_matrix_with, affinity_with_rule, pairwise_squared_distances,
        pairwise_squared_distances_with,
    },
    component_partition, epsilon_graph, epsilon_graph_with, knn_graph, knn_graph_with, Bandwidth,
    Kernel, KernelGraph, Symmetrization,
};
use gssl_index::{
    k_nearest_batch, self_k_nearest_batch, self_within_radius_batch, BruteForce, CoverTree, KdTree,
    Neighbor, NeighborRows, NeighborSearch, SpatialIndex,
};
use gssl_linalg::{
    AmgCg, AmgOptions, CgOptions, Cholesky, CsrMatrix, Factorization, Lu, Matrix, PrecondCg,
    PrecondKind, SolverPolicy, Vector,
};
use gssl_runtime::{sim, Executor};
use gssl_serve::{EngineConfig, QueryPoint, ServingEngine, ShardPlan, ShardedEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 4];
/// The grid plus 8 workers, for the pipeline stages end to end:
/// kernel-graph weights, hard fit, soft fit and batch prediction.
const STAGE_WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// Deterministic low-discrepancy points (no RNG state to thread through).
fn points(n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |i, j| {
        (((i * 131 + j * 37 + 11) as f64) * 0.618_033_988_749_894_9).fract()
    })
}

#[test]
fn kernel_assembly_is_bit_identical_across_worker_counts() {
    let pts = points(61, 5);
    let reference = affinity_matrix(&pts, Kernel::Gaussian, 0.7).expect("sequential affinity");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = affinity_matrix_with(&pts, Kernel::Gaussian, 0.7, &executor)
            .expect("parallel affinity");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "affinity assembly diverged at {workers} workers"
        );
    }
}

#[test]
fn kernel_graph_weights_are_bit_identical_across_worker_counts() {
    let graph = KernelGraph::fit(points(53, 4), Kernel::Epanechnikov, 0.9).expect("graph fit");
    let reference = graph.weights().expect("sequential weights");
    for workers in STAGE_WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = graph.weights_with(&executor).expect("parallel weights");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "KernelGraph::weights_with diverged at {workers} workers"
        );
    }
}

#[test]
fn knn_assembly_is_bit_identical_across_worker_counts() {
    let pts = points(47, 3);
    for symmetrization in [Symmetrization::Union, Symmetrization::Mutual] {
        let reference = knn_graph(&pts, 6, Kernel::Gaussian, 0.8, symmetrization)
            .expect("sequential knn graph");
        for workers in WORKER_COUNTS {
            let executor = Executor::with_workers(workers);
            let parallel =
                knn_graph_with(&pts, 6, Kernel::Gaussian, 0.8, symmetrization, &executor)
                    .expect("parallel knn graph");
            assert_eq!(reference.nnz(), parallel.nnz());
            assert_eq!(
                reference.to_dense().as_slice(),
                parallel.to_dense().as_slice(),
                "knn assembly diverged at {workers} workers ({symmetrization:?})"
            );
        }
    }
}

#[test]
fn spatial_index_build_and_batched_queries_are_bit_identical() {
    // Two independent builds of the same cloud must be the same tree
    // (construction is deterministic, no RNG, no address-dependent
    // ordering), and batched queries against it must not depend on the
    // worker count — every row lands at its query's index.
    let pts = points(90, 3);
    let queries = points(33, 3);
    let index = SpatialIndex::build(&pts).expect("index build");
    let rebuilt = SpatialIndex::build(&pts).expect("index rebuild");
    let reference =
        k_nearest_batch(&index, &queries, 5, &Executor::Sequential).expect("sequential batch");
    let twin =
        k_nearest_batch(&rebuilt, &queries, 5, &Executor::Sequential).expect("rebuilt batch");
    assert_eq!(
        reference.len(),
        queries.rows(),
        "sequential batch row count"
    );
    for workers in [1, 2, 4, 8] {
        let executor = Executor::with_workers(workers);
        let parallel = k_nearest_batch(&index, &queries, 5, &executor).expect("parallel batch");
        assert_eq!(
            parallel.len(),
            reference.len(),
            "row count at {workers} workers"
        );
        for (pair, (r, p)) in reference.rows().zip(parallel.rows()).enumerate() {
            assert_eq!(r.len(), p.len(), "query {pair} at {workers} workers");
            for (a, b) in r.iter().zip(p) {
                assert_eq!(a.index, b.index, "query {pair} at {workers} workers");
                assert_eq!(
                    a.dist2.to_bits(),
                    b.dist2.to_bits(),
                    "query {pair} distance at {workers} workers"
                );
            }
        }
    }
    assert_eq!(reference, twin, "independent builds answered differently");
}

#[test]
fn knn_graph_with_is_bit_identical_at_high_worker_counts() {
    // The 1/2/3/4 sweep above pins tree-vs-brute equality; this one
    // extends the worker grid to 8 (more workers than chunks for some
    // block sizes) on the accelerated builder alone.
    let pts = points(64, 3);
    let reference = knn_graph(&pts, 7, Kernel::Gaussian, 0.8, Symmetrization::Union)
        .expect("sequential knn graph");
    for workers in [1, 2, 4, 8] {
        let executor = Executor::with_workers(workers);
        let parallel = knn_graph_with(
            &pts,
            7,
            Kernel::Gaussian,
            0.8,
            Symmetrization::Union,
            &executor,
        )
        .expect("parallel knn graph");
        assert_eq!(
            reference.to_dense().as_slice(),
            parallel.to_dense().as_slice(),
            "knn_graph_with diverged at {workers} workers"
        );
    }
}

/// A dense anchored two-class problem shared by the fit tests.
fn fit_problem() -> Problem {
    let weights = affinity_matrix(&points(72, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let labels: Vec<f64> = (0..14).map(|i| f64::from(i as u8 % 2)).collect();
    Problem::new(weights, labels).expect("problem")
}

#[test]
fn hard_fit_is_bit_identical_across_worker_counts() {
    let problem = fit_problem();
    let reference = HardCriterion::new().fit(&problem).expect("sequential fit");
    for workers in STAGE_WORKER_COUNTS {
        let parallel = HardCriterion::new()
            .with_executor(Executor::with_workers(workers))
            .fit(&problem)
            .expect("parallel fit");
        assert_eq!(
            reference.all(),
            parallel.all(),
            "hard fit diverged at {workers} workers"
        );
    }
}

#[test]
fn soft_fit_is_bit_identical_across_worker_counts() {
    let problem = fit_problem();
    let criterion = SoftCriterion::new(0.75).expect("lambda");
    let reference = criterion.fit(&problem).expect("sequential fit");
    for workers in STAGE_WORKER_COUNTS {
        let parallel = SoftCriterion::new(0.75)
            .expect("lambda")
            .policy(SolverPolicy::default().with_executor(Executor::with_workers(workers)))
            .fit(&problem)
            .expect("parallel fit");
        assert_eq!(
            reference.all(),
            parallel.all(),
            "soft fit diverged at {workers} workers"
        );
    }
}

#[test]
fn multiclass_fit_is_bit_identical_across_worker_counts() {
    let weights = affinity_matrix(&points(60, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let class_labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
    let reference = OneVsRest::new(HardCriterion::new(), 3)
        .expect("ovr")
        .fit(&weights, &class_labels)
        .expect("sequential fit");
    for workers in WORKER_COUNTS {
        let parallel = OneVsRest::new(HardCriterion::new(), 3)
            .expect("ovr")
            .with_executor(Executor::with_workers(workers))
            .fit(&weights, &class_labels)
            .expect("parallel fit");
        assert_eq!(
            reference.scores().as_slice(),
            parallel.scores().as_slice(),
            "one-vs-rest score matrix diverged at {workers} workers"
        );
        assert_eq!(reference.predictions(), parallel.predictions());
    }
}

#[test]
fn predict_batch_is_bit_identical_across_worker_counts() {
    let pts = points(48, 2);
    let labels: Vec<f64> = (0..10).map(|i| f64::from(i as u8 % 2)).collect();
    let queries: Vec<QueryPoint> = (0..37)
        .map(|q| {
            QueryPoint::new(vec![
                (((q * 131 + 11) as f64) * 0.618_033_988_749_894_9).fract(),
                (((q * 131 + 48) as f64) * 0.618_033_988_749_894_9).fract(),
            ])
        })
        .collect();
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Gaussian, 0.5).workers(workers);
        let engine = ServingEngine::fit(&pts, &labels, config).expect("engine fit");
        engine.predict_batch(&queries).expect("batch predict")
    };
    let reference = fit(1);
    for workers in STAGE_WORKER_COUNTS {
        let parallel = fit(workers);
        assert_eq!(reference.len(), parallel.len());
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            assert_eq!(
                r.score.to_bits(),
                p.score.to_bits(),
                "query {i} score at {workers} workers"
            );
            let same = r.per_class.len() == p.per_class.len()
                && r.per_class
                    .iter()
                    .zip(&p.per_class)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "query {i} per-class scores at {workers} workers");
        }
    }
}

#[test]
fn distance_and_affinity_pipeline_is_bit_identical_across_worker_counts() {
    let pts = points(57, 4);
    let d2 = pairwise_squared_distances(&pts).expect("sequential distances");
    let w = affinity_from_distances(&d2, Kernel::Gaussian, 0.7).expect("sequential affinity");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let d2_par = pairwise_squared_distances_with(&pts, &executor).expect("parallel distances");
        assert_eq!(
            d2.as_slice(),
            d2_par.as_slice(),
            "pairwise distances diverged at {workers} workers"
        );
        let w_par = affinity_from_distances_with(&d2, Kernel::Gaussian, 0.7, &executor)
            .expect("parallel affinity");
        assert_eq!(
            w.as_slice(),
            w_par.as_slice(),
            "affinity-from-distances diverged at {workers} workers"
        );
    }
    // The bandwidth-rule front end is a pure function of its inputs: two
    // invocations agree bitwise, and the matrix equals a direct assembly
    // at the resolved bandwidth.
    let (w1, h1) =
        affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::PaperRate, Some(12)).expect("rule");
    let (w2, h2) =
        affinity_with_rule(&pts, Kernel::Gaussian, Bandwidth::PaperRate, Some(12)).expect("rule");
    assert_eq!(h1.to_bits(), h2.to_bits());
    assert_eq!(w1.as_slice(), w2.as_slice());
    let direct = affinity_matrix(&pts, Kernel::Gaussian, h1).expect("direct");
    assert_eq!(w1.as_slice(), direct.as_slice());
}

#[test]
fn epsilon_graph_assembly_is_bit_identical_across_worker_counts() {
    let pts = points(50, 3);
    let reference = epsilon_graph(&pts, 0.6, Kernel::Gaussian, 0.8).expect("sequential graph");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = epsilon_graph_with(&pts, 0.6, Kernel::Gaussian, 0.8, &executor)
            .expect("parallel graph");
        assert_eq!(reference.nnz(), parallel.nnz());
        assert_eq!(
            reference.to_dense().as_slice(),
            parallel.to_dense().as_slice(),
            "epsilon-graph assembly diverged at {workers} workers"
        );
    }
}

#[test]
fn out_of_sample_kernel_rows_are_deterministic() {
    let graph = KernelGraph::fit(points(40, 3), Kernel::Gaussian, 0.7).expect("graph fit");
    let query = [0.31, 0.62, 0.13];
    let row = graph.kernel_row(&query).expect("kernel row");
    let again = graph.kernel_row(&query).expect("kernel row again");
    assert_eq!(row.as_slice(), again.as_slice());
    // The buffer-reusing variant computes the very same expressions.
    let mut out = vec![0.0; row.len()];
    graph
        .kernel_row_into(&query, &mut out)
        .expect("kernel row into");
    assert_eq!(row.as_slice(), out.as_slice());
    // A query that coincides with vertex i reproduces weights row i.
    let weights = graph.weights().expect("weights");
    let n = weights.rows();
    let vertex_row = graph.kernel_row(graph.points().row(2)).expect("vertex row");
    for j in 0..n {
        assert_eq!(
            vertex_row.as_slice()[j].to_bits(),
            weights.get(2, j).to_bits(),
            "kernel_row at vertex 2 disagrees with weights row at column {j}"
        );
    }
}

#[test]
fn single_query_search_is_deterministic_and_matches_self_batches() {
    let pts = points(40, 3);
    let index = SpatialIndex::build(&pts).expect("index build");
    let query = pts.row(5);
    // Repeated single queries are bitwise-stable.
    assert_eq!(
        index.k_nearest(query, 6).expect("k_nearest"),
        index.k_nearest(query, 6).expect("k_nearest again")
    );
    assert_eq!(
        index.within_radius(query, 0.9).expect("within_radius"),
        index
            .within_radius(query, 0.9)
            .expect("within_radius again")
    );
    let excluded = index
        .k_nearest_excluding(query, 6, Some(5))
        .expect("k_nearest_excluding");
    assert!(excluded.iter().all(|nb| nb.index != 5));
    // The self-join batches write those per-point queries back at their
    // ids at every worker count.
    let knn_ref =
        self_k_nearest_batch(&index, 5, &Executor::Sequential).expect("sequential self-knn");
    let radius_ref = self_within_radius_batch(&index, 0.8, &Executor::Sequential)
        .expect("sequential self-radius");
    assert_eq!(knn_ref.len(), index.len(), "self-knn row count");
    for (i, neighbors) in knn_ref.rows().enumerate() {
        let single = index
            .k_nearest_excluding(index.point(i), 5, Some(i))
            .expect("single query");
        assert_eq!(
            neighbors,
            single.as_slice(),
            "batched row {i} disagrees with the single query"
        );
    }
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let knn_par = self_k_nearest_batch(&index, 5, &executor).expect("parallel self-knn");
        assert_eq!(
            knn_ref, knn_par,
            "self-knn batch diverged at {workers} workers"
        );
        let radius_par =
            self_within_radius_batch(&index, 0.8, &executor).expect("parallel self-radius");
        assert_eq!(
            radius_ref, radius_par,
            "self-radius batch diverged at {workers} workers"
        );
    }
}

/// `n` seeded points in `[-2, 2]³`; every other point snaps to a grid of
/// spacing 0.5, so duplicates (distance-0 ties), equidistant neighbors
/// and neighbors exactly on a 0.5 radius are common.
fn tied_cloud(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, 3, |i, _| {
        let x: f64 = rng.gen_range(-2.0..2.0);
        if i % 2 == 0 {
            (x * 2.0).round() / 2.0
        } else {
            x
        }
    })
}

/// Asserts a batch table is bitwise the one-query-at-a-time loop: the
/// same row count, and per row the same ids and `dist2` bits.
fn assert_rows_are_the_loop(rows: &NeighborRows, expect: &[Vec<Neighbor>], what: &str) {
    assert_eq!(rows.len(), expect.len(), "{what}: row count");
    for (i, want) in expect.iter().enumerate() {
        let got = rows.row(i);
        assert_eq!(got.len(), want.len(), "{what}: row {i} length");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.index, w.index, "{what}: row {i} ids");
            assert_eq!(
                g.dist2.to_bits(),
                w.dist2.to_bits(),
                "{what}: row {i} dist2 bits"
            );
        }
    }
}

/// Pins all three batch helpers on `index` against a sequential loop of
/// single queries, at every worker count. `reordered` says whether the
/// index's query order must differ from the identity.
fn check_batches_against_single_queries<I: NeighborSearch + Sync>(
    index: &I,
    queries: &Matrix,
    reordered: bool,
    name: &str,
) {
    let (k, radius) = (7, 0.5);
    let n = index.len();
    let order = index.query_order();
    let identity: Vec<usize> = (0..n).collect();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, identity, "{name}: query order is not a permutation");
    assert_eq!(order != identity, reordered, "{name}: query order");

    let knn: Vec<Vec<Neighbor>> = (0..n)
        .map(|i| {
            index
                .k_nearest_excluding(index.point(i), k, Some(i))
                .expect("single self query")
        })
        .collect();
    let balls: Vec<Vec<Neighbor>> = (0..n)
        .map(|i| {
            let mut ball = index
                .within_radius(index.point(i), radius)
                .expect("single radius query");
            ball.retain(|nb| nb.index != i);
            ball
        })
        .collect();
    let outside: Vec<Vec<Neighbor>> = (0..queries.rows())
        .map(|q| index.k_nearest(queries.row(q), k).expect("single query"))
        .collect();
    let on_radius = (radius * radius).to_bits();
    assert!(
        balls.iter().flatten().any(|nb| nb.dist2 == 0.0)
            && balls
                .iter()
                .flatten()
                .any(|nb| nb.dist2.to_bits() == on_radius),
        "{name}: the cloud must hold duplicates and neighbors on the radius"
    );
    for workers in [1, 2, 3, 4, 8] {
        let executor = Executor::with_workers(workers);
        assert_rows_are_the_loop(
            &self_k_nearest_batch(index, k, &executor).expect("self kNN batch"),
            &knn,
            &format!("{name} self_k_nearest_batch at {workers} workers"),
        );
        assert_rows_are_the_loop(
            &self_within_radius_batch(index, radius, &executor).expect("radius batch"),
            &balls,
            &format!("{name} self_within_radius_batch at {workers} workers"),
        );
        assert_rows_are_the_loop(
            &k_nearest_batch(index, queries, k, &executor).expect("kNN batch"),
            &outside,
            &format!("{name} k_nearest_batch at {workers} workers"),
        );
    }
}

#[test]
fn batch_helpers_are_bitwise_the_single_query_loop() {
    // Enough points for many KD leaves and several claimed blocks per
    // worker, so a row written back at its run position instead of its
    // id cannot pass.
    let pts = tied_cloud(2_000, 0x0BA7C4);
    let queries = tied_cloud(300, 0x0B5E12);
    check_batches_against_single_queries(
        &BruteForce::build(&pts).expect("brute build"),
        &queries,
        false,
        "BruteForce",
    );
    check_batches_against_single_queries(
        &KdTree::build(&pts).expect("kd build"),
        &queries,
        true,
        "KdTree",
    );
    check_batches_against_single_queries(
        &CoverTree::build(&pts).expect("cover build"),
        &queries,
        false,
        "CoverTree",
    );
    check_batches_against_single_queries(
        &SpatialIndex::build(&pts).expect("index build"),
        &queries,
        true,
        "SpatialIndex",
    );
}

/// The sequential bodies Cholesky, LU and matmul ran before each dense
/// kernel kept one executor body: the fixed references those kernels
/// must reproduce bit for bit.
mod dense_oracles {
    use gssl_linalg::float::is_exactly_zero;
    use gssl_linalg::{strict, Error, Matrix, Result};

    include!("../crates/linalg/tests/support/dense_oracles.rs");
}

#[test]
fn matmul_is_bit_identical_across_worker_counts() {
    let a = points(33, 21);
    let b = points(21, 17);
    let reference = dense_oracles::matmul(&a, &b).expect("oracle matmul");
    assert_eq!(
        reference.as_slice(),
        a.matmul(&b).expect("sequential matmul").as_slice()
    );
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let parallel = a.matmul_with(&b, &executor).expect("parallel matmul");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "matmul diverged at {workers} workers"
        );
    }
}

/// A symmetric positive-definite system (`I + L` for an affinity graph's
/// Laplacian `L`) and a fixed right-hand side, shared by the
/// factorization tests.
fn spd_system(n: usize) -> (Matrix, Vector) {
    let w = affinity_matrix(&points(n, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0 + (0..n).map(|k| w.get(i, k)).sum::<f64>()
        } else {
            -w.get(i, j)
        }
    });
    let rhs: Vec<f64> = (0..n)
        .map(|i| (((i * 37 + 5) as f64) * 0.01).sin())
        .collect();
    (a, Vector::from(rhs))
}

#[test]
fn dense_factorizations_are_bit_identical_across_worker_counts() {
    // n = 28 fits inside one 32-column panel; n = 83 spans three, so the
    // blocked trailing updates run too.
    for n in [28, 83] {
        let (a, rhs) = spd_system(n);
        let chol_ref = dense_oracles::cholesky(&a).expect("oracle cholesky");
        let (lu_ref, perm_ref, _) = dense_oracles::lu(&a).expect("oracle lu");
        let chol_solution = column_substitution(&chol_ref, rhs.as_slice());
        let sequential = Cholesky::factor(&a).expect("sequential cholesky");
        assert_eq!(
            chol_ref.as_slice(),
            sequential.lower().as_slice(),
            "n = {n}"
        );
        let sequential = Lu::factor(&a).expect("sequential lu");
        assert_eq!(
            lu_ref.as_slice(),
            sequential.factors().as_slice(),
            "n = {n}"
        );
        for workers in STAGE_WORKER_COUNTS {
            let executor = Executor::with_workers(workers);
            let chol = Cholesky::factor_with(&a, &executor).expect("parallel cholesky");
            assert_eq!(
                chol_ref.as_slice(),
                chol.lower().as_slice(),
                "Cholesky factor diverged at n = {n}, {workers} workers"
            );
            assert_eq!(
                chol_solution.as_slice(),
                chol.solve(&rhs).expect("solve").as_slice(),
                "Cholesky solve diverged at n = {n}, {workers} workers"
            );
            let lu = Lu::factor_with(&a, &executor).expect("parallel lu");
            assert_eq!(
                lu_ref.as_slice(),
                lu.factors().as_slice(),
                "LU factors diverged at n = {n}, {workers} workers"
            );
            assert_eq!(
                perm_ref,
                lu.perm(),
                "LU pivots diverged at n = {n}, {workers} workers"
            );
        }
    }
}

/// The textbook column-at-a-time substitution, kept here as the fixed
/// reference the multi-column kernel must reproduce bit for bit.
fn column_substitution(lower: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = lower.rows();
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= lower.get(i, j) * x[j];
        }
        x[i] = sum / lower.get(i, i);
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for j in i + 1..n {
            sum -= lower.get(j, i) * x[j];
        }
        x[i] = sum / lower.get(i, i);
    }
    x
}

/// The hard-criterion block `D₂₂ − W₂₂` of an Epanechnikov kernel graph
/// with the first `labeled` nodes labeled: the system a serving shard
/// factors and inverts.
fn hard_block(labeled: usize) -> Matrix {
    let pts = points(40, 2);
    let w = affinity_matrix(&pts, Kernel::Epanechnikov, 0.5).expect("affinity");
    let n = w.rows();
    let m = n - labeled;
    Matrix::from_fn(m, m, |a, b| {
        let (i, j) = (labeled + a, labeled + b);
        if a == b {
            (0..n).map(|k| w.get(i, k)).sum::<f64>() - w.get(i, j)
        } else {
            -w.get(i, j)
        }
    })
}

#[test]
fn cholesky_substitution_is_bitwise_the_column_solve() {
    let mut rng = StdRng::seed_from_u64(0xC401);
    let mut systems = vec![hard_block(4), spd_system(23).0];
    for n in [1, 7, 30] {
        let b = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let mut a = b.transpose().matmul(&b).expect("square product");
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64);
        }
        systems.push(a);
    }
    for a in &systems {
        let n = a.rows();
        let reference = Cholesky::factor(a).expect("spd system");
        for workers in WORKER_COUNTS {
            let chol = Cholesky::factor_with(a, &Executor::with_workers(workers)).expect("factor");
            for cols in [1, 3, 9, n] {
                let b = Matrix::from_fn(n, cols, |_, _| rng.gen::<f64>() * 4.0 - 2.0);
                let x = chol.solve_matrix(&b).expect("solve_matrix");
                let again = reference.solve_matrix(&b).expect("solve_matrix");
                assert_eq!(x.as_slice(), again.as_slice(), "n={n} cols={cols}");
                for c in 0..cols {
                    let column = b.col(c);
                    let single = chol.solve(&column).expect("solve");
                    let textbook = column_substitution(chol.lower(), column.as_slice());
                    for i in 0..n {
                        let got = x.get(i, c).to_bits();
                        assert_eq!(got, single[i].to_bits(), "n={n} cols={cols} ({i},{c})");
                        assert_eq!(got, textbook[i].to_bits(), "n={n} cols={cols} ({i},{c})");
                    }
                }
            }
            let inverse = chol.inverse().expect("inverse");
            for c in 0..n {
                let unit = Matrix::identity(n).col(c);
                let textbook = column_substitution(chol.lower(), unit.as_slice());
                for i in 0..n {
                    assert_eq!(
                        inverse.get(i, c).to_bits(),
                        textbook[i].to_bits(),
                        "inverse n={n} ({i},{c}) at {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn solver_policy_backends_are_bit_identical_across_worker_counts() {
    let (a, rhs) = spd_system(26);
    let sparse = CsrMatrix::from_dense(&a, 0.0);
    let policy = SolverPolicy::default();
    let dense_ref = policy
        .factor_dense(&a)
        .and_then(|f| f.solve(&rhs))
        .expect("sequential dense solve");
    let spd_ref = policy
        .factor_spd(&a)
        .and_then(|f| f.solve(&rhs))
        .expect("sequential spd solve");
    let sparse_ref = policy
        .factor_sparse(&sparse)
        .and_then(|f| f.solve(&rhs))
        .expect("sequential sparse solve");
    for workers in WORKER_COUNTS {
        let policy = SolverPolicy::default().with_executor(Executor::with_workers(workers));
        assert_eq!(
            dense_ref.as_slice(),
            policy
                .factor_dense(&a)
                .and_then(|f| f.solve(&rhs))
                .expect("parallel dense solve")
                .as_slice(),
            "factor_dense solve diverged at {workers} workers"
        );
        assert_eq!(
            spd_ref.as_slice(),
            policy
                .factor_spd(&a)
                .and_then(|f| f.solve(&rhs))
                .expect("parallel spd solve")
                .as_slice(),
            "factor_spd solve diverged at {workers} workers"
        );
        assert_eq!(
            sparse_ref.as_slice(),
            policy
                .factor_sparse(&sparse)
                .and_then(|f| f.solve(&rhs))
                .expect("parallel sparse solve")
                .as_slice(),
            "factor_sparse solve diverged at {workers} workers"
        );
    }
}

/// Stored entries from which a CSR matvec shards rows across workers
/// (`PARALLEL_MIN_NNZ` in `crates/linalg/src/sparse.rs`); below it the
/// rows run on the calling thread.
const SHARDING_GATE_NNZ: usize = 1 << 19;

/// The 5-point stencil on a `side × side` grid (diagonal 6, `-1` to in-grid
/// neighbors: the Dirichlet Laplacian shifted by `2 I`, so its condition
/// number stays below 5 and a preconditioned solve takes about ten
/// iterations at any size) and a fixed right-hand side. Side 325 stores
/// 526 825 entries, above the sharding gate.
fn grid_system(side: usize) -> (CsrMatrix, Vector) {
    let n = side * side;
    let mut triplets = Vec::with_capacity(5 * n);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            triplets.push((i, i, 6.0));
            if r > 0 {
                triplets.push((i, i - side, -1.0));
            }
            if r + 1 < side {
                triplets.push((i, i + side, -1.0));
            }
            if c > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if c + 1 < side {
                triplets.push((i, i + 1, -1.0));
            }
        }
    }
    let a = CsrMatrix::from_triplets(n, n, &triplets).expect("grid triplets");
    let rhs = Vector::from_fn(n, |i| (((i * 37 + 5) as f64) * 0.01).sin());
    (a, rhs)
}

/// CG options for the above-gate grid: a loose tolerance stops its solves
/// after a few iterations, each running the sharded matvecs, which keeps
/// the case to a few seconds in a debug build.
fn loose_cg() -> CgOptions {
    CgOptions {
        tolerance: 1e-4,
        ..CgOptions::default()
    }
}

/// Solves `sparse x = rhs` with the PCG backend of `kind` sequentially and
/// at 1/2/4/8 workers, and asserts every solve is bitwise the first.
fn assert_pcg_bit_identical(
    sparse: &CsrMatrix,
    rhs: &Vector,
    kind: PrecondKind,
    options: CgOptions,
) {
    let reference = PrecondCg::factor_sparse_with(sparse, kind.clone(), options.clone())
        .expect("sequential factor")
        .solve(rhs)
        .expect("sequential solve");
    for workers in [1, 2, 4, 8] {
        let parallel = PrecondCg::factor_sparse_with(sparse, kind.clone(), options.clone())
            .expect("parallel factor")
            .with_executor(Executor::with_workers(workers))
            .solve(rhs)
            .expect("parallel solve");
        assert_eq!(
            reference.as_slice(),
            parallel.as_slice(),
            "{kind:?} PCG solve of {} rows diverged at {workers} workers",
            sparse.rows()
        );
    }
}

#[test]
fn preconditioned_cg_backends_are_bit_identical_across_worker_counts() {
    // Every preconditioner family behind PrecondCg shards only the CG
    // matvecs, and only once the matrix stores SHARDING_GATE_NNZ entries;
    // the preconditioner application stays sequential. The solve must
    // therefore be byte-for-byte the sequential result at any worker
    // count, and two independent factorizations must agree bitwise. The
    // small system runs below the gate, the grid above it.
    let (a, rhs) = spd_system(48);
    let sparse = CsrMatrix::from_dense(&a, 0.0);
    for kind in [PrecondKind::Jacobi, PrecondKind::Ic0] {
        assert_pcg_bit_identical(&sparse, &rhs, kind, CgOptions::default());
    }
    // IC(0) alone keeps the above-gate case short in a debug build.
    let (grid, grid_rhs) = grid_system(325);
    assert!(grid.nnz() >= SHARDING_GATE_NNZ);
    assert_pcg_bit_identical(&grid, &grid_rhs, PrecondKind::Ic0, loose_cg());
}

#[test]
fn amg_hierarchy_and_solves_are_bit_identical_across_worker_counts() {
    // Coarsening (heavy-edge matching + Galerkin products) is a pure
    // sequential function of the matrix, so two independent hierarchies
    // must be identical. A solve shards the outer CG matvec and each
    // level's matvec only when that matrix stores SHARDING_GATE_NNZ
    // entries, and everything else in the V-cycle is sequential, so
    // solves must match the sequential run bitwise at any worker count.
    // The small system stays below the gate on every level; the grid's
    // finest level sits above it and its coarser levels below.
    let (a, rhs) = spd_system(96);
    let (grid, grid_rhs) = grid_system(325);
    assert!(grid.nnz() >= SHARDING_GATE_NNZ);
    let grid_options = AmgOptions {
        cg: loose_cg(),
        ..AmgOptions::default()
    };
    for (sparse, rhs, options) in [
        (CsrMatrix::from_dense(&a, 0.0), rhs, AmgOptions::default()),
        (grid, grid_rhs, grid_options),
    ] {
        let reference = AmgCg::factor_sparse(&sparse, options.clone()).expect("factor");
        let twin = AmgCg::factor_sparse(&sparse, options.clone()).expect("refactor");
        assert_eq!(reference.levels(), twin.levels());
        assert_eq!(reference.coarse_dim(), twin.coarse_dim());
        let sequential = reference.solve(&rhs).expect("sequential solve");
        assert_eq!(
            sequential.as_slice(),
            twin.solve(&rhs).expect("twin solve").as_slice(),
            "independent AMG hierarchies solved differently"
        );
        for workers in [1, 2, 4, 8] {
            let parallel = AmgCg::factor_sparse(&sparse, options.clone())
                .expect("parallel factor")
                .with_executor(Executor::with_workers(workers))
                .solve(&rhs)
                .expect("parallel solve");
            assert_eq!(
                sequential.as_slice(),
                parallel.as_slice(),
                "AMG solve of {} rows diverged at {workers} workers",
                sparse.rows()
            );
        }
    }
}

#[test]
fn executor_primitives_are_bit_identical_across_worker_counts() {
    let data: Vec<f64> = (0..97).map(|i| (i as f64) * 0.37).collect();
    let map_ref = Executor::Sequential
        .map(&data, |i, x| {
            Ok::<f64, gssl_runtime::Error>(x.sin() * ((i + 1) as f64).sqrt())
        })
        .expect("sequential map");
    let mut mut_ref = data.clone();
    Executor::Sequential
        .for_each_chunk_mut(&mut mut_ref, 8, |start, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = x.cos() + ((start + k) as f64) * 0.01;
            }
        })
        .expect("sequential chunk mutation");
    for workers in WORKER_COUNTS {
        let executor = Executor::with_workers(workers);
        let mapped = executor
            .map(&data, |i, x| {
                Ok::<f64, gssl_runtime::Error>(x.sin() * ((i + 1) as f64).sqrt())
            })
            .expect("parallel map");
        assert_eq!(
            map_ref, mapped,
            "Executor::map diverged at {workers} workers"
        );
        let mut mutated = data.clone();
        executor
            .for_each_chunk_mut(&mut mutated, 8, |start, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = x.cos() + ((start + k) as f64) * 0.01;
                }
            })
            .expect("parallel chunk mutation");
        assert_eq!(
            mut_ref, mutated,
            "Executor::for_each_chunk_mut diverged at {workers} workers"
        );
    }
}

#[test]
fn full_system_and_factored_fits_are_bit_identical_across_worker_counts() {
    // Soft criterion, full (n + m) system path.
    let problem = fit_problem();
    let full_ref = SoftCriterion::new(0.75)
        .expect("lambda")
        .fit_full_system(&problem)
        .expect("sequential full-system fit");
    for workers in WORKER_COUNTS {
        let parallel = SoftCriterion::new(0.75)
            .expect("lambda")
            .policy(SolverPolicy::default().with_executor(Executor::with_workers(workers)))
            .fit_full_system(&problem)
            .expect("parallel full-system fit");
        assert_eq!(
            full_ref.all(),
            parallel.all(),
            "full-system soft fit diverged at {workers} workers"
        );
    }
    // Factored one-vs-rest (shared factorization through
    // `HardCriterion::fit_multiclass`).
    let weights = affinity_matrix(&points(45, 3), Kernel::Gaussian, 0.6).expect("affinity");
    let class_labels: Vec<usize> = (0..45).map(|i| i % 3).collect();
    let factored_ref = OneVsRest::new(HardCriterion::new(), 3)
        .expect("ovr")
        .fit_factored(&weights, &class_labels)
        .expect("sequential factored fit");
    for workers in WORKER_COUNTS {
        let parallel = OneVsRest::new(HardCriterion::new(), 3)
            .expect("ovr")
            .with_executor(Executor::with_workers(workers))
            .fit_factored(&weights, &class_labels)
            .expect("parallel factored fit");
        assert_eq!(
            factored_ref.scores().as_slice(),
            parallel.scores().as_slice(),
            "factored multiclass fit diverged at {workers} workers"
        );
        assert_eq!(factored_ref.predictions(), parallel.predictions());
    }
}

#[test]
fn multiclass_serving_is_bit_identical_across_worker_counts() {
    let pts = points(42, 2);
    let class_labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
    let queries: Vec<QueryPoint> = (0..23)
        .map(|q| {
            QueryPoint::new(vec![
                (((q * 131 + 17) as f64) * 0.618_033_988_749_894_9).fract(),
                (((q * 131 + 54) as f64) * 0.618_033_988_749_894_9).fract(),
            ])
        })
        .collect();
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Gaussian, 0.5).workers(workers);
        let engine =
            ServingEngine::fit_multiclass(&pts, &class_labels, 3, config).expect("engine fit");
        engine.predict_batch(&queries).expect("batch predict")
    };
    let reference = fit(1);
    for workers in WORKER_COUNTS {
        let parallel = fit(workers);
        assert_eq!(reference.len(), parallel.len());
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            let same = r.per_class.len() == p.per_class.len()
                && r.per_class
                    .iter()
                    .zip(&p.per_class)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "query {i} per-class scores at {workers} workers");
        }
    }
}

#[test]
fn score_argsort_is_deterministic() {
    let scores: Vec<f64> = (0..101)
        .map(|i| (((i * 193 + 7) as f64) * 0.618_033_988_749_894_9).fract() - 0.5)
        .collect();
    let order = argsort_scores(&scores);
    assert_eq!(order, argsort_scores(&scores));
    // A permutation, ascending under the total order.
    let mut seen = vec![false; scores.len()];
    for &i in &order {
        seen[i] = true;
    }
    assert!(seen.iter().all(|&s| s));
    for pair in order.windows(2) {
        assert!(scores[pair[0]].total_cmp(&scores[pair[1]]).is_le());
    }
    // Total on NaN: no panic, NaN sorts after every finite value.
    assert_eq!(argsort_scores(&[0.5, f64::NAN, -1.0]), vec![2, 0, 1]);
}

/// The exhaustive proof backing the `map_chunks` determinism claim: every
/// bounded interleaving of the chunk-claim protocol yields disjoint,
/// exhaustive claims with results published once each — for the same
/// (len, workers, width) grid shapes the library uses (width from
/// `len.div_ceil(workers * 4).max(1)` plus adversarial widths).
#[test]
fn schedule_enumeration_proves_the_map_chunks_claim_protocol() {
    for len in [1usize, 2, 5, 6] {
        for workers in [1usize, 2, 3] {
            let library_width = len.div_ceil(workers.saturating_mul(4)).max(1);
            for width in [library_width, 1, 2, len] {
                let report = sim::enumerate_schedules_with_width(len, workers, width)
                    .unwrap_or_else(|violation| {
                        panic!("len={len} workers={workers} width={width}: {violation}")
                    });
                assert!(report.schedules > 0);
                assert_eq!(report.chunks, len.div_ceil(width));
            }
        }
    }
    // And the production `ThreadPool::map` width selection itself.
    let report = sim::enumerate_schedules(6, 2).expect("map chunk protocol");
    assert!(report.schedules > 0);
}

/// Three interleaved 1-D clusters (node `i` in cluster `i % 3`): a compact
/// kernel disconnects them, so the serving graph has three components with
/// members scattered through the global index space.
fn clustered_points(total: usize) -> Matrix {
    Matrix::from_fn(total, 1, |i, _| {
        let jitter = (((i * 37 + 11) as f64) * 0.618_033_988_749_894_9).fract();
        (i % 3) as f64 * 10.0 + jitter
    })
}

fn cluster_queries(count: usize) -> Vec<QueryPoint> {
    (0..count)
        .map(|q| {
            let jitter = (((q * 53 + 5) as f64) * 0.618_033_988_749_894_9).fract();
            QueryPoint::new(vec![(q % 3) as f64 * 10.0 + jitter])
        })
        .collect()
}

#[test]
fn component_partition_is_deterministic_and_exhaustive() {
    // Block structure with interleaved membership: i ~ j iff i ≡ j (mod 3).
    let n = 17;
    let w = Matrix::from_fn(
        n,
        n,
        |i, j| {
            if i != j && i % 3 == j % 3 {
                1.0
            } else {
                0.0
            }
        },
    );
    let reference = component_partition(&w, 0.0).expect("partition");
    assert_eq!(reference.len(), 3);
    let mut seen = vec![false; n];
    for members in &reference {
        for &v in members {
            assert!(!seen[v], "vertex {v} assigned twice");
            seen[v] = true;
        }
        // Deterministic order contract: members ascend.
        for pair in members.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
    assert!(seen.iter().all(|&s| s), "partition must cover every vertex");
    for _ in 0..3 {
        assert_eq!(reference, component_partition(&w, 0.0).expect("repeat"));
    }
}

/// Two-dimensional clusters on a line, node `i` in cluster `i % 4`, with
/// gaps some kernels bridge and others do not.
fn plane_clusters(total: usize) -> Matrix {
    Matrix::from_fn(total, 2, |i, j| {
        let jitter = (((i * 71 + j * 29 + 3) as f64) * 0.618_033_988_749_894_9).fract();
        if j == 0 {
            (i % 4) as f64 * 2.2 + jitter
        } else {
            jitter
        }
    })
}

#[test]
fn kernel_graph_partition_is_deterministic_and_matches_dense() {
    let pts = plane_clusters(37);
    for kernel in Kernel::all() {
        let h = if kernel == Kernel::Gaussian {
            0.05
        } else {
            1.1
        };
        let graph = KernelGraph::fit(pts.clone(), kernel, h).expect("graph");
        let brute = BruteForce::build(&pts).expect("brute force");
        let reference = graph.component_partition(&brute).expect("partition");
        assert!(reference.len() > 1, "{kernel}: expected a real split");
        let cover = CoverTree::build(&pts).expect("cover tree");
        assert_eq!(reference, graph.component_partition(&cover).expect("cover"));
        for workers in WORKER_COUNTS {
            let executor = Executor::with_workers(workers);
            let dense = graph.weights_with(&executor).expect("weights");
            assert_eq!(
                reference,
                component_partition(&dense, 0.0).expect("dense partition"),
                "{kernel}: dense partition at {workers} workers"
            );
            let index = SpatialIndex::build(&pts).expect("index");
            assert_eq!(
                reference,
                graph.component_partition(&index).expect("partition"),
                "{kernel}: graph partition repeat {workers}"
            );
        }
    }
}

#[test]
fn shard_plan_from_graph_matches_the_dense_plan() {
    let pts = plane_clusters(33);
    for kernel in Kernel::all() {
        let h = if kernel == Kernel::Gaussian {
            0.05
        } else {
            1.1
        };
        let graph = KernelGraph::fit(pts.clone(), kernel, h).expect("graph");
        let index = SpatialIndex::build(&pts).expect("index");
        let reference = ShardPlan::from_graph(&graph, &index, 5).expect("plan");
        for workers in WORKER_COUNTS {
            let executor = Executor::with_workers(workers);
            let dense = graph.weights_with(&executor).expect("weights");
            assert_eq!(
                reference,
                ShardPlan::new(&dense, 5).expect("dense plan"),
                "{kernel}: plans differ at {workers} workers"
            );
            assert_eq!(
                reference,
                ShardPlan::from_graph(&graph, &index, 5).expect("repeat")
            );
        }
    }
}

#[test]
fn map_tasks_is_bit_identical_across_worker_counts() {
    // Deliberately uneven per-task cost so the width-1 claim order is
    // actually contended when the pool runs multi-worker.
    let tasks: Vec<usize> = (0..23).collect();
    let run = |workers: usize| -> Vec<f64> {
        let executor = Executor::with_workers(workers);
        executor
            .map_tasks(&tasks, |index, &t| {
                let mut acc = 0.0_f64;
                for k in 0..(t * 97 + 13) {
                    acc += (((k * 31 + index + 7) as f64) * 0.618_033_988_749_894_9).fract();
                }
                Ok::<f64, gssl_runtime::Error>(acc)
            })
            .expect("map_tasks")
    };
    let reference = run(1);
    for workers in WORKER_COUNTS {
        let parallel = run(workers);
        assert_eq!(reference.len(), parallel.len());
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(
                r.to_bits(),
                p.to_bits(),
                "task {i} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn shard_plan_is_deterministic() {
    let n = 15;
    let w = Matrix::from_fn(
        n,
        n,
        |i, j| {
            if i != j && i % 3 == j % 3 {
                0.5
            } else {
                0.0
            }
        },
    );
    let reference = ShardPlan::new(&w, 3).expect("plan");
    assert_eq!(reference.n_shards(), 3);
    for repeat in 0..3 {
        let plan = ShardPlan::new(&w, 3).expect("plan repeat");
        assert_eq!(plan.n_shards(), reference.n_shards(), "repeat {repeat}");
        for (s, (a, b)) in reference.shards().iter().zip(plan.shards()).enumerate() {
            assert_eq!(a.members(), b.members(), "shard {s} repeat {repeat}");
            assert_eq!(a.n_labeled(), b.n_labeled(), "shard {s} repeat {repeat}");
        }
        for v in 0..n {
            assert_eq!(plan.shard_of(v), reference.shard_of(v));
        }
    }
}

#[test]
fn sharded_serving_is_bit_identical_across_worker_counts() {
    let pts = clustered_points(24);
    let labels = [0.0, 1.0, 0.0];
    let queries = cluster_queries(19);
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(workers);
        ShardedEngine::fit(&pts, &labels, config).expect("sharded fit")
    };
    let reference_engine = fit(1);
    assert_eq!(
        reference_engine.n_shards(),
        3,
        "expected a real decomposition"
    );
    let reference_scores = reference_engine.scores();
    let reference = reference_engine.predict_batch(&queries).expect("predict");
    for workers in [1, 2, 4, 8] {
        let engine = fit(workers);
        assert_eq!(
            reference_scores.as_slice(),
            engine.scores().as_slice(),
            "fitted scores diverged at {workers} workers"
        );
        let parallel = engine.predict_batch(&queries).expect("predict");
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            let same = r.per_class.len() == p.per_class.len()
                && r.per_class
                    .iter()
                    .zip(&p.per_class)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "query {i} per-class scores at {workers} workers");
        }
    }
}

#[test]
fn sharded_multiclass_is_bit_identical_across_worker_counts() {
    let pts = clustered_points(27);
    let class_labels = [0, 1, 2];
    let queries = cluster_queries(13);
    let fit = |workers: usize| {
        let config = EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(workers);
        ShardedEngine::fit_multiclass(&pts, &class_labels, 3, config).expect("sharded fit")
    };
    let reference_engine = fit(1);
    let reference_scores = reference_engine.scores();
    let reference = reference_engine.predict_batch(&queries).expect("predict");
    for workers in [1, 2, 4, 8] {
        let engine = fit(workers);
        assert_eq!(
            reference_scores.as_slice(),
            engine.scores().as_slice(),
            "multiclass scores diverged at {workers} workers"
        );
        let parallel = engine.predict_batch(&queries).expect("predict");
        for (i, (r, p)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(r.class, p.class, "query {i} class at {workers} workers");
            let same = r
                .per_class
                .iter()
                .zip(&p.per_class)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "query {i} per-class at {workers} workers");
        }
    }
}

#[test]
fn snapshot_roundtrip_is_bit_identical() {
    let pts = clustered_points(21);
    let labels = [0.0, 1.0, 1.0];
    let config = EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(2);
    let engine = ShardedEngine::fit(&pts, &labels, config).expect("sharded fit");
    engine.observe_label(9, 0.0).expect("fold");

    // The byte stream itself is deterministic: same state, same bytes.
    let bytes = engine.snapshot().expect("snapshot");
    assert_eq!(bytes, engine.snapshot().expect("second snapshot"));

    // And restore reproduces the fitted state bit for bit, at any
    // subsequent worker count.
    let queries = cluster_queries(11);
    let reference = engine.predict_batch(&queries).expect("predict");
    let restored = ShardedEngine::restore(&bytes).expect("restore");
    assert_eq!(restored.epoch(), engine.epoch());
    assert_eq!(
        engine.scores().as_slice(),
        restored.scores().as_slice(),
        "restored scores are not bitwise-identical"
    );
    let served = restored.predict_batch(&queries).expect("restored predict");
    for (i, (r, p)) in reference.iter().zip(&served).enumerate() {
        assert_eq!(r.class, p.class, "query {i} class after restore");
        let same = r
            .per_class
            .iter()
            .zip(&p.per_class)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "query {i} per-class after restore");
    }
}

/// Pins the `/// deterministic` annotation inventory to the bitwise tests
/// that cover it: every annotated entry point in `crates/*/src` must map
/// to a test defined in this file, and every table row must still point
/// at a live marker. Adding a marker without a covering test fails the
/// first assertion; deleting one leaves a stale row and fails the second.
/// `gssl-xtask` pins the same inventory by count, so the analyzer's
/// contract set and this suite cannot drift apart silently.
#[test]
fn every_deterministic_entry_point_has_a_bitwise_covering_test() {
    // (file, fn, covering test in this file)
    const COVERAGE: &[(&str, &str, &str)] = &[
        (
            "crates/core/src/cmn.rs",
            "argsort_scores",
            "score_argsort_is_deterministic",
        ),
        (
            "crates/core/src/hard.rs",
            "fit",
            "hard_fit_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/hard.rs",
            "fit_multiclass",
            "full_system_and_factored_fits_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/multiclass.rs",
            "fit",
            "multiclass_fit_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/multiclass.rs",
            "fit_factored",
            "full_system_and_factored_fits_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/soft.rs",
            "fit",
            "soft_fit_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/core/src/soft.rs",
            "fit_full_system",
            "full_system_and_factored_fits_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "pairwise_squared_distances",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "pairwise_squared_distances_with",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_matrix",
            "kernel_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_matrix_with",
            "kernel_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_from_distances",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_from_distances_with",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/affinity.rs",
            "affinity_with_rule",
            "distance_and_affinity_pipeline_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "knn_graph",
            "knn_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "knn_graph_with",
            "knn_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "epsilon_graph",
            "epsilon_graph_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/knn.rs",
            "epsilon_graph_with",
            "epsilon_graph_assembly_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "fit",
            "kernel_graph_weights_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "weights",
            "kernel_graph_weights_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "weights_with",
            "kernel_graph_weights_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/extension.rs",
            "component_partition",
            "kernel_graph_partition_is_deterministic_and_matches_dense",
        ),
        (
            "crates/graph/src/extension.rs",
            "kernel_row",
            "out_of_sample_kernel_rows_are_deterministic",
        ),
        (
            "crates/graph/src/extension.rs",
            "kernel_row_into",
            "out_of_sample_kernel_rows_are_deterministic",
        ),
        (
            "crates/index/src/neighbor.rs",
            "build",
            "spatial_index_build_and_batched_queries_are_bit_identical",
        ),
        (
            "crates/index/src/neighbor.rs",
            "k_nearest_excluding",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "k_nearest",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "within_radius",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "query_order",
            "batch_helpers_are_bitwise_the_single_query_loop",
        ),
        (
            "crates/index/src/neighbor.rs",
            "k_nearest_batch",
            "spatial_index_build_and_batched_queries_are_bit_identical",
        ),
        (
            "crates/index/src/neighbor.rs",
            "self_k_nearest_batch",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/index/src/neighbor.rs",
            "self_within_radius_batch",
            "single_query_search_is_deterministic_and_matches_self_batches",
        ),
        (
            "crates/linalg/src/matrix.rs",
            "matmul",
            "matmul_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/matrix.rs",
            "matmul_with",
            "matmul_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/cholesky.rs",
            "factor",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/cholesky.rs",
            "factor_with",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/cholesky.rs",
            "solve_matrix",
            "cholesky_substitution_is_bitwise_the_column_solve",
        ),
        (
            "crates/linalg/src/lu.rs",
            "factor",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/lu.rs",
            "factor_with",
            "dense_factorizations_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/precond.rs",
            "factor",
            "preconditioned_cg_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/amg.rs",
            "factor_sparse",
            "amg_hierarchy_and_solves_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/sparse.rs",
            "matvec_into_with",
            "amg_hierarchy_and_solves_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_sparse_with",
            "preconditioned_cg_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_dense",
            "solver_policy_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_sparse",
            "solver_policy_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/linalg/src/factor.rs",
            "factor_spd",
            "solver_policy_backends_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/runtime/src/executor.rs",
            "map",
            "executor_primitives_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/runtime/src/executor.rs",
            "map_chunks",
            "schedule_enumeration_proves_the_map_chunks_claim_protocol",
        ),
        (
            "crates/runtime/src/executor.rs",
            "for_each_chunk_mut",
            "executor_primitives_are_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/engine.rs",
            "fit",
            "predict_batch_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/engine.rs",
            "fit_multiclass",
            "multiclass_serving_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/graph/src/components.rs",
            "component_partition",
            "component_partition_is_deterministic_and_exhaustive",
        ),
        (
            "crates/runtime/src/executor.rs",
            "map_tasks",
            "map_tasks_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/shard.rs",
            "new",
            "shard_plan_is_deterministic",
        ),
        (
            "crates/serve/src/shard.rs",
            "from_graph",
            "shard_plan_from_graph_matches_the_dense_plan",
        ),
        (
            "crates/serve/src/sharded.rs",
            "fit",
            "sharded_serving_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/sharded.rs",
            "fit_multiclass",
            "sharded_multiclass_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/sharded.rs",
            "predict_batch",
            "sharded_serving_is_bit_identical_across_worker_counts",
        ),
        (
            "crates/serve/src/snapshot.rs",
            "snapshot",
            "snapshot_roundtrip_is_bit_identical",
        ),
        (
            "crates/serve/src/snapshot.rs",
            "restore",
            "snapshot_roundtrip_is_bit_identical",
        ),
    ];

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let marker = "/// deterministic";
    let mut annotated = std::collections::BTreeSet::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("crates tree is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if path
                    .file_name()
                    .is_some_and(|n| n == "fixtures" || n == "target")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source is readable");
                let lines: Vec<&str> = text.lines().collect();
                let rel = path
                    .strip_prefix(root)
                    .expect("path under workspace root")
                    .to_string_lossy()
                    .replace('\\', "/");
                for (i, line) in lines.iter().enumerate() {
                    if line.trim() != marker {
                        continue;
                    }
                    // The annotated item is the next `fn` below the marker
                    // (attributes like `#[must_use]` may sit in between).
                    let name = lines[i + 1..]
                        .iter()
                        .find_map(|l| {
                            let mut tokens = l.split_whitespace();
                            tokens.find(|&t| t == "fn")?;
                            let raw = tokens.next()?;
                            let end = raw.find(|c| c == '(' || c == '<').unwrap_or(raw.len());
                            Some(raw[..end].to_owned())
                        })
                        .unwrap_or_else(|| panic!("{rel}:{}: marker with no fn below", i + 1));
                    annotated.insert((rel.clone(), name));
                }
            }
        }
    }

    let pinned: std::collections::BTreeSet<(String, String)> = COVERAGE
        .iter()
        .map(|&(file, func, _)| (file.to_owned(), func.to_owned()))
        .collect();
    let uncovered: Vec<_> = annotated.difference(&pinned).collect();
    assert!(
        uncovered.is_empty(),
        "annotated entry points with no covering bitwise test: {uncovered:?}"
    );
    let stale: Vec<_> = pinned.difference(&annotated).collect();
    assert!(
        stale.is_empty(),
        "coverage rows whose `/// deterministic` marker is gone: {stale:?}"
    );
    assert_eq!(annotated.len(), 60, "inventory drifted from the pinned 60");

    // Every covering test named above must actually exist in this file.
    let this_file = std::fs::read_to_string(root.join("tests").join("determinism.rs"))
        .expect("own source is readable");
    for &(_, _, test) in COVERAGE {
        assert!(
            this_file.contains(&format!("fn {test}(")),
            "covering test `{test}` is not defined in tests/determinism.rs"
        );
    }
}
