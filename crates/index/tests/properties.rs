//! The oracle property: every tree backend must return *exactly* the
//! brute-force neighbor set — same indices, bitwise-equal distances,
//! canonical `(dist2, index)` order — on seeded random point clouds
//! across low, medium and high dimension.
//!
//! Seeds are fixed, so a failure is exactly reproducible; clouds mix
//! continuous coordinates with snapped-to-grid ones so distance ties
//! (the hardest case for deterministic tie-breaking) actually occur.

use gssl_index::{
    k_nearest_batch, self_k_nearest_batch, self_within_radius_batch, BruteForce, CoverTree, KdTree,
    Neighbor, NeighborSearch, SpatialIndex,
};
use gssl_linalg::Matrix;
use gssl_runtime::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 12;
const DIMS: [usize; 3] = [1, 2, 8];

/// Runs `body` once per (seed, dimension) pair.
fn for_cases(mut body: impl FnMut(&mut StdRng, usize)) {
    for &d in &DIMS {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(0x1D1CE5 + seed * 131 + d as u64);
            body(&mut rng, d);
        }
    }
}

/// A cloud with deliberate duplicate coordinates: half the points snap
/// to a coarse grid so equidistant neighbors (ties) are common.
fn tied_cloud(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |i, _| {
        let x: f64 = rng.gen_range(-2.0..2.0);
        if i % 2 == 0 {
            (x * 2.0).round() / 2.0
        } else {
            x
        }
    })
}

fn assert_same(a: &[Neighbor], b: &[Neighbor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: result lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{what}: neighbor ids diverge");
        assert_eq!(
            x.dist2.to_bits(),
            y.dist2.to_bits(),
            "{what}: distances are not bitwise equal"
        );
    }
}

#[test]
fn kd_and_cover_knn_match_the_brute_force_oracle() {
    for_cases(|rng, d| {
        let n = rng.gen_range(20_i64..120) as usize;
        let pts = tied_cloud(rng, n, d);
        let brute = BruteForce::build(&pts).expect("brute build");
        let kd = KdTree::build(&pts).expect("kd build");
        let cover = CoverTree::build(&pts).expect("cover build");
        let k = rng.gen_range(1.0..(n.min(12) as f64)) as usize;
        for qi in 0..12 {
            let q: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.2..2.2)).collect();
            let expect = brute.k_nearest(&q, k).expect("oracle query");
            assert_same(
                &kd.k_nearest(&q, k).expect("kd query"),
                &expect,
                &format!("kd d={d} q={qi}"),
            );
            assert_same(
                &cover.k_nearest(&q, k).expect("cover query"),
                &expect,
                &format!("cover d={d} q={qi}"),
            );
        }
    });
}

#[test]
fn self_excluding_knn_matches_the_oracle() {
    for_cases(|rng, d| {
        let n = rng.gen_range(20_i64..80) as usize;
        let pts = tied_cloud(rng, n, d);
        let brute = BruteForce::build(&pts).expect("brute build");
        let idx = SpatialIndex::build(&pts).expect("auto build");
        let k = rng.gen_range(1.0..(n.min(9) as f64)) as usize;
        for i in 0..n {
            let expect = brute
                .k_nearest_excluding(brute.point(i), k, Some(i))
                .expect("oracle self query");
            let got = idx
                .k_nearest_excluding(idx.point(i), k, Some(i))
                .expect("tree self query");
            assert!(
                got.iter().all(|nb| nb.index != i),
                "self id must be excluded"
            );
            assert_same(&got, &expect, &format!("self d={d} i={i}"));
        }
    });
}

#[test]
fn within_radius_matches_the_oracle() {
    for_cases(|rng, d| {
        let n = rng.gen_range(20_i64..100) as usize;
        let pts = tied_cloud(rng, n, d);
        let brute = BruteForce::build(&pts).expect("brute build");
        let kd = KdTree::build(&pts).expect("kd build");
        let cover = CoverTree::build(&pts).expect("cover build");
        for qi in 0..8 {
            let q: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.2..2.2)).collect();
            let r = rng.gen_range(0.0..2.5);
            let expect = brute.within_radius(&q, r).expect("oracle range");
            assert_same(
                &kd.within_radius(&q, r).expect("kd range"),
                &expect,
                &format!("kd range d={d} q={qi}"),
            );
            assert_same(
                &cover.within_radius(&q, r).expect("cover range"),
                &expect,
                &format!("cover range d={d} q={qi}"),
            );
        }
    });
}

#[test]
fn inserted_points_keep_the_oracle_property() {
    for_cases(|rng, d| {
        let n = rng.gen_range(16_i64..48) as usize;
        let pts = tied_cloud(rng, n, d);
        let mut brute = BruteForce::build(&pts).expect("brute build");
        let mut kd = KdTree::build(&pts).expect("kd build");
        let mut cover = CoverTree::build(&pts).expect("cover build");
        for _ in 0..n {
            let p: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.5..2.5)).collect();
            let id = brute.insert(&p).expect("brute insert");
            assert_eq!(kd.insert(&p).expect("kd insert"), id);
            assert_eq!(cover.insert(&p).expect("cover insert"), id);
        }
        let k = rng.gen_range(1.0..9.0) as usize;
        for qi in 0..6 {
            let q: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.5..2.5)).collect();
            let expect = brute.k_nearest(&q, k).expect("oracle query");
            assert_same(
                &kd.k_nearest(&q, k).expect("kd query"),
                &expect,
                &format!("kd post-insert d={d} q={qi}"),
            );
            assert_same(
                &cover.k_nearest(&q, k).expect("cover query"),
                &expect,
                &format!("cover post-insert d={d} q={qi}"),
            );
        }
    });
}

#[test]
fn batched_queries_are_bit_identical_across_worker_counts() {
    for_cases(|rng, d| {
        let n = rng.gen_range(30_i64..90) as usize;
        let pts = tied_cloud(rng, n, d);
        let idx = SpatialIndex::build(&pts).expect("auto build");
        let queries = tied_cloud(rng, 25, d);
        let k = rng.gen_range(1.0..7.0) as usize;
        let r = rng.gen_range(0.2..1.5);
        let seq = Executor::Sequential;
        let knn_ref = k_nearest_batch(&idx, &queries, k, &seq).expect("seq batch");
        let self_ref = self_k_nearest_batch(&idx, k, &seq).expect("seq self batch");
        let range_ref = self_within_radius_batch(&idx, r, &seq).expect("seq range batch");
        assert_eq!(knn_ref.len(), queries.rows(), "seq batch rows d={d}");
        assert_eq!(self_ref.len(), n, "seq self rows d={d}");
        assert_eq!(range_ref.len(), n, "seq range rows d={d}");
        for workers in [2, 4] {
            let ex = Executor::with_workers(workers);
            let knn = k_nearest_batch(&idx, &queries, k, &ex).expect("par batch");
            let selfs = self_k_nearest_batch(&idx, k, &ex).expect("par self batch");
            let ranges = self_within_radius_batch(&idx, r, &ex).expect("par range batch");
            // Row counts first: zipping alone would pass a batch that
            // dropped rows.
            assert_eq!(knn.len(), knn_ref.len(), "batch rows d={d} w={workers}");
            assert_eq!(selfs.len(), self_ref.len(), "self rows d={d} w={workers}");
            assert_eq!(
                ranges.len(),
                range_ref.len(),
                "range rows d={d} w={workers}"
            );
            for (a, b) in knn_ref.rows().zip(knn.rows()) {
                assert_same(a, b, &format!("batch d={d} w={workers}"));
            }
            for (a, b) in self_ref.rows().zip(selfs.rows()) {
                assert_same(a, b, &format!("self batch d={d} w={workers}"));
            }
            for (a, b) in range_ref.rows().zip(ranges.rows()) {
                assert_same(a, b, &format!("range batch d={d} w={workers}"));
            }
        }
    });
}
