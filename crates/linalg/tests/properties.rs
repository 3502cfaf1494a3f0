//! Property-style tests for the linear-algebra substrate.
//!
//! Originally written against `proptest`; the workspace is now fully
//! offline and dependency-free, so each property is exercised over a
//! deterministic sweep of seeded random cases instead of a shrinking
//! strategy. Seeds are fixed, so failures are exactly reproducible.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl_linalg::{
    symmetric_eigen, BlockPartition, CgOptions, Cholesky, CsrMatrix, EigenOptions, Factorization,
    Lu, Matrix, PrecondCg, Vector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 6;
const CASES: u64 = 32;

/// A square matrix with entries in [-1, 1].
fn square_matrix(n: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
}

/// A vector with entries in [-1, 1].
fn vector(n: usize, rng: &mut StdRng) -> Vector {
    Vector::from_fn(n, |_| rng.gen::<f64>() * 2.0 - 1.0)
}

/// A strictly diagonally dominant SPD matrix `BᵀB + n·I`.
fn spd_matrix(n: usize, rng: &mut StdRng) -> Matrix {
    let b = square_matrix(n, rng);
    let bt_b = b.transpose().matmul(&b).expect("square product");
    let mut shift = Matrix::identity(n);
    shift.scale(n as f64);
    &bt_b + &shift
}

/// Runs `body` once per seeded case.
fn for_cases(mut body: impl FnMut(&mut StdRng)) {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x11A1 + seed);
        body(&mut rng);
    }
}

#[test]
fn transpose_is_involution() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn matmul_identity_is_noop() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        let i = Matrix::identity(DIM);
        assert!(a.matmul(&i).unwrap().approx_eq(&a, 1e-14));
        assert!(i.matmul(&a).unwrap().approx_eq(&a, 1e-14));
    });
}

#[test]
fn matmul_transpose_identity() {
    for_cases(|rng| {
        // (A B)ᵀ = Bᵀ Aᵀ
        let a = square_matrix(DIM, rng);
        let b = square_matrix(DIM, rng);
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(left.approx_eq(&right, 1e-12));
    });
}

#[test]
fn matvec_is_linear() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        let x = vector(DIM, rng);
        let y = vector(DIM, rng);
        let sum = &x + &y;
        let lhs = a.matvec(&sum).unwrap();
        let rhs = &a.matvec(&x).unwrap() + &a.matvec(&y).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-12));
    });
}

#[test]
fn dot_is_symmetric_and_cauchy_schwarz() {
    for_cases(|rng| {
        let x = vector(DIM, rng);
        let y = vector(DIM, rng);
        let xy = x.dot(&y).unwrap();
        let yx = y.dot(&x).unwrap();
        assert!((xy - yx).abs() < 1e-14);
        assert!(xy.abs() <= x.norm_l2() * y.norm_l2() + 1e-12);
    });
}

#[test]
fn triangle_inequality() {
    for_cases(|rng| {
        let x = vector(DIM, rng);
        let y = vector(DIM, rng);
        assert!((&x + &y).norm_l2() <= x.norm_l2() + y.norm_l2() + 1e-12);
        assert!((&x + &y).norm_l1() <= x.norm_l1() + y.norm_l1() + 1e-12);
        assert!((&x + &y).norm_max() <= x.norm_max() + y.norm_max() + 1e-12);
    });
}

#[test]
fn lu_solve_roundtrip() {
    for_cases(|rng| {
        let a = spd_matrix(DIM, rng);
        let b = vector(DIM, rng);
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-8));
    });
}

#[test]
fn lu_det_of_product() {
    for_cases(|rng| {
        // det(AB) = det(A) det(B), all dets here are >= n^n > 0.
        let a = spd_matrix(DIM, rng);
        let b = spd_matrix(DIM, rng);
        let da = Lu::factor(&a).unwrap().det();
        let db = Lu::factor(&b).unwrap().det();
        let dab = Lu::factor(&a.matmul(&b).unwrap()).unwrap().det();
        assert!((dab - da * db).abs() <= 1e-8 * dab.abs().max(1.0));
    });
}

#[test]
fn cholesky_reconstructs_and_solves() {
    for_cases(|rng| {
        let a = spd_matrix(DIM, rng);
        let b = vector(DIM, rng);
        let chol = Cholesky::factor(&a).unwrap();
        let l = chol.lower();
        assert!(l.matmul(&l.transpose()).unwrap().approx_eq(&a, 1e-10));
        let x = chol.solve(&b).unwrap();
        assert!(a.matvec(&x).unwrap().approx_eq(&b, 1e-8));
    });
}

#[test]
fn all_direct_and_iterative_solvers_agree() {
    for_cases(|rng| {
        let a = spd_matrix(DIM, rng);
        let b = vector(DIM, rng);
        let lu = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let chol = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let cg = PrecondCg::factor_sparse(CsrMatrix::from_dense(&a, 0.0), CgOptions::default())
            .unwrap()
            .solve(&b)
            .unwrap();
        assert!(lu.approx_eq(&chol, 1e-8));
        assert!(lu.approx_eq(&cg, 1e-6));
    });
}

#[test]
fn csr_matvec_matches_dense() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        let x = vector(DIM, rng);
        let sparse = CsrMatrix::from_dense(&a, 0.0);
        let dense_out = a.matvec(&x).unwrap();
        let sparse_out = sparse.matvec(x.as_slice());
        assert!(Vector::from(sparse_out).approx_eq(&dense_out, 1e-13));
    });
}

#[test]
fn csr_dense_roundtrip() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        let sparse = CsrMatrix::from_dense(&a, 0.0);
        assert!(sparse.to_dense().approx_eq(&a, 0.0));
        assert!(sparse.transpose().to_dense().approx_eq(&a.transpose(), 0.0));
    });
}

#[test]
fn csr_from_triplets_matches_dense_accumulation() {
    for_cases(|rng| {
        // Reference semantics: duplicates sum, zeros drop.
        let count = rng.gen_range(0..40usize);
        let triplets: Vec<(usize, usize, f64)> = (0..count)
            .map(|_| {
                (
                    rng.gen_range(0..DIM),
                    rng.gen_range(0..DIM),
                    rng.gen::<f64>() * 4.0 - 2.0,
                )
            })
            .collect();
        let mut dense = Matrix::zeros(DIM, DIM);
        for &(r, c, v) in &triplets {
            dense.set(r, c, dense.get(r, c) + v);
        }
        let sparse = CsrMatrix::from_triplets(DIM, DIM, &triplets).unwrap();
        for i in 0..DIM {
            for j in 0..DIM {
                assert!(
                    (sparse.get(i, j) - dense.get(i, j)).abs() < 1e-12,
                    "entry ({i}, {j}): {} vs {}",
                    sparse.get(i, j),
                    dense.get(i, j)
                );
            }
        }
        // matvec agrees too.
        let x = Vector::ones(DIM);
        let dense_out = dense.matvec(&x).unwrap();
        let sparse_out = Vector::from(sparse.matvec(x.as_slice()));
        assert!(sparse_out.approx_eq(&dense_out, 1e-12));
    });
}

#[test]
fn block_partition_roundtrip() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        let split = rng.gen_range(0..DIM + 1);
        let blocks = BlockPartition::split(&a, split).unwrap();
        assert_eq!(blocks.assemble().unwrap(), a);
    });
}

#[test]
fn spd_matrices_pass_positive_definite_check() {
    for_cases(|rng| {
        let a = spd_matrix(DIM, rng);
        assert!(gssl_linalg::is_positive_definite(&a));
    });
}

#[test]
fn inverse_is_two_sided() {
    for_cases(|rng| {
        let a = spd_matrix(DIM, rng);
        let inv = gssl_linalg::inverse(&a).unwrap();
        let i = Matrix::identity(DIM);
        assert!(a.matmul(&inv).unwrap().approx_eq(&i, 1e-8));
        assert!(inv.matmul(&a).unwrap().approx_eq(&i, 1e-8));
    });
}

#[test]
fn eigendecomposition_reconstructs_symmetric_matrices() {
    for_cases(|rng| {
        let b = square_matrix(DIM, rng);
        let a = &b + &b.transpose();
        let eig = symmetric_eigen(&a, &EigenOptions::default()).unwrap();
        // A = V Λ Vᵀ.
        let v = eig.eigenvectors();
        let lambda = Matrix::from_diag(eig.eigenvalues().as_slice());
        let back = v.matmul(&lambda).unwrap().matmul(&v.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
        // Orthonormal eigenvectors and ascending eigenvalues.
        let vtv = v.transpose().matmul(v).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(DIM), 1e-9));
        for pair in eig.eigenvalues().as_slice().windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
        // Trace identity.
        let trace_gap = (eig.eigenvalues().sum() - a.trace().unwrap()).abs();
        assert!(trace_gap < 1e-9);
    });
}

#[test]
fn spd_matrices_have_positive_spectra() {
    for_cases(|rng| {
        let a = spd_matrix(DIM, rng);
        let eig = symmetric_eigen(&a, &EigenOptions::default()).unwrap();
        for v in eig.eigenvalues().iter() {
            assert!(v > 0.0, "SPD matrix produced eigenvalue {v}");
        }
    });
}

#[test]
fn row_sums_equal_matvec_with_ones() {
    for_cases(|rng| {
        let a = square_matrix(DIM, rng);
        let ones = Vector::ones(DIM);
        assert!(a.row_sums().approx_eq(&a.matvec(&ones).unwrap(), 1e-13));
    });
}
