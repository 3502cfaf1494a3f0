//! Timings of the linear-algebra substrate: factorizations, solves and
//! products at the sizes the criteria actually use.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gssl_linalg::{CgOptions, Cholesky, CsrMatrix, Factorization, Lu, Matrix, PrecondCg, Vector};

/// A well-conditioned SPD matrix shaped like a hard-criterion system.
fn spd_system(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0 + (n as f64) * 0.01
        } else {
            let d = i.abs_diff(j) as f64;
            (-d * d / (n as f64)).exp() * 0.5
        }
    })
}

fn bench_factorizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorization");
    group.sample_size(10);
    for &n in &[50usize, 100, 200] {
        let a = spd_system(n);
        group.bench_with_input(BenchmarkId::new("lu", n), &a, |b, a| {
            b.iter(|| Lu::factor(a).expect("nonsingular"));
        });
        group.bench_with_input(BenchmarkId::new("cholesky", n), &a, |b, a| {
            b.iter(|| Cholesky::factor(a).expect("spd"));
        });
    }
    group.finish();
}

fn bench_solves(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_200");
    group.sample_size(10);
    let n = 200;
    let a = spd_system(n);
    let rhs = Vector::from_fn(n, |i| (i as f64 * 0.37).sin());
    let lu = Lu::factor(&a).expect("nonsingular");
    let chol = Cholesky::factor(&a).expect("spd");
    group.bench_function("lu_backsolve", |b| {
        b.iter(|| lu.solve(&rhs).expect("solve"));
    });
    group.bench_function("cholesky_backsolve", |b| {
        b.iter(|| chol.solve(&rhs).expect("solve"));
    });
    let cg = PrecondCg::factor_sparse(&CsrMatrix::from_dense(&a, 0.0), CgOptions::default())
        .expect("positive diagonal");
    group.bench_function("jacobi_pcg", |b| {
        b.iter(|| cg.solve(&rhs).expect("cg"));
    });
    group.finish();
}

fn bench_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("products");
    group.sample_size(10);
    for &n in &[100usize, 200] {
        let a = spd_system(n);
        let x = Vector::from_fn(n, |i| i as f64);
        group.bench_with_input(BenchmarkId::new("matmul", n), &a, |b, a| {
            b.iter(|| a.matmul(a).expect("conformal"));
        });
        group.bench_with_input(BenchmarkId::new("matvec", n), &a, |b, a| {
            b.iter(|| a.matvec(&x).expect("conformal"));
        });
        let sparse = CsrMatrix::from_dense(&a.map(|v| if v > 0.4 { v } else { 0.0 }), 0.0);
        group.bench_with_input(BenchmarkId::new("csr_matvec", n), &sparse, |b, sparse| {
            b.iter(|| sparse.matvec(x.as_slice()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_factorizations, bench_solves, bench_products);
criterion_main!(benches);
