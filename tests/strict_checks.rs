//! Integration tests for the `strict-checks` runtime sanitizer.
//!
//! Only compiled with the feature enabled (`cargo test --features
//! strict-checks`): each test drives a NaN or infinity into a sanitized
//! boundary and asserts it is rejected as [`gssl::Error::NonFiniteValue`]
//! naming that boundary, and that clean inputs still solve exactly as the
//! paper prescribes.

#![cfg(feature = "strict-checks")]

use gssl::{Error, HardCriterion, NadarayaWatson, Problem, SoftCriterion, TransductiveModel};
use gssl_linalg::Matrix;

fn symmetric_with(bad: f64) -> Matrix {
    Matrix::from_rows(&[&[1.0, 0.5, bad], &[0.5, 1.0, 0.4], &[bad, 0.4, 1.0]]).expect("3x3 rows")
}

#[test]
fn nan_weight_rejected_at_problem_construction() {
    let err = Problem::new(symmetric_with(f64::NAN), vec![1.0]).unwrap_err();
    match err {
        Error::NonFiniteValue { context, .. } => {
            assert!(context.contains("Problem::new weights"), "{context}");
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
}

#[test]
fn infinite_weight_rejected_at_problem_construction() {
    let err = Problem::new(symmetric_with(f64::INFINITY), vec![1.0]).unwrap_err();
    assert!(matches!(err, Error::NonFiniteValue { .. }), "{err:?}");
}

#[test]
fn nan_label_rejected_with_position() {
    let err = Problem::new(symmetric_with(0.2), vec![1.0, f64::NAN]).unwrap_err();
    match err {
        Error::NonFiniteValue { context, index } => {
            assert!(context.contains("Problem::new labels"), "{context}");
            assert_eq!(index, 1);
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
}

#[test]
fn linalg_solvers_reject_non_finite_rhs() {
    use gssl_linalg::{Lu, Vector};
    let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).expect("2x2");
    let lu = Lu::factor(&a).expect("nonsingular");
    let err = lu.solve(&Vector::from(vec![1.0, f64::NAN])).unwrap_err();
    assert!(
        matches!(err, gssl_linalg::Error::NonFiniteValue { .. }),
        "{err:?}"
    );
}

/// A 100-node path Laplacian, anchored by `+0.01` on the diagonal, whose
/// edge between nodes 40 and 41 is NaN in both directions. Rows 0 and 99
/// store 2 entries and the rest 3, so the first NaN, `(40, 41)`, is stored
/// entry `2 + 39 * 3 + 2 = 121`.
fn path_laplacian_with_nan_edge() -> gssl_linalg::CsrMatrix {
    let n: usize = 100;
    let mut triplets = Vec::new();
    for i in 0..n {
        let mut degree = 0.0;
        for j in [i.wrapping_sub(1), i + 1] {
            if j < n {
                let w = if i.min(j) == 40 { f64::NAN } else { 1.0 };
                triplets.push((i, j, -w));
                degree += 1.0;
            }
        }
        triplets.push((i, i, degree + 0.01));
    }
    gssl_linalg::CsrMatrix::from_triplets(n, n, &triplets).expect("in-bounds triplets")
}

fn assert_non_finite_at(err: gssl_linalg::Error, want_context: &str) {
    match err {
        gssl_linalg::Error::NonFiniteValue { context, index } => {
            assert_eq!(context, want_context);
            assert_eq!(index, 121, "stored-entry index of the first NaN");
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
}

#[test]
fn sparse_pcg_factor_rejects_a_non_finite_stored_entry() {
    use gssl_linalg::{CgOptions, PrecondCg, PrecondKind};
    let a = path_laplacian_with_nan_edge();
    for kind in [PrecondKind::Jacobi, PrecondKind::Ic0] {
        let err = PrecondCg::factor_sparse_with(&a, kind, CgOptions::default()).unwrap_err();
        assert_non_finite_at(err, "precond_cg.factor input");
    }
}

#[test]
fn amg_factor_rejects_a_non_finite_stored_entry() {
    use gssl_linalg::{AmgCg, AmgOptions};
    let err =
        AmgCg::factor_sparse(&path_laplacian_with_nan_edge(), AmgOptions::default()).unwrap_err();
    assert_non_finite_at(err, "amg.factor input");
}

#[test]
fn solvers_produce_finite_scores_with_checks_active() {
    let problem = Problem::new(symmetric_with(0.2), vec![1.0, 0.0]).expect("valid problem");
    for model in [
        Box::new(HardCriterion::new()) as Box<dyn TransductiveModel>,
        Box::new(SoftCriterion::new(0.5).expect("valid lambda")),
        Box::new(NadarayaWatson::new()),
    ] {
        let scores = model.fit(&problem).expect("clean solve");
        assert!(scores.all().iter().all(|s| s.is_finite()));
    }
}

/// The paper's toy sanity example: when every pairwise similarity is
/// identical, the hard criterion scores every unlabeled vertex at the mean
/// of the observed labels — and does so with the sanitizer active.
#[test]
fn toy_identical_inputs_score_at_label_mean() {
    let n = 4; // labeled
    let m = 3; // unlabeled
    let total = n + m;
    let w = Matrix::from_fn(total, total, |_, _| 1.0);
    let labels = vec![0.2, 0.4, 0.6, 1.2];
    let mean = labels.iter().sum::<f64>() / labels.len() as f64;

    let problem = Problem::new(w, labels).expect("valid problem");
    let hard = HardCriterion::new().fit(&problem).expect("solvable");
    for &score in hard.unlabeled() {
        assert!((score - mean).abs() < 1e-10, "{score} vs mean {mean}");
    }
    // Nadaraya–Watson degenerates to the same mean on identical weights.
    let nw = NadarayaWatson::new().fit(&problem).expect("solvable");
    for &score in nw.unlabeled() {
        assert!((score - mean).abs() < 1e-10, "{score} vs mean {mean}");
    }
}
