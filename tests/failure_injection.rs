//! Failure-injection tests: malformed inputs must surface as typed
//! errors at the public API boundary, never as panics or silent garbage.

#![allow(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{Criterion, GsslModel, HardCriterion, Problem, SoftCriterion};
use gssl_graph::{Bandwidth, Kernel};
use gssl_linalg::Matrix;
use gssl_runtime::Executor;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn line_points() -> Matrix {
    Matrix::from_rows(&[&[0.0], &[1.0], &[0.5]]).unwrap()
}

#[test]
fn nan_weights_are_rejected() {
    let mut w = Matrix::filled(3, 3, 0.5);
    w.set(0, 1, f64::NAN);
    w.set(1, 0, f64::NAN);
    // Plain builds report the generic constructor error; with
    // `strict-checks` the sanitizer pinpoints the element instead.
    assert!(matches!(
        Problem::new(w, vec![1.0]),
        Err(gssl::Error::InvalidProblem { .. } | gssl::Error::NonFiniteValue { .. })
    ));
}

#[test]
fn infinite_and_nan_labels_are_rejected() {
    let w = Matrix::filled(3, 3, 0.5);
    assert!(Problem::new(w.clone(), vec![f64::INFINITY]).is_err());
    assert!(Problem::new(w, vec![f64::NAN]).is_err());
}

#[test]
fn negative_weights_are_rejected() {
    let mut w = Matrix::filled(3, 3, 0.5);
    w.set(1, 2, -0.1);
    w.set(2, 1, -0.1);
    assert!(Problem::new(w, vec![1.0]).is_err());
}

#[test]
fn asymmetric_weights_are_rejected() {
    let mut w = Matrix::filled(3, 3, 0.5);
    w.set(0, 2, 0.9); // symmetric partner left at 0.5
    assert!(Problem::new(w, vec![1.0]).is_err());
}

#[test]
fn zero_bandwidth_fails_through_the_facade() {
    let mut builder = GsslModel::builder();
    builder.bandwidth(Bandwidth::Fixed(0.0));
    assert!(builder.fit(&line_points(), &[0.0, 1.0]).is_err());
    let mut builder = GsslModel::builder();
    builder.bandwidth(Bandwidth::Fixed(-1.0));
    assert!(builder.fit(&line_points(), &[0.0, 1.0]).is_err());
}

#[test]
fn degenerate_data_fails_median_heuristic_cleanly() {
    // All points identical: the median pairwise distance is 0 and the
    // rule must refuse rather than divide by zero.
    let points = Matrix::filled(4, 2, 0.7);
    let mut builder = GsslModel::builder();
    builder.bandwidth(Bandwidth::MedianHeuristic);
    let result = builder.fit(&points, &[0.0, 1.0]);
    assert!(result.is_err());
}

#[test]
fn unanchored_components_surface_by_name() {
    // A compact kernel strands the far point; the error identifies it.
    let points = Matrix::from_rows(&[&[0.0], &[0.5], &[100.0]]).unwrap();
    let mut builder = GsslModel::builder();
    builder
        .kernel(Kernel::Boxcar)
        .bandwidth(Bandwidth::Fixed(1.0))
        .criterion(Criterion::Hard);
    match builder.fit(&points, &[0.0, 1.0]) {
        Err(gssl::Error::UnanchoredUnlabeled { unlabeled_index }) => {
            assert_eq!(unlabeled_index, 0);
        }
        other => panic!("expected UnanchoredUnlabeled, got {other:?}"),
    }
}

#[test]
fn extreme_lambda_values_stay_finite() {
    let points = Matrix::from_rows(&[&[0.0], &[1.0], &[0.3], &[0.7]]).unwrap();
    let problem = Problem::from_points(&points, vec![0.0, 1.0], Kernel::Gaussian, 0.6).unwrap();
    for &lambda in &[1e-300, 1e-12, 1e6, 1e12] {
        let scores = SoftCriterion::new(lambda)
            .unwrap()
            .fit(&problem)
            .unwrap_or_else(|e| panic!("lambda {lambda} failed: {e}"));
        for &s in scores.all() {
            assert!(s.is_finite(), "lambda {lambda} produced {s}");
        }
    }
}

#[test]
fn huge_label_magnitudes_survive() {
    let points = Matrix::from_rows(&[&[0.0], &[1.0], &[0.5]]).unwrap();
    let problem = Problem::from_points(&points, vec![-1e9, 1e9], Kernel::Gaussian, 0.6).unwrap();
    let scores = HardCriterion::new().fit(&problem).unwrap();
    let s = scores.unlabeled()[0];
    assert!(s.is_finite());
    assert!((-1e9..=1e9).contains(&s), "maximum principle violated: {s}");
}

#[test]
fn empty_label_slice_is_rejected_everywhere() {
    let w = Matrix::filled(2, 2, 1.0);
    assert!(Problem::new(w, vec![]).is_err());
    let mut builder = GsslModel::builder();
    builder.bandwidth(Bandwidth::Fixed(1.0));
    assert!(builder.fit(&line_points(), &[]).is_err());
}

#[test]
fn errors_format_without_panicking() {
    // Every public error variant must Display.
    let errors: Vec<gssl::Error> = vec![
        gssl::Error::InvalidProblem {
            message: "test".into(),
        },
        gssl::Error::UnanchoredUnlabeled { unlabeled_index: 7 },
        gssl::Error::InvalidParameter {
            message: "test".into(),
        },
        gssl::Error::ZeroKernelMass { unlabeled_index: 2 },
        gssl::Error::Linalg(gssl_linalg::Error::Singular { pivot: 1 }),
        gssl::Error::Graph(gssl_graph::Error::InvalidBandwidth { value: -1.0 }),
    ];
    for e in errors {
        assert!(!e.to_string().is_empty());
    }
}

/// A panic inside any of the four `Executor` primitives reaches the caller
/// as a panic — never as an `Ok` with a missing slot — whether the batch
/// ran on the calling thread (one worker) or on scoped workers, and the
/// same executor then returns the right answer.
#[test]
fn worker_panics_reach_the_caller_and_leave_the_executor_usable() {
    type Outcome = Result<Vec<u64>, gssl_runtime::Error>;
    let items: Vec<u64> = (0..64).collect();
    let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
    // Item 37 sits in a middle range at every claim width used below, so
    // other ranges are still pending or in flight when it panics.
    let square = |poisoned: bool| {
        move |i: usize, x: &u64| {
            assert!(!(poisoned && i == 37), "injected panic at item {i}");
            Ok::<u64, gssl_runtime::Error>(x * x + 1)
        }
    };
    for workers in [1, 2, 4] {
        let executor = Executor::pool(workers).unwrap();
        let check = |name: &str, run: &dyn Fn(bool) -> Outcome| {
            let caught = catch_unwind(AssertUnwindSafe(|| run(true)));
            assert!(
                caught.is_err(),
                "{name} at {workers} workers swallowed the panic: {caught:?}"
            );
            assert_eq!(
                run(false).unwrap(),
                expected,
                "{name} at {workers} workers after a panic"
            );
        };
        check("map", &|poisoned| executor.map(&items, square(poisoned)));
        check("map_tasks", &|poisoned| {
            executor.map_tasks(&items, square(poisoned))
        });
        check("map_chunks", &|poisoned| {
            executor.map_chunks(items.len(), 5, |range| {
                range.map(|i| square(poisoned)(i, &items[i])).collect()
            })
        });
        check("for_each_chunk_mut", &|poisoned| {
            let mut out = items.clone();
            executor.for_each_chunk_mut(&mut out, 5, |start, chunk| {
                for (offset, value) in chunk.iter_mut().enumerate() {
                    *value = square(poisoned)(start + offset, value).unwrap();
                }
            })?;
            Ok(out)
        });
    }
}
