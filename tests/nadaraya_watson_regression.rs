//! The regression (continuous-response) path end to end: Nadaraya–Watson
//! and the hard criterion on the sinusoidal dataset, with consistency
//! (error shrinking in n) checked for both.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{kernel_regression, HardCriterion, Problem};
use gssl_datasets::synthetic::sinusoidal_regression;
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn average_errors(n: usize, reps: u64) -> (f64, f64) {
    let m = 20;
    let mut nw_total = 0.0;
    let mut hard_total = 0.0;
    for seed in 0..reps {
        let mut rng = StdRng::seed_from_u64(31_000 + seed);
        let ds = sinusoidal_regression(n + m, 0.2, &mut rng).expect("generation");
        let ssl = ds.arrange_prefix(n).expect("arrangement");
        let truth = ssl.hidden_truth.as_ref().expect("synthetic truth");
        let h = paper_rate(n, 1).expect("rate");

        let nw = kernel_regression(&ssl.inputs, &ssl.labels, Kernel::Gaussian, h)
            .expect("kernel regression");
        nw_total += rmse(truth, &nw).expect("rmse");

        let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
        let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
        let hard = HardCriterion::new().fit(&problem).expect("hard fit");
        hard_total += rmse(truth, hard.unlabeled()).expect("rmse");
    }
    (nw_total / reps as f64, hard_total / reps as f64)
}

#[test]
fn both_estimators_improve_with_more_labels() {
    let (nw_small, hard_small) = average_errors(30, 8);
    let (nw_large, hard_large) = average_errors(400, 8);
    assert!(
        nw_large < nw_small,
        "NW RMSE should shrink: {nw_small} -> {nw_large}"
    );
    assert!(
        hard_large < hard_small,
        "hard RMSE should shrink: {hard_small} -> {hard_large}"
    );
}

#[test]
fn regression_scores_stay_in_label_range() {
    let mut rng = StdRng::seed_from_u64(77);
    let ds = sinusoidal_regression(150, 0.1, &mut rng).expect("generation");
    let ssl = ds.arrange_prefix(120).expect("arrangement");
    let h = paper_rate(120, 1).expect("rate");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
    let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
    let scores = HardCriterion::new().fit(&problem).expect("fit");
    let lo = ssl.labels.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ssl.labels.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for &s in scores.unlabeled() {
        assert!(
            s >= lo - 1e-9 && s <= hi + 1e-9,
            "maximum principle violated"
        );
    }
}

#[test]
fn hard_criterion_approximates_the_sine_at_large_n() {
    let (_, hard) = average_errors(500, 5);
    assert!(hard < 0.2, "expected decent sine recovery, RMSE {hard}");
}
