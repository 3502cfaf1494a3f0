//! End-to-end checks of Proposition II.1 (soft → hard as λ → 0) and
//! Proposition II.2 (soft → labeled mean as λ → ∞) on realistic data.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{HardCriterion, MeanPredictor, Problem, SoftCriterion};
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model1_problem(n: usize, m: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng).expect("generation");
    let ssl = ds.arrange_prefix(n).expect("arrangement");
    let h = paper_rate(n, PAPER_DIM).expect("rate");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
    Problem::new(w, ssl.labels.clone()).expect("valid problem")
}

fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn soft_converges_to_hard_as_lambda_vanishes() {
    let problem = model1_problem(80, 25, 11);
    let hard = HardCriterion::new().fit(&problem).expect("hard fit");
    let mut previous = f64::INFINITY;
    for &lambda in &[1.0, 0.1, 0.01, 0.001, 0.0001] {
        let soft = SoftCriterion::new(lambda)
            .expect("valid lambda")
            .fit(&problem)
            .expect("soft fit");
        let gap = max_gap(soft.unlabeled(), hard.unlabeled());
        assert!(gap < previous, "gap failed to shrink at lambda {lambda}");
        previous = gap;
    }
    assert!(previous < 1e-3, "soft(1e-4) still {previous} from hard");
}

#[test]
fn soft_at_zero_is_exactly_hard() {
    let problem = model1_problem(60, 20, 5);
    let hard = HardCriterion::new().fit(&problem).expect("hard fit");
    let soft0 = SoftCriterion::new(0.0)
        .expect("valid lambda")
        .fit(&problem)
        .expect("soft fit");
    assert!(max_gap(soft0.all(), hard.all()) < 1e-9);
}

#[test]
fn soft_converges_to_labeled_mean_as_lambda_explodes() {
    let problem = model1_problem(50, 20, 23);
    let mean = MeanPredictor::new().fit(&problem).expect("mean fit");
    let mut previous = f64::INFINITY;
    for &lambda in &[1.0, 10.0, 100.0, 1000.0, 10_000.0] {
        let soft = SoftCriterion::new(lambda)
            .expect("valid lambda")
            .fit(&problem)
            .expect("soft fit");
        let gap = max_gap(soft.unlabeled(), mean.unlabeled());
        assert!(gap < previous, "gap failed to shrink at lambda {lambda}");
        previous = gap;
    }
    assert!(previous < 1e-2, "soft(1e4) still {previous} from the mean");
}

#[test]
fn block_form_matches_full_system_on_real_graph() {
    let problem = model1_problem(40, 15, 31);
    for &lambda in &[0.01, 0.1, 1.0, 5.0] {
        let soft = SoftCriterion::new(lambda).expect("valid lambda");
        let block = soft.fit(&problem).expect("block fit");
        let full = soft.fit_full_system(&problem).expect("full fit");
        assert!(
            max_gap(block.all(), full.all()) < 1e-8,
            "paths disagree at lambda {lambda}"
        );
    }
}

#[test]
fn rmse_ordering_matches_figure_1_at_moderate_n() {
    // Average over seeds so the ordering is stable: hard < soft(0.1) < soft(5).
    let reps = 12;
    let mut sums = [0.0f64; 3];
    for seed in 0..reps {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let ds = paper_dataset(PaperModel::Linear, 130, &mut rng).expect("generation");
        let ssl = ds.arrange_prefix(100).expect("arrangement");
        let truth = ssl.hidden_truth.as_ref().expect("synthetic truth");
        let h = paper_rate(100, PAPER_DIM).expect("rate");
        let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
        let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
        let hard = HardCriterion::new().fit(&problem).expect("hard");
        let soft_small = SoftCriterion::new(0.1)
            .unwrap()
            .fit(&problem)
            .expect("soft");
        let soft_large = SoftCriterion::new(5.0)
            .unwrap()
            .fit(&problem)
            .expect("soft");
        sums[0] += gssl_stats::metrics::rmse(truth, hard.unlabeled()).unwrap();
        sums[1] += gssl_stats::metrics::rmse(truth, soft_small.unlabeled()).unwrap();
        sums[2] += gssl_stats::metrics::rmse(truth, soft_large.unlabeled()).unwrap();
    }
    assert!(
        sums[0] < sums[1] && sums[1] < sums[2],
        "expected RMSE(hard) < RMSE(0.1) < RMSE(5), got {sums:?}"
    );
}
