//! Numerical verification of Theorem II.1: the hard criterion's error on
//! unlabeled data vanishes as the labeled sample grows (with m fixed and
//! the paper's bandwidth rate), while the mean predictor's does not.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::theory::TheoryDiagnostics;
use gssl::{HardCriterion, MeanPredictor, NadarayaWatson, Problem};
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn average_rmse<F>(n: usize, m: usize, reps: u64, fit: F) -> f64
where
    F: Fn(&Problem) -> Vec<f64>,
{
    let mut total = 0.0;
    for seed in 0..reps {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng).expect("generation");
        let ssl = ds.arrange_prefix(n).expect("arrangement");
        let truth = ssl.hidden_truth.as_ref().expect("synthetic truth");
        let h = paper_rate(n, PAPER_DIM).expect("rate");
        let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
        let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
        total += rmse(truth, &fit(&problem)).expect("rmse");
    }
    total / reps as f64
}

#[test]
fn hard_criterion_error_shrinks_with_n() {
    let fit = |p: &Problem| {
        HardCriterion::new()
            .fit(p)
            .expect("fit")
            .unlabeled()
            .to_vec()
    };
    let small = average_rmse(20, 25, 10, fit);
    let large = average_rmse(400, 25, 10, fit);
    assert!(
        large < small * 0.75,
        "RMSE should drop substantially: n=20 gives {small}, n=400 gives {large}"
    );
}

#[test]
fn mean_predictor_error_does_not_vanish() {
    // Proposition II.2's limit: the constant predictor's RMSE is bounded
    // below by the spread of q(X) regardless of n.
    let fit = |p: &Problem| {
        MeanPredictor::new()
            .fit(p)
            .expect("fit")
            .unlabeled()
            .to_vec()
    };
    let large = average_rmse(400, 25, 10, fit);
    assert!(
        large > 0.12,
        "mean predictor should stay near the population spread, got {large}"
    );
}

#[test]
fn hard_beats_mean_predictor_at_large_n() {
    let hard = average_rmse(300, 25, 10, |p| {
        HardCriterion::new()
            .fit(p)
            .expect("fit")
            .unlabeled()
            .to_vec()
    });
    let mean = average_rmse(300, 25, 10, |p| {
        MeanPredictor::new()
            .fit(p)
            .expect("fit")
            .unlabeled()
            .to_vec()
    });
    assert!(hard < mean, "hard {hard} should beat mean {mean}");
}

#[test]
fn hard_tracks_nadaraya_watson_in_the_consistent_regime() {
    // The proof couples the two estimators; with m << n h^d they should
    // nearly coincide.
    let mut rng = StdRng::seed_from_u64(123);
    let (n, m) = (500, 10);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng).expect("generation");
    let ssl = ds.arrange_prefix(n).expect("arrangement");
    let h = paper_rate(n, PAPER_DIM).expect("rate");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
    let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
    let hard = HardCriterion::new().fit(&problem).expect("hard fit");
    let nw = NadarayaWatson::new().fit(&problem).expect("nw fit");
    let gap = hard
        .unlabeled()
        .iter()
        .zip(nw.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(gap < 0.05, "hard and NW should nearly agree, gap {gap}");
}

#[test]
fn theory_diagnostics_shrink_with_n() {
    let diagnostics = |n: usize, m: usize| {
        let mut rng = StdRng::seed_from_u64(55);
        let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng).expect("generation");
        let ssl = ds.arrange_prefix(n).expect("arrangement");
        let h = paper_rate(n, PAPER_DIM).expect("rate");
        let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
        let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
        TheoryDiagnostics::compute(&problem, h, PAPER_DIM).expect("diagnostics")
    };
    let small = diagnostics(30, 20);
    let large = diagnostics(400, 20);
    assert!(large.coupling_gap_max < small.coupling_gap_max);
    assert!(large.solution_gap_max < small.solution_gap_max);
    assert!(large.regime_ratio < small.regime_ratio);
    assert!(small.spectral_radius < 1.0 && large.spectral_radius < 1.0);
}

#[test]
fn growing_m_inflates_the_coupling_gap() {
    // The regime the paper conjectures inconsistent: m growing with n
    // fixed drives the proof's coupling quantity up.
    let diagnostics = |m: usize| {
        let mut rng = StdRng::seed_from_u64(66);
        let ds = paper_dataset(PaperModel::Linear, 100 + m, &mut rng).expect("generation");
        let ssl = ds.arrange_prefix(100).expect("arrangement");
        let h = paper_rate(100, PAPER_DIM).expect("rate");
        let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
        let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
        TheoryDiagnostics::compute(&problem, h, PAPER_DIM).expect("diagnostics")
    };
    let few = diagnostics(10);
    let many = diagnostics(200);
    assert!(many.coupling_gap_max > few.coupling_gap_max);
    assert!(many.regime_ratio > few.regime_ratio);
}
