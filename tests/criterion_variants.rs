//! Cross-variant integration test: every criterion in the crate fitted on
//! the same realistic problem, with the orderings the theory predicts.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{
    Criterion, GsslModel, HardCriterion, LocalGlobalConsistency, MeanPredictor, NadarayaWatson,
    PLaplacian, Problem, SoftCriterion, TransductiveModel,
};
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Bandwidth, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model1_problem_with_truth(seed: u64) -> (Problem, Vec<f64>) {
    let (n, m) = (150, 30);
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng).expect("generation");
    let ssl = ds.arrange_prefix(n).expect("arrangement");
    let truth = ssl.hidden_truth.clone().expect("synthetic truth");
    let h = paper_rate(n, PAPER_DIM).expect("rate");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h).expect("affinity");
    (
        Problem::new(w, ssl.labels.clone()).expect("valid problem"),
        truth,
    )
}

#[test]
fn every_variant_fits_and_respects_score_sanity() {
    let (problem, _) = model1_problem_with_truth(1);
    let models: Vec<Box<dyn TransductiveModel>> = vec![
        Box::new(HardCriterion::new()),
        Box::new(SoftCriterion::new(0.1).unwrap()),
        Box::new(NadarayaWatson::new()),
        Box::new(MeanPredictor::new()),
        Box::new(LocalGlobalConsistency::new(0.9).unwrap()),
        Box::new(PLaplacian::new(3.0).unwrap()),
    ];
    for model in models {
        let scores = model.fit(&problem).expect("fit succeeds");
        assert_eq!(
            scores.all().len(),
            problem.len(),
            "{} returned wrong length",
            model.name()
        );
        for &s in scores.unlabeled() {
            assert!(
                (-0.5..=1.5).contains(&s),
                "{} produced wild score {s}",
                model.name()
            );
        }
    }
}

#[test]
fn rmse_ordering_across_variants_averaged() {
    // Averaged over seeds: hard ≈ NW < soft(5) < mean (the paper's story
    // plus the coupling of Theorem II.1).
    let reps = 8;
    let mut sums = [0.0f64; 4];
    for seed in 0..reps {
        let (problem, truth) = model1_problem_with_truth(100 + seed);
        let evaluate = |model: &dyn TransductiveModel| {
            let scores = model.fit(&problem).expect("fit");
            rmse(&truth, scores.unlabeled()).expect("rmse")
        };
        sums[0] += evaluate(&HardCriterion::new());
        sums[1] += evaluate(&NadarayaWatson::new());
        sums[2] += evaluate(&SoftCriterion::new(5.0).unwrap());
        sums[3] += evaluate(&MeanPredictor::new());
    }
    let [hard, nw, soft5, mean] = sums;
    assert!(
        (hard - nw).abs() < 0.25 * hard,
        "hard ({hard}) and NW ({nw}) should track each other"
    );
    assert!(hard < soft5, "hard ({hard}) should beat soft(5) ({soft5})");
    assert!(soft5 < mean, "soft(5) ({soft5}) should beat mean ({mean})");
}

#[test]
fn builder_facade_covers_all_variants() {
    let points = gssl_linalg::Matrix::from_rows(&[&[0.0], &[1.0], &[0.1], &[0.9], &[0.5]]).unwrap();
    let labels = [0.0, 1.0];
    let criteria = [
        Criterion::Hard,
        Criterion::Soft(0.5),
        Criterion::NadarayaWatson,
        Criterion::LabeledMean,
        Criterion::LocalGlobalConsistency(0.7),
        Criterion::PLaplacian(2.5),
    ];
    for criterion in criteria {
        let mut builder = GsslModel::builder();
        builder
            .kernel(Kernel::Gaussian)
            .bandwidth(Bandwidth::Fixed(0.5))
            .criterion(criterion);
        let scores = builder.fit(&points, &labels).expect("facade fit");
        assert_eq!(scores.unlabeled().len(), 3, "{criterion:?}");
    }
}

#[test]
fn graph_method_beats_kernel_regression_on_swiss_roll() {
    // The manifold assumption in action: adjacent sheets of the roll are
    // close in R^3 but far along the manifold, so NW (which ignores
    // unlabeled geometry) blurs across sheets while the harmonic solution
    // propagates along the roll.
    let mut rng = StdRng::seed_from_u64(44);
    let ds = gssl_datasets::synthetic::swiss_roll(400, 0.05, &mut rng).expect("generation");
    // Label 10 random-ish points spread through the roll.
    let labeled: Vec<usize> = (0..10).map(|k| k * 37).collect();
    let ssl = ds.arrange(&labeled).expect("arrangement");
    let truth = ssl.hidden_targets_binary();
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, 1.2).expect("affinity");
    let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");

    let accuracy = |model: &dyn TransductiveModel| {
        let scores = model.fit(&problem).expect("fit");
        scores
            .unlabeled_predictions(0.5)
            .iter()
            .zip(&truth)
            .filter(|(p, t)| p == t)
            .count() as f64
            / truth.len() as f64
    };
    let hard = accuracy(&HardCriterion::new());
    let nw = accuracy(&NadarayaWatson::new());
    assert!(
        hard >= nw,
        "graph propagation ({hard}) should not lose to kernel regression ({nw})"
    );
    assert!(hard > 0.8, "swiss roll should be mostly solved, got {hard}");
}

#[test]
fn invalid_variant_parameters_error_through_facade() {
    let points = gssl_linalg::Matrix::from_rows(&[&[0.0], &[1.0], &[0.5]]).unwrap();
    let labels = [0.0, 1.0];
    for criterion in [
        Criterion::Soft(-1.0),
        Criterion::LocalGlobalConsistency(1.5),
        Criterion::PLaplacian(0.5),
    ] {
        let mut builder = GsslModel::builder();
        builder
            .bandwidth(Bandwidth::Fixed(0.5))
            .criterion(criterion);
        assert!(
            builder.fit(&points, &labels).is_err(),
            "{criterion:?} should be rejected"
        );
    }
}
