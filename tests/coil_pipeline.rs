//! End-to-end test of the Figure 5 pipeline on the synthetic COIL
//! library: render → median-heuristic RBF graph → criteria → AUC.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{HardCriterion, Problem, SoftCriterion};
use gssl_datasets::coil::SyntheticCoil;
use gssl_graph::{affinity::affinity_matrix, bandwidth::median_heuristic, Kernel};
use gssl_stats::roc::auc;
use gssl_stats::split::labeled_unlabeled_split;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CoilRun {
    hard_auc: f64,
    soft_small_auc: f64,
    soft_large_auc: f64,
}

fn run_pipeline(labeled_fraction: f64, seed: u64) -> CoilRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let coil = SyntheticCoil::builder()
        .images_per_class(25)
        .build(&mut rng)
        .expect("rendering succeeds");
    let dataset = coil.dataset();
    let sigma = median_heuristic(dataset.inputs()).expect("spread pixels");
    let n_labeled = (dataset.len() as f64 * labeled_fraction) as usize;
    let split = labeled_unlabeled_split(dataset.len(), n_labeled, &mut rng).expect("split");
    let ssl = dataset.arrange(&split.train).expect("arrangement");
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, sigma).expect("affinity");
    let problem = Problem::new(w, ssl.labels.clone()).expect("valid problem");
    let truth = ssl.hidden_targets_binary();
    let score = |s: &gssl::Scores| auc(s.unlabeled(), &truth).expect("both classes present");
    CoilRun {
        hard_auc: score(&HardCriterion::new().fit(&problem).expect("hard")),
        soft_small_auc: score(
            &SoftCriterion::new(0.1)
                .unwrap()
                .fit(&problem)
                .expect("soft"),
        ),
        soft_large_auc: score(
            &SoftCriterion::new(5.0)
                .unwrap()
                .fit(&problem)
                .expect("soft"),
        ),
    }
}

#[test]
fn hard_criterion_is_informative_at_80_20() {
    let run = run_pipeline(0.8, 1);
    assert!(
        run.hard_auc > 0.6,
        "AUC should be clearly better than chance, got {}",
        run.hard_auc
    );
}

#[test]
fn auc_ordering_matches_figure_5() {
    // Average three seeds to stabilize the ordering.
    let mut hard = 0.0;
    let mut small = 0.0;
    let mut large = 0.0;
    for seed in 0..3 {
        let run = run_pipeline(0.5, 10 + seed);
        hard += run.hard_auc;
        small += run.soft_small_auc;
        large += run.soft_large_auc;
    }
    assert!(
        hard >= small && small >= large,
        "expected AUC(hard) >= AUC(0.1) >= AUC(5), got {hard} / {small} / {large}"
    );
}

#[test]
fn more_labels_give_higher_hard_auc() {
    let low = run_pipeline(0.1, 3);
    let high = run_pipeline(0.8, 3);
    assert!(
        high.hard_auc > low.hard_auc,
        "80% labels ({}) should beat 10% labels ({})",
        high.hard_auc,
        low.hard_auc
    );
}

#[test]
fn coil_metadata_is_consistent_with_pipeline() {
    let mut rng = StdRng::seed_from_u64(9);
    let coil = SyntheticCoil::builder()
        .images_per_class(10)
        .build(&mut rng)
        .expect("rendering succeeds");
    // Binary grouping covers classes 0-2 as positives, 3-5 as negatives.
    for (&class, &target) in coil.class_labels().iter().zip(coil.dataset().targets()) {
        assert_eq!(target > 0.5, class < 3);
    }
    // Labeled/unlabeled arrangement preserves targets through the split.
    let split = labeled_unlabeled_split(coil.dataset().len(), 30, &mut rng).expect("split");
    let ssl = coil.dataset().arrange(&split.train).expect("arrangement");
    for (&orig_idx, &label) in split.train.iter().zip(&ssl.labels) {
        assert_eq!(coil.dataset().targets()[orig_idx], label);
    }
}
