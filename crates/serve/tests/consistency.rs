//! Integration tests: the serving engine must agree with the transductive
//! criteria it caches, and its rank-1 label updates must match a full
//! refit to tight tolerance (ISSUE acceptance: 1e-10 on a 50-point
//! problem; batch predictions vs direct refit to 1e-8).

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{HardCriterion, Problem, SoftCriterion};
use gssl_datasets::synthetic::two_moons;
use gssl_datasets::SemiSupervisedData;
use gssl_graph::Kernel;
use gssl_linalg::Matrix;
use gssl_serve::{EngineConfig, QueryPoint, ServeCriterion, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BANDWIDTH: f64 = 0.7;

/// Two-moons data arranged labeled-first with the labeled set strided
/// across the whole index range, so both classes are represented (the raw
/// generator orders one moon before the other).
fn moons(count: usize, n_labeled: usize, seed: u64) -> SemiSupervisedData {
    let ds = two_moons(count, 0.08, &mut StdRng::seed_from_u64(seed)).expect("two_moons");
    let stride = count / n_labeled;
    let labeled: Vec<usize> = (0..n_labeled).map(|i| i * stride).collect();
    ds.arrange(&labeled).expect("arrange")
}

/// True target of arranged node `i` (labeled or hidden).
fn target_of(ssl: &SemiSupervisedData, i: usize) -> f64 {
    let n = ssl.n_labeled();
    if i < n {
        ssl.labels[i]
    } else {
        ssl.hidden_targets[i - n]
    }
}

/// Pure rank-1 path: periodic fallback off, residual guard slack enough
/// that it never trips on these problem sizes.
fn rank1_only_config() -> EngineConfig {
    EngineConfig::new(Kernel::Gaussian, BANDWIDTH)
        .workers(1)
        .refactor_every(0)
        .residual_tolerance(1e-3)
}

#[test]
fn hard_engine_fit_matches_hard_criterion() {
    let ssl = moons(40, 8, 7);
    let engine =
        ServingEngine::fit(&ssl.inputs, &ssl.labels, rank1_only_config()).expect("engine fit");
    let problem = Problem::new(
        engine.graph().weights().expect("weights"),
        ssl.labels.clone(),
    )
    .expect("problem");
    let direct = HardCriterion::new().fit(&problem).expect("criterion fit");
    // Guard against the degenerate all-identical-labels arrangement: the
    // comparison is only meaningful if the scores vary.
    assert!(ssl.labels.iter().any(|&y| y >= 0.5));
    assert!(ssl.labels.iter().any(|&y| y < 0.5));
    for (i, &expected) in direct.all().iter().enumerate() {
        let got = engine.scores().get(i, 0);
        assert!(
            (got - expected).abs() < 1e-10,
            "node {i}: engine {got} vs criterion {expected}"
        );
    }
}

#[test]
fn soft_engine_fit_matches_full_system_criterion() {
    let ssl = moons(30, 6, 11);
    let lambda = 0.5;
    let config = rank1_only_config().criterion(ServeCriterion::Soft { lambda });
    let engine = ServingEngine::fit(&ssl.inputs, &ssl.labels, config).expect("engine fit");
    let problem = Problem::new(
        engine.graph().weights().expect("weights"),
        ssl.labels.clone(),
    )
    .expect("problem");
    let direct = SoftCriterion::new(lambda)
        .expect("soft criterion")
        .fit_full_system(&problem)
        .expect("full-system fit");
    for (i, &expected) in direct.all().iter().enumerate() {
        let got = engine.scores().get(i, 0);
        assert!(
            (got - expected).abs() < 1e-10,
            "node {i}: engine {got} vs full system {expected}"
        );
    }
}

/// The ISSUE's headline acceptance test: on a 50-point problem, a chain
/// of Sherman–Morrison label updates stays within 1e-10 of a twin engine
/// that fully refactors after every update.
#[test]
fn hard_rank1_chain_matches_full_refit_to_1e10() {
    let ssl = moons(50, 10, 3);
    let streamed = ServingEngine::fit(&ssl.inputs, &ssl.labels, rank1_only_config()).expect("fit");
    let refitted = ServingEngine::fit(&ssl.inputs, &ssl.labels, rank1_only_config()).expect("fit");

    for &node in &[12usize, 35, 49, 20, 41, 17, 28, 33] {
        let y = target_of(&ssl, node);
        streamed.observe_label(node, y).expect("rank-1 update");
        refitted.observe_label(node, y).expect("twin update");
        refitted.refit().expect("twin refit");
        for i in 0..streamed.n_nodes() {
            let a = streamed.scores().get(i, 0);
            let b = refitted.scores().get(i, 0);
            assert!(
                (a - b).abs() < 1e-10,
                "after labeling {node}, node {i}: rank-1 {a} vs refit {b}"
            );
        }
    }
    // The streamed engine never refactored: one fit-time factorization.
    let m = streamed.metrics();
    assert_eq!(m.factorizations, 1);
    assert_eq!(m.guarded_refactors, 0);
    assert_eq!(m.rank1_updates, 8);
}

#[test]
fn soft_rank1_chain_matches_full_refit_to_1e10() {
    let ssl = moons(50, 10, 5);
    let config = rank1_only_config().criterion(ServeCriterion::Soft { lambda: 0.3 });
    let streamed = ServingEngine::fit(&ssl.inputs, &ssl.labels, config.clone()).expect("fit");
    let refitted = ServingEngine::fit(&ssl.inputs, &ssl.labels, config).expect("fit");

    for &node in &[13usize, 44, 27, 38, 19, 31] {
        let y = target_of(&ssl, node);
        streamed.observe_label(node, y).expect("rank-1 update");
        refitted.observe_label(node, y).expect("twin update");
        refitted.refit().expect("twin refit");
        for i in 0..streamed.n_nodes() {
            let a = streamed.scores().get(i, 0);
            let b = refitted.scores().get(i, 0);
            assert!(
                (a - b).abs() < 1e-10,
                "after labeling {node}, node {i}: rank-1 {a} vs refit {b}"
            );
        }
    }
    assert_eq!(streamed.metrics().factorizations, 1);
    assert_eq!(streamed.metrics().guarded_refactors, 0);
}

/// Acceptance: batch predictions from the long-lived engine match a
/// direct refit (fresh engine over the same labeled set, sequential
/// predictions) to 1e-8 — including after streamed label updates.
#[test]
fn batch_predictions_match_direct_refit_to_1e8() {
    let ssl = moons(40, 8, 13);
    let n = ssl.n_labeled();
    let engine =
        ServingEngine::fit(&ssl.inputs, &ssl.labels, rank1_only_config().workers(4)).expect("fit");
    let streamed_nodes = [15usize, 33, 22, 39];
    for &node in &streamed_nodes {
        engine
            .observe_label(node, target_of(&ssl, node))
            .expect("update");
    }

    // Direct refit: rebuild from scratch with the streamed labels moved to
    // the front (labeled-first layout), then answer the same queries
    // sequentially.
    let labeled: Vec<usize> = (0..n).chain(streamed_nodes.iter().copied()).collect();
    let mut order = labeled.clone();
    for i in 0..ssl.inputs.rows() {
        if !labeled.contains(&i) {
            order.push(i);
        }
    }
    let permuted = Matrix::from_fn(ssl.inputs.rows(), ssl.inputs.cols(), |r, c| {
        ssl.inputs.get(order[r], c)
    });
    let labels: Vec<f64> = labeled.iter().map(|&i| target_of(&ssl, i)).collect();
    let direct = ServingEngine::fit(&permuted, &labels, rank1_only_config()).expect("direct refit");

    // Fitted scores agree under the permutation…
    for (r, &original) in order.iter().enumerate() {
        let a = engine.scores().get(original, 0);
        let b = direct.scores().get(r, 0);
        assert!(
            (a - b).abs() < 1e-8,
            "node {original}: streamed {a} vs direct refit {b}"
        );
    }

    // …and so do out-of-sample predictions for a query sweep.
    let queries: Vec<QueryPoint> = (0..60)
        .map(|i| QueryPoint::new(vec![-1.5 + 0.06 * i as f64, -0.8 + 0.03 * i as f64]))
        .collect();
    let streamed_out = engine.predict_batch(&queries).expect("batch predict");
    let direct_out = direct.predict_batch(&queries).expect("direct predict");
    for (qi, (a, b)) in streamed_out.iter().zip(&direct_out).enumerate() {
        assert!(
            (a.score - b.score).abs() < 1e-8,
            "query {qi}: streamed {} vs direct {}",
            a.score,
            b.score
        );
    }
    // Still only the fit-time factorization on the streamed engine's
    // query path.
    assert_eq!(engine.metrics().factorizations, 1);
}

/// Degenerate toy from the ISSUE: all inputs identical. The hard
/// criterion on the resulting complete uniform graph assigns every
/// unlabeled node mean(Y_n), and the out-of-sample extension at the
/// shared coordinate returns mean(Y_n) as well — before and after
/// streamed updates.
#[test]
fn identical_inputs_toy_returns_label_mean() {
    let points = Matrix::from_fn(6, 2, |_, _| 1.25);
    let labels = [1.0, 0.0, 1.0];
    let engine = ServingEngine::fit(&points, &labels, rank1_only_config()).expect("fit");
    let mean = 2.0 / 3.0;
    for i in 3..6 {
        assert!(
            (engine.scores().get(i, 0) - mean).abs() < 1e-10,
            "unlabeled node {i} should sit at mean(Y_n)"
        );
    }
    let out = engine
        .predict_batch(&[QueryPoint::new(vec![1.25, 1.25])])
        .expect("predict");
    // Prediction = (Σ labeled y + Σ unlabeled mean) / N = mean(Y_n).
    assert!((out[0].score - mean).abs() < 1e-10);

    // Streaming one more label shifts the mean to 3/4 and the rank-1
    // update must track it exactly.
    engine.observe_label(4, 1.0).expect("update");
    let mean = 0.75;
    for i in [3usize, 5] {
        assert!(
            (engine.scores().get(i, 0) - mean).abs() < 1e-10,
            "unlabeled node {i} after update"
        );
    }
    let out = engine
        .predict_batch(&[QueryPoint::new(vec![1.25, 1.25])])
        .expect("predict");
    assert!((out[0].score - mean).abs() < 1e-10);
    assert_eq!(engine.metrics().factorizations, 1);
}

/// A paranoid residual tolerance forces the guard to refactor after
/// updates, and the guarded path leaves scores consistent.
#[test]
fn residual_guard_forces_refactor() {
    let ssl = moons(20, 5, 17);
    let config = rank1_only_config().residual_tolerance(1e-300);
    let engine = ServingEngine::fit(&ssl.inputs, &ssl.labels, config).expect("fit");
    engine
        .observe_label(10, target_of(&ssl, 10))
        .expect("update");
    engine
        .observe_label(15, target_of(&ssl, 15))
        .expect("update");
    let m = engine.metrics();
    assert!(
        m.guarded_refactors >= 1,
        "guard should trip at an impossible tolerance"
    );
    assert_eq!(m.factorizations, 1 + m.guarded_refactors);
    // After a guarded refactor the residual is at factorization accuracy.
    assert!(engine.residual().expect("residual") < 1e-10);
}

/// Multiclass serving stays consistent with per-class binary engines:
/// one-vs-rest columns equal the binary engine fitted on each indicator.
#[test]
fn multiclass_columns_match_per_class_binary_engines() {
    let ssl = moons(24, 9, 19);
    // Fabricate 3 classes from the moon label and index parity so the
    // labeled prefix covers all of them.
    let classes: Vec<usize> = (0..ssl.inputs.rows())
        .map(|i| if target_of(&ssl, i) >= 0.5 { 2 } else { i % 2 })
        .collect();
    let n = ssl.n_labeled();
    for class in 0..3 {
        assert!(
            classes[..n].contains(&class),
            "labeled prefix must cover class {class}"
        );
    }
    let engine = ServingEngine::fit_multiclass(&ssl.inputs, &classes[..n], 3, rank1_only_config())
        .expect("multiclass fit");

    for class in 0..3 {
        let indicator: Vec<f64> = classes[..n]
            .iter()
            .map(|&c| if c == class { 1.0 } else { 0.0 })
            .collect();
        let binary =
            ServingEngine::fit(&ssl.inputs, &indicator, rank1_only_config()).expect("binary fit");
        for i in 0..ssl.inputs.rows() {
            let a = engine.scores().get(i, class);
            let b = binary.scores().get(i, 0);
            assert!(
                (a - b).abs() < 1e-12,
                "class {class}, node {i}: shared {a} vs per-class {b}"
            );
        }
    }
    // The multiclass engine paid for one factorization, not three.
    assert_eq!(engine.metrics().factorizations, 1);
}
