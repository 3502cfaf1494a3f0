//! Pool-contention test: several reader threads hammer `predict_batch`
//! (each call spawning its own scoped worker pool) while a writer thread
//! streams labels in via `observe_label`, all interleaved through a
//! barrier-sequenced lockstep — no sleeps, no timing assumptions. Every
//! round's concurrent predictions must match a serial twin that applied
//! the same labels one at a time followed by a full refit, to 1e-10.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl_datasets::synthetic::two_moons;
use gssl_datasets::SemiSupervisedData;
use gssl_graph::Kernel;
use gssl_serve::{EngineConfig, Prediction, QueryPoint, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Barrier, RwLock};

const BANDWIDTH: f64 = 0.7;
const READERS: usize = 3;
const ROUNDS: usize = 6;

/// Two-moons data arranged labeled-first with the labeled set strided
/// across the whole index range, so both classes are represented.
fn moons(count: usize, n_labeled: usize, seed: u64) -> SemiSupervisedData {
    let ds = two_moons(count, 0.08, &mut StdRng::seed_from_u64(seed)).expect("two_moons");
    let stride = count / n_labeled;
    let labeled: Vec<usize> = (0..n_labeled).map(|i| i * stride).collect();
    ds.arrange(&labeled).expect("arrange")
}

/// A batch of out-of-sample queries wide enough to engage the pool's
/// parallel path on every `predict_batch` call.
fn query_grid() -> Vec<QueryPoint> {
    let mut queries = Vec::new();
    for i in 0..8 {
        for j in 0..4 {
            let x = -1.2 + 3.4 * (i as f64) / 7.0;
            let y = -0.8 + 1.9 * (j as f64) / 3.0;
            queries.push(QueryPoint::new(vec![x, y]));
        }
    }
    queries
}

fn assert_close(round: usize, got: &[Prediction], want: &[Prediction]) {
    assert_eq!(got.len(), want.len());
    for (q, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.score - w.score).abs() < 1e-10,
            "round {round}, query {q}: concurrent {} vs serial twin {}",
            g.score,
            w.score
        );
        assert_eq!(g.class, w.class, "round {round}, query {q}");
    }
}

#[test]
fn interleaved_observe_and_predict_match_serial_refit_twin() {
    let ssl = moons(40, 8, 13);
    let n_labeled = ssl.n_labeled();
    let queries = query_grid();

    // Labels streamed in during the run: the true targets of the first
    // ROUNDS unlabeled vertices.
    let updates: Vec<(usize, f64)> = (0..ROUNDS)
        .map(|r| (n_labeled + r, ssl.hidden_targets[r]))
        .collect();

    // Serial refit twin: same fit, same update sequence, but each label is
    // followed by a full refit, and predictions are taken single-threaded.
    // expected[r] is the batch after r labels have been applied.
    let twin_config = EngineConfig::new(Kernel::Gaussian, BANDWIDTH)
        .workers(1)
        .refactor_every(0)
        .residual_tolerance(1e-3);
    let twin = ServingEngine::fit(&ssl.inputs, &ssl.labels, twin_config).expect("twin fit");
    let mut expected: Vec<Vec<Prediction>> = Vec::with_capacity(ROUNDS + 1);
    expected.push(twin.predict_batch(&queries).expect("twin predict"));
    for &(node, y) in &updates {
        twin.observe_label(node, y).expect("twin observe");
        twin.refit().expect("twin refit");
        expected.push(twin.predict_batch(&queries).expect("twin predict"));
    }

    // Shared engine: rank-1 updates only, multi-worker batch pool.
    let config = EngineConfig::new(Kernel::Gaussian, BANDWIDTH)
        .workers(4)
        .refactor_every(0)
        .residual_tolerance(1e-3);
    let engine = ServingEngine::fit(&ssl.inputs, &ssl.labels, config).expect("engine fit");
    let shared = RwLock::new(engine);

    // Lockstep: two barriers per round. Between `start` and `mid` the
    // readers hold read locks and predict concurrently (their pools
    // contend); the writer stays out. After `mid` the writer applies the
    // round's label; readers cannot pass the next `start` until it has,
    // because the writer only arrives there after writing.
    let start = Barrier::new(READERS + 1);
    let mid = Barrier::new(READERS + 1);

    let reader_results: Vec<Vec<Vec<Prediction>>> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for &(node, y) in &updates {
                start.wait();
                mid.wait();
                let guard = shared.write().expect("write lock");
                guard.observe_label(node, y).expect("observe_label");
            }
            // Final round: readers observe the fully-updated state.
            start.wait();
            mid.wait();
        });

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut rounds = Vec::with_capacity(ROUNDS + 1);
                    for _ in 0..=ROUNDS {
                        start.wait();
                        let batch = {
                            let guard = shared.read().expect("read lock");
                            guard.predict_batch(&queries).expect("predict_batch")
                        };
                        rounds.push(batch);
                        mid.wait();
                    }
                    rounds
                })
            })
            .collect();

        let results = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        writer.join().expect("writer thread");
        results
    });

    for (reader, rounds) in reader_results.iter().enumerate() {
        assert_eq!(rounds.len(), ROUNDS + 1, "reader {reader}");
        for (round, batch) in rounds.iter().enumerate() {
            // All readers of one round saw the identical engine state, so
            // their batches must agree exactly with reader 0's.
            assert_eq!(
                batch, &reader_results[0][round],
                "reader {reader} diverged in round {round}"
            );
            // And the concurrent rank-1 engine must track the serial
            // refit twin to tight tolerance.
            assert_close(round, batch, &expected[round]);
        }
    }

    // The streamed labels must have actually taken effect.
    let final_engine = shared.into_inner().expect("into_inner");
    assert_eq!(final_engine.n_labeled(), n_labeled + ROUNDS);
}

/// The guarded-refactor fallback re-factors the rank-1-maintained cached
/// system without reassembling it from the graph. Forcing that path on
/// every update (`refactor_every(1)`) must still track a serial twin that
/// does a full rebuild-from-scratch refit after each label, to 1e-10 —
/// i.e. the cached system/rhs stay exactly equal to a fresh assembly.
#[test]
fn guarded_refactor_matches_full_refit_twin() {
    let ssl = moons(40, 8, 13);
    let n_labeled = ssl.n_labeled();
    let queries = query_grid();
    let updates: Vec<(usize, f64)> = (0..ROUNDS)
        .map(|r| (n_labeled + r, ssl.hidden_targets[r]))
        .collect();

    let base = EngineConfig::new(Kernel::Gaussian, BANDWIDTH).workers(1);
    let guarded = ServingEngine::fit(&ssl.inputs, &ssl.labels, base.clone().refactor_every(1))
        .expect("guarded fit");
    let twin =
        ServingEngine::fit(&ssl.inputs, &ssl.labels, base.refactor_every(0)).expect("twin fit");

    for (round, &(node, y)) in updates.iter().enumerate() {
        guarded.observe_label(node, y).expect("guarded observe");
        twin.observe_label(node, y).expect("twin observe");
        twin.refit().expect("twin refit");
        let got = guarded.predict_batch(&queries).expect("guarded predict");
        let want = twin.predict_batch(&queries).expect("twin predict");
        assert_close(round, &got, &want);
    }
    // Every update triggered the periodic guard exactly once.
    assert_eq!(guarded.metrics().guarded_refactors, ROUNDS);
}
