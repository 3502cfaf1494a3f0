//! Integration contracts for the shard-decomposed serving stack:
//!
//! * sharded predictions are **bitwise** identical to the monolithic
//!   engine on multi-component graphs (hard, soft and multiclass, under
//!   the direct solver route);
//! * epoch label folds agree with fully refitted twins to `1e-10`;
//! * snapshot → restore → predict round-trips are bitwise;
//! * the admission-controlled batch queue conserves queries end to end.

use gssl_graph::Kernel;
use gssl_linalg::Matrix;
use gssl_serve::{
    Admission, BatchPolicy, BatchQueue, EngineConfig, Prediction, QueryPoint, ServeCriterion,
    ServingEngine, ShardPlan, ShardedEngine,
};

/// Three interleaved 1-D clusters (node `i` sits in cluster `i % 3`), so
/// shard membership is scattered through the global index space — the
/// hardest layout for the reassembly bookkeeping. Labeled-first: nodes
/// 0, 1, 2 land one per cluster.
fn clustered_points(total: usize) -> Matrix {
    Matrix::from_fn(total, 1, |i, _| {
        let cluster = (i % 3) as f64;
        let jitter = (((i * 37 + 11) as f64) * 0.618_033_988_749_894_9).fract();
        cluster * 10.0 + jitter
    })
}

fn compact_config() -> EngineConfig {
    EngineConfig::new(Kernel::Epanechnikov, 1.6).workers(1)
}

fn in_cluster_queries(count: usize) -> Vec<QueryPoint> {
    (0..count)
        .map(|q| {
            let cluster = (q % 3) as f64;
            let jitter = (((q * 53 + 5) as f64) * 0.618_033_988_749_894_9).fract();
            QueryPoint::new(vec![cluster * 10.0 + jitter])
        })
        .collect()
}

fn assert_bitwise(a: &[Prediction], b: &[Prediction], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: prediction counts differ");
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.class, y.class, "{what}: class diverged at query {qi}");
        assert_eq!(
            x.per_class.len(),
            y.per_class.len(),
            "{what}: class-width diverged at query {qi}"
        );
        for (c, (u, v)) in x.per_class.iter().zip(&y.per_class).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: query {qi} class {c}: {u} vs {v} differ in bits"
            );
        }
    }
}

fn assert_scores_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a.get(i, j).to_bits(),
                b.get(i, j).to_bits(),
                "{what}: score ({i}, {j}) differs in bits"
            );
        }
    }
}

#[test]
fn sharded_matches_monolithic_bitwise_hard() {
    let points = clustered_points(24);
    let labels = [0.0, 1.0, 0.0];
    let mono = ServingEngine::fit(&points, &labels, compact_config()).unwrap();
    let sharded = ShardedEngine::fit(&points, &labels, compact_config()).unwrap();
    assert_eq!(sharded.n_shards(), 3, "expected a genuine decomposition");
    assert_scores_bitwise(&mono.scores(), &sharded.scores(), "hard fit");
    let queries = in_cluster_queries(18);
    assert_bitwise(
        &mono.predict_batch(&queries).unwrap(),
        &sharded.predict_batch(&queries).unwrap(),
        "hard predictions",
    );
}

#[test]
fn sharded_matches_monolithic_bitwise_soft() {
    let points = clustered_points(21);
    let labels = [0.0, 1.0, 1.0];
    let config = compact_config().criterion(ServeCriterion::Soft { lambda: 0.4 });
    let mono = ServingEngine::fit(&points, &labels, config.clone()).unwrap();
    let sharded = ShardedEngine::fit(&points, &labels, config).unwrap();
    assert_eq!(sharded.n_shards(), 3);
    assert_scores_bitwise(&mono.scores(), &sharded.scores(), "soft fit");
    let queries = in_cluster_queries(15);
    assert_bitwise(
        &mono.predict_batch(&queries).unwrap(),
        &sharded.predict_batch(&queries).unwrap(),
        "soft predictions",
    );
}

#[test]
fn sharded_matches_monolithic_bitwise_multiclass() {
    let points = clustered_points(27);
    let class_labels = [0, 1, 2];
    let mono = ServingEngine::fit_multiclass(&points, &class_labels, 3, compact_config()).unwrap();
    let sharded =
        ShardedEngine::fit_multiclass(&points, &class_labels, 3, compact_config()).unwrap();
    assert_eq!(sharded.n_shards(), 3);
    assert_scores_bitwise(&mono.scores(), &sharded.scores(), "multiclass fit");
    let queries = in_cluster_queries(12);
    let out = sharded.predict_batch(&queries).unwrap();
    assert_bitwise(&mono.predict_batch(&queries).unwrap(), &out, "multiclass");
    // Queries land in their own cluster's class.
    for (q, p) in out.iter().enumerate() {
        assert_eq!(p.class, q % 3, "query {q} crossed clusters");
    }
}

#[test]
fn sharded_folds_track_monolithic_folds_bitwise() {
    // The fold path too: the same label stream through both engines.
    // Each shard-local rank-1 chain sees exactly the same numbers the
    // monolithic chain produces for that block, so even folds agree in
    // bits under the direct route.
    let points = clustered_points(18);
    let labels = [0.0, 1.0, 0.0];
    let mono = ServingEngine::fit(&points, &labels, compact_config()).unwrap();
    let sharded = ShardedEngine::fit(&points, &labels, compact_config()).unwrap();
    for (node, y) in [(7, 1.0), (11, 0.0), (9, 1.0)] {
        mono.observe_label(node, y).unwrap();
        sharded.observe_label(node, y).unwrap();
    }
    assert_eq!(sharded.epoch(), 4);
    assert_scores_bitwise(&mono.scores(), &sharded.scores(), "after folds");
    let queries = in_cluster_queries(9);
    assert_bitwise(
        &mono.predict_batch(&queries).unwrap(),
        &sharded.predict_batch(&queries).unwrap(),
        "post-fold predictions",
    );
}

#[test]
fn fold_metrics_reach_the_engine() {
    // refactor_every(1): every fold is a rank-1 update followed by a
    // guarded refactor inside the owning shard, and all of it is counted
    // on the engine — three fit-time factorizations plus three guarded.
    let points = clustered_points(18);
    let labels = [0.0, 1.0, 0.0];
    let engine = ShardedEngine::fit(&points, &labels, compact_config().refactor_every(1)).unwrap();
    assert_eq!(engine.n_shards(), 3);
    for (node, y) in [(7, 1.0), (11, 0.0), (9, 1.0)] {
        engine.observe_label(node, y).unwrap();
    }
    let m = engine.metrics();
    assert_eq!(m.rank1_updates, 3);
    assert_eq!(m.guarded_refactors, 3);
    assert_eq!(m.factorizations, 6);
    assert!(m.last_factor.is_some());
}

#[test]
fn epoch_folds_agree_with_refit_twins() {
    // After every fold, a twin sharded engine fitted from scratch on the
    // enlarged labeled set must agree to 1e-10 — the rank-1 chains drift
    // only at rounding level.
    let points = clustered_points(18);
    let labels = [0.0, 1.0, 0.0];
    let folding = ShardedEngine::fit(&points, &labels, compact_config()).unwrap();

    let stream = [(7usize, 1.0), (5, 0.0), (10, 1.0)];
    let mut labeled: Vec<(usize, f64)> = vec![(0, 0.0), (1, 1.0), (2, 0.0)];
    for &(node, y) in &stream {
        folding.observe_label(node, y).unwrap();
        labeled.push((node, y));

        // Refit twin: same labeled set, labeled-first layout. Build a
        // permuted copy with the labeled nodes first.
        let mut order: Vec<usize> = labeled.iter().map(|&(n, _)| n).collect();
        let mut rest: Vec<usize> = (0..points.rows()).filter(|n| !order.contains(n)).collect();
        order.append(&mut rest);
        let perm_points = Matrix::from_fn(points.rows(), 1, |i, _| points.get(order[i], 0));
        let twin_labels: Vec<f64> = labeled.iter().map(|&(_, y)| y).collect();
        let twin = ShardedEngine::fit(&perm_points, &twin_labels, compact_config()).unwrap();

        let twin_scores = twin.scores();
        let fold_scores = folding.scores();
        for (twin_row, &global) in order.iter().enumerate() {
            let a = twin_scores.get(twin_row, 0);
            let b = fold_scores.get(global, 0);
            assert!(
                (a - b).abs() <= 1e-10,
                "node {global}: refit twin {a} vs folded {b} after labeling {node}"
            );
        }
    }
    assert_eq!(folding.epoch(), 1 + stream.len() as u64);
}

#[test]
fn snapshot_roundtrip_after_folds_is_bitwise() {
    let points = clustered_points(21);
    let labels = [0.0, 1.0, 1.0];
    let engine = ShardedEngine::fit(&points, &labels, compact_config()).unwrap();
    engine.observe_label(8, 0.0).unwrap();
    engine.observe_label(13, 1.0).unwrap();

    let bytes = engine.snapshot().unwrap();
    let restored = ShardedEngine::restore(&bytes).unwrap();
    assert_eq!(restored.epoch(), engine.epoch());
    assert_eq!(restored.n_shards(), engine.n_shards());
    assert_scores_bitwise(&engine.scores(), &restored.scores(), "restored scores");
    let queries = in_cluster_queries(12);
    assert_bitwise(
        &engine.predict_batch(&queries).unwrap(),
        &restored.predict_batch(&queries).unwrap(),
        "restored predictions",
    );

    // The restored engine is live: folds and further snapshots work.
    restored.observe_label(16, 0.0).unwrap();
    assert_eq!(restored.epoch(), engine.epoch() + 1);
    let again = ShardedEngine::restore(&restored.snapshot().unwrap()).unwrap();
    assert_scores_bitwise(&restored.scores(), &again.scores(), "second generation");
}

#[test]
fn sharded_serving_is_bitwise_across_worker_counts() {
    let points = clustered_points(24);
    let labels = [0.0, 1.0, 0.0];
    let queries = in_cluster_queries(30);
    let reference = ShardedEngine::fit(&points, &labels, compact_config())
        .unwrap()
        .predict_batch(&queries)
        .unwrap();
    for workers in [2, 4, 8] {
        let engine =
            ShardedEngine::fit(&points, &labels, compact_config().workers(workers)).unwrap();
        assert_bitwise(
            &reference,
            &engine.predict_batch(&queries).unwrap(),
            &format!("workers = {workers}"),
        );
    }
}

#[test]
fn batch_queue_conserves_queries_end_to_end() {
    let points = clustered_points(18);
    let labels = [0.0, 1.0, 0.0];
    let engine = ShardedEngine::fit(&points, &labels, compact_config()).unwrap();

    let queries = in_cluster_queries(23);
    let direct = engine.predict_batch(&queries).unwrap();

    // Push the whole stream through a size-4/deadline-bounded queue with
    // admission control wide enough to accept everything, serving each
    // released batch against the engine.
    let mut queue = BatchQueue::new(BatchPolicy::new(4, 0.25, 64)).unwrap();
    let mut served: Vec<(u64, Prediction)> = Vec::new();
    for (i, query) in queries.iter().cloned().enumerate() {
        let now = i as f64 * 0.1;
        match queue.offer(query, now) {
            Admission::Admitted { ticket } => assert_eq!(ticket, i as u64),
            Admission::Rejected { .. } => panic!("capacity 64 must admit all 23"),
        }
        while let Some(batch) = queue.pop_ready(now) {
            let out = engine.predict_batch(&batch.queries).unwrap();
            served.extend(batch.tickets.iter().copied().zip(out));
        }
    }
    let end = queries.len() as f64 * 0.1;
    while let Some(batch) = queue.flush(end) {
        let out = engine.predict_batch(&batch.queries).unwrap();
        served.extend(batch.tickets.iter().copied().zip(out));
    }

    // Conservation: every admitted query served exactly once, and the
    // coalesced answers equal the direct batch bit for bit.
    assert_eq!(served.len(), queries.len());
    served.sort_by_key(|&(ticket, _)| ticket);
    for (i, (ticket, prediction)) in served.iter().enumerate() {
        assert_eq!(*ticket, i as u64);
        assert_eq!(
            prediction, &direct[i],
            "query {i} diverged through the queue"
        );
    }
    assert_eq!(queue.admitted(), queries.len() as u64);
    assert_eq!(queue.rejected(), 0);
}

#[test]
fn single_component_graph_degenerates_to_one_shard() {
    // A Gaussian kernel never truncates: one component, one shard, and
    // the sharded engine still matches the monolithic one bitwise.
    let points = Matrix::from_fn(12, 1, |i, _| i as f64 * 0.4);
    let labels = [0.0, 1.0];
    let config = EngineConfig::new(Kernel::Gaussian, 0.9).workers(1);
    let mono = ServingEngine::fit(&points, &labels, config.clone()).unwrap();
    let sharded = ShardedEngine::fit(&points, &labels, config).unwrap();
    assert_eq!(sharded.n_shards(), 1);
    assert_scores_bitwise(&mono.scores(), &sharded.scores(), "single component");
    let queries: Vec<QueryPoint> = (0..8)
        .map(|q| QueryPoint::new(vec![q as f64 * 0.55]))
        .collect();
    assert_bitwise(
        &mono.predict_batch(&queries).unwrap(),
        &sharded.predict_batch(&queries).unwrap(),
        "single-component predictions",
    );
}

#[test]
fn fitted_plan_is_the_dense_plan_for_every_kernel() {
    // The engine plans from the graph through the spatial index; the
    // dense `ShardPlan::new` over the full weight matrix is the
    // reference. A narrow Gaussian underflows to exact zeros across the
    // cluster gaps, so it splits too.
    let points = clustered_points(24);
    let labels = [0.0, 1.0, 0.0];
    for kernel in Kernel::all() {
        let h = if kernel == Kernel::Gaussian { 0.3 } else { 1.6 };
        let config = EngineConfig::new(kernel, h).workers(1);
        let sharded = ShardedEngine::fit(&points, &labels, config.clone()).unwrap();
        let dense = ShardPlan::new(&sharded.graph().weights().unwrap(), labels.len()).unwrap();
        assert_eq!(sharded.plan(), &dense, "{kernel}");
        assert_eq!(sharded.n_shards(), 3, "{kernel}");
        let mono = ServingEngine::fit(&points, &labels, config).unwrap();
        assert_scores_bitwise(&mono.scores(), &sharded.scores(), &format!("{kernel}"));
    }
}

#[test]
fn boxcar_pair_one_ulp_past_the_bandwidth_shares_a_shard() {
    // Nodes 0 and 2 sit at squared distance 1 + 2⁻⁵² under a boxcar of
    // h = 1: √d²/h rounds to 1, so their weight is 1 and they form one
    // component. Node 2 is anchored only through that weight.
    let points = Matrix::from_rows(&[&[0.0, 0.0], &[5.0, 0.0], &[1.0, 2f64.powi(-26)]]).unwrap();
    let labels = [0.0, 1.0];
    let config = EngineConfig::new(Kernel::Boxcar, 1.0).workers(1);
    let sharded = ShardedEngine::fit(&points, &labels, config.clone()).unwrap();
    assert_eq!(sharded.n_shards(), 2);
    assert_eq!(sharded.plan().shards()[0].members(), &[0, 2]);
    let mono = ServingEngine::fit(&points, &labels, config).unwrap();
    assert_scores_bitwise(&mono.scores(), &sharded.scores(), "boxcar ulp pair");
}
