//! The shard-decomposed serving engine: per-component fitting, epoch
//! snapshot/swap label folding, global Eq. 6 querying.
//!
//! # Why sharding is exact
//!
//! Both criterion systems are block-diagonal across connected components
//! of the kernel graph (see [`crate::shard`]), and every cross-component
//! weight is *exactly* `0.0` — compact kernels truncate to zero, and the
//! component relation is defined by `w > 0`. Summing a run of exact
//! zeros into a non-negative accumulator never changes its bits, so the
//! full-graph degrees, the per-block right-hand sides, and the dense
//! factorization recurrences all produce bit-identical values whether
//! the zeros are present (monolithic, interleaved system) or absent
//! (per-shard systems). The kernel row of the out-of-sample extension is
//! **not** block-diagonal — a Gaussian query sees every node — so
//! prediction runs over the globally reassembled score matrix through
//! the same [`crate::extend::QueryPlane`] code path as the monolithic
//! engine. Net: [`ShardedEngine`] predictions are bitwise-identical to
//! [`ServingEngine`] under the direct solver route (iterative backends
//! have a *global* stopping criterion, so they agree only to solver
//! tolerance).
//!
//! # Fitting without the global matrix
//!
//! [`ShardedEngine::fit`] never builds the `N × N` kernel matrix. The
//! plan comes from the graph itself
//! ([`ShardPlan::from_graph`]): one spatial index is built per fit, every
//! node runs a radius query at the kernel's support radius, and a pair is
//! an edge iff its kernel weight is `> 0.0` — the dense assembly's own
//! test on the same distance bits, so the plan equals
//! `ShardPlan::new(&graph.weights()?, n)` exactly. The same index then
//! serves the index-backed query paths. Anchoring is read off the plan: a
//! shard with no labeled member fails the fit with the monolithic
//! engine's [`gssl::Error::UnanchoredUnlabeled`], before any shard is
//! fitted. No check is lost: [`KernelGraph::fit`] validates coordinates
//! and bandwidth, and each shard's fit still validates and
//! anchor-checks its own weight block, which holds every nonzero weight
//! of its members. Fit cost is `O(N·k)` for the plan (`k` = nodes per
//! support ball) plus `O(s³)` per shard of `s` nodes, and memory is
//! `O(N + Σ s²)`.
//!
//! # Epoch protocol
//!
//! Readers never block on writers. The fitted state lives in an
//! immutable [`EpochModel`] behind `RwLock<Arc<_>>`; `predict_batch`
//! clones the `Arc` under a brief read lock and serves the whole batch
//! from that pinned epoch. A label fold takes the single writer mutex,
//! deep-clones *only the affected shard's engine*, folds the rank-1
//! update into the clone, reassembles a fresh global score matrix, and
//! publishes a new epoch whose unaffected shards share the previous
//! epoch's engines by `Arc`. In-flight batches keep serving the old
//! epoch until they finish; the swap is a pointer store.

use crate::config::EngineConfig;
use crate::engine::ServingEngine;
use crate::error::{Error, Result};
use crate::extend::QueryPlane;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::shard::ShardPlan;
use crate::types::{Prediction, QueryPoint};
use gssl_graph::KernelGraph;
use gssl_index::{NeighborSearch, SpatialIndex};
use gssl_linalg::Matrix;
use gssl_runtime::Executor;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::config::QueryPath;

/// One immutable published generation of the fitted state: the per-shard
/// engines plus the globally reassembled score matrix they imply.
#[derive(Debug)]
pub(crate) struct EpochModel {
    /// Monotone epoch counter (1 after fit, +1 per fold).
    pub(crate) id: u64,
    /// One fitted engine per shard, in plan order. Unchanged shards are
    /// shared with the previous epoch via `Arc`.
    pub(crate) engines: Vec<Arc<ServingEngine>>,
    /// Global `N × k` scores scattered from the shard engines.
    pub(crate) scores: Matrix,
}

/// Shard-decomposed serving engine: one [`ServingEngine`] per graph
/// component, fitted in parallel, queried through the same Eq. 6 plane
/// as the monolithic engine, updated by epoch snapshot/swap.
///
/// ```
/// use gssl_graph::Kernel;
/// use gssl_linalg::Matrix;
/// use gssl_serve::{EngineConfig, QueryPoint, ShardedEngine};
/// # fn main() -> Result<(), gssl_serve::Error> {
/// // Two well-separated 1-D clusters under a compact kernel: two shards.
/// let points = Matrix::from_rows(&[&[0.0], &[10.0], &[0.4], &[10.4]])
///     .map_err(gssl_serve::Error::Linalg)?;
/// let engine = ShardedEngine::fit(
///     &points,
///     &[0.0, 1.0],
///     EngineConfig::new(Kernel::Epanechnikov, 1.0),
/// )?;
/// assert_eq!(engine.n_shards(), 2);
/// let out = engine.predict_batch(&[QueryPoint::new(vec![0.2])])?;
/// assert_eq!(out[0].class, 0);
/// // Folding a label publishes a new epoch; readers never block.
/// engine.observe_label(2, 0.0)?;
/// assert_eq!(engine.epoch(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    config: EngineConfig,
    /// Global kernel graph over all `N` points (prediction needs the full
    /// kernel row; it is not block-diagonal).
    graph: KernelGraph,
    /// Global spatial index for the index-backed query paths.
    index: Option<SpatialIndex>,
    executor: Executor,
    multiclass: bool,
    class_count: usize,
    plan: ShardPlan,
    /// The published epoch; `predict_batch` pins it with an `Arc` clone.
    current: RwLock<Arc<EpochModel>>,
    /// Serializes label folds. Held only by writers; readers use the
    /// `RwLock` above and never wait on a fold in progress.
    writer: Mutex<()>,
    metrics: Mutex<ServeMetrics>,
}

impl ShardedEngine {
    /// Fits a binary sharded engine; the arguments and the labeled-first
    /// convention match [`ServingEngine::fit`]. Each graph component is
    /// fitted as its own task on the engine's executor, so independent
    /// factorizations overlap.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::fit`] — in particular [`Error::Core`] with the
    /// monolithic engine's [`gssl::Error::UnanchoredUnlabeled`] when a
    /// component has no labeled anchor, read off the shard plan *before*
    /// any shard is fitted.
    /// deterministic
    pub fn fit(points: &Matrix, labels: &[f64], config: EngineConfig) -> Result<Self> {
        if let Some(i) = labels.iter().position(|y| !y.is_finite()) {
            return Err(Error::NonFiniteValue {
                context: "serve.fit labels",
                index: i,
            });
        }
        let targets = Matrix::from_fn(labels.len(), 1, |i, _| labels[i]);
        Self::fit_targets(points, targets, false, 2, config)
    }

    /// Fits a multiclass sharded engine via one-vs-rest, matching
    /// [`ServingEngine::fit_multiclass`].
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::fit`], plus [`Error::InvalidLabel`] when
    /// `class_count < 2` or a class label is out of range.
    /// deterministic
    pub fn fit_multiclass(
        points: &Matrix,
        class_labels: &[usize],
        class_count: usize,
        config: EngineConfig,
    ) -> Result<Self> {
        if class_count < 2 {
            return Err(Error::InvalidLabel {
                message: format!("class_count must be at least 2, got {class_count}"),
            });
        }
        if let Some(&bad) = class_labels.iter().find(|&&c| c >= class_count) {
            return Err(Error::InvalidLabel {
                message: format!("class label {bad} out of range for {class_count} classes"),
            });
        }
        let targets = Matrix::from_fn(class_labels.len(), class_count, |i, j| {
            if class_labels[i] == j {
                1.0
            } else {
                0.0
            }
        });
        Self::fit_targets(points, targets, true, class_count, config)
    }

    fn fit_targets(
        points: &Matrix,
        initial_targets: Matrix,
        multiclass: bool,
        class_count: usize,
        config: EngineConfig,
    ) -> Result<Self> {
        config.validate()?;
        let n = initial_targets.rows();
        let total = points.rows();
        if n == 0 {
            return Err(Error::InvalidLabel {
                message: "at least one labeled point is required".to_owned(),
            });
        }
        if n > total {
            return Err(Error::InvalidLabel {
                message: format!("{n} labels supplied for {total} points"),
            });
        }

        let executor = Executor::with_workers(config.workers);
        let graph = KernelGraph::fit(points.clone(), config.kernel, config.bandwidth)?;
        // One index serves both the plan and the index-backed query paths.
        // The plan's components come from support-radius queries, so no
        // N × N weight matrix is ever built; anchoring is read off the
        // plan before any shard is fitted, with the monolithic engine's
        // error. Each shard's fit still validates its own weight block —
        // which holds every nonzero weight of its members.
        let index = SpatialIndex::build(points)?;
        let plan = ShardPlan::from_graph(&graph, &index, n)?;
        plan.require_anchored(n)?;
        let index = (config.query_path != QueryPath::Dense).then_some(index);

        // One task per shard: component sizes are wildly uneven, so
        // width-1 claims keep a large component from queueing small ones
        // behind it. Per-shard engines are sequential (the parallelism is
        // across shards) and always dense-path (they are never queried
        // directly — the global plane owns the index).
        let shard_config = config.clone().workers(1).query_path(QueryPath::Dense);
        let engines = executor.map_tasks(plan.shards(), |_, shard| {
            let shard_points = shard.extract_rows(points);
            let shard_targets = shard.extract_labeled_rows(&initial_targets, shard.n_labeled());
            ServingEngine::fit_internal(
                &shard_points,
                shard_targets,
                multiclass,
                class_count,
                shard_config.clone(),
            )
            .map(Arc::new)
        })?;

        let k = initial_targets.cols();
        let scores = scatter_scores(total, k, &plan, &engines)?;
        let mut metrics = ServeMetrics::default();
        for _ in 0..plan.n_shards() {
            metrics.record_factorization();
        }
        Ok(ShardedEngine {
            config,
            graph,
            index,
            executor,
            multiclass,
            class_count,
            plan,
            current: RwLock::new(Arc::new(EpochModel {
                id: 1,
                engines,
                scores,
            })),
            writer: Mutex::new(()),
            metrics: Mutex::new(metrics),
        })
    }

    // ------------------------------------------------------------------
    // Query path
    // ------------------------------------------------------------------

    /// Scores a batch of out-of-sample queries against the current epoch.
    ///
    /// The epoch is pinned with one `Arc` clone under a brief read lock,
    /// so a concurrent label fold never tears a batch: every query in the
    /// batch sees the same generation. The evaluation itself is the exact
    /// [`QueryPlane`] code the monolithic engine runs, over the globally
    /// reassembled score matrix.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::predict_batch`].
    /// hot
    /// complexity: O(b * n * c)
    /// deterministic
    pub fn predict_batch(&self, queries: &[QueryPoint]) -> Result<Vec<Prediction>> {
        let model = self.current_model();
        let plane = QueryPlane {
            graph: &self.graph,
            index: self.index.as_ref(),
            scores: &model.scores,
            config: &self.config,
            multiclass: self.multiclass,
        };
        let outcome = plane.predict_batch(&self.executor, queries)?;
        self.lock_metrics()
            .record_batch(&outcome.latencies, outcome.batch_seconds);
        Ok(outcome.predictions)
    }

    // ------------------------------------------------------------------
    // Epoch folds
    // ------------------------------------------------------------------

    /// Folds a newly observed binary label into the shard that owns
    /// `node` and publishes a new epoch.
    ///
    /// Only the affected shard's engine is cloned and updated (its rank-1
    /// chain, residual guard and periodic refactor all apply unchanged on
    /// the shard-local system); every other shard is shared with the
    /// previous epoch by reference. Readers serving the old epoch are
    /// never blocked — the publish is a pointer swap.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::observe_label`], with node indices reported in
    /// global coordinates.
    pub fn observe_label(&self, node: usize, y: f64) -> Result<()> {
        if self.multiclass {
            return Err(Error::InvalidLabel {
                message: "engine was fitted for multiclass labels; use observe_class_label"
                    .to_owned(),
            });
        }
        if !y.is_finite() {
            return Err(Error::NonFiniteValue {
                context: "serve.observe_label target",
                index: 0,
            });
        }
        self.fold_with(node, |engine, local| engine.observe_label(local, y))
    }

    /// Multiclass counterpart of [`ShardedEngine::observe_label`].
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::observe_class_label`], with node indices
    /// reported in global coordinates.
    pub fn observe_class_label(&self, node: usize, class: usize) -> Result<()> {
        if !self.multiclass {
            return Err(Error::InvalidLabel {
                message: "engine was fitted for binary labels; use observe_label".to_owned(),
            });
        }
        if class >= self.class_count {
            return Err(Error::InvalidLabel {
                message: format!(
                    "class {class} out of range for {} classes",
                    self.class_count
                ),
            });
        }
        self.fold_with(node, |engine, local| {
            engine.observe_class_label(local, class)
        })
    }

    fn fold_with<F>(&self, node: usize, apply: F) -> Result<()>
    where
        F: FnOnce(&mut ServingEngine, usize) -> Result<()>,
    {
        if node >= self.n_nodes() {
            return Err(Error::UnknownNode { node });
        }
        let shard_id = self
            .plan
            .shard_of(node)
            .ok_or(Error::UnknownNode { node })?;
        let local = self.plan.shards()[shard_id]
            .local_index_of(node)
            .ok_or_else(|| Error::Internal {
                message: format!("node {node} missing from shard {shard_id} membership"),
            })?;

        // One writer at a time; readers keep cloning the old epoch Arc.
        let _guard = self.lock_writer();
        let model = self.current_model();
        if model.engines[shard_id].labeled_mask()[local] {
            return Err(Error::AlreadyLabeled { node });
        }

        // Copy-on-write: deep-clone only the affected shard's engine and
        // fold the label into the clone on its shard-local index.
        let mut engine = ServingEngine::clone(&model.engines[shard_id]);
        apply(&mut engine, local)?;

        // Reassemble the global scores: copy the previous epoch's matrix
        // and overwrite only the updated shard's rows.
        let mut scores = model.scores.clone();
        let members = self.plan.shards()[shard_id].members();
        let shard_scores = engine.scores();
        for (local_row, &global_row) in members.iter().enumerate() {
            for c in 0..scores.cols() {
                scores.set(global_row, c, shard_scores.get(local_row, c));
            }
        }

        let mut engines = model.engines.clone();
        engines[shard_id] = Arc::new(engine);
        let next = Arc::new(EpochModel {
            id: model.id + 1,
            engines,
            scores,
        });
        self.publish(next);
        self.lock_metrics().record_rank1_update();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The current epoch id (1 after fit, +1 per published fold).
    pub fn epoch(&self) -> u64 {
        self.current_model().id
    }

    /// Number of shards (connected components of the fitted graph).
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// The shard decomposition plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shard containing a global node, or `None` out of range.
    pub fn shard_of(&self, node: usize) -> Option<usize> {
        self.plan.shard_of(node)
    }

    /// Number of nodes in the fitted graph.
    pub fn n_nodes(&self) -> usize {
        self.graph.len()
    }

    /// Input dimension the engine was fitted on.
    pub fn dim(&self) -> usize {
        self.graph.dim()
    }

    /// Number of nodes whose label has been observed, over all shards.
    pub fn n_labeled(&self) -> usize {
        self.current_model()
            .engines
            .iter()
            .map(|e| e.n_labeled())
            .sum()
    }

    /// Number of classes (2 for a binary engine).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Whether the engine was fitted with one-vs-rest multiclass targets.
    pub fn is_multiclass(&self) -> bool {
        self.multiclass
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Worker count of the engine's executor (1 when sequential).
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// The global fitted kernel graph.
    pub fn graph(&self) -> &KernelGraph {
        &self.graph
    }

    /// A copy of the current epoch's global score matrix (`N × k`).
    pub fn scores(&self) -> Matrix {
        self.current_model().scores.clone()
    }

    /// Convenience: the binary score of one fitted node.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidLabel`] on a multiclass engine,
    /// [`Error::UnknownNode`] for an out-of-range index.
    pub fn score(&self, node: usize) -> Result<f64> {
        if self.multiclass {
            return Err(Error::InvalidLabel {
                message: "score() is binary-only; use scores() for multiclass".to_owned(),
            });
        }
        if node >= self.n_nodes() {
            return Err(Error::UnknownNode { node });
        }
        Ok(self.current_model().scores.get(node, 0))
    }

    /// Snapshot of the engine's latency/throughput counters. Per-fold
    /// factorization activity inside shards (guarded refactors) is
    /// tracked by the shard engines; this aggregate counts fit-time
    /// factorizations and published folds.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.lock_metrics().snapshot()
    }

    // ------------------------------------------------------------------
    // Crate-internal plumbing (snapshot codec, benches)
    // ------------------------------------------------------------------

    /// The current epoch, pinned. Readers hold the lock only long enough
    /// to clone the `Arc`.
    pub(crate) fn current_model(&self) -> Arc<EpochModel> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(&self, next: Arc<EpochModel>) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next;
    }

    fn lock_writer(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_metrics(&self) -> MutexGuard<'_, ServeMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rebuilds a sharded engine from restored parts: the global graph,
    /// index and score plane are recomputed/adopted without factoring
    /// anything — the per-shard engines arrive with their cached
    /// factorization state intact.
    pub(crate) fn from_restored(
        points: &Matrix,
        config: EngineConfig,
        multiclass: bool,
        class_count: usize,
        plan: ShardPlan,
        engines: Vec<ServingEngine>,
        scores: Matrix,
        epoch: u64,
    ) -> Result<Self> {
        config.validate()?;
        let executor = Executor::with_workers(config.workers);
        let graph = KernelGraph::fit(points.clone(), config.kernel, config.bandwidth)?;
        let index = if config.query_path == QueryPath::Dense {
            None
        } else {
            Some(SpatialIndex::build(points)?)
        };
        Ok(ShardedEngine {
            config,
            graph,
            index,
            executor,
            multiclass,
            class_count,
            plan,
            current: RwLock::new(Arc::new(EpochModel {
                id: epoch,
                engines: engines.into_iter().map(Arc::new).collect(),
                scores,
            })),
            writer: Mutex::new(()),
            metrics: Mutex::new(ServeMetrics::default()),
        })
    }
}

/// Scatters per-shard score rows into a global `total × k` matrix.
fn scatter_scores(
    total: usize,
    k: usize,
    plan: &ShardPlan,
    engines: &[Arc<ServingEngine>],
) -> Result<Matrix> {
    if engines.len() != plan.n_shards() {
        return Err(Error::Internal {
            message: format!(
                "{} shard engines for {} shards",
                engines.len(),
                plan.n_shards()
            ),
        });
    }
    let mut scores = Matrix::zeros(total, k);
    for (shard, engine) in plan.shards().iter().zip(engines) {
        let local = engine.scores();
        for (local_row, &global_row) in shard.members().iter().enumerate() {
            for c in 0..k {
                scores.set(global_row, c, local.get(local_row, c));
            }
        }
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gssl_graph::Kernel;

    /// Three well-separated 1-D clusters under a compact kernel: three
    /// shards, labeled-first nodes 0..3 one per cluster.
    fn clustered_points() -> Matrix {
        let coords = [0.0, 10.0, 20.0, 0.4, 10.3, 19.6, 0.7, 10.7, 20.3];
        Matrix::from_fn(coords.len(), 1, |i, _| coords[i])
    }

    fn compact_config() -> EngineConfig {
        EngineConfig::new(Kernel::Epanechnikov, 1.2).workers(1)
    }

    #[test]
    fn fit_discovers_components_and_serves() {
        let engine =
            ShardedEngine::fit(&clustered_points(), &[0.0, 1.0, 0.0], compact_config()).unwrap();
        assert_eq!(engine.n_shards(), 3);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.n_nodes(), 9);
        assert_eq!(engine.n_labeled(), 3);
        assert_eq!(engine.metrics().factorizations, 3);
        let out = engine
            .predict_batch(&[
                QueryPoint::new(vec![0.2]),
                QueryPoint::new(vec![10.2]),
                QueryPoint::new(vec![19.9]),
            ])
            .unwrap();
        assert_eq!(out[0].class, 0);
        assert_eq!(out[1].class, 1);
        assert_eq!(out[2].class, 0);
    }

    #[test]
    fn folds_touch_only_the_owning_shard() {
        let engine =
            ShardedEngine::fit(&clustered_points(), &[0.0, 1.0, 0.0], compact_config()).unwrap();
        let before = engine.current_model();
        engine.observe_label(4, 1.0).unwrap(); // node 4 lives in cluster 1
        assert_eq!(engine.epoch(), 2);
        let after = engine.current_model();
        let owner = engine.shard_of(4).unwrap();
        for shard_id in 0..engine.n_shards() {
            let shared = Arc::ptr_eq(&before.engines[shard_id], &after.engines[shard_id]);
            assert_eq!(
                shared,
                shard_id != owner,
                "shard {shard_id} sharing is wrong after folding into shard {owner}"
            );
        }
        // The pinned old epoch still serves its original scores.
        assert_eq!(before.id, 1);
        assert_eq!(engine.score(4).unwrap(), 1.0);
        assert_eq!(engine.n_labeled(), 4);
    }

    #[test]
    fn fold_validations_use_global_indices() {
        let engine =
            ShardedEngine::fit(&clustered_points(), &[0.0, 1.0, 0.0], compact_config()).unwrap();
        assert!(matches!(
            engine.observe_label(99, 1.0),
            Err(Error::UnknownNode { node: 99 })
        ));
        assert!(matches!(
            engine.observe_label(1, 1.0),
            Err(Error::AlreadyLabeled { node: 1 })
        ));
        assert!(matches!(
            engine.observe_label(5, f64::NAN),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            engine.observe_class_label(5, 0),
            Err(Error::InvalidLabel { .. })
        ));
        // Failed folds never publish.
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn unanchored_component_fails_like_monolithic() {
        // Third cluster (nodes 2, 5, 8) has no labeled node when only two
        // labels are supplied: the plan's anchoring check names node 2,
        // unlabeled index 0, exactly as the monolithic engine does.
        let want = Error::Core(gssl::Error::UnanchoredUnlabeled { unlabeled_index: 0 });
        let err = ShardedEngine::fit(&clustered_points(), &[0.0, 1.0], compact_config());
        assert_eq!(err.err(), Some(want.clone()));
        let mono = ServingEngine::fit(&clustered_points(), &[0.0, 1.0], compact_config());
        assert_eq!(mono.err(), Some(want));
        // Cluster 0 first (nodes 0, 1, 2), then clusters 1 and 2
        // interleaved: node 3 is the first stranded node whatever prefix
        // of cluster 0 is labeled, so its unlabeled index is 3 − n.
        let coords = [0.0, 0.4, 0.7, 10.0, 20.0, 10.3, 19.6, 10.7, 20.3];
        let points = Matrix::from_fn(coords.len(), 1, |i, _| coords[i]);
        for (labels, index) in [(&[0.0][..], 2), (&[0.0, 1.0], 1), (&[0.0, 1.0, 0.0], 0)] {
            let want = Error::Core(gssl::Error::UnanchoredUnlabeled {
                unlabeled_index: index,
            });
            let sharded = ShardedEngine::fit(&points, labels, compact_config()).err();
            let mono = ServingEngine::fit(&points, labels, compact_config()).err();
            assert_eq!(sharded, Some(want.clone()), "{} labels", labels.len());
            assert_eq!(mono, Some(want), "{} labels", labels.len());
        }
    }

    #[test]
    fn multiclass_sharded_engine_serves_and_folds() {
        let engine =
            ShardedEngine::fit_multiclass(&clustered_points(), &[0, 1, 2], 3, compact_config())
                .unwrap();
        assert!(engine.is_multiclass());
        assert_eq!(engine.class_count(), 3);
        assert!(engine.score(0).is_err());
        let out = engine
            .predict_batch(&[QueryPoint::new(vec![19.8])])
            .unwrap();
        assert_eq!(out[0].class, 2);
        engine.observe_class_label(8, 2).unwrap();
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.scores().get(8, 2), 1.0);
        assert!(matches!(
            engine.observe_class_label(7, 9),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            engine.observe_label(7, 1.0),
            Err(Error::InvalidLabel { .. })
        ));
    }

    #[test]
    fn fit_validations_match_monolithic() {
        let points = clustered_points();
        assert!(matches!(
            ShardedEngine::fit(&points, &[], compact_config()),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            ShardedEngine::fit(&points, &[0.0; 10], compact_config()),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            ShardedEngine::fit(&points, &[f64::NAN, 1.0, 0.0], compact_config()),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            ShardedEngine::fit_multiclass(&points, &[0, 1, 2], 1, compact_config()),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            ShardedEngine::fit_multiclass(&points, &[0, 9, 2], 3, compact_config()),
            Err(Error::InvalidLabel { .. })
        ));
    }
}
