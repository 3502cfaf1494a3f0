//! The serving engine: per-component fitting, epoch snapshot/swap label
//! folding, global Eq. 6 querying.
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
//! the zeros are present (one shard holding every node, an interleaved
//! system) or absent (one shard per component). The kernel row of the
//! out-of-sample extension is **not** block-diagonal — a Gaussian query
//! sees every node — so prediction runs over the globally reassembled
//! score matrix, whatever the plan. Net: component-plan predictions are
//! bitwise-identical to the one-shard plan's
//! ([`ServingEngine`](crate::ServingEngine)) under the direct solver
//! route (iterative backends stop on a per-system criterion, so they
//! agree only to solver tolerance).
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
//! shard with no labeled member fails the fit with the one-shard plan's
//! [`gssl::Error::UnanchoredUnlabeled`], before any shard is
//! fitted. No check is lost:
//! [`KernelGraph::fit`](gssl_graph::KernelGraph::fit) validates
//! coordinates and bandwidth, and each shard's fit still validates and
//! anchor-checks its own weight block, which holds every nonzero weight
//! of its members. Fit cost is `O(N·k)` for the plan (`k` = nodes per
//! support ball) plus `O(s³)` per shard of `s` nodes, and memory is
//! `O(N + Σ s²)`.
//!
//! # Epoch protocol
//!
//! Readers never block on writers. The fitted state lives in an
//! immutable epoch (the shard models plus the global scores) behind
//! `RwLock<Arc<_>>`; `predict_batch` clones the `Arc` under a brief read
//! lock and serves the whole batch from that pinned epoch. A label fold
//! takes the single writer mutex, deep-clones *only the affected shard*,
//! folds the rank-1 update into the clone, reassembles a fresh global
//! score matrix, and publishes a new epoch whose unaffected shards share
//! the previous epoch's models by `Arc`. In-flight batches keep serving
//! the old epoch until they finish; the swap is a pointer store.

use crate::config::{EngineConfig, QueryPath};
use crate::engine::{ShardModel, ShardStep};
use crate::error::{Error, Result};
use crate::extend::QueryPlane;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::shard::{Shard, ShardPlan};
use crate::types::{Prediction, QueryPoint};
use gssl_graph::KernelGraph;
use gssl_index::{NeighborSearch, SpatialIndex};
use gssl_linalg::{strict, Matrix};
use gssl_runtime::Executor;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// One immutable published generation of the fitted state: the shard
/// models plus the globally reassembled score matrix they imply.
#[derive(Debug)]
pub(crate) struct EpochModel {
    /// Monotone epoch counter (1 after fit, +1 per fold or refit).
    pub(crate) id: u64,
    /// One fitted model per shard, in plan order. Unchanged shards are
    /// shared with the previous epoch via `Arc`.
    pub(crate) shards: Vec<Arc<ShardModel>>,
    /// Global `N × k` scores scattered from the shard models.
    pub(crate) scores: Matrix,
}

/// The serving engine: one fitted model per graph component, fitted as
/// parallel tasks, queried through one Eq. 6 plane over the global
/// scores, updated by epoch snapshot/swap.
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
    /// Fits a binary engine: `points` are all `N` coordinates (labeled
    /// first), `labels` the first `n` observations under the `{0, 1}`
    /// convention (any finite reals are accepted; only the `class` field
    /// of predictions assumes the convention). Each graph component is
    /// fitted as its own task on the engine's executor, so independent
    /// factorizations overlap.
    ///
    /// Costs one factorization per shard: `O(s³)` for a shard of `s`
    /// nodes.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] for out-of-domain configuration;
    /// * [`Error::InvalidLabel`] when no labels (or more labels than
    ///   points) are supplied;
    /// * [`Error::NonFiniteValue`] for NaN/infinite labels or coordinates;
    /// * [`Error::Core`] carrying [`gssl::Error::UnanchoredUnlabeled`]
    ///   when a component has no labeled anchor (the criterion system
    ///   would be singular), read off the shard plan *before* any shard
    ///   is fitted.
    ///
    /// deterministic
    pub fn fit(points: &Matrix, labels: &[f64], config: EngineConfig) -> Result<Self> {
        Self::fit_labels(points, labels, config, false)
    }

    /// [`ShardedEngine::fit`] on the component plan, or on the one-shard
    /// plan when `single`.
    pub(crate) fn fit_labels(
        points: &Matrix,
        labels: &[f64],
        config: EngineConfig,
        single: bool,
    ) -> Result<Self> {
        if let Some(i) = labels.iter().position(|y| !y.is_finite()) {
            return Err(Error::NonFiniteValue {
                context: "serve.fit labels",
                index: i,
            });
        }
        let targets = Matrix::from_fn(labels.len(), 1, |i, _| labels[i]);
        Self::fit_targets(points, targets, false, 2, config, single)
    }

    /// Fits a multiclass engine via one-vs-rest: class labels become
    /// one-hot target rows and every class column shares its shard's
    /// single cached factorization (the system depends only on the graph,
    /// not on the targets).
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
        Self::fit_classes(points, class_labels, class_count, config, false)
    }

    /// [`ShardedEngine::fit_multiclass`] on the component plan, or on the
    /// one-shard plan when `single`.
    pub(crate) fn fit_classes(
        points: &Matrix,
        class_labels: &[usize],
        class_count: usize,
        config: EngineConfig,
        single: bool,
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
        Self::fit_targets(points, targets, true, class_count, config, single)
    }

    fn fit_targets(
        points: &Matrix,
        initial_targets: Matrix,
        multiclass: bool,
        class_count: usize,
        config: EngineConfig,
        single: bool,
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

        // One executor drives batch prediction and the fit's tasks;
        // `workers == 0` means host parallelism, `1` sequential.
        let executor = Executor::with_workers(config.workers);
        let graph = KernelGraph::fit(points.clone(), config.kernel, config.bandwidth)?;
        let index_path = config.query_path != QueryPath::Dense;
        let (plan, index) = if single {
            // The one-shard plan needs no component search; the
            // index-backed query paths pay for the tree build here, the
            // dense path skips it.
            let index = index_path.then(|| SpatialIndex::build(points));
            (ShardPlan::single(total, n), index.transpose()?)
        } else {
            // One index serves both the plan and the index-backed query
            // paths. The plan's components come from support-radius
            // queries, so no N × N weight matrix is ever built; anchoring
            // is read off the plan before any shard is fitted. Each
            // shard's fit still validates its own weight block — which
            // holds every nonzero weight of its members.
            let index = SpatialIndex::build(points)?;
            let plan = ShardPlan::from_graph(&graph, &index, n)?;
            plan.require_anchored(n)?;
            (plan, index_path.then_some(index))
        };

        let (shards, metrics) =
            each_shard(&executor, &config, &plan, plan.shards(), |shard, step| {
                let shard_targets = shard.extract_labeled_rows(&initial_targets, shard.n_labeled());
                ShardModel::fit(shard.extract_rows(points), shard_targets, step)
            })?;
        let scores = scatter_scores(total, initial_targets.cols(), &plan, &shards);
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
                shards,
                scores,
            })),
            writer: Mutex::new(()),
            metrics: Mutex::new(metrics),
        })
    }

    // ------------------------------------------------------------------
    // Query path
    // ------------------------------------------------------------------

    /// Scores a batch of out-of-sample queries against the current epoch,
    /// sharded across the engine's executor.
    ///
    /// The epoch is pinned with one `Arc` clone under a brief read lock,
    /// so a concurrent label fold never tears a batch: every query in the
    /// batch sees the same generation. Under [`QueryPath::Dense`] each
    /// query costs `O(N·d)` for its kernel row plus `O(N·k)` for the
    /// weighted average of Eq. 6; the index-backed paths replace both
    /// with a sublinear tree search and `O(k)` neighbor weights. No
    /// factorization, no solve either way. Latency and throughput are
    /// recorded in [`ShardedEngine::metrics`].
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidQuery`] on a dimension mismatch;
    /// * [`Error::NonFiniteValue`] for NaN/infinite coordinates (always
    ///   checked, with `index` flattened as `query · dim + coordinate`);
    /// * [`Error::ZeroKernelMass`] when a query sees zero total kernel
    ///   weight (possible for compactly supported kernels such as boxcar,
    ///   and for [`QueryPath::KNearest`] when all `k` kept weights vanish).
    ///
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
    /// `node` with an exact rank-1 update of its cached inverse, and
    /// publishes a new epoch.
    ///
    /// Only the affected shard is cloned and updated (its rank-1 chain,
    /// residual guard `‖A f − b‖∞` and periodic `refactor_every` refactor
    /// all apply on the shard-local system, and every such event is
    /// counted in [`ShardedEngine::metrics`]); every other shard is
    /// shared with the previous epoch by reference. Readers serving the
    /// old epoch are never blocked — the publish is a pointer swap.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidLabel`] on a multiclass engine (use
    ///   [`ShardedEngine::observe_class_label`]);
    /// * [`Error::UnknownNode`] / [`Error::AlreadyLabeled`] for bad node
    ///   indices, reported in global coordinates;
    /// * [`Error::NonFiniteValue`] for a NaN/infinite label.
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
        self.fold_target(node, &[y])
    }

    /// Multiclass counterpart of [`ShardedEngine::observe_label`]: the
    /// class index becomes a one-hot target row and all one-vs-rest
    /// columns are updated through the same rank-1 identity.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::observe_label`], plus [`Error::InvalidLabel`]
    /// for an out-of-range class.
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
        let mut target = vec![0.0; self.class_count];
        target[class] = 1.0;
        self.fold_target(node, &target)
    }

    fn fold_target(&self, node: usize, target: &[f64]) -> Result<()> {
        let Some(shard_id) = self.plan.shard_of(node) else {
            return Err(Error::UnknownNode { node });
        };
        let local = self.plan.shards()[shard_id]
            .local_index_of(node)
            .ok_or_else(|| Error::Internal {
                message: format!("node {node} missing from shard {shard_id} membership"),
            })?;

        // One writer at a time; readers keep cloning the old epoch Arc.
        let _guard = self.lock_writer();
        let model = self.current_model();
        if model.shards[shard_id].labeled[local] {
            return Err(Error::AlreadyLabeled { node });
        }

        // Copy-on-write: deep-clone only the affected shard and fold the
        // label into the clone on its shard-local index.
        let mut shard = ShardModel::clone(&model.shards[shard_id]);
        let executor = shard_executor(&self.plan, &self.executor);
        let mut step = ShardStep::new(&self.config, &executor);
        shard.observe(local, target, &mut step)?;

        // Reassemble the global scores: copy the previous epoch's matrix
        // and overwrite only the updated shard's rows.
        let mut scores = model.scores.clone();
        scatter_rows(&mut scores, &self.plan.shards()[shard_id], &shard.scores);
        let mut shards = model.shards.clone();
        shards[shard_id] = Arc::new(shard);
        self.publish(Arc::new(EpochModel {
            id: model.id + 1,
            shards,
            scores,
        }));
        self.lock_metrics().merge(step.metrics);
        Ok(())
    }

    /// Rebuilds and refactors every shard from scratch for the current
    /// labeled set, discarding accumulated rank-1 drift, and publishes
    /// the result as a new epoch. Counted as one factorization per shard
    /// in [`ShardedEngine::metrics`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`] when a rebuilt system cannot be factored;
    /// nothing is published then.
    pub fn refit(&self) -> Result<()> {
        let _guard = self.lock_writer();
        let model = self.current_model();
        let (shards, metrics) = each_shard(
            &self.executor,
            &self.config,
            &self.plan,
            &model.shards,
            |shard, step| {
                let mut shard = ShardModel::clone(shard);
                shard.refit(step)?;
                Ok(shard)
            },
        )?;
        let scores = scatter_scores(self.n_nodes(), model.scores.cols(), &self.plan, &shards);
        self.publish(Arc::new(EpochModel {
            id: model.id + 1,
            shards,
            scores,
        }));
        self.lock_metrics().merge(metrics);
        Ok(())
    }

    /// The largest residual `‖A f − b‖∞` over the shards' cached systems
    /// — the quantity the post-fold guard compares against
    /// `residual_tolerance`. Zero (up to factorization accuracy) right
    /// after a refit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`] on a dimension mismatch (an internal
    /// invariant violation).
    pub fn residual(&self) -> Result<f64> {
        let mut worst = 0.0;
        for shard in &self.current_model().shards {
            let r = shard.residual(self.config.criterion)?;
            // `!(r <= worst)` also keeps a NaN residual.
            if !(r <= worst) {
                worst = r;
            }
        }
        Ok(worst)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The current epoch id (1 after fit, +1 per published fold or refit).
    pub fn epoch(&self) -> u64 {
        self.current_model().id
    }

    /// Number of shards (connected components of the fitted graph, or 1
    /// for [`ServingEngine`](crate::ServingEngine)).
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
            .shards
            .iter()
            .map(|s| s.n_labeled())
            .sum()
    }

    /// Number of still-unlabeled nodes, over all shards.
    pub fn n_unlabeled(&self) -> usize {
        self.n_nodes() - self.n_labeled()
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

    /// The global fitted kernel graph (points, kernel, bandwidth).
    pub fn graph(&self) -> &KernelGraph {
        &self.graph
    }

    /// A copy of the current epoch's global score matrix (`N × k`, one
    /// column per class; a binary engine has a single column).
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

    /// Snapshot of the engine's counters: fit-time and fold-time
    /// factorizations, rank-1 updates, guarded refactors, the latest
    /// factor report, and query latency and throughput.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.lock_metrics().snapshot()
    }

    // ------------------------------------------------------------------
    // Crate-internal plumbing (snapshot codec)
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

    /// Rebuilds an engine from restored parts: the global graph and index
    /// are recomputed without factoring anything — the shard models
    /// arrive with their cached factorization state intact.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] when the stored global scores are not bitwise
    /// the scatter of the shard scores, or the epoch cannot advance.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored(
        points: &Matrix,
        config: EngineConfig,
        multiclass: bool,
        class_count: usize,
        plan: ShardPlan,
        shards: Vec<ShardModel>,
        scores: Matrix,
        epoch: u64,
    ) -> Result<Self> {
        let shards: Vec<Arc<ShardModel>> = shards.into_iter().map(Arc::new).collect();
        let width = if multiclass { class_count } else { 1 };
        let scattered = scatter_scores(points.rows(), width, &plan, &shards);
        let same_bits = (scores.rows(), scores.cols()) == (points.rows(), width)
            && (scores.as_slice().iter())
                .zip(scattered.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits || epoch == u64::MAX {
            return Err(Error::Snapshot {
                message: format!("global scores or epoch {epoch} disagree with the shard records"),
            });
        }
        strict::check_finite_matrix("serve snapshot scores", &scores)?;
        // The stored worker count is untrusted input: never run more
        // threads than the host has (0 still means all of them). Outputs
        // are bitwise equal at any worker count, and `config` keeps the
        // stored value so a re-snapshot writes the same bytes.
        let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let executor = Executor::with_workers(config.workers.min(host));
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
                shards,
                scores,
            })),
            writer: Mutex::new(()),
            metrics: Mutex::new(ServeMetrics::default()),
        })
    }
}

/// The executor a shard's fit, folds and refits run on: the engine's own
/// when the plan has one shard (`map_tasks` then runs that shard on the
/// calling thread, so threads never nest), otherwise sequential, with the
/// parallelism across shards.
fn shard_executor(plan: &ShardPlan, executor: &Executor) -> Executor {
    if plan.n_shards() == 1 {
        executor.clone()
    } else {
        Executor::sequential()
    }
}

/// Runs `f` over `items`, one per shard in plan order, each as its own
/// task on `executor` — component sizes are wildly uneven, so width-1
/// claims keep a large component from queueing small ones behind it.
/// Returns the shard models and their merged metrics, in plan order.
fn each_shard<T, F>(
    executor: &Executor,
    config: &EngineConfig,
    plan: &ShardPlan,
    items: &[T],
    f: F,
) -> Result<(Vec<Arc<ShardModel>>, ServeMetrics)>
where
    T: Sync,
    F: Fn(&T, &mut ShardStep<'_>) -> Result<ShardModel> + Sync,
{
    let shard_executor = shard_executor(plan, executor);
    let done = executor.map_tasks(items, |_, item| {
        let mut step = ShardStep::new(config, &shard_executor);
        let model = f(item, &mut step)?;
        Ok::<_, Error>((Arc::new(model), step.metrics))
    })?;
    let mut metrics = ServeMetrics::default();
    let mut shards = Vec::with_capacity(done.len());
    for (model, work) in done {
        shards.push(model);
        metrics.merge(work);
    }
    Ok((shards, metrics))
}

/// Overwrites a shard's member rows of the global `N × k` scores with its
/// local score rows.
fn scatter_rows(scores: &mut Matrix, shard: &Shard, local: &Matrix) {
    for (local_row, &global_row) in shard.members().iter().enumerate() {
        for c in 0..scores.cols() {
            scores.set(global_row, c, local.get(local_row, c));
        }
    }
}

/// Scatters per-shard score rows into a global `total × k` matrix.
fn scatter_scores(total: usize, k: usize, plan: &ShardPlan, shards: &[Arc<ShardModel>]) -> Matrix {
    let mut scores = Matrix::zeros(total, k);
    for (shard, model) in plan.shards().iter().zip(shards) {
        scatter_rows(&mut scores, shard, &model.scores);
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServingEngine;
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

    type Fit = fn(&Matrix, &[f64], EngineConfig) -> Result<ShardedEngine>;
    type FitClasses = fn(&Matrix, &[usize], usize, EngineConfig) -> Result<ShardedEngine>;

    /// Both plans: one shard holding every node, and one shard per
    /// component.
    const PLANS: [(&str, Fit, FitClasses); 2] = [
        (
            "one shard",
            ServingEngine::fit,
            ServingEngine::fit_multiclass,
        ),
        (
            "components",
            ShardedEngine::fit,
            ShardedEngine::fit_multiclass,
        ),
    ];

    #[test]
    fn fit_validates_inputs() {
        let line = Matrix::from_fn(4, 1, |i, _| i as f64 * 0.3);
        let fixtures = [
            (line, EngineConfig::new(Kernel::Gaussian, 0.8).workers(1)),
            (clustered_points(), compact_config()),
        ];
        for (plan, fit, fit_classes) in PLANS {
            for (points, config) in &fixtures {
                let too_many = vec![0.0; points.rows() + 1];
                for labels in [&[][..], &too_many] {
                    assert!(
                        matches!(
                            fit(points, labels, config.clone()),
                            Err(Error::InvalidLabel { .. })
                        ),
                        "{plan}: {} labels",
                        labels.len()
                    );
                }
                assert!(
                    matches!(
                        fit(points, &[f64::NAN, 1.0], config.clone()),
                        Err(Error::NonFiniteValue { .. })
                    ),
                    "{plan}"
                );
                for (labels, count) in [(&[0, 1][..], 1), (&[0, 7], 3)] {
                    assert!(
                        matches!(
                            fit_classes(points, labels, count, config.clone()),
                            Err(Error::InvalidLabel { .. })
                        ),
                        "{plan}: {labels:?} of {count}"
                    );
                }
            }
        }
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
            let shared = Arc::ptr_eq(&before.shards[shard_id], &after.shards[shard_id]);
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
    fn observe_label_bookkeeping_and_errors() {
        for (plan, fit, _) in PLANS {
            let engine = fit(&clustered_points(), &[0.0, 1.0, 0.0], compact_config()).unwrap();
            assert_eq!(engine.n_labeled(), 3, "{plan}");
            assert_eq!(engine.n_unlabeled(), 6, "{plan}");
            // Node indices are global whatever the plan.
            assert!(matches!(
                engine.observe_label(99, 1.0),
                Err(Error::UnknownNode { node: 99 })
            ));
            assert!(matches!(
                engine.observe_label(1, 1.0),
                Err(Error::AlreadyLabeled { node: 1 })
            ));
            for y in [f64::NAN, f64::INFINITY] {
                assert!(matches!(
                    engine.observe_label(5, y),
                    Err(Error::NonFiniteValue { .. })
                ));
            }
            assert!(matches!(
                engine.observe_class_label(5, 0),
                Err(Error::InvalidLabel { .. })
            ));
            // Failed folds never publish.
            assert_eq!(engine.epoch(), 1, "{plan}");
            engine.observe_label(5, 1.0).unwrap();
            assert_eq!(engine.epoch(), 2, "{plan}");
            assert_eq!(engine.n_labeled(), 4, "{plan}");
            assert_eq!(engine.n_unlabeled(), 5, "{plan}");
            assert_eq!(engine.score(5).unwrap(), 1.0, "{plan}");
            assert!(matches!(
                engine.observe_label(5, 0.0),
                Err(Error::AlreadyLabeled { node: 5 })
            ));
            assert_eq!(engine.metrics().rank1_updates, 1, "{plan}");
        }
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
    fn multiclass_predictions_argmax_one_hot_targets() {
        for (plan, _, fit_classes) in PLANS {
            let engine = fit_classes(&clustered_points(), &[0, 1, 2], 3, compact_config()).unwrap();
            assert!(engine.is_multiclass(), "{plan}");
            assert_eq!(engine.class_count(), 3, "{plan}");
            assert!(engine.score(0).is_err(), "{plan}");
            let out = engine
                .predict_batch(&[
                    QueryPoint::new(vec![0.1]),
                    QueryPoint::new(vec![10.1]),
                    QueryPoint::new(vec![19.8]),
                ])
                .unwrap();
            for (q, p) in out.iter().enumerate() {
                assert_eq!(p.class, q, "{plan}: query {q}");
                assert_eq!(p.per_class.len(), 3, "{plan}");
                assert!((p.score - p.per_class[p.class]).abs() < 1e-15, "{plan}");
            }
            // Streaming a class label publishes an epoch and clamps the
            // one-hot row.
            engine.observe_class_label(8, 2).unwrap();
            assert_eq!(engine.epoch(), 2, "{plan}");
            assert_eq!(engine.scores().get(8, 2), 1.0, "{plan}");
            assert_eq!(engine.scores().get(8, 0), 0.0, "{plan}");
            assert!(matches!(
                engine.observe_class_label(7, 9),
                Err(Error::InvalidLabel { .. })
            ));
            assert!(matches!(
                engine.observe_label(7, 1.0),
                Err(Error::InvalidLabel { .. })
            ));
        }
    }
}
