//! The fit-once, query-many serving engine.
//!
//! `fit` pays the factorization cost of the chosen criterion once —
//! through the [`gssl_linalg::Factorization`] backend layer, either the
//! legacy direct route ([`EngineSolver::Direct`]: Cholesky/LU plus an
//! explicit cached inverse) or a [`gssl_linalg::SolverPolicy`] route
//! ([`EngineSolver::Auto`]) that may pick the iterative CG backend and
//! skip the inverse entirely — and caches the assembled system. After
//! that:
//!
//! * `predict_batch` answers out-of-sample queries with the paper's
//!   Nadaraya–Watson extension (Theorem II.1 / Eq. 6) — `O(N·d)` per
//!   query on the dense path, or `O(k)` kernel weights after a sublinear
//!   spatial-index search under the index-backed
//!   [`QueryPath`](crate::QueryPath)s — never touching a factorization;
//! * `observe_label` folds a newly revealed label into the cached inverse
//!   with an exact rank-1 (Sherman–Morrison family) update in `O(m²)`
//!   instead of refactoring in `O(m³)`, guarded by a residual check and a
//!   periodic full-refactor fallback.
//!
//! # Rank-1 update identities
//!
//! **Hard criterion** (Eq. 5). The cached system is `A = D₂₂ − W₂₂` over
//! the current unlabeled set, with inverse `B = A⁻¹`. When node `j`
//! becomes labeled, the new system is exactly `A` with row and column `j`
//! deleted — the degrees `D₂₂` are full-graph row sums and do not change.
//! The inverse of the deleted system over the survivors `S` is the
//! block-deletion identity (the Sherman–Morrison limit of sending the
//! `j`-th diagonal penalty to infinity):
//!
//! ```text
//! B' = B_SS − B_Sj B_jS / B_jj .
//! ```
//!
//! The right-hand side gains the new label's pull, `b'_a = b_a +
//! w(x_a, x_j) y_j`, and the updated scores are `f_S = B' b'`.
//!
//! **Soft criterion** (Eq. 3). The cached system is the full
//! `(n+m) × (n+m)` matrix `A = V + λL`. Labeling node `i` changes `V` by
//! `e_i e_iᵀ` — a textbook rank-1 perturbation — so
//!
//! ```text
//! B' = B − (B e_i)(e_iᵀ B) / (1 + B_ii) ,
//! ```
//!
//! the right-hand side gains `y_i` at row `i`, and `f = B' b'`.
//!
//! Both identities are exact in real arithmetic; floating-point drift
//! across many updates is what the residual guard `‖A f − b‖∞ ≤ tol`
//! catches. Because the rank-1 bookkeeping maintains the cached system
//! and right-hand side *exactly*, the guard's fallback re-factors the
//! cached system in place instead of reassembling it from the graph.

use crate::config::{EngineConfig, EngineSolver, QueryPath, ServeCriterion};
use crate::error::{Error, Result};
use crate::extend::QueryPlane;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::types::{Prediction, QueryPoint};
use gssl::Problem;
use gssl_graph::{laplacian, KernelGraph, LaplacianKind};
use gssl_index::{NeighborSearch, SpatialIndex};
use gssl_linalg::{strict, Cholesky, Factorization, Lu, Matrix, SolverBackend};
use gssl_runtime::Executor;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fit-once, query-many serving engine for graph-based semi-supervised
/// prediction.
///
/// ```
/// use gssl_graph::Kernel;
/// use gssl_linalg::Matrix;
/// use gssl_serve::{EngineConfig, QueryPoint, ServingEngine};
/// # fn main() -> Result<(), gssl_serve::Error> {
/// // Four 1-D points; the first two labeled 0 and 1.
/// let points = Matrix::from_rows(&[&[0.0], &[1.0], &[0.2], &[0.8]])
///     .map_err(gssl_serve::Error::Linalg)?;
/// let mut engine = ServingEngine::fit(
///     &points,
///     &[0.0, 1.0],
///     EngineConfig::new(Kernel::Gaussian, 0.5),
/// )?;
/// let out = engine.predict_batch(&[QueryPoint::new(vec![0.1])])?;
/// assert_eq!(out[0].class, 0);
/// // A streamed label folds in without refactoring.
/// engine.observe_label(2, 0.0)?;
/// assert_eq!(engine.metrics().factorizations, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServingEngine {
    config: EngineConfig,
    graph: KernelGraph,
    weights: Matrix,
    degrees: gssl_linalg::Vector,
    multiclass: bool,
    class_count: usize,
    /// Per-node observed-label mask.
    labeled: Vec<bool>,
    /// Observed targets, `N × k` (rows of unlabeled nodes are zero).
    targets: Matrix,
    /// Global indices of the still-unlabeled nodes, in cached-system order.
    unlabeled: Vec<usize>,
    /// The cached criterion system (hard: `m × m`; soft: `N × N`). The
    /// rank-1 update paths maintain it *exactly* (deletion / diagonal
    /// bump), so a guarded refactor can re-factor it without reassembly.
    system: Matrix,
    /// Explicit inverse of `system`, maintained by rank-1 updates.
    /// `None` when the configured solver route selected an iterative
    /// backend (no factor to invert) or the system is empty.
    inverse: Option<Matrix>,
    /// Right-hand side matching `system`, one column per class.
    rhs: Matrix,
    /// Current fitted scores for all `N` nodes, one column per class.
    scores: Matrix,
    /// Spatial index over the fitted points, built once at fit time for
    /// the index-backed query paths. `None` under [`QueryPath::Dense`].
    index: Option<SpatialIndex>,
    executor: Executor,
    updates_since_refactor: usize,
    metrics: Mutex<ServeMetrics>,
}

impl ServingEngine {
    /// Fits a binary engine: `points` are all `N` coordinates (labeled
    /// first), `labels` the first `n` observations under the `{0, 1}`
    /// convention (any finite reals are accepted; only the `class` field
    /// of predictions assumes the convention).
    ///
    /// Costs one factorization: `O(m³)` for the hard criterion's
    /// `m × m` unlabeled block, `O(N³)` for the soft criterion's full
    /// system.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] for out-of-domain configuration;
    /// * [`Error::InvalidLabel`] when no labels (or more labels than
    ///   points) are supplied;
    /// * [`Error::NonFiniteValue`] for NaN/infinite labels or coordinates;
    /// * [`Error::Core`] when a graph component has no labeled anchor
    ///   (the criterion system would be singular).
    /// deterministic
    pub fn fit(points: &Matrix, labels: &[f64], config: EngineConfig) -> Result<Self> {
        if let Some(i) = labels.iter().position(|y| !y.is_finite()) {
            return Err(Error::NonFiniteValue {
                context: "serve.fit labels",
                index: i,
            });
        }
        let targets = Matrix::from_fn(labels.len(), 1, |i, _| labels[i]);
        Self::fit_internal(points, targets, false, 2, config)
    }

    /// Fits a multiclass engine via one-vs-rest: class labels become
    /// one-hot target rows and every class column shares the single cached
    /// factorization (the system depends only on the graph, not on the
    /// targets).
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::fit`], plus [`Error::InvalidLabel`] when
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
        Self::fit_internal(points, targets, true, class_count, config)
    }

    pub(crate) fn fit_internal(
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

        // One executor drives the whole pipeline: kernel-matrix assembly
        // here, the Auto solver policy's factorization, and predict_batch
        // sharding. `workers == 0` means host parallelism, `1` sequential.
        let executor = Executor::with_workers(config.workers);
        let graph = KernelGraph::fit(points.clone(), config.kernel, config.bandwidth)?;
        // The index-backed query paths pay the O(n log n) tree build once
        // here; the dense path skips it entirely.
        let index = if config.query_path == QueryPath::Dense {
            None
        } else {
            Some(SpatialIndex::build(points)?)
        };
        let weights = graph.weights_with(&executor)?;
        // Reuse the core crate's problem validation (symmetry, finiteness)
        // and its anchoring check: every component must contain a labeled
        // vertex or the criterion system is singular. Labeling only ever
        // grows the labeled set, so the check holds for the engine's whole
        // lifetime.
        let anchor_labels: Vec<f64> = (0..n).map(|i| initial_targets.get(i, 0)).collect();
        let problem = Problem::new(weights.clone(), anchor_labels)?;
        problem.require_anchored(0.0)?;
        let degrees = problem.degrees();

        let k = initial_targets.cols();
        let mut targets = Matrix::zeros(total, k);
        for i in 0..n {
            for c in 0..k {
                targets.set(i, c, initial_targets.get(i, c));
            }
        }
        let mut engine = ServingEngine {
            config,
            graph,
            weights,
            degrees,
            multiclass,
            class_count,
            labeled: (0..total).map(|i| i < n).collect(),
            targets,
            unlabeled: (n..total).collect(),
            system: Matrix::zeros(0, 0),
            inverse: None,
            rhs: Matrix::zeros(0, k),
            scores: Matrix::zeros(total, k),
            index,
            executor,
            updates_since_refactor: 0,
            metrics: Mutex::new(ServeMetrics::default()),
        };
        engine.rebuild()?;
        engine.lock_metrics().record_factorization();
        Ok(engine)
    }

    // ------------------------------------------------------------------
    // Query path
    // ------------------------------------------------------------------

    /// Scores a batch of out-of-sample queries, sharded across the
    /// engine's thread pool.
    ///
    /// Under [`QueryPath::Dense`] each query costs `O(N·d)` for its kernel
    /// row plus `O(N·k)` for the weighted average of Eq. 6; the
    /// index-backed paths replace both with a sublinear tree search and
    /// `O(k)` neighbor weights. No factorization, no solve either way.
    /// Latency and throughput are recorded in [`ServingEngine::metrics`].
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidQuery`] on a dimension mismatch;
    /// * [`Error::NonFiniteValue`] for NaN/infinite coordinates (always
    ///   checked, with `index` flattened as `query · dim + coordinate`);
    /// * [`Error::ZeroKernelMass`] when a query sees zero total kernel
    ///   weight (possible for compactly supported kernels such as boxcar,
    ///   and for [`QueryPath::KNearest`] when all `k` kept weights vanish).
    /// hot
    /// complexity: O(b * n * c)
    /// deterministic
    pub fn predict_batch(&self, queries: &[QueryPoint]) -> Result<Vec<Prediction>> {
        let outcome = self.query_plane().predict_batch(&self.executor, queries)?;
        self.lock_metrics()
            .record_batch(&outcome.latencies, outcome.batch_seconds);
        Ok(outcome.predictions)
    }

    /// The Eq. 6 query plane over this engine's fitted state. The sharded
    /// engine borrows the same type over its *globally* reassembled
    /// scores, so both engines answer queries through identical code.
    pub(crate) fn query_plane(&self) -> QueryPlane<'_> {
        QueryPlane {
            graph: &self.graph,
            index: self.index.as_ref(),
            scores: &self.scores,
            config: &self.config,
            multiclass: self.multiclass,
        }
    }

    // ------------------------------------------------------------------
    // Incremental labeling
    // ------------------------------------------------------------------

    /// Folds a newly observed binary label into the fitted state with an
    /// exact rank-1 update of the cached inverse — `O(m²)` (hard) or
    /// `O(N²·k)` (soft) instead of a cubic refit.
    ///
    /// After the update, the residual guard `‖A f − b‖∞` and the periodic
    /// `refactor_every` counter decide whether a full refactorization is
    /// performed; both events are visible in [`ServingEngine::metrics`].
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidLabel`] on a multiclass engine (use
    ///   [`ServingEngine::observe_class_label`]);
    /// * [`Error::UnknownNode`] / [`Error::AlreadyLabeled`] for bad node
    ///   indices;
    /// * [`Error::NonFiniteValue`] for a NaN/infinite label.
    pub fn observe_label(&mut self, node: usize, y: f64) -> Result<()> {
        if self.multiclass {
            return Err(Error::InvalidLabel {
                message: "engine was fitted for multiclass labels; use observe_class_label"
                    .to_owned(),
            });
        }
        self.observe_target(node, vec![y])
    }

    /// Multiclass counterpart of [`ServingEngine::observe_label`]: the
    /// class index becomes a one-hot target row and all one-vs-rest
    /// columns are updated through the same rank-1 identity.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::observe_label`], plus [`Error::InvalidLabel`]
    /// for an out-of-range class.
    pub fn observe_class_label(&mut self, node: usize, class: usize) -> Result<()> {
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
        let mut target = vec![0.0; self.targets.cols()];
        target[class] = 1.0;
        self.observe_target(node, target)
    }

    fn observe_target(&mut self, node: usize, target: Vec<f64>) -> Result<()> {
        if node >= self.n_nodes() {
            return Err(Error::UnknownNode { node });
        }
        if self.labeled[node] {
            return Err(Error::AlreadyLabeled { node });
        }
        if let Some(pos) = target.iter().position(|t| !t.is_finite()) {
            return Err(Error::NonFiniteValue {
                context: "serve.observe_label target",
                index: pos,
            });
        }

        match self.config.criterion {
            ServeCriterion::Hard => self.rank1_hard(node, &target)?,
            ServeCriterion::Soft { .. } => self.rank1_soft(node, &target)?,
        }
        self.updates_since_refactor += 1;
        self.lock_metrics().record_rank1_update();

        let periodic = self.config.refactor_every > 0
            && self.updates_since_refactor >= self.config.refactor_every;
        if periodic || self.current_residual()? > self.config.residual_tolerance {
            // Only the factorization has drifted: the rank-1 bookkeeping
            // above kept `system` and `rhs` exact, so skip reassembly and
            // go straight to factoring the cached system.
            self.refactor_cached()?;
            self.lock_metrics().record_guarded_refactor();
        }
        strict::check_finite_matrix("serve.observe_label scores", &self.scores)?;
        Ok(())
    }

    /// Hard-criterion update: delete the labeled node from the cached
    /// `m × m` system via the inverse block-deletion identity.
    fn rank1_hard(&mut self, node: usize, target: &[f64]) -> Result<()> {
        let j = self
            .unlabeled
            .iter()
            .position(|&u| u == node)
            .ok_or_else(|| Error::Internal {
                message: format!("node {node} missing from unlabeled bookkeeping"),
            })?;
        let m = self.unlabeled.len();
        let k = self.targets.cols();

        self.labeled[node] = true;
        for (c, &t) in target.iter().enumerate() {
            self.targets.set(node, c, t);
            // Hard criterion clamps labeled scores to the observations.
            self.scores.set(node, c, t);
        }

        if m == 1 {
            // Last unlabeled node: the cached system becomes empty.
            self.unlabeled.clear();
            self.system = Matrix::zeros(0, 0);
            self.inverse = None;
            self.rhs = Matrix::zeros(0, k);
            return Ok(());
        }

        let keep: Vec<usize> = (0..m).filter(|&a| a != j).collect();
        // The freshly labeled node now pulls every surviving unlabeled row
        // through its edge weight: b'_a = b_a + w(x_a, x_node) · y.
        let mut new_rhs = Matrix::zeros(m - 1, k);
        for (a2, &a) in keep.iter().enumerate() {
            let w = self.weights.get(self.unlabeled[a], node);
            for c in 0..k {
                new_rhs.set(a2, c, self.rhs.get(a, c) + w * target[c]);
            }
        }
        // The shrunk system is the old one minus row/column j — degrees
        // are full-graph sums and unaffected by labeling. Maintained
        // exactly so guarded refactors can skip reassembly.
        let mut new_system = Matrix::zeros(m - 1, m - 1);
        for (a2, &a) in keep.iter().enumerate() {
            for (b2, &b) in keep.iter().enumerate() {
                new_system.set(a2, b2, self.system.get(a, b));
            }
        }

        let Some(inverse) = &self.inverse else {
            // Iterative backend: there is no explicit inverse to update.
            // The shrunk system above is exact, so re-solve it directly.
            self.unlabeled.remove(j);
            self.system = new_system;
            self.rhs = new_rhs;
            self.refactor_cached()?;
            self.lock_metrics().record_factorization();
            return Ok(());
        };

        let bjj = inverse.get(j, j);
        if !(bjj.abs() > f64::MIN_POSITIVE) {
            // Defensive: an SPD system cannot produce a zero diagonal in
            // its inverse, but fall back to a guarded refit rather than
            // dividing by (near-)zero.
            self.unlabeled.remove(j);
            self.rebuild()?;
            self.lock_metrics().record_guarded_refactor();
            return Ok(());
        }

        // B' = B_SS − B_Sj B_jS / B_jj over the surviving rows/columns.
        let mut new_inverse = Matrix::zeros(m - 1, m - 1);
        for (a2, &a) in keep.iter().enumerate() {
            let baj = inverse.get(a, j);
            for (b2, &b) in keep.iter().enumerate() {
                new_inverse.set(a2, b2, inverse.get(a, b) - baj * inverse.get(j, b) / bjj);
            }
        }

        let solution = new_inverse.matmul(&new_rhs)?;
        self.unlabeled.remove(j);
        for (a2, &ia) in self.unlabeled.iter().enumerate() {
            for c in 0..k {
                self.scores.set(ia, c, solution.get(a2, c));
            }
        }
        self.system = new_system;
        self.inverse = Some(new_inverse);
        self.rhs = new_rhs;
        Ok(())
    }

    /// Soft-criterion update: `V` gains `e_node e_nodeᵀ`, a textbook
    /// Sherman–Morrison rank-1 perturbation of the full system.
    fn rank1_soft(&mut self, node: usize, target: &[f64]) -> Result<()> {
        let total = self.n_nodes();
        // Defense in depth: the public observe path validates `node`, but
        // this update writes raw rows, so re-check the bound locally.
        if node >= total || target.len() != self.targets.cols() {
            return Err(Error::Internal {
                message: format!(
                    "rank1_soft: node {node} / target width {} out of shape ({total} nodes, {} classes)",
                    target.len(),
                    self.targets.cols()
                ),
            });
        }

        self.labeled[node] = true;
        for (c, &t) in target.iter().enumerate() {
            self.targets.set(node, c, t);
        }
        if let Some(pos) = self.unlabeled.iter().position(|&u| u == node) {
            self.unlabeled.remove(pos);
        }

        // The system/rhs updates are exact regardless of backend: V gains
        // e_node e_nodeᵀ and the right-hand side gains the target row.
        self.system
            .set(node, node, self.system.get(node, node) + 1.0);
        for (c, &t) in target.iter().enumerate() {
            self.rhs.set(node, c, self.rhs.get(node, c) + t);
        }

        let Some(inverse) = &self.inverse else {
            // Iterative backend: no explicit inverse — re-solve the
            // exactly-updated cached system directly.
            self.refactor_cached()?;
            self.lock_metrics().record_factorization();
            return Ok(());
        };

        let denom = 1.0 + inverse.get(node, node);
        if !(denom.abs() > f64::MIN_POSITIVE) {
            // Defensive: for the SPD system V + λL the denominator is
            // strictly greater than 1; never divide by (near-)zero.
            self.rebuild()?;
            self.lock_metrics().record_guarded_refactor();
            return Ok(());
        }

        // B' = B − (B e)(eᵀ B) / (1 + B_nn).
        let b_col = inverse.col(node);
        let b_row: Vec<f64> = inverse.row(node).to_vec();
        let mut new_inverse = Matrix::zeros(total, total);
        for a in 0..total {
            let ba = b_col[a];
            for b in 0..total {
                new_inverse.set(a, b, inverse.get(a, b) - ba * b_row[b] / denom);
            }
        }
        self.scores = new_inverse.matmul(&self.rhs)?;
        self.inverse = Some(new_inverse);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Refactorization and diagnostics
    // ------------------------------------------------------------------

    /// Rebuilds and refactors the cached system from scratch for the
    /// current labeled set, discarding accumulated rank-1 drift. Counted
    /// as a factorization in [`ServingEngine::metrics`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`] when the rebuilt system cannot be
    /// factored.
    pub fn refit(&mut self) -> Result<()> {
        self.rebuild()?;
        self.lock_metrics().record_factorization();
        Ok(())
    }

    /// Factors a criterion system through the configured solver route, on
    /// the engine's executor (factors are bit-identical at any worker
    /// count, so this never perturbs served scores).
    fn factor_system(&self, system: &Matrix) -> Result<SolverBackend> {
        match (&self.config.solver, self.config.criterion) {
            // Legacy direct route: Cholesky for the SPD hard block, LU for
            // the soft full system, byte-for-byte the historical behavior.
            (EngineSolver::Direct, ServeCriterion::Hard) => Ok(SolverBackend::Cholesky(
                Cholesky::factor_with(system, &self.executor)?,
            )),
            (EngineSolver::Direct, ServeCriterion::Soft { .. }) => {
                Ok(SolverBackend::Lu(Lu::factor_with(system, &self.executor)?))
            }
            // Both criterion systems are SPD (the hard block by anchored
            // diagonal dominance, V + λL by construction), so the policy's
            // SPD route applies to either.
            (EngineSolver::Auto(policy), _) => Ok(policy
                .clone()
                .with_executor(self.executor.clone())
                .factor_spd(system)?),
        }
    }

    /// Full rebuild: reassemble the criterion system and right-hand side
    /// from the graph for the current labeled set, then factor and solve.
    fn rebuild(&mut self) -> Result<()> {
        match self.config.criterion {
            ServeCriterion::Hard => self.assemble_hard(),
            ServeCriterion::Soft { lambda } => self.assemble_soft(lambda)?,
        }
        self.refactor_cached()
    }

    /// Factors the *already assembled* cached system and re-solves the
    /// cached right-hand side, refreshing scores and (for direct backends)
    /// the explicit inverse. This is the guarded-fallback path: rank-1
    /// bookkeeping keeps `system`/`rhs` exact, so when only the
    /// factorization has drifted there is nothing to reassemble.
    fn refactor_cached(&mut self) -> Result<()> {
        let k = self.targets.cols();
        match self.config.criterion {
            ServeCriterion::Hard => {
                let m = self.unlabeled.len();
                if m == 0 {
                    self.inverse = None;
                } else {
                    let backend = self.factor_system(&self.system)?;
                    let solution = backend.solve_matrix(&self.rhs)?;
                    // After the solve so iterative backends report their
                    // iteration count and final residual.
                    self.lock_metrics().record_factor_report(backend.report());
                    self.inverse = if backend.kind().is_iterative() {
                        None
                    } else {
                        Some(backend.inverse()?)
                    };
                    for (a, &ia) in self.unlabeled.iter().enumerate() {
                        for c in 0..k {
                            self.scores.set(ia, c, solution.get(a, c));
                        }
                    }
                }
            }
            ServeCriterion::Soft { .. } => {
                let backend = self.factor_system(&self.system)?;
                self.scores = backend.solve_matrix(&self.rhs)?;
                self.lock_metrics().record_factor_report(backend.report());
                self.inverse = if backend.kind().is_iterative() {
                    None
                } else {
                    Some(backend.inverse()?)
                };
            }
        }
        self.updates_since_refactor = 0;
        strict::check_finite_matrix("serve cached scores", &self.scores)?;
        Ok(())
    }

    /// Assembles the hard system `A = D₂₂ − W₂₂` and its right-hand side
    /// over the current unlabeled set into the cache (no factorization).
    fn assemble_hard(&mut self) {
        let k = self.targets.cols();
        let m = self.unlabeled.len();
        let total = self.n_nodes();

        for i in 0..total {
            if self.labeled[i] {
                for c in 0..k {
                    self.scores.set(i, c, self.targets.get(i, c));
                }
            }
        }

        // Full-graph degrees on the diagonal.
        let mut system = Matrix::zeros(m, m);
        for (a, &ia) in self.unlabeled.iter().enumerate() {
            for (b, &ib) in self.unlabeled.iter().enumerate() {
                let w = self.weights.get(ia, ib);
                system.set(a, b, if a == b { self.degrees[ia] - w } else { -w });
            }
        }
        let mut rhs = Matrix::zeros(m, k);
        for (a, &ia) in self.unlabeled.iter().enumerate() {
            for j in 0..total {
                if self.labeled[j] {
                    let w = self.weights.get(ia, j);
                    for c in 0..k {
                        rhs.set(a, c, rhs.get(a, c) + w * self.targets.get(j, c));
                    }
                }
            }
        }
        self.system = system;
        self.rhs = rhs;
    }

    /// Assembles the soft full system `A = V + λL` (the literal Eq. 3
    /// matrix, matching `SoftCriterion::fit_full_system`) and its
    /// right-hand side into the cache (no factorization).
    fn assemble_soft(&mut self, lambda: f64) -> Result<()> {
        let k = self.targets.cols();
        let total = self.n_nodes();

        let l = laplacian(&self.weights, LaplacianKind::Unnormalized)?;
        let mut system = l.map(|x| lambda * x);
        let mut rhs = Matrix::zeros(total, k);
        for i in 0..total {
            if self.labeled[i] {
                system.set(i, i, system.get(i, i) + 1.0);
                for c in 0..k {
                    rhs.set(i, c, self.targets.get(i, c));
                }
            }
        }
        self.system = system;
        self.rhs = rhs;
        Ok(())
    }

    /// The current residual `‖A f − b‖∞` of the cached system — the
    /// quantity the post-update guard compares against
    /// `residual_tolerance`. Zero (up to factorization accuracy) right
    /// after a refit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`] on a dimension mismatch (an internal
    /// invariant violation).
    pub fn residual(&self) -> Result<f64> {
        self.current_residual()
    }

    fn current_residual(&self) -> Result<f64> {
        match self.config.criterion {
            ServeCriterion::Hard => {
                let m = self.unlabeled.len();
                if m == 0 {
                    return Ok(0.0);
                }
                let k = self.targets.cols();
                let f = Matrix::from_fn(m, k, |a, c| self.scores.get(self.unlabeled[a], c));
                Ok((&self.system.matmul(&f)? - &self.rhs).norm_max())
            }
            ServeCriterion::Soft { .. } => {
                Ok((&self.system.matmul(&self.scores)? - &self.rhs).norm_max())
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of nodes in the fitted graph.
    pub fn n_nodes(&self) -> usize {
        self.labeled.len()
    }

    /// Input dimension the engine was fitted on.
    pub fn dim(&self) -> usize {
        self.graph.dim()
    }

    /// Number of nodes whose label has been observed.
    pub fn n_labeled(&self) -> usize {
        self.labeled.iter().filter(|&&b| b).count()
    }

    /// Number of still-unlabeled nodes.
    pub fn n_unlabeled(&self) -> usize {
        self.unlabeled.len()
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

    /// The shared executor driving assembly, factorization and batch
    /// prediction.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The fitted kernel graph (points, kernel, bandwidth).
    pub fn graph(&self) -> &KernelGraph {
        &self.graph
    }

    /// Current fitted scores for all nodes (`N × k`, one column per
    /// class; a binary engine has a single column).
    pub fn scores(&self) -> &Matrix {
        &self.scores
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
        Ok(self.scores.get(node, 0))
    }

    /// Snapshot of the engine's latency/throughput counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.lock_metrics().snapshot()
    }

    fn lock_metrics(&self) -> MutexGuard<'_, ServeMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Snapshot plumbing (crate-internal)
    // ------------------------------------------------------------------

    /// Per-node observed-label mask (all `N` nodes).
    pub(crate) fn labeled_mask(&self) -> &[bool] {
        &self.labeled
    }

    /// Observed targets, `N × k` (unlabeled rows are zero).
    pub(crate) fn targets_matrix(&self) -> &Matrix {
        &self.targets
    }

    /// Global indices of the still-unlabeled nodes, in cached-system order.
    pub(crate) fn unlabeled_indices(&self) -> &[usize] {
        &self.unlabeled
    }

    /// The cached criterion system.
    pub(crate) fn system_matrix(&self) -> &Matrix {
        &self.system
    }

    /// The cached explicit inverse, when the backend keeps one.
    pub(crate) fn inverse_matrix(&self) -> Option<&Matrix> {
        self.inverse.as_ref()
    }

    /// The cached right-hand side.
    pub(crate) fn rhs_matrix(&self) -> &Matrix {
        &self.rhs
    }

    /// Rank-1 updates folded since the last full refactorization.
    pub(crate) fn updates_since_refactor(&self) -> usize {
        self.updates_since_refactor
    }

    /// Rehydrates an engine from snapshot state **without factoring**:
    /// the kernel graph, weight matrix and degree vector are recomputed
    /// from the points (cheap `O(n²·d)` assembly), while the expensive
    /// cached factorization artifacts (`system`, `inverse`, `rhs`,
    /// `scores`) are restored verbatim. This is the cold-start path that
    /// makes snapshot restore beat a refit.
    ///
    /// The caller (the snapshot codec) is trusted to pass shapes that are
    /// mutually consistent; the strict sanitizer still guards the scores.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot_parts(
        points: &Matrix,
        config: EngineConfig,
        multiclass: bool,
        class_count: usize,
        labeled: Vec<bool>,
        targets: Matrix,
        unlabeled: Vec<usize>,
        system: Matrix,
        inverse: Option<Matrix>,
        rhs: Matrix,
        scores: Matrix,
        updates_since_refactor: usize,
    ) -> Result<Self> {
        config.validate()?;
        let executor = Executor::with_workers(config.workers);
        let graph = KernelGraph::fit(points.clone(), config.kernel, config.bandwidth)?;
        let index = if config.query_path == QueryPath::Dense {
            None
        } else {
            Some(SpatialIndex::build(points)?)
        };
        let weights = graph.weights_with(&executor)?;
        // Same reduction as `Problem::degrees` on a dense weight matrix,
        // so restored degrees are bit-identical to the fitted ones.
        let degrees = weights.row_sums();
        strict::check_finite_matrix("serve snapshot scores", &scores)?;
        Ok(ServingEngine {
            config,
            graph,
            weights,
            degrees,
            multiclass,
            class_count,
            labeled,
            targets,
            unlabeled,
            system,
            inverse,
            rhs,
            scores,
            index,
            executor,
            updates_since_refactor,
            metrics: Mutex::new(ServeMetrics::default()),
        })
    }
}

impl Clone for ServingEngine {
    /// Deep-copies the fitted state (the epoch-swap path clones the
    /// affected shard before folding a label into it). The metrics
    /// counters are copied at their current values; the `Mutex` itself is
    /// fresh.
    fn clone(&self) -> Self {
        ServingEngine {
            config: self.config.clone(),
            graph: self.graph.clone(),
            weights: self.weights.clone(),
            degrees: self.degrees.clone(),
            multiclass: self.multiclass,
            class_count: self.class_count,
            labeled: self.labeled.clone(),
            targets: self.targets.clone(),
            unlabeled: self.unlabeled.clone(),
            system: self.system.clone(),
            inverse: self.inverse.clone(),
            rhs: self.rhs.clone(),
            scores: self.scores.clone(),
            index: self.index.clone(),
            executor: self.executor.clone(),
            updates_since_refactor: self.updates_since_refactor,
            metrics: Mutex::new(self.lock_metrics().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gssl_graph::Kernel;

    fn line_points(total: usize) -> Matrix {
        Matrix::from_fn(total, 1, |i, _| i as f64 * 0.3)
    }

    fn hard_config() -> EngineConfig {
        EngineConfig::new(Kernel::Gaussian, 0.8).workers(1)
    }

    #[test]
    fn fit_validates_inputs() {
        let points = line_points(4);
        assert!(matches!(
            ServingEngine::fit(&points, &[], hard_config()),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            ServingEngine::fit(&points, &[0.0; 5], hard_config()),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            ServingEngine::fit(&points, &[f64::NAN], hard_config()),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            ServingEngine::fit_multiclass(&points, &[0, 1], 1, hard_config()),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            ServingEngine::fit_multiclass(&points, &[0, 7], 3, hard_config()),
            Err(Error::InvalidLabel { .. })
        ));
    }

    #[test]
    fn predict_rejects_bad_queries() {
        let engine = ServingEngine::fit(&line_points(5), &[0.0, 1.0], hard_config()).unwrap();
        assert!(matches!(
            engine.predict_batch(&[QueryPoint::new(vec![0.0, 0.0])]),
            Err(Error::InvalidQuery { .. })
        ));
        let err = engine
            .predict_batch(&[QueryPoint::new(vec![0.1]), QueryPoint::new(vec![f64::NAN])])
            .unwrap_err();
        assert_eq!(
            err,
            Error::NonFiniteValue {
                context: "serve.predict query coordinates",
                index: 1
            }
        );
    }

    #[test]
    fn boxcar_far_query_has_zero_mass() {
        let config = EngineConfig::new(Kernel::Boxcar, 0.5).workers(1);
        let engine = ServingEngine::fit(&line_points(4), &[0.0, 1.0], config).unwrap();
        assert_eq!(
            engine.predict_batch(&[QueryPoint::new(vec![1e6])]),
            Err(Error::ZeroKernelMass { query_index: 0 })
        );
    }

    #[test]
    fn queries_never_refactor() {
        let engine = ServingEngine::fit(&line_points(8), &[0.0, 1.0], hard_config()).unwrap();
        let queries: Vec<QueryPoint> = (0..40)
            .map(|i| QueryPoint::new(vec![i as f64 * 0.05]))
            .collect();
        for _ in 0..5 {
            engine.predict_batch(&queries).unwrap();
        }
        let m = engine.metrics();
        assert_eq!(m.factorizations, 1);
        assert_eq!(m.queries, 200);
        assert_eq!(m.batches, 5);
        assert_eq!(m.latencies.len(), 200);
    }

    #[test]
    fn predictions_match_manual_extension() {
        let engine = ServingEngine::fit(&line_points(6), &[0.0, 1.0, 1.0], hard_config()).unwrap();
        let query = vec![0.77];
        let row = engine.graph().kernel_row(&query).unwrap();
        let mass: f64 = row.as_slice().iter().sum();
        let manual: f64 = row
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, w)| w * engine.scores().get(i, 0))
            .sum::<f64>()
            / mass;
        let out = engine.predict_batch(&[QueryPoint::new(query)]).unwrap();
        assert!((out[0].score - manual).abs() < 1e-14);
        assert_eq!(out[0].class, usize::from(manual >= 0.5));
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let points = Matrix::from_fn(30, 2, |i, j| ((i * 7 + j * 3) % 13) as f64 * 0.21);
        let labels: Vec<f64> = (0..6).map(|i| (i % 2) as f64).collect();
        let seq = ServingEngine::fit(&points, &labels, hard_config()).unwrap();
        let par = ServingEngine::fit(&points, &labels, hard_config().workers(4)).unwrap();
        let queries: Vec<QueryPoint> = (0..123)
            .map(|i| QueryPoint::new(vec![(i % 11) as f64 * 0.2, (i % 7) as f64 * 0.3]))
            .collect();
        let a = seq.predict_batch(&queries).unwrap();
        let b = par.predict_batch(&queries).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn observe_label_bookkeeping_and_errors() {
        let mut engine = ServingEngine::fit(&line_points(5), &[0.0, 1.0], hard_config()).unwrap();
        assert_eq!(engine.n_labeled(), 2);
        assert_eq!(engine.n_unlabeled(), 3);
        assert!(matches!(
            engine.observe_label(99, 1.0),
            Err(Error::UnknownNode { node: 99 })
        ));
        assert!(matches!(
            engine.observe_label(0, 1.0),
            Err(Error::AlreadyLabeled { node: 0 })
        ));
        assert!(matches!(
            engine.observe_label(3, f64::INFINITY),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            engine.observe_class_label(3, 0),
            Err(Error::InvalidLabel { .. })
        ));
        engine.observe_label(3, 1.0).unwrap();
        assert_eq!(engine.n_labeled(), 3);
        assert_eq!(engine.n_unlabeled(), 2);
        assert_eq!(engine.score(3).unwrap(), 1.0);
        assert!(matches!(
            engine.observe_label(3, 0.0),
            Err(Error::AlreadyLabeled { node: 3 })
        ));
        assert_eq!(engine.metrics().rank1_updates, 1);
    }

    #[test]
    fn labeling_every_node_empties_the_system() {
        let mut engine = ServingEngine::fit(&line_points(4), &[0.0, 1.0], hard_config()).unwrap();
        engine.observe_label(2, 1.0).unwrap();
        engine.observe_label(3, 0.0).unwrap();
        assert_eq!(engine.n_unlabeled(), 0);
        assert_eq!(engine.residual().unwrap(), 0.0);
        // Scores are exactly the observations now, and queries still work.
        assert_eq!(engine.score(2).unwrap(), 1.0);
        let out = engine.predict_batch(&[QueryPoint::new(vec![0.6])]).unwrap();
        assert!(out[0].score.is_finite());
        // Further updates keep erroring cleanly.
        assert!(matches!(
            engine.observe_label(2, 1.0),
            Err(Error::AlreadyLabeled { .. })
        ));
    }

    #[test]
    fn periodic_refactor_fallback_triggers() {
        let config = hard_config().refactor_every(1);
        let mut engine = ServingEngine::fit(&line_points(6), &[0.0, 1.0], config).unwrap();
        engine.observe_label(2, 1.0).unwrap();
        engine.observe_label(4, 0.0).unwrap();
        let m = engine.metrics();
        assert_eq!(m.rank1_updates, 2);
        assert_eq!(m.guarded_refactors, 2);
        assert_eq!(m.factorizations, 3); // initial + 2 guarded
    }

    #[test]
    fn explicit_refit_is_counted_and_idempotent() {
        let mut engine = ServingEngine::fit(&line_points(5), &[0.0, 1.0], hard_config()).unwrap();
        let before = engine.scores().clone();
        engine.refit().unwrap();
        assert!(engine.scores().approx_eq(&before, 1e-12));
        assert_eq!(engine.metrics().factorizations, 2);
    }

    #[test]
    fn factor_report_is_surfaced_in_metrics() {
        // Direct route: the report names the backend but carries no
        // iteration diagnostics.
        let engine = ServingEngine::fit(&line_points(6), &[0.0, 1.0], hard_config()).unwrap();
        let report = engine.metrics().last_factor.expect("fit factors once");
        assert_eq!(report.backend, gssl_linalg::BackendKind::DenseCholesky);
        assert_eq!(report.iterations, None);

        // Forced-iterative route: the post-solve report exposes the PCG
        // iteration count and final residual, so a cap hit is observable.
        let policy = gssl_linalg::SolverPolicy {
            direct_dim_cutoff: 0,
            density_threshold: 1.0,
            ..gssl_linalg::SolverPolicy::default()
        };
        let config = hard_config().solver(EngineSolver::Auto(policy));
        let mut engine = ServingEngine::fit(&line_points(6), &[0.0, 1.0], config).unwrap();
        let report = engine.metrics().last_factor.expect("fit factors once");
        assert!(report.backend.is_iterative());
        assert!(report.iterations.unwrap() >= 1);
        assert!(report.final_residual.unwrap().is_finite());

        // A refit refreshes the report.
        engine.refit().unwrap();
        assert!(engine.metrics().last_factor.unwrap().backend.is_iterative());
    }

    #[test]
    fn multiclass_predictions_argmax_one_hot_targets() {
        // Three well-separated 1-D clusters, one labeled point each.
        let coords: Vec<f64> = vec![0.0, 10.0, 20.0, 0.3, 10.3, 19.7];
        let points = Matrix::from_fn(6, 1, |i, _| coords[i]);
        let config = EngineConfig::new(Kernel::Gaussian, 1.0).workers(1);
        let mut engine = ServingEngine::fit_multiclass(&points, &[0, 1, 2], 3, config).unwrap();
        assert!(engine.is_multiclass());
        assert_eq!(engine.class_count(), 3);
        assert!(engine.score(0).is_err());
        let out = engine
            .predict_batch(&[
                QueryPoint::new(vec![0.1]),
                QueryPoint::new(vec![10.1]),
                QueryPoint::new(vec![19.9]),
            ])
            .unwrap();
        assert_eq!(out[0].class, 0);
        assert_eq!(out[1].class, 1);
        assert_eq!(out[2].class, 2);
        for p in &out {
            assert_eq!(p.per_class.len(), 3);
            assert!((p.score - p.per_class[p.class]).abs() < 1e-15);
        }
        // Streaming a class label works and clamps the one-hot row.
        engine.observe_class_label(5, 2).unwrap();
        assert_eq!(engine.scores().get(5, 2), 1.0);
        assert_eq!(engine.scores().get(5, 0), 0.0);
        assert!(matches!(
            engine.observe_class_label(4, 9),
            Err(Error::InvalidLabel { .. })
        ));
        assert!(matches!(
            engine.observe_label(4, 1.0),
            Err(Error::InvalidLabel { .. })
        ));
    }

    #[test]
    fn auto_solver_matches_direct_route() {
        // Small dense Gaussian graph: the policy picks Cholesky for the
        // hard criterion, so Auto and Direct must agree to rounding.
        let points = line_points(8);
        let labels = [0.0, 1.0, 1.0];
        let direct = ServingEngine::fit(&points, &labels, hard_config()).unwrap();
        let auto_cfg =
            hard_config().solver(EngineSolver::Auto(gssl_linalg::SolverPolicy::default()));
        let mut auto = ServingEngine::fit(&points, &labels, auto_cfg).unwrap();
        assert!(auto.scores().approx_eq(direct.scores(), 1e-10));

        let mut direct = direct;
        direct.observe_label(4, 1.0).unwrap();
        auto.observe_label(4, 1.0).unwrap();
        assert!(auto.scores().approx_eq(direct.scores(), 1e-10));
    }

    #[test]
    fn auto_solver_matches_direct_route_soft() {
        let points = line_points(8);
        let labels = [0.0, 1.0, 1.0];
        let soft = |solver: EngineSolver| {
            EngineConfig::new(Kernel::Gaussian, 0.8)
                .workers(1)
                .criterion(ServeCriterion::Soft { lambda: 0.3 })
                .solver(solver)
        };
        let mut direct = ServingEngine::fit(&points, &labels, soft(EngineSolver::Direct)).unwrap();
        let mut auto = ServingEngine::fit(
            &points,
            &labels,
            soft(EngineSolver::Auto(gssl_linalg::SolverPolicy::default())),
        )
        .unwrap();
        // Direct uses LU, Auto routes the SPD system through Cholesky.
        assert!(auto.scores().approx_eq(direct.scores(), 1e-8));
        direct.observe_label(5, 0.0).unwrap();
        auto.observe_label(5, 0.0).unwrap();
        assert!(auto.scores().approx_eq(direct.scores(), 1e-8));
    }

    #[test]
    fn auto_solver_iterative_backend_serves_sparse_graphs() {
        // A boxcar kernel on a long line yields a banded (sparse) hard
        // system: 134 unlabeled nodes at density « 25% routes the policy
        // to the CG backend, which keeps no explicit inverse.
        let total = 140;
        let points = line_points(total);
        let labels: Vec<f64> = (0..6).map(|i| (i % 2) as f64).collect();
        let config = EngineConfig::new(Kernel::Boxcar, 0.35).workers(1);
        let direct = ServingEngine::fit(&points, &labels, config.clone()).unwrap();
        let auto_cfg = config.solver(EngineSolver::Auto(gssl_linalg::SolverPolicy::default()));
        let mut auto = ServingEngine::fit(&points, &labels, auto_cfg).unwrap();
        assert!(auto.scores().approx_eq(direct.scores(), 1e-6));

        // Label arrival without an inverse: the exactly-maintained system
        // is re-solved and stays consistent with the direct twin.
        let mut direct = direct;
        direct.observe_label(70, 1.0).unwrap();
        auto.observe_label(70, 1.0).unwrap();
        assert!(auto.scores().approx_eq(direct.scores(), 1e-6));
        assert!(auto.residual().unwrap() < 1e-6);
    }

    #[test]
    fn guarded_refactor_reuses_cached_system() {
        // refactor_every(1) forces the guarded fallback after every
        // update; the fallback factors the rank-1-maintained cached
        // system without reassembly, so it must agree with an explicitly
        // refitted twin to tight tolerance.
        let mut engine = ServingEngine::fit(
            &line_points(7),
            &[0.0, 1.0],
            hard_config().refactor_every(1),
        )
        .unwrap();
        let mut twin = ServingEngine::fit(&line_points(7), &[0.0, 1.0], hard_config()).unwrap();
        for (node, y) in [(3, 1.0), (5, 0.0)] {
            engine.observe_label(node, y).unwrap();
            twin.observe_label(node, y).unwrap();
            twin.refit().unwrap();
            assert!(engine.scores().approx_eq(twin.scores(), 1e-10));
        }
    }

    /// A deterministic 2-D cloud in the unit square (same low-discrepancy
    /// recurrence as the benchmarks).
    fn plane_points(total: usize) -> Matrix {
        Matrix::from_fn(total, 2, |i, j| {
            (((i * 131 + j * 37 + 11) as f64) * 0.618_033_988_749_894_9).fract()
        })
    }

    fn plane_queries(count: usize) -> Vec<QueryPoint> {
        (0..count)
            .map(|q| {
                QueryPoint::new(vec![
                    (((q * 53 + 5) as f64) * 0.618_033_988_749_894_9).fract(),
                    (((q * 97 + 29) as f64) * 0.618_033_988_749_894_9).fract(),
                ])
            })
            .collect()
    }

    fn assert_agree(a: &[Prediction], b: &[Prediction], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for (qi, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.class, y.class, "{what}: class diverged at query {qi}");
            for (u, v) in x.per_class.iter().zip(&y.per_class) {
                assert!(
                    (u - v).abs() <= tol,
                    "{what}: query {qi} scores {u} vs {v} differ beyond {tol}"
                );
            }
        }
    }

    #[test]
    fn within_support_path_matches_dense_to_1e10() {
        // Compact kernel: every node outside the support ball has weight
        // exactly zero, so the indexed truncation and the dense row sum
        // the same non-zero terms (in different order).
        let points = plane_points(60);
        let labels = [0.0, 1.0, 0.0, 1.0];
        let dense_cfg = EngineConfig::new(Kernel::Epanechnikov, 0.9).workers(1);
        let dense = ServingEngine::fit(&points, &labels, dense_cfg.clone()).unwrap();
        let indexed = ServingEngine::fit(
            &points,
            &labels,
            dense_cfg.query_path(QueryPath::WithinSupport),
        )
        .unwrap();
        let queries = plane_queries(24);
        assert_agree(
            &dense.predict_batch(&queries).unwrap(),
            &indexed.predict_batch(&queries).unwrap(),
            1e-10,
            "within-support vs dense",
        );
    }

    #[test]
    fn within_support_keeps_boxcar_weight_one_ulp_past_the_bandwidth() {
        // d² = 1 + 2⁻⁵² lies one ulp beyond h² = 1, yet √d²/h rounds to
        // exactly 1, where the boxcar weight is still 1. A ball of radius
        // h would drop the only nonzero weight.
        let points = Matrix::from_rows(&[&[1.0, 2f64.powi(-26)]]).unwrap();
        let dense_cfg = EngineConfig::new(Kernel::Boxcar, 1.0).workers(1);
        let dense = ServingEngine::fit(&points, &[1.0], dense_cfg.clone()).unwrap();
        let indexed = ServingEngine::fit(
            &points,
            &[1.0],
            dense_cfg.query_path(QueryPath::WithinSupport),
        )
        .unwrap();
        let query = [QueryPoint::new(vec![0.0, 0.0])];
        let want = dense.predict_batch(&query).unwrap();
        assert_eq!(want[0].score, 1.0);
        assert_eq!(indexed.predict_batch(&query).unwrap(), want);
    }

    #[test]
    fn k_nearest_with_full_k_matches_dense_to_1e10() {
        // With k = n the truncation keeps every node, so even the
        // Gaussian kernel (unbounded support) must agree with the dense
        // path up to floating-point summation order.
        let points = plane_points(40);
        let labels = [0.0, 1.0, 1.0];
        let dense_cfg = EngineConfig::new(Kernel::Gaussian, 0.5).workers(1);
        let dense = ServingEngine::fit(&points, &labels, dense_cfg.clone()).unwrap();
        let indexed = ServingEngine::fit(
            &points,
            &labels,
            dense_cfg.query_path(QueryPath::KNearest { k: points.rows() }),
        )
        .unwrap();
        let queries = plane_queries(16);
        assert_agree(
            &dense.predict_batch(&queries).unwrap(),
            &indexed.predict_batch(&queries).unwrap(),
            1e-10,
            "k = n vs dense",
        );
    }

    #[test]
    fn truncated_k_nearest_matches_dense_on_compact_support() {
        // Two clusters one bandwidth can't bridge: the dense row is zero
        // outside the query's cluster, and k = cluster size keeps exactly
        // the nodes that can carry weight — the truncation is lossless.
        let per_cluster = 8;
        let points = Matrix::from_fn(2 * per_cluster, 2, |i, j| {
            let offset = if i % 2 == 0 { 0.0 } else { 10.0 };
            offset + (((i * 31 + j * 17 + 3) as f64) * 0.618_033_988_749_894_9).fract()
        });
        // Labeled-first convention: node 0 sits in cluster A, node 1 in B.
        let labels = [0.0, 1.0];
        let dense_cfg = EngineConfig::new(Kernel::Triangular, 1.4).workers(1);
        let dense = ServingEngine::fit(&points, &labels, dense_cfg.clone()).unwrap();
        let indexed = ServingEngine::fit(
            &points,
            &labels,
            dense_cfg.query_path(QueryPath::KNearest { k: per_cluster }),
        )
        .unwrap();
        let queries: Vec<QueryPoint> = (0..8)
            .map(|q| {
                let offset = if q % 2 == 0 { 0.0 } else { 10.0 };
                QueryPoint::new(vec![offset + 0.4, offset + 0.6])
            })
            .collect();
        let dense_out = dense.predict_batch(&queries).unwrap();
        assert_agree(
            &dense_out,
            &indexed.predict_batch(&queries).unwrap(),
            1e-10,
            "truncated k vs dense",
        );
        // The clusters really are separated: class follows the cluster.
        for (q, p) in dense_out.iter().enumerate() {
            assert_eq!(p.class, q % 2, "query {q} crossed clusters");
        }
    }

    #[test]
    fn indexed_paths_are_deterministic_across_worker_counts() {
        let points = plane_points(50);
        let labels = [0.0, 1.0, 0.0];
        let queries = plane_queries(20);
        for path in [QueryPath::KNearest { k: 7 }, QueryPath::WithinSupport] {
            let fit = |workers: usize| {
                ServingEngine::fit(
                    &points,
                    &labels,
                    EngineConfig::new(Kernel::Quartic, 0.9)
                        .workers(workers)
                        .query_path(path),
                )
                .unwrap()
            };
            let reference = fit(1).predict_batch(&queries).unwrap();
            for workers in [2, 4, 8] {
                let got = fit(workers).predict_batch(&queries).unwrap();
                // Same queries against the same index in a different
                // sharding must be bitwise identical, not just close.
                for (a, b) in reference.iter().zip(&got) {
                    assert_eq!(a, b, "worker count {workers} changed a prediction");
                }
            }
        }
    }

    #[test]
    fn empty_support_ball_reports_zero_kernel_mass() {
        let points = plane_points(12);
        let config = EngineConfig::new(Kernel::Boxcar, 0.4)
            .workers(1)
            .query_path(QueryPath::WithinSupport);
        let engine = ServingEngine::fit(&points, &[0.0, 1.0], config).unwrap();
        let far = QueryPoint::new(vec![50.0, 50.0]);
        assert_eq!(
            engine.predict_batch(&[far]),
            Err(Error::ZeroKernelMass { query_index: 0 })
        );
    }

    #[test]
    fn fit_rejects_index_paths_that_fail_validation() {
        let points = plane_points(10);
        assert!(matches!(
            ServingEngine::fit(
                &points,
                &[0.0, 1.0],
                EngineConfig::new(Kernel::Gaussian, 0.5).query_path(QueryPath::WithinSupport),
            ),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            ServingEngine::fit(
                &points,
                &[0.0, 1.0],
                EngineConfig::new(Kernel::Boxcar, 0.5).query_path(QueryPath::KNearest { k: 0 }),
            ),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn multiclass_indexed_path_matches_dense() {
        let points = plane_points(45);
        let class_labels = [0, 1, 2, 0, 1, 2];
        let dense_cfg = EngineConfig::new(Kernel::Tricube, 0.8).workers(1);
        let dense =
            ServingEngine::fit_multiclass(&points, &class_labels, 3, dense_cfg.clone()).unwrap();
        let indexed = ServingEngine::fit_multiclass(
            &points,
            &class_labels,
            3,
            dense_cfg.query_path(QueryPath::WithinSupport),
        )
        .unwrap();
        let queries = plane_queries(18);
        assert_agree(
            &dense.predict_batch(&queries).unwrap(),
            &indexed.predict_batch(&queries).unwrap(),
            1e-10,
            "multiclass within-support vs dense",
        );
    }
}
