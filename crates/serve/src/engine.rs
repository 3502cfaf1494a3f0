//! One shard's fitted state and its rank-1 update math, plus
//! [`ServingEngine`], the one-shard entry point of [`ShardedEngine`].
//!
//! A [`ShardModel`] pays the factorization cost of the chosen criterion
//! once — through the [`gssl_linalg::Factorization`] backend layer, either
//! the legacy direct route ([`EngineSolver::Direct`]: Cholesky/LU plus an
//! explicit cached inverse) or a [`gssl_linalg::SolverPolicy`] route
//! ([`EngineSolver::Auto`]) that may pick the iterative CG backend and
//! skip the inverse entirely — and caches the assembled system. A label
//! fold then repairs the cached inverse with an exact rank-1
//! (Sherman–Morrison family) update in `O(m²)` instead of refactoring in
//! `O(m³)`, guarded by a residual check and a periodic full-refactor
//! fallback. Queries never touch a shard: the owning engine answers them
//! over its global score plane.
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

use crate::config::{EngineConfig, EngineSolver, ServeCriterion};
use crate::error::{Error, Result};
use crate::metrics::ServeMetrics;
use crate::sharded::ShardedEngine;
use gssl::Problem;
use gssl_graph::{laplacian, KernelGraph, LaplacianKind};
use gssl_linalg::{strict, Cholesky, Factorization, Lu, Matrix, SolverBackend, Vector};
use gssl_runtime::Executor;

/// The monolithic serving engine: a [`ShardedEngine`] fitted on one
/// shard that holds every node, with no component search. It is the
/// reference the sharding tests hold the component plan to, bit for bit.
/// The type has no values; both constructors return the engine itself.
///
/// ```
/// use gssl_graph::Kernel;
/// use gssl_linalg::Matrix;
/// use gssl_serve::{EngineConfig, QueryPoint, ServingEngine};
/// # fn main() -> Result<(), gssl_serve::Error> {
/// // Four 1-D points; the first two labeled 0 and 1.
/// let points = Matrix::from_rows(&[&[0.0], &[1.0], &[0.2], &[0.8]])
///     .map_err(gssl_serve::Error::Linalg)?;
/// let engine = ServingEngine::fit(
///     &points,
///     &[0.0, 1.0],
///     EngineConfig::new(Kernel::Gaussian, 0.5),
/// )?;
/// assert_eq!(engine.n_shards(), 1);
/// let out = engine.predict_batch(&[QueryPoint::new(vec![0.1])])?;
/// assert_eq!(out[0].class, 0);
/// // A streamed label folds in without refactoring.
/// engine.observe_label(2, 0.0)?;
/// assert_eq!(engine.metrics().factorizations, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub enum ServingEngine {}

impl ServingEngine {
    /// [`ShardedEngine::fit`] on the one-shard plan: the same arguments,
    /// errors and labeled-first convention. The single shard factors on
    /// the engine's executor: `O(m³)` for the hard criterion's `m × m`
    /// unlabeled block, `O(N³)` for the soft criterion's full system.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::fit`].
    /// deterministic
    pub fn fit(points: &Matrix, labels: &[f64], config: EngineConfig) -> Result<ShardedEngine> {
        ShardedEngine::fit_labels(points, labels, config, true)
    }

    /// [`ShardedEngine::fit_multiclass`] on the one-shard plan.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::fit_multiclass`].
    /// deterministic
    pub fn fit_multiclass(
        points: &Matrix,
        class_labels: &[usize],
        class_count: usize,
        config: EngineConfig,
    ) -> Result<ShardedEngine> {
        ShardedEngine::fit_classes(points, class_labels, class_count, config, true)
    }
}

/// What a shard's solver steps read from the owning engine — its
/// configuration and the executor the shard factors on — and the metrics
/// they record. The engine merges `metrics` into its own record once the
/// step has succeeded.
#[derive(Debug)]
pub(crate) struct ShardStep<'a> {
    config: &'a EngineConfig,
    executor: &'a Executor,
    /// Factorizations, rank-1 updates, guarded refactors and the latest
    /// factor report of this step.
    pub(crate) metrics: ServeMetrics,
}

impl<'a> ShardStep<'a> {
    pub(crate) fn new(config: &'a EngineConfig, executor: &'a Executor) -> Self {
        ShardStep {
            config,
            executor,
            metrics: ServeMetrics::default(),
        }
    }
}

/// One shard's fitted state. Indices are shard-local (`0..s` over the
/// shard's members); the configuration, kernel graph, index, executor
/// and metrics belong to the owning [`ShardedEngine`].
#[derive(Debug, Clone)]
pub(crate) struct ShardModel {
    /// Dense `s × s` kernel weights among the members.
    pub(crate) weights: Matrix,
    /// Row sums of `weights` (every nonzero weight of a member lies
    /// inside its shard, so these are the full-graph degrees).
    pub(crate) degrees: Vector,
    /// Per-node observed-label mask.
    pub(crate) labeled: Vec<bool>,
    /// Observed targets, `s × k` (rows of unlabeled nodes are zero).
    pub(crate) targets: Matrix,
    /// Local indices of the still-unlabeled nodes, in cached-system order.
    pub(crate) unlabeled: Vec<usize>,
    /// The cached criterion system (hard: `m × m`; soft: `s × s`). The
    /// rank-1 update paths maintain it *exactly* (deletion / diagonal
    /// bump), so a guarded refactor can re-factor it without reassembly.
    pub(crate) system: Matrix,
    /// Explicit inverse of `system`, maintained by rank-1 updates.
    /// `None` when the configured solver route selected an iterative
    /// backend (no factor to invert) or the system is empty.
    pub(crate) inverse: Option<Matrix>,
    /// Right-hand side matching `system`, one column per class.
    pub(crate) rhs: Matrix,
    /// Current fitted scores for all `s` nodes, one column per class.
    pub(crate) scores: Matrix,
    /// Rank-1 updates folded since the last full refactorization.
    pub(crate) updates_since_refactor: usize,
}

impl ShardModel {
    /// The dense kernel weights among `points`.
    pub(crate) fn weights(points: Matrix, config: &EngineConfig) -> Result<Matrix> {
        let graph = KernelGraph::fit(points, config.kernel, config.bandwidth)?;
        Ok(graph.weights()?)
    }

    /// Fits one shard: `points` are its members' coordinates, labeled
    /// first, and `initial_targets` the target rows of the labeled ones.
    /// Costs one factorization.
    pub(crate) fn fit(
        points: Matrix,
        initial_targets: Matrix,
        step: &mut ShardStep<'_>,
    ) -> Result<Self> {
        let n = initial_targets.rows();
        let total = points.rows();
        let weights = Self::weights(points, step.config)?;
        // Reuse the core crate's problem validation (symmetry, finiteness)
        // and its anchoring check: every component must contain a labeled
        // vertex or the criterion system is singular. Labeling only ever
        // grows the labeled set, so the check holds for the shard's whole
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
        let mut model = ShardModel {
            weights,
            degrees,
            labeled: (0..total).map(|i| i < n).collect(),
            targets,
            unlabeled: (n..total).collect(),
            system: Matrix::zeros(0, 0),
            inverse: None,
            rhs: Matrix::zeros(0, k),
            scores: Matrix::zeros(total, k),
            updates_since_refactor: 0,
        };
        model.rebuild(step)?;
        step.metrics.record_factorization();
        Ok(model)
    }

    /// Rejects state read from a snapshot that a fold or query could not
    /// run on: shapes that disagree with the member count `s` (the rows
    /// of the recomputed `weights`), the criterion or the target width,
    /// an unlabeled list that is not the ascending complement of the
    /// label mask, a shard with no labeled anchor, a missing or stray
    /// inverse, or a counter that cannot advance.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] naming the first inconsistency.
    pub(crate) fn check(&self, criterion: ServeCriterion, width: usize) -> Result<()> {
        let s = self.weights.rows();
        let dim = match criterion {
            ServeCriterion::Hard => self.unlabeled.len(),
            ServeCriterion::Soft { .. } => s,
        };
        let shape = |m: &Matrix| (m.rows(), m.cols());
        let complement = (self.labeled.iter().enumerate()).filter_map(|(i, &l)| (!l).then_some(i));
        let checks = [
            (self.labeled.len() == s, "label mask"),
            (shape(&self.targets) == (s, width), "targets"),
            (shape(&self.scores) == (s, width), "scores"),
            (
                self.unlabeled.iter().copied().eq(complement),
                "unlabeled list",
            ),
            (self.labeled.contains(&true), "anchor"),
            (shape(&self.system) == (dim, dim), "system"),
            (
                self.inverse.as_ref().map(shape) == (dim > 0).then_some((dim, dim)),
                "inverse",
            ),
            (shape(&self.rhs) == (dim, width), "right-hand side"),
            (self.updates_since_refactor < usize::MAX, "update counter"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err(Error::Snapshot {
                message: format!("shard of {s} members has an inconsistent {what}"),
            }),
            None => Ok(()),
        }
    }

    /// Number of nodes whose label has been observed.
    pub(crate) fn n_labeled(&self) -> usize {
        self.labeled.iter().filter(|&&b| b).count()
    }

    // ------------------------------------------------------------------
    // Incremental labeling
    // ------------------------------------------------------------------

    /// Folds a newly observed target row into the still-unlabeled local
    /// `node` with an exact rank-1 update of the cached inverse — `O(m²)`
    /// (hard) or `O(s²·k)` (soft) instead of a cubic refit.
    ///
    /// After the update, the residual guard `‖A f − b‖∞` and the periodic
    /// `refactor_every` counter decide whether a full refactorization is
    /// performed; both events are recorded in `step.metrics`.
    pub(crate) fn observe(
        &mut self,
        node: usize,
        target: &[f64],
        step: &mut ShardStep<'_>,
    ) -> Result<()> {
        let config = step.config;
        match config.criterion {
            ServeCriterion::Hard => self.rank1_hard(node, target, step)?,
            ServeCriterion::Soft { .. } => self.rank1_soft(node, target, step)?,
        }
        self.updates_since_refactor += 1;
        step.metrics.record_rank1_update();

        let periodic =
            config.refactor_every > 0 && self.updates_since_refactor >= config.refactor_every;
        if periodic || self.residual(config.criterion)? > config.residual_tolerance {
            // Only the factorization has drifted: the rank-1 bookkeeping
            // above kept `system` and `rhs` exact, so skip reassembly and
            // go straight to factoring the cached system.
            self.refactor_cached(step)?;
            step.metrics.record_guarded_refactor();
        }
        strict::check_finite_matrix("serve.observe_label scores", &self.scores)?;
        Ok(())
    }

    /// Hard-criterion update: delete the labeled node from the cached
    /// `m × m` system via the inverse block-deletion identity.
    fn rank1_hard(&mut self, node: usize, target: &[f64], step: &mut ShardStep<'_>) -> Result<()> {
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
            for (c, &t) in target.iter().enumerate().take(k) {
                new_rhs.set(a2, c, self.rhs.get(a, c) + w * t);
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
            self.refactor_cached(step)?;
            step.metrics.record_factorization();
            return Ok(());
        };

        let bjj = inverse.get(j, j);
        if !(bjj.abs() > f64::MIN_POSITIVE) {
            // Defensive: an SPD system cannot produce a zero diagonal in
            // its inverse, but fall back to a guarded refit rather than
            // dividing by (near-)zero.
            self.unlabeled.remove(j);
            self.rebuild(step)?;
            step.metrics.record_guarded_refactor();
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
    fn rank1_soft(&mut self, node: usize, target: &[f64], step: &mut ShardStep<'_>) -> Result<()> {
        let total = self.labeled.len();
        // Defense in depth: the engine validates `node`, but this update
        // writes raw rows, so re-check the bound locally.
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
            self.refactor_cached(step)?;
            step.metrics.record_factorization();
            return Ok(());
        };

        let denom = 1.0 + inverse.get(node, node);
        if !(denom.abs() > f64::MIN_POSITIVE) {
            // Defensive: for the SPD system V + λL the denominator is
            // strictly greater than 1; never divide by (near-)zero.
            self.rebuild(step)?;
            step.metrics.record_guarded_refactor();
            return Ok(());
        }

        // B' = B − (B e)(eᵀ B) / (1 + B_nn).
        let b_col = inverse.col(node);
        let b_row: Vec<f64> = inverse.row(node).to_vec();
        let mut new_inverse = Matrix::zeros(total, total);
        for a in 0..total {
            let ba = b_col[a];
            for (b, &rb) in b_row.iter().enumerate().take(total) {
                new_inverse.set(a, b, inverse.get(a, b) - ba * rb / denom);
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
    /// as a factorization.
    pub(crate) fn refit(&mut self, step: &mut ShardStep<'_>) -> Result<()> {
        self.rebuild(step)?;
        step.metrics.record_factorization();
        Ok(())
    }

    /// Factors a criterion system through the configured solver route, on
    /// the step's executor (factors are bit-identical at any worker
    /// count, so this never perturbs served scores).
    fn factor_system(system: &Matrix, step: &ShardStep<'_>) -> Result<SolverBackend> {
        match (&step.config.solver, step.config.criterion) {
            // Legacy direct route: Cholesky for the SPD hard block, LU for
            // the soft full system, byte-for-byte the historical behavior.
            (EngineSolver::Direct, ServeCriterion::Hard) => Ok(SolverBackend::Cholesky(
                Cholesky::factor_with(system, step.executor)?,
            )),
            (EngineSolver::Direct, ServeCriterion::Soft { .. }) => {
                Ok(SolverBackend::Lu(Lu::factor_with(system, step.executor)?))
            }
            // Both criterion systems are SPD (the hard block by anchored
            // diagonal dominance, V + λL by construction), so the policy's
            // SPD route applies to either.
            (EngineSolver::Auto(policy), _) => Ok(policy
                .clone()
                .with_executor(step.executor.clone())
                .factor_spd(system)?),
        }
    }

    /// Full rebuild: reassemble the criterion system and right-hand side
    /// from the weights for the current labeled set, then factor and solve.
    fn rebuild(&mut self, step: &mut ShardStep<'_>) -> Result<()> {
        match step.config.criterion {
            ServeCriterion::Hard => self.assemble_hard(),
            ServeCriterion::Soft { lambda } => self.assemble_soft(lambda)?,
        }
        self.refactor_cached(step)
    }

    /// Factors the *already assembled* cached system and re-solves the
    /// cached right-hand side, refreshing scores and (for direct backends)
    /// the explicit inverse. This is the guarded-fallback path: rank-1
    /// bookkeeping keeps `system`/`rhs` exact, so when only the
    /// factorization has drifted there is nothing to reassemble.
    fn refactor_cached(&mut self, step: &mut ShardStep<'_>) -> Result<()> {
        let k = self.targets.cols();
        match step.config.criterion {
            ServeCriterion::Hard => {
                let m = self.unlabeled.len();
                if m == 0 {
                    self.inverse = None;
                } else {
                    let backend = Self::factor_system(&self.system, step)?;
                    let solution = backend.solve_matrix(&self.rhs)?;
                    // After the solve so iterative backends report their
                    // iteration count and final residual.
                    step.metrics.record_factor_report(backend.report());
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
                let backend = Self::factor_system(&self.system, step)?;
                self.scores = backend.solve_matrix(&self.rhs)?;
                step.metrics.record_factor_report(backend.report());
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
        let total = self.labeled.len();

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
        let total = self.labeled.len();

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
    pub(crate) fn residual(&self, criterion: ServeCriterion) -> Result<f64> {
        match criterion {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryPath;
    use crate::types::{Prediction, QueryPoint};
    use gssl_graph::Kernel;

    fn line_points(total: usize) -> Matrix {
        Matrix::from_fn(total, 1, |i, _| i as f64 * 0.3)
    }

    fn hard_config() -> EngineConfig {
        EngineConfig::new(Kernel::Gaussian, 0.8).workers(1)
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
    fn labeling_every_node_empties_the_system() {
        let engine = ServingEngine::fit(&line_points(4), &[0.0, 1.0], hard_config()).unwrap();
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
        let engine = ServingEngine::fit(&line_points(6), &[0.0, 1.0], config).unwrap();
        engine.observe_label(2, 1.0).unwrap();
        engine.observe_label(4, 0.0).unwrap();
        let m = engine.metrics();
        assert_eq!(m.rank1_updates, 2);
        assert_eq!(m.guarded_refactors, 2);
        assert_eq!(m.factorizations, 3); // initial + 2 guarded
    }

    #[test]
    fn explicit_refit_is_counted_and_idempotent() {
        let engine = ServingEngine::fit(&line_points(5), &[0.0, 1.0], hard_config()).unwrap();
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
            sparse: gssl_linalg::SparseStrategy::Amg(gssl_linalg::AmgOptions::default()),
            ..gssl_linalg::SolverPolicy::default()
        };
        let config = hard_config().solver(EngineSolver::Auto(policy));
        let engine = ServingEngine::fit(&line_points(6), &[0.0, 1.0], config).unwrap();
        let report = engine.metrics().last_factor.expect("fit factors once");
        assert!(report.backend.is_iterative());
        assert!(report.iterations.unwrap() >= 1);
        assert!(report.final_residual.unwrap().is_finite());

        // A refit refreshes the report.
        engine.refit().unwrap();
        assert!(engine.metrics().last_factor.unwrap().backend.is_iterative());
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
        let auto = ServingEngine::fit(&points, &labels, auto_cfg).unwrap();
        assert!(auto.scores().approx_eq(&direct.scores(), 1e-10));

        direct.observe_label(4, 1.0).unwrap();
        auto.observe_label(4, 1.0).unwrap();
        assert!(auto.scores().approx_eq(&direct.scores(), 1e-10));
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
        let direct = ServingEngine::fit(&points, &labels, soft(EngineSolver::Direct)).unwrap();
        let auto = ServingEngine::fit(
            &points,
            &labels,
            soft(EngineSolver::Auto(gssl_linalg::SolverPolicy::default())),
        )
        .unwrap();
        // Direct uses LU, Auto routes the SPD system through Cholesky.
        assert!(auto.scores().approx_eq(&direct.scores(), 1e-8));
        direct.observe_label(5, 0.0).unwrap();
        auto.observe_label(5, 0.0).unwrap();
        assert!(auto.scores().approx_eq(&direct.scores(), 1e-8));
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
        let auto = ServingEngine::fit(&points, &labels, auto_cfg).unwrap();
        assert!(auto.scores().approx_eq(&direct.scores(), 1e-6));

        // Label arrival without an inverse: the exactly-maintained system
        // is re-solved and stays consistent with the direct twin.
        direct.observe_label(70, 1.0).unwrap();
        auto.observe_label(70, 1.0).unwrap();
        assert!(auto.scores().approx_eq(&direct.scores(), 1e-6));
        assert!(auto.residual().unwrap() < 1e-6);
    }

    #[test]
    fn guarded_refactor_reuses_cached_system() {
        // refactor_every(1) forces the guarded fallback after every
        // update; the fallback factors the rank-1-maintained cached
        // system without reassembly, so it must agree with an explicitly
        // refitted twin to tight tolerance.
        let engine = ServingEngine::fit(
            &line_points(7),
            &[0.0, 1.0],
            hard_config().refactor_every(1),
        )
        .unwrap();
        let twin = ServingEngine::fit(&line_points(7), &[0.0, 1.0], hard_config()).unwrap();
        for (node, y) in [(3, 1.0), (5, 0.0)] {
            engine.observe_label(node, y).unwrap();
            twin.observe_label(node, y).unwrap();
            twin.refit().unwrap();
            assert!(engine.scores().approx_eq(&twin.scores(), 1e-10));
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
