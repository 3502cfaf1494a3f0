//! The out-of-sample query plane: Eq. 6 evaluation over the engine's
//! global score matrix.
//!
//! [`crate::ShardedEngine`] answers queries by borrowing a [`QueryPlane`]
//! over `(graph, index, scores, config)` and running *this* code,
//! whatever its shard plan. That is what makes component-plan predictions
//! bitwise-identical to the one-shard plan's: the kernel row of Eq. 6
//! spans **all** `N` fitted nodes (it is not block-diagonal across graph
//! components, unlike the criterion systems), so prediction always runs
//! over the globally assembled score matrix, through the exact same loops
//! here.

use crate::config::{EngineConfig, QueryPath};
use crate::error::{Error, Result};
use crate::types::{Prediction, QueryPoint};
use gssl_graph::KernelGraph;
use gssl_index::{NeighborSearch, SpatialIndex};
use gssl_linalg::{strict, Matrix};
use gssl_runtime::Executor;
use std::time::Instant;

/// A borrowed view of everything the out-of-sample extension needs:
/// the fitted kernel graph, the optional spatial index, the current
/// score matrix (`N × k`) and the query-path configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryPlane<'a> {
    /// Fitted points + kernel + bandwidth.
    pub graph: &'a KernelGraph,
    /// Spatial index over the fitted points (index-backed paths only).
    pub index: Option<&'a SpatialIndex>,
    /// Current fitted scores for all `N` nodes, one column per class.
    pub scores: &'a Matrix,
    /// Kernel parameters and query path.
    pub config: &'a EngineConfig,
    /// Whether predictions arg-max over one-vs-rest columns.
    pub multiclass: bool,
}

/// A scored batch plus its latency accounting, handed back to the owning
/// engine, which records it in its metrics.
pub(crate) struct BatchOutcome {
    /// One prediction per query, in input order.
    pub predictions: Vec<Prediction>,
    /// Per-query latency samples in seconds, in input order.
    pub latencies: Vec<f64>,
    /// Wall-clock seconds for the whole batch.
    pub batch_seconds: f64,
}

impl QueryPlane<'_> {
    /// Scores a batch of out-of-sample queries, sharded across
    /// `executor`; see [`crate::ShardedEngine::predict_batch`] for the
    /// user-facing contract this implements.
    /// hot
    /// complexity: O(b * n * c)
    pub fn predict_batch(
        &self,
        executor: &Executor,
        queries: &[QueryPoint],
    ) -> Result<BatchOutcome> {
        let dim = self.graph.dim();
        for (qi, q) in queries.iter().enumerate() {
            if q.coords.len() != dim {
                return Err(Error::InvalidQuery {
                    message: format!(
                        "query {qi} has dimension {}, engine was fitted on {dim}",
                        q.coords.len()
                    ),
                });
            }
            // Unconditional sanitizing at the serving boundary: bad query
            // coordinates are caller error, not a numerical accident, so
            // they are rejected even without the strict-checks feature.
            if let Some(pos) = q.coords.iter().position(|v| !v.is_finite()) {
                return Err(Error::NonFiniteValue {
                    context: "serve.predict query coordinates",
                    index: qi * dim + pos,
                });
            }
        }

        let batch_start = Instant::now();
        // One kernel-row scratch buffer per chunk, not per query: the row
        // is overwritten in place by `kernel_row_into` for every query the
        // worker handles. The index-backed paths never touch a dense row,
        // so their chunks allocate nothing here.
        let nodes = if self.config.query_path == QueryPath::Dense {
            self.graph.len()
        } else {
            0
        };
        let block = queries
            .len()
            .div_ceil(executor.workers().saturating_mul(4))
            .max(1);
        let chunks = executor.map_chunks(queries.len(), block, |range| {
            let mut row = vec![0.0; nodes];
            let chunk_queries = &queries[range.start..range.end];
            let mut outcomes = Vec::with_capacity(chunk_queries.len());
            for (q, qi) in chunk_queries.iter().zip(range) {
                let start = Instant::now();
                let prediction = self.predict_one(qi, q, &mut row)?;
                outcomes.push((prediction, start.elapsed().as_secs_f64()));
            }
            Ok::<_, Error>(outcomes)
        })?;
        let batch_seconds = batch_start.elapsed().as_secs_f64();

        let mut predictions = Vec::with_capacity(queries.len());
        let mut latencies = Vec::with_capacity(queries.len());
        for (prediction, latency) in chunks {
            predictions.push(prediction);
            latencies.push(latency);
        }
        Ok(BatchOutcome {
            predictions,
            latencies,
            batch_seconds,
        })
    }

    /// The out-of-sample extension of Theorem II.1 / Eq. 6 for one query,
    /// routed through the configured [`QueryPath`]: dense kernel rows
    /// (`O(n·d)` into the caller's reusable `row` scratch) or index-backed
    /// neighbor sums (`O(k)` weights after a sublinear tree search).
    /// hot
    /// complexity: O(n * c)
    fn predict_one(
        &self,
        query_index: usize,
        query: &QueryPoint,
        row: &mut [f64],
    ) -> Result<Prediction> {
        let per_class = match self.config.query_path {
            QueryPath::Dense => self.extend_dense(query_index, query, row)?,
            QueryPath::KNearest { k } => {
                let index = self.query_index_handle()?;
                let neighbors = index.k_nearest(&query.coords, k.min(index.len()))?;
                self.extend_over_neighbors(query_index, &neighbors)?
            }
            QueryPath::WithinSupport => {
                let index = self.query_index_handle()?;
                // The ball of radius `bandwidth` is not enough: `√d²/h`
                // rounds to exactly 1 for some `d²` just above `h²`,
                // where the boxcar weight is still 1. The support radius
                // adds a relative slack past that rounding, so the ball
                // holds every node with a nonzero weight and the
                // truncation drops exact zeros only.
                let radius = self.config.kernel.support_radius(self.config.bandwidth);
                let neighbors = index.within_radius(&query.coords, radius)?;
                self.extend_over_neighbors(query_index, &neighbors)?
            }
        };
        strict::check_finite("serve.predict output", &per_class)?;

        let (class, score) = if self.multiclass {
            let mut best = 0;
            let mut best_score = per_class[0];
            for (c, &v) in per_class.iter().enumerate().skip(1) {
                if v > best_score {
                    best = c;
                    best_score = v;
                }
            }
            (best, best_score)
        } else {
            let score = per_class[0];
            (usize::from(score >= 0.5), score)
        };
        Ok(Prediction {
            per_class,
            class,
            score,
        })
    }

    /// The fitted spatial index, present iff an index-backed
    /// [`QueryPath`] was configured at fit time.
    fn query_index_handle(&self) -> Result<&SpatialIndex> {
        self.index.ok_or_else(|| Error::Internal {
            message: "index-backed query path configured but no spatial index was built at fit"
                .to_owned(),
        })
    }

    /// Dense Eq. 6: the full kernel row over all fitted nodes, written
    /// into the caller's reusable scratch, then the normalized weighted
    /// average of the fitted scores.
    /// hot
    /// complexity: O(n * c)
    /// shape: (classes,)
    fn extend_dense(
        &self,
        query_index: usize,
        query: &QueryPoint,
        row: &mut [f64],
    ) -> Result<Vec<f64>> {
        self.graph.kernel_row_into(&query.coords, row)?;
        strict::check_finite("serve.predict kernel row", row)?;
        let mass: f64 = row.iter().sum();
        if !mass.is_finite() || !(mass > 0.0) {
            return Err(Error::ZeroKernelMass { query_index });
        }
        let k = self.scores.cols();
        let mut per_class = vec![0.0; k];
        for (i, &w) in row.iter().enumerate() {
            let score_row = self.scores.row(i);
            for (acc, &s) in per_class.iter_mut().zip(score_row) {
                *acc += w * s;
            }
        }
        for acc in &mut per_class {
            *acc /= mass;
        }
        Ok(per_class)
    }

    /// Truncated Eq. 6: the kernel weights and score average run over an
    /// index-provided neighbor list only, reusing each neighbor's stored
    /// squared distance (no coordinate access, no dense row).
    /// hot
    /// complexity: O(k * c)
    /// shape: (classes,)
    fn extend_over_neighbors(
        &self,
        query_index: usize,
        neighbors: &[gssl_index::Neighbor],
    ) -> Result<Vec<f64>> {
        let k = self.scores.cols();
        let mut per_class = vec![0.0; k];
        let mut mass = 0.0;
        for nb in neighbors {
            let w = self
                .config
                .kernel
                .weight_unchecked(nb.dist2, self.config.bandwidth);
            mass += w;
            let score_row = self.scores.row(nb.index);
            for (acc, &s) in per_class.iter_mut().zip(score_row) {
                *acc += w * s;
            }
        }
        if !mass.is_finite() || !(mass > 0.0) {
            return Err(Error::ZeroKernelMass { query_index });
        }
        for acc in &mut per_class {
            *acc /= mass;
        }
        Ok(per_class)
    }
}
