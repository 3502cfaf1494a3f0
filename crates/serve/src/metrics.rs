//! Per-request latency and throughput counters for the serving engine.
//!
//! The engine records one latency sample per query (seconds, measured
//! around the out-of-sample extension) plus monotone counters for
//! factorizations, rank-1 updates and guarded refactorizations. Summaries
//! reuse the [`gssl_stats`] descriptive machinery, so p50/p99 follow the
//! same type-7 quantile rule as every other statistic in the workspace.

use crate::error::{Error, Result};
use gssl_linalg::FactorReport;
use gssl_stats::describe::{quantile, Summary};

/// Monotone counters and latency samples accumulated by one engine.
///
/// Snapshots are cheap value types; the engine hands them out through
/// [`crate::ShardedEngine::metrics`] so callers never observe a lock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries answered since the engine was fitted.
    pub queries: usize,
    /// `predict_batch` calls since the engine was fitted.
    pub batches: usize,
    /// Matrix factorizations performed (one per shard after `fit`; grows
    /// when a label fold refactors or re-solves, and on `refit` — never
    /// on the query path).
    pub factorizations: usize,
    /// Sherman–Morrison rank-1 label updates applied to the cached
    /// factorization.
    pub rank1_updates: usize,
    /// Full refactorizations triggered by the residual guard or the
    /// periodic fallback.
    pub guarded_refactors: usize,
    /// Per-query latency samples, in seconds, in completion order.
    pub latencies: Vec<f64>,
    /// Wall-clock seconds spent inside `predict_batch` calls.
    pub batch_seconds: f64,
    /// Report of the most recent system factorization: backend, dimension,
    /// and — for iterative backends — the last solve's iteration count and
    /// final residual, so iteration-cap hits are observable in serving.
    pub last_factor: Option<FactorReport>,
}

impl MetricsSnapshot {
    /// Five-number summary of the per-query latencies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] when no queries have been answered
    /// yet.
    pub fn latency_summary(&self) -> Result<Summary> {
        if self.latencies.is_empty() {
            return Err(Error::InvalidQuery {
                message: "no latency samples recorded yet".to_owned(),
            });
        }
        Summary::of(&self.latencies).map_err(|e| Error::Internal {
            message: format!("latency summary failed: {e}"),
        })
    }

    /// A latency quantile in seconds (`q` in `[0, 1]`; p50 is `0.5`, p99
    /// is `0.99`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] when no queries have been answered
    /// yet or `q` is out of range.
    pub fn latency_quantile(&self, q: f64) -> Result<f64> {
        if self.latencies.is_empty() {
            return Err(Error::InvalidQuery {
                message: "no latency samples recorded yet".to_owned(),
            });
        }
        quantile(&self.latencies, q).map_err(|e| Error::InvalidQuery {
            message: format!("latency quantile failed: {e}"),
        })
    }

    /// Mean sustained throughput in queries per second over all batches.
    ///
    /// Returns 0 when no batch time has been accumulated (e.g. before the
    /// first `predict_batch`).
    pub fn throughput(&self) -> f64 {
        if self.batch_seconds > 0.0 {
            self.queries as f64 / self.batch_seconds
        } else {
            0.0
        }
    }
}

/// Internal mutable counters; the engine keeps one behind a mutex and
/// exposes value snapshots.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServeMetrics {
    snapshot: MetricsSnapshot,
}

impl ServeMetrics {
    /// Records the initial (or a repeated full) factorization.
    pub(crate) fn record_factorization(&mut self) {
        self.snapshot.factorizations += 1;
    }

    /// Records one applied rank-1 update.
    pub(crate) fn record_rank1_update(&mut self) {
        self.snapshot.rank1_updates += 1;
    }

    /// Records a guarded full refactorization (also a factorization).
    pub(crate) fn record_guarded_refactor(&mut self) {
        self.snapshot.guarded_refactors += 1;
        self.snapshot.factorizations += 1;
    }

    /// Records the latest factorization's backend report.
    pub(crate) fn record_factor_report(&mut self, report: FactorReport) {
        self.snapshot.last_factor = Some(report);
    }

    /// Records a completed batch: per-query latencies and the batch wall
    /// time.
    pub(crate) fn record_batch(&mut self, latencies: &[f64], batch_seconds: f64) {
        self.snapshot.batches += 1;
        self.snapshot.queries += latencies.len();
        self.snapshot.latencies.extend_from_slice(latencies);
        self.snapshot.batch_seconds += batch_seconds;
    }

    /// Adds what a shard step did — factorizations, rank-1 updates,
    /// guarded refactors — to these counters; the step's factor report,
    /// if it factored, is the latest. A step answers no queries, so it
    /// carries no latency samples.
    pub(crate) fn merge(&mut self, step: ServeMetrics) {
        let (mine, step) = (&mut self.snapshot, step.snapshot);
        mine.factorizations += step.factorizations;
        mine.rank1_updates += step.rank1_updates;
        mine.guarded_refactors += step.guarded_refactors;
        if step.last_factor.is_some() {
            mine.last_factor = step.last_factor;
        }
    }

    /// Value snapshot of the current counters.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = ServeMetrics::default();
        m.record_factorization();
        m.record_rank1_update();
        m.record_rank1_update();
        m.record_guarded_refactor();
        m.record_batch(&[0.5, 1.5], 2.0);
        m.record_batch(&[1.0], 1.0);
        let s = m.snapshot();
        assert_eq!(s.factorizations, 2); // initial + guarded
        assert_eq!(s.rank1_updates, 2);
        assert_eq!(s.guarded_refactors, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.queries, 3);
        assert_eq!(s.latencies, vec![0.5, 1.5, 1.0]);
        assert!((s.throughput() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn latency_statistics() {
        let mut m = ServeMetrics::default();
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        m.record_batch(&samples, 100.0);
        let s = m.snapshot();
        let summary = s.latency_summary().unwrap();
        assert_eq!(summary.count, 100);
        assert!((summary.median - 50.5).abs() < 1e-12);
        assert!((s.latency_quantile(0.5).unwrap() - 50.5).abs() < 1e-12);
        // Type-7 p99 of 1..=100 interpolates between 99 and 100.
        assert!((s.latency_quantile(0.99).unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_graceful() {
        let s = MetricsSnapshot::default();
        assert!(s.latency_summary().is_err());
        assert!(s.latency_quantile(0.5).is_err());
        assert_eq!(s.throughput(), 0.0);
    }
}
