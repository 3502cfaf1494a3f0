//! # gssl-serve — fit-once, query-many prediction serving
//!
//! The transductive solvers in [`gssl`] answer one question: given a
//! fixed graph, what are the scores of its unlabeled vertices? A serving
//! deployment asks three more:
//!
//! 1. **Out-of-sample queries.** Points that were never part of the
//!    fitted graph must be scored without refitting. Theorem II.1 of the
//!    paper shows the graph solution converges to the Nadaraya–Watson
//!    kernel regressor, which justifies the extension (Eq. 6)
//!    `f(x) = Σᵢ w(x, xᵢ) fᵢ / Σᵢ w(x, xᵢ)` — an `O(N·d)` weighted
//!    average over the fitted scores, no linear solve involved.
//! 2. **Streaming labels.** When a previously unlabeled vertex reveals
//!    its label, the criterion system changes by exactly rank one, so the
//!    cached inverse is repaired with a Sherman–Morrison-family update in
//!    quadratic time instead of a cubic refit.
//! 3. **Throughput.** Queries are independent reads of shared fitted
//!    state; the engine shards batches across workers through the shared
//!    [`Executor`] from [`gssl_runtime`] (dependency-free,
//!    `std::thread::scope` only), and [`MetricsSnapshot`] reports p50/p99
//!    latency and sustained throughput via the [`gssl_stats`] descriptive
//!    machinery.
//!
//! One engine implements this contract: [`ShardedEngine`]. Both
//! criterion systems are block-diagonal across connected components of
//! the kernel graph ([`mod@crate::shard`]), so each component is fitted
//! as an independent task with its own cached factorization, label folds
//! rebuild only the affected shard behind an epoch snapshot/swap
//! ([`mod@crate::sharded`]), and the full fitted state round-trips
//! through a versioned binary snapshot ([`mod@crate::snapshot`]) for
//! factorization-free cold starts. [`ServingEngine`] fits the same
//! engine on one shard that holds every node — the monolithic reference
//! that component-plan predictions match bit for bit under the direct
//! solver route.
//!
//! In front of the engine, [`BatchQueue`] ([`mod@crate::batch`])
//! coalesces individual requests into size/deadline-bounded batches with
//! admission control for overload shedding.
//!
//! [`ShardedEngine::fit`] builds the kernel graph and the criterion
//! problem internally from raw points (labeled first), so callers hand
//! over coordinates once and then only exchange queries and labels.
//!
//! Enable the `strict-checks` cargo feature to extend the workspace's
//! numeric sanitizer across the serving boundary: kernel rows, cached
//! scores and batch outputs are then checked for NaN/infinity and
//! reported as [`Error::NonFiniteValue`]. Query coordinates and observed
//! labels are validated unconditionally.

/// Admission-controlled coalescing of predict traffic into batches.
pub mod batch;
/// Engine configuration: criterion, kernel parameters, update policy.
pub mod config;
/// One shard's fitted state and its rank-1 update math, plus the
/// one-shard `ServingEngine` entry point.
pub(crate) mod engine;
/// Error type for the serving boundary.
pub mod error;
/// The shared out-of-sample (Eq. 6) query plane.
pub(crate) mod extend;
/// Latency/throughput counters built on `gssl-stats`.
pub mod metrics;
/// Component-based shard decomposition of the fitted graph.
pub mod shard;
/// The serving engine: shard tasks, epoch snapshot/swap label folding.
pub mod sharded;
/// Versioned binary snapshot/restore of a fitted sharded engine.
pub mod snapshot;
/// Query/prediction value types exchanged with the engine.
pub mod types;

pub use batch::{Admission, BatchPolicy, BatchQueue, CoalescedBatch};
pub use config::{EngineConfig, EngineSolver, QueryPath, ServeCriterion};
pub use engine::ServingEngine;
pub use error::{Error, Result};
pub use gssl_runtime::Executor;
pub use metrics::MetricsSnapshot;
pub use shard::{Shard, ShardPlan};
pub use sharded::ShardedEngine;
pub use snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use types::{Prediction, QueryPoint};
