//! # gssl-index — spatial neighbor search for graph assembly and serving
//!
//! The paper's regime of interest is large-`n` asymptotics, yet pairwise
//! affinity assembly is Θ(n²·d): at 10⁶ points that is 10¹² distance
//! evaluations before a single linear system is touched. This crate
//! removes that wall with *exact* spatial indexes behind one trait:
//!
//! * [`BruteForce`] — the linear scan, extracted from the original kNN
//!   assembly loop in `gssl-graph`. It is the oracle: every tree backend
//!   is property-tested to agree with it bit for bit.
//! * [`KdTree`] — median-split axis-aligned tree for low dimension.
//! * [`CoverTree`] — metric-ball tree for high dimension.
//! * [`SpatialIndex`] — facade that picks a backend from `d`.
//!
//! # Determinism contract
//!
//! Three properties combine to make index-backed graph assembly
//! bit-identical to the historical O(n²) path, at any worker count:
//!
//! 1. **Shared distance kernel** — every backend computes candidate
//!    distances with the same [`squared_distance`] over identically
//!    laid-out slices, so equal neighbor sets imply bitwise-equal
//!    distances.
//! 2. **Canonical order** — results sort by `(dist2, index)` under
//!    `total_cmp`, the same tie-break the brute scan's stable sort has
//!    always produced.
//! 3. **Exact pruning** — tree traversals only skip subtrees that
//!    provably cannot contain a neighbor at or under the current bound
//!    (see the backend module docs for the floating-point argument), so
//!    tree and scan return the same *set*.
//!
//! Batched queries ([`k_nearest_batch`], [`self_k_nearest_batch`],
//! [`self_within_radius_batch`]) run on `gssl_runtime::Executor` and add
//! a fourth property:
//!
//! 4. **Order-free write-back** — the self-join batches run their
//!    queries in the index-supplied [`NeighborSearch::query_order`] (KD
//!    leaf by leaf, left to right, so each query starts where the last
//!    one ended; identity elsewhere). Workers claim fixed blocks of that
//!    order and each block writes its rows into one flat buffer. The
//!    rows are then copied out by id into one [`NeighborRows`] table, so
//!    `row(i)` is point `i`'s answer whatever order or worker ran it.
//!    Each query is a pure function of the frozen index, so the table is
//!    the same at 1, 2, 4 or 8 workers and under any query order.
//!    `k_nearest_batch` runs out-of-sample rows in input order.
//!
//! The table is one offsets array plus one neighbor buffer because the
//! alternative is measurably worse: one `Vec` per query, allocated in
//! leaf order and freed in id order, fragmented the allocator and raised
//! the peak RSS of a 2×10⁵-point kNN pipeline (2-core VM) from 179.8 MB to
//! 211.8–215.0 MB, where a flat table read 175.2 MB (173.7 MB for this
//! one).

mod auto;
mod brute;
mod cover;
mod error;
mod kdtree;
mod neighbor;
mod points;

pub use auto::{SpatialIndex, KD_MAX_DIM};
pub use brute::BruteForce;
pub use cover::CoverTree;
pub use error::{Error, Result};
pub use kdtree::KdTree;
pub use neighbor::{
    k_nearest_batch, self_k_nearest_batch, self_within_radius_batch, Neighbor, NeighborRows,
    NeighborSearch,
};
pub use points::squared_distance;
