//! # gssl-runtime — the shared deterministic execution layer
//!
//! Every parallel code path in this workspace — kernel-matrix assembly in
//! `gssl-graph`, dense matmul / panel factorization / CG matvec in
//! `gssl-linalg`, one-vs-rest multiclass fits in `gssl`, and batch
//! prediction in `gssl-serve` — runs on the primitives in this crate.
//! Centralizing them buys three things:
//!
//! 1. **One determinism contract.** Work is sharded into contiguous
//!    chunks claimed through a single atomic cursor; each item is computed
//!    by exactly one worker with the same per-item operation order as the
//!    sequential loop, and results are reassembled in input order on the
//!    calling thread. For deterministic closures the output is therefore
//!    **bit-identical** across worker counts — `==`, not epsilon.
//! 2. **One proof.** Every primitive — `map`, `map_tasks`, `map_chunks`
//!    and `for_each_chunk_mut` — claims its ranges through the one
//!    dispatch loop in [`pool`], and the [`sim`] module exhaustively
//!    enumerates every bounded interleaving of that loop's claim/publish
//!    protocol (a mini-loom) at any claim width. That proof covers all
//!    four primitives and justifies the single `Ordering::Relaxed` atomic
//!    in [`pool`].
//! 3. **One knob.** The [`Executor`] handle ([`Executor::Sequential`] by
//!    default, [`Executor::Pool`] to opt in) threads through every layer
//!    via `with_executor(..)` builders, so call sites pick a worker count
//!    once and the whole pipeline — assembly, factorization, fit, serve —
//!    honours it.
//!
//! The crate is dependency-free (`std::thread` only) and spawns no
//! long-lived threads: the dispatch loop holds the crate's one
//! `std::thread::scope`, which every parallel batch opens and joins before
//! returning; a sequential batch runs the same loop on the calling thread.

/// Error and result types shared by the executor and pool.
pub mod error;
/// The [`Executor`] handle: sequential by default, pooled on request.
pub mod executor;
/// The one dispatch loop, its chunk-claim protocol and the worker count.
pub mod pool;
/// Exhaustive interleaving enumeration for the claim protocol (mini-loom).
pub mod sim;

pub use error::{Error, Result};
pub use executor::Executor;
pub use pool::ThreadPool;
