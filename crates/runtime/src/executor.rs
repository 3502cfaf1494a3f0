//! The [`Executor`] handle: the one knob every layer of the workspace
//! takes to choose between running a kernel's body on the calling thread
//! and sharding it across the scoped thread pool.
//!
//! An executor is cheap to clone (it is a worker count, not a thread
//! handle) and `Sequential` is the `Default`: a kernel written once
//! against these primitives runs its chunks in order inline, while
//! `with_executor(..)` builders opt individual pipelines into
//! parallelism. Every primitive on this type has a fixed
//! reduction order, so for a deterministic closure the output is
//! bit-identical across worker counts — the determinism test suite pins
//! this with exact `==` comparisons.

use crate::error::{Error, Result};
use crate::pool::{self, ThreadPool};
use std::ops::Range;

/// Execution strategy shared by graph assembly, factorization, fitting and
/// serving.
///
/// `Sequential` runs every batch on the calling thread with zero
/// synchronization; `Pool` shards batches across a scoped
/// [`ThreadPool`]. Both produce bit-identical results for deterministic
/// closures because items are computed independently and reassembled in
/// input order.
///
/// ```
/// use gssl_runtime::{Error, Executor};
/// # fn main() -> Result<(), Error> {
/// let sequential = Executor::default();
/// let parallel = Executor::pool(4)?;
/// let f = |i: usize, x: &f64| Ok::<f64, Error>(x * i as f64);
/// let items = [1.0, 2.0, 3.0];
/// assert_eq!(sequential.map(&items, f)?, parallel.map(&items, f)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Executor {
    /// Run everything on the calling thread (the default).
    #[default]
    Sequential,
    /// Shard batches across a scoped thread pool.
    Pool(ThreadPool),
}

impl Executor {
    /// The sequential executor (same as `Executor::default()`).
    pub fn sequential() -> Self {
        Executor::Sequential
    }

    /// An executor backed by a pool of exactly `workers` threads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `workers == 0`; use
    /// [`Executor::with_workers`] if zero should mean "host parallelism".
    pub fn pool(workers: usize) -> Result<Self> {
        Ok(Executor::Pool(ThreadPool::new(workers)?))
    }

    /// An executor sized to the host's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Executor::Pool(ThreadPool::with_available_parallelism())
    }

    /// Builds an executor from a worker-count knob where `0` means "use
    /// the host's available parallelism" and `1` means sequential — the
    /// convention used by `EngineConfig::workers` and the benches.
    pub fn with_workers(workers: usize) -> Self {
        match workers {
            0 => Executor::with_available_parallelism(),
            1 => Executor::Sequential,
            n => match ThreadPool::new(n) {
                Ok(pool) => Executor::Pool(pool),
                // Unreachable (n >= 2), but degrade gracefully rather
                // than panic in a constructor.
                Err(_) => Executor::Sequential,
            },
        }
    }

    /// Number of worker threads batches may use (`1` for `Sequential`).
    pub fn workers(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Pool(pool) => pool.workers(),
        }
    }

    /// `true` when batches run on the calling thread only.
    pub fn is_sequential(&self) -> bool {
        self.workers() == 1
    }

    /// Applies `f(index, &item)` to every item and returns the results in
    /// input order; see [`ThreadPool::map`] for the parallel protocol.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-input-index error from `f`, or an internal
    /// runtime error (converted into `E`) if the claim protocol loses a
    /// slot.
    /// deterministic
    pub fn map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        match self {
            Executor::Sequential => pool::map_sequential(items, f),
            Executor::Pool(pool) => pool.map(items, f),
        }
    }

    /// Applies `f(index, &item)` to every item with width-1 claims — one
    /// task per claim — and returns the results in input order; see
    /// [`ThreadPool::map_tasks`]. Use this instead of [`Executor::map`]
    /// when the batch is small and per-item cost is wildly uneven (one
    /// factorization per graph shard), so slow tasks never queue behind a
    /// chunk-mate.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-input-index error from `f`, or an internal
    /// runtime error (converted into `E`) if the claim protocol loses a
    /// slot.
    /// deterministic
    pub fn map_tasks<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        match self {
            Executor::Sequential => pool::map_sequential(items, f),
            Executor::Pool(pool) => pool.map_tasks(items, f),
        }
    }

    /// Applies `f(start..end)` to `width`-sized ranges of `0..len` and
    /// concatenates the results in ascending range order; see
    /// [`ThreadPool::map_chunks`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] (converted into `E`) for a zero
    /// `width`, the lowest-range error from `f`, or [`Error::Internal`]
    /// when a closure breaks the per-range length contract.
    /// deterministic
    pub fn map_chunks<R, E, F>(&self, len: usize, width: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send + From<Error>,
        F: Fn(Range<usize>) -> Result<Vec<R>, E> + Sync,
    {
        match self {
            Executor::Sequential => pool::map_chunks_sequential(len, width, f),
            Executor::Pool(pool) => pool.map_chunks(len, width, f),
        }
    }

    /// Runs `f(start_index, chunk)` over disjoint `width`-sized mutable
    /// chunks of `data`; see [`ThreadPool::for_each_chunk_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `width == 0`.
    /// deterministic
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], width: usize, f: F) -> Result<(), Error>
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        match self {
            Executor::Sequential => pool::for_each_chunk_mut_sequential(data, width, f),
            Executor::Pool(pool) => pool.for_each_chunk_mut(data, width, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(Executor::default(), Executor::Sequential);
        assert!(Executor::default().is_sequential());
        assert_eq!(Executor::default().workers(), 1);
    }

    #[test]
    fn pool_rejects_zero_workers() {
        assert!(matches!(
            Executor::pool(0),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn with_workers_knob_conventions() {
        assert!(Executor::with_workers(0).workers() >= 1);
        assert_eq!(Executor::with_workers(1), Executor::Sequential);
        assert_eq!(Executor::with_workers(4).workers(), 4);
        assert!(!Executor::with_workers(4).is_sequential());
    }

    #[test]
    fn map_agrees_across_executors() {
        let items: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let f = |i: usize, x: &f64| Ok::<f64, Error>(x.sin() + i as f64);
        let sequential = Executor::Sequential.map(&items, f).unwrap();
        for workers in [2, 4] {
            let parallel = Executor::pool(workers).unwrap().map(&items, f).unwrap();
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn map_tasks_agrees_across_executors() {
        let items: Vec<f64> = (0..23).map(|i| i as f64 * 0.9).collect();
        let f = |i: usize, x: &f64| Ok::<f64, Error>(x.cos() * i as f64);
        let sequential = Executor::Sequential.map_tasks(&items, f).unwrap();
        for workers in [2, 4] {
            let parallel = Executor::pool(workers)
                .unwrap()
                .map_tasks(&items, f)
                .unwrap();
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn map_chunks_agrees_across_executors() {
        let f =
            |range: Range<usize>| Ok::<Vec<f64>, Error>(range.map(|i| (i as f64).sqrt()).collect());
        let sequential = Executor::Sequential.map_chunks(151, 8, f).unwrap();
        for workers in [2, 4] {
            let parallel = Executor::pool(workers)
                .unwrap()
                .map_chunks(151, 8, f)
                .unwrap();
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn for_each_chunk_mut_agrees_across_executors() {
        let fill = |executor: &Executor| {
            let mut data = vec![0.0f64; 77];
            executor
                .for_each_chunk_mut(&mut data, 9, |start, chunk| {
                    for (offset, value) in chunk.iter_mut().enumerate() {
                        *value = ((start + offset) as f64).cos();
                    }
                })
                .unwrap();
            data
        };
        let sequential = fill(&Executor::Sequential);
        for workers in [2, 4] {
            assert_eq!(
                sequential,
                fill(&Executor::pool(workers).unwrap()),
                "workers = {workers}"
            );
        }
    }
}
