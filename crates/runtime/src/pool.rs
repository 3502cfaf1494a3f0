//! A small dependency-free scoped thread pool (`std::thread` only).
//!
//! The workloads in this workspace — batch prediction, row-blocked kernel
//! assembly, trailing-matrix updates, one-class-per-task multiclass fits —
//! are embarrassingly parallel: every task reads shared immutable state
//! and writes one independent result. The pool shards an index space into
//! contiguous chunks, hands chunks to scoped worker threads through an
//! atomic cursor, and reassembles results in input order. There are no
//! sleeps, channels or timing assumptions — workers run until the cursor
//! is exhausted and `std::thread::scope` joins them — so behaviour is
//! deterministic up to scheduling and results are **bit-identical** to the
//! sequential loop (each item is computed by exactly one worker with the
//! same per-item operation order, and reduction happens in input order on
//! the calling thread).

use crate::error::{Error, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One result slot per item (or per range), filled by whichever worker
/// claims it and read back in index order after the join.
type Slots<T, E> = Mutex<Vec<Option<Result<T, E>>>>;

/// Chunk width used to shard a batch of `len` items across `workers`
/// threads: small enough to balance skewed per-item cost, large enough to
/// amortize the atomic increment. Always at least 1.
///
/// Shared with the deterministic interleaving harness in [`crate::sim`] so
/// the schedules it enumerates exercise exactly the production protocol.
pub(crate) fn chunk_size(len: usize, workers: usize) -> usize {
    let workers = workers.max(1);
    (len / (workers * 4)).max(1)
}

/// One step of the chunk-claim protocol: atomically advances the shared
/// cursor by `chunk` and returns the claimed half-open range, or `None`
/// once the batch is exhausted.
///
/// The single `fetch_add` is the *only* synchronization between claimants;
/// `Ordering::Relaxed` suffices because the read-modify-write total order
/// alone makes claims disjoint and exhaustive (no other memory is
/// published through the cursor — results go through a mutex and the
/// scope join). [`crate::sim::enumerate_schedules`] and
/// [`crate::sim::enumerate_schedules_with_width`] check this exhaustively
/// over all bounded interleavings.
pub(crate) fn claim(cursor: &AtomicUsize, chunk: usize, len: usize) -> Option<(usize, usize)> {
    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
    if start >= len {
        return None;
    }
    Some((start, (start + chunk).min(len)))
}

/// Sequential reference path for [`ThreadPool::map`]; also the
/// `Executor::Sequential` implementation, so both sides of every
/// determinism comparison run exactly this loop.
pub(crate) fn map_sequential<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    F: Fn(usize, &T) -> Result<R, E>,
{
    items.iter().enumerate().map(|(i, x)| f(i, x)).collect()
}

/// Sequential reference path for [`ThreadPool::map_chunks`]: walks ranges
/// of `width` in ascending order and concatenates results, enforcing the
/// same per-chunk length contract as the parallel path.
pub(crate) fn map_chunks_sequential<R, E, F>(len: usize, width: usize, f: F) -> Result<Vec<R>, E>
where
    E: From<Error>,
    F: Fn(Range<usize>) -> Result<Vec<R>, E>,
{
    check_width(width)?;
    let mut out = Vec::with_capacity(len);
    let mut start = 0;
    while start < len {
        let end = (start + width).min(len);
        let chunk = f(start..end)?;
        check_chunk_len(start, end, chunk.len())?;
        out.extend(chunk);
        start = end;
    }
    Ok(out)
}

/// Sequential reference path for [`ThreadPool::for_each_chunk_mut`].
pub(crate) fn for_each_chunk_mut_sequential<T, F>(
    data: &mut [T],
    width: usize,
    f: F,
) -> Result<(), Error>
where
    F: Fn(usize, &mut [T]),
{
    check_width(width)?;
    for (index, chunk) in data.chunks_mut(width).enumerate() {
        f(index * width, chunk);
    }
    Ok(())
}

fn check_width(width: usize) -> Result<(), Error> {
    if width == 0 {
        return Err(Error::InvalidConfig {
            message: "chunk width must be at least one item".to_owned(),
        });
    }
    Ok(())
}

fn check_chunk_len(start: usize, end: usize, got: usize) -> Result<(), Error> {
    let expected = end - start;
    if got != expected {
        return Err(Error::Internal {
            message: format!(
                "map_chunks closure returned {got} results for range {start}..{end} \
                 (expected {expected})"
            ),
        });
    }
    Ok(())
}

/// A fixed-width scoped thread pool.
///
/// The pool owns no threads between calls: each batch primitive opens a
/// `std::thread::scope`, spawns up to `workers` threads for the duration
/// of the batch and joins them before returning. This keeps the type
/// trivially `Send + Sync` and free of shutdown protocols.
///
/// ```
/// use gssl_runtime::{Error, ThreadPool};
/// # fn main() -> Result<(), Error> {
/// let pool = ThreadPool::new(4)?;
/// let squares = pool.map(&[1.0, 2.0, 3.0], |_, x| Ok::<f64, Error>(x * x))?;
/// assert_eq!(squares, vec![1.0, 4.0, 9.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool with exactly `workers` worker threads per batch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `workers == 0`.
    pub fn new(workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(Error::InvalidConfig {
                message: "thread pool needs at least one worker".to_owned(),
            });
        }
        Ok(ThreadPool { workers })
    }

    /// Creates a pool sized to the host's available parallelism (at least
    /// one worker).
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool { workers }
    }

    /// Number of worker threads the pool spawns per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f(index, &item)` to every item, sharding the slice across
    /// the pool's workers, and returns the results in input order.
    ///
    /// `f` runs concurrently on several threads, so it must be `Sync`;
    /// with a single worker (or a batch of at most one item) everything
    /// runs on the calling thread and no threads are spawned. The error
    /// type is generic so callers map with their own error enum — it only
    /// needs a `From<gssl_runtime::Error>` conversion for the (internal)
    /// lost-slot failure.
    ///
    /// # Errors
    ///
    /// When one or more invocations fail, the error of the *lowest input
    /// index* is returned (deterministic regardless of scheduling);
    /// remaining work is still drained and all threads joined first.
    pub fn map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        // Chunked work-stealing via an atomic cursor; see `chunk_size` and
        // `claim` for the protocol and its correctness argument.
        self.map_with_chunk(items, chunk_size(items.len(), self.workers), f)
    }

    /// Like [`ThreadPool::map`] but with width-1 claims: every item is its
    /// own claim unit, so a handful of wildly uneven tasks (per-shard
    /// factorizations whose cost scales with the cube of shard size)
    /// load-balance instead of travelling together inside one chunk.
    ///
    /// Results are reassembled in input order, so for a deterministic `f`
    /// the output is bit-identical to the sequential loop at any worker
    /// count — the claim width only changes who computes an item, never
    /// the per-item operation order.
    ///
    /// # Errors
    ///
    /// Same contract as [`ThreadPool::map`]: lowest-input-index error
    /// wins, internal error when the claim protocol loses a slot.
    pub fn map_tasks<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.map_with_chunk(items, 1, f)
    }

    fn map_with_chunk<T, R, E, F>(&self, items: &[T], chunk: usize, f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return map_sequential(items, f);
        }

        let cursor = AtomicUsize::new(0);
        let slots: Slots<R, E> = Mutex::new((0..items.len()).map(|_| None).collect());

        let threads = self.workers.min(items.len());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while let Some((start, end)) = claim(&cursor, chunk, items.len()) {
                        // Compute the whole chunk locally, then publish
                        // under one short lock.
                        let mut local = Vec::with_capacity(end - start);
                        for (i, item) in items[start..end].iter().enumerate() {
                            local.push(f(start + i, item));
                        }
                        let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
                        for (offset, outcome) in local.into_iter().enumerate() {
                            guard[start + offset] = Some(outcome);
                        }
                    }
                });
            }
        });

        let collected = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(items.len());
        for (i, slot) in collected.into_iter().enumerate() {
            match slot {
                Some(Ok(value)) => out.push(value),
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(E::from(Error::Internal {
                        message: format!("batch item {i} was never claimed by a worker"),
                    }))
                }
            }
        }
        Ok(out)
    }

    /// Applies `f(start..end)` to caller-sized ranges of an index space of
    /// `len` items and concatenates the per-range result vectors in
    /// ascending range order.
    ///
    /// This is the row-blocked work-horse: a caller that produces one
    /// result per row passes `len = rows` and computes whole row blocks
    /// per call, amortizing claim overhead over `width` rows. Each closure
    /// invocation must return exactly `end - start` results; ranges are
    /// claimed through the same cursor protocol as [`ThreadPool::map`]
    /// (proven by [`crate::sim::enumerate_schedules_with_width`]), and the
    /// concatenation order is fixed by range start, so the output is
    /// bit-identical to the sequential loop for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] (converted into `E`) when
    /// `width == 0`, the lowest-range error from `f` when one or more
    /// invocations fail, and [`Error::Internal`] when a closure violates
    /// the per-range length contract.
    pub fn map_chunks<R, E, F>(&self, len: usize, width: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send + From<Error>,
        F: Fn(Range<usize>) -> Result<Vec<R>, E> + Sync,
    {
        check_width(width)?;
        let nchunks = len.div_ceil(width);
        if self.workers == 1 || nchunks <= 1 {
            return map_chunks_sequential(len, width, f);
        }

        let cursor = AtomicUsize::new(0);
        // One slot per range; the cursor starts at zero and advances by
        // exactly `width`, so `start / width` is an exact range index.
        let slots: Slots<Vec<R>, E> = Mutex::new((0..nchunks).map(|_| None).collect());

        let threads = self.workers.min(nchunks);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while let Some((start, end)) = claim(&cursor, width, len) {
                        let outcome = f(start..end);
                        let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
                        guard[start / width] = Some(outcome);
                    }
                });
            }
        });

        let collected = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(len);
        for (index, slot) in collected.into_iter().enumerate() {
            let start = index * width;
            let end = (start + width).min(len);
            match slot {
                Some(Ok(chunk)) => {
                    check_chunk_len(start, end, chunk.len())?;
                    out.extend(chunk);
                }
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(E::from(Error::Internal {
                        message: format!("range {start}..{end} was never claimed by a worker"),
                    }))
                }
            }
        }
        Ok(out)
    }

    /// Runs `f(start_index, chunk)` over disjoint `width`-sized mutable
    /// chunks of `data`, in parallel across the pool's workers.
    ///
    /// Chunks are carved with `chunks_mut`, so disjointness is enforced by
    /// the borrow checker; workers pop pre-split jobs from a shared stack
    /// under a short lock and run `f` outside it. Because every element
    /// belongs to exactly one chunk and `f` receives the chunk's starting
    /// index in `data`, a deterministic `f` yields output identical to the
    /// sequential loop for any worker count. `f` is infallible — this
    /// primitive backs hot in-place kernels (matvec rows, trailing panel
    /// updates) whose per-element math cannot fail.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `width == 0`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], width: usize, f: F) -> Result<(), Error>
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        check_width(width)?;
        let nchunks = data.len().div_ceil(width);
        if self.workers == 1 || nchunks <= 1 {
            return for_each_chunk_mut_sequential(data, width, f);
        }

        // Pre-split jobs; reversed so `pop()` hands them out in ascending
        // start order (not required for determinism — `f` sees disjoint
        // chunks — but it keeps first-touch locality predictable).
        let mut jobs: Vec<(usize, &mut [T])> = data
            .chunks_mut(width)
            .enumerate()
            .map(|(index, chunk)| (index * width, chunk))
            .collect();
        jobs.reverse();
        let jobs = Mutex::new(jobs);

        let threads = self.workers.min(nchunks);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let job = {
                        let mut guard = jobs.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.pop()
                    };
                    let Some((start, chunk)) = job else {
                        break;
                    };
                    f(start, chunk);
                });
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_workers() {
        assert!(matches!(
            ThreadPool::new(0),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn available_parallelism_pool_has_workers() {
        assert!(ThreadPool::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn preserves_input_order() {
        for workers in [1, 2, 3, 8] {
            let pool = ThreadPool::new(workers).unwrap();
            let items: Vec<usize> = (0..257).collect();
            let out = pool
                .map(&items, |i, &x| Ok::<usize, Error>(i * 1000 + x))
                .unwrap();
            let expected: Vec<usize> = (0..257).map(|i| i * 1000 + i).collect();
            assert_eq!(out, expected, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_results_match_sequential() {
        let items: Vec<f64> = (0..500).map(|i| i as f64 * 0.25).collect();
        let sequential = ThreadPool::new(1)
            .unwrap()
            .map(&items, |_, x| Ok::<f64, Error>(x.sin() * x.cos()))
            .unwrap();
        let parallel = ThreadPool::new(6)
            .unwrap()
            .map(&items, |_, x| Ok::<f64, Error>(x.sin() * x.cos()))
            .unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn lowest_index_error_wins() {
        let pool = ThreadPool::new(4).unwrap();
        let items: Vec<usize> = (0..100).collect();
        let result: Result<Vec<usize>> = pool.map(&items, |i, &x| {
            if i == 13 || i == 77 {
                Err(Error::Internal {
                    message: format!("boom at {i}"),
                })
            } else {
                Ok(x)
            }
        });
        assert_eq!(
            result,
            Err(Error::Internal {
                message: "boom at 13".to_owned()
            })
        );
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = ThreadPool::new(4).unwrap();
        let empty: Vec<usize> = Vec::new();
        assert_eq!(
            pool.map(&empty, |_, &x| Ok::<usize, Error>(x)).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(
            pool.map(&[42usize], |_, &x| Ok::<usize, Error>(x)).unwrap(),
            vec![42]
        );
    }

    #[test]
    fn map_tasks_matches_map_bitwise() {
        let items: Vec<f64> = (0..37).map(|i| i as f64 * 1.7).collect();
        let f = |i: usize, x: &f64| Ok::<f64, Error>(x.sin() + (i as f64).sqrt());
        let reference = ThreadPool::new(1).unwrap().map(&items, f).unwrap();
        for workers in [1, 2, 3, 8] {
            let pool = ThreadPool::new(workers).unwrap();
            assert_eq!(pool.map_tasks(&items, f).unwrap(), reference);
        }
    }

    #[test]
    fn map_tasks_lowest_index_error_wins() {
        let pool = ThreadPool::new(4).unwrap();
        let items: Vec<usize> = (0..16).collect();
        let result: Result<Vec<usize>> = pool.map_tasks(&items, |i, &x| {
            if i % 5 == 2 {
                Err(Error::Internal {
                    message: format!("boom at {i}"),
                })
            } else {
                Ok(x)
            }
        });
        assert_eq!(
            result,
            Err(Error::Internal {
                message: "boom at 2".to_owned()
            })
        );
    }

    #[test]
    fn map_chunks_concatenates_in_range_order() {
        for workers in [1, 2, 3, 8] {
            for width in [1, 3, 7, 64] {
                let pool = ThreadPool::new(workers).unwrap();
                let out = pool
                    .map_chunks(100, width, |range| {
                        Ok::<Vec<usize>, Error>(range.map(|i| i * 2).collect())
                    })
                    .unwrap();
                let expected: Vec<usize> = (0..100).map(|i| i * 2).collect();
                assert_eq!(out, expected, "workers = {workers}, width = {width}");
            }
        }
    }

    #[test]
    fn map_chunks_rejects_zero_width() {
        let pool = ThreadPool::new(2).unwrap();
        let result: Result<Vec<usize>> = pool.map_chunks(10, 0, |range| Ok(range.collect()));
        assert!(matches!(result, Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn map_chunks_lowest_range_error_wins() {
        for workers in [1, 4] {
            let pool = ThreadPool::new(workers).unwrap();
            let result: Result<Vec<usize>> = pool.map_chunks(50, 5, |range| {
                if range.start >= 20 {
                    Err(Error::Internal {
                        message: format!("chunk {} failed", range.start),
                    })
                } else {
                    Ok(range.collect())
                }
            });
            assert_eq!(
                result,
                Err(Error::Internal {
                    message: "chunk 20 failed".to_owned()
                }),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn map_chunks_detects_length_contract_violation() {
        for workers in [1, 4] {
            let pool = ThreadPool::new(workers).unwrap();
            let result: Result<Vec<usize>> = pool.map_chunks(20, 4, |range| {
                // Drop one element from the second chunk.
                let drop_one = usize::from(range.start == 4);
                Ok(range.skip(drop_one).collect())
            });
            assert!(
                matches!(result, Err(Error::Internal { .. })),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn map_chunks_empty_input() {
        let pool = ThreadPool::new(4).unwrap();
        let out: Vec<usize> = pool
            .map_chunks(0, 8, |range| Ok::<Vec<usize>, Error>(range.collect()))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn for_each_chunk_mut_matches_sequential() {
        let fill = |pool: &ThreadPool| {
            let mut data = vec![0.0f64; 203];
            pool.for_each_chunk_mut(&mut data, 16, |start, chunk| {
                for (offset, value) in chunk.iter_mut().enumerate() {
                    let i = (start + offset) as f64;
                    *value = i.sin() * (i + 1.0).sqrt();
                }
            })
            .unwrap();
            data
        };
        let sequential = fill(&ThreadPool::new(1).unwrap());
        for workers in [2, 3, 8] {
            let parallel = fill(&ThreadPool::new(workers).unwrap());
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn for_each_chunk_mut_rejects_zero_width() {
        let pool = ThreadPool::new(2).unwrap();
        let mut data = vec![0u8; 4];
        assert!(matches!(
            pool.for_each_chunk_mut(&mut data, 0, |_, _| {}),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn for_each_chunk_mut_covers_every_element_once() {
        for workers in [1, 2, 5] {
            let pool = ThreadPool::new(workers).unwrap();
            let mut data = vec![0usize; 97];
            pool.for_each_chunk_mut(&mut data, 10, |start, chunk| {
                for (offset, value) in chunk.iter_mut().enumerate() {
                    *value += start + offset + 1;
                }
            })
            .unwrap();
            let expected: Vec<usize> = (1..=97).collect();
            assert_eq!(data, expected, "workers = {workers}");
        }
    }
}
