//! The one dispatch loop behind every [`crate::Executor`] primitive.
//!
//! `run` shards an index space into contiguous ranges, hands them out
//! through one atomic cursor (`claim`) and drains the cursor from up to
//! `workers` scoped threads — the crate's only `std::thread::scope` — or,
//! when at most one range can run at a time, on the calling thread. The
//! four [`crate::Executor`] primitives (in [`crate::executor`]) are bodies
//! over the claimed ranges: `map_chunks` fills one slot per range and
//! reassembles the slots in range order, `map` and `map_tasks` are
//! `map_chunks` over the items, and `for_each_chunk_mut` takes its range's
//! pre-split chunk out of a slot and runs the closure outside any lock.
//! Each range is computed by exactly one worker with the sequential
//! per-item operation order and reassembled in input order, so results
//! are **bit-identical** at every worker count.

use crate::error::{Error, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// published through the cursor — results and chunks go through the
/// slots mutex and the scope join). [`crate::sim::enumerate_schedules`] and
/// [`crate::sim::enumerate_schedules_with_width`] check this exhaustively
/// over all bounded interleavings.
pub(crate) fn claim(cursor: &AtomicUsize, chunk: usize, len: usize) -> Option<(usize, usize)> {
    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
    if start >= len {
        return None;
    }
    Some((start, (start + chunk).min(len)))
}

/// Number of `width`-sized ranges covering `0..len`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `width == 0`.
pub(crate) fn range_count(len: usize, width: usize) -> Result<usize> {
    if width == 0 {
        return Err(Error::InvalidConfig {
            message: "chunk width must be at least one item".to_owned(),
        });
    }
    Ok(len.div_ceil(width))
}

/// The dispatch loop: claims `width`-sized ranges of `0..len` through
/// [`claim`] and runs `body(index, range)` on each, where `index` is the
/// range's position (`range.start / width`). It runs on the calling
/// thread when `min(workers, ranges) <= 1` and otherwise on that many
/// scoped threads, joined before returning; a panic in `body` reaches the
/// caller either way.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `width == 0`.
pub(crate) fn run<F>(workers: usize, len: usize, width: usize, body: F) -> Result<()>
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let threads = workers.min(range_count(len, width)?);
    let cursor = AtomicUsize::new(0);
    let drain = || {
        while let Some((start, end)) = claim(&cursor, width, len) {
            body(start / width, start..end);
        }
    };
    if threads <= 1 {
        drain();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(drain);
            }
        });
    }
    Ok(())
}

/// The validated worker count inside [`crate::Executor::Pool`].
///
/// A pool owns no threads: each [`crate::Executor`] primitive runs the
/// dispatch loop, which opens a `std::thread::scope`, spawns up to
/// `workers` threads for the duration of the batch and joins them before
/// returning. This keeps the type
/// trivially `Send + Sync` and free of shutdown protocols. Run batches
/// through [`crate::Executor::pool`] or `Executor::Pool(pool)`.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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
    fn run_claims_every_range_once_in_order_on_one_worker() {
        let seen = Mutex::new(Vec::new());
        run(1, 10, 3, |index, range| {
            seen.lock().unwrap().push((index, range));
        })
        .unwrap();
        assert_eq!(
            seen.into_inner().unwrap(),
            vec![(0, 0..3), (1, 3..6), (2, 6..9), (3, 9..10)]
        );
    }

    #[test]
    fn run_covers_every_range_once_at_any_worker_count() {
        for workers in [2, 3, 8] {
            let seen = Mutex::new(Vec::new());
            run(workers, 100, 7, |index, range| {
                assert_eq!(range.start, index * 7);
                seen.lock().unwrap().push(index);
            })
            .unwrap();
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..15).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn run_rejects_zero_width_and_allows_empty_input() {
        assert!(matches!(
            run(2, 10, 0, |_, _| {}),
            Err(Error::InvalidConfig { .. })
        ));
        run(4, 0, 3, |_, _| panic!("no range to claim")).unwrap();
    }
}
