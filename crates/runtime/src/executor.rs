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
use std::sync::{Mutex, PoisonError};

/// Execution strategy shared by graph assembly, factorization, fitting and
/// serving.
///
/// `Sequential` runs every batch on the calling thread; `Pool` shards
/// batches across up to [`ThreadPool::workers`] scoped threads. Both run
/// the same dispatch loop and the same per-range bodies, so they produce
/// bit-identical results for deterministic closures: items are computed
/// independently and reassembled in input order.
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
    /// Shard batches across up to the pool's worker count of scoped
    /// threads.
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
    /// input order. Items are claimed `chunk_size` at a time through the
    /// dispatch loop in [`crate::pool`], so a skewed batch still balances.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-input-index error from `f`, or an internal
    /// runtime error (converted into `E`) if the claim protocol loses a
    /// slot. A claimed range stops at its first error; other ranges still
    /// run to completion before the error is returned.
    /// deterministic
    pub fn map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let width = pool::chunk_size(items.len(), self.workers());
        self.map_chunks(items.len(), width, |range| map_range(items, range, &f))
    }

    /// Applies `f(index, &item)` to every item with width-1 claims — one
    /// task per claim — and returns the results in input order. Use this
    /// instead of [`Executor::map`] when the batch is small and per-item
    /// cost is wildly uneven (one factorization per graph shard), so slow
    /// tasks never queue behind a chunk-mate. The claim width only changes
    /// who computes an item, never the per-item operation order.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-input-index error from `f`, or an internal
    /// runtime error (converted into `E`) if the claim protocol loses a
    /// slot. The other tasks still run before the error is returned.
    /// deterministic
    pub fn map_tasks<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<Error>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.map_chunks(items.len(), 1, |range| map_range(items, range, &f))
    }

    /// Applies `f(start..end)` to `width`-sized ranges of `0..len` and
    /// concatenates the per-range result vectors in ascending range order.
    ///
    /// This is the row-blocked work-horse: a caller that produces one
    /// result per row passes `len = rows` and computes whole row blocks
    /// per call, amortizing claim overhead over `width` rows. Each closure
    /// invocation must return exactly `end - start` results. Each range's
    /// result goes into its own slot under one mutex, and the slots are
    /// concatenated by range start after the join, so the output is
    /// bit-identical for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] (converted into `E`) for a zero
    /// `width`, the lowest-range error from `f`, or [`Error::Internal`]
    /// when a closure breaks the per-range length contract or the claim
    /// protocol loses a slot.
    /// deterministic
    pub fn map_chunks<R, E, F>(&self, len: usize, width: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send + From<Error>,
        F: Fn(Range<usize>) -> Result<Vec<R>, E> + Sync,
    {
        let ranges = pool::range_count(len, width)?;
        let slots = Mutex::new((0..ranges).map(|_| None).collect::<Vec<_>>());
        pool::run(self.workers(), len, width, |index, range| {
            let outcome = f(range);
            let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = guard.get_mut(index) {
                *slot = Some(outcome);
            }
        })?;

        let collected = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(len);
        for (index, slot) in collected.into_iter().enumerate() {
            let start = index * width;
            out.extend(check_slot(slot, start, (start + width).min(len))?);
        }
        Ok(out)
    }

    /// Runs `f(start_index, chunk)` over disjoint `width`-sized mutable
    /// chunks of `data`.
    ///
    /// `data` is carved with `chunks_mut` up front, so disjointness is
    /// enforced by the borrow checker; the worker that claims range `c`
    /// through the cursor takes chunk `c` out of its slot and runs `f`
    /// outside any lock. Because every element belongs to exactly one
    /// chunk and `f` receives the chunk's starting index in `data`, a
    /// deterministic `f` yields the same output for any worker count. `f`
    /// is infallible — this primitive backs hot in-place kernels (matvec
    /// rows, trailing panel updates) whose per-element math cannot fail.
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
        let len = data.len();
        pool::range_count(len, width)?;
        let chunks = Mutex::new(data.chunks_mut(width).map(Some).collect::<Vec<_>>());
        pool::run(self.workers(), len, width, |index, range| {
            let chunk = chunks
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_mut(index)
                .and_then(Option::take);
            if let Some(chunk) = chunk {
                f(range.start, chunk);
            }
        })
    }
}

/// One range's slot after the join: filled by the claim protocol and,
/// when the closure succeeded, holding exactly `end - start` results.
fn check_slot<R, E: From<Error>>(
    slot: Option<Result<Vec<R>, E>>,
    start: usize,
    end: usize,
) -> Result<Vec<R>, E> {
    let chunk = slot.ok_or_else(|| Error::Internal {
        message: format!("range {start}..{end} was never claimed by a worker"),
    })??;
    if chunk.len() != end - start {
        return Err(E::from(Error::Internal {
            message: format!(
                "map_chunks closure returned {} results for range {start}..{end} (expected {})",
                chunk.len(),
                end - start
            ),
        }));
    }
    Ok(chunk)
}

/// The items of one claimed range through `f`, stopping at the range's
/// first (lowest-index) error.
fn map_range<T, R, E>(
    items: &[T],
    range: Range<usize>,
    f: impl Fn(usize, &T) -> Result<R, E>,
) -> Result<Vec<R>, E> {
    items
        .iter()
        .enumerate()
        .skip(range.start)
        .take(range.len())
        .map(|(i, item)| f(i, item))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential executor and pools of 1, 2, 3 and 8 workers.
    fn executors() -> Vec<Executor> {
        let mut all = vec![Executor::Sequential];
        all.extend([1, 2, 3, 8].map(|w| Executor::pool(w).unwrap()));
        all
    }

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
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = (0..257).map(|i| i * 1000 + i).collect();
        for executor in executors() {
            let out = executor
                .map(&items, |i, &x| Ok::<usize, Error>(i * 1000 + x))
                .unwrap();
            assert_eq!(out, expected, "{executor:?}");
        }
    }

    #[test]
    fn map_and_map_tasks_agree_across_executors() {
        let items: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let f = |i: usize, x: &f64| Ok::<f64, Error>(x.sin() + (i as f64).sqrt());
        let reference = Executor::Sequential.map(&items, f).unwrap();
        for executor in executors() {
            assert_eq!(executor.map(&items, f).unwrap(), reference, "{executor:?}");
            assert_eq!(
                executor.map_tasks(&items, f).unwrap(),
                reference,
                "{executor:?}"
            );
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..100).collect();
        let f = |i: usize, &x: &usize| {
            if i == 13 || i == 15 || i == 77 {
                Err(Error::Internal {
                    message: format!("boom at {i}"),
                })
            } else {
                Ok(x)
            }
        };
        let expected = Err(Error::Internal {
            message: "boom at 13".to_owned(),
        });
        for executor in executors() {
            assert_eq!(executor.map(&items, f), expected, "{executor:?}");
            assert_eq!(executor.map_tasks(&items, f), expected, "{executor:?}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<usize> = Vec::new();
        let id = |_: usize, &x: &usize| Ok::<usize, Error>(x);
        for executor in executors() {
            assert_eq!(executor.map(&empty, id).unwrap(), Vec::<usize>::new());
            assert_eq!(executor.map_tasks(&[42usize], id).unwrap(), vec![42]);
            let none: Vec<usize> = executor
                .map_chunks(0, 8, |range| Ok::<Vec<usize>, Error>(range.collect()))
                .unwrap();
            assert!(none.is_empty());
        }
    }

    #[test]
    fn map_chunks_concatenates_in_range_order() {
        let expected: Vec<usize> = (0..100).map(|i| i * 2).collect();
        for executor in executors() {
            for width in [1, 3, 7, 64] {
                let out = executor
                    .map_chunks(100, width, |range| {
                        Ok::<Vec<usize>, Error>(range.map(|i| i * 2).collect())
                    })
                    .unwrap();
                assert_eq!(out, expected, "{executor:?}, width = {width}");
            }
        }
    }

    #[test]
    fn zero_width_is_rejected() {
        for executor in executors() {
            let result: Result<Vec<usize>> =
                executor.map_chunks(10, 0, |range| Ok(range.collect()));
            assert!(matches!(result, Err(Error::InvalidConfig { .. })));
            let mut data = vec![0u8; 4];
            assert!(matches!(
                executor.for_each_chunk_mut(&mut data, 0, |_, _| {}),
                Err(Error::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn map_chunks_lowest_range_error_wins() {
        for executor in executors() {
            let result: Result<Vec<usize>> = executor.map_chunks(50, 5, |range| {
                if range.start >= 20 {
                    Err(Error::Internal {
                        message: format!("chunk {} failed", range.start),
                    })
                } else {
                    Ok(range.collect())
                }
            });
            let expected = Err(Error::Internal {
                message: "chunk 20 failed".to_owned(),
            });
            assert_eq!(result, expected, "{executor:?}");
        }
    }

    #[test]
    fn map_chunks_detects_length_contract_violation() {
        for executor in executors() {
            let result: Result<Vec<usize>> = executor.map_chunks(20, 4, |range| {
                // Drop one element from the second chunk.
                let drop_one = usize::from(range.start == 4);
                Ok(range.skip(drop_one).collect())
            });
            assert!(
                matches!(result, Err(Error::Internal { .. })),
                "{executor:?}"
            );
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_every_element_once() {
        let expected: Vec<f64> = (0..203)
            .map(|i| (i as f64).sin() * (i as f64 + 1.0).sqrt())
            .collect();
        for executor in executors() {
            for width in [1, 10, 16, 500] {
                let mut data = vec![0.0f64; 203];
                executor
                    .for_each_chunk_mut(&mut data, width, |start, chunk| {
                        for (offset, value) in chunk.iter_mut().enumerate() {
                            let i = (start + offset) as f64;
                            *value += i.sin() * (i + 1.0).sqrt();
                        }
                    })
                    .unwrap();
                assert_eq!(data, expected, "{executor:?}, width = {width}");
            }
        }
    }
}
