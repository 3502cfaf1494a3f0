//! Deterministic interleaving harness for the chunk-claim protocol of
//! [`crate::ThreadPool`] (mini-loom).
//!
//! `ThreadPool::map` and `ThreadPool::map_chunks` coordinate their workers
//! through exactly two shared objects: an atomic cursor advanced by one
//! `fetch_add` per claim, and a mutex-protected slot vector written once
//! per claimed chunk. Every observable behaviour of the protocol is
//! therefore a sequence of *atomic steps* — claims and publishes — and for
//! a bounded batch the set of such sequences is finite.
//! [`enumerate_schedules`](crate::sim::enumerate_schedules) walks **all**
//! of them by depth-first search with backtracking, executing the
//! production claim code (`pool::claim` at the width chosen by
//! `pool::chunk_size`) at every claim step, and checks three safety
//! properties in every schedule:
//!
//! * **disjointness** — no item is ever claimed by two workers;
//! * **exhaustiveness** — every item is claimed and published exactly
//!   once, so no batch slot can be left empty;
//! * **termination** — each worker halts at its first failed claim and is
//!   never scheduled again.
//!
//! [`enumerate_schedules_with_width`](crate::sim::enumerate_schedules_with_width)
//! runs the identical search at a caller-chosen chunk width, covering the
//! `map_chunks` protocol where the width is picked by the caller rather
//! than by `chunk_size`.
//!
//! `Ordering::Relaxed` on the cursor is sound precisely because the
//! modification order of a single atomic object is total regardless of
//! ordering strength: the schedules enumerated here cover every order in
//! which the hardware may serialize the `fetch_add`s, and no other data
//! flows through the cursor (results are published under the slots mutex
//! and fenced by the `thread::scope` join). This module is the proof
//! referenced by the `relaxed_ordering` entry in
//! `crates/xtask/analyze.baseline`; `gssl-serve`'s
//! `tests/interleavings.rs` runs it exhaustively over a grid of batch
//! shapes.

use crate::pool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of an exhaustive enumeration: how much of the schedule space
/// was covered. All counters describe *passing* schedules — the search
/// stops at the first violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Number of complete schedules enumerated.
    pub schedules: usize,
    /// Atomic steps in the longest schedule.
    pub longest: usize,
    /// Successful chunk claims per schedule (identical in every schedule:
    /// `ceil(len / chunk)`).
    pub chunks: usize,
}

/// Hard cap on the number of schedules a single enumeration may visit;
/// exceeding it is reported as an error rather than an endless run.
const MAX_SCHEDULES: usize = 5_000_000;

/// Where a simulated worker is in the claim/publish loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Worker {
    /// About to execute `claim` on the shared cursor.
    Claiming,
    /// Holds `start..end` locally; about to publish it into the slots.
    Publishing { start: usize, end: usize },
    /// Observed an exhausted cursor; never scheduled again.
    Done,
}

/// Reversible record of one atomic step, so the DFS can backtrack.
#[derive(Debug)]
enum Undo {
    Claimed {
        worker: usize,
        cursor_before: usize,
        start: usize,
        end: usize,
    },
    Exhausted {
        worker: usize,
        cursor_before: usize,
    },
    Published {
        worker: usize,
        start: usize,
        end: usize,
    },
}

struct Sim {
    len: usize,
    chunk: usize,
    cursor: AtomicUsize,
    workers: Vec<Worker>,
    /// `claimed[i]` = worker that claimed item `i` (set at claim time).
    claimed: Vec<Option<usize>>,
    /// `published[i]` = worker that published item `i` (set at publish
    /// time; models the mutex-guarded slot write).
    published: Vec<Option<usize>>,
}

impl Sim {
    fn new(len: usize, workers: usize) -> Self {
        Sim::with_width(len, workers, pool::chunk_size(len, workers))
    }

    fn with_width(len: usize, workers: usize, width: usize) -> Self {
        let threads = workers.min(len).max(1);
        Sim {
            len,
            chunk: width,
            cursor: AtomicUsize::new(0),
            workers: vec![Worker::Claiming; threads],
            claimed: vec![None; len],
            published: vec![None; len],
        }
    }

    /// Executes one atomic step of worker `w` and records how to undo it.
    fn step(&mut self, w: usize) -> Result<Undo, String> {
        if w >= self.workers.len() {
            return Err(format!("scheduled nonexistent worker {w}"));
        }
        match self.workers[w] {
            Worker::Done => Err(format!("worker {w} stepped after termination")),
            Worker::Claiming => {
                let cursor_before = self.cursor.load(Ordering::SeqCst);
                match pool::claim(&self.cursor, self.chunk, self.len) {
                    None => {
                        self.workers[w] = Worker::Done;
                        Ok(Undo::Exhausted {
                            worker: w,
                            cursor_before,
                        })
                    }
                    Some((start, end)) => {
                        if start >= end || end > self.len {
                            return Err(format!(
                                "worker {w} claimed malformed range {start}..{end} of {}",
                                self.len
                            ));
                        }
                        for (i, owner) in self.claimed[start..end].iter_mut().enumerate() {
                            if let Some(other) = owner {
                                return Err(format!(
                                    "item {} claimed by worker {w} and worker {other}",
                                    start + i
                                ));
                            }
                            *owner = Some(w);
                        }
                        self.workers[w] = Worker::Publishing { start, end };
                        Ok(Undo::Claimed {
                            worker: w,
                            cursor_before,
                            start,
                            end,
                        })
                    }
                }
            }
            Worker::Publishing { start, end } => {
                for (i, slot) in self.published[start..end].iter_mut().enumerate() {
                    if let Some(other) = slot {
                        return Err(format!(
                            "slot {} published twice (worker {w} and worker {other})",
                            start + i
                        ));
                    }
                    *slot = Some(w);
                }
                self.workers[w] = Worker::Claiming;
                Ok(Undo::Published {
                    worker: w,
                    start,
                    end,
                })
            }
        }
    }

    /// Reverses the effect of a [`Sim::step`] (LIFO order only).
    fn undo(&mut self, undo: Undo) {
        match undo {
            Undo::Claimed {
                worker,
                cursor_before,
                start,
                end,
            } => {
                // Undo records come from `step`, which validated them.
                debug_assert!(end <= self.claimed.len() && worker < self.workers.len());
                self.cursor.store(cursor_before, Ordering::SeqCst);
                for owner in &mut self.claimed[start..end] {
                    *owner = None;
                }
                self.workers[worker] = Worker::Claiming;
            }
            Undo::Exhausted {
                worker,
                cursor_before,
            } => {
                self.cursor.store(cursor_before, Ordering::SeqCst);
                self.workers[worker] = Worker::Claiming;
            }
            Undo::Published { worker, start, end } => {
                for slot in &mut self.published[start..end] {
                    *slot = None;
                }
                self.workers[worker] = Worker::Publishing { start, end };
            }
        }
    }

    /// Invariants that must hold once every worker has terminated.
    fn check_complete(&self, trace: &[usize]) -> Result<(), String> {
        for (i, (owner, slot)) in self.claimed.iter().zip(&self.published).enumerate() {
            if owner.is_none() {
                return Err(format!("schedule {trace:?}: item {i} never claimed"));
            }
            if slot.is_none() {
                return Err(format!("schedule {trace:?}: item {i} never published"));
            }
            if owner != slot {
                return Err(format!(
                    "schedule {trace:?}: item {i} claimed by {owner:?} but published by {slot:?}"
                ));
            }
        }
        if self.cursor.load(Ordering::SeqCst) < self.len {
            return Err(format!(
                "schedule {trace:?}: all workers halted with cursor short of {}",
                self.len
            ));
        }
        Ok(())
    }
}

/// Exhaustively enumerates every interleaving of claim/publish steps for a
/// batch of `len` items on a pool of `workers` threads at the production
/// [`ThreadPool::map`](crate::ThreadPool::map) chunk width, checking the
/// protocol invariants in each one. Returns coverage statistics, or a
/// description of the first violated invariant (including the offending
/// schedule as a sequence of worker indices).
///
/// The schedule space grows exponentially in `len × workers`; keep bounds
/// small (`len ≤ 8`, `workers ≤ 3` finishes well under a second). An
/// enumeration that would exceed an internal safety cap is reported as an
/// error instead of running unbounded.
///
/// # Errors
///
/// Returns a human-readable message when an invariant is violated or the
/// schedule space exceeds the safety cap.
pub fn enumerate_schedules(len: usize, workers: usize) -> Result<ScheduleReport, String> {
    if workers == 0 {
        return Err("enumerate_schedules requires at least one worker".to_owned());
    }
    run(Sim::new(len, workers))
}

/// Same exhaustive search as [`enumerate_schedules`], but at a
/// caller-chosen chunk `width` — the configuration exercised by
/// [`ThreadPool::map_chunks`](crate::ThreadPool::map_chunks), where the
/// caller (not `chunk_size`) picks the claim stride.
///
/// # Errors
///
/// Returns a human-readable message when `workers` or `width` is zero, an
/// invariant is violated, or the schedule space exceeds the safety cap.
pub fn enumerate_schedules_with_width(
    len: usize,
    workers: usize,
    width: usize,
) -> Result<ScheduleReport, String> {
    if workers == 0 {
        return Err("enumerate_schedules_with_width requires at least one worker".to_owned());
    }
    if width == 0 {
        return Err("enumerate_schedules_with_width requires a nonzero chunk width".to_owned());
    }
    run(Sim::with_width(len, workers, width))
}

fn run(mut sim: Sim) -> Result<ScheduleReport, String> {
    let mut report = ScheduleReport {
        schedules: 0,
        longest: 0,
        chunks: if sim.chunk == 0 {
            0
        } else {
            sim.len.div_ceil(sim.chunk)
        },
    };
    let mut trace = Vec::new();
    dfs(&mut sim, &mut trace, &mut report)?;
    Ok(report)
}

fn dfs(sim: &mut Sim, trace: &mut Vec<usize>, report: &mut ScheduleReport) -> Result<(), String> {
    let runnable: Vec<usize> = sim
        .workers
        .iter()
        .enumerate()
        .filter(|(_, state)| **state != Worker::Done)
        .map(|(w, _)| w)
        .collect();
    if runnable.is_empty() {
        sim.check_complete(trace)?;
        report.schedules += 1;
        if report.schedules > MAX_SCHEDULES {
            return Err(format!(
                "schedule space exceeds safety cap of {MAX_SCHEDULES}; shrink the batch"
            ));
        }
        report.longest = report.longest.max(trace.len());
        return Ok(());
    }
    for w in runnable {
        let undo = sim.step(w)?;
        trace.push(w);
        dfs(sim, trace, report)?;
        trace.pop();
        sim.undo(undo);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_workers_tiny_batch_is_exhaustive_and_clean() {
        let report = enumerate_schedules(3, 2).unwrap();
        // chunk_size(3, 2) = 1: three claims + publishes + two failed
        // claims = 8 atomic steps split across two workers.
        assert_eq!(report.chunks, 3);
        assert_eq!(report.longest, 8);
        assert!(report.schedules > 10, "got {}", report.schedules);
    }

    #[test]
    fn single_worker_has_one_schedule() {
        let report = enumerate_schedules(4, 1).unwrap();
        assert_eq!(report.schedules, 1);
        // chunk_size(4, 1) = 1: four claim/publish pairs + one failed claim.
        assert_eq!(report.longest, 9);
    }

    #[test]
    fn empty_batch_terminates_immediately() {
        let report = enumerate_schedules(0, 2).unwrap();
        assert_eq!(report.chunks, 0);
        assert_eq!(report.longest, 1);
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn zero_workers_is_an_error() {
        assert!(enumerate_schedules(3, 0).is_err());
        assert!(enumerate_schedules_with_width(3, 0, 1).is_err());
    }

    #[test]
    fn zero_width_is_an_error() {
        assert!(enumerate_schedules_with_width(3, 2, 0).is_err());
    }

    #[test]
    fn wide_chunks_cover_in_fewer_claims() {
        // chunk_size(16, 2) = 2: 8 chunks of width 2.
        let report = enumerate_schedules(16, 2).unwrap();
        assert_eq!(report.chunks, 8);
    }

    #[test]
    fn caller_chosen_widths_are_clean() {
        // The map_chunks configuration: arbitrary caller widths, including
        // a ragged final chunk and a width wider than the batch.
        for (len, workers, width) in [(5, 2, 2), (6, 2, 3), (6, 3, 2), (4, 2, 8), (7, 2, 3)] {
            let report = enumerate_schedules_with_width(len, workers, width).unwrap();
            assert_eq!(
                report.chunks,
                len.div_ceil(width),
                "len = {len}, workers = {workers}, width = {width}"
            );
            assert!(report.schedules >= 1);
        }
    }

    #[test]
    fn schedule_count_grows_with_workers() {
        let two = enumerate_schedules(3, 2).unwrap();
        let three = enumerate_schedules(3, 3).unwrap();
        assert!(three.schedules > two.schedules);
    }

    #[test]
    fn harness_detects_a_broken_claim_protocol() {
        // Sanity-check the checker itself: a cursor that re-issues the
        // same chunk must be caught as a disjointness violation.
        let mut sim = Sim::new(2, 2);
        sim.chunk = 1;
        let first = sim.step(0).unwrap();
        // Roll the cursor back as if the fetch_add were lost, then let the
        // second worker claim: it must collide with worker 0's claim.
        match first {
            Undo::Claimed { cursor_before, .. } => {
                sim.cursor.store(cursor_before, Ordering::SeqCst);
            }
            _ => unreachable!("first claim on a non-empty batch succeeds"),
        }
        let second = sim.step(1);
        assert!(second.is_err(), "lost update went undetected");
        let message = second.unwrap_err();
        assert!(message.contains("claimed by"), "unexpected: {message}");
    }
}
