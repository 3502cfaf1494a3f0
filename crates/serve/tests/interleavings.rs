//! Exhaustive bounded-schedule verification of the thread pool's
//! chunk-claim protocol.
//!
//! The `gssl_runtime::sim` harness executes the production claim code
//! (`pool::claim` at the production `pool::chunk_size` width) under every
//! possible interleaving of claim and publish steps for a bounded batch,
//! checking that chunk claims stay disjoint, cover the batch exactly, and
//! that every worker terminates. Passing this grid is the proof cited by
//! the `relaxed_ordering` entry in `crates/xtask/analyze.baseline`: the
//! cursor's `fetch_add` total order alone is enough, no stronger memory
//! ordering required.

use gssl_runtime::sim::enumerate_schedules;

#[test]
fn every_interleaving_is_disjoint_exhaustive_and_terminating() {
    // (batch length, pool workers) — chosen so the enumeration is
    // exhaustive yet finishes quickly; chunk widths of 1, 2 and 3 all
    // appear (chunk_size = max(1, len / (workers * 4))).
    let grid = [
        (1, 2),
        (2, 2),
        (3, 2),
        (4, 2),
        (5, 2),
        (6, 2),
        (2, 3),
        (3, 3),
        (4, 3),
        (16, 2), // chunk width 2
        (24, 2), // chunk width 3
    ];
    for (len, workers) in grid {
        let report = enumerate_schedules(len, workers)
            .unwrap_or_else(|e| panic!("len {len}, workers {workers}: {e}"));
        assert!(
            report.schedules >= 1,
            "len {len}, workers {workers}: no schedule enumerated"
        );
        let chunk = (len / (workers * 4)).max(1);
        assert_eq!(
            report.chunks,
            len.div_ceil(chunk),
            "len {len}, workers {workers}: wrong chunk count"
        );
    }
}

#[test]
fn schedule_space_grows_with_contention() {
    let solo = enumerate_schedules(4, 1).expect("workers=1");
    let pair = enumerate_schedules(4, 2).expect("workers=2");
    let trio = enumerate_schedules(4, 3).expect("workers=3");
    assert_eq!(solo.schedules, 1, "a single worker has a unique schedule");
    assert!(pair.schedules > solo.schedules);
    assert!(trio.schedules > pair.schedules);
}

#[test]
fn longest_schedule_counts_every_atomic_step() {
    // Each of the `ceil(len/chunk)` chunks takes a claim plus a publish,
    // and each worker ends on one failed claim.
    let report = enumerate_schedules(5, 2).expect("enumerate");
    assert_eq!(report.longest, 2 * report.chunks + 2);
}
