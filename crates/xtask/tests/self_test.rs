//! End-to-end self-test of the workspace checker: the seeded fixture tree
//! must be flagged with exactly the expected violations, and the real
//! workspace must come back clean. Running this under `cargo test` keeps
//! `gssl-xtask check` honest in both directions — a rule that stops
//! firing breaks the fixture expectations, and a regression in the tree
//! breaks the clean check.

use gssl_xtask::analysis::{analyze_workspace, AnalyzeRule};
use gssl_xtask::rules::Rule;
use gssl_xtask::{check_workspace, count_rule};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad")
}

fn analyze_fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("analyze")
}

fn perf_fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("perf")
}

fn determinism_fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("determinism")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[test]
fn fixture_tree_is_flagged() {
    let report = check_workspace(&fixture_root()).expect("fixture tree is readable");
    assert!(!report.is_clean());
    let dump = || format!("{:#?}", report.violations);

    // Missing `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`.
    assert_eq!(count_rule(&report, Rule::RootAttrs), 2, "{}", dump());
    // `pub fn undocumented`.
    assert_eq!(count_rule(&report, Rule::MissingDoc), 1, "{}", dump());
    // `v.unwrap()` in library code.
    assert_eq!(count_rule(&report, Rule::NoPanic), 1, "{}", dump());
    // `x == 0.0` (the `x != 1.0` site carries an inline marker, so it is
    // reported as allow_unlisted, not float_eq).
    assert_eq!(count_rule(&report, Rule::FloatEq), 1, "{}", dump());
    // Missing `#[non_exhaustive]` plus one undocumented variant.
    assert_eq!(count_rule(&report, Rule::ErrorEnum), 2, "{}", dump());
    // Inline marker with no allowlist registration.
    assert_eq!(count_rule(&report, Rule::AllowUnlisted), 1, "{}", dump());
    // One stale entry, one unknown rule key.
    assert_eq!(count_rule(&report, Rule::AllowStale), 2, "{}", dump());

    assert_eq!(report.violations.len(), 10, "{}", dump());
}

#[test]
fn fixture_test_code_is_exempt() {
    let report = check_workspace(&fixture_root()).expect("fixture tree is readable");
    // The `#[cfg(test)]` module in the fixture repeats the unwrap and the
    // float comparisons; none of those lines (>= 30) may be reported.
    assert!(
        report
            .violations
            .iter()
            .all(|v| !v.file.ends_with("demo/src/lib.rs") || v.line < 30),
        "{:#?}",
        report.violations
    );
}

#[test]
fn analyze_fixture_tree_is_flagged() {
    let report = analyze_workspace(&analyze_fixture_root()).expect("fixture tree is readable");
    assert!(!report.is_clean());
    let dump = || format!("{:#?}", report.findings);
    let count = |rule| report.findings.iter().filter(|f| f.rule == rule).count();

    // `api -> pick` reaches an unguarded index; `baselined` is suppressed
    // by the fixture baseline and `guarded` stays silent.
    assert_eq!(count(AnalyzeRule::PanicReach), 1, "{}", dump());
    let reach = report
        .findings
        .iter()
        .find(|f| f.rule == AnalyzeRule::PanicReach)
        .expect("panic_reach finding");
    assert!(reach.message.contains("api -> pick"), "{}", dump());
    // `zeros` missing its annotation, `filled` carrying a malformed one.
    assert_eq!(count(AnalyzeRule::ShapeAnnotation), 2, "{}", dump());
    // (2, 3) · (4, 5): inner dimensions differ by literal arithmetic.
    assert_eq!(count(AnalyzeRule::ShapeMismatch), 1, "{}", dump());
    // One of each concurrency violation in the threaded fixture.
    assert_eq!(count(AnalyzeRule::RelaxedOrdering), 1, "{}", dump());
    assert_eq!(count(AnalyzeRule::LockAcrossJoin), 1, "{}", dump());
    assert_eq!(count(AnalyzeRule::NonSyncShared), 1, "{}", dump());
    // The stale `ghost` entry and the unknown rule key.
    assert_eq!(count(AnalyzeRule::BaselineStale), 2, "{}", dump());

    assert_eq!(report.findings.len(), 9, "{}", dump());
    assert_eq!(report.suppressed, 1, "{}", dump());
    assert_eq!(report.files_scanned, 3);
}

#[test]
fn perf_fixture_tree_is_flagged() {
    let report = analyze_workspace(&perf_fixture_root()).expect("fixture tree is readable");
    assert!(!report.is_clean());
    let dump = || format!("{:#?}", report.findings);
    let count = |rule| report.findings.iter().filter(|f| f.rule == rule).count();

    // `hot_entry` declares O(n) but nests two counted loops.
    assert_eq!(count(AnalyzeRule::ComplexityMismatch), 1, "{}", dump());
    // `hot_alloc` loops without a contract; `hot_malformed` declares a sum.
    assert_eq!(count(AnalyzeRule::ComplexityContract), 2, "{}", dump());
    // `helper` (hot only through propagation from `hot_entry`) pushes into
    // an unreserved buffer; `hot_alloc` formats per iteration. The seeded
    // `vec![…]` in `hot_baselined` is suppressed, and `cold_alloc` — the
    // same body without hotness — stays silent.
    assert_eq!(count(AnalyzeRule::HotAlloc), 2, "{}", dump());
    let propagated = report
        .findings
        .iter()
        .filter(|f| f.rule == AnalyzeRule::HotAlloc || f.rule == AnalyzeRule::HotBounds)
        .any(|f| f.func == "helper");
    assert!(propagated, "hotness must reach `helper` via the call graph");
    // `row[j]` in `helper`'s innermost loop; `tmp[0]` is a constant index.
    assert_eq!(count(AnalyzeRule::HotBounds), 1, "{}", dump());
    // The `ghost_fn` baseline entry points at nothing.
    assert_eq!(count(AnalyzeRule::BaselineStale), 1, "{}", dump());

    assert_eq!(report.findings.len(), 7, "{}", dump());
    assert_eq!(report.suppressed, 1, "{}", dump());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn determinism_fixture_tree_is_flagged() {
    let report = analyze_workspace(&determinism_fixture_root()).expect("fixture tree is readable");
    assert!(!report.is_clean());
    let dump = || format!("{:#?}", report.findings);
    let count = |rule| report.findings.iter().filter(|f| f.rule == rule).count();

    // `selection` (f64::max selection) and `rank` (partial_cmp sort key);
    // the match-handled `ordered` stays silent.
    assert_eq!(count(AnalyzeRule::FloatTotalOrder), 2, "{}", dump());
    // Only `selection` is reachable from a `/// deterministic` marker, so
    // only its finding carries the contract chain.
    let selection = report
        .findings
        .iter()
        .find(|f| f.func == "selection")
        .expect("selection finding");
    assert!(
        selection.message.contains("det_entry -> selection"),
        "{}",
        dump()
    );
    let rank = report
        .findings
        .iter()
        .find(|f| f.func == "rank")
        .expect("rank finding");
    assert!(!rank.message.contains("deterministic"), "{}", dump());
    // `tally` (HashMap), `jitter` (thread_rng), `addr_key` (pointer cast);
    // the `latency` wall-clock read is suppressed by the fixture baseline.
    assert_eq!(count(AnalyzeRule::NondetSource), 3, "{}", dump());
    // `chunk_merge` (.sum over per-chunk partials) and `chunk_accumulate`
    // (captured accumulator); the blessed `chunk_scale` stays silent.
    assert_eq!(count(AnalyzeRule::ReductionOrder), 2, "{}", dump());
    // `mislabeled` carries the `deterministic:` colon qualifier.
    assert_eq!(count(AnalyzeRule::DetAnnotation), 1, "{}", dump());
    // The `ghost_fn` baseline entry points at nothing.
    assert_eq!(count(AnalyzeRule::BaselineStale), 1, "{}", dump());

    assert_eq!(report.findings.len(), 9, "{}", dump());
    assert_eq!(report.suppressed, 1, "{}", dump());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn deterministic_annotation_inventory_is_pinned() {
    // Count every `/// deterministic` marker in the library tree. The
    // bitwise coverage test in the umbrella crate (tests/determinism.rs)
    // pins the same inventory by (file, fn) — this count keeps the two in
    // lockstep: add a marker and both tests demand a covering bitwise test.
    let crates_dir = workspace_root().join("crates");
    let mut markers = 0usize;
    let mut stack = vec![crates_dir];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("crates tree is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if path
                    .file_name()
                    .is_some_and(|n| n == "fixtures" || n == "target")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source is readable");
                markers += text
                    .lines()
                    .filter(|l| l.trim() == "/// deterministic")
                    .count();
            }
        }
    }
    assert_eq!(
        markers, 60,
        "the `/// deterministic` inventory drifted from the pinned 60 \
         entry points; update tests/determinism.rs coverage alongside"
    );
}

#[test]
fn analyze_real_workspace_is_baseline_clean() {
    let report = analyze_workspace(&workspace_root()).expect("workspace is readable");
    assert!(
        report.is_clean(),
        "gssl-xtask analyze found findings in the real tree:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50);
    // Every committed baseline entry must still be live — the ratchet
    // reports both regressions (counts up) and staleness (counts down).
    assert_eq!(
        report.suppressed, 99,
        "baseline drifted from the committed 99 entries"
    );
}

#[test]
fn real_workspace_is_clean() {
    let report = check_workspace(&workspace_root()).expect("workspace is readable");
    assert!(
        report.is_clean(),
        "gssl-xtask check found violations in the real tree:\n{:#?}",
        report.violations
    );
    assert!(report.files_scanned > 50);
}
