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

    // `pub fn undocumented`.
    assert_eq!(count_rule(&report, Rule::MissingDoc), 1, "{}", dump());
    // `x == 0.0` (the `x != 1.0` site carries an inline marker, so it is
    // reported as allow_unlisted, not float_eq).
    assert_eq!(count_rule(&report, Rule::FloatEq), 1, "{}", dump());
    // Missing `#[non_exhaustive]`.
    assert_eq!(count_rule(&report, Rule::ErrorEnum), 1, "{}", dump());
    // Inline marker with no allowlist registration.
    assert_eq!(count_rule(&report, Rule::AllowUnlisted), 1, "{}", dump());
    // One stale entry, one unknown rule key.
    assert_eq!(count_rule(&report, Rule::AllowStale), 2, "{}", dump());

    assert_eq!(report.violations.len(), 6, "{}", dump());
}

#[test]
fn fixture_test_code_is_exempt() {
    let report = check_workspace(&fixture_root()).expect("fixture tree is readable");
    // The `#[cfg(test)]` module in the fixture repeats the float
    // comparisons; none of those lines (>= 25) may be reported.
    assert!(
        report
            .violations
            .iter()
            .all(|v| !v.file.ends_with("demo/src/lib.rs") || v.line < 25),
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

    // `api -> pick` reaches an unguarded index and `ratio_unguarded`
    // divides with no guard; `baselined` is suppressed by the fixture
    // baseline, and `guarded`, `ratio_negated` (`if !(den > 0.0)`) and
    // `ratio_explicit` (`if den.is_nan() || den <= 0.0`) stay silent.
    // The `calls` crate adds one finding per call-resolution rule that
    // links an edge and none for the rules that cut one.
    assert_eq!(count(AnalyzeRule::PanicReach), 4, "{}", dump());
    let reach: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == AnalyzeRule::PanicReach)
        .collect();
    let reached = |chain: &str, file: &str| {
        reach
            .iter()
            .any(|f| f.message.contains(chain) && f.file.ends_with(file))
    };
    // A bare call prefers the caller's file's own free function: demo's
    // `pick`, not the `pick`s of the `calls` crate.
    assert!(reached("`api -> pick`", "demo/src/lib.rs"), "{}", dump());
    assert!(
        reach.iter().any(|f| f.func == "ratio_unguarded"),
        "{}",
        dump()
    );
    // Rule 1: `Self::fit_targets(..)` resolves to the caller's impl type.
    assert!(
        reached("`Engine::fit -> Engine::fit_targets`", "calls/src/lib.rs"),
        "{}",
        dump()
    );
    // Rule 3, module path: `util::pick(..)` resolves to `util.rs`.
    assert!(
        reached("`via_module -> pick`", "calls/src/util.rs"),
        "{}",
        dump()
    );
    // Rules 2 and 3: `self.scale()` reaches no free `scale`, and the bare
    // `helper(..)` neither the decoy free `helper` nor `Probe::helper`.
    assert!(
        reach
            .iter()
            .all(|f| !f.file.ends_with("calls/src/decoy.rs")),
        "{}",
        dump()
    );
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

    assert_eq!(report.findings.len(), 12, "{}", dump());
    assert_eq!(report.suppressed, 1, "{}", dump());
    assert_eq!(report.files_scanned, 8);
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
        markers, 56,
        "the `/// deterministic` inventory drifted from the pinned 56 \
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
        report.suppressed, 47,
        "baseline drifted from the committed 47 entries"
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

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    // The workspace lint table is the one statement of lint policy
    // (`unsafe_code = "forbid"`, `missing_docs = "deny"`, the panic
    // lints); a crate that omits `[lints] workspace = true` silently
    // compiles without it.
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir is readable") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    let missing: Vec<_> = manifests
        .iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).expect("manifest is readable");
            !inherits_workspace_lints(&text)
        })
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
}

/// Whether a manifest's `[lints]` table sets `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}
