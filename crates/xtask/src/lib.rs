//! # gssl-xtask
//!
//! Dependency-free static-analysis pass for the `gssl` workspace, run as
//!
//! ```text
//! cargo run -p gssl-xtask -- check
//! ```
//!
//! The workspace lint table in `Cargo.toml`, enforced by
//! `cargo clippy --workspace --all-targets -- -D warnings`, already
//! forbids `unsafe`, requires docs on every exported item and denies
//! `unwrap`/`expect`/`panic!`/`unreachable!` outside tests. This checker
//! keeps only what no rustc or clippy lint says. It is a line/token
//! scanner (no `syn`, no network, no build scripts) over the eight
//! library crates (`runtime`, `linalg`, `index`, `graph`, `stats`,
//! `datasets`, `core`, `serve`):
//!
//! * every `pub` item is documented, including those in private modules
//!   that rustc's `missing_docs` never sees;
//! * no bare `f64`/`f32` `==` / `!=` against a float literal, zero
//!   included (clippy's `float_cmp` exempts zero); exact sentinels go
//!   through named helpers (`is_exactly_zero` / `is_exactly_one`);
//! * every `pub enum …Error` stays `#[non_exhaustive]`.
//!
//! Justified exceptions need an inline `// lint: allow(<rule>)` marker
//! *and* a registration with a reason in `crates/xtask/allow.list`;
//! unregistered markers and stale registrations are violations themselves.
//! See `DESIGN.md` ("Correctness tooling") for the full contract.

pub mod allowlist;
pub mod analysis;
pub mod baseline;
pub mod callgraph;
pub mod complexity;
pub mod concurrency;
pub mod determinism;
pub mod items;
pub mod lexer;
pub mod perf;
pub mod rules;
pub mod scanner;
pub mod shape;

use rules::{FileContext, FileOutcome, Rule, Violation};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates under `crates/` exempt from the library-crate rules: the
/// vendored offline shims (`rand`, `criterion`), the benchmark harness and
/// this checker itself.
const EXEMPT_CRATES: [&str; 4] = ["rand", "criterion", "bench", "xtask"];

/// Workspace-relative location of the allowlist.
const ALLOW_LIST: &str = "crates/xtask/allow.list";

/// Outcome of a full workspace check.
#[derive(Debug)]
pub struct Report {
    /// All violations, in path order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every check over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns `io::Error` when the tree cannot be read (a *violation* is not
/// an error — inspect the returned [`Report`]).
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    let mut outcome = FileOutcome::default();

    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            crate_names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    crate_names.sort();

    for name in &crate_names {
        let src_dir = crates_dir.join(name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let strict = !EXEMPT_CRATES.contains(&name.as_str());
        let mut files = Vec::new();
        collect_rust_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            files_scanned += 1;
            let text = fs::read_to_string(&file)?;
            let source = scanner::analyze(&text);
            let rel = relative_path(root, &file);
            let ctx = FileContext {
                path: &rel,
                source: &source,
            };
            if strict {
                rules::check_float_eq(&ctx, &mut outcome);
                rules::check_missing_docs(&ctx, &mut outcome);
                rules::check_error_enum(&ctx, &mut outcome);
            }
            rules::collect_inline_allows(&ctx, &mut outcome);
        }
    }

    // Allowlist reconciliation.
    let list_path = root.join(ALLOW_LIST);
    let list_text = match fs::read_to_string(&list_path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let (entries, mut list_violations) = allowlist::parse(&list_text, ALLOW_LIST);
    violations.append(&mut list_violations);
    violations.extend(allowlist::reconcile(&entries, &outcome.allows, ALLOW_LIST));
    violations.append(&mut outcome.violations);

    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.key()).cmp(&(b.file.as_str(), b.line, b.rule.key()))
    });

    Ok(Report {
        violations,
        files_scanned,
    })
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `file` relative to `root`, with forward slashes (stable across hosts so
/// allowlist entries match everywhere).
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Convenience: count violations of one rule in a report.
#[must_use]
pub fn count_rule(report: &Report, rule: Rule) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let file = Path::new("/ws/crates/linalg/src/lib.rs");
        assert_eq!(relative_path(root, file), "crates/linalg/src/lib.rs");
    }
}
