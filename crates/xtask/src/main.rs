//! Command-line entry point for the workspace checker/analyzer.
//!
//! ```text
//! cargo run -p gssl-xtask -- check   [--root PATH] [--json]
//! cargo run -p gssl-xtask -- analyze [--root PATH] [--json]
//! ```
//!
//! Exit codes (both subcommands): `0` clean, `1` violations/findings,
//! `2` usage or I/O error. `--json` emits one JSON object on stdout with
//! the same fields for both passes, so CI can diff them uniformly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: gssl-xtask <check|analyze> [--root PATH] [--json]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command != "check" && command != "analyze" {
        eprintln!("unknown command `{command}`\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut root: Option<PathBuf> = None;
    let mut json = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(value) => root = Some(PathBuf::from(value)),
                None => {
                    eprintln!("--root requires a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // Default root: the workspace containing this crate (compile-time
    // manifest dir), so the binary works from any current directory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    if command == "check" {
        return run_check(&root, json);
    }
    run_analyze(&root, json)
}

/// Runs the line-rule pass.
fn run_check(root: &Path, json: bool) -> ExitCode {
    match gssl_xtask::check_workspace(root) {
        Ok(report) => {
            if json {
                println!("{}", gssl_xtask::analysis::check_json(&report));
                return if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                };
            }
            for violation in &report.violations {
                println!("{violation}");
            }
            if report.is_clean() {
                println!(
                    "gssl-xtask check: {} files scanned, no violations",
                    report.files_scanned
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "gssl-xtask check: {} violation(s) in {} files",
                    report.violations.len(),
                    report.files_scanned
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("gssl-xtask check: cannot scan {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Runs the semantic analyze pass (panic-reachability, shape contracts,
/// concurrency lints, the perf pass, and the determinism pass).
fn run_analyze(root: &Path, json: bool) -> ExitCode {
    match gssl_xtask::analysis::analyze_workspace(root) {
        Ok(report) => {
            if json {
                println!("{}", gssl_xtask::analysis::analyze_json(&report));
                return if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                };
            }
            for finding in &report.findings {
                println!("{finding}");
            }
            if report.is_clean() {
                println!(
                    "gssl-xtask analyze: {} files analyzed, no findings ({} baselined)",
                    report.files_scanned, report.suppressed
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "gssl-xtask analyze: {} finding(s) in {} files ({} baselined)",
                    report.findings.len(),
                    report.files_scanned,
                    report.suppressed
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("gssl-xtask analyze: cannot analyze {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
