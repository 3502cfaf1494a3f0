//! Records the toolchain, build profile and source revision the benchmark
//! binary was built from, so every result can name them.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_GIT={}", git_revision());
    println!("cargo:rerun-if-changed=../.git/HEAD");
}

/// The commit `../.git/HEAD` points at, read without running git; a
/// source tree that is not a git checkout reports `unknown`.
fn git_revision() -> String {
    let git = Path::new("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    println!("cargo:rerun-if-changed=../.git/{reference}");
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    // Packed refs: lines of "<id> <ref>".
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
