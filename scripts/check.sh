#!/usr/bin/env bash
# Full workspace gate: format check (when rustfmt is installed), the
# project's own static-analysis pass, release build, clippy, and the test
# suite with and without the runtime numeric sanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "== cargo fmt unavailable; skipping format check"
fi

echo "== gssl-xtask check"
cargo run -q -p gssl-xtask -- check

echo "== gssl-xtask analyze --json"
# Semantic passes (panic-reachability, shape contracts, concurrency, the
# perf pass: hot propagation, complexity contracts, alloc/bounds lints,
# and the determinism pass: float total-order, nondeterministic-source
# and chunk-reduction-order lints with `/// deterministic` contract
# propagation); exits 0 when clean, 1 on any finding not covered by
# crates/xtask/analyze.baseline (including stale entries), 2 on I/O
# errors. JSON goes to the log so CI can archive the machine-readable
# report; any nonzero exit fails the gate.
cargo run -q -p gssl-xtask -- analyze --json || {
    status=$?
    echo "gssl-xtask analyze failed with exit code ${status}" >&2
    exit "${status}"
}

echo "== cargo build --release"
cargo build --release

echo "== cargo clippy --all-targets (warnings are errors)"
# The one lint gate: the workspace lint table in Cargo.toml (forbid
# unsafe, deny missing docs and the panic family outside tests), clippy's
# default lints and rustc's warnings, all errors. Clippy type-checks every
# target, the Criterion benches included, which `cargo test` never builds.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy --all-targets --all-features (warnings are errors)"
# The same gate over the code behind `cfg(feature = "strict-checks")`,
# which the featureless step never compiles. Both steps stay: the
# featureless `cfg(not(feature = "strict-checks"))` bodies in
# gssl-linalg's `strict` module compile only in the step above.
cargo clippy --workspace --all-targets --all-features --offline -- -D warnings

echo "== cargo doc (warnings are errors)"
# Broken or private intra-doc links fail here, so a removed or renamed
# item cannot leave a dangling link in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test --features strict-checks"
cargo test -q --features strict-checks

echo "== feature crates' own tests under strict-checks"
# The step above builds only the root package's test targets, so the
# tests of the crates that define the feature (the serve-boundary checks
# among them) need their own run with the sanitizer on.
cargo test -q --offline -p gssl-linalg -p gssl -p gssl-serve \
    --features gssl-linalg/strict-checks,gssl/strict-checks,gssl-serve/strict-checks

echo "== benchmark build + tests (perfbench/, its own Cargo workspace)"
# perfbench/ is a workspace of its own, so the builds above never compile
# it: a library change that breaks a call the benchmark makes would pass
# every other gate and fail only when the benchmark runs. Its tests run
# each workload at a tiny size, traced runs included.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== scale bench, ci sizes (writes BENCH_scale_ci.json)"
# Assembles kNN graphs through the spatial index and fits the hard
# criterion end to end at CI-sized point counts, then exits nonzero if
# the tree index disagrees with the brute-force oracle on a query
# subsample or the assembled graph differs across worker counts. The
# committed BENCH_scale.json comes from the full run
# (`--bin scale`, no flags: 10^4..10^6 points) and is not touched here.
cargo run --release -q -p gssl-bench --bin scale -- --ci --quiet
rm -f BENCH_scale_ci.json

echo "== solver crossover bench, ci sizes (writes BENCH_solver_ci.json)"
# Sweeps grid-Laplacian systems through every factorization backend
# (dense Cholesky, Jacobi-CG, AMG) and
# exits nonzero if any solve misses its residual gate or AMG needs
# more CG iterations than plain Jacobi — deterministic correctness
# properties, never timing. The committed BENCH_solver.json comes from
# the full run (`--bin solver_crossover`, no flags) and is not touched.
cargo run --release -q -p gssl-bench --bin solver_crossover -- --ci --quiet
rm -f BENCH_solver_ci.json

echo "== results files match their commands (scripts/results.sh)"
# Reruns every results binary with the command on the first line of its
# results_*.txt file and diffs the output byte for byte: the end-to-end
# check that a change leaves every number the reproduction reports alone.
scripts/results.sh

echo "All checks passed."
