//! Million-point scaling benchmark for the `gssl-index` subsystem:
//! assembles a kNN similarity graph over point clouds of increasing
//! size, fits the hard criterion end-to-end through the sparse CG
//! backend, and measures the spatial index's build time and query
//! throughput along the way. Writes `BENCH_scale.json`.
//!
//! ```text
//! cargo run --release -p gssl-bench --bin scale [-- --ci] [-- --quiet]
//! ```
//!
//! `--ci` shrinks the point counts so the run finishes in CI seconds and
//! writes `BENCH_scale_ci.json` instead, leaving the committed
//! million-point record untouched.
//!
//! Each rung also records `peak_rss_mb`, the process's `VmHWM` read after
//! the rung (MiB, `null` where `/proc/self/status` is absent). Rungs run
//! in increasing n, so each reading is that rung's peak.
//!
//! Timing is reported as measured and never gates the exit code: wall
//! clock depends on the host (see `host_parallelism` in the JSON). What
//! gates is the invariant that survives any machine: on a subsample of
//! queries the tree index must return **exactly** the brute-force
//! neighbor set — same indices, bitwise-equal distances — and, at the
//! sizes where it is re-run, the assembled graph must be bit-identical
//! across worker counts.

use gssl::{HardCriterion, HardSolver, Problem};
use gssl_graph::{knn_graph_with, Kernel, Symmetrization};
use gssl_index::{k_nearest_batch, BruteForce, NeighborSearch, SpatialIndex};
use gssl_linalg::{CgOptions, Matrix, SolverPolicy};
use gssl_runtime::Executor;
use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

/// Ambient dimension (low: the auto index selects the KD-tree).
const DIM: usize = 3;
/// Neighbors per vertex in the assembled graph.
const K: usize = 10;
/// Out-of-sample queries timed against each index.
const QUERY_COUNT: usize = 2_000;
/// Queries cross-checked against the brute-force oracle per size.
const ORACLE_QUERIES: usize = 200;
/// Labeled fraction: 1 in 100 vertices, labeled-first convention.
const LABEL_EVERY: usize = 100;
/// Full-run point counts (the acceptance ladder ends at one million).
const FULL_SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// CI point counts: same code path, seconds not minutes.
const CI_SIZES: [usize; 2] = [2_000, 10_000];
/// Graph assembly is re-run at a second worker count (and compared bit
/// for bit) up to this size; beyond it the assembly is paid once.
const WORKER_CHECK_MAX_N: usize = 100_000;

/// Roberts' R3 low-discrepancy sequence: the i-th point of a Kronecker
/// walk with the plastic-number powers as step. Deterministic, no RNG
/// state, and well spread in the unit cube (unlike a single-multiplier
/// recurrence, which would collapse onto a line and flatter the tree).
fn r3_point(i: usize, offset: f64) -> [f64; DIM] {
    const ALPHA: [f64; DIM] = [
        0.819_172_513_396_164_4, // 1/g
        0.671_043_606_703_789_2, // 1/g²
        0.549_700_477_901_936_5, // 1/g³
    ];
    let mut p = [0.0; DIM];
    for (x, a) in p.iter_mut().zip(ALPHA) {
        *x = (0.5 + offset + a * (i as f64 + 1.0)).fract();
    }
    p
}

fn cloud(n: usize) -> Matrix {
    Matrix::from_fn(n, DIM, |i, j| r3_point(i, 0.0)[j])
}

fn query_cloud(count: usize) -> Matrix {
    // A quarter-cell shift keeps the queries off the fitted lattice.
    Matrix::from_fn(count, DIM, |i, j| r3_point(i, 0.25)[j])
}

/// Paper-style shrinking bandwidth: the typical k-NN radius at density
/// `n` in the unit cube, `h_n ≈ (k/n)^(1/d)`.
fn bandwidth_for(n: usize) -> f64 {
    (K as f64 / n as f64).powf(1.0 / DIM as f64)
}

/// Per-size measurements, serialized as one JSON object.
struct SizeReport {
    n: usize,
    bandwidth: f64,
    labeled: usize,
    index_backend: &'static str,
    index_build_seconds: f64,
    batch_seconds: f64,
    queries_per_sec: f64,
    assembly_seconds: f64,
    graph_nnz: usize,
    fit_seconds: f64,
    score_min: f64,
    score_max: f64,
    oracle_identical: bool,
    workers_identical: Option<bool>,
    /// `VmHWM` after the rung; rungs run in increasing n, so it is the
    /// rung's own peak. `None` where `/proc` does not report it.
    peak_rss_mb: Option<f64>,
}

impl SizeReport {
    fn to_json(&self) -> String {
        let workers = match self.workers_identical {
            Some(v) => v.to_string(),
            None => "null".to_owned(),
        };
        let peak = self
            .peak_rss_mb
            .map_or("null".to_owned(), |mb| format!("{mb:.1}"));
        format!(
            "  {{\"n\": {}, \"bandwidth\": {:.6}, \"labeled\": {}, \
             \"index_backend\": \"{}\", \"index_build_seconds\": {:.6}, \
             \"batch_queries\": {QUERY_COUNT}, \"batch_seconds\": {:.6}, \
             \"queries_per_sec\": {:.1}, \"assembly_seconds\": {:.6}, \
             \"graph_nnz\": {}, \"fit_seconds\": {:.6}, \
             \"score_min\": {:.6}, \"score_max\": {:.6}, \
             \"oracle_check_queries\": {ORACLE_QUERIES}, \
             \"oracle_identical\": {}, \"workers_identical\": {}, \
             \"peak_rss_mb\": {}}}",
            self.n,
            self.bandwidth,
            self.labeled,
            self.index_backend,
            self.index_build_seconds,
            self.batch_seconds,
            self.queries_per_sec,
            self.assembly_seconds,
            self.graph_nnz,
            self.fit_seconds,
            self.score_min,
            self.score_max,
            self.oracle_identical,
            workers,
            peak,
        )
    }
}

/// Bitwise comparison of two CSR graphs (structure and values).
fn graphs_identical(a: &gssl_linalg::CsrMatrix, b: &gssl_linalg::CsrMatrix) -> bool {
    a.rows() == b.rows()
        && a.nnz() == b.nnz()
        && (0..a.rows()).all(|i| {
            a.row_iter(i)
                .zip(b.row_iter(i))
                .all(|((ca, va), (cb, vb))| ca == cb && va.to_bits() == vb.to_bits())
        })
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` is absent or does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
        kb.trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
    })
}

/// The tree index answers a query subsample exactly like the oracle:
/// same neighbor ids, bitwise-equal squared distances.
fn oracle_agrees(
    points: &Matrix,
    index: &SpatialIndex,
    queries: &Matrix,
) -> Result<bool, Box<dyn Error>> {
    let brute = BruteForce::build(points)?;
    let take = queries.rows().min(ORACLE_QUERIES);
    for qi in 0..take {
        let q = queries.row(qi);
        let expect = brute.k_nearest(q, K)?;
        let got = index.k_nearest(q, K)?;
        let same = expect.len() == got.len()
            && expect
                .iter()
                .zip(&got)
                .all(|(e, g)| e.index == g.index && e.dist2.to_bits() == g.dist2.to_bits());
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

fn run_size(n: usize, quiet: bool) -> Result<SizeReport, Box<dyn Error>> {
    let points = cloud(n);
    let bandwidth = bandwidth_for(n);
    let labeled = (n / LABEL_EVERY).max(2);
    let executor = Executor::with_workers(0);

    let start = Instant::now();
    let index = SpatialIndex::build(&points)?;
    let index_build_seconds = start.elapsed().as_secs_f64();

    let queries = query_cloud(QUERY_COUNT);
    let start = Instant::now();
    let batches = k_nearest_batch(&index, &queries, K, &executor)?;
    let batch_seconds = start.elapsed().as_secs_f64();
    assert_eq!(batches.len(), QUERY_COUNT);
    let queries_per_sec = QUERY_COUNT as f64 / batch_seconds.max(1e-12);

    let oracle_identical = oracle_agrees(&points, &index, &queries)?;

    let start = Instant::now();
    let graph = knn_graph_with(
        &points,
        K,
        Kernel::Gaussian,
        bandwidth,
        Symmetrization::Union,
        &executor,
    )?;
    let assembly_seconds = start.elapsed().as_secs_f64();
    let graph_nnz = graph.nnz();

    // At the smaller rungs, pay the assembly once more at a different
    // worker count and require the result bit for bit.
    let workers_identical = if n <= WORKER_CHECK_MAX_N {
        let twin = knn_graph_with(
            &points,
            K,
            Kernel::Gaussian,
            bandwidth,
            Symmetrization::Union,
            &Executor::with_workers(4),
        )?;
        Some(graphs_identical(&graph, &twin))
    } else {
        None
    };

    // End-to-end hard-criterion fit through the policy-selected sparse
    // path (the dense solvers would need an n × n matrix — 8 TB at a
    // million points; the CSR route runs in O(nnz) memory). Every rung
    // routes to AMG. The kNN graph's CSR bandwidth is ~n (spatial
    // neighbors are scattered in index order), which the K-cycle does not
    // mind: at 10⁶ points it takes 13 iterations on 8 levels, against 48
    // for incomplete-Cholesky PCG on the same system (DESIGN.md §6h).
    let labels: Vec<f64> = (0..labeled).map(|i| f64::from(i as u8 % 2)).collect();
    let start = Instant::now();
    let problem = Problem::new(graph, labels)?;
    problem.require_anchored(0.0)?;
    let scores = HardCriterion::new()
        .solver(HardSolver::Auto(SolverPolicy::with_cg(CgOptions {
            max_iterations: 10_000,
            tolerance: 1e-7,
        })))
        .fit(&problem)?;
    let fit_seconds = start.elapsed().as_secs_f64();
    let (score_min, score_max) = scores
        .all()
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });

    let report = SizeReport {
        n,
        bandwidth,
        labeled,
        index_backend: index.backend(),
        index_build_seconds,
        batch_seconds,
        queries_per_sec,
        assembly_seconds,
        graph_nnz,
        fit_seconds,
        score_min,
        score_max,
        oracle_identical,
        workers_identical,
        peak_rss_mb: peak_rss_mb(),
    };
    if !quiet {
        println!(
            "n={:>9}  build {:>8.3}s  {:>9.0} q/s  assemble {:>8.3}s  \
             fit {:>8.3}s  nnz {:>10}  peak {:>7} MB  oracle {}  workers {}",
            report.n,
            report.index_build_seconds,
            report.queries_per_sec,
            report.assembly_seconds,
            report.fit_seconds,
            report.graph_nnz,
            report
                .peak_rss_mb
                .map_or("n/a".to_owned(), |mb| format!("{mb:.1}")),
            report.oracle_identical,
            report
                .workers_identical
                .map_or("skipped".to_owned(), |v| v.to_string()),
        );
    }
    Ok(report)
}

fn main() -> Result<ExitCode, Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let ci = args.iter().any(|a| a == "--ci");
    let (sizes, out_path): (&[usize], &str) = if ci {
        (&CI_SIZES, "BENCH_scale_ci.json")
    } else {
        (&FULL_SIZES, "BENCH_scale.json")
    };

    if !quiet {
        println!(
            "== scale: kNN graph assembly and hard fit, d={DIM} k={K} ({} mode) ==",
            if ci { "ci" } else { "full" }
        );
    }
    let total_start = Instant::now();
    let reports = sizes
        .iter()
        .map(|&n| run_size(n, quiet))
        .collect::<Result<Vec<SizeReport>, _>>()?;
    let end_to_end_seconds = total_start.elapsed().as_secs_f64();

    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let body = reports
        .iter()
        .map(SizeReport::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n\"mode\": \"{}\",\n\"host_parallelism\": {host_parallelism},\n\
         \"dim\": {DIM},\n\"k\": {K},\n\"end_to_end_seconds\": {end_to_end_seconds:.3},\n\
         \"sizes\": [\n{body}\n]\n}}\n",
        if ci { "ci" } else { "full" },
    );
    std::fs::write(out_path, &json)?;

    // Exit gates: exactness, never timing. (Per-query latency growing
    // sublinearly is visible in the recorded queries_per_sec column —
    // a 100× size step must not cost 100× the query time — but wall
    // clock is host-dependent, so it is reported, not gated.)
    let exact = reports
        .iter()
        .all(|r| r.oracle_identical && r.workers_identical.unwrap_or(true));
    if !quiet {
        let first = &reports[0];
        let last = &reports[reports.len() - 1];
        let size_ratio = last.n as f64 / first.n as f64;
        let qps_ratio = first.queries_per_sec / last.queries_per_sec.max(1e-12);
        println!(
            "\nsize grew {size_ratio:.0}x, per-query cost grew {qps_ratio:.1}x \
             (linear scan would be ~{size_ratio:.0}x); wrote {out_path}"
        );
        println!(
            "exactness gates: {}",
            if exact { "all passed" } else { "FAILED" }
        );
    }
    Ok(if exact {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
