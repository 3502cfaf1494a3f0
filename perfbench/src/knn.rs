//! `knn-pipeline`: the paper's batch transductive pipeline at a size where
//! every assembly layer and the solver each carry real weight — a seeded
//! R3 cloud, its k-nearest-neighbor Gaussian graph, and the hard criterion
//! solved by the policy's pick (IC(0)-PCG).

use crate::batch::{self, FitTrace, Untraced, WORKERS};
use crate::measure::{dispatch_us, median, peak_rss_mb, since, time, Budget};
use crate::report::Report;
use crate::{fail, gen, Options, Scale};
use gssl::{Problem, Scores};
use gssl_graph::{knn_graph_with, Kernel, Symmetrization};
use gssl_index::{self_k_nearest_batch, BruteForce, NeighborSearch, SpatialIndex};
use gssl_linalg::{Matrix, SolverPolicy};
use gssl_runtime::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Neighbors per vertex.
const K: usize = 10;
/// One vertex in this many is labeled (labeled first).
const LABEL_EVERY: usize = 100;
/// CG tolerance of the fit.
const TOLERANCE: f64 = 1e-7;
/// Self-queries cross-checked against the brute-force oracle.
const ORACLE_QUERIES: usize = 200;

fn points_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 200_000,
        Scale::Tiny => 3_000,
    }
}

/// Consistency-regime bandwidth: the typical k-NN radius at density `n`
/// in the unit cube, `h = (k/n)^(1/3)`.
fn bandwidth(n: usize) -> f64 {
    (K as f64 / n as f64).powf(1.0 / 3.0)
}

fn assemble(points: &Matrix, executor: &Executor) -> Result<gssl_linalg::CsrMatrix, String> {
    let h = bandwidth(points.rows());
    knn_graph_with(
        points,
        K,
        Kernel::Gaussian,
        h,
        Symmetrization::Union,
        executor,
    )
    .map_err(fail("knn_graph_with"))
}

/// Runs the workload.
///
/// # Errors
///
/// The first library error; the run then fails.
pub fn run(options: &Options, report: &mut Report) -> Result<(), String> {
    let n = points_for(options.scale);
    let points = gen::r3_cloud(n, options.seed);
    let labels = gen::binary_labels(n / LABEL_EVERY, options.seed);
    let executor = Executor::with_workers(WORKERS);
    let criterion = batch::criterion(&batch::policy(TOLERANCE));
    let traced_policy = batch::policy(TOLERANCE).with_executor(executor.clone());
    report.note(
        "input",
        format!(
            "n={n} d=3 k={K} h={:.6} labeled={}",
            bandwidth(n),
            labels.len()
        ),
    );

    let mut setup = || -> Result<(Problem, f64), String> {
        let labels = labels.clone();
        let (problem, secs) = time(|| -> Result<Problem, String> {
            let problem = Problem::new(assemble(&points, &executor)?, labels)
                .map_err(fail("Problem::new"))?;
            problem
                .require_anchored(0.0)
                .map_err(fail("require_anchored"))?;
            Ok(problem)
        });
        Ok((problem?, secs))
    };
    let mut untraced = Untraced::default();
    let mut trace = options.trace.then(Trace::default);
    let budget = Budget::new(options.seconds, 3);
    let mut peak_rss = 0.0;
    while budget.more(untraced.reps()) {
        let traced_first = untraced.reps() % 2 == 1;
        if let (Some(trace), true) = (&mut trace, traced_first) {
            trace.rep(&points, &labels, &traced_policy, untraced.last()?.1, report)?;
        }
        untraced.rep(1, &mut setup, &criterion, report)?;
        // The high-water mark of one set-up and fit; later repetitions
        // only add allocator history.
        if untraced.reps() == 1 {
            peak_rss = peak_rss_mb();
        }
        if let (Some(trace), false) = (&mut trace, traced_first) {
            trace.rep(&points, &labels, &traced_policy, untraced.last()?.1, report)?;
        }
    }
    untraced.record(report);
    report.metric("peak_rss_mb", "MB", peak_rss, 1);
    if let Some(trace) = &trace {
        trace.record(report, &points, &untraced.per_rep)?;
    }

    // Correctness, outside every clock.
    let (problem, scores) = untraced.last()?;
    batch::check_solution(report, problem, scores)?;
    let index = SpatialIndex::build(&points).map_err(fail("SpatialIndex::build"))?;
    report.note("index.backend", index.backend());
    report.check(
        "index self-kNN equals BruteForce on a subsample",
        oracle_agrees(&points, &index, options.seed)?,
    );
    Ok(())
}

/// Spans of the traced repetitions: the same pipeline with a span around
/// every layer call.
#[derive(Debug, Default)]
struct Trace {
    assembly: Vec<f64>,
    problem_new: Vec<f64>,
    setup_anchor: Vec<f64>,
    layer_sums: Vec<f64>,
    totals: Vec<f64>,
    fit: FitTrace,
    nnz: usize,
}

impl Trace {
    fn rep(
        &mut self,
        points: &Matrix,
        labels: &[f64],
        policy: &SolverPolicy,
        expected: &Scores,
        report: &mut Report,
    ) -> Result<(), String> {
        let labels = labels.to_vec();
        let pipeline = Instant::now();
        let (graph, assembly_s) = time(|| assemble(points, &policy.executor));
        let graph = graph?;
        self.nnz = graph.nnz();
        let (problem, new_s) = time(|| Problem::new(graph, labels));
        let problem = problem.map_err(fail("Problem::new"))?;
        let (anchored, anchor_s) = time(|| problem.require_anchored(0.0));
        anchored.map_err(fail("require_anchored"))?;
        let fit_s = self.fit.rep(&problem, policy, expected)?;
        self.totals.push(since(pipeline));
        report.ops(2, 0);
        self.layer_sums.push(assembly_s + new_s + anchor_s + fit_s);
        self.assembly.push(assembly_s);
        self.problem_new.push(new_s);
        self.setup_anchor.push(anchor_s);
        Ok(())
    }

    fn record(&self, report: &mut Report, points: &Matrix, untraced: &[f64]) -> Result<(), String> {
        let reps = self.totals.len();
        // The two index stages knn_graph_with runs first, timed on their
        // own after the paired repetitions, so the allocator state they
        // leave behind never favours one side of a pair.
        let executor = Executor::with_workers(WORKERS);
        let (mut build, mut knn) = (vec![], vec![]);
        for _ in 0..reps {
            let (index, build_s) = time(|| SpatialIndex::build(points));
            let index = index.map_err(fail("SpatialIndex::build"))?;
            let (neighbors, knn_s) = time(|| self_k_nearest_batch(&index, K, &executor));
            neighbors.map_err(fail("self_k_nearest_batch"))?;
            build.push(build_s);
            knn.push(knn_s);
        }
        let (build_s, knn_s) = (median(&build), median(&knn));
        report.metric("index.build_s", "s", build_s, reps);
        report.metric("index.self_knn_s", "s", knn_s, reps);
        report.metric(
            "index.self_knn_qps",
            "1/s",
            points.rows() as f64 / knn_s,
            reps,
        );
        let assembly_s = median(&self.assembly);
        report.metric("graph.knn_assembly_s", "s", assembly_s, reps);
        // Derived: assembly − build − self-kNN.
        report.metric(
            "graph.symmetrize_csr_s",
            "s",
            assembly_s - build_s - knn_s,
            reps,
        );
        report.metric("graph.nnz", "count", self.nnz as f64, 1);
        report.metric("core.problem_new_s", "s", median(&self.problem_new), reps);
        self.fit.record(report, &self.setup_anchor, TOLERANCE)?;

        // Single-threaded baseline of the self-kNN stage.
        let index = SpatialIndex::build(points).map_err(fail("SpatialIndex::build"))?;
        let (neighbors, knn_1) = time(|| self_k_nearest_batch(&index, K, &Executor::Sequential));
        neighbors.map_err(fail("1-worker self_k_nearest_batch"))?;
        report.metric("runtime.self_knn_speedup", "x", knn_1 / knn_s, 1);
        report.metric("runtime.spawn_us", "us", dispatch_us(&executor, 200), 200);
        batch::record_trace_summary(report, untraced, &self.layer_sums, &self.totals);
        Ok(())
    }
}

/// The tree index answers a seeded subsample of self-queries exactly like
/// the brute-force oracle: same neighbor ids, bitwise-equal distances.
fn oracle_agrees(points: &Matrix, index: &SpatialIndex, seed: u64) -> Result<bool, String> {
    let brute = BruteForce::build(points).map_err(fail("BruteForce::build"))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1E);
    for _ in 0..ORACLE_QUERIES {
        let i = rng.gen_range(0..points.rows());
        let q = points.row(i);
        let expect = brute
            .k_nearest_excluding(q, K, Some(i))
            .map_err(fail("BruteForce query"))?;
        let got = index
            .k_nearest_excluding(q, K, Some(i))
            .map_err(fail("index query"))?;
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
