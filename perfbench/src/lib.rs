//! The gssl benchmark: three seeded workloads driven through the public
//! API of the workspace crates, reporting end-to-end metrics with tracing
//! off and, in a separate traced run, per-layer metrics timed from spans
//! around the calls into each layer.
//!
//! The layers are the workspace crates: `index`, `graph`, `core` (crate
//! `gssl`), `linalg`, `runtime` and `serve`. `stats` and `rand` only
//! supply quantiles and seeded draws. No span sits inside the library:
//! every span is a clock read in this crate around a public call.

pub mod batch;
pub mod gen;
pub mod host;
pub mod knn;
pub mod lattice;
pub mod measure;
pub mod report;
pub mod serve;

use report::Report;

/// End-to-end metrics: measured with tracing off, reported by every
/// workload. What each means per workload is listed in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("fit_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: reported by the traced run of every workload; a
/// layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.build_s", "s"),
    ("index.self_knn_s", "s"),
    ("index.self_knn_qps", "1/s"),
    ("index.radius_query_us", "us"),
    ("graph.knn_assembly_s", "s"),
    ("graph.symmetrize_csr_s", "s"),
    ("graph.nnz", "count"),
    ("graph.kernel_weights_s", "s"),
    ("graph.component_partition_s", "s"),
    ("core.problem_new_s", "s"),
    ("core.anchor_check_s", "s"),
    ("core.system_csr_s", "s"),
    ("core.rhs_s", "s"),
    ("linalg.factor_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.iterations", "count"),
    ("linalg.s_per_iter", "s"),
    ("linalg.final_residual", "1"),
    ("linalg.amg_levels", "count"),
    ("linalg.amg_coarse_dim", "count"),
    ("runtime.spawn_us", "us"),
    ("runtime.self_knn_speedup", "x"),
    ("runtime.solve_speedup", "x"),
    ("serve.shard_plan_s", "s"),
    ("serve.shard_fit_s", "s"),
    ("serve.shards", "count"),
    ("serve.max_shard_nodes", "count"),
    ("serve.predict_qps", "1/s"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.batch_service_us_p50", "us"),
    ("serve.batch_service_us_p99", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.fold_p50_ms", "ms"),
    ("serve.fold_p90_ms", "ms"),
    ("serve.folds", "count"),
    ("serve.epochs", "count"),
    ("serve.snapshot_s", "s"),
    ("serve.snapshot_bytes", "bytes"),
    ("load.late_p99_ms", "ms"),
    ("trace.layer_sum_s", "s"),
    ("trace.remainder_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch transductive pipeline on a 200 000-point kNN graph.
    KnnPipeline,
    /// Hard criterion on a 512 × 512 lattice, solved by AMG.
    LatticeAmg,
    /// Sharded serving with Eq. 6 reads and label folds mixed.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::KnnPipeline,
        Workload::LatticeAmg,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnPipeline => "knn-pipeline",
            Workload::LatticeAmg => "lattice-amg",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale sizes that exercise the same code paths.
    Tiny,
}

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one workload and returns what it measured and checked.
pub fn run(workload: Workload, options: &Options) -> Report {
    let mut report = Report::default();
    let outcome = match workload {
        Workload::KnnPipeline => knn::run(options, &mut report),
        Workload::LatticeAmg => lattice::run(options, &mut report),
        Workload::ServeMixed => serve::run(options, &mut report),
    };
    if let Err(message) = outcome {
        report.note("error", &message);
        report.check("workload completed", false);
    }
    let emitted = if options.trace { PER_LAYER } else { END_TO_END };
    let finite = emitted
        .iter()
        .all(|(name, _)| report.get(name).is_none_or(|m| m.value.is_finite()));
    report.check("emitted metrics are finite", finite);
    let measured = END_TO_END
        .iter()
        .all(|(name, _)| report.get(name).is_some_and(|m| m.value > 0.0));
    report.check("every end-to-end metric measured", measured);
    report
}

/// Turns a library error into the run's error message.
pub(crate) fn fail<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}
