//! Thread-scaling benchmark for the shared execution layer
//! (`gssl-runtime`): times kernel-matrix assembly, hard- and soft-
//! criterion fits, and batch prediction at 1/2/4/8 workers, verifies the
//! determinism contract (parallel output **bit-identical** to the
//! 1-worker run), and writes `BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p gssl-bench --bin threads_scaling [-- --ci] [-- --quiet]
//! ```
//!
//! `--ci` runs the same stages but writes `BENCH_parallel_ci.json`
//! instead, leaving the committed record untouched.
//!
//! Timing is reported as measured and never gates the exit code: on a
//! ci host with a single hardware thread (see `host_parallelism` in the
//! JSON) every speedup is necessarily ~1×. What gates is the invariant
//! that survives any machine: every stage's output at 2/4/8 workers must
//! equal the 1-worker output byte for byte.

use gssl::{HardCriterion, Problem, SoftCriterion};
use gssl_graph::{Kernel, KernelGraph};
use gssl_linalg::{Matrix, SolverPolicy};
use gssl_runtime::Executor;
use gssl_serve::{EngineConfig, Prediction, QueryPoint, ServingEngine};
use std::process::ExitCode;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Assembly workload: points for the dense kernel matrix.
const ASSEMBLY_NODES: usize = 1100;
const ASSEMBLY_DIM: usize = 24;

/// Fit workload: a smaller anchored problem (the criterion systems are
/// cubic in the unlabeled count, the assembly only quadratic).
const FIT_NODES: usize = 420;
const FIT_LABELED: usize = 70;

/// Serving workload.
const SERVE_NODES: usize = 260;
const SERVE_LABELED: usize = 52;
const SERVE_QUERIES: usize = 3000;

/// Deterministic quasi-random coordinate in [0, 1) (no RNG state, so
/// every worker-count run sees exactly the same inputs).
fn coord(i: usize, j: usize) -> f64 {
    let x = ((i * 131 + j * 37 + 11) as f64) * 0.6180339887498949;
    x.fract()
}

fn points(n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, coord)
}

/// One stage at one worker count.
struct Sample {
    workers: usize,
    seconds: f64,
    bit_identical: bool,
}

/// A timed stage: name, the number of output elements one run produces
/// (kernel entries, fitted scores, predictions — the unit the throughput
/// figures are denominated in), and per-worker-count samples.
struct Stage {
    name: &'static str,
    elements: usize,
    samples: Vec<Sample>,
}

impl Stage {
    /// Runs `work` once per worker count, comparing each output against
    /// the 1-worker reference with `eq`.
    fn run<R>(
        name: &'static str,
        elements: usize,
        mut work: impl FnMut(&Executor) -> R,
        eq: impl Fn(&R, &R) -> bool,
    ) -> Stage {
        let mut samples = Vec::with_capacity(WORKER_COUNTS.len());
        let mut reference: Option<R> = None;
        for &workers in &WORKER_COUNTS {
            let executor = Executor::with_workers(workers);
            let start = Instant::now();
            let out = work(&executor);
            let seconds = start.elapsed().as_secs_f64();
            let bit_identical = match &reference {
                None => {
                    reference = Some(out);
                    true
                }
                Some(r) => eq(r, &out),
            };
            samples.push(Sample {
                workers,
                seconds,
                bit_identical,
            });
        }
        Stage {
            name,
            elements,
            samples,
        }
    }

    /// Output elements per second for one sample.
    fn throughput(&self, sample: &Sample) -> f64 {
        self.elements as f64 / sample.seconds.max(1e-12)
    }

    fn speedup_at(&self, workers: usize) -> f64 {
        let base = self.samples[0].seconds;
        self.samples
            .iter()
            .find(|s| s.workers == workers)
            .map_or(1.0, |s| base / s.seconds.max(1e-12))
    }

    fn all_identical(&self) -> bool {
        self.samples.iter().all(|s| s.bit_identical)
    }

    fn to_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "    {{\"workers\": {}, \"seconds\": {:.6}, \"speedup_vs_1\": {:.3}, \
                     \"throughput_elems_per_sec\": {:.1}, \"bit_identical\": {}}}",
                    s.workers,
                    s.seconds,
                    self.samples[0].seconds / s.seconds.max(1e-12),
                    self.throughput(s),
                    s.bit_identical
                )
            })
            .collect();
        format!(
            "  {{\"stage\": \"{}\", \"elements\": {}, \"samples\": [\n{}\n  ]}}",
            self.name,
            self.elements,
            samples.join(",\n")
        )
    }
}

fn predictions_equal(a: &[Prediction], b: &[Prediction]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.class == y.class
                && x.score.to_bits() == y.score.to_bits()
                && x.per_class.len() == y.per_class.len()
                && x.per_class
                    .iter()
                    .zip(&y.per_class)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let out_path = if args.iter().any(|a| a == "--ci") {
        "BENCH_parallel_ci.json"
    } else {
        "BENCH_parallel.json"
    };

    let assembly_pts = points(ASSEMBLY_NODES, ASSEMBLY_DIM);
    let graph = KernelGraph::fit(assembly_pts, Kernel::Gaussian, 0.8).expect("graph fit");
    let assembly = Stage::run(
        "kernel_assembly",
        ASSEMBLY_NODES * ASSEMBLY_NODES,
        |ex| graph.weights_with(ex).expect("weights"),
        |a, b| a.as_slice() == b.as_slice(),
    );

    let fit_pts = points(FIT_NODES, 3);
    let fit_weights = gssl_graph::affinity::affinity_matrix(&fit_pts, Kernel::Gaussian, 0.6)
        .expect("fit affinity");
    let labels: Vec<f64> = (0..FIT_LABELED).map(|i| f64::from(i as u8 % 2)).collect();
    let problem = Problem::new(fit_weights, labels).expect("fit problem");

    let hard_fit = Stage::run(
        "hard_fit",
        FIT_NODES,
        |ex| {
            HardCriterion::new()
                .with_executor(ex.clone())
                .fit(&problem)
                .expect("hard fit")
                .all()
                .to_vec()
        },
        |a, b| a == b,
    );

    let soft_fit = Stage::run(
        "soft_fit",
        FIT_NODES,
        |ex| {
            SoftCriterion::new(0.5)
                .expect("lambda")
                .policy(SolverPolicy::default().with_executor(ex.clone()))
                .fit(&problem)
                .expect("soft fit")
                .all()
                .to_vec()
        },
        |a, b| a == b,
    );

    let serve_pts = points(SERVE_NODES, 2);
    let serve_labels: Vec<f64> = (0..SERVE_LABELED).map(|i| f64::from(i as u8 % 2)).collect();
    let queries: Vec<QueryPoint> = (0..SERVE_QUERIES)
        .map(|q| QueryPoint::new(vec![coord(q, 0) * 1.2 - 0.1, coord(q, 1) * 1.2 - 0.1]))
        .collect();
    let predict_batch = Stage::run(
        "predict_batch",
        SERVE_QUERIES,
        |ex| {
            let config = EngineConfig::new(Kernel::Gaussian, 0.5).workers(ex.workers());
            let engine = ServingEngine::fit(&serve_pts, &serve_labels, config).expect("engine fit");
            engine.predict_batch(&queries).expect("batch predict")
        },
        |a, b| predictions_equal(a, b),
    );

    let stages = [assembly, hard_fit, soft_fit, predict_batch];
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let body = stages
        .iter()
        .map(Stage::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json =
        format!("{{\n\"host_parallelism\": {host_parallelism},\n\"stages\": [\n{body}\n]\n}}\n");
    std::fs::write(out_path, &json).expect("write parallel report");

    if !quiet {
        println!("== threads_scaling: deterministic parallelism across the stack ==");
        println!("host parallelism: {host_parallelism}\n");
        println!(
            "{:<16} {:>8} {:>12} {:>12} {:>14} {:>14}",
            "stage", "workers", "seconds", "speedup", "elems/sec", "bit_identical"
        );
        for stage in &stages {
            for s in &stage.samples {
                println!(
                    "{:<16} {:>8} {:>12.4} {:>11.2}x {:>14.0} {:>14}",
                    stage.name,
                    s.workers,
                    s.seconds,
                    stage.samples[0].seconds / s.seconds.max(1e-12),
                    stage.throughput(s),
                    s.bit_identical
                );
            }
        }
        println!(
            "\nassembly speedup at 4 workers: {:.2}x (wrote {out_path})",
            stages[0].speedup_at(4)
        );
        if host_parallelism < 4 {
            println!(
                "note: host exposes {host_parallelism} hardware thread(s); wall-clock \
                 speedup at 4 workers cannot exceed ~1x here"
            );
        }
    }

    // Timing never gates; the cross-machine invariant is bit-identity.
    if stages.iter().all(Stage::all_identical) {
        ExitCode::SUCCESS
    } else {
        for stage in &stages {
            for s in stage.samples.iter().filter(|s| !s.bit_identical) {
                eprintln!(
                    "threads_scaling: {} at {} workers diverged from the 1-worker output",
                    stage.name, s.workers
                );
            }
        }
        ExitCode::FAILURE
    }
}
