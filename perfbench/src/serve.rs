//! `serve-mixed`: sharded serving of the hard criterion with Eq. 6
//! out-of-sample reads and rank-1 label folds mixed — the only workload
//! with out-of-sample reads, epoch publishes running beside them, dense
//! per-shard Cholesky, and an executor dispatch per read batch.
//!
//! Load is an open loop paced in real time from this one process: one
//! thread offers Poisson query arrivals to the admission-controlled
//! `BatchQueue` and serves the batches it releases; a second thread folds
//! Poisson label arrivals into the engine. Every query and fold is timed
//! from when it was due, so a stall is charged to everything behind it.

use crate::batch::{bitwise_equal, seconds_list};
use crate::gen::{self, ServeInputs, ServeShape};
use crate::measure::{
    dispatch_us, mean, median, peak_rss_mb, quantile, since, time, wait_until, Budget,
};
use crate::report::Report;
use crate::{fail, Options, Scale};
use gssl::Problem;
use gssl_graph::{component_partition, Kernel, KernelGraph};
use gssl_index::{NeighborSearch, SpatialIndex};
use gssl_linalg::Matrix;
use gssl_runtime::Executor;
use gssl_serve::{
    Admission, BatchPolicy, BatchQueue, EngineConfig, EngineSolver, Prediction, QueryPath,
    QueryPoint, ServingEngine, ShardPlan, ShardedEngine,
};
use std::time::Instant;

/// Kernel bandwidth: wider than a cluster's diameter, far below the gap
/// between clusters.
const BANDWIDTH: f64 = 1.5;
/// Engine and executor width.
const WORKERS: usize = 2;
/// Batching policy: release at 8 queries or 2 ms. The queue sheds beyond
/// 1024 waiting queries (128 ms of arrivals): enough that the scheduling
/// stalls of a shared 2-core host shed nothing, so every query is served.
const MAX_BATCH: usize = 8;
const MAX_DELAY_S: f64 = 0.002;
const CAPACITY: usize = 1024;

fn shape(scale: Scale) -> ServeShape {
    match scale {
        Scale::Full => ServeShape {
            clusters: 8,
            per_cluster: 500,
            query_rate: 8_000.0,
            fold_rate: 20.0,
            folds: 120,
        },
        Scale::Tiny => ServeShape {
            clusters: 8,
            per_cluster: 40,
            query_rate: 2_000.0,
            fold_rate: 100.0,
            folds: 20,
        },
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(Kernel::Epanechnikov, BANDWIDTH)
        .query_path(QueryPath::WithinSupport)
        .solver(EngineSolver::Direct)
        .workers(WORKERS)
}

/// What the open loop observed.
#[derive(Debug, Default)]
struct Traffic {
    /// Per served query: seconds from due to batch completion.
    latency: Vec<f64>,
    /// Per served query: seconds from due to batch service start.
    wait: Vec<f64>,
    /// Per batch: seconds inside `predict_batch`.
    service: Vec<f64>,
    /// Per batch: queries in it.
    occupancy: Vec<f64>,
    /// Per offered query: seconds the generator offered it after it was due.
    late: Vec<f64>,
    offered: u64,
    admitted: u64,
    rejected: u64,
    /// Whether every admitted ticket was served exactly once.
    served_once: bool,
    /// Queries in batches whose `predict_batch` failed.
    predict_errors: u64,
    /// Per fold: seconds from due until `observe_label` returned.
    fold_latency: Vec<f64>,
    /// Folds that succeeded, in the order they were applied.
    applied: Vec<(usize, f64)>,
    fold_errors: u64,
}

/// Runs the workload.
///
/// # Errors
///
/// The first library error; the run then fails.
pub fn run(options: &Options, report: &mut Report) -> Result<(), String> {
    let shape = shape(options.scale);
    let inputs = gen::serve_inputs(shape, options.seed);
    let n = inputs.points.rows();
    report.note(
        "input",
        format!(
            "nodes={n} clusters={} labeled={} queries={} folds={} horizon_s={:.3}",
            shape.clusters,
            inputs.labels.len(),
            inputs.arrivals.len(),
            inputs.folds.len(),
            inputs.folds.last().map_or(0.0, |f| f.0)
        ),
    );

    // fit_s: ShardedEngine::fit, repeated.
    // A traced run alternates untraced and traced fits.
    let executor = Executor::with_workers(WORKERS);
    let mut trace = options.trace.then(Trace::default);
    let budget = Budget::new(options.seconds * 0.4, 3);
    let mut fits = Vec::new();
    let mut engine = None;
    while budget.more(fits.len()) {
        report.ops(1, 0);
        // One engine alive at a time, so the memory high-water mark does
        // not depend on how many repetitions fit in the budget.
        drop(engine.take());
        let (fitted, secs) = time(|| ShardedEngine::fit(&inputs.points, &inputs.labels, config()));
        fits.push(secs);
        engine = Some(fitted.map_err(fail("ShardedEngine::fit"))?);
        if let Some(trace) = &mut trace {
            report.ops(1, 0);
            trace.rep(&inputs, &executor)?;
        }
    }
    let engine = engine.ok_or("the budget ran no fit")?;
    report.note("fit_s samples", seconds_list(&fits));
    report.metric("fit_s", "s", median(&fits), fits.len());
    let shards = engine.plan().shards();
    report.metric("serve.shards", "count", shards.len() as f64, 1);
    report.metric(
        "serve.max_shard_nodes",
        "count",
        shards.iter().map(|s| s.len()).max().unwrap_or(0) as f64,
        1,
    );
    report.check("one shard per cluster", engine.n_shards() == shape.clusters);
    let fitted_probes = engine
        .predict_batch(&inputs.probes)
        .map_err(fail("probe predict_batch"))?;

    let traffic = open_loop(&engine, &inputs);
    record_traffic(report, &traffic);

    // Closed loop: saturated predict_batch throughput on 8-query batches.
    let batches: Vec<&[QueryPoint]> = inputs.queries.chunks(MAX_BATCH).collect();
    let budget = Budget::new(1.0, 50);
    let start = Instant::now();
    let (mut served, mut rounds, mut errors) = (0usize, 0usize, 0u64);
    while budget.more(rounds) {
        let batch = batches[rounds % batches.len()];
        match engine.predict_batch(batch) {
            Ok(out) if out.len() == batch.len() => served += out.len(),
            _ => errors += batch.len() as u64,
        }
        rounds += 1;
    }
    let elapsed = since(start);
    report.ops(served as u64 + errors, errors);
    report.metric("serve.predict_qps", "1/s", served as f64 / elapsed, rounds);

    // Snapshot, then setup_s: snapshot → restore cold start, repeated.
    let mut snapshot_s = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let (snap, secs) = time(|| engine.snapshot());
        bytes = snap.map_err(fail("snapshot"))?;
        snapshot_s.push(secs);
    }
    report.metric(
        "serve.snapshot_s",
        "s",
        median(&snapshot_s),
        snapshot_s.len(),
    );
    report.metric("serve.snapshot_bytes", "bytes", bytes.len() as f64, 1);
    let budget = Budget::new(options.seconds * 0.1, 10);
    let mut restores = Vec::new();
    let mut restored = None;
    while budget.more(restores.len()) {
        report.ops(1, 0);
        drop(restored.take());
        let (back, secs) = time(|| ShardedEngine::restore(&bytes));
        restores.push(secs);
        restored = Some(back.map_err(fail("ShardedEngine::restore"))?);
    }
    let restored = restored.ok_or("the budget ran no restore")?;
    report.note("setup_s samples", seconds_list(&restores));
    report.metric("setup_s", "s", median(&restores), restores.len());
    report.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);

    if let Some(trace) = &trace {
        trace.record(report, &inputs, &fits, &executor)?;
    }

    // Correctness, outside every clock.
    report.check(
        "admitted + rejected == offered",
        traffic.admitted + traffic.rejected == traffic.offered,
    );
    report.check(
        "every admitted query served exactly once",
        traffic.served_once,
    );
    report.check(
        "no predict_batch or fold errored",
        traffic.predict_errors == 0 && traffic.fold_errors == 0,
    );
    report.check(
        "final epoch == 1 + applied folds",
        engine.epoch() == 1 + traffic.applied.len() as u64,
    );
    let final_probes = engine
        .predict_batch(&inputs.probes)
        .map_err(fail("probe predict_batch"))?;
    let restored_probes = restored
        .predict_batch(&inputs.probes)
        .map_err(fail("restored predict_batch"))?;
    report.check(
        "restore is bitwise equal to the snapshot",
        bitwise_equal(engine.scores().as_slice(), restored.scores().as_slice())
            && same_predictions(&final_probes, &restored_probes),
    );
    drop(restored);

    // Oracle: the monolithic ServingEngine, fitted on each cluster's
    // component alone (a dense fit of the whole graph takes minutes).
    // Cross-component weights are exact zeros, so every probe must match
    // the sharded engine bit for bit, at fit time and after the same folds
    // in the same order.
    let (mut at_fit, mut after_folds) = (true, true);
    for c in 0..shape.clusters {
        let members: Vec<usize> = (c..n).step_by(shape.clusters).collect();
        let points = Matrix::from_fn(members.len(), 2, |i, j| inputs.points.get(members[i], j));
        let labels: Vec<f64> = members
            .iter()
            .filter(|&&m| m < inputs.labels.len())
            .map(|&m| inputs.labels[m])
            .collect();
        let mut monolithic =
            ServingEngine::fit(&points, &labels, config()).map_err(fail("ServingEngine::fit"))?;
        let mine: Vec<usize> = (0..inputs.probes.len())
            .filter(|&p| gen::cluster_of(inputs.probes[p].coords()) == c)
            .collect();
        let probes: Vec<QueryPoint> = mine.iter().map(|&p| inputs.probes[p].clone()).collect();
        let pick = |all: &[Prediction]| mine.iter().map(|&p| all[p].clone()).collect::<Vec<_>>();
        let out = monolithic
            .predict_batch(&probes)
            .map_err(fail("monolithic predict_batch"))?;
        at_fit &= same_predictions(&pick(&fitted_probes), &out);
        // Node c + k·clusters is local node k of its component.
        for &(node, y) in traffic
            .applied
            .iter()
            .filter(|(node, _)| node % shape.clusters == c)
        {
            monolithic
                .observe_label(node / shape.clusters, y)
                .map_err(fail("monolithic observe_label"))?;
        }
        let out = monolithic
            .predict_batch(&probes)
            .map_err(fail("monolithic predict_batch"))?;
        after_folds &= same_predictions(&pick(&final_probes), &out);
    }
    report.check(
        "sharded predictions bitwise equal to the monolithic engine",
        at_fit,
    );
    report.check(
        "after folds, sharded predictions bitwise equal to monolithic folds",
        after_folds,
    );
    Ok(())
}

/// Per-layer spans of the engine fit, timed around the public calls it is
/// built from, and the engine fit itself under the trace.
#[derive(Debug, Default)]
struct Trace {
    weights: Vec<f64>,
    partition: Vec<f64>,
    build: Vec<f64>,
    problem_new: Vec<f64>,
    anchor: Vec<f64>,
    plan: Vec<f64>,
    fits: Vec<f64>,
}

impl Trace {
    fn rep(&mut self, inputs: &ServeInputs, executor: &Executor) -> Result<(), String> {
        let (points, labels) = (&inputs.points, &inputs.labels);
        let copy = points.clone();
        let (weights, secs) = time(|| {
            KernelGraph::fit(copy, Kernel::Epanechnikov, BANDWIDTH)
                .and_then(|graph| graph.weights_with(executor))
        });
        let weights = weights.map_err(fail("KernelGraph::weights_with"))?;
        self.weights.push(secs);
        let (partition, secs) = time(|| component_partition(&weights, 0.0));
        partition.map_err(fail("component_partition"))?;
        self.partition.push(secs);
        let (index, secs) = time(|| SpatialIndex::build(points));
        index.map_err(fail("SpatialIndex::build"))?;
        self.build.push(secs);
        let (copy, owned_labels) = (weights.clone(), labels.clone());
        let (problem, secs) = time(|| Problem::new(copy, owned_labels));
        let problem = problem.map_err(fail("Problem::new"))?;
        self.problem_new.push(secs);
        let (anchored, secs) = time(|| problem.require_anchored(0.0));
        anchored.map_err(fail("require_anchored"))?;
        self.anchor.push(secs);
        let (plan, secs) = time(|| ShardPlan::new(&weights, labels.len()));
        plan.map_err(fail("ShardPlan::new"))?;
        self.plan.push(secs);
        drop((weights, problem));
        let (fitted, secs) = time(|| ShardedEngine::fit(points, labels, config()));
        fitted.map_err(fail("ShardedEngine::fit"))?;
        self.fits.push(secs);
        Ok(())
    }

    /// Records the layer spans, the derived shard-fit share, and the
    /// read-path and dispatch probes.
    fn record(
        &self,
        report: &mut Report,
        inputs: &ServeInputs,
        untraced_fits: &[f64],
        executor: &Executor,
    ) -> Result<(), String> {
        let reps = self.fits.len();
        let layers = [
            ("graph.kernel_weights_s", median(&self.weights)),
            ("graph.component_partition_s", median(&self.partition)),
            ("index.build_s", median(&self.build)),
            ("core.problem_new_s", median(&self.problem_new)),
            ("core.anchor_check_s", median(&self.anchor)),
            ("serve.shard_plan_s", median(&self.plan)),
        ];
        for (name, value) in layers {
            report.metric(name, "s", value, reps);
        }
        // ShardPlan::new runs the component partition itself, so the
        // partition span is not added again.
        let layer_sum: f64 = layers
            .iter()
            .filter(|(name, _)| *name != "graph.component_partition_s")
            .map(|(_, v)| v)
            .sum();
        let untraced = median(untraced_fits);
        // Derived: the part of the engine fit no span above covers — the
        // per-shard factorizations and the score scatter.
        report.metric("serve.shard_fit_s", "s", untraced - layer_sum, reps);
        report.metric("trace.layer_sum_s", "s", layer_sum, reps);
        report.metric(
            "trace.remainder_frac",
            "frac",
            (untraced - layer_sum) / untraced,
            reps,
        );
        // Each traced fit against the untraced fit it was paired with.
        let overhead: Vec<f64> = self
            .fits
            .iter()
            .zip(untraced_fits)
            .map(|(t, u)| t / u - 1.0)
            .collect();
        report.metric("trace.overhead_frac", "frac", median(&overhead), reps);

        let index = SpatialIndex::build(&inputs.points).map_err(fail("SpatialIndex::build"))?;
        let (hits, secs) = time(|| {
            inputs
                .queries
                .iter()
                .map(|q| {
                    index
                        .within_radius(q.coords(), BANDWIDTH)
                        .map(|ball| ball.len())
                })
                .sum::<Result<usize, _>>()
        });
        hits.map_err(fail("within_radius"))?;
        report.metric(
            "index.radius_query_us",
            "us",
            secs * 1e6 / inputs.queries.len() as f64,
            inputs.queries.len(),
        );
        report.metric("runtime.spawn_us", "us", dispatch_us(executor, 200), 200);
        Ok(())
    }
}

/// Drives the open loop: this thread generates and serves queries, a
/// second thread folds labels, both against the same clock.
fn open_loop(engine: &ShardedEngine, inputs: &ServeInputs) -> Traffic {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let folds = scope.spawn(|| fold_loop(engine, &inputs.folds, start));
        let mut traffic = query_loop(engine, inputs, start);
        match folds.join() {
            Ok((latency, applied, errors)) => {
                traffic.fold_latency = latency;
                traffic.applied = applied;
                traffic.fold_errors = errors;
            }
            Err(_) => traffic.fold_errors = inputs.folds.len() as u64,
        }
        traffic
    })
}

fn fold_loop(
    engine: &ShardedEngine,
    folds: &[(f64, usize, f64)],
    start: Instant,
) -> (Vec<f64>, Vec<(usize, f64)>, u64) {
    let mut latency = Vec::with_capacity(folds.len());
    let mut applied = Vec::with_capacity(folds.len());
    let mut errors = 0;
    for &(due, node, y) in folds {
        wait_until(start, due);
        let outcome = engine.observe_label(node, y);
        latency.push(since(start) - due);
        match outcome {
            Ok(()) => applied.push((node, y)),
            Err(_) => errors += 1,
        }
    }
    (latency, applied, errors)
}

fn query_loop(engine: &ShardedEngine, inputs: &ServeInputs, start: Instant) -> Traffic {
    let arrivals = &inputs.arrivals;
    let mut traffic = Traffic::default();
    let Ok(mut queue) = BatchQueue::new(BatchPolicy::new(MAX_BATCH, MAX_DELAY_S, CAPACITY)) else {
        return traffic;
    };
    let mut served = Vec::with_capacity(arrivals.len());
    let mut next = 0;
    loop {
        let now = since(start);
        while next < arrivals.len() && arrivals[next] <= now {
            traffic.late.push(now - arrivals[next]);
            let query = inputs.queries[next % inputs.queries.len()].clone();
            if let Admission::Admitted { .. } = queue.offer(query, arrivals[next]) {
                served.push(0u8);
            }
            next += 1;
        }
        let batch = if next < arrivals.len() {
            queue.pop_ready(now)
        } else {
            queue.flush(now)
        };
        let Some(batch) = batch else {
            if next >= arrivals.len() {
                break;
            }
            let wake = queue
                .next_deadline()
                .map_or(arrivals[next], |d| d.min(arrivals[next]));
            wait_until(start, wake);
            continue;
        };
        let begin = since(start);
        let outcome = engine.predict_batch(&batch.queries);
        let end = since(start);
        match outcome {
            Ok(out) if out.len() == batch.queries.len() => {}
            _ => traffic.predict_errors += batch.queries.len() as u64,
        }
        traffic.service.push(end - begin);
        traffic.occupancy.push(batch.queries.len() as f64);
        for (&ticket, &due) in batch.tickets.iter().zip(&batch.arrivals) {
            if let Some(count) = usize::try_from(ticket).ok().and_then(|t| served.get_mut(t)) {
                *count = count.saturating_add(1);
            }
            traffic.wait.push(begin - due);
            traffic.latency.push(end - due);
        }
    }
    traffic.offered = arrivals.len() as u64;
    traffic.admitted = queue.admitted();
    traffic.rejected = queue.rejected();
    traffic.served_once = served.len() as u64 == traffic.admitted && served.iter().all(|&c| c == 1);
    traffic
}

fn record_traffic(report: &mut Report, t: &Traffic) {
    let ms = |xs: &[f64], q: f64| quantile(xs, q) * 1e3;
    report.ops(t.offered, t.rejected + t.predict_errors);
    report.ops(t.fold_latency.len() as u64, t.fold_errors);
    let queries = t.latency.len();
    report.metric("serve.query_p50_ms", "ms", ms(&t.latency, 0.5), queries);
    report.metric("serve.query_p99_ms", "ms", ms(&t.latency, 0.99), queries);
    report.metric("serve.queue_wait_ms_p50", "ms", ms(&t.wait, 0.5), queries);
    report.metric("serve.queue_wait_ms_p99", "ms", ms(&t.wait, 0.99), queries);
    let batches = t.service.len();
    report.metric(
        "serve.batch_service_us_p50",
        "us",
        quantile(&t.service, 0.5) * 1e6,
        batches,
    );
    report.metric(
        "serve.batch_service_us_p99",
        "us",
        quantile(&t.service, 0.99) * 1e6,
        batches,
    );
    report.metric(
        "serve.batch_occupancy_mean",
        "count",
        mean(&t.occupancy),
        batches,
    );
    report.metric("load.late_p99_ms", "ms", ms(&t.late, 0.99), t.late.len());
    let folds = t.fold_latency.len();
    report.metric("serve.fold_p50_ms", "ms", ms(&t.fold_latency, 0.5), folds);
    report.metric("serve.fold_p90_ms", "ms", ms(&t.fold_latency, 0.9), folds);
    report.metric("serve.folds", "count", t.applied.len() as f64, folds);
    report.metric("serve.epochs", "count", 1.0 + t.applied.len() as f64, 1);
    report.note(
        "traffic",
        format!(
            "offered={} admitted={} rejected={} batches={batches} tails_measured={}",
            t.offered,
            t.admitted,
            t.rejected,
            crate::measure::tail_ok(queries, 0.99)
                && crate::measure::tail_ok(batches, 0.99)
                && crate::measure::tail_ok(folds, 0.9)
        ),
    );
}

/// Two prediction lists agree bit for bit: same classes, bitwise-equal
/// per-class scores.
fn same_predictions(a: &[Prediction], b: &[Prediction]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.class == y.class && bitwise_equal(&x.per_class, &y.per_class))
}
