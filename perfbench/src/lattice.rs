//! `lattice-amg`: the hard criterion on a unit-weight 4-neighbor lattice
//! whose boundary ring is labeled. No neighbor search and no kernel
//! evaluation run, and the policy picks AMG instead of IC(0): a solver
//! gain shows most here, while an assembly or index gain must show
//! nothing.

use crate::batch::{self, FitTrace, Untraced, WORKERS};
use crate::measure::{dispatch_us, median, peak_rss_mb, since, time, Budget};
use crate::report::Report;
use crate::{fail, gen, Options, Scale};
use gssl::{Problem, Scores};
use gssl_runtime::Executor;
use std::time::Instant;

/// CG tolerance of the fit.
const TOLERANCE: f64 = 1e-8;
/// Set-ups per repetition: set-up is short next to the fit, so each
/// repetition samples it several times.
const SETUPS_PER_REP: usize = 3;

fn side_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 512,
        // Large enough that the policy still picks AMG.
        Scale::Tiny => 128,
    }
}

/// Runs the workload.
///
/// # Errors
///
/// The first library error; the run then fails.
pub fn run(options: &Options, report: &mut Report) -> Result<(), String> {
    let side = side_for(options.scale);
    let (weights, labels) = gen::lattice(side, options.seed);
    let executor = Executor::with_workers(WORKERS);
    let criterion = batch::criterion(&batch::policy(TOLERANCE));
    let traced_policy = batch::policy(TOLERANCE).with_executor(executor.clone());
    report.note(
        "input",
        format!(
            "side={side} nodes={} unknowns={} labeled={}",
            weights.rows(),
            side * side,
            labels.len()
        ),
    );

    let mut setup = || -> Result<(Problem, f64), String> {
        let (weights, labels) = (weights.clone(), labels.clone());
        let (problem, secs) = time(|| -> Result<Problem, String> {
            let problem = Problem::new(weights, labels).map_err(fail("Problem::new"))?;
            problem
                .require_anchored(0.0)
                .map_err(fail("require_anchored"))?;
            Ok(problem)
        });
        Ok((problem?, secs))
    };
    let mut untraced = Untraced::default();
    let (mut problem_new, mut setup_anchor) = (vec![], vec![]);
    let (mut layer_sums, mut totals) = (vec![], vec![]);
    let mut fit = FitTrace::default();
    let mut traced = |expected: &Scores, report: &mut Report| -> Result<(), String> {
        let (weights, labels) = (weights.clone(), labels.clone());
        let pipeline = Instant::now();
        let (problem, new_s) = time(|| Problem::new(weights, labels));
        let problem = problem.map_err(fail("Problem::new"))?;
        let (anchored, anchor_s) = time(|| problem.require_anchored(0.0));
        anchored.map_err(fail("require_anchored"))?;
        let fit_s = fit.rep(&problem, &traced_policy, expected)?;
        totals.push(since(pipeline));
        report.ops(2, 0);
        layer_sums.push(new_s + anchor_s + fit_s);
        problem_new.push(new_s);
        setup_anchor.push(anchor_s);
        Ok(())
    };
    let budget = Budget::new(options.seconds, 3);
    let mut peak_rss = 0.0;
    while budget.more(untraced.reps()) {
        let traced_first = untraced.reps() % 2 == 1;
        if options.trace && traced_first {
            traced(untraced.last()?.1, report)?;
        }
        untraced.rep(SETUPS_PER_REP, &mut setup, &criterion, report)?;
        // The high-water mark of one set-up and fit; later repetitions
        // only add allocator history.
        if untraced.reps() == 1 {
            peak_rss = peak_rss_mb();
        }
        if options.trace && !traced_first {
            traced(untraced.last()?.1, report)?;
        }
    }
    untraced.record(report);
    report.metric("peak_rss_mb", "MB", peak_rss, 1);
    if options.trace {
        report.metric(
            "core.problem_new_s",
            "s",
            median(&problem_new),
            totals.len(),
        );
        fit.record(report, &setup_anchor, TOLERANCE)?;
        report.metric("runtime.spawn_us", "us", dispatch_us(&executor, 200), 200);
        batch::record_trace_summary(report, &untraced.per_rep, &layer_sums, &totals);
    }

    let (problem, scores) = untraced.last()?;
    batch::check_solution(report, problem, scores)?;
    Ok(())
}
