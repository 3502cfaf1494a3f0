//! What the two batch workloads share: the untraced set-up/fit
//! repetition, the traced decomposition of `HardCriterion::fit` into its
//! public steps, and the solution checks.
//!
//! A traced run pairs every untraced repetition with a traced one and
//! alternates which runs first, so drift in the host's speed and the
//! allocator state one leaves behind land on both sides alike.

use crate::fail;
use crate::measure::{median, time};
use crate::report::Report;
use gssl::{HardCriterion, HardSolver, Problem, Scores};
use gssl_linalg::{CgOptions, CsrMatrix, Factorization, SolverBackend, SolverPolicy, Vector};
use gssl_runtime::Executor;

/// Workers of the executor every batch fit runs on.
pub const WORKERS: usize = 2;

/// The policy both batch fits use: `HardSolver::Auto` with CG tolerance
/// `tolerance`; the policy picks the backend.
pub fn policy(tolerance: f64) -> SolverPolicy {
    SolverPolicy::with_cg(CgOptions {
        max_iterations: 10_000,
        tolerance,
    })
}

/// The criterion the untraced fit runs: `policy` on a `WORKERS`-worker
/// executor.
pub fn criterion(policy: &SolverPolicy) -> HardCriterion {
    HardCriterion::new()
        .solver(HardSolver::Auto(policy.clone()))
        .with_executor(Executor::with_workers(WORKERS))
}

/// Timings and the last result of the untraced repetitions.
#[derive(Debug)]
pub struct Untraced {
    /// Seconds per set-up (points or CSR weights to a validated problem).
    pub setup: Vec<f64>,
    /// Seconds per `HardCriterion::fit`.
    pub fit: Vec<f64>,
    /// Per repetition: median set-up plus fit, paired with the traced
    /// repetition run beside it.
    pub per_rep: Vec<f64>,
    last: Option<(Problem, Scores)>,
    repeatable: bool,
}

impl Default for Untraced {
    fn default() -> Self {
        Untraced {
            setup: Vec::new(),
            fit: Vec::new(),
            per_rep: Vec::new(),
            last: None,
            repeatable: true,
        }
    }
}

impl Untraced {
    /// Repetitions run so far.
    pub fn reps(&self) -> usize {
        self.fit.len()
    }

    /// One repetition: `setups` set-ups, then a fit of the last problem.
    /// `setup` returns the problem with its own timed span, so input
    /// copies it makes stay off the clock.
    ///
    /// # Errors
    ///
    /// The first set-up or fit error.
    pub fn rep(
        &mut self,
        setups: usize,
        setup: &mut impl FnMut() -> Result<(Problem, f64), String>,
        criterion: &HardCriterion,
        report: &mut Report,
    ) -> Result<(), String> {
        let mut problem = None;
        for _ in 0..setups {
            report.ops(1, 0);
            let (built, secs) = setup()?;
            self.setup.push(secs);
            problem = Some(built);
        }
        let problem = problem.ok_or("no set-up ran")?;
        report.ops(1, 0);
        let (scores, secs) = time(|| criterion.fit(&problem));
        self.fit.push(secs);
        self.per_rep
            .push(median(&self.setup[self.setup.len() - setups..]) + secs);
        let scores = scores.map_err(fail("HardCriterion::fit"))?;
        if let Some((_, previous)) = &self.last {
            self.repeatable &= bitwise_equal(previous.all(), scores.all());
        }
        self.last = Some((problem, scores));
        Ok(())
    }

    /// The last problem and its scores.
    ///
    /// # Errors
    ///
    /// When no repetition ran.
    pub fn last(&self) -> Result<(&Problem, &Scores), String> {
        self.last
            .as_ref()
            .map(|(p, s)| (p, s))
            .ok_or_else(|| "no repetition ran".to_owned())
    }

    /// Records `setup_s` and `fit_s`, and the check that every fit returned
    /// the same bits.
    pub fn record(&self, report: &mut Report) {
        report.note("setup_s samples", seconds_list(&self.setup));
        report.note("fit_s samples", seconds_list(&self.fit));
        report.metric("setup_s", "s", median(&self.setup), self.setup.len());
        report.metric("fit_s", "s", median(&self.fit), self.fit.len());
        report.check("repeated fits are bitwise identical", self.repeatable);
    }
}

/// Spans of the public steps `HardCriterion::fit` runs on a sparse
/// problem.
#[derive(Debug, Clone, Copy)]
struct FitSpans {
    anchor_s: f64,
    system_s: f64,
    factor_s: f64,
    rhs_s: f64,
    solve_s: f64,
}

/// The last traced fit's artifacts, kept for the 1-worker baseline.
#[derive(Debug)]
struct LastFit {
    unlabeled: Vector,
    backend: SolverBackend,
    system: CsrMatrix,
    rhs: Vector,
}

/// Traced repetitions of the fit.
#[derive(Debug)]
pub struct FitTrace {
    spans: Vec<FitSpans>,
    last: Option<LastFit>,
    reproduces: bool,
}

impl Default for FitTrace {
    fn default() -> Self {
        FitTrace {
            spans: Vec::new(),
            last: None,
            reproduces: true,
        }
    }
}

impl FitTrace {
    /// Runs the fit as its public steps, the way `HardCriterion::fit`
    /// composes them for a sparse problem, with `policy` already on the
    /// fit's executor; checks the result against `expected` bit for bit.
    /// Returns the summed span time.
    ///
    /// # Errors
    ///
    /// The first failing step.
    pub fn rep(
        &mut self,
        problem: &Problem,
        policy: &SolverPolicy,
        expected: &Scores,
    ) -> Result<f64, String> {
        let (anchored, anchor_s) = time(|| problem.require_anchored(0.0));
        anchored.map_err(fail("require_anchored"))?;
        let (system, system_s) = time(|| problem.unlabeled_system_csr());
        let system = system.map_err(fail("unlabeled_system_csr"))?;
        let (backend, factor_s) = time(|| policy.factor_sparse(&system));
        let backend = backend.map_err(fail("factor_sparse"))?;
        let (rhs, rhs_s) = time(|| problem.unlabeled_rhs());
        let rhs = rhs.map_err(fail("unlabeled_rhs"))?;
        let (unlabeled, solve_s) = time(|| backend.solve(&rhs));
        let unlabeled = unlabeled.map_err(fail("solve"))?;
        self.reproduces &= bitwise_equal(unlabeled.as_slice(), expected.unlabeled());
        let spans = FitSpans {
            anchor_s,
            system_s,
            factor_s,
            rhs_s,
            solve_s,
        };
        self.spans.push(spans);
        self.last = Some(LastFit {
            unlabeled,
            backend,
            system,
            rhs,
        });
        Ok(anchor_s + system_s + factor_s + rhs_s + solve_s)
    }

    /// Records the fit-side per-layer metrics and the 1-worker solve
    /// baseline; `setup_anchor` holds the anchoring spans timed during
    /// set-up.
    ///
    /// # Errors
    ///
    /// No traced repetition, or a failing 1-worker factorization or solve.
    pub fn record(
        &self,
        report: &mut Report,
        setup_anchor: &[f64],
        tolerance: f64,
    ) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no traced repetition ran")?;
        let n = self.spans.len();
        let pick = |f: fn(&FitSpans) -> f64| median(&self.spans.iter().map(f).collect::<Vec<_>>());
        let mut anchors: Vec<f64> = self.spans.iter().map(|s| s.anchor_s).collect();
        anchors.extend_from_slice(setup_anchor);
        report.metric("core.anchor_check_s", "s", median(&anchors), anchors.len());
        report.metric("core.system_csr_s", "s", pick(|s| s.system_s), n);
        report.metric("core.rhs_s", "s", pick(|s| s.rhs_s), n);
        report.metric("linalg.factor_s", "s", pick(|s| s.factor_s), n);
        let solve_s = pick(|s| s.solve_s);
        report.metric("linalg.solve_s", "s", solve_s, n);
        let summary = last.backend.report();
        report.note("linalg.backend", summary.backend.as_str());
        let iterations = summary.iterations.unwrap_or(0);
        report.metric("linalg.iterations", "count", iterations as f64, 1);
        report.metric(
            "linalg.s_per_iter",
            "s",
            solve_s / iterations.max(1) as f64,
            n,
        );
        report.metric(
            "linalg.final_residual",
            "1",
            summary.final_residual.unwrap_or(0.0),
            1,
        );
        if let SolverBackend::Amg(amg) = &last.backend {
            report.metric("linalg.amg_levels", "count", amg.levels() as f64, 1);
            report.metric("linalg.amg_coarse_dim", "count", amg.coarse_dim() as f64, 1);
        }

        // Single-threaded baseline: the same policy on the sequential
        // executor.
        let sequential = policy(tolerance)
            .factor_sparse(&last.system)
            .map_err(fail("1-worker factor_sparse"))?;
        let (x, solve_1) = time(|| sequential.solve(&last.rhs));
        let x = x.map_err(fail("1-worker solve"))?;
        report.metric("runtime.solve_speedup", "x", solve_1 / solve_s, 1);

        report.check(
            "traced fit steps reproduce HardCriterion::fit bitwise",
            self.reproduces,
        );
        report.check(
            "1-worker solve matches the 2-worker solve bitwise",
            bitwise_equal(x.as_slice(), last.unlabeled.as_slice()),
        );
        Ok(())
    }
}

/// Records the trace summary over paired repetitions: the summed layer
/// spans, the share of the untraced set-up + fit they leave unexplained,
/// and how much slower the traced pipeline ran than its untraced twin.
pub fn record_trace_summary(
    report: &mut Report,
    untraced: &[f64],
    layer_sums: &[f64],
    traced_totals: &[f64],
) {
    let n = layer_sums.len();
    let remainder: Vec<f64> = untraced
        .iter()
        .zip(layer_sums)
        .map(|(u, l)| (u - l) / u)
        .collect();
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced_totals)
        .map(|(u, t)| t / u - 1.0)
        .collect();
    report.metric("trace.layer_sum_s", "s", median(layer_sums), n);
    report.metric("trace.remainder_frac", "frac", median(&remainder), n);
    report.metric("trace.overhead_frac", "frac", median(&overhead), n);
}

/// The solution checks both batch fits share: relative residual of Eq. 5
/// at most `1e-6`, and the maximum principle (every unlabeled score lies
/// within the range of the labels).
///
/// # Errors
///
/// A failing system or right-hand-side assembly.
pub fn check_solution(
    report: &mut Report,
    problem: &Problem,
    scores: &Scores,
) -> Result<(), String> {
    let system = problem
        .unlabeled_system_csr()
        .map_err(fail("unlabeled_system_csr"))?;
    let rhs = problem.unlabeled_rhs().map_err(fail("unlabeled_rhs"))?;
    let ax = system.matvec(scores.unlabeled());
    let (num, den) = ax
        .iter()
        .zip(rhs.as_slice())
        .fold((0.0, 0.0), |(num, den), (a, b)| {
            (num + (a - b) * (a - b), den + b * b)
        });
    let residual = (num / den.max(f64::MIN_POSITIVE)).sqrt();
    report.note("relative_residual", format!("{residual:.3e}"));
    report.check("relative residual <= 1e-6", residual <= 1e-6);

    let labels = problem.labels();
    let lo = labels.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = labels.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let slack = 1e-6 * (hi - lo).max(1.0);
    report.check(
        "maximum principle: unlabeled scores within the label range",
        scores
            .unlabeled()
            .iter()
            .all(|&s| s >= lo - slack && s <= hi + slack),
    );
    Ok(())
}

/// Samples in seconds, three decimals each, for the human-readable lines.
pub fn seconds_list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Bitwise equality of two float slices.
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
