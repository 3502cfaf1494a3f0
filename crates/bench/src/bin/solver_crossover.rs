//! Solver-crossover benchmark for the sparse-first factorization stack:
//! sweeps 2-D grid-Laplacian systems of increasing size through every
//! backend the [`gssl_linalg::SolverPolicy`] can dispatch to — dense
//! Cholesky, Jacobi-CG, IC(0) PCG, and graph-coarsened AMG — and records the dense → IC-PCG → AMG crossover curve (time,
//! iterations, residual, nnz, bandwidth per point) into
//! `BENCH_solver.json`.
//!
//! ```text
//! cargo run --release -p gssl-bench --bin solver_crossover [-- --ci] [-- --quiet]
//! ```
//!
//! `--ci` shrinks the grid sides so the run finishes in CI seconds and
//! writes `BENCH_solver_ci.json` instead, leaving the committed
//! crossover record untouched.
//!
//! Timing is reported as measured and never gates the exit code. What
//! gates is what survives any host: every solver's relative residual
//! must meet [`RESIDUAL_GATE`], and IC(0) PCG must need no more
//! iterations than plain Jacobi-CG at every sparse size (a deterministic
//! property of the preconditioner, not a timing claim). Whether AMG wins
//! the largest solve on wall clock is recorded in the JSON, not gated.

use gssl_linalg::{
    AmgCg, AmgOptions, CgOptions, Cholesky, CsrMatrix, Factorization, PrecondCg, PrecondKind,
    SolverPolicy, Vector,
};
use std::process::ExitCode;
use std::time::Instant;

/// Grid sides for the full sweep: n = side² runs 256 → 65 536, crossing
/// both the dense cutoff (128) and the AMG dimension cutoff (4096).
const FULL_SIDES: [usize; 5] = [16, 32, 64, 128, 256];
/// CI grid sides: same code path, milliseconds not minutes.
const CI_SIDES: [usize; 3] = [8, 16, 24];
/// Dense Cholesky is O(n³); skip it above this dimension so the sweep
/// stays honest about where the dense backend stops being viable.
const DENSE_CAP: usize = 2_048;
/// Iterative tolerance used by every CG-family backend in the sweep.
const TOLERANCE: f64 = 1e-8;
/// Relative-residual exit gate, slack over [`TOLERANCE`] for the final
/// true residual (CG monitors the preconditioned recurrence residual).
const RESIDUAL_GATE: f64 = 1e-6;

/// Hard-criterion-shaped SPD test system: the Eq. 5 matrix
/// `D₂₂ − W₂₂` for a (side+2)×(side+2) unit-weight lattice whose
/// boundary ring is labeled — i.e. the Dirichlet 5-point Laplacian on
/// the side×side interior, diagonal 4 everywhere, `-1` to in-grid
/// neighbors. Its condition number grows like side², so iteration
/// counts genuinely separate the preconditioners as n grows. Bandwidth
/// is `side`, so the policy's IC-vs-AMG bandwidth test sees a genuinely
/// 2-D structure.
fn grid_laplacian(side: usize) -> CsrMatrix {
    let n = side * side;
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * n);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            // Every vertex keeps lattice degree 4: missing in-grid
            // neighbors are the labeled boundary ring, which Eq. 5
            // folds into the diagonal.
            triplets.push((i, i, 4.0));
            if r > 0 {
                triplets.push((i, i - side, -1.0));
            }
            if r + 1 < side {
                triplets.push((i, i + side, -1.0));
            }
            if c > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if c + 1 < side {
                triplets.push((i, i + 1, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("grid Laplacian triplets")
}

/// Deterministic smooth-plus-oscillatory right-hand side so the
/// iterative solvers see both ends of the spectrum.
fn rhs(n: usize) -> Vector {
    Vector::from_fn(n, |i| {
        let t = i as f64 / n as f64;
        (6.3 * t).sin() + 0.25 * (0.7 * i as f64).sin()
    })
}

/// Relative true residual ‖Ax − b‖₂ / ‖b‖₂.
fn relative_residual(a: &CsrMatrix, x: &Vector, b: &Vector) -> f64 {
    let ax = a.matvec(x.as_slice());
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (r, bi) in ax.iter().zip(b.as_slice()) {
        num += (r - bi) * (r - bi);
        den += bi * bi;
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

struct SolverPoint {
    solver: &'static str,
    seconds: f64,
    iterations: Option<usize>,
    residual: f64,
}

impl SolverPoint {
    fn to_json(&self) -> String {
        let iterations = self
            .iterations
            .map_or_else(|| "null".to_owned(), |i| i.to_string());
        format!(
            "{{\"solver\": \"{}\", \"seconds\": {:.6}, \"iterations\": {iterations}, \
             \"residual\": {:.3e}}}",
            self.solver, self.seconds, self.residual
        )
    }
}

struct SizeReport {
    n: usize,
    side: usize,
    nnz: usize,
    bandwidth: usize,
    /// What the default policy would pick for this system.
    policy_choice: &'static str,
    solvers: Vec<SolverPoint>,
}

impl SizeReport {
    fn to_json(&self) -> String {
        let solvers = self
            .solvers
            .iter()
            .map(SolverPoint::to_json)
            .collect::<Vec<_>>()
            .join(",\n  ");
        format!(
            "{{\"n\": {}, \"side\": {}, \"nnz\": {}, \"bandwidth\": {}, \
             \"policy\": \"{}\", \"solvers\": [\n  {solvers}\n]}}",
            self.n, self.side, self.nnz, self.bandwidth, self.policy_choice
        )
    }

    fn point(&self, solver: &str) -> Option<&SolverPoint> {
        self.solvers.iter().find(|p| p.solver == solver)
    }
}

fn cg_options() -> CgOptions {
    CgOptions {
        max_iterations: 10_000,
        tolerance: TOLERANCE,
    }
}

/// Times one factor + solve through a [`Factorization`] backend.
fn run_backend<F: Factorization>(
    name: &'static str,
    factor: impl FnOnce() -> F,
    a: &CsrMatrix,
    b: &Vector,
    iterations: impl FnOnce(&F) -> Option<usize>,
) -> SolverPoint {
    let start = Instant::now();
    let backend = factor();
    let x = backend.solve(b).expect("solve");
    let seconds = start.elapsed().as_secs_f64();
    SolverPoint {
        solver: name,
        seconds,
        iterations: iterations(&backend),
        residual: relative_residual(a, &x, b),
    }
}

fn run_size(side: usize, quiet: bool) -> SizeReport {
    let a = grid_laplacian(side);
    let n = a.rows();
    let b = rhs(n);
    let policy_choice = SolverPolicy::default().select_sparse(&a).as_str();
    let mut solvers = Vec::new();

    if n <= DENSE_CAP {
        let dense = a.to_dense();
        solvers.push(run_backend(
            "dense-cholesky",
            || Cholesky::factor(&dense).expect("dense Cholesky"),
            &a,
            &b,
            |_| None,
        ));
    }
    for (name, kind) in [
        ("jacobi-cg", PrecondKind::Jacobi),
        ("ic0-pcg", PrecondKind::Ic0),
    ] {
        solvers.push(run_backend(
            name,
            || PrecondCg::factor_sparse_with(&a, kind, cg_options()).expect("pcg factor"),
            &a,
            &b,
            |f| f.last_iterations(),
        ));
    }
    solvers.push(run_backend(
        "amg-pcg",
        || {
            AmgCg::factor_sparse(
                &a,
                AmgOptions {
                    cg: cg_options(),
                    ..AmgOptions::default()
                },
            )
            .expect("amg factor")
        },
        &a,
        &b,
        |f| f.last_iterations(),
    ));

    let report = SizeReport {
        n,
        side,
        nnz: a.nnz(),
        bandwidth: a.bandwidth(),
        policy_choice,
        solvers,
    };
    if !quiet {
        println!(
            "n={:>6} (side {:>3}, nnz {:>7}, bandwidth {:>3}, policy {}):",
            report.n, report.side, report.nnz, report.bandwidth, report.policy_choice
        );
        for p in &report.solvers {
            let iters = p
                .iterations
                .map_or_else(|| "   direct".to_owned(), |i| format!("{i:>5} its"));
            println!(
                "  {:<18} {:>9.4}s  {}  residual {:.2e}",
                p.solver, p.seconds, iters, p.residual
            );
        }
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let ci = args.iter().any(|a| a == "--ci");
    let (sides, out_path): (&[usize], &str) = if ci {
        (&CI_SIDES, "BENCH_solver_ci.json")
    } else {
        (&FULL_SIDES, "BENCH_solver.json")
    };

    if !quiet {
        println!(
            "== solver crossover: Dirichlet grid Laplacian (Eq. 5), tolerance {TOLERANCE:.0e} ({} mode) ==",
            if ci { "ci" } else { "full" }
        );
    }
    let reports: Vec<SizeReport> = sides.iter().map(|&side| run_size(side, quiet)).collect();

    // Wall-clock winner of the largest solve — recorded, never gated.
    let largest = reports.last().expect("at least one size");
    let fastest_large = largest
        .solvers
        .iter()
        .min_by(|x, y| x.seconds.total_cmp(&y.seconds))
        .expect("at least one solver");

    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let body = reports
        .iter()
        .map(SizeReport::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n\"mode\": \"{}\",\n\"host_parallelism\": {host_parallelism},\n\
         \"tolerance\": {TOLERANCE:e},\n\"dense_cap\": {DENSE_CAP},\n\
         \"largest_solve_winner\": \"{}\",\n\"sizes\": [\n{body}\n]\n}}\n",
        if ci { "ci" } else { "full" },
        fastest_large.solver,
    );
    std::fs::write(out_path, &json).expect("write solver report");

    // Exit gates: correctness only. Every backend must actually solve
    // the system, and IC(0) must not need more CG iterations than plain
    // Jacobi — both deterministic on any host.
    let residuals_ok = reports
        .iter()
        .all(|r| r.solvers.iter().all(|p| p.residual <= RESIDUAL_GATE));
    let ic_ok = reports
        .iter()
        .all(|r| match (r.point("ic0-pcg"), r.point("jacobi-cg")) {
            (Some(ic), Some(jacobi)) => ic.iterations <= jacobi.iterations,
            _ => false,
        });

    if !quiet {
        println!(
            "\nlargest solve (n={}) won by {} at {:.4}s; wrote {out_path}",
            largest.n, fastest_large.solver, fastest_large.seconds
        );
        println!(
            "correctness gates: residuals {} | ic ≤ jacobi iterations {}",
            if residuals_ok { "passed" } else { "FAILED" },
            if ic_ok { "passed" } else { "FAILED" },
        );
    }
    if residuals_ok && ic_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
