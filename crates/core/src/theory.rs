//! Executable diagnostics for the quantities in the proof of Theorem II.1.
//!
//! The paper's consistency argument controls three quantities:
//!
//! 1. the **tiny-element bound**: `‖D₂₂⁻¹W₂₂‖_max ≤ M / (n h_n^d)` with
//!    probability → 1, which makes the Neumann series
//!    `(I − D₂₂⁻¹W₂₂)⁻¹ = I + S` converge with `S` also tiny;
//! 2. the **coupling gap** `g_{n+a}` between the hard-criterion row
//!    weights `w_{i,n+a}/d_{n+a}` and the Nadaraya–Watson weights
//!    `w_{i,n+a}/Σ_{k≤n} w_{k,n+a}`, bounded by `mM/(n h_n^d)`;
//! 3. the **regime ratio** `m/(n h_n^d)`, which must vanish
//!    (`m = o(n h_n^d)`) for consistency.
//!
//! [`TheoryDiagnostics`](crate::theory::TheoryDiagnostics) measures all
//! three on a concrete problem so the asymptotic statements can be
//! watched converging in experiments.

use crate::error::Result;
use crate::hard::HardCriterion;
use crate::nadaraya_watson::NadarayaWatson;
use crate::problem::Problem;
use gssl_graph::spectral::{spectral_radius, PowerIterationOptions};
use gssl_linalg::Matrix;

/// Measured values of the quantities appearing in the proof of
/// Theorem II.1.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoryDiagnostics {
    /// `‖D₂₂⁻¹W₂₂‖_max` — the "tiny elements" of the proof.
    pub substochastic_max: f64,
    /// Spectral radius of `D₂₂⁻¹W₂₂`; `< 1` iff the Neumann series
    /// converges (equivalently, the problem is anchored).
    pub spectral_radius: f64,
    /// `max_a |g_{n+a}|` — the worst coupling gap between the hard
    /// criterion's direct term and the Nadaraya–Watson estimator.
    pub coupling_gap_max: f64,
    /// `max_a |f̂_{n+a} − q̂_{n+a}|` — the realized disagreement between
    /// the full hard solution and Nadaraya–Watson (what the proof bounds).
    pub solution_gap_max: f64,
    /// The regime ratio `m / (n h^d)` (requires the bandwidth used to
    /// build the graph).
    pub regime_ratio: f64,
}

impl TheoryDiagnostics {
    /// Computes all diagnostics for a problem built with bandwidth `h` on
    /// `d`-dimensional inputs.
    ///
    /// # Errors
    ///
    /// * Propagates solver errors (unanchored problems, zero kernel mass).
    /// * The spectral radius is reported as `NaN` when power iteration
    ///   does not settle (rare; e.g. symmetric eigenvalue ties).
    pub fn compute(problem: &Problem, bandwidth: f64, dim: usize) -> Result<Self> {
        let n = problem.n_labeled();
        let m = problem.n_unlabeled();
        let blocks = problem.weight_blocks()?;
        let degrees = problem.degrees();

        // D₂₂⁻¹W₂₂ and its max element / spectral radius.
        let mut substochastic = Matrix::zeros(m, m);
        for a in 0..m {
            let d = degrees[n + a];
            for b in 0..m {
                substochastic.set(a, b, blocks.a22.get(a, b) / d);
            }
        }
        let substochastic_max = substochastic.norm_max();
        let radius = if m == 0 {
            0.0
        } else {
            spectral_radius(&substochastic, &PowerIterationOptions::default()).unwrap_or(f64::NAN)
        };

        // Coupling gap g_{n+a} (paper, Section IV): with |Y| ≤ max|Y|,
        // |g| ≤ Σ_{k>n} w_{k,n+a} / d_{n+a} · max|Y| — we measure the
        // exact weight discrepancy (unlabeled share of the degree).
        let y_max = problem
            .labels()
            .iter()
            .fold(0.0f64, |acc, y| acc.max(y.abs()))
            .max(1.0);
        let mut coupling_gap_max = 0.0f64;
        for a in 0..m {
            let unlabeled_mass: f64 = (0..m).map(|b| blocks.a22.get(a, b)).sum();
            let gap = y_max * unlabeled_mass / degrees[n + a];
            coupling_gap_max = coupling_gap_max.max(gap);
        }

        // Realized disagreement between the two estimators.
        let solution_gap_max = if m == 0 {
            0.0
        } else {
            let hard = HardCriterion::new().fit(problem)?;
            let nw = NadarayaWatson::new().fit(problem)?;
            hard.unlabeled()
                .iter()
                .zip(nw.unlabeled())
                .map(|(a, b)| (a - b).abs())
                .fold(
                    0.0,
                    |acc, x| if x.total_cmp(&acc).is_gt() { x } else { acc },
                )
        };

        let regime_ratio = m as f64 / (n as f64 * bandwidth.powi(dim as i32));

        Ok(TheoryDiagnostics {
            substochastic_max,
            spectral_radius: radius,
            coupling_gap_max,
            solution_gap_max,
            regime_ratio,
        })
    }
}

/// Verifies the Neumann-series step of the proof on a concrete problem:
/// truncating `(I − P)⁻¹ = I + P + P² + …` (with `P = D₂₂⁻¹W₂₂`) after
/// `terms` powers, how far is the truncation from the exact inverse?
///
/// Returns the max-norm error per truncation length `1..=terms` — a
/// strictly decreasing sequence whenever `ρ(P) < 1`, which is exactly
/// what the paper's "tiny elements" argument establishes.
///
/// # Errors
///
/// * Propagates partition errors.
/// * [`crate::Error::Linalg`] when `I − P` is singular (unanchored
///   problem).
pub fn neumann_truncation_errors(problem: &Problem, terms: usize) -> Result<Vec<f64>> {
    let n = problem.n_labeled();
    let m = problem.n_unlabeled();
    if m == 0 {
        return Ok(vec![0.0; terms]);
    }
    let blocks = problem.weight_blocks()?;
    let degrees = problem.degrees();
    let mut p = Matrix::zeros(m, m);
    for a in 0..m {
        for b in 0..m {
            p.set(a, b, blocks.a22.get(a, b) / degrees[n + a]);
        }
    }
    let identity = Matrix::identity(m);
    let exact = gssl_linalg::inverse(&(&identity - &p))?;

    let mut errors = Vec::with_capacity(terms);
    let mut partial = identity.clone();
    let mut power = identity;
    for _ in 0..terms {
        power = power.matmul(&p)?;
        partial = &partial + &power;
        errors.push((&exact - &partial).norm_max());
    }
    Ok(errors)
}

/// Evaluates the paper's theoretical bound `M/(n h^d)` with
/// `M = 2k*/(sβ)` for a kernel meeting conditions (i)–(iii), using the
/// kernel's own `(β, δ)` certificate and a density lower bound `s`.
///
/// Useful for checking that the measured [`TheoryDiagnostics`] fall under
/// the bound in simulation.
pub fn tiny_element_bound(
    kernel: gssl_graph::Kernel,
    density_lower_bound: f64,
    n: usize,
    bandwidth: f64,
    dim: usize,
) -> f64 {
    let (beta, _delta) = kernel.lower_bound_ball();
    let k_star = kernel.upper_bound();
    // Degenerate inputs (no samples, vanishing density or bandwidth) make
    // the bound vacuous; return it explicitly instead of dividing by zero.
    if n == 0 || density_lower_bound <= 0.0 || bandwidth <= 0.0 || beta <= 0.0 {
        return f64::INFINITY;
    }
    let m_const = 2.0 * k_star / (density_lower_bound * beta);
    m_const / (n as f64 * bandwidth.powi(dim as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gssl_graph::{affinity::affinity_matrix, Kernel};

    fn grid_problem(n: usize, m: usize, h: f64) -> Problem {
        // Points on a 1-D grid in [0, 1]; labeled first.
        let total = n + m;
        let points = Matrix::from_fn(total, 1, |i, _| i as f64 / total as f64);
        let w = affinity_matrix(&points, Kernel::Gaussian, h).unwrap();
        let labels: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        Problem::new(w, labels).unwrap()
    }

    #[test]
    fn diagnostics_are_finite_and_in_range() {
        let p = grid_problem(20, 5, 0.3);
        let d = TheoryDiagnostics::compute(&p, 0.3, 1).unwrap();
        assert!(d.substochastic_max > 0.0 && d.substochastic_max < 1.0);
        assert!(d.spectral_radius > 0.0 && d.spectral_radius < 1.0);
        assert!(d.coupling_gap_max >= 0.0);
        assert!(d.solution_gap_max >= 0.0);
        assert!((d.regime_ratio - 5.0 / (20.0 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn more_labels_shrink_every_gap() {
        // Fixed m; growing n should shrink the tiny elements, the coupling
        // gap and the realized hard-vs-NW disagreement.
        let small = TheoryDiagnostics::compute(&grid_problem(10, 5, 0.4), 0.4, 1).unwrap();
        let large = TheoryDiagnostics::compute(&grid_problem(200, 5, 0.4), 0.4, 1).unwrap();
        assert!(large.substochastic_max < small.substochastic_max);
        assert!(large.coupling_gap_max < small.coupling_gap_max);
        assert!(large.solution_gap_max < small.solution_gap_max);
        assert!(large.regime_ratio < small.regime_ratio);
    }

    #[test]
    fn more_unlabeled_grows_the_regime_ratio() {
        let few = TheoryDiagnostics::compute(&grid_problem(50, 5, 0.4), 0.4, 1).unwrap();
        let many = TheoryDiagnostics::compute(&grid_problem(50, 100, 0.4), 0.4, 1).unwrap();
        assert!(many.regime_ratio > few.regime_ratio);
        assert!(many.coupling_gap_max > few.coupling_gap_max);
    }

    #[test]
    fn spectral_radius_below_one_iff_anchored() {
        let p = grid_problem(30, 10, 0.3);
        let d = TheoryDiagnostics::compute(&p, 0.3, 1).unwrap();
        assert!(d.spectral_radius < 1.0);
    }

    #[test]
    fn fully_labeled_problem_has_trivial_diagnostics() {
        let p = grid_problem(10, 0, 0.3);
        let d = TheoryDiagnostics::compute(&p, 0.3, 1).unwrap();
        assert_eq!(d.substochastic_max, 0.0);
        assert_eq!(d.spectral_radius, 0.0);
        assert_eq!(d.coupling_gap_max, 0.0);
        assert_eq!(d.solution_gap_max, 0.0);
        assert_eq!(d.regime_ratio, 0.0);
    }

    #[test]
    fn neumann_truncation_converges_monotonically() {
        let p = grid_problem(40, 8, 0.3);
        let errors = neumann_truncation_errors(&p, 30).unwrap();
        assert_eq!(errors.len(), 30);
        for pair in errors.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-12,
                "truncation error grew: {pair:?}"
            );
        }
        assert!(
            errors.last().unwrap() < &1e-6,
            "30 terms should nearly exactly invert, got {}",
            errors.last().unwrap()
        );
        // Fully labeled: trivially zero.
        let trivial = neumann_truncation_errors(&grid_problem(10, 0, 0.3), 3).unwrap();
        assert_eq!(trivial, vec![0.0; 3]);
    }

    #[test]
    fn bound_formula_decreases_in_n() {
        let b10 = tiny_element_bound(Kernel::Epanechnikov, 0.5, 10, 0.3, 2);
        let b1000 = tiny_element_bound(Kernel::Epanechnikov, 0.5, 1000, 0.3, 2);
        assert!(b1000 < b10);
        assert!(b1000 > 0.0);
    }
}
