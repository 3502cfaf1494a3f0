//! The unified factorization backend layer.
//!
//! Every solver in the workspace — the hard criterion's `D₂₂ − W₂₂`, the
//! soft criterion's `V + λL`, and the serving engine's cached systems —
//! reduces to "factor once, solve many". [`Factorization`] captures that
//! contract behind one object-safe trait, implemented by the dense direct
//! backends ([`Cholesky`], [`Lu`]), by [`PrecondCg`] — a preconditioned
//! conjugate-gradient backend that keeps its system in CSR form and pairs
//! it with a [`crate::Precond`] (Jacobi or incomplete Cholesky) — and by
//! [`crate::AmgCg`], an algebraic-multigrid V-cycle PCG for the largest
//! graph Laplacians.
//! [`SolverPolicy`] picks among them from size, symmetry, nonzero density,
//! and bandwidth, so callers can stay representation-agnostic.

use crate::amg::{AmgCg, AmgOptions};
use crate::cg::{preconditioned_cg_with, CgOptions, CsrOnExecutor, LastSolve};
use crate::cholesky::Cholesky;
use crate::error::{Error, Result};
use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::precond::{Precond, PrecondKind};
use crate::sparse::CsrMatrix;
use crate::strict;
use crate::vector::Vector;
use gssl_runtime::Executor;

/// A factored (or factor-free iterative) linear system `A x = b`, ready to
/// solve against many right-hand sides.
///
/// The trait is object-safe: downstream layers can hold a
/// `Box<dyn Factorization>` when the backend is chosen at runtime, though
/// most callers use the concrete [`SolverBackend`] enum.
pub trait Factorization {
    /// Dimension of the factored system.
    fn dim(&self) -> usize;

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `b.len() != dim()`, and
    /// backend-specific errors (e.g. [`Error::NotConverged`] from the
    /// iterative backend).
    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector>;

    /// Solves `A X = B` column by column against the same factorization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `b.rows() != dim()`, plus
    /// any per-column error from [`Factorization::solve`].
    /// shape: (b.rows, b.cols)
    fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                operation: "factorization solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for i in 0..n {
                out.set(i, j, x[i]);
            }
        }
        Ok(out)
    }

    /// Applies the *original* operator: computes `A x` from the stored
    /// factors (direct backends reconstruct it as `L(Lᵀx)` / `Pᵀ(L(Ux))`;
    /// the iterative backend applies the stored system exactly).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `x.len() != dim()`.
    /// shape: (x.len,)
    fn apply(&self, x: &Vector) -> Result<Vector>;

    /// Residual report `‖A x − b‖∞` for a candidate solution, computed
    /// through [`Factorization::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when lengths disagree with
    /// `dim()`.
    fn residual(&self, x: &Vector, b: &Vector) -> Result<f64> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "factorization residual",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let ax = self.apply(x)?;
        let mut worst = 0.0f64;
        for (ai, bi) in ax.as_slice().iter().zip(b.as_slice()) {
            worst = worst.max((ai - bi).abs());
        }
        Ok(worst)
    }

    /// Inverse of the factored matrix, formed column by column.
    ///
    /// Direct backends pay `n` extra solves; the iterative backend pays `n`
    /// full CG runs — prefer [`Factorization::solve`] whenever only
    /// `A⁻¹ b` is needed.
    ///
    /// # Errors
    ///
    /// Propagates errors from the underlying solves.
    /// shape: (n, n)
    fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Which concrete backend is behind this factorization.
    fn kind(&self) -> BackendKind;

    /// Structured summary of the factorization for logs and diagnostics.
    ///
    /// Iterative backends override this to also report the iteration count
    /// and final residual of their most recent solve.
    fn report(&self) -> FactorReport {
        FactorReport {
            backend: self.kind(),
            dim: self.dim(),
            iterations: None,
            final_residual: None,
        }
    }
}

/// The concrete backend a [`SolverPolicy`] selected (or a caller forced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Dense Cholesky (`A = LLᵀ`); symmetric positive-definite systems.
    DenseCholesky,
    /// Dense LU with partial pivoting; general nonsingular systems.
    DenseLu,
    /// Jacobi-preconditioned conjugate gradient over a CSR system; SPD
    /// systems too large or too sparse to factor densely.
    SparseCg,
    /// Incomplete-Cholesky IC(0)-preconditioned CG: a zero-fill factor on
    /// the pattern of `tril(A)` — exact on banded systems, and the default
    /// iterative choice for sparse SPD systems.
    SparseIcCg,
    /// Algebraic-multigrid V-cycle-preconditioned CG over a heavy-edge
    /// matched Galerkin hierarchy; for the largest wide-band Laplacians.
    Amg,
}

impl BackendKind {
    /// Stable lowercase identifier (used by JSON diagnostics).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::DenseCholesky => "dense-cholesky",
            BackendKind::DenseLu => "dense-lu",
            BackendKind::SparseCg => "sparse-cg",
            BackendKind::SparseIcCg => "sparse-ic-cg",
            BackendKind::Amg => "amg",
        }
    }

    /// Whether the backend solves iteratively (no stored dense factor).
    pub fn is_iterative(self) -> bool {
        matches!(
            self,
            BackendKind::SparseCg | BackendKind::SparseIcCg | BackendKind::Amg
        )
    }
}

/// Summary of a factorization, as returned by [`Factorization::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorReport {
    /// The backend that produced the factorization.
    pub backend: BackendKind,
    /// Dimension of the factored system.
    pub dim: usize,
    /// Iterations of the backend's most recent solve (`None` for direct
    /// backends, and for iterative ones that have not solved yet).
    pub iterations: Option<usize>,
    /// Final residual norm `‖b − A x‖₂` of the most recent iterative
    /// solve (`None` like [`FactorReport::iterations`]).
    pub final_residual: Option<f64>,
}

impl Factorization for Cholesky {
    fn dim(&self) -> usize {
        Cholesky::dim(self)
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        Cholesky::solve(self, b)
    }

    /// shape: (b.rows, b.cols)
    fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        Cholesky::solve_matrix(self, b)
    }

    /// Computes `A x = L (Lᵀ x)` from the stored factor.
    /// shape: (x.len,)
    fn apply(&self, x: &Vector) -> Result<Vector> {
        let n = Cholesky::dim(self);
        if x.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "cholesky apply",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        let l = self.lower();
        // y = Lᵀ x (upper-triangular product), then out = L y.
        let mut y = vec![0.0; n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (j, &xj) in x.as_slice().iter().enumerate().skip(i) {
                sum += l.get(j, i) * xj;
            }
            *yi = sum;
        }
        let mut out = vec![0.0; n];
        for (i, oi) in out.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (j, yj) in y.iter().enumerate().take(i + 1) {
                sum += l.get(i, j) * yj;
            }
            *oi = sum;
        }
        Ok(Vector::from(out))
    }

    fn kind(&self) -> BackendKind {
        BackendKind::DenseCholesky
    }
}

impl Factorization for Lu {
    fn dim(&self) -> usize {
        Lu::dim(self)
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        Lu::solve(self, b)
    }

    /// shape: (b.rows, b.cols)
    fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        Lu::solve_matrix(self, b)
    }

    /// Computes `A x = Pᵀ (L (U x))` from the packed factors.
    /// shape: (x.len,)
    fn apply(&self, x: &Vector) -> Result<Vector> {
        let n = Lu::dim(self);
        if x.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "lu apply",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        let f = self.factors();
        // y = U x (upper triangle, including the diagonal).
        let mut y = vec![0.0; n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (fij, xj) in f.row(i)[i..].iter().zip(&x.as_slice()[i..]) {
                sum += fij * xj;
            }
            *yi = sum;
        }
        // z = L y (unit lower triangle).
        let mut z = vec![0.0; n];
        for (i, zi) in z.iter_mut().enumerate() {
            let mut sum = y[i];
            for (j, yj) in y.iter().enumerate().take(i) {
                sum += f.get(i, j) * yj;
            }
            *zi = sum;
        }
        // Undo the row permutation: (P A) x = L U x, so (A x)[perm[i]] = z[i].
        let mut out = vec![0.0; n];
        for (&p, &zi) in self.perm().iter().zip(&z) {
            out[p] = zi;
        }
        Ok(Vector::from(out))
    }

    fn kind(&self) -> BackendKind {
        BackendKind::DenseLu
    }
}

/// Preconditioned conjugate-gradient backend over a CSR system.
///
/// "Factoring" validates the system and builds the chosen
/// [`PrecondKind`] (Jacobi diagonal scaling by default, or incomplete
/// Cholesky IC(0)); every [`PrecondCg::solve`] call then runs CG against
/// the stored system, its matvecs on the stored executor. The system must
/// be symmetric positive definite — CG reports [`Error::NotConverged`]
/// otherwise. The most recent solve's iteration count and residual are
/// recorded for [`Factorization::report`].
#[derive(Debug, Clone)]
pub struct PrecondCg {
    system: CsrMatrix,
    precond: Precond,
    options: CgOptions,
    executor: Executor,
    last: LastSolve,
}

impl PrecondCg {
    /// Builds the iterative backend around a CSR system with the
    /// historical Jacobi (diagonal) preconditioner.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] when a diagonal entry is `<= 0` or
    ///   non-finite.
    pub fn factor_sparse(a: &CsrMatrix, options: CgOptions) -> Result<Self> {
        PrecondCg::factor_sparse_with(a, PrecondKind::Jacobi, options)
    }

    /// Builds the iterative backend around a CSR system with an explicit
    /// preconditioner choice.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NonFiniteValue`] under `strict-checks` when a stored value
    ///   is non-finite (the index is the stored-entry position).
    /// * [`Error::NotPositiveDefinite`] when the preconditioner cannot be
    ///   built (non-positive diagonal, IC(0) breakdown).
    ///
    /// deterministic
    pub fn factor_sparse_with(
        a: &CsrMatrix,
        kind: PrecondKind,
        options: CgOptions,
    ) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(Error::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        strict::check_finite("precond_cg.factor input", a.values())?;
        let precond = Precond::build(a, &kind)?;
        Ok(PrecondCg {
            system: a.clone(),
            precond,
            options,
            executor: Executor::default(),
            last: LastSolve::new(),
        })
    }

    /// Runs every solve's matvecs on `executor` (row-sharded once the
    /// system stores `PARALLEL_MIN_NNZ` entries, with output bit-identical
    /// to the sequential backend at any worker count).
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Borrows the stored system.
    /// shape: (n, n)
    pub fn system(&self) -> &CsrMatrix {
        &self.system
    }

    /// The preconditioner built at factor time.
    pub fn precond(&self) -> &Precond {
        &self.precond
    }

    /// The executor the matvecs of every solve run on.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The CG options every solve runs with.
    pub fn options(&self) -> &CgOptions {
        &self.options
    }

    /// Iterations of the most recent [`Factorization::solve`] call on this
    /// handle (`None` before the first solve; clones start fresh from the
    /// value at clone time).
    pub fn last_iterations(&self) -> Option<usize> {
        self.last.iterations()
    }

    /// Final residual norm of the most recent solve (`None` before the
    /// first solve).
    pub fn last_residual(&self) -> Option<f64> {
        self.last.residual()
    }
}

impl Factorization for PrecondCg {
    fn dim(&self) -> usize {
        self.system.rows()
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        let op = CsrOnExecutor {
            matrix: &self.system,
            executor: &self.executor,
        };
        self.last
            .record(preconditioned_cg_with(&op, b, &self.precond, &self.options))
    }

    /// Applies the stored system exactly.
    /// shape: (x.len,)
    fn apply(&self, x: &Vector) -> Result<Vector> {
        let n = Factorization::dim(self);
        if x.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "precond_cg apply",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        Ok(Vector::from(self.system.matvec(x.as_slice())))
    }

    fn kind(&self) -> BackendKind {
        match self.precond {
            Precond::Jacobi(_) => BackendKind::SparseCg,
            Precond::Ic0(_) => BackendKind::SparseIcCg,
        }
    }

    fn report(&self) -> FactorReport {
        FactorReport {
            backend: self.kind(),
            dim: Factorization::dim(self),
            iterations: self.last_iterations(),
            final_residual: self.last_residual(),
        }
    }
}

/// One factored system behind a single concrete type: what
/// [`SolverPolicy`] hands back, and what downstream layers cache.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SolverBackend {
    /// Dense Cholesky factorization.
    Cholesky(Cholesky),
    /// Dense LU factorization.
    Lu(Lu),
    /// Preconditioned CG (no stored dense factor).
    Cg(PrecondCg),
    /// Algebraic-multigrid V-cycle PCG.
    Amg(AmgCg),
}

impl Factorization for SolverBackend {
    fn dim(&self) -> usize {
        match self {
            SolverBackend::Cholesky(f) => Factorization::dim(f),
            SolverBackend::Lu(f) => Factorization::dim(f),
            SolverBackend::Cg(f) => Factorization::dim(f),
            SolverBackend::Amg(f) => Factorization::dim(f),
        }
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        match self {
            SolverBackend::Cholesky(f) => Factorization::solve(f, b),
            SolverBackend::Lu(f) => Factorization::solve(f, b),
            SolverBackend::Cg(f) => Factorization::solve(f, b),
            SolverBackend::Amg(f) => Factorization::solve(f, b),
        }
    }

    /// shape: (b.rows, b.cols)
    fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        match self {
            SolverBackend::Cholesky(f) => Factorization::solve_matrix(f, b),
            SolverBackend::Lu(f) => Factorization::solve_matrix(f, b),
            SolverBackend::Cg(f) => Factorization::solve_matrix(f, b),
            SolverBackend::Amg(f) => Factorization::solve_matrix(f, b),
        }
    }

    /// shape: (x.len,)
    fn apply(&self, x: &Vector) -> Result<Vector> {
        match self {
            SolverBackend::Cholesky(f) => Factorization::apply(f, x),
            SolverBackend::Lu(f) => Factorization::apply(f, x),
            SolverBackend::Cg(f) => Factorization::apply(f, x),
            SolverBackend::Amg(f) => Factorization::apply(f, x),
        }
    }

    fn kind(&self) -> BackendKind {
        match self {
            SolverBackend::Cholesky(f) => Factorization::kind(f),
            SolverBackend::Lu(f) => Factorization::kind(f),
            SolverBackend::Cg(f) => Factorization::kind(f),
            SolverBackend::Amg(f) => Factorization::kind(f),
        }
    }

    fn report(&self) -> FactorReport {
        match self {
            SolverBackend::Cholesky(f) => Factorization::report(f),
            SolverBackend::Lu(f) => Factorization::report(f),
            SolverBackend::Cg(f) => Factorization::report(f),
            SolverBackend::Amg(f) => Factorization::report(f),
        }
    }
}

/// Which iterative backend [`SolverPolicy`] builds. A forced strategy
/// always takes the iterative route, whatever the system's size or
/// density; `Auto` takes it only for large sparse systems.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum SparseStrategy {
    /// Factor systems below 128 rows, or denser than 25 % nonzeros,
    /// directly. Cost-model the rest: AMG when the system has at least
    /// 4096 rows and is mesh-like — bandwidth (max stored `|i − j|`) at
    /// least 128 but at most an eighth of the dimension — and IC(0)-PCG
    /// otherwise. On a narrow band IC(0) discards little or no fill-in,
    /// so a hierarchy has nothing to add; a 2-D mesh of n rows has
    /// bandwidth ≈ √n. Bandwidth ≈ dim means an ordering with no
    /// locality (a kNN graph in spatial-index order): there the measure
    /// says nothing about conditioning, and IC-PCG's cheaper iterations
    /// are the robust default.
    #[default]
    Auto,
    /// Always plain Jacobi (diagonal) PCG.
    Jacobi,
    /// Always incomplete-Cholesky IC(0) PCG.
    Ic0,
    /// Always algebraic multigrid with the given hierarchy options. The
    /// outer CG run uses [`SolverPolicy::cg`]; the options' own
    /// [`AmgOptions::cg`] is ignored here.
    Amg(AmgOptions),
}

/// [`SparseStrategy::Auto`] factors systems with fewer rows directly.
const DIRECT_DIM_CUTOFF: usize = 128;
/// [`SparseStrategy::Auto`] factors systems denser than this (`nnz / n²`)
/// directly.
const DENSITY_THRESHOLD: f64 = 0.25;
/// Absolute entrywise tolerance under which a directly factored system
/// counts as symmetric, and so goes to Cholesky.
const SYMMETRY_TOLERANCE: f64 = 1e-9;
/// [`SparseStrategy::Auto`] picks AMG only from this many rows.
const AMG_DIM_CUTOFF: usize = 4096;
/// [`SparseStrategy::Auto`] picks AMG only from this bandwidth.
const AMG_BANDWIDTH_FLOOR: usize = 128;
/// [`SparseStrategy::Auto`] picks AMG only when
/// `bandwidth * AMG_LOCALITY_FACTOR <= dim`.
const AMG_LOCALITY_FACTOR: usize = 8;

/// Auto-selection policy: dense Cholesky vs dense LU vs the iterative
/// sparse backends (see [`SolverPolicy::select_dense`] /
/// [`SolverPolicy::select_sparse`]). The [`SparseStrategy`] decides
/// whether a system takes the iterative route; the rest are factored
/// directly — Cholesky when symmetric within an absolute `1e-9`, LU
/// otherwise.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolverPolicy {
    /// Which iterative backend to build, and whether the route is
    /// cost-modelled ([`SparseStrategy::Auto`]) or forced.
    pub sparse: SparseStrategy,
    /// Options for the outer CG run of every iterative backend the policy
    /// builds — Jacobi and IC(0) PCG, and AMG whether auto-selected or
    /// forced through [`SparseStrategy::Amg`].
    pub cg: CgOptions,
    /// Executor every selected backend factors (and, for CG, solves) on.
    /// Sequential by default; parallel executors leave results bit-identical.
    pub executor: Executor,
}

/// Counts entries of a dense matrix with magnitude above zero.
fn dense_nnz(a: &Matrix) -> usize {
    let mut nnz = 0;
    for i in 0..a.rows() {
        for v in a.row(i) {
            if v.abs() > 0.0 {
                nnz += 1;
            }
        }
    }
    nnz
}

/// Fraction of stored entries relative to a full `rows × cols` matrix
/// (defined as 1.0 for empty shapes).
fn density(nnz: usize, rows: usize, cols: usize) -> f64 {
    if rows == 0 || cols == 0 {
        return 1.0;
    }
    nnz as f64 / (rows as f64 * cols as f64)
}

/// Maximum `|i − j|` over entries of a dense matrix with magnitude above
/// zero — the same bandwidth [`CsrMatrix::bandwidth`] reports after
/// `CsrMatrix::from_dense(a, 0.0)`.
fn dense_bandwidth(a: &Matrix) -> usize {
    let mut band = 0usize;
    for i in 0..a.rows() {
        for (j, v) in a.row(i).iter().enumerate() {
            if v.abs() > 0.0 {
                band = band.max(i.abs_diff(j));
            }
        }
    }
    band
}

impl SolverPolicy {
    /// Policy with a custom CG configuration for the iterative backend.
    pub fn with_cg(cg: CgOptions) -> Self {
        SolverPolicy {
            cg,
            ..SolverPolicy::default()
        }
    }

    /// Runs every factorization this policy selects on `executor`.
    ///
    /// Backend choice is unaffected — only how the chosen backend computes.
    /// Parallel executors keep factors and solves bit-identical to the
    /// sequential ones.
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// `true` when a `rows × cols` system with `nnz()` stored entries
    /// takes the iterative route: always under a forced strategy; under
    /// [`SparseStrategy::Auto`] when it is large and sparse.
    fn routes_iterative(&self, rows: usize, cols: usize, nnz: impl FnOnce() -> usize) -> bool {
        match self.sparse {
            SparseStrategy::Auto => {
                rows >= DIRECT_DIM_CUTOFF && density(nnz(), rows, cols) <= DENSITY_THRESHOLD
            }
            _ => true,
        }
    }

    /// Which iterative backend the [`SparseStrategy`] yields for a system
    /// of `dim` rows with the given bandwidth.
    fn select_iterative(&self, dim: usize, bandwidth: usize) -> BackendKind {
        match &self.sparse {
            SparseStrategy::Auto => {
                if dim >= AMG_DIM_CUTOFF
                    && bandwidth >= AMG_BANDWIDTH_FLOOR
                    && bandwidth.saturating_mul(AMG_LOCALITY_FACTOR) <= dim
                {
                    BackendKind::Amg
                } else {
                    BackendKind::SparseIcCg
                }
            }
            SparseStrategy::Jacobi => BackendKind::SparseCg,
            SparseStrategy::Ic0 => BackendKind::SparseIcCg,
            SparseStrategy::Amg(_) => BackendKind::Amg,
        }
    }

    /// Which backend [`SolverPolicy::factor_dense`] would pick for `a`.
    ///
    /// A breakdown-driven fallback (IC(0) → Jacobi, Cholesky → LU) can
    /// still land on a different backend at factor time.
    pub fn select_dense(&self, a: &Matrix) -> BackendKind {
        if self.routes_iterative(a.rows(), a.cols(), || dense_nnz(a)) {
            return self.select_iterative(a.rows(), dense_bandwidth(a));
        }
        if a.is_symmetric(SYMMETRY_TOLERANCE) {
            BackendKind::DenseCholesky
        } else {
            BackendKind::DenseLu
        }
    }

    /// Which backend [`SolverPolicy::factor_sparse`] would pick for `a`.
    ///
    /// A breakdown-driven fallback (IC(0) → Jacobi, Cholesky → LU) can
    /// still land on a different backend at factor time.
    pub fn select_sparse(&self, a: &CsrMatrix) -> BackendKind {
        if self.routes_iterative(a.rows(), a.cols(), || a.nnz()) {
            return self.select_iterative(a.rows(), a.bandwidth());
        }
        if a.is_symmetric(SYMMETRY_TOLERANCE) {
            BackendKind::DenseCholesky
        } else {
            BackendKind::DenseLu
        }
    }

    /// Builds the iterative backend [`SolverPolicy::select_iterative`]
    /// picked for a CSR system.
    ///
    /// Every backend it builds runs its outer CG with [`SolverPolicy::cg`].
    /// IC(0) can break down on SPD systems that are far from diagonally
    /// dominant even though the exact factorization exists; in that case
    /// the policy falls back to the always-buildable Jacobi
    /// preconditioner instead of failing the solve. The fallback depends
    /// only on the matrix values, never on timing or thread count.
    fn factor_iterative(&self, a: &CsrMatrix) -> Result<SolverBackend> {
        match self.select_iterative(a.rows(), a.bandwidth()) {
            BackendKind::Amg => {
                let hierarchy = match &self.sparse {
                    SparseStrategy::Amg(options) => options.clone(),
                    _ => AmgOptions::default(),
                };
                let options = AmgOptions {
                    cg: self.cg.clone(),
                    ..hierarchy
                };
                Ok(SolverBackend::Amg(
                    AmgCg::factor_sparse(a, options)?.with_executor(self.executor.clone()),
                ))
            }
            kind => {
                let jacobi = kind == BackendKind::SparseCg;
                let precond_kind = if jacobi {
                    PrecondKind::Jacobi
                } else {
                    PrecondKind::Ic0
                };
                match PrecondCg::factor_sparse_with(a, precond_kind, self.cg.clone()) {
                    Ok(f) => Ok(SolverBackend::Cg(f.with_executor(self.executor.clone()))),
                    Err(Error::NotPositiveDefinite { .. }) if !jacobi => Ok(SolverBackend::Cg(
                        PrecondCg::factor_sparse(a, self.cg.clone())?
                            .with_executor(self.executor.clone()),
                    )),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Factors a dense system with the auto-selected backend.
    ///
    /// A symmetric system that turns out not to be positive definite falls
    /// back from Cholesky to LU instead of failing.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::Singular`] when the (LU-factored) system is singular.
    /// * [`Error::NotPositiveDefinite`] when the iterative backend sees a
    ///   non-positive diagonal.
    ///
    /// deterministic
    pub fn factor_dense(&self, a: &Matrix) -> Result<SolverBackend> {
        match self.select_dense(a) {
            kind if kind.is_iterative() => {
                let csr = CsrMatrix::from_dense(a, 0.0);
                self.factor_iterative(&csr)
            }
            BackendKind::DenseCholesky => match Cholesky::factor_with(a, &self.executor) {
                Ok(f) => Ok(SolverBackend::Cholesky(f)),
                Err(Error::NotPositiveDefinite { .. }) => {
                    Ok(SolverBackend::Lu(Lu::factor_with(a, &self.executor)?))
                }
                Err(e) => Err(e),
            },
            _ => Ok(SolverBackend::Lu(Lu::factor_with(a, &self.executor)?)),
        }
    }

    /// Factors a CSR system with the auto-selected backend (densifying
    /// first when the system is small or dense enough for direct methods).
    ///
    /// # Errors
    ///
    /// Same as [`SolverPolicy::factor_dense`].
    /// deterministic
    pub fn factor_sparse(&self, a: &CsrMatrix) -> Result<SolverBackend> {
        match self.select_sparse(a) {
            kind if kind.is_iterative() => self.factor_iterative(a),
            _ => self.factor_dense(&a.to_dense()),
        }
    }

    /// Factors a dense system *known* to be symmetric positive definite
    /// (e.g. the soft criterion's `V + λL`): Cholesky first, LU as a
    /// robustness fallback when rounding pushed a pivot non-positive, the
    /// policy's iterative backend when the system takes the iterative
    /// route (a forced strategy, or large and sparse under `Auto`).
    ///
    /// # Errors
    ///
    /// Same as [`SolverPolicy::factor_dense`].
    /// deterministic
    pub fn factor_spd(&self, a: &Matrix) -> Result<SolverBackend> {
        if self.routes_iterative(a.rows(), a.cols(), || dense_nnz(a)) {
            let csr = CsrMatrix::from_dense(a, 0.0);
            return self.factor_iterative(&csr);
        }
        match Cholesky::factor_with(a, &self.executor) {
            Ok(f) => Ok(SolverBackend::Cholesky(f)),
            Err(Error::NotPositiveDefinite { .. }) => {
                Ok(SolverBackend::Lu(Lu::factor_with(a, &self.executor)?))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_sample(n: usize) -> Matrix {
        // Diagonally dominant symmetric tridiagonal: SPD at every size.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0 + (i as f64) * 0.1
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    fn rhs(n: usize) -> Vector {
        Vector::from_fn(n, |i| ((i as f64) * 0.7).sin() + 0.2)
    }

    #[test]
    fn all_backends_solve_the_same_system() {
        let a = spd_sample(12);
        let b = rhs(12);
        let reference = crate::lu::solve(&a, &b).unwrap();

        let chol = Cholesky::factor(&a).unwrap();
        let lu = Lu::factor(&a).unwrap();
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let cg = PrecondCg::factor_sparse(&csr, CgOptions::default()).unwrap();
        let ic =
            PrecondCg::factor_sparse_with(&csr, PrecondKind::Ic0, CgOptions::default()).unwrap();
        let amg = AmgCg::factor_sparse(&csr, AmgOptions::default()).unwrap();
        for backend in [
            SolverBackend::Cholesky(chol),
            SolverBackend::Lu(lu),
            SolverBackend::Cg(cg),
            SolverBackend::Cg(ic),
            SolverBackend::Amg(amg),
        ] {
            let x = backend.solve(&b).unwrap();
            assert!(
                x.approx_eq(&reference, 1e-8),
                "{:?} disagrees",
                backend.kind()
            );
            assert!(backend.residual(&x, &b).unwrap() < 1e-8);
            assert_eq!(Factorization::dim(&backend), 12);
        }
    }

    #[test]
    fn apply_reconstructs_operator_for_every_backend() {
        // Use an asymmetric matrix for LU to exercise the permutation path.
        let asym =
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, 0.5], &[1.0, -1.0, 4.0]]).unwrap();
        let x = Vector::from(vec![1.0, -2.0, 0.5]);
        let lu = Lu::factor(&asym).unwrap();
        let ax = Factorization::apply(&lu, &x).unwrap();
        assert!(ax.approx_eq(&asym.matvec(&x).unwrap(), 1e-12));

        let spd = spd_sample(5);
        let x5 = rhs(5);
        let chol = Cholesky::factor(&spd).unwrap();
        let ax = Factorization::apply(&chol, &x5).unwrap();
        assert!(ax.approx_eq(&spd.matvec(&x5).unwrap(), 1e-12));

        let cg = PrecondCg::factor_sparse(&CsrMatrix::from_dense(&spd, 0.0), CgOptions::default())
            .unwrap();
        let ax = Factorization::apply(&cg, &x5).unwrap();
        assert!(ax.approx_eq(&spd.matvec(&x5).unwrap(), 1e-14));
    }

    #[test]
    fn solve_matrix_and_inverse_agree_across_backends() {
        let a = spd_sample(6);
        let id = Matrix::identity(6);
        for backend in [
            SolverPolicy::default().factor_dense(&a).unwrap(),
            SolverBackend::Cg(
                PrecondCg::factor_sparse(&CsrMatrix::from_dense(&a, 0.0), CgOptions::default())
                    .unwrap(),
            ),
        ] {
            let inv = backend.inverse().unwrap();
            assert!(a.matmul(&inv).unwrap().approx_eq(&id, 1e-7));
        }
    }

    #[test]
    fn precond_cg_rejects_nonpositive_diagonal() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            PrecondCg::factor_sparse(&CsrMatrix::from_dense(&a, 0.0), CgOptions::default()),
            Err(Error::NotPositiveDefinite { pivot: 1 })
        ));
        let csr = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (1, 1, 1.0)]).unwrap();
        assert!(matches!(
            PrecondCg::factor_sparse(&csr, CgOptions::default()),
            Err(Error::NotPositiveDefinite { pivot: 0 })
        ));
    }

    #[test]
    fn precond_cg_rejects_non_square() {
        assert!(matches!(
            PrecondCg::factor_sparse(
                &CsrMatrix::from_dense(&Matrix::zeros(2, 3), 0.0),
                CgOptions::default()
            ),
            Err(Error::NotSquare { .. })
        ));
        assert!(matches!(
            PrecondCg::factor_sparse(&CsrMatrix::zeros(2, 3), CgOptions::default()),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn report_carries_iteration_diagnostics_for_iterative_backends() {
        let n = 32;
        let a = spd_sample(n);
        let b = rhs(n);
        let cg = PrecondCg::factor_sparse_with(
            &CsrMatrix::from_dense(&a, 0.0),
            PrecondKind::Ic0,
            CgOptions::default(),
        )
        .unwrap();
        // Before any solve the diagnostics are unset.
        assert_eq!(cg.report().iterations, None);
        assert_eq!(cg.report().final_residual, None);
        let _ = cg.solve(&b).unwrap();
        let report = cg.report();
        assert_eq!(report.backend, BackendKind::SparseIcCg);
        // IC(0) is exact on tridiagonal systems: PCG converges immediately.
        assert!(report.iterations.unwrap() <= 2, "{report:?}");
        assert!(report.final_residual.unwrap() < 1e-8);

        // Direct backends never report iteration counts.
        let chol = SolverPolicy::default()
            .factor_dense(&spd_sample(8))
            .unwrap();
        let _ = chol.solve(&rhs(8)).unwrap();
        assert_eq!(chol.report().iterations, None);
    }

    /// 2D grid Laplacian plus anchor on a `side × side` grid: sparse, not
    /// IC-exact.
    fn grid_sample(side: usize) -> Matrix {
        Matrix::from_fn(side * side, side * side, |i, j| {
            let (ri, ci) = (i / side, i % side);
            let (rj, cj) = (j / side, j % side);
            if i == j {
                4.05
            } else if (ri == rj && ci.abs_diff(cj) == 1) || (ci == cj && ri.abs_diff(rj) == 1) {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn ic_pcg_needs_no_more_iterations_than_jacobi_pcg() {
        let side = 16;
        let csr = CsrMatrix::from_dense(&grid_sample(side), 0.0);
        let b = rhs(side * side);
        let jacobi = PrecondCg::factor_sparse(&csr, CgOptions::default()).unwrap();
        let ic =
            PrecondCg::factor_sparse_with(&csr, PrecondKind::Ic0, CgOptions::default()).unwrap();
        let xj = jacobi.solve(&b).unwrap();
        let xi = ic.solve(&b).unwrap();
        assert!(xj.approx_eq(&xi, 1e-6));
        assert!(
            ic.last_iterations().unwrap() <= jacobi.last_iterations().unwrap(),
            "ic={:?} jacobi={:?}",
            ic.last_iterations(),
            jacobi.last_iterations()
        );
    }

    #[test]
    fn policy_picks_cholesky_for_small_or_dense_symmetric() {
        // A 192×192 system past the dimension cutoff, yet denser than the
        // threshold, stays direct like a small one.
        let n = 192;
        let dense = Matrix::from_fn(n, n, |i, j| {
            let d = i.abs_diff(j) as f64;
            (-0.05 * d * d).exp() + if i == j { 1.0 } else { 0.0 }
        });
        let policy = SolverPolicy::default();
        assert!(n >= DIRECT_DIM_CUTOFF);
        assert!(density(dense_nnz(&dense), n, n) > DENSITY_THRESHOLD);
        for a in [spd_sample(10), dense] {
            assert_eq!(policy.select_dense(&a), BackendKind::DenseCholesky);
            let backend = policy.factor_dense(&a).unwrap();
            assert!(matches!(backend, SolverBackend::Cholesky(_)));
            let b = rhs(a.rows());
            let x = backend.solve(&b).unwrap();
            assert!(backend.residual(&x, &b).unwrap() < 1e-8);
        }
    }

    #[test]
    fn policy_picks_lu_for_asymmetric() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]).unwrap();
        let policy = SolverPolicy::default();
        assert_eq!(policy.select_dense(&a), BackendKind::DenseLu);
        assert!(matches!(
            policy.factor_dense(&a).unwrap(),
            SolverBackend::Lu(_)
        ));
    }

    #[test]
    fn policy_picks_ic_pcg_for_large_narrow_band_sparse() {
        let n = 200;
        let a = spd_sample(n); // tridiagonal: density ~ 3/n << 0.25, bandwidth 1
        let policy = SolverPolicy::default();
        assert_eq!(policy.select_dense(&a), BackendKind::SparseIcCg);
        let backend = policy.factor_dense(&a).unwrap();
        assert_eq!(backend.kind(), BackendKind::SparseIcCg);
        let b = rhs(n);
        let x = backend.solve(&b).unwrap();
        assert!(backend.residual(&x, &b).unwrap() < 1e-7);

        let csr = CsrMatrix::from_dense(&a, 0.0);
        assert_eq!(policy.select_sparse(&csr), BackendKind::SparseIcCg);
        let sparse_backend = policy.factor_sparse(&csr).unwrap();
        let xs = sparse_backend.solve(&b).unwrap();
        assert!(xs.approx_eq(&x, 1e-8));
    }

    #[test]
    fn policy_strategy_overrides_route_to_each_backend() {
        // A forced strategy builds its own backend at any size, 2 × 2
        // included, on every entry point.
        for n in [2, 200] {
            let a = spd_sample(n);
            let csr = CsrMatrix::from_dense(&a, 0.0);
            let b = rhs(n);
            let reference = crate::lu::solve(&a, &b).unwrap();
            for (strategy, expected) in [
                (SparseStrategy::Jacobi, BackendKind::SparseCg),
                (SparseStrategy::Ic0, BackendKind::SparseIcCg),
                (SparseStrategy::Amg(AmgOptions::default()), BackendKind::Amg),
            ] {
                let policy = SolverPolicy {
                    sparse: strategy.clone(),
                    ..SolverPolicy::default()
                };
                let kinds = [
                    policy.select_dense(&a),
                    policy.select_sparse(&csr),
                    policy.factor_dense(&a).unwrap().kind(),
                    policy.factor_spd(&a).unwrap().kind(),
                ];
                assert_eq!(kinds, [expected; 4], "{strategy:?}, n = {n}");
                let backend = policy.factor_sparse(&csr).unwrap();
                assert_eq!(backend.kind(), expected, "{strategy:?}, n = {n}");
                let x = backend.solve(&b).unwrap();
                assert!(
                    x.approx_eq(&reference, 1e-7),
                    "{strategy:?} disagrees at n = {n}"
                );
            }
        }
    }

    #[test]
    fn forced_amg_runs_the_policy_cg_options() {
        // A 256-row grid is past the dimension cutoff and sparse, so the
        // policy takes the iterative route; AMG needs more than two CG
        // iterations to reach the default tolerance on it.
        let side = 16;
        let csr = CsrMatrix::from_dense(&grid_sample(side), 0.0);
        let policy = SolverPolicy {
            sparse: SparseStrategy::Amg(AmgOptions::default()),
            cg: CgOptions {
                max_iterations: 2,
                ..CgOptions::default()
            },
            ..SolverPolicy::default()
        };
        let backend = policy.factor_sparse(&csr).unwrap();
        assert_eq!(backend.kind(), BackendKind::Amg);
        assert!(matches!(
            backend.solve(&rhs(side * side)),
            Err(Error::NotConverged { iterations: 2, .. })
        ));
    }

    /// A symmetric `n`-row CSR matrix: diagonal `n`, then `pairs`
    /// mirrored `-0.5` entries filling the bands nearest the diagonal, so
    /// it stores `n + 2 * pairs` entries.
    fn banded_pairs(n: usize, pairs: usize) -> CsrMatrix {
        let mut triplets: Vec<_> = (0..n).map(|i| (i, i, n as f64)).collect();
        let coords = (1..n).flat_map(|d| (0..n - d).map(move |i| (i, i + d)));
        for (i, j) in coords.take(pairs) {
            triplets.extend([(i, j, -0.5), (j, i, -0.5)]);
        }
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    /// A tridiagonal `dim`-row CSR matrix plus one mirrored pair at
    /// distance `band`, so its bandwidth is `band`.
    fn with_bandwidth(dim: usize, band: usize) -> CsrMatrix {
        let mut triplets = vec![(0, band, -0.5), (band, 0, -0.5)];
        for i in 0..dim {
            triplets.push((i, i, 4.0));
            if i + 1 < dim {
                triplets.extend([(i, i + 1, -1.0), (i + 1, i, -1.0)]);
            }
        }
        CsrMatrix::from_triplets(dim, dim, &triplets).unwrap()
    }

    #[test]
    fn routes_flip_exactly_at_each_threshold() {
        use BackendKind::{Amg, DenseCholesky, DenseLu, SparseIcCg};
        let auto = SolverPolicy::default();
        // 2 × 2, with one off-diagonal entry 0 and its mirror `delta`.
        let skewed = |delta: f64| {
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, delta), (1, 1, 2.0)]).unwrap()
        };
        let cases = [
            // DIRECT_DIM_CUTOFF = 128 (tridiagonal).
            ("127 rows", banded_pairs(127, 126), DenseCholesky),
            ("128 rows", banded_pairs(128, 127), SparseIcCg),
            // DENSITY_THRESHOLD = 0.25 at 128 rows: 4096 vs 4098 entries.
            ("density 0.25", banded_pairs(128, 1984), SparseIcCg),
            ("density 0.2501", banded_pairs(128, 1985), DenseCholesky),
            // SYMMETRY_TOLERANCE = 1e-9, absolute.
            ("asymmetry 1e-9", skewed(1e-9), DenseCholesky),
            ("asymmetry 2e-9", skewed(2e-9), DenseLu),
        ];
        for (what, csr, want) in cases {
            assert_eq!(auto.select_sparse(&csr), want, "{what}, CSR");
            assert_eq!(auto.select_dense(&csr.to_dense()), want, "{what}, dense");
        }
        // AMG_DIM_CUTOFF = 4096, AMG_BANDWIDTH_FLOOR = 128 and
        // AMG_LOCALITY_FACTOR = 8, on CSR only: a dense 4096-row copy
        // would take 134 MB, and both routes share `select_iterative`.
        for (dim, band, want) in [
            (4096, 128, Amg),
            (4095, 128, SparseIcCg),
            (4096, 127, SparseIcCg),
            (4096, 512, Amg),
            (4096, 513, SparseIcCg),
        ] {
            let got = auto.select_sparse(&with_bandwidth(dim, band));
            assert_eq!(got, want, "{dim} rows, bandwidth {band}");
        }
    }

    #[test]
    fn ic_breakdown_falls_back_to_jacobi_pcg() {
        // Kershaw's matrix: SPD (leading minors 3, 5, 3, 1) yet IC(0) hits
        // a negative last pivot because the zero pattern drops the fill-in
        // that exact Cholesky would have used.
        let a = Matrix::from_rows(&[
            &[3.0, -2.0, 0.0, 2.0],
            &[-2.0, 3.0, -2.0, 0.0],
            &[0.0, -2.0, 3.0, -2.0],
            &[2.0, 0.0, -2.0, 3.0],
        ])
        .unwrap();
        let csr = CsrMatrix::from_dense(&a, 0.0);
        assert!(matches!(
            PrecondCg::factor_sparse_with(&csr, PrecondKind::Ic0, CgOptions::default()),
            Err(Error::NotPositiveDefinite { .. })
        ));
        let policy = SolverPolicy {
            sparse: SparseStrategy::Ic0,
            ..SolverPolicy::default()
        };
        let backend = policy.factor_sparse(&csr).unwrap();
        // The policy recovered with the always-buildable Jacobi PCG.
        assert_eq!(backend.kind(), BackendKind::SparseCg);
        let b = Vector::from(vec![1.0, 0.5, -0.25, 0.75]);
        let x = backend.solve(&b).unwrap();
        assert!(backend.residual(&x, &b).unwrap() < 1e-8);
    }

    #[test]
    fn policy_densifies_small_sparse_systems() {
        let a = spd_sample(8);
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let policy = SolverPolicy::default();
        assert_eq!(policy.select_sparse(&csr), BackendKind::DenseCholesky);
        let backend = policy.factor_sparse(&csr).unwrap();
        assert!(matches!(backend, SolverBackend::Cholesky(_)));
    }

    #[test]
    fn spd_route_falls_back_to_lu_on_indefinite() {
        // Symmetric but indefinite: Cholesky fails, LU must take over.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let policy = SolverPolicy::default();
        let backend = policy.factor_spd(&a).unwrap();
        assert!(matches!(backend, SolverBackend::Lu(_)));
        let b = Vector::from(vec![1.0, 0.0]);
        let x = backend.solve(&b).unwrap();
        assert!(backend.residual(&x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn policy_with_executor_is_bit_identical_across_worker_counts() {
        // Small dense SPD (Cholesky route) and large sparse (CG route):
        // both must produce byte-for-byte the sequential solution.
        for n in [40, 200] {
            let a = spd_sample(n);
            let b = rhs(n);
            let sequential = SolverPolicy::default()
                .factor_dense(&a)
                .unwrap()
                .solve(&b)
                .unwrap();
            for workers in [1, 2, 4] {
                let policy = SolverPolicy::default().with_executor(Executor::with_workers(workers));
                let backend = policy.factor_dense(&a).unwrap();
                // The executor must not change which backend is selected.
                assert_eq!(backend.kind(), SolverPolicy::default().select_dense(&a));
                let x = backend.solve(&b).unwrap();
                assert_eq!(
                    x.as_slice(),
                    sequential.as_slice(),
                    "n={n} workers={workers} diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn precond_cg_with_executor_matches_sequential_matvec_path() {
        let a = CsrMatrix::from_dense(&spd_sample(64), 0.0);
        let b = rhs(64);
        let sequential = PrecondCg::factor_sparse(&a, CgOptions::default())
            .unwrap()
            .solve(&b)
            .unwrap();
        let parallel = PrecondCg::factor_sparse(&a, CgOptions::default())
            .unwrap()
            .with_executor(Executor::with_workers(3));
        assert_eq!(parallel.executor().workers(), 3);
        assert_eq!(
            parallel.solve(&b).unwrap().as_slice(),
            sequential.as_slice()
        );
    }

    #[test]
    fn report_names_the_backend() {
        let a = spd_sample(4);
        let backend = SolverPolicy::default().factor_dense(&a).unwrap();
        let report = backend.report();
        assert_eq!(report.backend, BackendKind::DenseCholesky);
        assert_eq!(report.dim, 4);
        assert_eq!(report.backend.as_str(), "dense-cholesky");
        assert!(!report.backend.is_iterative());
        assert!(BackendKind::SparseCg.is_iterative());
    }

    #[test]
    fn works_as_trait_object() {
        let a = spd_sample(5);
        let b = rhs(5);
        let boxed: Box<dyn Factorization> = Box::new(Cholesky::factor(&a).unwrap());
        let x = boxed.solve(&b).unwrap();
        assert!(boxed.residual(&x, &b).unwrap() < 1e-10);
    }
}
