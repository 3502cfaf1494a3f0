//! The unified factorization backend layer.
//!
//! Every solver in the workspace — the hard criterion's `D₂₂ − W₂₂`, the
//! soft criterion's `V + λL`, and the serving engine's cached systems —
//! reduces to "factor once, solve many". [`Factorization`] captures that
//! contract behind one object-safe trait, implemented by the dense direct
//! backends ([`Cholesky`], [`Lu`]), by [`PrecondCg`] — a preconditioned
//! conjugate-gradient backend that keeps sparse systems in CSR form and
//! pairs them with a pluggable [`crate::Preconditioner`] (Jacobi,
//! block-Jacobi, or incomplete Cholesky) — and by [`crate::AmgCg`], an
//! algebraic-multigrid V-cycle PCG for the largest graph Laplacians.
//! [`SolverPolicy`] picks among them from size, symmetry, nonzero density,
//! and bandwidth, so callers can stay representation-agnostic.

use crate::amg::{AmgCg, AmgOptions};
use crate::cg::{preconditioned_cg_with, CgOptions};
use crate::cholesky::Cholesky;
use crate::error::{Error, Result};
use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::ops::LinearOperator;
use crate::precond::{Precond, PrecondKind, DEFAULT_BLOCK_DIM};
use crate::sparse::CsrMatrix;
use crate::strict;
use crate::vector::{dot_slices, Vector};
use gssl_runtime::Executor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// Jacobi-preconditioned conjugate gradient over a (usually sparse)
    /// operator; SPD systems too large or too sparse to factor densely.
    SparseCg,
    /// Block-Jacobi-preconditioned CG: dense Cholesky factors of
    /// fixed-width diagonal blocks strengthen the Jacobi scaling.
    SparseBlockJacobiCg,
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
            BackendKind::SparseBlockJacobiCg => "sparse-block-jacobi-cg",
            BackendKind::SparseIcCg => "sparse-ic-cg",
            BackendKind::Amg => "amg",
        }
    }

    /// Whether the backend solves iteratively (no stored dense factor).
    pub fn is_iterative(self) -> bool {
        matches!(
            self,
            BackendKind::SparseCg
                | BackendKind::SparseBlockJacobiCg
                | BackendKind::SparseIcCg
                | BackendKind::Amg
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

/// The system held by the iterative backend: dense or CSR, applied as a
/// [`LinearOperator`] without ever factoring.
#[derive(Debug, Clone)]
pub enum CgSystem {
    /// Dense system matrix.
    Dense(Matrix),
    /// Sparse CSR system matrix.
    Sparse(CsrMatrix),
}

impl LinearOperator for CgSystem {
    fn dim(&self) -> usize {
        match self {
            CgSystem::Dense(a) => a.rows(),
            CgSystem::Sparse(a) => a.rows(),
        }
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        match self {
            CgSystem::Dense(a) => a.apply(x, out),
            CgSystem::Sparse(a) => a.apply(x, out),
        }
    }
}

/// A [`CgSystem`] whose matvec is sharded across an [`Executor`].
///
/// Each output element is one row's dot product, computed by exactly one
/// worker with the same operations as the sequential
/// `LinearOperator::apply` — so CG sees bit-identical iterates regardless
/// of worker count. A sparse system goes through the size-gated
/// `CsrMatrix::matvec_into_with`, so a small one stays on the calling
/// thread.
struct ShardedCgSystem<'a> {
    system: &'a CgSystem,
    executor: &'a Executor,
}

impl LinearOperator for ShardedCgSystem<'_> {
    fn dim(&self) -> usize {
        LinearOperator::dim(self.system)
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let a = match self.system {
            CgSystem::Dense(a) => a,
            CgSystem::Sparse(a) => return a.matvec_into_with(x, out, self.executor),
        };
        let block = out
            .len()
            .div_ceil(self.executor.workers().saturating_mul(4))
            .max(1);
        let sharded = self
            .executor
            .for_each_chunk_mut(out, block, |start, chunk| {
                for (local, o) in chunk.iter_mut().enumerate() {
                    *o = dot_slices(a.row(start + local), x);
                }
            });
        if sharded.is_err() {
            // `LinearOperator::apply` is infallible and the chunk width is
            // always >= 1, so this arm is unreachable in practice; recompute
            // sequentially rather than panic if it ever fires.
            self.system.apply(x, out);
        }
    }
}

/// Preconditioned conjugate-gradient backend.
///
/// "Factoring" validates the system and builds the chosen
/// [`PrecondKind`] (Jacobi diagonal scaling by default, block-Jacobi, or
/// incomplete Cholesky IC(0)); every [`PrecondCg::solve`] call then runs
/// [`preconditioned_cg_with`] against the stored operator. The system must
/// be symmetric positive definite — CG reports [`Error::NotConverged`]
/// otherwise. The most recent solve's iteration count and residual are
/// recorded for [`Factorization::report`].
#[derive(Debug)]
pub struct PrecondCg {
    system: CgSystem,
    precond: Precond,
    options: CgOptions,
    executor: Executor,
    // Last-solve diagnostics, written with SeqCst so concurrent serve
    // readers observe a consistent snapshot; `usize::MAX` / NaN bits mean
    // "no solve recorded yet".
    last_iterations: AtomicUsize,
    last_residual: AtomicU64,
}

impl Clone for PrecondCg {
    fn clone(&self) -> Self {
        PrecondCg {
            system: self.system.clone(),
            precond: self.precond.clone(),
            options: self.options.clone(),
            executor: self.executor.clone(),
            last_iterations: AtomicUsize::new(self.last_iterations.load(Ordering::SeqCst)),
            last_residual: AtomicU64::new(self.last_residual.load(Ordering::SeqCst)),
        }
    }
}

impl PrecondCg {
    /// Builds the iterative backend around a dense system with the
    /// historical Jacobi (diagonal) preconditioner.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] when a diagonal entry is `<= 0` or
    ///   non-finite (an SPD matrix has a strictly positive diagonal).
    pub fn factor_dense(a: &Matrix, options: CgOptions) -> Result<Self> {
        PrecondCg::factor_dense_with(a, PrecondKind::Jacobi, options)
    }

    /// Builds the iterative backend around a dense system with an explicit
    /// preconditioner choice.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NotPositiveDefinite`] when the preconditioner cannot be
    ///   built (non-positive diagonal, indefinite block, IC(0) breakdown).
    pub fn factor_dense_with(a: &Matrix, kind: PrecondKind, options: CgOptions) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        strict::check_finite_matrix("precond_cg.factor input", a)?;
        let precond = match kind {
            // The Jacobi diagonal comes straight off the dense storage —
            // no CSR conversion, and bit-identical to the pre-PR-9 path.
            PrecondKind::Jacobi => Precond::Jacobi(crate::precond::JacobiPrecond::from_diagonal(
                (0..a.rows()).map(|i| a.get(i, i)),
            )?),
            other => Precond::build(&CsrMatrix::from_dense(a, 0.0), &other)?,
        };
        Ok(PrecondCg {
            system: CgSystem::Dense(a.clone()),
            precond,
            options,
            executor: Executor::default(),
            last_iterations: AtomicUsize::new(usize::MAX),
            last_residual: AtomicU64::new(f64::NAN.to_bits()),
        })
    }

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
    ///   built (non-positive diagonal, indefinite block, IC(0) breakdown).
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
            system: CgSystem::Sparse(a.clone()),
            precond,
            options,
            executor: Executor::default(),
            last_iterations: AtomicUsize::new(usize::MAX),
            last_residual: AtomicU64::new(f64::NAN.to_bits()),
        })
    }

    /// Runs every solve's matvecs on `executor` (row-sharded, with output
    /// bit-identical to the sequential backend at any worker count).
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Borrows the stored system operator.
    pub fn system(&self) -> &CgSystem {
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
        let v = self.last_iterations.load(Ordering::SeqCst);
        if v == usize::MAX {
            None
        } else {
            Some(v)
        }
    }

    /// Final residual norm of the most recent solve (`None` before the
    /// first solve).
    pub fn last_residual(&self) -> Option<f64> {
        let v = f64::from_bits(self.last_residual.load(Ordering::SeqCst));
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    fn record(&self, iterations: usize, residual: f64) {
        self.last_iterations.store(iterations, Ordering::SeqCst);
        self.last_residual
            .store(residual.to_bits(), Ordering::SeqCst);
    }
}

impl Factorization for PrecondCg {
    fn dim(&self) -> usize {
        LinearOperator::dim(&self.system)
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        let outcome = if self.executor.is_sequential() {
            preconditioned_cg_with(&self.system, b, &self.precond, &self.options)
        } else {
            let sharded = ShardedCgSystem {
                system: &self.system,
                executor: &self.executor,
            };
            preconditioned_cg_with(&sharded, b, &self.precond, &self.options)
        };
        match outcome {
            Ok(out) => {
                self.record(out.iterations, out.residual_norm);
                Ok(out.solution)
            }
            Err(Error::NotConverged {
                iterations,
                residual,
            }) => {
                // Record the failed attempt too, so serve-side diagnostics
                // can observe a refit that hit its iteration cap.
                self.record(iterations, residual);
                Err(Error::NotConverged {
                    iterations,
                    residual,
                })
            }
            Err(e) => Err(e),
        }
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
        let mut out = vec![0.0; n];
        LinearOperator::apply(&self.system, x.as_slice(), &mut out);
        Ok(Vector::from(out))
    }

    fn kind(&self) -> BackendKind {
        match self.precond {
            Precond::Jacobi(_) => BackendKind::SparseCg,
            Precond::BlockJacobi(_) => BackendKind::SparseBlockJacobiCg,
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

/// Which iterative backend [`SolverPolicy`] builds once a system has been
/// classified as large and sparse.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum SparseStrategy {
    /// Cost-model the system: AMG when it is large
    /// ([`SolverPolicy::amg_dim_cutoff`]) and mesh-like — bandwidth at
    /// least [`SolverPolicy::amg_bandwidth_floor`] but still small
    /// relative to the dimension ([`SolverPolicy::amg_locality_factor`]);
    /// IC(0)-PCG otherwise. Narrow-band systems stay on IC-PCG because
    /// IC(0) discards no fill-in there — it *is* the exact factor — while
    /// AMG's hierarchy only pays off once the bandwidth (and hence the
    /// fill-in a direct or one-level method would suffer) grows with the
    /// problem. When bandwidth ≈ dim the ordering carries no locality at
    /// all (e.g. a kNN graph in spatial-index order), the measure says
    /// nothing about conditioning, and IC-PCG's cheaper iterations are
    /// the robust default.
    #[default]
    Auto,
    /// Always plain Jacobi (diagonal) PCG — the pre-PR-9 behavior.
    Jacobi,
    /// Always block-Jacobi PCG with the given block width.
    BlockJacobi {
        /// Rows per diagonal block.
        block_dim: usize,
    },
    /// Always incomplete-Cholesky IC(0) PCG.
    Ic0,
    /// Always algebraic multigrid with the given hierarchy options (the
    /// outer CG run still uses [`SolverPolicy::cg`] unless overridden
    /// here).
    Amg(AmgOptions),
}

/// Auto-selection policy: dense Cholesky vs dense LU vs the iterative
/// sparse backends, decided from system size, symmetry, nonzero density,
/// and bandwidth.
///
/// The decision rule (see [`SolverPolicy::select_dense`] /
/// [`SolverPolicy::select_sparse`]): systems with at least
/// `direct_dim_cutoff` rows whose density is at or below
/// `density_threshold` go to an iterative CSR backend chosen by
/// [`SparseStrategy`] — by default IC(0)-PCG, escalating to AMG when the
/// system has at least `amg_dim_cutoff` rows *and* a bandwidth that is at
/// least `amg_bandwidth_floor` yet at most `dim / amg_locality_factor`
/// (genuinely multi-dimensional structure in an ordering that still
/// carries locality). Everything else is factored directly — Cholesky
/// when symmetric within `symmetry_tolerance`, LU otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverPolicy {
    /// Systems smaller than this are always factored directly, regardless
    /// of sparsity (direct factorization is cheap at small dimensions).
    pub direct_dim_cutoff: usize,
    /// Fraction of nonzero entries (`nnz / n²`) at or below which a large
    /// system is routed to an iterative sparse backend.
    pub density_threshold: f64,
    /// Absolute entrywise tolerance used to classify a system as symmetric
    /// (and hence Cholesky-eligible).
    pub symmetry_tolerance: f64,
    /// Which iterative backend to build for large sparse systems.
    pub sparse: SparseStrategy,
    /// Under [`SparseStrategy::Auto`], AMG requires at least this many
    /// rows: below it, IC-PCG's lighter setup wins even on wide-band
    /// systems.
    pub amg_dim_cutoff: usize,
    /// Under [`SparseStrategy::Auto`], AMG requires bandwidth (max stored
    /// `|i − j|`) at least this large: narrow bands keep IC(0) exact or
    /// near-exact, so the hierarchy has nothing to add.
    pub amg_bandwidth_floor: usize,
    /// Under [`SparseStrategy::Auto`], AMG additionally requires
    /// `bandwidth * amg_locality_factor <= dim`. A 2-D mesh of n rows has
    /// bandwidth ≈ √n — wide, but far below n. When bandwidth ≈ dim the
    /// row ordering carries no locality (a kNN graph in spatial-index
    /// order hits this), the bandwidth measure says nothing about the
    /// graph, and such systems in this repo are anchored and
    /// well-conditioned — IC-PCG's cheaper iterations win there.
    pub amg_locality_factor: usize,
    /// Options for the iterative backends' CG runs.
    pub cg: CgOptions,
    /// Executor every selected backend factors (and, for CG, solves) on.
    /// Sequential by default; parallel executors leave results bit-identical.
    pub executor: Executor,
}

impl Default for SolverPolicy {
    fn default() -> Self {
        SolverPolicy {
            direct_dim_cutoff: 128,
            density_threshold: 0.25,
            symmetry_tolerance: 1e-9,
            sparse: SparseStrategy::Auto,
            amg_dim_cutoff: 4096,
            amg_bandwidth_floor: 128,
            amg_locality_factor: 8,
            cg: CgOptions::default(),
            executor: Executor::default(),
        }
    }
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

    /// Which iterative backend the [`SparseStrategy`] yields for a system
    /// of `dim` rows with the given bandwidth.
    fn select_iterative(&self, dim: usize, bandwidth: usize) -> BackendKind {
        match &self.sparse {
            SparseStrategy::Auto => {
                if dim >= self.amg_dim_cutoff
                    && bandwidth >= self.amg_bandwidth_floor
                    && bandwidth.saturating_mul(self.amg_locality_factor) <= dim
                {
                    BackendKind::Amg
                } else {
                    BackendKind::SparseIcCg
                }
            }
            SparseStrategy::Jacobi => BackendKind::SparseCg,
            SparseStrategy::BlockJacobi { .. } => BackendKind::SparseBlockJacobiCg,
            SparseStrategy::Ic0 => BackendKind::SparseIcCg,
            SparseStrategy::Amg(_) => BackendKind::Amg,
        }
    }

    /// Which backend [`SolverPolicy::factor_dense`] would pick for `a`.
    ///
    /// A breakdown-driven fallback (IC(0) → Jacobi, Cholesky → LU) can
    /// still land on a different backend at factor time.
    pub fn select_dense(&self, a: &Matrix) -> BackendKind {
        if a.rows() >= self.direct_dim_cutoff
            && density(dense_nnz(a), a.rows(), a.cols()) <= self.density_threshold
        {
            return self.select_iterative(a.rows(), dense_bandwidth(a));
        }
        if a.is_symmetric(self.symmetry_tolerance) {
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
        if a.rows() >= self.direct_dim_cutoff
            && density(a.nnz(), a.rows(), a.cols()) <= self.density_threshold
        {
            return self.select_iterative(a.rows(), a.bandwidth());
        }
        if a.is_symmetric(self.symmetry_tolerance) {
            BackendKind::DenseCholesky
        } else {
            BackendKind::DenseLu
        }
    }

    /// Builds the iterative backend [`SolverPolicy::select_iterative`]
    /// picked for a CSR system.
    ///
    /// IC(0) and block-Jacobi can break down on SPD systems that are far
    /// from diagonally dominant even though the exact factorization
    /// exists; in that case the policy falls back to the always-buildable
    /// Jacobi preconditioner instead of failing the solve. The fallback
    /// depends only on the matrix values, never on timing or thread count.
    fn factor_iterative(&self, a: &CsrMatrix) -> Result<SolverBackend> {
        match self.select_iterative(a.rows(), a.bandwidth()) {
            BackendKind::Amg => {
                let options = match &self.sparse {
                    SparseStrategy::Amg(options) => options.clone(),
                    _ => AmgOptions {
                        cg: self.cg.clone(),
                        ..AmgOptions::default()
                    },
                };
                Ok(SolverBackend::Amg(
                    AmgCg::factor_sparse(a, options)?.with_executor(self.executor.clone()),
                ))
            }
            kind => {
                let precond_kind = match (&kind, &self.sparse) {
                    (BackendKind::SparseCg, _) => PrecondKind::Jacobi,
                    (
                        BackendKind::SparseBlockJacobiCg,
                        SparseStrategy::BlockJacobi { block_dim },
                    ) => PrecondKind::BlockJacobi {
                        block_dim: *block_dim,
                    },
                    (BackendKind::SparseBlockJacobiCg, _) => PrecondKind::BlockJacobi {
                        block_dim: DEFAULT_BLOCK_DIM,
                    },
                    _ => PrecondKind::Ic0,
                };
                let jacobi = matches!(precond_kind, PrecondKind::Jacobi);
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
    /// robustness fallback when rounding pushed a pivot non-positive, CG
    /// when the system qualifies as large and sparse.
    ///
    /// # Errors
    ///
    /// Same as [`SolverPolicy::factor_dense`].
    /// deterministic
    pub fn factor_spd(&self, a: &Matrix) -> Result<SolverBackend> {
        if a.rows() >= self.direct_dim_cutoff
            && density(dense_nnz(a), a.rows(), a.cols()) <= self.density_threshold
        {
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
        let cg = PrecondCg::factor_dense(&a, CgOptions::default()).unwrap();
        let ic = PrecondCg::factor_dense_with(&a, PrecondKind::Ic0, CgOptions::default()).unwrap();
        let block = PrecondCg::factor_dense_with(
            &a,
            PrecondKind::BlockJacobi { block_dim: 4 },
            CgOptions::default(),
        )
        .unwrap();
        let amg =
            AmgCg::factor_sparse(&CsrMatrix::from_dense(&a, 0.0), AmgOptions::default()).unwrap();
        for backend in [
            SolverBackend::Cholesky(chol),
            SolverBackend::Lu(lu),
            SolverBackend::Cg(cg),
            SolverBackend::Cg(ic),
            SolverBackend::Cg(block),
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

        let cg = PrecondCg::factor_dense(&spd, CgOptions::default()).unwrap();
        let ax = Factorization::apply(&cg, &x5).unwrap();
        assert!(ax.approx_eq(&spd.matvec(&x5).unwrap(), 1e-14));
    }

    #[test]
    fn solve_matrix_and_inverse_agree_across_backends() {
        let a = spd_sample(6);
        let id = Matrix::identity(6);
        for backend in [
            SolverPolicy::default().factor_dense(&a).unwrap(),
            SolverBackend::Cg(PrecondCg::factor_dense(&a, CgOptions::default()).unwrap()),
        ] {
            let inv = backend.inverse().unwrap();
            assert!(a.matmul(&inv).unwrap().approx_eq(&id, 1e-7));
        }
    }

    #[test]
    fn precond_cg_rejects_nonpositive_diagonal() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            PrecondCg::factor_dense(&a, CgOptions::default()),
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
            PrecondCg::factor_dense(&Matrix::zeros(2, 3), CgOptions::default()),
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
        let cg = PrecondCg::factor_dense_with(&a, PrecondKind::Ic0, CgOptions::default()).unwrap();
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

    #[test]
    fn ic_pcg_needs_no_more_iterations_than_jacobi_pcg() {
        // 2D grid Laplacian plus anchor: sparse, not IC-exact.
        let side = 16;
        let dense = Matrix::from_fn(side * side, side * side, |i, j| {
            let (ri, ci) = (i / side, i % side);
            let (rj, cj) = (j / side, j % side);
            if i == j {
                4.05
            } else if (ri == rj && ci.abs_diff(cj) == 1) || (ci == cj && ri.abs_diff(rj) == 1) {
                -1.0
            } else {
                0.0
            }
        });
        let b = rhs(side * side);
        let jacobi = PrecondCg::factor_dense(&dense, CgOptions::default()).unwrap();
        let ic =
            PrecondCg::factor_dense_with(&dense, PrecondKind::Ic0, CgOptions::default()).unwrap();
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
        assert!(n >= policy.direct_dim_cutoff);
        assert!(density(dense_nnz(&dense), n, n) > policy.density_threshold);
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
        let n = 200;
        let a = spd_sample(n);
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let b = rhs(n);
        let reference = SolverPolicy::default()
            .factor_sparse(&csr)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (strategy, expected) in [
            (SparseStrategy::Jacobi, BackendKind::SparseCg),
            (
                SparseStrategy::BlockJacobi { block_dim: 16 },
                BackendKind::SparseBlockJacobiCg,
            ),
            (SparseStrategy::Ic0, BackendKind::SparseIcCg),
            (SparseStrategy::Amg(AmgOptions::default()), BackendKind::Amg),
        ] {
            let policy = SolverPolicy {
                sparse: strategy.clone(),
                ..SolverPolicy::default()
            };
            assert_eq!(policy.select_sparse(&csr), expected, "{strategy:?}");
            let backend = policy.factor_sparse(&csr).unwrap();
            assert_eq!(backend.kind(), expected, "{strategy:?}");
            let x = backend.solve(&b).unwrap();
            assert!(x.approx_eq(&reference, 1e-7), "{strategy:?} disagrees");
        }
    }

    #[test]
    fn auto_policy_prefers_amg_for_large_mesh_like_systems() {
        let policy = SolverPolicy::default();
        // Narrow band stays on IC-PCG regardless of size.
        assert_eq!(policy.select_iterative(1 << 20, 1), BackendKind::SparseIcCg);
        // Large dimension alone is not enough.
        assert_eq!(
            policy.select_iterative(policy.amg_dim_cutoff, policy.amg_bandwidth_floor - 1),
            BackendKind::SparseIcCg
        );
        // Wide band alone is not enough.
        assert_eq!(
            policy.select_iterative(policy.amg_dim_cutoff - 1, 1 << 20),
            BackendKind::SparseIcCg
        );
        // Bandwidth ≈ dim means the ordering carries no locality (kNN
        // graphs in index order): the bandwidth signal is uninformative
        // and the robust IC-PCG default applies.
        let dim = 1 << 20;
        assert_eq!(
            policy.select_iterative(dim, dim - 1),
            BackendKind::SparseIcCg
        );
        assert_eq!(
            policy.select_iterative(dim, dim / policy.amg_locality_factor + 1),
            BackendKind::SparseIcCg
        );
        // Mesh-like: large, wide-band, and local — a 2-D grid of n rows
        // has bandwidth √n, far below the locality ceiling.
        assert_eq!(
            policy.select_iterative(dim, dim / policy.amg_locality_factor),
            BackendKind::Amg
        );
        assert_eq!(
            policy.select_iterative(policy.amg_dim_cutoff * 4, policy.amg_bandwidth_floor),
            BackendKind::Amg
        );
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
            direct_dim_cutoff: 0,
            density_threshold: 1.0,
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
        let a = spd_sample(64);
        let b = rhs(64);
        let sequential = PrecondCg::factor_dense(&a, CgOptions::default())
            .unwrap()
            .solve(&b)
            .unwrap();
        let parallel = PrecondCg::factor_dense(&a, CgOptions::default())
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
