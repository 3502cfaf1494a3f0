//! Algebraic multigrid over CSR graph Laplacians.
//!
//! The hard/soft criteria of the paper solve systems in kNN-graph
//! Laplacians whose condition number grows with graph diameter — exactly
//! the regime where one-level preconditioners such as Jacobi degrade.
//! [`AmgCg`] is the solver policy's iterative route. It builds a
//! *geometry-free* multigrid hierarchy from the matrix alone:
//!
//! 1. **Coarsening** — double pairwise aggregation (Notay, ETNA 2010).
//!    One pass is greedy heavy-edge matching in row order: each unmatched
//!    vertex pairs with its heaviest (largest `|a_ij|`) unmatched
//!    neighbor; union-find merges the pairs and aggregate ids are assigned
//!    in first-seen order. Each coarsening step runs two passes, on the
//!    level and then on that level's Galerkin product, and composes the
//!    two maps, so an aggregate holds about four rows and the ratio per
//!    level is near ¼. The result is independent of thread count and
//!    identical on every run.
//! 2. **Galerkin coarse operators** — with the piecewise-constant
//!    prolongation `P` (each fine vertex injects into its aggregate), the
//!    coarse matrix is the triple product `Aᶜ = Pᵀ A P`, built by coarse
//!    row: row `I` sums the fine rows of aggregate `I` in increasing fine
//!    id into a dense accumulator, and is written at its exact size. Rows
//!    are sharded across the executor in one block per worker once the
//!    fine matrix stores `PARALLEL_MIN_NNZ` entries. The result is
//!    bitwise the fine entries `(agg[i], agg[j], a_ij)` streamed in fine
//!    row order through [`CsrMatrix::from_entries`]. A step's coarse
//!    operator is the product of its second pass, taken over the first
//!    pass's product.
//! 3. **K-cycle** (Notay & Vassilevski, NLAA 2008) — damped-Jacobi
//!    pre/post smoothing (simultaneous update, `x ← x + ω D⁻¹ (r − A x)`),
//!    restriction of the residual, a coarse correction, prolongation,
//!    and a dense direct solve on the coarsest level. The coarse
//!    correction is up to two flexible-CG steps on the coarse system, each
//!    preconditioned by the coarse level's own K-cycle; the second step is
//!    skipped when the first already cuts the coarse residual to a
//!    quarter. When the next level is the directly factored one, the
//!    correction is that exact solve alone, which Krylov steps could not
//!    improve.
//!
//! The Krylov steps make the cycle a nonlinear operator, so
//! [`AmgCg::solve`] runs the flexible CG loop (FCG(1)) preconditioned by
//! one K-cycle per iteration. The coarse steps keep the iteration count
//! from growing with the mesh, and the ¼ ratio keeps a cycle's cost a
//! bounded multiple of the finest level's although each coarse level
//! runs up to twice per cycle above it.
//!
//! The solve does no work it can skip:
//!
//! * **Size-gated sharding.** The outer CG matvec and every level's matvec
//!   go through `CsrMatrix::matvec_into_with`: a matrix storing at least
//!   `PARALLEL_MIN_NNZ` entries is row-sharded across the stored executor
//!   with the same fixed chunk claims as every other backend, and a
//!   smaller one runs on the calling thread. Either way each row is one
//!   kernel call, so parallel solves are bit-identical to sequential ones.
//! * **No `A·0` sweep.** Each cycle starts from `x = 0`. When every stored
//!   entry is finite, `A·0` is `+0.0` in every row, so the first
//!   pre-smoothing sweep runs without its matvec (finiteness is checked at
//!   factor time under `strict-checks`).
//! * **Per-solve buffers.** Each solve allocates every level's scratch
//!   vectors once and reuses them in every cycle; they live in the
//!   preconditioner that solve builds, so concurrent `&self` solves share
//!   nothing mutable.

use crate::cg::{preconditioned_cg_with, CgOptions, CsrOnExecutor, LastSolve};
use crate::cholesky::Cholesky;
use crate::error::{Error, Result};
use crate::factor::{BackendKind, FactorReport, Factorization};
use crate::float::is_exactly_zero;
use crate::lu::Lu;
use crate::precond::{JacobiPrecond, Preconditioner};
use crate::sparse::{widen, CsrMatrix, PARALLEL_MIN_NNZ};
use crate::strict;
use crate::vector::{dot_slices, Vector};
use gssl_runtime::Executor;
use std::borrow::Cow;
use std::cell::RefCell;

/// A coarse level takes its second Krylov step only when the first leaves
/// more than this fraction of the coarse residual norm (Notay's value).
const KCYCLE_EXIT: f64 = 0.25;

/// Options controlling hierarchy construction and the outer PCG run.
#[derive(Debug, Clone, PartialEq)]
pub struct AmgOptions {
    /// Maximum number of coarsening steps (hierarchy depth bound); each
    /// step runs two matching passes.
    pub max_levels: usize,
    /// Stop coarsening once a level has at most this many rows; that level
    /// is densified and factored directly.
    pub coarsest_dim: usize,
    /// Damped-Jacobi sweeps before *and* after each coarse correction.
    pub smoothing_sweeps: usize,
    /// Jacobi damping factor `ω` in `(0, 1]`.
    pub damping: f64,
    /// A matching pass is stalled when it retains more than this fraction
    /// of its rows. A stalled first pass stops coarsening; a stalled
    /// second pass leaves the step with the first pass alone. One pass
    /// halves a well-connected graph, so a stalled pass means the level
    /// has (almost) no off-diagonal mass left to aggregate.
    pub min_coarsening_ratio: f64,
    /// Options for the outer K-cycle-preconditioned CG run of
    /// [`AmgCg::factor_sparse`]. A [`crate::SolverPolicy`] replaces them
    /// with its own [`crate::SolverPolicy::cg`].
    pub cg: CgOptions,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions {
            max_levels: 16,
            coarsest_dim: 64,
            smoothing_sweeps: 1,
            damping: 0.6,
            min_coarsening_ratio: 0.9,
            cg: CgOptions::default(),
        }
    }
}

/// One level of the hierarchy: the operator, its smoother diagonal, and
/// the aggregate map onto the next (coarser) level.
#[derive(Debug, Clone)]
struct Grid {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    /// `agg[i]` is the coarse index fine row `i` aggregates into.
    agg: Vec<usize>,
}

/// Direct factorization of the densified coarsest level.
#[derive(Debug, Clone)]
enum CoarseSolve {
    Cholesky(Cholesky),
    Lu(Lu),
}

impl CoarseSolve {
    fn dim(&self) -> usize {
        match self {
            CoarseSolve::Cholesky(f) => f.dim(),
            CoarseSolve::Lu(f) => f.dim(),
        }
    }

    fn solve_into(&self, r: &[f64], out: &mut [f64]) -> Result<()> {
        let rhs = Vector::from(r);
        let x = match self {
            CoarseSolve::Cholesky(f) => f.solve(&rhs)?,
            CoarseSolve::Lu(f) => f.solve(&rhs)?,
        };
        out.copy_from_slice(x.as_slice());
        Ok(())
    }
}

/// Algebraic-multigrid [`Factorization`] backend: flexible conjugate
/// gradient preconditioned by a K-cycle over a double-pairwise Galerkin
/// hierarchy.
#[derive(Debug, Clone)]
pub struct AmgCg {
    /// `grids[0]` holds the finest operator; the coarsest matrix lives in
    /// `coarse_a` / `coarse` (so a system already at or below
    /// `coarsest_dim` has no grids at all and solves directly).
    grids: Vec<Grid>,
    coarse_a: CsrMatrix,
    coarse: CoarseSolve,
    options: AmgOptions,
    executor: Executor,
    last: LastSolve,
}

impl AmgCg {
    /// Builds the multigrid hierarchy for an SPD CSR system on the calling
    /// thread: [`AmgCg::factor_sparse_with`] on the sequential executor.
    ///
    /// # Errors
    ///
    /// Same as [`AmgCg::factor_sparse_with`].
    ///
    /// deterministic
    pub fn factor_sparse<'a>(
        a: impl Into<Cow<'a, CsrMatrix>>,
        options: AmgOptions,
    ) -> Result<Self> {
        AmgCg::factor_sparse_with(a, options, &Executor::Sequential)
    }

    /// Builds the multigrid hierarchy for an SPD CSR system, its Galerkin
    /// products sharded across `executor`, and keeps `executor` for the
    /// matvecs of every solve. The hierarchy and every solve are
    /// bit-identical at any worker count.
    ///
    /// Coarsening stops at `coarsest_dim` rows, after `max_levels` steps,
    /// or when a step's first pass stalls (see
    /// [`AmgOptions::min_coarsening_ratio`]);
    /// whatever level remains is densified and factored directly
    /// (Cholesky, falling back to LU if rounding spoiled definiteness).
    ///
    /// The hierarchy's finest level is the system itself: pass it by value
    /// to move it in, or by reference to have it copied once.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square.
    /// * [`Error::NonFiniteValue`] under `strict-checks` when a stored value
    ///   is non-finite (the index is the stored-entry position).
    /// * [`Error::InvalidArgument`] when an option is out of range.
    /// * [`Error::NotPositiveDefinite`] when a level's diagonal has a
    ///   non-positive entry (the damped-Jacobi smoother needs `D > 0`).
    /// * [`Error::Singular`] when the coarsest system cannot be factored.
    ///
    /// deterministic
    pub fn factor_sparse_with<'a>(
        a: impl Into<Cow<'a, CsrMatrix>>,
        options: AmgOptions,
        executor: &Executor,
    ) -> Result<Self> {
        let a = a.into();
        if a.rows() != a.cols() {
            return Err(Error::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        strict::check_finite("amg.factor input", a.values())?;
        validate_options(&options)?;

        let stalled = |coarse_n: usize, n: usize| {
            (coarse_n as f64) > options.min_coarsening_ratio * (n as f64)
        };
        let mut grids = Vec::with_capacity(options.max_levels);
        let mut current = a.into_owned();
        while current.rows() > options.coarsest_dim && grids.len() < options.max_levels {
            let inv_diag = JacobiPrecond::from_csr(&current)?.into_inv_diag();
            let (mut agg, first_n) = heavy_edge_aggregates(&current);
            if stalled(first_n, current.rows()) {
                break;
            }
            let mut coarse = galerkin(&current, &agg, first_n, executor);
            let (second, second_n) = heavy_edge_aggregates(&coarse);
            if !stalled(second_n, first_n) {
                coarse = galerkin(&coarse, &second, second_n, executor);
                for g in agg.iter_mut() {
                    *g = second[*g];
                }
            }
            grids.push(Grid {
                a: current,
                inv_diag,
                agg,
            });
            current = coarse;
        }

        let dense = current.to_dense();
        let coarse = match Cholesky::factor(&dense) {
            Ok(f) => CoarseSolve::Cholesky(f),
            Err(Error::NotPositiveDefinite { .. }) => CoarseSolve::Lu(Lu::factor(&dense)?),
            Err(e) => return Err(e),
        };
        Ok(AmgCg {
            grids,
            coarse_a: current,
            coarse,
            options,
            executor: executor.clone(),
            last: LastSolve::new(),
        })
    }

    /// Number of levels in the hierarchy, counting the directly-factored
    /// coarsest one.
    pub fn levels(&self) -> usize {
        self.grids.len() + 1
    }

    /// Dimension of the directly-factored coarsest level.
    pub fn coarse_dim(&self) -> usize {
        self.coarse.dim()
    }

    /// The options the hierarchy was built with.
    pub fn options(&self) -> &AmgOptions {
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

    fn finest(&self) -> &CsrMatrix {
        self.grids.first().map(|g| &g.a).unwrap_or(&self.coarse_a)
    }

    /// One K-cycle: `x ≈ A⁻¹ r` starting from `x = 0` at level `depth`;
    /// `buffers` holds the scratch of grid `depth` and of every coarser grid.
    ///
    /// Restriction, prolongation, smoothing updates and the coarse steps'
    /// dot products are sequential (only matvecs shard), so the cycle is
    /// bit-identical at every worker count. Every entry of `x` is
    /// overwritten, so `x` needs no zeroing.
    /// complexity: O(iters * nnz)
    fn kcycle(&self, depth: usize, r: &[f64], x: &mut [f64], buffers: &mut [LevelBuffers]) {
        let (Some(grid), Some((level, coarser))) =
            (self.grids.get(depth), buffers.split_first_mut())
        else {
            if self.coarse.solve_into(r, x).is_err() {
                // Unreachable: dims match by construction and the factors
                // were validated at build time. Fall back to the identity
                // correction instead of panicking.
                x.copy_from_slice(r);
            }
            return;
        };
        self.presmooth(grid, r, x, &mut level.tmp);
        // Coarse-grid correction: restrict the residual (Pᵀ is "sum over
        // the aggregate"), correct, prolong (P is "copy to every member").
        grid.a.matvec_into_with(x, &mut level.tmp, &self.executor);
        level.rc.fill(0.0);
        for ((ri, ti), &aggi) in r.iter().zip(&level.tmp).zip(&grid.agg) {
            level.rc[aggi] += ri - ti;
        }
        match self.grids.get(depth + 1) {
            Some(next) => self.coarse_krylov(depth + 1, &next.a, level, coarser),
            None => self.kcycle(depth + 1, &level.rc, &mut level.xc, coarser),
        }
        for (xi, &aggi) in x.iter_mut().zip(&grid.agg) {
            *xi += level.xc[aggi];
        }
        for _ in 0..self.options.smoothing_sweeps {
            self.smooth(grid, r, x, &mut level.tmp);
        }
    }

    /// Up to two flexible-CG steps on the coarse system `a_c x_c = r_c`
    /// from `x_c = 0`, each preconditioned by the K-cycle of level `depth`
    /// (`a_c`'s level), leaving `x_c` in `level.xc`. The second step runs
    /// only when the first leaves more than `KCYCLE_EXIT` of `‖r_c‖`. A
    /// step whose curvature is not positive is not taken: without the
    /// first, `x_c` is the unscaled cycle output; without the second, it
    /// is the one-step correction.
    /// complexity: O(iters * nnz)
    fn coarse_krylov(
        &self,
        depth: usize,
        a_c: &CsrMatrix,
        level: &mut LevelBuffers,
        coarser: &mut [LevelBuffers],
    ) {
        let LevelBuffers {
            rc,
            xc: c1,
            v1,
            rt,
            c2,
            v2,
            ..
        } = level;
        self.kcycle(depth, rc, c1, coarser);
        a_c.matvec_into_with(c1, v1, &self.executor);
        let rho1 = dot_slices(c1, v1);
        if !(rho1 > 0.0) {
            return;
        }
        let alpha1 = dot_slices(c1, rc);
        let step1 = alpha1 / rho1;
        for ((ti, ri), vi) in rt.iter_mut().zip(rc.iter()).zip(v1.iter()) {
            *ti = ri - step1 * vi;
        }
        if dot_slices(rt, rt).sqrt() > KCYCLE_EXIT * dot_slices(rc, rc).sqrt() {
            self.kcycle(depth, rt, c2, coarser);
            a_c.matvec_into_with(c2, v2, &self.executor);
            let gamma = dot_slices(c2, v1);
            let beta = dot_slices(c2, v2);
            let alpha2 = dot_slices(c2, rt);
            let rho2 = beta - gamma * gamma / rho1;
            if rho2 > 0.0 {
                let first = step1 - gamma * alpha2 / (rho1 * rho2);
                let second = alpha2 / rho2;
                for (xi, ci) in c1.iter_mut().zip(c2.iter()) {
                    *xi = first * *xi + second * ci;
                }
                return;
            }
        }
        for xi in c1.iter_mut() {
            *xi *= step1;
        }
    }

    /// Pre-smoothing from `x = 0`: `smoothing_sweeps` damped-Jacobi sweeps,
    /// writing every entry of `x`.
    ///
    /// The first sweep runs without a matvec. When every stored entry is
    /// finite, `A·0` is `+0.0` in every row (`0.0 + v·0.0` stays `+0.0`),
    /// so `r − A·0` is `r` and the sweep is `x_i = 0.0 + ω d_i r_i`. The
    /// `0.0 +` turns a `−0.0` product into `+0.0`, exactly as `x_i += …`
    /// on a zeroed `x` does, so `x` is bitwise the full sweep's.
    /// complexity: O(iters * nnz)
    fn presmooth(&self, grid: &Grid, r: &[f64], x: &mut [f64], tmp: &mut [f64]) {
        let damping = self.options.damping;
        for ((xi, ri), di) in x.iter_mut().zip(r).zip(&grid.inv_diag) {
            *xi = 0.0 + damping * di * ri;
        }
        for _ in 1..self.options.smoothing_sweeps {
            self.smooth(grid, r, x, tmp);
        }
    }

    /// One damped-Jacobi sweep, `x ← x + ω D⁻¹ (r − A x)` with a
    /// simultaneous update; `tmp` receives `A x`.
    /// complexity: O(nnz)
    fn smooth(&self, grid: &Grid, r: &[f64], x: &mut [f64], tmp: &mut [f64]) {
        grid.a.matvec_into_with(x, tmp, &self.executor);
        let damping = self.options.damping;
        for ((xi, ri), (ti, di)) in x.iter_mut().zip(r).zip(tmp.iter().zip(&grid.inv_diag)) {
            *xi += damping * di * (ri - ti);
        }
    }
}

/// Scratch vectors of one grid level, allocated once per solve. Every
/// vector but `tmp` lives on the next coarser level.
struct LevelBuffers {
    /// `A x` on this level.
    tmp: Vec<f64>,
    /// The restricted residual `r_c`.
    rc: Vec<f64>,
    /// The coarse correction `x_c`; during the Krylov steps, `c₁` first.
    xc: Vec<f64>,
    /// `v₁ = A_c c₁`.
    v1: Vec<f64>,
    /// `r̃ = r_c − (α₁/ρ₁) v₁`, the residual after the first step.
    rt: Vec<f64>,
    /// `c₂`, the cycle applied to `r̃`.
    c2: Vec<f64>,
    /// `v₂ = A_c c₂`.
    v2: Vec<f64>,
}

/// The K-cycle viewed as a PCG preconditioner (`z = Kcycle(r)`). Each
/// solve builds its own, so the level buffers live for one solve and
/// concurrent solves on one [`AmgCg`] never share them.
struct KCyclePrecond<'a> {
    amg: &'a AmgCg,
    buffers: RefCell<Vec<LevelBuffers>>,
}

impl<'a> KCyclePrecond<'a> {
    fn new(amg: &'a AmgCg) -> Self {
        let coarser_rows = amg
            .grids
            .iter()
            .skip(1)
            .map(|g| g.a.rows())
            .chain(std::iter::once(amg.coarse.dim()));
        let buffers = amg
            .grids
            .iter()
            .zip(coarser_rows)
            .map(|(grid, coarse_n)| LevelBuffers {
                tmp: vec![0.0; grid.a.rows()],
                rc: vec![0.0; coarse_n],
                xc: vec![0.0; coarse_n],
                v1: vec![0.0; coarse_n],
                rt: vec![0.0; coarse_n],
                c2: vec![0.0; coarse_n],
                v2: vec![0.0; coarse_n],
            })
            .collect();
        KCyclePrecond {
            amg,
            buffers: RefCell::new(buffers),
        }
    }
}

impl Preconditioner for KCyclePrecond<'_> {
    fn dim(&self) -> usize {
        self.amg.finest().rows()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.amg.kcycle(0, r, z, &mut self.buffers.borrow_mut());
    }
}

impl Factorization for AmgCg {
    fn dim(&self) -> usize {
        self.finest().rows()
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        let precond = KCyclePrecond::new(self);
        let op = CsrOnExecutor {
            matrix: self.finest(),
            executor: &self.executor,
        };
        self.last
            .record(preconditioned_cg_with(&op, b, &precond, &self.options.cg))
    }

    /// Applies the stored finest operator exactly.
    /// shape: (x.len,)
    fn apply(&self, x: &Vector) -> Result<Vector> {
        let n = Factorization::dim(self);
        if x.len() != n {
            return Err(Error::DimensionMismatch {
                operation: "amg apply",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        Ok(Vector::from(self.finest().matvec(x.as_slice())))
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Amg
    }

    fn report(&self) -> FactorReport {
        FactorReport {
            backend: BackendKind::Amg,
            dim: Factorization::dim(self),
            iterations: self.last_iterations(),
            final_residual: self.last_residual(),
        }
    }
}

fn validate_options(options: &AmgOptions) -> Result<()> {
    if !(options.damping > 0.0 && options.damping <= 1.0) {
        return Err(Error::InvalidArgument {
            message: format!("AMG damping must be in (0, 1], got {}", options.damping),
        });
    }
    if options.smoothing_sweeps == 0 {
        return Err(Error::InvalidArgument {
            message: "AMG needs at least one smoothing sweep".to_owned(),
        });
    }
    if options.coarsest_dim == 0 || options.max_levels == 0 {
        return Err(Error::InvalidArgument {
            message: "AMG coarsest_dim and max_levels must be >= 1".to_owned(),
        });
    }
    if !(options.min_coarsening_ratio > 0.0 && options.min_coarsening_ratio <= 1.0) {
        return Err(Error::InvalidArgument {
            message: format!(
                "AMG min_coarsening_ratio must be in (0, 1], got {}",
                options.min_coarsening_ratio
            ),
        });
    }
    Ok(())
}

/// Minimal union-find with path halving; roots are the smallest member of
/// each set, so id assignment below follows row order (same idiom as the
/// connected-components pass in gssl-graph).
struct MatchForest {
    parent: Vec<usize>,
}

impl MatchForest {
    fn new(n: usize) -> Self {
        MatchForest {
            parent: (0..n).collect(),
        }
    }

    fn root(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn merge(&mut self, a: usize, b: usize) {
        let ra = self.root(a);
        let rb = self.root(b);
        if ra != rb {
            // Smaller index wins the root: deterministic and row-ordered.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Greedy heavy-edge matching with leftover absorption: each unmatched
/// row pairs with its heaviest unmatched neighbor (strictly greater
/// `|a_ij|` wins; the first neighbor in CSR order wins ties), visited in
/// row order; rows left unmatched because every neighbor paired earlier
/// are then absorbed into their heaviest neighbor's aggregate in a
/// second row-order sweep, so the coarsening ratio stays near ½ instead
/// of stalling — a stalled level would be densified and factored
/// directly, which is exactly the blow-up the hierarchy exists to avoid.
/// Returns the aggregate map and the number of aggregates. Zero-weight
/// stored entries never match or absorb, so isolated vertices become
/// singleton aggregates.
/// complexity: O(nnz)
fn heavy_edge_aggregates(a: &CsrMatrix) -> (Vec<usize>, usize) {
    let n = a.rows();
    let mut uf = MatchForest::new(n);
    let mut matched = vec![false; n];
    for i in 0..n {
        if matched[i] {
            continue;
        }
        let mut best: Option<usize> = None;
        let mut best_weight = 0.0f64;
        for (j, v) in a.row_iter(i) {
            if j == i || matched[j] {
                continue;
            }
            let w = v.abs();
            if w > best_weight {
                best_weight = w;
                best = Some(j);
            }
        }
        if let Some(j) = best {
            matched[i] = true;
            matched[j] = true;
            uf.merge(i, j);
        }
    }
    // Absorption sweep: vertices whose neighbors all matched before
    // their turn join their heaviest neighbor's pair. Deterministic row
    // order; chains cannot form because only still-unmatched vertices
    // move and they attach to vertices matched in the first sweep.
    for i in 0..n {
        if matched[i] {
            continue;
        }
        let mut best: Option<usize> = None;
        let mut best_weight = 0.0f64;
        for (j, v) in a.row_iter(i) {
            if j == i || !matched[j] {
                continue;
            }
            let w = v.abs();
            if w > best_weight {
                best_weight = w;
                best = Some(j);
            }
        }
        if let Some(j) = best {
            uf.merge(i, j);
        }
    }
    let mut agg = vec![usize::MAX; n];
    let mut root_ids = vec![usize::MAX; n];
    let mut next = 0usize;
    for (i, slot) in agg.iter_mut().enumerate() {
        let r = uf.root(i);
        if root_ids[r] == usize::MAX {
            root_ids[r] = next;
            next += 1;
        }
        *slot = root_ids[r];
    }
    (agg, next)
}

/// Galerkin triple product `Aᶜ = Pᵀ A P` for the piecewise-constant `P`
/// induced by `agg`, built by coarse row: row `I` of `Aᶜ` sums the fine
/// rows of aggregate `I`, visited in increasing fine id and each in
/// stored order, with fine column `j` landing on coarse column `agg[j]`.
///
/// A symbolic pass counts the columns of each coarse row; their prefix
/// sums are the row starts, and the column ids and values are allocated
/// once, at their exact size. A numeric pass then sums each row into a
/// dense accumulator indexed by coarse column. A column opens on its
/// first value that is not exactly zero, so an opening zero is dropped;
/// later values add in visiting order, zeros included. The opened
/// columns are sorted and written with their sums. That is bitwise the
/// product streamed as `(agg[i], agg[j], a_ij)` in fine row order through
/// [`CsrMatrix::from_entries`]: its stable sort keeps each column's values
/// in that visiting order, and its merge sums them the same way.
///
/// Coarse rows are independent. Once `a` stores `PARALLEL_MIN_NNZ`
/// entries, both passes run one contiguous block of coarse rows per
/// worker of `executor`; below that, one block runs on the calling
/// thread. Each block's accumulator and markers are allocated here, on
/// the calling thread. A row's bits do not depend on its block, so the
/// product is the same at any worker count.
/// shape: (coarse_n, coarse_n)
fn galerkin(a: &CsrMatrix, agg: &[usize], coarse_n: usize, executor: &Executor) -> CsrMatrix {
    let groups = Aggregates::group(agg, coarse_n);
    let product = Product {
        a,
        agg,
        groups: &groups,
    };
    let workers = if a.nnz() < PARALLEL_MIN_NNZ {
        1
    } else {
        executor.workers()
    };
    let block_rows = coarse_n.div_ceil(workers).max(1);
    let mut scratch: Vec<RowScratch> = (0..coarse_n.div_ceil(block_rows))
        .map(|_| RowScratch {
            acc: vec![0.0; coarse_n],
            marker: vec![usize::MAX; coarse_n],
        })
        .collect();

    // Symbolic pass: the count of row `r` lands at `indptr[r + 1]`.
    let mut indptr = vec![0usize; coarse_n + 1];
    let mut counting: Vec<_> = scratch
        .iter_mut()
        .zip(indptr[1..].chunks_mut(block_rows))
        .zip((0..).step_by(block_rows))
        .collect();
    on_blocks(executor, &mut counting, |((scratch, counts), start)| {
        product.count_rows(*start, scratch, counts);
    });
    let mut total = 0;
    for start in &mut indptr {
        total += *start;
        *start = total;
    }

    // Numeric pass, into each block's slice of the exact-size arrays.
    let mut indices = vec![0u32; total];
    let mut values = vec![0.0f64; total];
    let mut filling = Vec::with_capacity(scratch.len());
    let (mut rest_indices, mut rest_values) = (indices.as_mut_slice(), values.as_mut_slice());
    for (start, scratch) in (0..).step_by(block_rows).zip(scratch.iter_mut()) {
        let row_ptr = indptr
            .get(start..=(start + block_rows).min(coarse_n))
            .unwrap_or_default();
        let len = row_ptr.last().map_or(0, |end| end - row_ptr[0]);
        let (block_indices, tail) = std::mem::take(&mut rest_indices).split_at_mut(len);
        rest_indices = tail;
        let (block_values, tail) = std::mem::take(&mut rest_values).split_at_mut(len);
        rest_values = tail;
        filling.push(FillBlock {
            start,
            row_ptr,
            scratch,
            indices: block_indices,
            values: block_values,
        });
    }
    on_blocks(executor, &mut filling, |block| product.fill_rows(block));
    CsrMatrix::from_raw_parts(coarse_n, coarse_n, indptr, indices, values)
}

/// Runs `task` on every block, one block per executor task; a single
/// block runs on the calling thread.
fn on_blocks<T: Send>(executor: &Executor, blocks: &mut [T], task: impl Fn(&mut T) + Sync) {
    let sharded =
        executor.for_each_chunk_mut(blocks, 1, |_, chunk| chunk.iter_mut().for_each(&task));
    if sharded.is_err() {
        // Unreachable: the width is 1. Run the blocks here rather than
        // panic if it ever fires.
        blocks.iter_mut().for_each(&task);
    }
}

/// Fine rows grouped by aggregate with a counting sort:
/// `rows[ptr[g]..ptr[g + 1]]` are the fine ids of aggregate `g`, in
/// increasing order.
struct Aggregates {
    ptr: Vec<usize>,
    rows: Vec<u32>,
}

impl Aggregates {
    /// complexity: O(n)
    fn group(agg: &[usize], coarse_n: usize) -> Self {
        // Each aggregate's size at `ptr[g + 1]`; the running sums make
        // `ptr[g]` its start.
        let mut ptr = vec![0usize; coarse_n + 1];
        for &g in agg {
            if let Some(count) = ptr.get_mut(g + 1) {
                *count += 1;
            }
        }
        let mut total = 0;
        for start in &mut ptr {
            total += *start;
            *start = total;
        }
        // `ptr[g]` is aggregate g's cursor: it walks from g's start to its
        // end, which is the start of g + 1. Shift the starts back after.
        let mut rows = vec![0u32; agg.len()];
        for (i, &g) in (0..=u32::MAX).zip(agg) {
            rows[ptr[g]] = i;
            ptr[g] += 1;
        }
        ptr.copy_within(..coarse_n, 1);
        ptr[0] = 0;
        Aggregates { ptr, rows }
    }

    /// The fine ids of aggregate `g`, increasing.
    fn members(&self, g: usize) -> &[u32] {
        match self.ptr.get(g..g + 2) {
            Some(&[lo, hi]) => self.rows.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }
}

/// The dense scratch of one block of coarse rows, indexed by coarse
/// column.
struct RowScratch {
    /// The running sum of each column opened in the current row.
    acc: Vec<f64>,
    /// The last row that opened each column (`usize::MAX`: none yet).
    marker: Vec<usize>,
}

/// One block of the numeric pass: rows from `start`, their row pointers
/// (offsets into the whole product, the block's end included), and the
/// block's slices of the product's column ids and values.
struct FillBlock<'a> {
    start: usize,
    row_ptr: &'a [usize],
    scratch: &'a mut RowScratch,
    indices: &'a mut [u32],
    values: &'a mut [f64],
}

/// What both passes of [`galerkin`] read.
struct Product<'a> {
    a: &'a CsrMatrix,
    agg: &'a [usize],
    groups: &'a Aggregates,
}

impl Product<'_> {
    /// Calls `f(coarse column, value)` on the fine entries of coarse row
    /// `row`: its member rows by increasing fine id, each in stored order.
    /// complexity: O(nnz)
    #[inline]
    fn for_each_entry(&self, row: usize, mut f: impl FnMut(usize, f64)) {
        for &i in self.groups.members(row) {
            let (cols, vals) = self.a.row(widen(i));
            for (&j, &v) in cols.iter().zip(vals) {
                f(self.agg[widen(j)], v);
            }
        }
    }

    /// Symbolic pass over the rows from `start`: `counts[k]` becomes the
    /// number of columns row `start + k` opens.
    /// complexity: O(nnz)
    fn count_rows(&self, start: usize, scratch: &mut RowScratch, counts: &mut [usize]) {
        let marker = &mut scratch.marker;
        for (row, count) in (start..).zip(counts.iter_mut()) {
            let mut opened = 0;
            self.for_each_entry(row, |c, v| {
                if marker[c] != row && !is_exactly_zero(v) {
                    marker[c] = row;
                    opened += 1;
                }
            });
            *count = opened;
        }
    }

    /// Numeric pass over one block: sums each row's columns in the dense
    /// accumulator, then writes them sorted into the row's span.
    /// complexity: O(nnz)
    fn fill_rows(&self, block: &mut FillBlock<'_>) {
        let RowScratch { acc, marker } = &mut *block.scratch;
        // The symbolic pass left its own marks.
        marker.fill(usize::MAX);
        let (mut indices, mut values) = (&mut *block.indices, &mut *block.values);
        for (row, span) in (block.start..).zip(block.row_ptr.windows(2)) {
            let len = span[1] - span[0];
            let (cols, tail) = std::mem::take(&mut indices).split_at_mut(len);
            indices = tail;
            let (vals, tail) = std::mem::take(&mut values).split_at_mut(len);
            values = tail;
            let mut slots = cols.iter_mut();
            self.for_each_entry(row, |c, v| {
                if marker[c] == row {
                    acc[c] += v;
                } else if !is_exactly_zero(v) {
                    marker[c] = row;
                    acc[c] = v;
                    if let Some(slot) = slots.next() {
                        *slot = u32::try_from(c).unwrap_or(u32::MAX);
                    }
                }
            });
            cols.sort_unstable();
            for (v, &c) in vals.iter_mut().zip(cols.iter()) {
                *v = acc[widen(c)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::LinearOperator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 2D grid-graph Laplacian plus a diagonal anchor: the canonical
    /// "hard criterion on a mesh" system, SPD with bandwidth ~side.
    fn grid_laplacian(side: usize) -> CsrMatrix {
        let n = side * side;
        let mut triplets = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                let mut degree = 0.0;
                let push = |j: usize, t: &mut Vec<(usize, usize, f64)>| {
                    t.push((i, j, -1.0));
                };
                if r > 0 {
                    push(i - side, &mut triplets);
                    degree += 1.0;
                }
                if r + 1 < side {
                    push(i + side, &mut triplets);
                    degree += 1.0;
                }
                if c > 0 {
                    push(i - 1, &mut triplets);
                    degree += 1.0;
                }
                if c + 1 < side {
                    push(i + 1, &mut triplets);
                    degree += 1.0;
                }
                triplets.push((i, i, degree + 0.05));
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    fn rhs(n: usize) -> Vector {
        Vector::from_fn(n, |i| ((i as f64) * 0.37).sin() + 0.4)
    }

    /// `rhs` with every seventh entry `-0.0` and a `+0.0` three later.
    fn signed_zero_rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 7 {
                0 => -0.0,
                3 => 0.0,
                _ => ((i as f64) * 0.37).sin() + 0.4,
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// A sequential row-iterator matvec, independent of the row kernel.
    fn row_iter_matvec(a: &CsrMatrix, x: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (j, v) in a.row_iter(i) {
                sum += v * x[j];
            }
            *o = sum;
        }
    }

    /// The pre-smoothing of the reference cycle: zero `x`, then every sweep
    /// with its matvec, the first one included (`A·0`).
    fn reference_presmooth(amg: &AmgCg, grid: &Grid, r: &[f64], x: &mut [f64], tmp: &mut [f64]) {
        for xi in x.iter_mut() {
            *xi = 0.0;
        }
        for _ in 0..amg.options.smoothing_sweeps {
            row_iter_matvec(&grid.a, x, tmp);
            for ((xi, ri), (ti, di)) in x.iter_mut().zip(r).zip(tmp.iter().zip(&grid.inv_diag)) {
                *xi += amg.options.damping * di * (ri - ti);
            }
        }
    }

    /// The K-cycle run sequentially with fresh vectors on every level:
    /// `x` zeroed, the `A·0` matvec, and the coarse steps' formulas
    /// written out.
    fn reference_kcycle(amg: &AmgCg, depth: usize, r: &[f64], x: &mut [f64]) {
        if depth == amg.grids.len() {
            if amg.coarse.solve_into(r, x).is_err() {
                x.copy_from_slice(r);
            }
            return;
        }
        let grid = &amg.grids[depth];
        let n = grid.a.rows();
        let mut tmp = vec![0.0; n];
        reference_presmooth(amg, grid, r, x, &mut tmp);
        row_iter_matvec(&grid.a, x, &mut tmp);
        let coarse_n = amg
            .grids
            .get(depth + 1)
            .map(|g| g.a.rows())
            .unwrap_or_else(|| amg.coarse.dim());
        let mut rc = vec![0.0; coarse_n];
        for (i, (ri, ti)) in r.iter().zip(&tmp).enumerate() {
            rc[grid.agg[i]] += ri - ti;
        }
        let xc = match amg.grids.get(depth + 1) {
            Some(next) => reference_coarse_steps(amg, depth + 1, &next.a, &rc),
            None => {
                let mut xc = vec![0.0; coarse_n];
                reference_kcycle(amg, depth + 1, &rc, &mut xc);
                xc
            }
        };
        for (xi, &aggi) in x.iter_mut().zip(&grid.agg) {
            *xi += xc[aggi];
        }
        for _ in 0..amg.options.smoothing_sweeps {
            row_iter_matvec(&grid.a, x, &mut tmp);
            for ((xi, ri), (ti, di)) in x.iter_mut().zip(r).zip(tmp.iter().zip(&grid.inv_diag)) {
                *xi += amg.options.damping * di * (ri - ti);
            }
        }
    }

    /// The two flexible-CG steps on `a_c x_c = r_c`, each preconditioned
    /// by the reference K-cycle of level `depth`.
    fn reference_coarse_steps(amg: &AmgCg, depth: usize, a_c: &CsrMatrix, rc: &[f64]) -> Vec<f64> {
        let n = rc.len();
        let mut c1 = vec![0.0; n];
        reference_kcycle(amg, depth, rc, &mut c1);
        let mut v1 = vec![0.0; n];
        row_iter_matvec(a_c, &c1, &mut v1);
        let rho1 = dot_slices(&c1, &v1);
        if !(rho1 > 0.0) {
            return c1;
        }
        let alpha1 = dot_slices(&c1, rc);
        let rt: Vec<f64> = rc
            .iter()
            .zip(&v1)
            .map(|(ri, vi)| ri - (alpha1 / rho1) * vi)
            .collect();
        let one_step: Vec<f64> = c1.iter().map(|ci| (alpha1 / rho1) * ci).collect();
        if dot_slices(&rt, &rt).sqrt() <= 0.25 * dot_slices(rc, rc).sqrt() {
            return one_step;
        }
        let mut c2 = vec![0.0; n];
        reference_kcycle(amg, depth, &rt, &mut c2);
        let mut v2 = vec![0.0; n];
        row_iter_matvec(a_c, &c2, &mut v2);
        let gamma = dot_slices(&c2, &v1);
        let beta = dot_slices(&c2, &v2);
        let alpha2 = dot_slices(&c2, &rt);
        let rho2 = beta - gamma * gamma / rho1;
        if !(rho2 > 0.0) {
            return one_step;
        }
        c1.iter()
            .zip(&c2)
            .map(|(a, b)| {
                (alpha1 / rho1 - gamma * alpha2 / (rho1 * rho2)) * a + (alpha2 / rho2) * b
            })
            .collect()
    }

    struct ReferencePrecond<'a>(&'a AmgCg);

    impl Preconditioner for ReferencePrecond<'_> {
        fn dim(&self) -> usize {
            self.0.finest().rows()
        }

        fn apply(&self, r: &[f64], z: &mut [f64]) {
            reference_kcycle(self.0, 0, r, z);
        }
    }

    struct ReferenceOp<'a>(&'a CsrMatrix);

    impl LinearOperator for ReferenceOp<'_> {
        fn dim(&self) -> usize {
            self.0.rows()
        }

        fn apply(&self, x: &[f64], out: &mut [f64]) {
            row_iter_matvec(self.0, x, out);
        }
    }

    /// The Dirichlet 5-point lattice: every vertex keeps degree 4, the
    /// missing in-grid neighbors being a labeled boundary ring.
    fn dirichlet_lattice(side: usize) -> CsrMatrix {
        let n = side * side;
        let mut triplets = Vec::with_capacity(5 * n);
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
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
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    /// Grids smoothed with 1, 2 and 3 sweeps, a Dirichlet lattice deep
    /// enough for coarse Krylov steps on two levels, a system at or below
    /// `coarsest_dim` (no grids), and a diagonal one whose coarsening
    /// stalls at once (no grids either).
    fn oracle_systems() -> Vec<(String, CsrMatrix, AmgOptions)> {
        let mut systems: Vec<_> = [1, 2, 3]
            .into_iter()
            .map(|sweeps| {
                (
                    format!("grid 20x20, {sweeps} sweeps"),
                    grid_laplacian(20),
                    AmgOptions {
                        smoothing_sweeps: sweeps,
                        ..AmgOptions::default()
                    },
                )
            })
            .collect();
        systems.push((
            "dirichlet 40x40".to_owned(),
            dirichlet_lattice(40),
            AmgOptions::default(),
        ));
        systems.push((
            "coarse only".to_owned(),
            grid_laplacian(4),
            AmgOptions::default(),
        ));
        let diagonal = (0..80).map(|i| (i, i, 2.0 + i as f64)).collect::<Vec<_>>();
        systems.push((
            "stalled".to_owned(),
            CsrMatrix::from_triplets(80, 80, &diagonal).unwrap(),
            AmgOptions::default(),
        ));
        systems
    }

    #[test]
    fn presmoothing_is_bitwise_the_zeroed_sweeps() {
        for (name, a, options) in oracle_systems() {
            let sweeps = options.smoothing_sweeps;
            let amg = AmgCg::factor_sparse(&a, options).unwrap();
            for (depth, grid) in amg.grids.iter().enumerate() {
                let n = grid.a.rows();
                let r = signed_zero_rhs(n);
                let mut tmp = vec![0.0; n];
                let mut want = vec![f64::NAN; n];
                reference_presmooth(&amg, grid, &r, &mut want, &mut tmp);
                let mut got = vec![f64::NAN; n];
                amg.presmooth(grid, &r, &mut got, &mut tmp);
                assert_eq!(bits(&got), bits(&want), "{name}, level {depth}");
                if sweeps == 1 {
                    // A `-0.0` residual entry smooths to `+0.0`, not `-0.0`.
                    assert!(r
                        .iter()
                        .zip(&got)
                        .any(|(ri, xi)| ri.is_sign_negative() && xi.to_bits() == 0));
                }
            }
        }
    }

    #[test]
    fn kcycle_is_bitwise_the_reference_cycle() {
        for (name, a, options) in oracle_systems() {
            let amg = AmgCg::factor_sparse(&a, options).unwrap();
            let n = a.rows();
            // One preconditioner runs every cycle, so its buffers carry
            // over from one cycle to the next as they do within a solve.
            let precond = KCyclePrecond::new(&amg);
            for r in [
                signed_zero_rhs(n),
                rhs(n).as_slice().to_vec(),
                vec![-0.0; n],
            ] {
                let mut want = vec![0.0; n];
                reference_kcycle(&amg, 0, &r, &mut want);
                let mut got = vec![f64::NAN; n];
                precond.apply(&r, &mut got);
                assert_eq!(bits(&got), bits(&want), "{name}");
            }
        }
    }

    #[test]
    fn solves_are_bitwise_the_reference_solves() {
        for (name, a, options) in oracle_systems() {
            let amg = AmgCg::factor_sparse(&a, options).unwrap();
            let n = a.rows();
            for b in [rhs(n), Vector::from(signed_zero_rhs(n))] {
                let want = preconditioned_cg_with(
                    &ReferenceOp(&a),
                    &b,
                    &ReferencePrecond(&amg),
                    &amg.options.cg,
                )
                .unwrap();
                let got = amg.solve(&b).unwrap();
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.solution.as_slice()),
                    "{name}"
                );
                assert_eq!(amg.last_iterations(), Some(want.iterations), "{name}");
            }
        }
    }

    /// Iterations of a default-hierarchy solve at tolerance 1e-8.
    fn lattice_iterations(side: usize) -> usize {
        let a = dirichlet_lattice(side);
        let options = AmgOptions {
            cg: CgOptions {
                tolerance: 1e-8,
                ..CgOptions::default()
            },
            ..AmgOptions::default()
        };
        let amg = AmgCg::factor_sparse(&a, options).unwrap();
        amg.solve(&rhs(a.rows())).unwrap();
        amg.last_iterations().unwrap()
    }

    #[test]
    fn iteration_count_does_not_grow_with_the_lattice() {
        let small = lattice_iterations(32);
        let large = lattice_iterations(128);
        assert!(
            4 * large <= 5 * small,
            "side 128 took {large} iterations against {small} at side 32"
        );
    }

    #[test]
    fn double_pairwise_steps_quarter_the_lattice() {
        let a = dirichlet_lattice(64);
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        // 4 096 → about 1 024 → 256 → 64 rows: three steps, four levels.
        assert_eq!(amg.levels(), 4);
        assert!(amg.coarse_dim() <= 64);
        for pair in amg.grids.windows(2) {
            let (fine, coarse) = (pair[0].a.rows(), pair[1].a.rows());
            assert!(3 * coarse <= fine, "{fine} rows coarsened only to {coarse}");
        }
        // Each aggregate id indexes the next level.
        for (depth, grid) in amg.grids.iter().enumerate() {
            let coarse_n = amg
                .grids
                .get(depth + 1)
                .map(|g| g.a.rows())
                .unwrap_or_else(|| amg.coarse.dim());
            assert!(grid.agg.iter().all(|&g| g < coarse_n));
        }
    }

    #[test]
    fn a_stalled_second_pass_keeps_the_first() {
        // A perfect matching of 2-vertex components: the first pass halves
        // the system and leaves a diagonal product, which cannot coarsen.
        let n = 200;
        let triplets: Vec<_> = (0..n)
            .flat_map(|i| [(i, i, 3.0), (i, i ^ 1, -1.0)])
            .collect();
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        assert_eq!(amg.levels(), 2);
        assert_eq!(amg.coarse_dim(), n / 2);
        let b = rhs(n);
        let x = amg.solve(&b).unwrap();
        assert!(amg.residual(&x, &b).unwrap() < 1e-9);
    }

    #[test]
    fn coarsening_halves_connected_graphs() {
        let a = grid_laplacian(12);
        let (agg, coarse_n) = heavy_edge_aggregates(&a);
        assert_eq!(agg.len(), 144);
        // Heavy-edge matching on a grid pairs almost every vertex.
        assert!(coarse_n <= 90, "stalled coarsening: {coarse_n} aggregates");
        assert!(coarse_n >= 72); // pairs only: cannot shrink below n/2
        assert!(agg.iter().all(|&g| g < coarse_n));
        // Aggregate ids appear in first-seen order.
        let mut seen = 0usize;
        for &g in &agg {
            assert!(g <= seen, "ids must be assigned in row order");
            if g == seen {
                seen += 1;
            }
        }
    }

    /// The streamed Galerkin product this crate shipped before the product
    /// by coarse row, logic unchanged, as the bitwise oracle: every fine
    /// entry `a_ij` streamed as `(agg[i], agg[j], a_ij)` in fine row order
    /// into the CSR constructor.
    fn streamed_galerkin(a: &CsrMatrix, agg: &[usize], coarse_n: usize) -> CsrMatrix {
        let entries = agg
            .iter()
            .enumerate()
            .flat_map(|(i, &ai)| a.row_iter(i).map(move |(j, v)| (ai, agg[j], v)));
        CsrMatrix::from_entries(coarse_n, coarse_n, entries).unwrap()
    }

    /// Shape, structure and every value bit (so `-0.0 != 0.0`) agree.
    fn assert_csr_bitwise(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for i in 0..want.rows() {
            let ((got_cols, got_vals), (want_cols, want_vals)) = (got.row(i), want.row(i));
            assert_eq!(got_cols, want_cols, "{what}, row {i}");
            assert_eq!(bits(got_vals), bits(want_vals), "{what}, row {i}");
        }
    }

    /// Values whose sums depend on their order, signed zeros, and values
    /// that cancel exactly.
    const PALETTE: [f64; 8] = [1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 0.5, 3.25];

    /// A seeded `n × n` matrix whose rows store up to `per_row` distinct
    /// columns within `band` of the diagonal, in order, with palette
    /// values (stored zeros of both signs included); one row in eight is
    /// empty.
    fn seeded_fine(rng: &mut StdRng, n: usize, per_row: usize, band: usize) -> CsrMatrix {
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            if rng.gen_range(0..8usize) > 0 {
                let (lo, hi) = (i.saturating_sub(band), (i + band + 1).min(n));
                let mut cols: Vec<u32> = (0..rng.gen_range(1..per_row + 1))
                    .map(|_| u32::try_from(rng.gen_range(lo..hi)).unwrap())
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                values.extend(
                    cols.iter()
                        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]),
                );
                indices.extend(cols);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(n, n, indptr, indices, values)
    }

    /// Aggregates of 1 to 6 consecutive rows, singletons included, with
    /// ids in row order and, in `shuffled`, the same aggregates under
    /// seeded ids.
    fn seeded_aggregates(rng: &mut StdRng, n: usize) -> ((Vec<usize>, usize), Vec<usize>) {
        let mut agg = Vec::with_capacity(n);
        let mut coarse_n = 0;
        while agg.len() < n {
            let size = rng.gen_range(1..7usize).min(n - agg.len());
            agg.extend(std::iter::repeat_n(coarse_n, size));
            coarse_n += 1;
        }
        let mut ids: Vec<usize> = (0..coarse_n).collect();
        for k in (1..coarse_n).rev() {
            ids.swap(k, rng.gen_range(0..k + 1));
        }
        let shuffled = agg.iter().map(|&g| ids[g]).collect();
        ((agg, coarse_n), shuffled)
    }

    #[test]
    fn galerkin_is_bitwise_the_streamed_product() {
        let mut rng = StdRng::seed_from_u64(0xA3_0001);
        let mut cases = Vec::new();
        for _ in 0..300 {
            let n = rng.gen_range(1..40usize);
            let (per_row, band) = (rng.gen_range(1..12usize), rng.gen_range(0..n));
            cases.push(seeded_fine(&mut rng, n, per_row, band));
        }
        // Just below and well above the sharding gate.
        let below = seeded_fine(&mut rng, 30_000, 34, 20);
        assert!(below.nnz() < PARALLEL_MIN_NNZ, "{}", below.nnz());
        let above = seeded_fine(&mut rng, 60_000, 34, 20);
        assert!(above.nnz() >= PARALLEL_MIN_NNZ, "{}", above.nnz());
        cases.extend([below, above]);
        let mut cancelled = 0;
        for (case, a) in cases.iter().enumerate() {
            let ((agg, coarse_n), shuffled) = seeded_aggregates(&mut rng, a.rows());
            for (order, agg) in [("row-order", agg), ("seeded-order", shuffled)] {
                let want = streamed_galerkin(a, &agg, coarse_n);
                cancelled += want
                    .values()
                    .iter()
                    .filter(|&&v| is_exactly_zero(v))
                    .count();
                for workers in [1, 2, 3, 4, 8] {
                    let got = galerkin(a, &agg, coarse_n, &Executor::with_workers(workers));
                    let what = format!("case {case}, {order} ids, {workers} workers");
                    assert_csr_bitwise(&got, &want, &what);
                }
            }
        }
        assert!(
            cancelled > 0,
            "no aggregate group cancelled to a stored zero"
        );
    }

    #[test]
    fn galerkin_preserves_symmetry_and_row_sums() {
        let a = grid_laplacian(8);
        let (agg, coarse_n) = heavy_edge_aggregates(&a);
        let coarse = galerkin(&a, &agg, coarse_n, &Executor::Sequential);
        assert_eq!(coarse.rows(), coarse_n);
        assert!(coarse.is_symmetric(1e-12));
        // P 1 = 1, so 1ᵀ Aᶜ 1 = 1ᵀ A 1 (total mass is conserved).
        let fine_mass: f64 = a.matvec(&vec![1.0; a.rows()]).iter().sum();
        let coarse_mass: f64 = coarse.matvec(&vec![1.0; coarse_n]).iter().sum();
        assert!((fine_mass - coarse_mass).abs() < 1e-9);
    }

    #[test]
    fn amg_solves_grid_laplacian_to_cg_accuracy() {
        let a = grid_laplacian(14); // n = 196, several levels
        let n = a.rows();
        let b = rhs(n);
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        assert!(amg.levels() >= 2, "hierarchy never coarsened");
        assert!(amg.coarse_dim() <= 64);
        let x = amg.solve(&b).unwrap();
        let exact = crate::lu::solve(&a.to_dense(), &b).unwrap();
        assert!(x.approx_eq(&exact, 1e-7));
        assert!(amg.residual(&x, &b).unwrap() < 1e-7);
        let report = amg.report();
        assert_eq!(report.backend, BackendKind::Amg);
        assert_eq!(report.dim, n);
        assert!(report.iterations.is_some());
        assert!(report.final_residual.unwrap() >= 0.0);
    }

    #[test]
    fn amg_beats_unpreconditioned_iteration_counts() {
        let a = grid_laplacian(20); // n = 400
        let b = rhs(a.rows());
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        amg.solve(&b).unwrap();
        let amg_iters = amg.last_iterations().unwrap();
        let unit = JacobiPrecond::from_diagonal(std::iter::repeat_n(1.0, a.rows())).unwrap();
        let plain = preconditioned_cg_with(&a, &b, &unit, &CgOptions::default()).unwrap();
        assert!(
            amg_iters < plain.iterations,
            "AMG took {amg_iters} iterations vs plain CG's {}",
            plain.iterations
        );
    }

    #[test]
    fn tiny_systems_skip_coarsening_entirely() {
        let a = grid_laplacian(4); // n = 16 <= coarsest_dim
        let b = rhs(16);
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        assert_eq!(amg.levels(), 1);
        assert_eq!(amg.coarse_dim(), 16);
        let x = amg.solve(&b).unwrap();
        // The cycle is an exact solve here, so PCG converges immediately.
        assert!(amg.last_iterations().unwrap() <= 2);
        let exact = crate::lu::solve(&a.to_dense(), &b).unwrap();
        assert!(x.approx_eq(&exact, 1e-8));
    }

    #[test]
    fn parallel_solves_are_bit_identical() {
        let a = grid_laplacian(13);
        let b = rhs(a.rows());
        let sequential = AmgCg::factor_sparse(&a, AmgOptions::default())
            .unwrap()
            .solve(&b)
            .unwrap();
        for workers in [2, 4, 8] {
            let executor = Executor::with_workers(workers);
            let parallel = AmgCg::factor_sparse_with(&a, AmgOptions::default(), &executor).unwrap();
            assert_eq!(
                parallel.solve(&b).unwrap().as_slice(),
                sequential.as_slice(),
                "workers={workers} diverged"
            );
        }
    }

    #[test]
    fn validates_inputs_and_options() {
        assert!(matches!(
            AmgCg::factor_sparse(CsrMatrix::zeros(2, 3), AmgOptions::default()),
            Err(Error::NotSquare { .. })
        ));
        let a = grid_laplacian(4);
        for bad in [
            AmgOptions {
                damping: 0.0,
                ..AmgOptions::default()
            },
            AmgOptions {
                damping: 1.5,
                ..AmgOptions::default()
            },
            AmgOptions {
                smoothing_sweeps: 0,
                ..AmgOptions::default()
            },
            AmgOptions {
                coarsest_dim: 0,
                ..AmgOptions::default()
            },
            AmgOptions {
                min_coarsening_ratio: 0.0,
                ..AmgOptions::default()
            },
        ] {
            assert!(matches!(
                AmgCg::factor_sparse(&a, bad),
                Err(Error::InvalidArgument { .. })
            ));
        }
        // Non-positive diagonal is rejected at the smoother boundary.
        let indef = CsrMatrix::from_triplets(
            80,
            80,
            &(0..80)
                .map(|i| (i, i, if i == 40 { -1.0 } else { 1.0 }))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(matches!(
            AmgCg::factor_sparse(&indef, AmgOptions::default()),
            Err(Error::NotPositiveDefinite { pivot: 40 })
        ));
    }

    #[test]
    fn stalled_coarsening_falls_back_to_direct_solve() {
        // A diagonal matrix has no edges: matching stalls immediately and
        // the whole system goes to the dense coarse solve.
        let n = 80;
        let a = CsrMatrix::from_triplets(
            n,
            n,
            &(0..n).map(|i| (i, i, 2.0 + i as f64)).collect::<Vec<_>>(),
        )
        .unwrap();
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        assert_eq!(amg.levels(), 1);
        assert_eq!(amg.coarse_dim(), n);
        let b = rhs(n);
        let x = amg.solve(&b).unwrap();
        for (i, xi) in x.as_slice().iter().enumerate() {
            assert!((xi - b[i] / (2.0 + i as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_matches_matrix_product_and_checks_dims() {
        let a = grid_laplacian(6);
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        let x = rhs(36);
        let ax = Factorization::apply(&amg, &x).unwrap();
        let expect = a.matvec(x.as_slice());
        for (got, want) in ax.as_slice().iter().zip(&expect) {
            assert!((got - want).abs() < 1e-14);
        }
        assert!(Factorization::apply(&amg, &rhs(35)).is_err());
        let cloned = amg.clone();
        assert_eq!(cloned.levels(), amg.levels());
    }

    #[test]
    fn solve_matrix_shares_the_hierarchy() {
        let a = grid_laplacian(7);
        let n = a.rows();
        let amg = AmgCg::factor_sparse(&a, AmgOptions::default()).unwrap();
        let rhs_cols = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.11).cos());
        let x = amg.solve_matrix(&rhs_cols).unwrap();
        let dense = a.to_dense();
        let exact = crate::lu::solve_matrix(&dense, &rhs_cols).unwrap();
        for i in 0..n {
            for j in 0..3 {
                assert!((x.get(i, j) - exact.get(i, j)).abs() < 1e-7);
            }
        }
    }
}
