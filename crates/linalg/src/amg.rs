//! Algebraic multigrid over CSR graph Laplacians.
//!
//! The hard/soft criteria of the paper solve systems in kNN-graph
//! Laplacians whose condition number grows with graph diameter — exactly
//! the regime where one-level preconditioners (Jacobi, IC(0)) degrade.
//! [`AmgCg`] builds a *geometry-free* multigrid hierarchy from the matrix
//! alone:
//!
//! 1. **Coarsening** — greedy heavy-edge matching in row order: each
//!    unmatched vertex pairs with its heaviest (largest `|a_ij|`) unmatched
//!    neighbor; union-find merges the pairs and aggregate ids are assigned
//!    in first-seen order, so the result is independent of thread count
//!    and identical on every run.
//! 2. **Galerkin coarse operators** — with the piecewise-constant
//!    prolongation `P` (each fine vertex injects into its aggregate), the
//!    coarse matrix is the triple product `Aᶜ = Pᵀ A P`, assembled as
//!    triplets `(agg[i], agg[j], a_ij)` and summed deterministically by
//!    the CSR constructor.
//! 3. **V-cycle** — damped-Jacobi pre/post smoothing (simultaneous update,
//!    `x ← x + ω D⁻¹ (r − A x)`), restriction of the residual, recursion,
//!    prolongation of the correction, and a dense direct solve on the
//!    coarsest level. Equal pre/post sweeps with the (symmetric) damped
//!    Jacobi smoother make the cycle a symmetric positive-definite
//!    operator, so it is a valid PCG preconditioner.
//!
//! Rather than iterate V-cycles alone, [`AmgCg::solve`] runs CG
//! preconditioned by one V-cycle per iteration — the standard AMG-PCG
//! combination, which inherits CG's guaranteed convergence on SPD systems
//! while the hierarchy removes the mesh-size dependence of the iteration
//! count.
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
use crate::lu::Lu;
use crate::precond::{JacobiPrecond, Preconditioner};
use crate::sparse::CsrMatrix;
use crate::strict;
use crate::vector::Vector;
use gssl_runtime::Executor;
use std::cell::RefCell;

/// Options controlling hierarchy construction and the outer PCG run.
#[derive(Debug, Clone, PartialEq)]
pub struct AmgOptions {
    /// Maximum number of coarsening steps (hierarchy depth bound).
    pub max_levels: usize,
    /// Stop coarsening once a level has at most this many rows; that level
    /// is densified and factored directly.
    pub coarsest_dim: usize,
    /// Damped-Jacobi sweeps before *and* after each coarse correction
    /// (equal counts keep the cycle symmetric).
    pub smoothing_sweeps: usize,
    /// Jacobi damping factor `ω` in `(0, 1]`.
    pub damping: f64,
    /// Coarsening is considered stalled (and stops) when a step retains
    /// more than this fraction of the rows. Heavy-edge matching halves
    /// well-connected graphs, so a stalled step means the level has
    /// (almost) no off-diagonal mass left to aggregate.
    pub min_coarsening_ratio: f64,
    /// Options for the outer V-cycle-preconditioned CG run of
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

/// Algebraic-multigrid [`Factorization`] backend: V-cycle-preconditioned
/// conjugate gradient over a heavy-edge-matched Galerkin hierarchy.
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
    /// Builds the multigrid hierarchy for an SPD CSR system.
    ///
    /// Coarsening stops at `coarsest_dim` rows, after `max_levels` steps,
    /// or when a step stalls (see [`AmgOptions::min_coarsening_ratio`]);
    /// whatever level remains is densified and factored directly
    /// (Cholesky, falling back to LU if rounding spoiled definiteness).
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
    pub fn factor_sparse(a: &CsrMatrix, options: AmgOptions) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(Error::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        strict::check_finite("amg.factor input", a.values())?;
        validate_options(&options)?;

        let mut grids = Vec::with_capacity(options.max_levels);
        let mut current = a.clone();
        while current.rows() > options.coarsest_dim && grids.len() < options.max_levels {
            let inv_diag = JacobiPrecond::from_csr(&current)?.into_inv_diag();
            let (agg, coarse_n) = heavy_edge_aggregates(&current);
            if (coarse_n as f64) > options.min_coarsening_ratio * (current.rows() as f64) {
                break;
            }
            let coarse = galerkin(&current, &agg, coarse_n)?;
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
            executor: Executor::default(),
            last: LastSolve::new(),
        })
    }

    /// Runs every solve's matvecs on `executor`: each level storing at
    /// least `PARALLEL_MIN_NNZ` entries is row-sharded, smaller ones stay on
    /// the calling thread (bit-identical to the sequential backend at any
    /// worker count).
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
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

    /// One V-cycle: `x ≈ A⁻¹ r` starting from `x = 0` at level `depth`;
    /// `buffers` holds the scratch of grid `depth` and of every coarser grid.
    ///
    /// Restriction, prolongation, and smoothing updates are elementwise
    /// sequential (only matvecs shard), so the cycle is bit-identical at
    /// every worker count. Every entry of `x` is overwritten, so `x` needs
    /// no zeroing.
    /// complexity: O(iters * nnz)
    fn vcycle(&self, depth: usize, r: &[f64], x: &mut [f64], buffers: &mut [LevelBuffers]) {
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
        // the aggregate"), recurse, prolong (P is "copy to every member").
        grid.a.matvec_into_with(x, &mut level.tmp, &self.executor);
        level.rc.fill(0.0);
        for ((ri, ti), &aggi) in r.iter().zip(&level.tmp).zip(&grid.agg) {
            level.rc[aggi] += ri - ti;
        }
        self.vcycle(depth + 1, &level.rc, &mut level.xc, coarser);
        for (xi, &aggi) in x.iter_mut().zip(&grid.agg) {
            *xi += level.xc[aggi];
        }
        // Post-smooth with the same sweeps, keeping the cycle symmetric.
        for _ in 0..self.options.smoothing_sweeps {
            self.smooth(grid, r, x, &mut level.tmp);
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

/// Scratch vectors of one grid level, allocated once per solve.
struct LevelBuffers {
    /// `A x` on this level.
    tmp: Vec<f64>,
    /// The residual restricted to the next coarser level.
    rc: Vec<f64>,
    /// The correction solved on the next coarser level.
    xc: Vec<f64>,
}

/// The V-cycle viewed as a PCG preconditioner (`z = Vcycle(r)`). Each
/// solve builds its own, so the level buffers live for one solve and
/// concurrent solves on one [`AmgCg`] never share them.
struct VCyclePrecond<'a> {
    amg: &'a AmgCg,
    buffers: RefCell<Vec<LevelBuffers>>,
}

impl<'a> VCyclePrecond<'a> {
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
            })
            .collect();
        VCyclePrecond {
            amg,
            buffers: RefCell::new(buffers),
        }
    }
}

impl Preconditioner for VCyclePrecond<'_> {
    fn dim(&self) -> usize {
        self.amg.finest().rows()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.amg.vcycle(0, r, z, &mut self.buffers.borrow_mut());
    }
}

impl Factorization for AmgCg {
    fn dim(&self) -> usize {
        self.finest().rows()
    }

    /// shape: (b.len,)
    fn solve(&self, b: &Vector) -> Result<Vector> {
        let precond = VCyclePrecond::new(self);
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
/// induced by `agg`: every fine entry `a_ij` lands on coarse coordinate
/// `(agg[i], agg[j])`, and the CSR constructor sums duplicates in a fixed
/// order.
/// shape: (coarse_n, coarse_n)
/// complexity: O(nnz)
fn galerkin(a: &CsrMatrix, agg: &[usize], coarse_n: usize) -> Result<CsrMatrix> {
    let mut triplets = Vec::with_capacity(a.nnz());
    for i in 0..a.rows() {
        for (j, v) in a.row_iter(i) {
            triplets.push((agg[i], agg[j], v));
        }
    }
    CsrMatrix::from_triplets(coarse_n, coarse_n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::LinearOperator;

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

    /// The sequential matvec the V-cycle ran before the row kernel.
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

    /// The V-cycle this crate shipped before the per-solve buffers, run
    /// sequentially: `x` zeroed, the `A·0` matvec, fresh vectors on every
    /// level.
    fn reference_vcycle(amg: &AmgCg, depth: usize, r: &[f64], x: &mut [f64]) {
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
        let mut xc = vec![0.0; coarse_n];
        reference_vcycle(amg, depth + 1, &rc, &mut xc);
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

    struct ReferencePrecond<'a>(&'a AmgCg);

    impl Preconditioner for ReferencePrecond<'_> {
        fn dim(&self) -> usize {
            self.0.finest().rows()
        }

        fn apply(&self, r: &[f64], z: &mut [f64]) {
            reference_vcycle(self.0, 0, r, z);
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

    /// Grids smoothed with 1, 2 and 3 sweeps, a system at or below
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
    fn vcycle_is_bitwise_the_reference_cycle() {
        for (name, a, options) in oracle_systems() {
            let amg = AmgCg::factor_sparse(&a, options).unwrap();
            let n = a.rows();
            // One preconditioner runs every cycle, so its buffers carry
            // over from one cycle to the next as they do within a solve.
            let precond = VCyclePrecond::new(&amg);
            for r in [
                signed_zero_rhs(n),
                rhs(n).as_slice().to_vec(),
                vec![-0.0; n],
            ] {
                let mut want = vec![0.0; n];
                reference_vcycle(&amg, 0, &r, &mut want);
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

    #[test]
    fn galerkin_preserves_symmetry_and_row_sums() {
        let a = grid_laplacian(8);
        let (agg, coarse_n) = heavy_edge_aggregates(&a);
        let coarse = galerkin(&a, &agg, coarse_n).unwrap();
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
        // The V-cycle is an exact solve here, so PCG converges immediately.
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
            let parallel = AmgCg::factor_sparse(&a, AmgOptions::default())
                .unwrap()
                .with_executor(Executor::with_workers(workers));
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
            AmgCg::factor_sparse(&CsrMatrix::zeros(2, 3), AmgOptions::default()),
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
