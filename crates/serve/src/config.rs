//! Engine configuration: criterion, kernel graph parameters, update
//! policy and thread-pool width.

use crate::error::{Error, Result};
use gssl_graph::Kernel;
use gssl_linalg::SolverPolicy;

/// Which of the paper's criteria the engine caches a factorization of.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ServeCriterion {
    /// The hard criterion (Eq. 5): the engine caches the Cholesky
    /// factorization and explicit inverse of the `m × m` unlabeled-block
    /// system `D₂₂ − W₂₂`. Labeled scores are clamped to the
    /// observations. Label arrival is an exact rank-1 deletion update.
    Hard,
    /// The soft criterion in its full-system form (Eq. 3): the engine
    /// caches the LU factorization and explicit inverse of the
    /// `(n+m) × (n+m)` system `V + λL`. Label arrival is a textbook
    /// Sherman–Morrison update (`V` gains `eᵢeᵢᵀ`, exactly rank 1).
    Soft {
        /// The tuning parameter `λ > 0` (the full system is singular at
        /// `λ = 0`; use [`ServeCriterion::Hard`] for that limit, per
        /// Proposition II.1).
        lambda: f64,
    },
}

/// How the engine factors its cached criterion system.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum EngineSolver {
    /// The legacy direct route: Cholesky for the hard system, LU for the
    /// soft full system, always with an explicit cached inverse so label
    /// arrivals stay exact rank-1 updates.
    #[default]
    Direct,
    /// Route every factorization through
    /// [`SolverPolicy::factor_spd`]: dense Cholesky, falling back to
    /// dense LU when a pivot fails; for large sparse systems (or under a
    /// forced [`gssl_linalg::SparseStrategy`]) IC(0)-preconditioned CG,
    /// falling back to Jacobi-preconditioned CG when IC(0) breaks down,
    /// or AMG for large mesh-like systems. When the policy selects an
    /// iterative backend no explicit inverse is formed — label arrivals
    /// re-solve the exactly-maintained cached system instead of updating
    /// an inverse, trading per-update cost for `O(nnz)` memory.
    Auto(SolverPolicy),
}

/// How `predict_batch` evaluates the out-of-sample extension (Eq. 6)
/// `f(x) = Σᵢ w(x, xᵢ) fᵢ / Σᵢ w(x, xᵢ)` for each query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum QueryPath {
    /// Evaluate the full kernel row: `O(n·d)` per query, exact for every
    /// kernel. The legacy (and default) path.
    #[default]
    Dense,
    /// Restrict the sums of Eq. 6 to the query's `k` nearest fitted
    /// nodes, found through a spatial index built once at fit time —
    /// `O(k)` kernel weights per query after a sublinear tree search.
    /// A truncation of the dense extension: exact when the kernel's
    /// support holds at most `k` nodes, an approximation otherwise.
    KNearest {
        /// Number of nearest fitted nodes kept per query (`k ≥ 1`;
        /// clamped to the fitted graph size).
        k: usize,
    },
    /// Restrict the sums of Eq. 6 to the fitted nodes within the
    /// kernel's support radius of the query
    /// ([`gssl_graph::Kernel::support_radius`]: `bandwidth·(1 + 1e-9)`).
    /// For compactly supported kernels (everything except Gaussian)
    /// every omitted weight is *exactly* zero, so this path agrees with
    /// [`QueryPath::Dense`] up to
    /// floating-point summation order — while touching only the nodes
    /// inside the support ball. Rejected by [`EngineConfig::validate`]
    /// for the Gaussian kernel, whose support is the whole space.
    WithinSupport,
}

/// Configuration for [`crate::ShardedEngine::fit`] and
/// [`crate::ServingEngine::fit`].
///
/// ```
/// use gssl_graph::Kernel;
/// use gssl_serve::{EngineConfig, ServeCriterion};
/// let config = EngineConfig::new(Kernel::Gaussian, 0.4)
///     .criterion(ServeCriterion::Hard)
///     .refactor_every(128)
///     .workers(4);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Kernel used for both the fitted graph and out-of-sample rows.
    pub kernel: Kernel,
    /// Bandwidth `h > 0` shared by fit and query paths.
    pub bandwidth: f64,
    /// Criterion whose factorization is cached.
    pub criterion: ServeCriterion,
    /// Periodic fallback: force a full refactorization after this many
    /// rank-1 updates (`0` disables the periodic trigger; the residual
    /// guard below still applies).
    pub refactor_every: usize,
    /// Residual guard: after each rank-1 update the engine checks
    /// `‖A f − b‖∞` of the cached system and refactors from scratch when
    /// it exceeds this tolerance.
    pub residual_tolerance: f64,
    /// Thread-pool width for `predict_batch` (`0` = host parallelism).
    pub workers: usize,
    /// Factorization backend selection for the cached system.
    pub solver: EngineSolver,
    /// How `predict_batch` evaluates Eq. 6: dense kernel rows, or
    /// index-backed neighbor sums.
    pub query_path: QueryPath,
}

impl EngineConfig {
    /// Creates a configuration with the given kernel graph parameters and
    /// default policy: hard criterion, refactor every 64 updates,
    /// residual tolerance `1e-8`, auto-sized pool.
    pub fn new(kernel: Kernel, bandwidth: f64) -> Self {
        EngineConfig {
            kernel,
            bandwidth,
            criterion: ServeCriterion::Hard,
            refactor_every: 64,
            residual_tolerance: 1e-8,
            workers: 0,
            solver: EngineSolver::Direct,
            query_path: QueryPath::Dense,
        }
    }

    /// Selects the cached criterion.
    pub fn criterion(mut self, criterion: ServeCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Sets the periodic refactor interval (`0` disables it).
    pub fn refactor_every(mut self, every: usize) -> Self {
        self.refactor_every = every;
        self
    }

    /// Sets the residual-guard tolerance.
    pub fn residual_tolerance(mut self, tolerance: f64) -> Self {
        self.residual_tolerance = tolerance;
        self
    }

    /// Sets the thread-pool width (`0` = host parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Selects the factorization backend route.
    pub fn solver(mut self, solver: EngineSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the query evaluation path for Eq. 6.
    pub fn query_path(mut self, path: QueryPath) -> Self {
        self.query_path = path;
        self
    }

    /// Checks every parameter's domain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the bandwidth, residual
    /// tolerance or soft-criterion `λ` is outside its valid domain.
    pub fn validate(&self) -> Result<()> {
        if !self.bandwidth.is_finite() || !(self.bandwidth > 0.0) {
            return Err(Error::InvalidConfig {
                message: format!(
                    "bandwidth must be finite and positive, got {}",
                    self.bandwidth
                ),
            });
        }
        if !self.residual_tolerance.is_finite() || !(self.residual_tolerance > 0.0) {
            return Err(Error::InvalidConfig {
                message: format!(
                    "residual tolerance must be finite and positive, got {}",
                    self.residual_tolerance
                ),
            });
        }
        if let ServeCriterion::Soft { lambda } = self.criterion {
            if !lambda.is_finite() || !(lambda > 0.0) {
                return Err(Error::InvalidConfig {
                    message: format!(
                        "soft-criterion lambda must be finite and positive, got {lambda} \
                         (use ServeCriterion::Hard for the lambda = 0 limit)"
                    ),
                });
            }
        }
        match self.query_path {
            QueryPath::KNearest { k } if k == 0 => {
                return Err(Error::InvalidConfig {
                    message: "QueryPath::KNearest requires k >= 1".to_owned(),
                });
            }
            QueryPath::WithinSupport if !self.kernel.is_compactly_supported() => {
                return Err(Error::InvalidConfig {
                    message: format!(
                        "QueryPath::WithinSupport requires a compactly supported kernel \
                         (support radius ≈ bandwidth); {:?} has unbounded support — \
                         use QueryPath::Dense or QueryPath::KNearest instead",
                        self.kernel
                    ),
                });
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(EngineConfig::new(Kernel::Gaussian, 1.0).validate().is_ok());
    }

    #[test]
    fn builder_methods_set_fields() {
        let c = EngineConfig::new(Kernel::Boxcar, 0.5)
            .criterion(ServeCriterion::Soft { lambda: 0.1 })
            .refactor_every(7)
            .residual_tolerance(1e-6)
            .workers(3);
        assert_eq!(c.kernel, Kernel::Boxcar);
        assert_eq!(c.bandwidth, 0.5);
        assert_eq!(c.criterion, ServeCriterion::Soft { lambda: 0.1 });
        assert_eq!(c.refactor_every, 7);
        assert_eq!(c.residual_tolerance, 1e-6);
        assert_eq!(c.workers, 3);
    }

    #[test]
    fn solver_route_defaults_direct_and_is_selectable() {
        let c = EngineConfig::new(Kernel::Gaussian, 1.0);
        assert_eq!(c.solver, EngineSolver::Direct);
        let auto = c.solver(EngineSolver::Auto(SolverPolicy::default()));
        assert_eq!(auto.solver, EngineSolver::Auto(SolverPolicy::default()));
        assert!(auto.validate().is_ok());
    }

    #[test]
    fn query_path_defaults_dense_and_validates() {
        let c = EngineConfig::new(Kernel::Epanechnikov, 0.5);
        assert_eq!(c.query_path, QueryPath::Dense);
        assert!(c
            .clone()
            .query_path(QueryPath::KNearest { k: 4 })
            .validate()
            .is_ok());
        assert!(c
            .clone()
            .query_path(QueryPath::WithinSupport)
            .validate()
            .is_ok());
        // k = 0 keeps no neighbors at all.
        assert!(matches!(
            c.query_path(QueryPath::KNearest { k: 0 }).validate(),
            Err(Error::InvalidConfig { .. })
        ));
        // Gaussian support is the whole space; the ball of radius
        // `bandwidth` would silently drop non-zero weights.
        assert!(matches!(
            EngineConfig::new(Kernel::Gaussian, 0.5)
                .query_path(QueryPath::WithinSupport)
                .validate(),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_invalid_domains() {
        assert!(EngineConfig::new(Kernel::Gaussian, 0.0).validate().is_err());
        assert!(EngineConfig::new(Kernel::Gaussian, f64::NAN)
            .validate()
            .is_err());
        assert!(EngineConfig::new(Kernel::Gaussian, 1.0)
            .residual_tolerance(0.0)
            .validate()
            .is_err());
        assert!(EngineConfig::new(Kernel::Gaussian, 1.0)
            .criterion(ServeCriterion::Soft { lambda: 0.0 })
            .validate()
            .is_err());
        assert!(EngineConfig::new(Kernel::Gaussian, 1.0)
            .criterion(ServeCriterion::Soft {
                lambda: f64::INFINITY
            })
            .validate()
            .is_err());
    }
}
