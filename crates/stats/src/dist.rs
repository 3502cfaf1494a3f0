//! Sampling distributions built on the `rand` core RNG.
//!
//! `rand_distr` is not on the approved dependency list, so the normal
//! sampler (Box–Muller) and the Cholesky-based multivariate normal are
//! implemented here. [`TruncatedMvn`](crate::dist::TruncatedMvn)
//! reproduces the paper's exact input distribution: a multivariate normal
//! whose coordinates are *replaced by zero* when they fall outside
//! `[0, 1]` (Section V.A).

use crate::error::{Error, Result};
use gssl_linalg::{Cholesky, Matrix, Vector};
use rand::Rng;

/// A univariate normal distribution sampled by the Box–Muller transform.
///
/// ```
/// use gssl_stats::dist::Normal;
/// use rand::SeedableRng;
/// let normal = Normal::new(1.0, 2.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = normal.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `std_dev < 0` or either
    /// parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "normal requires finite mean and std_dev >= 0, got ({mean}, {std_dev})"
                ),
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }

    /// Draws `count` samples.
    pub fn sample_vec(&self, rng: &mut impl Rng, count: usize) -> Vec<f64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// One standard-normal draw via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A multivariate normal `N(μ, Σ)` sampled via the Cholesky factor of `Σ`.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vector,
    /// Lower Cholesky factor of the covariance.
    factor: Matrix,
}

impl MultivariateNormal {
    /// Creates the distribution from a mean vector and covariance matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::LengthMismatch`] when `mean.len() != covariance.rows()`.
    /// * [`Error::Linalg`] when the covariance is not symmetric positive
    ///   definite.
    pub fn new(mean: Vector, covariance: &Matrix) -> Result<Self> {
        if mean.len() != covariance.rows() {
            return Err(Error::LengthMismatch {
                operation: "multivariate normal",
                left: mean.len(),
                right: covariance.rows(),
            });
        }
        let chol = Cholesky::factor(covariance)?;
        Ok(MultivariateNormal {
            mean,
            factor: chol.lower().clone(),
        })
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Draws one sample as `μ + L z` with `z` standard normal.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        let d = self.dim();
        let z: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
        let mut out = vec![0.0; d];
        for i in 0..d {
            let mut sum = self.mean[i];
            // L is lower triangular: only j <= i contribute.
            for (j, zj) in z.iter().enumerate().take(i + 1) {
                sum += self.factor.get(i, j) * zj;
            }
            out[i] = sum;
        }
        out
    }

    /// Draws `count` samples as rows of a matrix.
    pub fn sample_matrix(&self, rng: &mut impl Rng, count: usize) -> Matrix {
        let d = self.dim();
        let mut out = Matrix::zeros(count, d);
        for i in 0..count {
            let row = self.sample(rng);
            out.row_mut(i).copy_from_slice(&row);
        }
        out
    }
}

/// The paper's truncated multivariate normal: draw `X̃ ~ N(μ, Σ)` and set
/// each coordinate `X_k = X̃_k` if `X̃_k ∈ [lower, upper]`, else `X_k = 0`.
///
/// With the paper's parameters (`μ = 0.5·1`, `Σ = 0.05·1·1ᵀ + 0.05·I`,
/// bounds `[0, 1]`) this produces inputs on a compact support, as
/// Theorem II.1 requires.
#[derive(Debug, Clone)]
pub struct TruncatedMvn {
    inner: MultivariateNormal,
    lower: f64,
    upper: f64,
}

impl TruncatedMvn {
    /// Creates the truncated distribution.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when `lower >= upper`.
    /// * Propagates [`MultivariateNormal::new`] errors.
    pub fn new(mean: Vector, covariance: &Matrix, lower: f64, upper: f64) -> Result<Self> {
        if !(lower < upper) {
            return Err(Error::InvalidParameter {
                message: format!(
                    "truncation bounds must satisfy lower < upper, got [{lower}, {upper}]"
                ),
            });
        }
        Ok(TruncatedMvn {
            inner: MultivariateNormal::new(mean, covariance)?,
            lower,
            upper,
        })
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// Draws one sample with the paper's zero-replacement truncation rule.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        self.inner
            .sample(rng)
            .into_iter()
            .map(|x| {
                if (self.lower..=self.upper).contains(&x) {
                    x
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Draws `count` samples as rows of a matrix.
    pub fn sample_matrix(&self, rng: &mut impl Rng, count: usize) -> Matrix {
        let d = self.dim();
        let mut out = Matrix::zeros(count, d);
        for i in 0..count {
            let row = self.sample(rng);
            out.row_mut(i).copy_from_slice(&row);
        }
        out
    }
}

/// The logistic sigmoid `1 / (1 + e^{−t})`.
///
/// ```
/// use gssl_stats::dist::sigmoid;
/// assert_eq!(sigmoid(0.0), 0.5);
/// assert!(sigmoid(10.0) > 0.999);
/// ```
pub fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        // Numerically stable branch for very negative t.
        let e = t.exp();
        e / (1.0 + e)
    }
}

/// The logit `log(p / (1 − p))`, inverse of [`sigmoid`].
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `p` is outside `(0, 1)`.
pub fn logit(p: f64) -> Result<f64> {
    if !(0.0 < p && p < 1.0) {
        return Err(Error::InvalidParameter {
            message: format!("logit requires p in (0, 1), got {p}"),
        });
    }
    Ok((p / (1.0 - p)).ln())
}

/// Draws a Bernoulli sample with success probability `p`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `p` is outside `[0, 1]`.
pub fn bernoulli(rng: &mut impl Rng, p: f64) -> Result<bool> {
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::InvalidParameter {
            message: format!("bernoulli requires p in [0, 1], got {p}"),
        });
    }
    Ok(rng.gen::<f64>() < p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_validates_parameters() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        let n = Normal::new(2.0, 3.0).unwrap();
        assert_eq!(n.mean(), 2.0);
        assert_eq!(n.std_dev(), 3.0);
    }

    #[test]
    fn normal_sample_moments() {
        let normal = Normal::new(1.5, 0.5).unwrap();
        let mut r = rng();
        let xs = normal.sample_vec(&mut r, 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.5).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn degenerate_normal_is_constant() {
        let normal = Normal::new(3.0, 0.0).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(normal.sample(&mut r), 3.0);
        }
    }

    /// The paper's covariance: 0.05 everywhere + 0.05 on the diagonal.
    fn paper_covariance(d: usize) -> Matrix {
        Matrix::from_fn(d, d, |i, j| if i == j { 0.1 } else { 0.05 })
    }

    #[test]
    fn mvn_sample_moments_match_parameters() {
        let d = 3;
        let mean = Vector::filled(d, 0.5);
        let mvn = MultivariateNormal::new(mean, &paper_covariance(d)).unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 30_000);
        for j in 0..d {
            let col = samples.col(j);
            let m = col.mean();
            assert!((m - 0.5).abs() < 0.02, "coordinate {j} mean {m}");
            let var = col.iter().map(|x| (x - m).powi(2)).sum::<f64>() / col.len() as f64;
            assert!((var - 0.1).abs() < 0.02, "coordinate {j} var {var}");
        }
        // Off-diagonal covariance ~ 0.05.
        let c0 = samples.col(0);
        let c1 = samples.col(1);
        let (m0, m1) = (c0.mean(), c1.mean());
        let cov = c0
            .iter()
            .zip(c1.iter())
            .map(|(a, b)| (a - m0) * (b - m1))
            .sum::<f64>()
            / c0.len() as f64;
        assert!((cov - 0.05).abs() < 0.02, "cov {cov}");
    }

    #[test]
    fn mvn_validates_inputs() {
        let bad_cov = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(MultivariateNormal::new(Vector::zeros(2), &bad_cov).is_err());
        assert!(MultivariateNormal::new(Vector::zeros(3), &Matrix::identity(2)).is_err());
    }

    #[test]
    fn truncated_mvn_respects_bounds_or_zero() {
        let d = 5;
        let mvn =
            TruncatedMvn::new(Vector::filled(d, 0.5), &paper_covariance(d), 0.0, 1.0).unwrap();
        assert_eq!(mvn.dim(), d);
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 500);
        for i in 0..samples.rows() {
            for &x in samples.row(i) {
                assert!((0.0..=1.0).contains(&x), "coordinate {x} out of range");
            }
        }
    }

    #[test]
    fn truncated_mvn_produces_some_zeros_under_wide_noise() {
        // With a huge variance most draws land outside [0,1] and become 0.
        let cov = Matrix::from_diag(&[100.0, 100.0]);
        let mvn = TruncatedMvn::new(Vector::zeros(2), &cov, 0.0, 1.0).unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 200);
        let zeros = samples.as_slice().iter().filter(|&&x| x == 0.0).count();
        assert!(zeros > 200, "expected mostly zeros, got {zeros}/400");
    }

    #[test]
    fn truncated_mvn_validates_bounds() {
        assert!(TruncatedMvn::new(Vector::zeros(1), &Matrix::identity(1), 1.0, 0.0).is_err());
        assert!(TruncatedMvn::new(Vector::zeros(1), &Matrix::identity(1), 1.0, 1.0).is_err());
    }

    #[test]
    fn sigmoid_and_logit_are_inverse() {
        for &p in &[0.01, 0.3, 0.5, 0.77, 0.99] {
            assert!((sigmoid(logit(p).unwrap()) - p).abs() < 1e-12);
        }
        assert!(logit(0.0).is_err());
        assert!(logit(1.0).is_err());
        // Stability at extremes.
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut r = rng();
        let hits = (0..10_000)
            .filter(|_| bernoulli(&mut r, 0.3).unwrap())
            .count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
        assert!(bernoulli(&mut r, 1.5).is_err());
        assert!(bernoulli(&mut r, -0.1).is_err());
    }
}
