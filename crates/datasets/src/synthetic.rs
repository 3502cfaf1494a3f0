//! Synthetic data generators, including the paper's exact Models 1 and 2.
//!
//! Section V.A of the paper draws inputs from a 5-dimensional multivariate
//! normal with mean `(0.5, …, 0.5)` and covariance `0.05·11ᵀ + 0.05·I`
//! (0.1 on the diagonal, 0.05 off-diagonal), truncated to `[0, 1]` by
//! replacing out-of-range coordinates with 0; binary responses follow a
//! logistic model with either a linear (Model 1) or interaction (Model 2)
//! logit.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use gssl_linalg::{Matrix, Vector};
use gssl_stats::dist::{bernoulli, sigmoid, Normal, TruncatedMvn};
use rand::Rng;

/// Input dimension of the paper's synthetic models.
pub const PAPER_DIM: usize = 5;

/// Which of the paper's two logit models to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperModel {
    /// Model 1 (Eq. 11): linear logit
    /// `−1.35 + 2x₁ − x₂ + x₃ − x₄ + 2x₅`.
    Linear,
    /// Model 2: Model 1 plus the interactions `x₁x₃ + x₂x₄`.
    Interaction,
}

impl PaperModel {
    /// Evaluates the logit at an input point.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have [`PAPER_DIM`] coordinates.
    pub fn logit(self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), PAPER_DIM, "paper models use 5-dimensional inputs");
        let linear = -1.35 + 2.0 * x[0] - x[1] + x[2] - x[3] + 2.0 * x[4];
        match self {
            PaperModel::Linear => linear,
            PaperModel::Interaction => linear + x[0] * x[2] + x[1] * x[3],
        }
    }

    /// The true regression function `q(x) = P(Y = 1 | X = x)`.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have [`PAPER_DIM`] coordinates.
    pub fn probability(self, x: &[f64]) -> f64 {
        sigmoid(self.logit(x))
    }
}

/// The paper's input distribution: truncated `N(0.5·1, 0.05·11ᵀ + 0.05·I)`.
///
/// # Errors
///
/// Propagates construction errors (none occur for the fixed parameters;
/// the covariance is positive definite).
pub fn paper_input_distribution() -> Result<TruncatedMvn> {
    let mean = Vector::filled(PAPER_DIM, 0.5);
    let cov = Matrix::from_fn(PAPER_DIM, PAPER_DIM, |i, j| if i == j { 0.1 } else { 0.05 });
    Ok(TruncatedMvn::new(mean, &cov, 0.0, 1.0)?)
}

/// Generates `count` samples from one of the paper's synthetic models.
///
/// The returned [`Dataset`] carries both the binary responses and the true
/// probabilities `q(X_i)` that the paper's RMSE is measured against.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `count == 0`.
///
/// ```
/// use gssl_datasets::synthetic::{paper_dataset, PaperModel};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ds = paper_dataset(PaperModel::Linear, 50, &mut rng).unwrap();
/// assert_eq!(ds.len(), 50);
/// assert_eq!(ds.dim(), 5);
/// ```
pub fn paper_dataset(model: PaperModel, count: usize, rng: &mut impl Rng) -> Result<Dataset> {
    if count == 0 {
        return Err(Error::InvalidParameter {
            message: "count must be positive".to_owned(),
        });
    }
    let dist = paper_input_distribution()?;
    let inputs = dist.sample_matrix(rng, count);
    let mut targets = Vec::with_capacity(count);
    let mut truth = Vec::with_capacity(count);
    for i in 0..count {
        let q = model.probability(inputs.row(i));
        truth.push(q);
        targets.push(if bernoulli(rng, q)? { 1.0 } else { 0.0 });
    }
    Dataset::with_truth(inputs, targets, truth)
}

/// Two interleaving half-moons in 2-D — the classic manifold dataset that
/// motivates graph-based methods. Class 0 is the upper moon.
///
/// `noise` is the standard deviation of isotropic Gaussian jitter.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `count < 2` or `noise < 0`.
pub fn two_moons(count: usize, noise: f64, rng: &mut impl Rng) -> Result<Dataset> {
    if count < 2 {
        return Err(Error::InvalidParameter {
            message: format!("two_moons needs at least 2 samples, got {count}"),
        });
    }
    let jitter = Normal::new(0.0, noise)?;
    let upper = count / 2;
    let mut inputs = Matrix::zeros(count, 2);
    let mut targets = Vec::with_capacity(count);
    let mut truth = Vec::with_capacity(count);
    for i in 0..count {
        let is_upper = i < upper;
        let steps = if is_upper { upper } else { count - upper };
        let pos = if is_upper { i } else { i - upper };
        let t = std::f64::consts::PI * pos as f64 / (steps.max(2) - 1) as f64;
        let (x, y) = if is_upper {
            (t.cos(), t.sin())
        } else {
            (1.0 - t.cos(), 0.5 - t.sin())
        };
        inputs.set(i, 0, x + jitter.sample(rng));
        inputs.set(i, 1, y + jitter.sample(rng));
        targets.push(if is_upper { 0.0 } else { 1.0 });
        truth.push(if is_upper { 0.0 } else { 1.0 });
    }
    Dataset::with_truth(inputs, targets, truth)
}

/// Two concentric circles in 2-D; class 1 is the inner circle.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `count < 2`, `noise < 0`, or
/// the radii are not `0 < inner < outer`.
pub fn concentric_circles(
    count: usize,
    inner_radius: f64,
    outer_radius: f64,
    noise: f64,
    rng: &mut impl Rng,
) -> Result<Dataset> {
    if count < 2 {
        return Err(Error::InvalidParameter {
            message: format!("concentric_circles needs at least 2 samples, got {count}"),
        });
    }
    if !(0.0 < inner_radius && inner_radius < outer_radius) {
        return Err(Error::InvalidParameter {
            message: format!(
                "radii must satisfy 0 < inner < outer, got {inner_radius}, {outer_radius}"
            ),
        });
    }
    let jitter = Normal::new(0.0, noise)?;
    let inner_count = count / 2;
    let mut inputs = Matrix::zeros(count, 2);
    let mut targets = Vec::with_capacity(count);
    for i in 0..count {
        let is_inner = i < inner_count;
        let radius = if is_inner { inner_radius } else { outer_radius };
        let angle = rng.gen::<f64>() * std::f64::consts::TAU;
        inputs.set(i, 0, radius * angle.cos() + jitter.sample(rng));
        inputs.set(i, 1, radius * angle.sin() + jitter.sample(rng));
        targets.push(if is_inner { 1.0 } else { 0.0 });
    }
    let truth = targets.clone();
    Dataset::with_truth(inputs, targets, truth)
}

/// Isotropic Gaussian blobs with the given centers; the class of a sample
/// is the index of the center it was drawn around.
///
/// Targets are the class index as `f64` (0, 1, 2, …), suitable for the
/// one-vs-rest multiclass wrapper.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on empty inputs, mismatched center
/// dimensions, or `std_dev < 0`.
pub fn gaussian_blobs(
    samples_per_blob: usize,
    centers: &[Vec<f64>],
    std_dev: f64,
    rng: &mut impl Rng,
) -> Result<Dataset> {
    if samples_per_blob == 0 || centers.is_empty() {
        return Err(Error::InvalidParameter {
            message: "need at least one center and one sample per blob".to_owned(),
        });
    }
    let dim = centers[0].len();
    if dim == 0 || centers.iter().any(|c| c.len() != dim) {
        return Err(Error::InvalidParameter {
            message: "all centers must share a positive dimension".to_owned(),
        });
    }
    let jitter = Normal::new(0.0, std_dev)?;
    let total = samples_per_blob * centers.len();
    let mut inputs = Matrix::zeros(total, dim);
    let mut targets = Vec::with_capacity(total);
    for (class, center) in centers.iter().enumerate() {
        for s in 0..samples_per_blob {
            let row = class * samples_per_blob + s;
            for (j, &c) in center.iter().enumerate() {
                inputs.set(row, j, c + jitter.sample(rng));
            }
            targets.push(class as f64);
        }
    }
    let truth = targets.clone();
    Dataset::with_truth(inputs, targets, truth)
}

/// A Swiss-roll-style 2-D manifold embedded in 3-D: points along a spiral
/// `(t cos t, height, t sin t)`, labeled by whether they sit on the inner
/// or outer half of the roll. Euclidean neighbours across adjacent sheets
/// belong to different classes, so kernel regression fails while graph
/// propagation along the manifold succeeds — the classic illustration of
/// the manifold assumption the paper's introduction invokes.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `count < 2` or `noise < 0`.
pub fn swiss_roll(count: usize, noise: f64, rng: &mut impl Rng) -> Result<Dataset> {
    if count < 2 {
        return Err(Error::InvalidParameter {
            message: format!("swiss_roll needs at least 2 samples, got {count}"),
        });
    }
    let jitter = Normal::new(0.0, noise)?;
    let mut inputs = Matrix::zeros(count, 3);
    let mut targets = Vec::with_capacity(count);
    let t_min = 1.5 * std::f64::consts::PI;
    let t_max = 4.5 * std::f64::consts::PI;
    for i in 0..count {
        let u: f64 = rng.gen();
        let t = t_min + u * (t_max - t_min);
        let height: f64 = rng.gen::<f64>() * 10.0;
        inputs.set(i, 0, t * t.cos() + jitter.sample(rng));
        inputs.set(i, 1, height + jitter.sample(rng));
        inputs.set(i, 2, t * t.sin() + jitter.sample(rng));
        targets.push(if u < 0.5 { 0.0 } else { 1.0 });
    }
    let truth = targets.clone();
    Dataset::with_truth(inputs, targets, truth)
}

/// A 1-D noisy regression problem `y = sin(2πx) + ε` on `[0, 1]` — used to
/// exercise the regression (continuous-response) path of the criteria.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `count == 0` or
/// `noise_std < 0`.
pub fn sinusoidal_regression(count: usize, noise_std: f64, rng: &mut impl Rng) -> Result<Dataset> {
    if count == 0 {
        return Err(Error::InvalidParameter {
            message: "count must be positive".to_owned(),
        });
    }
    let noise = Normal::new(0.0, noise_std)?;
    let mut inputs = Matrix::zeros(count, 1);
    let mut targets = Vec::with_capacity(count);
    let mut truth = Vec::with_capacity(count);
    for i in 0..count {
        let x: f64 = rng.gen();
        let q = (std::f64::consts::TAU * x).sin();
        inputs.set(i, 0, x);
        truth.push(q);
        targets.push(q + noise.sample(rng));
    }
    Dataset::with_truth(inputs, targets, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn model1_logit_matches_eq_11() {
        let x = [1.0, 0.5, 0.25, 0.75, 0.1];
        let expected = -1.35 + 2.0 * 1.0 - 0.5 + 0.25 - 0.75 + 2.0 * 0.1;
        assert!((PaperModel::Linear.logit(&x) - expected).abs() < 1e-15);
    }

    #[test]
    fn model2_adds_interactions() {
        let x = [0.2, 0.4, 0.6, 0.8, 1.0];
        let diff = PaperModel::Interaction.logit(&x) - PaperModel::Linear.logit(&x);
        assert!((diff - (0.2 * 0.6 + 0.4 * 0.8)).abs() < 1e-15);
    }

    #[test]
    fn probabilities_are_valid() {
        let x = [0.5; 5];
        for model in [PaperModel::Linear, PaperModel::Interaction] {
            let p = model.probability(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn paper_dataset_shape_and_support() {
        let ds = paper_dataset(PaperModel::Linear, 200, &mut rng()).unwrap();
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.dim(), PAPER_DIM);
        // All inputs on the compact support [0, 1]^5.
        for v in ds.inputs().as_slice() {
            assert!((0.0..=1.0).contains(v));
        }
        // Targets are binary; truth in (0, 1).
        for (&y, &q) in ds.targets().iter().zip(ds.true_probabilities().unwrap()) {
            assert!(y == 0.0 || y == 1.0);
            assert!((0.0..1.0).contains(&q) || q == 0.0 || q < 1.0);
        }
    }

    #[test]
    fn paper_dataset_label_frequency_tracks_truth() {
        let ds = paper_dataset(PaperModel::Linear, 5_000, &mut rng()).unwrap();
        let mean_label: f64 = ds.targets().iter().sum::<f64>() / ds.len() as f64;
        let mean_truth: f64 =
            ds.true_probabilities().unwrap().iter().sum::<f64>() / ds.len() as f64;
        assert!((mean_label - mean_truth).abs() < 0.03);
    }

    #[test]
    fn paper_dataset_validates_count() {
        assert!(paper_dataset(PaperModel::Linear, 0, &mut rng()).is_err());
    }

    #[test]
    fn two_moons_classes_are_separated_without_noise() {
        let ds = two_moons(100, 0.0, &mut rng()).unwrap();
        assert_eq!(ds.len(), 100);
        // Upper moon has y >= 0; lower moon has y <= 0.5.
        for i in 0..ds.len() {
            let y = ds.inputs().get(i, 1);
            if ds.targets()[i] == 0.0 {
                assert!(y >= -1e-12);
            } else {
                assert!(y <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn circles_have_expected_radii() {
        let ds = concentric_circles(200, 1.0, 3.0, 0.0, &mut rng()).unwrap();
        for i in 0..ds.len() {
            let r = (ds.inputs().get(i, 0).powi(2) + ds.inputs().get(i, 1).powi(2)).sqrt();
            if ds.targets()[i] == 1.0 {
                assert!((r - 1.0).abs() < 1e-9);
            } else {
                assert!((r - 3.0).abs() < 1e-9);
            }
        }
        assert!(concentric_circles(100, 3.0, 1.0, 0.0, &mut rng()).is_err());
    }

    #[test]
    fn blobs_cluster_around_centers() {
        let centers = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        let ds = gaussian_blobs(50, &centers, 0.5, &mut rng()).unwrap();
        assert_eq!(ds.len(), 100);
        for i in 0..ds.len() {
            let class = ds.targets()[i] as usize;
            let c = &centers[class];
            let d2: f64 = (0..2).map(|j| (ds.inputs().get(i, j) - c[j]).powi(2)).sum();
            assert!(d2.sqrt() < 5.0, "sample {i} strayed from its center");
        }
        assert!(gaussian_blobs(0, &centers, 0.5, &mut rng()).is_err());
        assert!(gaussian_blobs(5, &[], 0.5, &mut rng()).is_err());
        assert!(gaussian_blobs(5, &[vec![0.0], vec![0.0, 1.0]], 0.5, &mut rng()).is_err());
    }

    #[test]
    fn swiss_roll_lives_on_the_spiral() {
        let ds = swiss_roll(300, 0.0, &mut rng()).unwrap();
        assert_eq!(ds.dim(), 3);
        for i in 0..ds.len() {
            let x = ds.inputs().get(i, 0);
            let z = ds.inputs().get(i, 2);
            let radius = (x * x + z * z).sqrt();
            // Radius equals the spiral parameter t in [1.5π, 4.5π].
            let t_min = 1.5 * std::f64::consts::PI;
            let t_max = 4.5 * std::f64::consts::PI;
            assert!(radius >= t_min - 1e-9 && radius <= t_max + 1e-9);
            // Class is determined by the radius midpoint.
            let expected = if radius < (t_min + t_max) / 2.0 {
                0.0
            } else {
                1.0
            };
            assert_eq!(ds.targets()[i], expected, "sample {i} at radius {radius}");
        }
        assert!(swiss_roll(1, 0.0, &mut rng()).is_err());
        assert!(swiss_roll(10, -0.1, &mut rng()).is_err());
    }

    #[test]
    fn swiss_roll_has_both_classes() {
        let ds = swiss_roll(200, 0.05, &mut rng()).unwrap();
        let positives = ds.targets().iter().filter(|&&y| y > 0.5).count();
        assert!(positives > 50 && positives < 150);
    }

    #[test]
    fn sinusoid_truth_is_noise_free() {
        let ds = sinusoidal_regression(100, 0.3, &mut rng()).unwrap();
        for i in 0..ds.len() {
            let x = ds.inputs().get(i, 0);
            let q = ds.true_probabilities().unwrap()[i];
            assert!((q - (std::f64::consts::TAU * x).sin()).abs() < 1e-12);
        }
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let a = paper_dataset(PaperModel::Interaction, 30, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = paper_dataset(PaperModel::Interaction, 30, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
