//! Experiment definitions reproducing the paper's evaluation section.
//!
//! Each figure of the paper corresponds to one config type here; the
//! binaries in `src/bin/` wire them to the command line and the Criterion
//! benches reuse single repetitions as timed units.

use crate::runner::average_over_repetitions;
use gssl::{HardCriterion, Problem, SoftCriterion};
use gssl_datasets::coil::SyntheticCoil;
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_from_distances, affinity::pairwise_squared_distances, Kernel};
use gssl_stats::roc::auc;
use gssl_stats::split::KFold;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The λ grid of the synthetic figures (Figures 1–4).
pub const SYNTHETIC_LAMBDAS: [f64; 4] = [0.0, 0.01, 0.1, 5.0];

/// The λ grid of the COIL figure (Figure 5).
pub const COIL_LAMBDAS: [f64; 7] = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// The labeled-sample sizes of Figures 1 and 3.
pub const FIG1_N_VALUES: [usize; 10] = [10, 30, 50, 100, 200, 300, 500, 800, 1000, 1500];

/// The unlabeled-sample sizes of Figures 2 and 4.
pub const FIG2_M_VALUES: [usize; 6] = [30, 60, 100, 300, 500, 1000];

/// One measured point of a figure: a (λ, x) cell with its averaged metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Tuning parameter (0 = hard criterion).
    pub lambda: f64,
    /// The swept quantity (n for Figures 1/3, m for Figures 2/4, the
    /// labeled fraction for Figure 5).
    pub x: f64,
    /// Mean of the metric over repetitions (RMSE or AUC).
    pub mean: f64,
    /// Standard error of that mean.
    pub std_error: f64,
    /// Number of repetitions that contributed.
    pub repetitions: usize,
}

/// Configuration of one synthetic experiment cell (fixed `n`, `m`, model).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Which logit model generates responses.
    pub model: PaperModel,
    /// Labeled sample size `n`.
    pub n_labeled: usize,
    /// Unlabeled sample size `m`.
    pub n_unlabeled: usize,
    /// λ grid; 0 runs the hard criterion.
    pub lambdas: Vec<f64>,
    /// Monte-Carlo repetitions (paper: 1000).
    pub repetitions: usize,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's bandwidth for this cell: `σ = h_n = (log n / n)^{1/5}`.
    ///
    /// # Errors
    ///
    /// Returns the graph crate's error when `n_labeled < 2` (the rate is
    /// undefined).
    pub fn bandwidth(&self) -> gssl_graph::Result<f64> {
        gssl_graph::bandwidth::paper_rate(self.n_labeled, PAPER_DIM)
    }

    /// Runs one repetition: returns the RMSE of each λ (aligned with
    /// `self.lambdas`).
    ///
    /// # Errors
    ///
    /// Propagates data-generation and solver errors as a boxed error for
    /// the runner to surface.
    pub fn run_once(&self, repetition: usize) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(repetition as u64));
        let total = self.n_labeled + self.n_unlabeled;
        let dataset = paper_dataset(self.model, total, &mut rng)?;
        let ssl = dataset.arrange_prefix(self.n_labeled)?;
        let truth = ssl
            .hidden_truth
            .as_ref()
            .ok_or("paper datasets carry the true q(X)")?;

        // One affinity matrix per repetition, shared across the λ sweep.
        let h = self.bandwidth()?;
        let d2 = pairwise_squared_distances(&ssl.inputs)?;
        let w = affinity_from_distances(&d2, Kernel::Gaussian, h)?;
        let problem = Problem::new(w, ssl.labels.clone())?;

        let mut rmses = Vec::with_capacity(self.lambdas.len());
        for &lambda in &self.lambdas {
            let scores = if lambda == 0.0 {
                HardCriterion::new().fit(&problem)?
            } else {
                SoftCriterion::new(lambda)?.fit(&problem)?
            };
            rmses.push(gssl_stats::metrics::rmse(truth, scores.unlabeled())?);
        }
        Ok(rmses)
    }

    /// Runs all repetitions and aggregates one [`SeriesPoint`] per λ,
    /// with `x` set to `x_value`.
    ///
    /// # Errors
    ///
    /// Propagates the first repetition error encountered.
    pub fn run(&self, x_value: f64) -> Result<Vec<SeriesPoint>, Box<dyn std::error::Error>> {
        let per_rep = average_over_repetitions(self.repetitions, |r| self.run_once(r))?;
        Ok(aggregate(&self.lambdas, &per_rep, x_value))
    }
}

/// How the COIL data is split into labeled and unlabeled parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabeledRatio {
    /// 80% labeled / 20% unlabeled: 5 folds, four labeled (paper setting 1).
    FourFifths,
    /// 20% labeled / 80% unlabeled: 5 folds, one labeled (paper setting 2).
    OneFifth,
    /// 10% labeled / 90% unlabeled: 10 folds, one labeled (paper setting 3).
    OneTenth,
}

impl LabeledRatio {
    /// Labeled fraction as a number (for plotting).
    pub fn fraction(self) -> f64 {
        match self {
            LabeledRatio::FourFifths => 0.8,
            LabeledRatio::OneFifth => 0.2,
            LabeledRatio::OneTenth => 0.1,
        }
    }

    /// Human-readable name matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            LabeledRatio::FourFifths => "labeled-to-unlabeled ratio 80/20",
            LabeledRatio::OneFifth => "labeled-to-unlabeled ratio 20/80",
            LabeledRatio::OneTenth => "labeled-to-unlabeled ratio 10/90",
        }
    }

    /// All three ratios of Figure 5.
    pub fn all() -> [LabeledRatio; 3] {
        [
            LabeledRatio::FourFifths,
            LabeledRatio::OneFifth,
            LabeledRatio::OneTenth,
        ]
    }

    fn fold_count(self) -> usize {
        match self {
            LabeledRatio::FourFifths | LabeledRatio::OneFifth => 5,
            LabeledRatio::OneTenth => 10,
        }
    }

    fn train_is_single_fold(self) -> bool {
        !matches!(self, LabeledRatio::FourFifths)
    }
}

/// Configuration of the COIL experiment (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct CoilConfig {
    /// Images kept per class (paper: 250 → 1500 total; scale down for
    /// quick runs).
    pub images_per_class: usize,
    /// λ grid.
    pub lambdas: Vec<f64>,
    /// How many times the split-rotate protocol is repeated (paper: 100).
    pub repetitions: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl CoilConfig {
    /// Runs one repetition at `ratio`: renders a library, splits it with
    /// the paper's fold protocol, and returns the mean AUC per λ over the
    /// folds of this repetition.
    ///
    /// # Errors
    ///
    /// Propagates rendering, split and solver errors.
    pub fn run_once(
        &self,
        ratio: LabeledRatio,
        repetition: usize,
    ) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(repetition as u64));
        let coil = SyntheticCoil::builder()
            .images_per_class(self.images_per_class)
            .build(&mut rng)?;
        let dataset = coil.dataset();

        // The paper's kernel: Gaussian RBF with σ² the median pairwise
        // squared distance.
        let sigma = gssl_graph::bandwidth::median_heuristic(dataset.inputs())?;
        let d2 = pairwise_squared_distances(dataset.inputs())?;

        let kfold = KFold::new(ratio.fold_count())?;
        let splits = if ratio.train_is_single_fold() {
            kfold.inverted_splits(dataset.len(), &mut rng)?
        } else {
            kfold.splits(dataset.len(), &mut rng)?
        };

        let mut auc_sums = vec![0.0; self.lambdas.len()];
        for split in &splits {
            let ssl = dataset.arrange(&split.train)?;
            // Re-order the cached distance matrix to the arranged order.
            let order = &ssl.original_order;
            let total = order.len();
            let mut d2_arranged = gssl_linalg::Matrix::zeros(total, total);
            for (i, &oi) in order.iter().enumerate() {
                for (j, &oj) in order.iter().enumerate() {
                    d2_arranged.set(i, j, d2.get(oi, oj));
                }
            }
            let w = affinity_from_distances(&d2_arranged, Kernel::Gaussian, sigma)?;
            let problem = Problem::new(w, ssl.labels.clone())?;
            let truth = ssl.hidden_targets_binary();
            for (k, &lambda) in self.lambdas.iter().enumerate() {
                let scores = if lambda == 0.0 {
                    HardCriterion::new().fit(&problem)?
                } else {
                    SoftCriterion::new(lambda)?.fit(&problem)?
                };
                auc_sums[k] += auc(scores.unlabeled(), &truth)?;
            }
        }
        Ok(auc_sums
            .into_iter()
            .map(|s| s / splits.len() as f64)
            .collect())
    }

    /// Runs all repetitions at `ratio`, aggregating per-λ series points.
    ///
    /// # Errors
    ///
    /// Propagates the first repetition error encountered.
    pub fn run(&self, ratio: LabeledRatio) -> Result<Vec<SeriesPoint>, Box<dyn std::error::Error>> {
        let per_rep = average_over_repetitions(self.repetitions, |r| self.run_once(ratio, r))?;
        Ok(aggregate(&self.lambdas, &per_rep, ratio.fraction()))
    }
}

/// Aggregates per-repetition metric vectors (one entry per λ) into series
/// points with means and standard errors.
fn aggregate(lambdas: &[f64], per_rep: &[Vec<f64>], x_value: f64) -> Vec<SeriesPoint> {
    lambdas
        .iter()
        .enumerate()
        .map(|(k, &lambda)| {
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[k]).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let std_error = if values.len() > 1 {
                let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                    / (values.len() as f64 - 1.0);
                (var / values.len() as f64).sqrt()
            } else {
                0.0
            };
            SeriesPoint {
                lambda,
                x: x_value,
                mean,
                std_error,
                repetitions: values.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_synthetic(n: usize, m: usize) -> SyntheticConfig {
        SyntheticConfig {
            model: PaperModel::Linear,
            n_labeled: n,
            n_unlabeled: m,
            lambdas: vec![0.0, 0.1],
            repetitions: 3,
            seed: 7,
        }
    }

    #[test]
    fn synthetic_cell_produces_finite_rmses() {
        let config = tiny_synthetic(30, 10);
        let points = config.run(30.0).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.mean.is_finite() && p.mean > 0.0);
            assert!(p.std_error >= 0.0);
            assert_eq!(p.repetitions, 3);
            assert_eq!(p.x, 30.0);
        }
    }

    #[test]
    fn hard_beats_large_lambda_on_average() {
        // The paper's headline: RMSE grows with λ. Use λ = 5 for contrast
        // and a few more repetitions for stability.
        let config = SyntheticConfig {
            lambdas: vec![0.0, 5.0],
            repetitions: 8,
            ..tiny_synthetic(60, 15)
        };
        let points = config.run(60.0).unwrap();
        assert!(
            points[0].mean < points[1].mean,
            "hard ({}) should beat soft λ=5 ({})",
            points[0].mean,
            points[1].mean
        );
    }

    #[test]
    fn bandwidth_matches_paper_rate() {
        let config = tiny_synthetic(100, 30);
        let h = config.bandwidth().unwrap();
        assert!((h - (100f64.ln() / 100.0).powf(0.2)).abs() < 1e-15);
    }

    #[test]
    fn repetitions_are_reproducible() {
        let config = tiny_synthetic(25, 8);
        let a = config.run_once(0).unwrap();
        let b = config.run_once(0).unwrap();
        assert_eq!(a, b);
        let c = config.run_once(1).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn coil_cell_produces_valid_aucs() {
        let config = CoilConfig {
            images_per_class: 8,
            lambdas: vec![0.0, 1.0],
            repetitions: 2,
            seed: 3,
        };
        let points = config.run(LabeledRatio::OneFifth).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.mean), "AUC {}", p.mean);
            assert_eq!(p.x, 0.2);
        }
    }

    #[test]
    fn ratio_metadata() {
        assert_eq!(LabeledRatio::FourFifths.fraction(), 0.8);
        assert_eq!(LabeledRatio::OneTenth.fold_count(), 10);
        assert!(LabeledRatio::OneFifth.train_is_single_fold());
        assert!(!LabeledRatio::FourFifths.train_is_single_fold());
        assert!(LabeledRatio::OneTenth.label().contains("10/90"));
    }
}
