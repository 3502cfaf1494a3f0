//! The Nadaraya–Watson kernel-regression estimator (Eq. 6 of the paper).
//!
//! ```text
//! q̂_{n+a} = Σ_{i≤n} w_{n+a,i} Y_i / Σ_{k≤n} w_{n+a,k}
//! ```
//!
//! The paper's Theorem II.1 proves hard-criterion consistency by coupling
//! the hard solution to this estimator: the gap `g_{n+a}` between the two
//! (see [`crate::theory`]) vanishes in probability when `m = o(n h_n^d)`.

use crate::error::{Error, Result};
use crate::problem::{Problem, Scores};
use crate::traits::TransductiveModel;
use gssl_graph::{affinity::pairwise_squared_distances, Kernel};
use gssl_linalg::{strict, Matrix};

/// The Nadaraya–Watson estimator applied transductively: each unlabeled
/// vertex is scored by the similarity-weighted mean of the *labeled*
/// responses only (unlabeled–unlabeled similarities are ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NadarayaWatson {
    _private: (),
}

impl NadarayaWatson {
    /// Creates the estimator.
    pub fn new() -> Self {
        NadarayaWatson::default()
    }

    /// Scores the unlabeled vertices of a prebuilt problem.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroKernelMass`] when some unlabeled vertex has no
    /// similarity mass on the labeled set (possible with compactly
    /// supported kernels).
    pub fn fit(&self, problem: &Problem) -> Result<Scores> {
        let blocks = problem.weight_blocks()?;
        let y = problem.labels();
        let m = problem.n_unlabeled();
        let mut unlabeled = Vec::with_capacity(m);
        for a in 0..m {
            let row = blocks.a21.row(a);
            let mass: f64 = row.iter().sum();
            if mass <= 0.0 {
                return Err(Error::ZeroKernelMass { unlabeled_index: a });
            }
            let weighted: f64 = row.iter().zip(y).map(|(w, yi)| w * yi).sum();
            unlabeled.push(weighted / mass);
        }
        strict::check_finite("nadaraya-watson output", &unlabeled)?;
        Ok(Scores::from_parts(y, &unlabeled))
    }

    /// Classic inductive kernel regression: predicts at arbitrary query
    /// points from `(train_inputs, train_targets)`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidProblem`] on length mismatches or empty training
    ///   data.
    /// * [`Error::Graph`] when the bandwidth is invalid.
    /// * [`Error::ZeroKernelMass`] when a query sees no training mass.
    ///
    /// hot
    /// complexity: O(q * n * d)
    pub fn predict(
        &self,
        train_inputs: &Matrix,
        train_targets: &[f64],
        queries: &Matrix,
        kernel: Kernel,
        bandwidth: f64,
    ) -> Result<Vec<f64>> {
        if train_inputs.rows() != train_targets.len() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "{} training inputs but {} targets",
                    train_inputs.rows(),
                    train_targets.len()
                ),
            });
        }
        if train_inputs.rows() == 0 {
            return Err(Error::InvalidProblem {
                message: "training set is empty".to_owned(),
            });
        }
        if train_inputs.cols() != queries.cols() {
            return Err(Error::InvalidProblem {
                message: format!(
                    "training dimension {} differs from query dimension {}",
                    train_inputs.cols(),
                    queries.cols()
                ),
            });
        }
        // Validate the bandwidth once for the whole batch; the per-pair
        // loop then evaluates the kernel without re-checking arguments
        // (squared distances are nonnegative by construction).
        kernel.weight(0.0, bandwidth)?;
        let mut out = Vec::with_capacity(queries.rows());
        for q in 0..queries.rows() {
            let query_row = queries.row(q);
            let mut mass = 0.0;
            let mut weighted = 0.0;
            for (i, &target) in train_targets.iter().enumerate() {
                let d2 = gssl_graph::bandwidth::squared_distance(query_row, train_inputs.row(i));
                let w = kernel.weight_unchecked(d2, bandwidth);
                mass += w;
                weighted += w * target;
            }
            if mass <= 0.0 {
                return Err(Error::ZeroKernelMass { unlabeled_index: q });
            }
            out.push(weighted / mass);
        }
        strict::check_finite("nadaraya-watson predictions", &out)?;
        Ok(out)
    }
}

impl TransductiveModel for NadarayaWatson {
    fn fit(&self, problem: &Problem) -> Result<Scores> {
        NadarayaWatson::fit(self, problem)
    }

    fn name(&self) -> String {
        "nadaraya-watson".to_owned()
    }
}

/// Builds a [`Problem`]-compatible affinity matrix and immediately runs
/// kernel regression on raw points (labeled rows first) — a convenience
/// mirroring the paper's experimental pipeline.
///
/// # Errors
///
/// Propagates graph-construction and estimator errors.
/// hot
/// complexity: O(n^2 * d)
pub fn kernel_regression(
    points: &Matrix,
    labels: &[f64],
    kernel: Kernel,
    bandwidth: f64,
) -> Result<Vec<f64>> {
    let n = labels.len();
    if n == 0 || n > points.rows() {
        return Err(Error::InvalidProblem {
            message: format!("{} labels for {} points", n, points.rows()),
        });
    }
    let d2 = pairwise_squared_distances(points)?;
    // One bandwidth check for the whole sweep, as in `predict`.
    kernel.weight(0.0, bandwidth)?;
    let mut out = Vec::with_capacity(points.rows() - n);
    for q in n..points.rows() {
        let mut mass = 0.0;
        let mut weighted = 0.0;
        for (i, &label) in labels.iter().enumerate() {
            let w = kernel.weight_unchecked(d2.get(q, i), bandwidth);
            mass += w;
            weighted += w * label;
        }
        if mass <= 0.0 {
            return Err(Error::ZeroKernelMass {
                unlabeled_index: q - n,
            });
        }
        out.push(weighted / mass);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_average_of_labeled_responses() {
        // Unlabeled vertex 2 with similarities 3 and 1 to labels 1 and 0.
        let w =
            Matrix::from_rows(&[&[1.0, 0.0, 0.75], &[0.0, 1.0, 0.25], &[0.75, 0.25, 1.0]]).unwrap();
        let p = Problem::new(w, vec![1.0, 0.0]).unwrap();
        let scores = NadarayaWatson::new().fit(&p).unwrap();
        assert!((scores.unlabeled()[0] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn ignores_unlabeled_unlabeled_similarity() {
        // Two unlabeled vertices strongly tied to each other must not
        // influence each other's NW score.
        let w =
            Matrix::from_rows(&[&[1.0, 0.5, 0.5], &[0.5, 1.0, 0.99], &[0.5, 0.99, 1.0]]).unwrap();
        let p = Problem::new(w, vec![1.0]).unwrap();
        let scores = NadarayaWatson::new().fit(&p).unwrap();
        // Both unlabeled vertices see only the single labeled y = 1.
        assert_eq!(scores.unlabeled(), &[1.0, 1.0]);
    }

    #[test]
    fn zero_mass_is_detected() {
        let w = Matrix::from_rows(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 1.0]]).unwrap();
        // Vertex 1 is unlabeled with zero similarity to the only labeled
        // vertex 0.
        let p = Problem::new(w, vec![1.0]).unwrap();
        let result = NadarayaWatson::new().fit(&p);
        assert_eq!(result, Err(Error::ZeroKernelMass { unlabeled_index: 0 }));
    }

    #[test]
    fn inductive_predict_matches_transductive_fit() {
        let points = Matrix::from_rows(&[&[0.0], &[1.0], &[0.4], &[0.7]]).unwrap();
        let labels = [0.0, 1.0];
        let p = Problem::from_points(&points, labels.to_vec(), Kernel::Gaussian, 0.8).unwrap();
        let transductive = NadarayaWatson::new().fit(&p).unwrap();
        let train = points.submatrix(0, 2, 0, 1);
        let queries = points.submatrix(2, 4, 0, 1);
        let inductive = NadarayaWatson::new()
            .predict(&train, &labels, &queries, Kernel::Gaussian, 0.8)
            .unwrap();
        for (t, i) in transductive.unlabeled().iter().zip(&inductive) {
            assert!((t - i).abs() < 1e-12);
        }
        // And the helper agrees too.
        let helper = kernel_regression(&points, &labels, Kernel::Gaussian, 0.8).unwrap();
        for (t, h) in transductive.unlabeled().iter().zip(&helper) {
            assert!((t - h).abs() < 1e-12);
        }
    }

    #[test]
    fn predict_validates_inputs() {
        let nw = NadarayaWatson::new();
        let train = Matrix::zeros(2, 3);
        let queries = Matrix::zeros(1, 3);
        assert!(nw
            .predict(&train, &[1.0], &queries, Kernel::Gaussian, 1.0)
            .is_err());
        assert!(nw
            .predict(&Matrix::zeros(0, 3), &[], &queries, Kernel::Gaussian, 1.0)
            .is_err());
        assert!(nw
            .predict(
                &train,
                &[1.0, 0.0],
                &Matrix::zeros(1, 2),
                Kernel::Gaussian,
                1.0
            )
            .is_err());
        assert!(nw
            .predict(&train, &[1.0, 0.0], &queries, Kernel::Gaussian, 0.0)
            .is_err());
    }

    #[test]
    fn compact_kernel_far_query_has_zero_mass() {
        let train = Matrix::from_rows(&[&[0.0]]).unwrap();
        let queries = Matrix::from_rows(&[&[100.0]]).unwrap();
        let result = NadarayaWatson::new().predict(&train, &[1.0], &queries, Kernel::Boxcar, 1.0);
        assert_eq!(result, Err(Error::ZeroKernelMass { unlabeled_index: 0 }));
    }

    #[test]
    fn constant_labels_are_reproduced_exactly() {
        let points = Matrix::from_rows(&[&[0.0], &[0.5], &[0.9], &[0.3]]).unwrap();
        let scores = kernel_regression(&points, &[0.7, 0.7], Kernel::Gaussian, 1.0).unwrap();
        for s in scores {
            assert!((s - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn scores_respect_label_range() {
        let points = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[0.5], &[1.5]]).unwrap();
        let scores = kernel_regression(&points, &[0.0, 1.0, 0.5], Kernel::Gaussian, 0.7).unwrap();
        for s in scores {
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
