//! One-vs-rest multiclass wrapper over any binary transductive criterion.
//!
//! The COIL benchmark is natively a 6-class problem that the paper reduces
//! to binary; this wrapper handles the multiclass case directly, scoring
//! one indicator problem per class and predicting the argmax — the
//! standard extension of harmonic functions to `k` classes.

use crate::error::{Error, Result};
use crate::problem::Problem;
use crate::traits::TransductiveModel;
use gssl_linalg::Matrix;

/// Multiclass scores: one column of per-class evidence per vertex, and the
/// argmax predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassScores {
    /// `(n + m) × k` matrix of per-class scores.
    scores: Matrix,
    /// Number of labeled vertices.
    n_labeled: usize,
}

impl MulticlassScores {
    /// Assembles scores from a prebuilt `(n + m) × k` matrix.
    pub(crate) fn from_matrix(scores: Matrix, n_labeled: usize) -> Self {
        MulticlassScores { scores, n_labeled }
    }

    /// Per-class score matrix (rows = vertices, columns = classes).
    /// shape: (n, k)
    pub fn scores(&self) -> &Matrix {
        &self.scores
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.scores.cols()
    }

    /// Argmax class of every vertex.
    pub fn predictions(&self) -> Vec<usize> {
        (0..self.scores.rows())
            .map(|i| {
                let row = self.scores.row(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(k, _)| k)
            })
            .collect()
    }

    /// Argmax class of the unlabeled vertices only.
    pub fn unlabeled_predictions(&self) -> Vec<usize> {
        self.predictions().split_off(self.n_labeled)
    }
}

/// One-vs-rest reduction: fits the wrapped binary criterion once per class
/// with indicator labels.
#[derive(Debug)]
pub struct OneVsRest<M> {
    model: M,
    class_count: usize,
    executor: gssl_runtime::Executor,
}

impl<M: TransductiveModel> OneVsRest<M> {
    /// Wraps `model` for a `class_count`-way problem.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `class_count < 2`.
    pub fn new(model: M, class_count: usize) -> Result<Self> {
        if class_count < 2 {
            return Err(Error::InvalidParameter {
                message: format!("multiclass needs >= 2 classes, got {class_count}"),
            });
        }
        Ok(OneVsRest {
            model,
            class_count,
            executor: gssl_runtime::Executor::default(),
        })
    }

    /// Borrows the wrapped binary model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: TransductiveModel + Sync> OneVsRest<M> {
    /// Fits classes as parallel tasks on `executor` — one indicator
    /// problem per task. Scores are bit-identical to the sequential fit:
    /// every class is solved by exactly one worker with the sequential
    /// code, and columns are assembled in class order.
    #[must_use]
    pub fn with_executor(mut self, executor: gssl_runtime::Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Fits one indicator problem per class (in parallel when an executor
    /// was attached with [`OneVsRest::with_executor`]).
    ///
    /// `class_labels[i]` is the class of labeled vertex `i` and must be
    /// `< class_count`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidProblem`] when labels are out of range or counts
    ///   mismatch the weight matrix.
    /// * Propagates per-class fitting errors from the wrapped model (the
    ///   lowest-class error wins under parallel execution, matching the
    ///   sequential loop's first failure).
    ///
    /// deterministic
    pub fn fit(&self, weights: &Matrix, class_labels: &[usize]) -> Result<MulticlassScores> {
        if let Some(&bad) = class_labels.iter().find(|&&c| c >= self.class_count) {
            return Err(Error::InvalidProblem {
                message: format!(
                    "class label {bad} out of range for {} classes",
                    self.class_count
                ),
            });
        }
        let n = class_labels.len();
        let total = weights.rows();
        let classes: Vec<usize> = (0..self.class_count).collect();
        let columns: Vec<Vec<f64>> = self.executor.map(&classes, |_, &class| {
            let indicator: Vec<f64> = class_labels
                .iter()
                .map(|&c| if c == class { 1.0 } else { 0.0 })
                .collect();
            let problem = Problem::new(weights.clone(), indicator)?;
            Ok::<_, Error>(self.model.fit(&problem)?.all().to_vec())
        })?;
        let mut scores = Matrix::zeros(total, self.class_count);
        for (class, column) in columns.iter().enumerate() {
            for (i, &s) in column.iter().enumerate() {
                scores.set(i, class, s);
            }
        }
        Ok(MulticlassScores {
            scores,
            n_labeled: n,
        })
    }
}

impl OneVsRest<crate::hard::HardCriterion> {
    /// Shared-factorization fast path for the hard criterion: the system
    /// `D₂₂ − W₂₂` does not depend on the class, so it is factored once
    /// and all class right-hand sides are solved through `solve_matrix`.
    /// Produces scores identical to [`OneVsRest::fit`] at `O(m³ + k·m²)`
    /// instead of `O(k·m³)` cost.
    ///
    /// # Errors
    ///
    /// Same contract as [`OneVsRest::fit`].
    /// deterministic
    pub fn fit_factored(
        &self,
        weights: &Matrix,
        class_labels: &[usize],
    ) -> Result<MulticlassScores> {
        self.model
            .fit_multiclass(weights, class_labels, self.class_count)
    }
}

impl<M: TransductiveModel> TransductiveModel for OneVsRest<M> {
    /// Treats the problem's (binary) labels as classes `{0, 1}` and
    /// returns the positive-class scores, making `OneVsRest` usable
    /// wherever a binary model is expected.
    fn fit(&self, problem: &Problem) -> Result<crate::problem::Scores> {
        self.model.fit(problem)
    }

    fn name(&self) -> String {
        format!("one-vs-rest({})", self.model.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::HardCriterion;

    /// Three tight clusters of two vertices each; one labeled per cluster.
    fn three_cluster_weights() -> (Matrix, Vec<usize>) {
        let mut w = Matrix::identity(6);
        // Arrange labeled first: vertices 0,1,2 labeled with classes 0,1,2;
        // vertices 3,4,5 unlabeled, each tied to one labeled vertex.
        let ties = [(0usize, 3usize), (1, 4), (2, 5)];
        for &(a, b) in &ties {
            w.set(a, b, 0.9);
            w.set(b, a, 0.9);
        }
        // Weak background connectivity so the graph is connected.
        for i in 0..6 {
            for j in (i + 1)..6 {
                if w.get(i, j) == 0.0 {
                    w.set(i, j, 0.01);
                    w.set(j, i, 0.01);
                }
            }
        }
        (w, vec![0, 1, 2])
    }

    #[test]
    fn recovers_cluster_classes() {
        let (w, labels) = three_cluster_weights();
        let ovr = OneVsRest::new(HardCriterion::new(), 3).unwrap();
        let scores = ovr.fit(&w, &labels).unwrap();
        assert_eq!(scores.class_count(), 3);
        assert_eq!(scores.predictions()[..3], [0, 1, 2]);
        assert_eq!(scores.unlabeled_predictions(), vec![0, 1, 2]);
    }

    #[test]
    fn per_class_scores_are_probability_like() {
        let (w, labels) = three_cluster_weights();
        let ovr = OneVsRest::new(HardCriterion::new(), 3).unwrap();
        let scores = ovr.fit(&w, &labels).unwrap();
        for i in 0..6 {
            let row_sum: f64 = scores.scores().row(i).iter().sum();
            // Harmonic one-vs-rest scores sum to 1 exactly (the indicator
            // vectors sum to the all-ones labeling).
            assert!((row_sum - 1.0).abs() < 1e-9, "row {i} sums to {row_sum}");
        }
    }

    #[test]
    fn shared_factorization_matches_per_class_path() {
        // The satellite contract: factoring `D₂₂ − W₂₂` once and solving
        // all class columns through `solve_matrix` must reproduce the
        // per-class refactoring path score for score.
        let (w, labels) = three_cluster_weights();
        let ovr = OneVsRest::new(HardCriterion::new(), 3).unwrap();
        let per_class = ovr.fit(&w, &labels).unwrap();
        let factored = ovr.fit_factored(&w, &labels).unwrap();
        assert_eq!(factored.class_count(), per_class.class_count());
        for i in 0..6 {
            for c in 0..3 {
                let a = per_class.scores().get(i, c);
                let b = factored.scores().get(i, c);
                assert!(
                    (a - b).abs() < 1e-12,
                    "vertex {i} class {c}: per-class {a} vs factored {b}"
                );
            }
        }
        assert_eq!(factored.predictions(), per_class.predictions());
        assert_eq!(
            factored.unlabeled_predictions(),
            per_class.unlabeled_predictions()
        );
    }

    #[test]
    fn shared_factorization_agrees_across_backends() {
        use crate::hard::HardSolver;
        let (w, labels) = three_cluster_weights();
        let reference = HardCriterion::new().fit_multiclass(&w, &labels, 3).unwrap();
        for solver in [HardSolver::Lu, HardSolver::Cholesky] {
            let scores = HardCriterion::new()
                .solver(solver)
                .fit_multiclass(&w, &labels, 3)
                .unwrap();
            for i in 0..6 {
                for c in 0..3 {
                    assert!(
                        (scores.scores().get(i, c) - reference.scores().get(i, c)).abs() < 1e-10
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_one_vs_rest_is_bit_identical_to_sequential() {
        let (w, labels) = three_cluster_weights();
        let sequential = OneVsRest::new(HardCriterion::new(), 3)
            .unwrap()
            .fit(&w, &labels)
            .unwrap();
        for workers in [1, 2, 4] {
            let parallel = OneVsRest::new(HardCriterion::new(), 3)
                .unwrap()
                .with_executor(gssl_runtime::Executor::with_workers(workers))
                .fit(&w, &labels)
                .unwrap();
            assert_eq!(
                parallel.scores().as_slice(),
                sequential.scores().as_slice(),
                "{workers} workers diverged"
            );
            assert_eq!(parallel.predictions(), sequential.predictions());
        }
    }

    #[test]
    fn fit_multiclass_validates_parameters() {
        let (w, _) = three_cluster_weights();
        assert!(HardCriterion::new().fit_multiclass(&w, &[0, 1], 1).is_err());
        assert!(HardCriterion::new()
            .fit_multiclass(&w, &[0, 1, 7], 3)
            .is_err());
        assert!(HardCriterion::new()
            .fit_multiclass(&Matrix::zeros(2, 3), &[0, 1], 2)
            .is_err());
    }

    #[test]
    fn validates_parameters() {
        assert!(OneVsRest::new(HardCriterion::new(), 1).is_err());
        let (w, _) = three_cluster_weights();
        let ovr = OneVsRest::new(HardCriterion::new(), 2).unwrap();
        assert!(ovr.fit(&w, &[0, 1, 5]).is_err()); // class 5 out of range
    }

    #[test]
    fn name_wraps_inner_model() {
        let ovr = OneVsRest::new(HardCriterion::new(), 3).unwrap();
        assert!(ovr.name().contains("hard"));
        assert!(ovr.model().solver_kind() == &crate::hard::HardSolver::Cholesky);
    }
}
