//! Class-mass normalization (CMN) — the standard post-processing of
//! Zhu, Ghahramani & Lafferty (2003) for harmonic scores.
//!
//! Raw harmonic scores can be globally biased when the labeled class
//! proportions are unrepresentative. CMN rescales the positive and
//! negative "masses" so the implied class proportions match a prior
//! (usually the labeled frequency):
//!
//! ```text
//! score'_a = q · f_a / Σ_b f_b   vs   (1 − q) · (1 − f_a) / Σ_b (1 − f_b)
//! ```
//!
//! This is an optional extension beyond the paper's experiments (the paper
//! uses raw scores); it is included because any practical deployment of
//! the hard criterion pairs it with CMN.

use crate::error::{Error, Result};
use gssl_linalg::float::{is_exactly_one, is_exactly_zero};

/// Indices of `scores` sorted ascending by the canonical
/// `(score, index)` `total_cmp` key: panic-free on NaN (NaN sorts after
/// every finite value, `-NaN` before), bit-identical to a `partial_cmp`
/// argsort for finite inputs, and stable by construction — ties break on
/// the original index.
/// deterministic
#[must_use]
pub fn argsort_scores(scores: &[f64]) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Class-mass-normalized positive scores for binary problems.
///
/// For each unlabeled score `f_a ∈ [0, 1]`, computes the normalized
/// positive evidence `q·f_a/Σf` and negative evidence
/// `(1−q)·(1−f_a)/Σ(1−f)` and returns the positive share
/// `pos / (pos + neg)`, which is directly comparable to a 0.5 threshold.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] when `prior_positive` is outside `(0, 1)`
///   or scores leave `[0, 1]`.
/// * [`Error::InvalidProblem`] when `scores` is empty or degenerate (all
///   mass on one side, making a normalization undefined).
///
/// hot
/// complexity: O(n)
pub fn class_mass_normalize(scores: &[f64], prior_positive: f64) -> Result<Vec<f64>> {
    if scores.is_empty() {
        return Err(Error::InvalidProblem {
            message: "no scores to normalize".to_owned(),
        });
    }
    if !(0.0 < prior_positive && prior_positive < 1.0) {
        return Err(Error::InvalidParameter {
            message: format!("prior must be in (0, 1), got {prior_positive}"),
        });
    }
    if scores.iter().any(|s| !(0.0..=1.0).contains(s)) {
        return Err(Error::InvalidParameter {
            message: "scores must lie in [0, 1] for class-mass normalization".to_owned(),
        });
    }
    let positive_mass: f64 = scores.iter().sum();
    let negative_mass: f64 = scores.iter().map(|s| 1.0 - s).sum();
    if positive_mass <= 0.0 || negative_mass <= 0.0 {
        return Err(Error::InvalidProblem {
            message: "all mass on one class; normalization undefined".to_owned(),
        });
    }
    Ok(scores
        .iter()
        .map(|&f| {
            let pos = prior_positive * f / positive_mass;
            let neg = (1.0 - prior_positive) * (1.0 - f) / negative_mass;
            pos / (pos + neg)
        })
        .collect())
}

/// Estimates the positive-class prior as the labeled frequency of 1s —
/// the usual CMN prior.
///
/// # Errors
///
/// Returns [`Error::InvalidProblem`] for empty labels or a single-class
/// labeled set (prior would leave `(0, 1)`).
pub fn labeled_prior(labels: &[f64]) -> Result<f64> {
    if labels.is_empty() {
        return Err(Error::InvalidProblem {
            message: "no labels to estimate a prior from".to_owned(),
        });
    }
    let prior = labels.iter().filter(|&&y| y > 0.5).count() as f64 / labels.len() as f64;
    if is_exactly_zero(prior) || is_exactly_one(prior) {
        return Err(Error::InvalidProblem {
            message: "labeled set contains a single class; prior degenerate".to_owned(),
        });
    }
    Ok(prior)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_prior_preserves_order() {
        let scores = [0.2, 0.5, 0.9, 0.4];
        let normalized = class_mass_normalize(&scores, 0.5).unwrap();
        // Ranking unchanged by a monotone normalization.
        let order = argsort_scores(&scores);
        let norm_order = argsort_scores(&normalized);
        assert_eq!(order, norm_order);
        for &s in &normalized {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn argsort_is_canonical_and_nan_safe() {
        // Finite inputs: plain ascending order, ties broken by index.
        assert_eq!(argsort_scores(&[0.2, 0.5, 0.9, 0.4]), vec![0, 3, 1, 2]);
        assert_eq!(argsort_scores(&[0.5, 0.2, 0.5]), vec![1, 0, 2]);
        // A NaN score must not panic (the old `partial_cmp(..).unwrap()`
        // did); under `total_cmp` it sorts after every finite value.
        assert_eq!(argsort_scores(&[0.5, f64::NAN, 0.25]), vec![2, 0, 1]);
        assert_eq!(argsort_scores(&[]), Vec::<usize>::new());
    }

    #[test]
    fn skewed_prior_shifts_decisions() {
        let scores = [0.45, 0.55];
        let toward_positive = class_mass_normalize(&scores, 0.9).unwrap();
        let toward_negative = class_mass_normalize(&scores, 0.1).unwrap();
        assert!(toward_positive[0] > toward_negative[0]);
        assert!(toward_positive[1] > toward_negative[1]);
    }

    #[test]
    fn decision_boundary_matches_closed_form_for_balanced_masses() {
        // When Σf = Σ(1−f) (balanced masses), the normalized score is
        // q·f / (q·f + (1−q)(1−f)), whose 0.5 crossing sits at f = 1 − q.
        let scores: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
        let q = 0.7;
        let normalized = class_mass_normalize(&scores, q).unwrap();
        for (f, s) in scores.iter().zip(&normalized) {
            let expected = q * f / (q * f + (1.0 - q) * (1.0 - f));
            assert!((s - expected).abs() < 1e-12, "f = {f}: {s} vs {expected}");
        }
        // Boundary: raw score 1 − q = 0.3 maps to exactly 0.5.
        let boundary = class_mass_normalize(&[0.3, 0.7], q).unwrap();
        assert!((boundary[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validates_inputs() {
        assert!(class_mass_normalize(&[], 0.5).is_err());
        assert!(class_mass_normalize(&[0.5], 0.0).is_err());
        assert!(class_mass_normalize(&[0.5], 1.0).is_err());
        assert!(class_mass_normalize(&[1.5], 0.5).is_err());
        assert!(class_mass_normalize(&[1.0, 1.0], 0.5).is_err()); // no negative mass
        assert!(class_mass_normalize(&[0.0, 0.0], 0.5).is_err()); // no positive mass
    }

    #[test]
    fn labeled_prior_counts_positives() {
        assert!((labeled_prior(&[1.0, 0.0, 1.0, 0.0]).unwrap() - 0.5).abs() < 1e-15);
        assert!((labeled_prior(&[1.0, 0.0, 0.0, 0.0]).unwrap() - 0.25).abs() < 1e-15);
        assert!(labeled_prior(&[]).is_err());
        assert!(labeled_prior(&[1.0, 1.0]).is_err());
        assert!(labeled_prior(&[0.0]).is_err());
    }
}
