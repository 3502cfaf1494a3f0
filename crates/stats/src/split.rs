//! Resampling utilities: shuffles, k-fold cross-validation, stratified
//! folds, and the labeled/unlabeled splits of semi-supervised learning.
//!
//! Figure 5 of the paper varies the labeled fraction by splitting the COIL
//! data into `k` roughly equal subsets and rotating which subsets are
//! labeled; [`KFold`](crate::split::KFold) and
//! [`labeled_unlabeled_split`](crate::split::labeled_unlabeled_split)
//! reproduce that protocol.

use crate::error::{Error, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// A single train/test index split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Indices of the training (labeled) examples.
    pub train: Vec<usize>,
    /// Indices of the test (unlabeled) examples.
    pub test: Vec<usize>,
}

/// K-fold cross-validation splitter.
///
/// ```
/// use gssl_stats::split::KFold;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let folds = KFold::new(5).unwrap().splits(23, &mut rng).unwrap();
/// assert_eq!(folds.len(), 5);
/// for f in &folds {
///     assert_eq!(f.train.len() + f.test.len(), 23);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KFold {
    k: usize,
}

impl KFold {
    /// Creates a splitter with `k` folds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k < 2`.
    pub fn new(k: usize) -> Result<Self> {
        if k < 2 {
            return Err(Error::InvalidParameter {
                message: format!("k-fold requires k >= 2, got {k}"),
            });
        }
        Ok(KFold { k })
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Produces the `k` splits of `0..len` after a random shuffle. Each
    /// split uses one fold as `test` and the remaining folds as `train`.
    ///
    /// Fold sizes differ by at most one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `len < k`.
    pub fn splits(&self, len: usize, rng: &mut impl Rng) -> Result<Vec<Split>> {
        if len < self.k {
            return Err(Error::InvalidParameter {
                message: format!("cannot split {len} examples into {} folds", self.k),
            });
        }
        let mut indices: Vec<usize> = (0..len).collect();
        indices.shuffle(rng);
        let fold_sizes = balanced_sizes(len, self.k);
        let mut folds: Vec<Vec<usize>> = Vec::with_capacity(self.k);
        let mut start = 0;
        for size in fold_sizes {
            folds.push(indices[start..start + size].to_vec());
            start += size;
        }
        Ok((0..self.k)
            .map(|held_out| {
                let test = folds[held_out].clone();
                let train = folds
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != held_out)
                    .flat_map(|(_, f)| f.iter().copied())
                    .collect();
                Split { train, test }
            })
            .collect())
    }

    /// Like [`KFold::splits`] but *inverted*: each split uses one fold as
    /// `train` and the rest as `test`.
    ///
    /// This is the paper's low-label protocol (Figure 5 at ratios 20/80 and
    /// 10/90: one of `k` subsets is labeled, the other `k − 1` are the test
    /// set).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `len < k`.
    pub fn inverted_splits(&self, len: usize, rng: &mut impl Rng) -> Result<Vec<Split>> {
        Ok(self
            .splits(len, rng)?
            .into_iter()
            .map(|s| Split {
                train: s.test,
                test: s.train,
            })
            .collect())
    }

    /// Stratified splits: every fold receives a near-proportional share of
    /// each class, as identified by `labels`.
    ///
    /// # Errors
    ///
    /// * [`Error::LengthMismatch`] when `labels.len() != len`.
    /// * [`Error::InvalidParameter`] when some class has fewer members than
    ///   folds.
    pub fn stratified_splits(&self, labels: &[bool], rng: &mut impl Rng) -> Result<Vec<Split>> {
        let len = labels.len();
        if len < self.k {
            return Err(Error::InvalidParameter {
                message: format!("cannot split {len} examples into {} folds", self.k),
            });
        }
        let mut positives: Vec<usize> = (0..len).filter(|&i| labels[i]).collect();
        let mut negatives: Vec<usize> = (0..len).filter(|&i| !labels[i]).collect();
        if positives.len() < self.k || negatives.len() < self.k {
            return Err(Error::InvalidParameter {
                message: format!(
                    "stratified {}-fold needs >= {} examples per class, got {} / {}",
                    self.k,
                    self.k,
                    positives.len(),
                    negatives.len()
                ),
            });
        }
        positives.shuffle(rng);
        negatives.shuffle(rng);
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); self.k];
        for (i, idx) in positives.into_iter().enumerate() {
            folds[i % self.k].push(idx);
        }
        for (i, idx) in negatives.into_iter().enumerate() {
            folds[i % self.k].push(idx);
        }
        Ok((0..self.k)
            .map(|held_out| {
                let test = folds[held_out].clone();
                let train = folds
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != held_out)
                    .flat_map(|(_, f)| f.iter().copied())
                    .collect();
                Split { train, test }
            })
            .collect())
    }
}

/// Splits `0..len` into `n_labeled` labeled and `len − n_labeled` unlabeled
/// indices after a random shuffle — the basic semi-supervised protocol of
/// the paper's synthetic studies.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `n_labeled` is 0 or exceeds
/// `len`.
pub fn labeled_unlabeled_split(len: usize, n_labeled: usize, rng: &mut impl Rng) -> Result<Split> {
    if n_labeled == 0 || n_labeled > len {
        return Err(Error::InvalidParameter {
            message: format!("n_labeled must be in 1..={len}, got {n_labeled}"),
        });
    }
    let mut indices: Vec<usize> = (0..len).collect();
    indices.shuffle(rng);
    Ok(Split {
        train: indices[..n_labeled].to_vec(),
        test: indices[n_labeled..].to_vec(),
    })
}

/// Sizes of `k` balanced partitions of `len` items (differ by at most 1).
fn balanced_sizes(len: usize, k: usize) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let base = len / k;
    let extra = len % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn kfold_partitions_everything_exactly_once() {
        let folds = KFold::new(4).unwrap().splits(22, &mut rng()).unwrap();
        assert_eq!(folds.len(), 4);
        let mut seen = HashSet::new();
        for f in &folds {
            assert_eq!(f.train.len() + f.test.len(), 22);
            for &i in &f.test {
                assert!(seen.insert(i), "index {i} in two test folds");
            }
            // Train and test are disjoint.
            let train: HashSet<_> = f.train.iter().collect();
            assert!(f.test.iter().all(|i| !train.contains(i)));
        }
        assert_eq!(seen.len(), 22);
    }

    #[test]
    fn kfold_sizes_are_balanced() {
        let folds = KFold::new(5).unwrap().splits(23, &mut rng()).unwrap();
        for f in &folds {
            assert!(f.test.len() == 4 || f.test.len() == 5);
        }
        let total: usize = folds.iter().map(|f| f.test.len()).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn inverted_splits_swap_roles() {
        let kf = KFold::new(5).unwrap();
        let inv = kf.inverted_splits(25, &mut rng()).unwrap();
        for f in &inv {
            assert_eq!(f.train.len(), 5);
            assert_eq!(f.test.len(), 20);
        }
    }

    #[test]
    fn stratified_folds_balance_classes() {
        // 12 positives, 18 negatives, 3 folds => 4 pos + 6 neg per fold.
        let labels: Vec<bool> = (0..30).map(|i| i < 12).collect();
        let folds = KFold::new(3)
            .unwrap()
            .stratified_splits(&labels, &mut rng())
            .unwrap();
        for f in &folds {
            let pos = f.test.iter().filter(|&&i| labels[i]).count();
            let neg = f.test.len() - pos;
            assert_eq!(pos, 4);
            assert_eq!(neg, 6);
        }
    }

    #[test]
    fn stratified_rejects_scarce_classes() {
        let labels = [true, false, false, false, false];
        assert!(KFold::new(3)
            .unwrap()
            .stratified_splits(&labels, &mut rng())
            .is_err());
    }

    #[test]
    fn labeled_unlabeled_split_counts() {
        let s = labeled_unlabeled_split(10, 3, &mut rng()).unwrap();
        assert_eq!(s.train.len(), 3);
        assert_eq!(s.test.len(), 7);
        let all: HashSet<_> = s.train.iter().chain(&s.test).collect();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn parameter_validation() {
        assert!(KFold::new(1).is_err());
        assert!(KFold::new(2).unwrap().splits(1, &mut rng()).is_err());
        assert!(labeled_unlabeled_split(5, 0, &mut rng()).is_err());
        assert!(labeled_unlabeled_split(5, 6, &mut rng()).is_err());
        assert!(labeled_unlabeled_split(5, 5, &mut rng()).is_ok());
    }

    #[test]
    fn splits_are_deterministic_given_seed() {
        let a = KFold::new(3)
            .unwrap()
            .splits(9, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let b = KFold::new(3)
            .unwrap()
            .splits(9, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn balanced_sizes_sum() {
        assert_eq!(balanced_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(balanced_sizes(9, 3), vec![3, 3, 3]);
        assert_eq!(balanced_sizes(2, 2), vec![1, 1]);
    }
}
