//! # gssl-stats
//!
//! Statistics substrate for the `gssl` workspace: the distributions,
//! metrics and resampling protocols used by the experiments in Du, Zhao &
//! Wang (ICDCS 2019).
//!
//! * [`dist`] — Box–Muller normal, Cholesky multivariate normal, the
//!   paper's zero-replacement truncated MVN, logistic utilities and
//!   Bernoulli sampling (the `rand_distr` crate is not on the approved
//!   dependency list, so these are implemented from scratch).
//! * [`metrics`] — RMSE (the synthetic-study metric), MAE, accuracy,
//!   confusion matrices, precision/recall/F1 and MCC.
//! * [`roc`] — ROC curves and tie-aware AUC (the COIL-study metric).
//! * [`split`] — k-fold and stratified cross-validation plus the paper's
//!   inverted low-label splits and labeled/unlabeled partitioning.
//! * [`describe`] — means, variances, quantiles and summaries for
//!   aggregating Monte-Carlo repetitions.
//!
//! ## Example
//!
//! ```
//! use gssl_stats::{metrics::rmse, roc::auc};
//! # fn main() -> Result<(), gssl_stats::Error> {
//! let error = rmse(&[0.2, 0.8], &[0.25, 0.7])?;
//! assert!(error < 0.1);
//! let area = auc(&[0.9, 0.1], &[true, false])?;
//! assert_eq!(area, 1.0);
//! # Ok(())
//! # }
//! ```

/// Descriptive statistics: means, quantiles, dispersion.
pub mod describe;
/// Probability distributions and samplers.
pub mod dist;
mod error;
/// Paired significance tests (t-test, sign test, bootstrap).
pub mod inference;
/// Classification and regression metrics.
pub mod metrics;
/// ROC curves and the area under them.
pub mod roc;
/// Special functions: log-gamma, incomplete beta, erf.
pub mod special;
/// Labeled/unlabeled and k-fold data splitting.
pub mod split;

pub use error::{Error, Result};
