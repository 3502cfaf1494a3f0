//! # gssl — graph-based semi-supervised learning
//!
//! A production-quality Rust reproduction of **"On Consistency of
//! Graph-based Semi-supervised Learning"** (Chengan Du, Yunpeng Zhao,
//! Feng Wang — ICDCS 2019, arXiv:1703.06177).
//!
//! Given `n` labeled and `m` unlabeled points joined by a similarity graph
//! `W`, the crate implements both criteria the paper analyzes:
//!
//! * [`HardCriterion`] — minimize `Σ w_ij (f_i − f_j)²` with `f_i = Y_i`
//!   clamped on labeled points; closed form
//!   `f_U = (D₂₂ − W₂₂)⁻¹ W₂₁ Y` (Eq. 5). **Consistent** under the
//!   conditions of Theorem II.1.
//! * [`SoftCriterion`] — the "loss + penalty" relaxation
//!   `Σ(Y_i − f_i)² + (λ/2)Σ w_ij (f_i − f_j)²` with the explicit block
//!   solution of Eq. 4. **Inconsistent** for large λ
//!   (Proposition II.2); equal to the hard criterion at λ = 0
//!   (Proposition II.1).
//! * [`NadarayaWatson`] — the kernel-regression estimator (Eq. 6) the
//!   consistency proof couples the hard criterion to.
//! * [`MeanPredictor`] — the λ = ∞ limit (constant labeled mean).
//! * [`LabelPropagation`] — the iterative harmonic solver, plus CG and
//!   direct backends selectable on [`HardCriterion`].
//! * [`theory`] — measurable versions of the proof's quantities
//!   (tiny-element bound, Neumann truncation, coupling gap).
//! * Extensions: [`OneVsRest`] multiclass, [`cmn`] class-mass
//!   normalization, [`LocalGlobalConsistency`] (the paper's ref \[12\]),
//!   [`PLaplacian`] (ref \[19\]), and the unified [`Weights`]
//!   representation that lets every criterion run on dense or CSR
//!   kNN/ε graphs through one [`Problem`] type.
//!
//! ## Quickstart
//!
//! ```
//! use gssl::{Criterion, GsslModel};
//! use gssl_graph::{Bandwidth, Kernel};
//! use gssl_linalg::Matrix;
//! # fn main() -> Result<(), gssl::Error> {
//! // Two labeled anchors and three unlabeled points on a line.
//! let points = Matrix::from_rows(&[&[0.0], &[1.0], &[0.1], &[0.9], &[0.5]])?;
//! let scores = GsslModel::builder()
//!     .kernel(Kernel::Gaussian)
//!     .bandwidth(Bandwidth::Fixed(0.5))
//!     .criterion(Criterion::Hard)
//!     .fit(&points, &[0.0, 1.0])?;
//! assert!(scores.unlabeled()[0] < scores.unlabeled()[1]);
//! # Ok(())
//! # }
//! ```

/// Class-mass normalization of transductive scores (Zhu et al. 2003).
pub mod cmn;
mod error;
mod hard;
mod llgc;
mod mean;
mod model;
mod multiclass;
mod nadaraya_watson;
mod plaplacian;
mod problem;
mod propagation;
mod soft;
/// Diagnostics for the paper's consistency theory (Neumann tails, spectral gaps).
pub mod theory;
mod traits;
mod weights;

pub use error::{Error, Result};
pub use hard::{HardCriterion, HardSolver};
pub use llgc::LocalGlobalConsistency;
pub use mean::MeanPredictor;
pub use model::{Criterion, GsslModel, GsslModelBuilder};
pub use multiclass::{MulticlassScores, OneVsRest};
pub use nadaraya_watson::{kernel_regression, NadarayaWatson};
pub use plaplacian::PLaplacian;
pub use problem::{Problem, Scores};
pub use propagation::{LabelPropagation, SweepKind};
pub use soft::SoftCriterion;
pub use traits::TransductiveModel;
pub use weights::Weights;
