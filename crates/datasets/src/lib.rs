//! # gssl-datasets
//!
//! Dataset substrate for the `gssl` workspace: every workload used in the
//! evaluation of Du, Zhao & Wang (ICDCS 2019), generated synthetically.
//!
//! * [`synthetic`] — the paper's **Model 1** (linear logit, its Eq. 11) and
//!   **Model 2** (interaction logit) over the paper's truncated
//!   multivariate-normal inputs, plus classic toy problems (two moons,
//!   concentric circles, Gaussian blobs, a 1-D regression).
//! * [`coil`] — a procedurally rendered substitute for the Columbia Object
//!   Image Library benchmark used in the paper's Figure 5 (24 objects × 72
//!   angles × 16×16 pixels, six classes grouped 3-vs-3 into a binary
//!   task). See DESIGN.md for the substitution rationale.
//! * [`Dataset`] / [`SemiSupervisedData`] — containers that keep the true
//!   regression function alongside noisy labels (the paper scores against
//!   `q(X)`, not against `Y`), and the labeled-first arrangement of the
//!   paper's Section II.
//!
//! ## Example
//!
//! ```
//! use gssl_datasets::synthetic::{paper_dataset, PaperModel};
//! use rand::SeedableRng;
//! # fn main() -> Result<(), gssl_datasets::Error> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let ds = paper_dataset(PaperModel::Linear, 130, &mut rng)?;
//! let ssl = ds.arrange_prefix(100)?; // n = 100 labeled, m = 30 unlabeled
//! assert_eq!(ssl.n_labeled(), 100);
//! assert_eq!(ssl.n_unlabeled(), 30);
//! # Ok(())
//! # }
//! ```

/// Synthetic COIL-style rotating-object image library.
pub mod coil;
mod dataset;
mod error;
/// Classic toy datasets: two moons, circles, blobs.
pub mod shapes;
/// The paper's Model 1 / Model 2 generators.
pub mod synthetic;

pub use dataset::{Dataset, SemiSupervisedData};
pub use error::{Error, Result};
