//! # gssl-graph
//!
//! Similarity-graph substrate for the `gssl` workspace — everything needed
//! to turn a point cloud into the weighted graph `G = (V, E)` on which
//! graph-based semi-supervised learning operates (Du, Zhao & Wang,
//! ICDCS 2019).
//!
//! * [`Kernel`] — radial smoothing kernels, with predicates for the three
//!   conditions of the paper's Theorem II.1.
//! * [`bandwidth`] — the paper's `(log n/n)^{1/d}` rate, the median
//!   heuristic used in its COIL experiment, and Silverman's rule.
//! * [`affinity`] — dense similarity matrices `W = [K(‖x_i − x_j‖/h)]`.
//! * [`knn_graph`] / [`epsilon_graph`] — sparse CSR graph builders.
//! * [`laplacian`] — unnormalized / symmetric / random-walk Laplacians and
//!   the Dirichlet energy `Σ w_ij (f_i − f_j)²` both criteria penalize.
//! * [`components`] — connectivity checks backing Proposition II.2's
//!   hypotheses and the hard criterion's solvability condition.
//! * [`KernelGraph`] — a fitted point cloud + kernel + bandwidth, with
//!   out-of-sample `kernel_row` evaluation for serving new points.
//! * [`spectral`] — power iteration, used to measure the spectral radius
//!   of `D₂₂⁻¹W₂₂` from the paper's Neumann-series argument.
//!
//! ## Example
//!
//! ```
//! use gssl_graph::{affinity::affinity_matrix, laplacian, Kernel, LaplacianKind};
//! use gssl_linalg::Matrix;
//! # fn main() -> Result<(), gssl_graph::Error> {
//! let points = Matrix::from_rows(&[&[0.0, 0.0], &[0.1, 0.0], &[5.0, 5.0]])?;
//! let w = affinity_matrix(&points, Kernel::Gaussian, 1.0)?;
//! let l = laplacian(&w, LaplacianKind::Unnormalized)?;
//! assert!(l.is_symmetric(1e-12));
//! # Ok(())
//! # }
//! ```

/// Dense kernel affinity matrices over point clouds.
pub mod affinity;
/// Bandwidth selection rules, including the paper's rate.
pub mod bandwidth;
/// Connected-component analysis.
pub mod components;
mod diagnostics;
mod error;
mod extension;
mod kernel;
mod knn;
mod laplacian;
/// Spectral embeddings and spectral clustering utilities.
pub mod spectral;

pub use diagnostics::GraphReport;

pub use bandwidth::Bandwidth;
pub use components::component_partition;
pub use error::{Error, Result};
pub use extension::KernelGraph;
pub use kernel::Kernel;
pub use knn::{epsilon_graph, epsilon_graph_with, knn_graph, knn_graph_with, Symmetrization};
pub use laplacian::{degrees, dirichlet_energy, laplacian, volume, LaplacianKind};
