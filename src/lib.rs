//! Umbrella crate for the `gssl` reproduction workspace.
//!
//! This package exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. It re-exports the member crates
//! under short names so examples read naturally:
//!
//! ```
//! use gssl_repro::gssl::HardCriterion;
//! let _ = HardCriterion::new();
//! ```

pub use gssl;
pub use gssl_datasets as datasets;
pub use gssl_graph as graph;
pub use gssl_index as index;
pub use gssl_linalg as linalg;
pub use gssl_stats as stats;
