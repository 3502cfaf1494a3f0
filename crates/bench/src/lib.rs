//! # gssl-bench
//!
//! Experiment harness reproducing every figure in the evaluation of Du,
//! Zhao & Wang (ICDCS 2019), plus solver-complexity and ablation
//! benchmarks.
//!
//! The library half hosts the experiment definitions ([`experiment`]), a
//! parallel Monte-Carlo [`runner`], and paper-style [`report`] formatting;
//! the binaries in `src/bin/` (one per figure, plus the toy example,
//! counterexample and theory diagnostics) wire them to the command line,
//! and `benches/` holds the Criterion timing targets.
//!
//! Run a figure with, e.g.:
//!
//! ```text
//! cargo run --release -p gssl-bench --bin fig1 -- --reps 50
//! cargo run --release -p gssl-bench --bin fig5 -- --full   # paper-scale
//! ```

pub mod experiment;
pub mod figures;
pub mod report;
pub mod runner;
