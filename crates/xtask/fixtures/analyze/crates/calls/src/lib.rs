//! Analyze fixture: call resolution by the kind of call. Each rule has
//! its own file; `decoy.rs` holds the same-named functions that a
//! resolver going by simple name alone would wrongly link.

mod bare;
mod decoy;
mod method;
mod util;

/// Rule 1 — `Self::name(..)` resolves to the caller's impl type.
pub struct Engine {
    values: Vec<f64>,
}

impl Engine {
    /// Reaches the unguarded index in `fit_targets` through `Self::`:
    /// flagged as `Engine::fit -> Engine::fit_targets`.
    pub fn fit(&self) -> f64 {
        Self::fit_targets(&self.values)
    }

    fn fit_targets(values: &[f64]) -> f64 {
        values[2]
    }
}
