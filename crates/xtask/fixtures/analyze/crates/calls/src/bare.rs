//! Rule 3 — a bare `name(..)` resolves only to free functions, the
//! caller's file's own first (silent: the local `helper` is clean), and a
//! lowercase `module::name(..)` to the free functions of `module.rs`
//! (flagged as `via_module -> pick`, the one in `util.rs`).

/// Sums through the local `helper`, not `decoy::helper` or
/// `Probe::helper`.
pub fn entry(values: &[f64]) -> f64 {
    helper(values)
}

fn helper(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Reaches `util::pick`, not `decoy::pick`.
pub fn via_module(values: &[f64]) -> f64 {
    util::pick(values)
}
