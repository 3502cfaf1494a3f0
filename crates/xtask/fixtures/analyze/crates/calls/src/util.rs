//! The module a lowercase path names: its `pick` is the one linked.

pub(crate) fn pick(values: &[f64]) -> f64 {
    values[4]
}
