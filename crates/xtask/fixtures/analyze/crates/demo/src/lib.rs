//! Analyze fixture: panic-reachability through a private helper, a
//! baselined offender the fixture baseline must suppress, and divisions
//! behind both NaN-rejecting guard forms.

/// Public entry point; reaches the unguarded index in `pick`.
pub fn api(values: &[f64]) -> f64 {
    pick(values)
}

fn pick(values: &[f64]) -> f64 {
    values[3]
}

/// Directly offending pub function; suppressed by the fixture baseline.
pub fn baselined(values: &[f64]) -> f64 {
    values[7]
}

/// A guarded sibling that must stay silent.
pub fn guarded(values: &[f64]) -> f64 {
    if values.len() <= 3 {
        return 0.0;
    }
    values[3]
}

/// Division behind a negated comparison, which also rejects NaN: silent.
pub fn ratio_negated(num: f64, den: f64) -> f64 {
    if !(den > 0.0) {
        return 0.0;
    }
    num / den
}

/// Division behind an explicit NaN test: silent.
pub fn ratio_explicit(num: f64, den: f64) -> f64 {
    if den.is_nan() || den <= 0.0 {
        return 0.0;
    }
    num / den
}

/// Division with no guard: flagged.
pub fn ratio_unguarded(num: f64, den: f64) -> f64 {
    num / den
}
