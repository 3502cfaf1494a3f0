// Fixture crate for the gssl-xtask self-test. Every rule the checker
// knows is violated exactly where the integration test expects; the
// items below seed one violation each.

pub fn undocumented() -> usize {
    0
}

/// Compares a float against a literal bare.
pub fn zeroish(x: f64) -> bool {
    x == 0.0
}

/// Not `#[non_exhaustive]`.
pub enum DemoError {
    /// The one failure.
    Broken,
}

/// Carries an inline marker that no allowlist entry registers.
pub fn suppressed(x: f64) -> bool {
    x != 1.0 // lint: allow(float_eq)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert!(super::zeroish(0.0));
        let raw = 1.0_f64;
        assert!(raw == 1.0);
    }
}
