//! Rule 2 — `.name(..)` resolves only to functions with a `self`
//! receiver, so the free `decoy::scale` stays unlinked: silent.

/// A reading with a receiver-taking `scale`.
pub struct Gauge;

impl Gauge {
    /// Calls the method `scale`, never the free function of that name.
    pub fn read(&self) -> f64 {
        self.scale()
    }

    fn scale(&self) -> f64 {
        2.0
    }
}
