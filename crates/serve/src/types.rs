//! Value types exchanged across the serving boundary: query points in,
//! predictions out. Shared by [`crate::ShardedEngine`] and the admission
//! controlled [`crate::BatchQueue`].

/// An out-of-sample point to be scored by a fitted engine.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPoint {
    pub(crate) coords: Vec<f64>,
}

impl QueryPoint {
    /// Wraps a coordinate vector (must match the fitted dimension).
    pub fn new(coords: Vec<f64>) -> Self {
        QueryPoint { coords }
    }

    /// The query's coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }
}

impl From<Vec<f64>> for QueryPoint {
    fn from(coords: Vec<f64>) -> Self {
        QueryPoint::new(coords)
    }
}

impl From<&[f64]> for QueryPoint {
    fn from(coords: &[f64]) -> Self {
        QueryPoint::new(coords.to_vec())
    }
}

/// The engine's answer for one query point.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Extended score per class column: one entry for a binary engine
    /// (the raw Eq. 6 value), `class_count` entries for a multiclass one.
    pub per_class: Vec<f64>,
    /// Predicted class. Binary engines use the `{0, 1}` label convention
    /// and threshold the score at `1/2`; multiclass engines take the
    /// arg-max over the one-vs-rest columns.
    pub class: usize,
    /// The winning score: the raw extension value for binary engines, the
    /// arg-max column's value for multiclass ones.
    pub score: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_point_conversions() {
        let q: QueryPoint = vec![1.0, 2.0].into();
        assert_eq!(q.coords(), &[1.0, 2.0]);
        let q: QueryPoint = (&[3.0][..]).into();
        assert_eq!(q.coords(), &[3.0]);
    }
}
