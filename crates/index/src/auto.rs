//! [`SpatialIndex`]: the backend-selecting facade consumers build when
//! they do not want to commit to a concrete tree.

use crate::cover::CoverTree;
use crate::error::Result;
use crate::kdtree::KdTree;
use crate::neighbor::{Neighbor, NeighborSearch};
use gssl_linalg::Matrix;

/// Above this dimension, KD-tree axis pruning degenerates (the query
/// ball intersects almost every splitting plane) and the cover tree's
/// metric-ball pruning takes over.
pub const KD_MAX_DIM: usize = 16;

/// An exact spatial index that picks its backend from the data: KD-tree
/// for `d <= KD_MAX_DIM`, cover tree above. Both are exact, so the
/// choice affects speed only — results are bit-identical either way.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialIndex {
    /// Low-dimensional backend.
    Kd(KdTree),
    /// High-dimensional / generic-metric backend.
    Cover(CoverTree),
}

impl SpatialIndex {
    /// Name of the selected backend (for benchmark and log output).
    pub fn backend(&self) -> &'static str {
        match self {
            SpatialIndex::Kd(_) => "kd-tree",
            SpatialIndex::Cover(_) => "cover-tree",
        }
    }
}

impl NeighborSearch for SpatialIndex {
    fn build(points: &Matrix) -> Result<Self> {
        if points.cols() <= KD_MAX_DIM {
            Ok(SpatialIndex::Kd(KdTree::build(points)?))
        } else {
            Ok(SpatialIndex::Cover(CoverTree::build(points)?))
        }
    }

    fn len(&self) -> usize {
        match self {
            SpatialIndex::Kd(t) => t.len(),
            SpatialIndex::Cover(t) => t.len(),
        }
    }

    fn dim(&self) -> usize {
        match self {
            SpatialIndex::Kd(t) => t.dim(),
            SpatialIndex::Cover(t) => t.dim(),
        }
    }

    fn point(&self, i: usize) -> &[f64] {
        match self {
            SpatialIndex::Kd(t) => t.point(i),
            SpatialIndex::Cover(t) => t.point(i),
        }
    }

    fn insert(&mut self, point: &[f64]) -> Result<usize> {
        match self {
            SpatialIndex::Kd(t) => t.insert(point),
            SpatialIndex::Cover(t) => t.insert(point),
        }
    }

    /// hot
    /// complexity: O(n * d)
    fn k_nearest_excluding(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        match self {
            SpatialIndex::Kd(t) => t.k_nearest_excluding(query, k, exclude),
            SpatialIndex::Cover(t) => t.k_nearest_excluding(query, k, exclude),
        }
    }

    /// hot
    /// complexity: O(n * d)
    fn within_radius(&self, query: &[f64], radius: f64) -> Result<Vec<Neighbor>> {
        match self {
            SpatialIndex::Kd(t) => t.within_radius(query, radius),
            SpatialIndex::Cover(t) => t.within_radius(query, radius),
        }
    }

    /// complexity: O(n)
    fn query_order(&self) -> Vec<usize> {
        match self {
            SpatialIndex::Kd(t) => t.query_order(),
            SpatialIndex::Cover(t) => t.query_order(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_selection_follows_dimension() {
        let low = Matrix::from_fn(20, 3, |i, j| (i + j) as f64);
        let high = Matrix::from_fn(20, 17, |i, j| (i * 31 + j) as f64 * 0.1);
        assert_eq!(SpatialIndex::build(&low).unwrap().backend(), "kd-tree");
        assert_eq!(SpatialIndex::build(&high).unwrap().backend(), "cover-tree");
    }

    #[test]
    fn facade_delegates_queries_and_inserts() {
        let pts = Matrix::from_fn(30, 2, |i, j| ((i * 7 + j * 3) as f64 * 0.173).fract());
        let mut idx = SpatialIndex::build(&pts).unwrap();
        assert_eq!(idx.len(), 30);
        assert_eq!(idx.dim(), 2);
        assert!(!idx.is_empty());
        let q = [0.4, 0.6];
        let knn = idx.k_nearest(&q, 5).unwrap();
        assert_eq!(knn.len(), 5);
        let id = idx.insert(&q).unwrap();
        assert_eq!(id, 30);
        let after = idx.k_nearest(&q, 1).unwrap();
        assert_eq!(after[0].index, 30);
        assert_eq!(after[0].dist2, 0.0);
        assert_eq!(idx.point(30), &q);
    }
}
