//! An exact KD-tree for low-to-moderate dimension.
//!
//! # Invariants
//!
//! * **Split invariant** — at every `Split { dim, value }` node, all
//!   points in the left subtree have `coord[dim] <= value` and all in
//!   the right have `coord[dim] >= value`. (`value` is the coordinate of
//!   the median under the total order `(coord, id)`, so both subtrees
//!   are nonempty and construction always terminates.)
//! * **Leaf bound** — leaves hold at most `2 * LEAF_CAPACITY` points,
//!   except for degenerate leaves whose points are all identical (no
//!   axis can split them; the scan degrades gracefully to brute force).
//! * **Deterministic build** — the split dimension is the axis of
//!   maximum spread (lowest axis on ties) and the median is selected
//!   under a total order, so the same point matrix always yields the
//!   same tree, node for node.
//!
//! # Exactness of pruning
//!
//! A far subtree is skipped only when `gap² > bound`, where `gap` is the
//! query's axis distance to the splitting plane and `bound` the current
//! k-th best (or radius²) squared distance. Every point beyond the plane
//! has axis distance ≥ `gap`, and IEEE-754 subtraction, squaring and
//! nonnegative summation are monotone under correct rounding, so its
//! *computed* `dist2` is ≥ the *computed* `gap²`: a pruned subtree can
//! never contain a point that beats the bound, and ties at the bound are
//! still visited (the comparison is strict). The tree therefore returns
//! exactly the brute-force neighbor set.

use crate::error::Result;
use crate::neighbor::{check_k, check_radius, KBest, Neighbor, NeighborSearch};
use crate::points::PointStore;
use gssl_linalg::Matrix;

/// Target leaf size; leaves split when they exceed twice this.
const LEAF_CAPACITY: usize = 16;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Point ids, ascending.
    Leaf { ids: Vec<usize> },
    /// Axis-aligned split; both children always exist.
    Split {
        dim: usize,
        value: f64,
        left: usize,
        right: usize,
    },
}

/// Exact KD-tree over a point cloud, with out-of-sample insertion.
///
/// Build is `O(n log n)`; a kNN query visits `O(log n)` nodes plus the
/// leaves intersecting the query ball, which for low dimension is
/// `O(k + log n)` in the average case. High dimension degrades toward a
/// full scan — [`crate::SpatialIndex`] routes those to the cover tree.
#[derive(Debug, Clone, PartialEq)]
pub struct KdTree {
    points: PointStore,
    nodes: Vec<Node>,
    root: usize,
}

/// Builds a subtree over `ids` (reordered in place), appending nodes and
/// returning the subtree root's node id.
fn build_subtree(store: &PointStore, ids: &mut [usize], nodes: &mut Vec<Node>) -> usize {
    debug_assert!(!ids.is_empty(), "subtrees are never built over zero ids");
    if ids.len() <= LEAF_CAPACITY {
        return push_leaf(nodes, ids);
    }
    // Split on the axis of maximum spread; lowest axis wins ties so the
    // choice is deterministic.
    let mut split_dim = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for dim in 0..store.dim() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &id in ids.iter() {
            let c = coord(store, id, dim);
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let spread = hi - lo;
        if spread > best_spread {
            best_spread = spread;
            split_dim = dim;
        }
    }
    if !(best_spread > 0.0) {
        // All points coincide: no axis separates them. Keep one (large)
        // leaf rather than recurse forever.
        return push_leaf(nodes, ids);
    }
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        coord(store, a, split_dim)
            .total_cmp(&coord(store, b, split_dim))
            .then(a.cmp(&b))
    });
    let value = coord(store, ids[mid], split_dim);
    let (lo_ids, hi_ids) = ids.split_at_mut(mid);
    let left = build_subtree(store, lo_ids, nodes);
    let right = build_subtree(store, hi_ids, nodes);
    nodes.push(Node::Split {
        dim: split_dim,
        value,
        left,
        right,
    });
    nodes.len() - 1
}

/// Appends a leaf holding `ids` (sorted ascending for determinism).
fn push_leaf(nodes: &mut Vec<Node>, ids: &mut [usize]) -> usize {
    ids.sort_unstable();
    nodes.push(Node::Leaf { ids: ids.to_vec() });
    nodes.len() - 1
}

/// Coordinate `dim` of stored point `id`.
///
/// hot
/// complexity: O(1)
fn coord(store: &PointStore, id: usize, dim: usize) -> f64 {
    debug_assert!(dim < store.dim(), "split dims come from 0..store.dim()");
    store.point(id)[dim]
}

impl KdTree {
    /// Number of tree nodes (leaves + splits) — a structural fingerprint
    /// used by determinism tests.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// hot
    /// complexity: O(n * d)
    fn search_knn(&self, node: usize, query: &[f64], exclude: Option<usize>, best: &mut KBest) {
        debug_assert!(node < self.nodes.len(), "child ids index self.nodes");
        match &self.nodes[node] {
            Node::Leaf { ids } => {
                for &i in ids {
                    if Some(i) == exclude {
                        continue;
                    }
                    best.offer(Neighbor {
                        index: i,
                        dist2: self.points.dist2_to(query, i),
                    });
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search_knn(near, query, exclude, best);
                // Strict prune: visit the far side on ties at the bound so
                // a tied, lower-index neighbor is never lost.
                if diff * diff <= best.bound_dist2() {
                    self.search_knn(far, query, exclude, best);
                }
            }
        }
    }

    /// Appends the ids of the subtree at `node`, leaf by leaf, left to
    /// right.
    ///
    /// complexity: O(n)
    fn push_leaf_ids(&self, node: usize, order: &mut Vec<usize>) {
        debug_assert!(node < self.nodes.len(), "child ids index self.nodes");
        match &self.nodes[node] {
            Node::Leaf { ids } => order.extend_from_slice(ids),
            Node::Split { left, right, .. } => {
                self.push_leaf_ids(*left, order);
                self.push_leaf_ids(*right, order);
            }
        }
    }

    /// hot
    /// complexity: O(n * d)
    fn search_radius(&self, node: usize, query: &[f64], r2: f64, hits: &mut Vec<Neighbor>) {
        debug_assert!(node < self.nodes.len(), "child ids index self.nodes");
        match &self.nodes[node] {
            Node::Leaf { ids } => {
                for &i in ids {
                    let dist2 = self.points.dist2_to(query, i);
                    if dist2 <= r2 {
                        hits.push(Neighbor { index: i, dist2 });
                    }
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                if diff <= 0.0 {
                    self.search_radius(*left, query, r2, hits);
                    if diff * diff <= r2 {
                        self.search_radius(*right, query, r2, hits);
                    }
                } else {
                    self.search_radius(*right, query, r2, hits);
                    if diff * diff <= r2 {
                        self.search_radius(*left, query, r2, hits);
                    }
                }
            }
        }
    }
}

impl NeighborSearch for KdTree {
    /// complexity: O(n^2 * d)
    fn build(points: &Matrix) -> Result<Self> {
        let store = PointStore::from_matrix(points)?;
        let mut ids: Vec<usize> = (0..store.len()).collect();
        let mut nodes = Vec::new();
        let root = build_subtree(&store, &mut ids, &mut nodes);
        Ok(KdTree {
            points: store,
            nodes,
            root,
        })
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn point(&self, i: usize) -> &[f64] {
        self.points.point(i)
    }

    /// complexity: O(n)
    fn insert(&mut self, point: &[f64]) -> Result<usize> {
        let id = self.points.push(point)?;
        // Descend to the leaf that would contain the point (plane ties go
        // left, matching the build invariant left: coord <= value).
        let mut cur = self.root;
        loop {
            debug_assert!(cur < self.nodes.len(), "child ids index self.nodes");
            match &self.nodes[cur] {
                Node::Split {
                    dim,
                    value,
                    left,
                    right,
                    ..
                } => {
                    cur = if coord(&self.points, id, *dim) <= *value {
                        *left
                    } else {
                        *right
                    };
                }
                Node::Leaf { .. } => break,
            }
        }
        let full = match &mut self.nodes[cur] {
            Node::Leaf { ids } => {
                ids.push(id);
                ids.sort_unstable();
                ids.len() > 2 * LEAF_CAPACITY
            }
            Node::Split { .. } => false,
        };
        if full {
            // Rebuild the overflowing leaf into a balanced subtree in
            // place: append the new nodes, then swap the subtree root
            // into the leaf's slot so parent links stay valid.
            let mut ids = match std::mem::replace(&mut self.nodes[cur], Node::Leaf { ids: vec![] })
            {
                Node::Leaf { ids } => ids,
                Node::Split { .. } => Vec::new(),
            };
            let new_root = build_subtree(&self.points, &mut ids, &mut self.nodes);
            self.nodes.swap(cur, new_root);
        }
        Ok(id)
    }

    /// hot
    /// complexity: O(n * d)
    fn k_nearest_excluding(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Result<Vec<Neighbor>> {
        self.points.check_query(query)?;
        check_k(self.len(), k, exclude)?;
        let mut best = KBest::new(k);
        self.search_knn(self.root, query, exclude, &mut best);
        Ok(best.into_sorted())
    }

    /// hot
    /// complexity: O(n * d)
    fn within_radius(&self, query: &[f64], radius: f64) -> Result<Vec<Neighbor>> {
        self.points.check_query(query)?;
        check_radius(radius)?;
        let mut hits = Vec::new();
        self.search_radius(self.root, query, radius * radius, &mut hits);
        hits.sort_by(Neighbor::key_cmp);
        Ok(hits)
    }

    /// Leaf by leaf, left to right (each leaf's ids ascending): a query
    /// then starts where the previous one ended, in the same or the
    /// adjacent cell.
    ///
    /// complexity: O(n)
    fn query_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        self.push_leaf_ids(self.root, &mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;

    fn cloud(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |i, j| {
            (((i * 131 + j * 37 + 11) as f64) * 0.6180339887498949).fract()
        })
    }

    #[test]
    fn splits_respect_the_plane_invariant() {
        let pts = cloud(200, 2);
        let tree = KdTree::build(&pts).unwrap();
        // Walk every split and check both subtrees against the plane.
        fn check(tree: &KdTree, node: usize, f: &mut dyn FnMut(usize, usize, f64, bool)) {
            if let Node::Split {
                dim,
                value,
                left,
                right,
            } = &tree.nodes[node]
            {
                collect(tree, *left, &mut |id| f(id, *dim, *value, true));
                collect(tree, *right, &mut |id| f(id, *dim, *value, false));
                check(tree, *left, f);
                check(tree, *right, f);
            }
        }
        fn collect(tree: &KdTree, node: usize, f: &mut dyn FnMut(usize)) {
            match &tree.nodes[node] {
                Node::Leaf { ids } => ids.iter().for_each(|&i| f(i)),
                Node::Split { left, right, .. } => {
                    collect(tree, *left, f);
                    collect(tree, *right, f);
                }
            }
        }
        let mut checked = 0;
        check(&tree, tree.root, &mut |id, dim, value, is_left| {
            let c = tree.points.point(id)[dim];
            if is_left {
                assert!(c <= value, "left point {id} violates plane");
            } else {
                assert!(c >= value, "right point {id} violates plane");
            }
            checked += 1;
        });
        assert!(checked > 0, "tree must contain at least one split");
    }

    #[test]
    fn build_is_deterministic() {
        let pts = cloud(300, 3);
        let a = KdTree::build(&pts).unwrap();
        let b = KdTree::build(&pts).unwrap();
        assert_eq!(a, b, "same input must build the identical tree");
    }

    #[test]
    fn agrees_with_brute_force_on_a_grid() {
        let pts = cloud(257, 2);
        let tree = KdTree::build(&pts).unwrap();
        let brute = BruteForce::build(&pts).unwrap();
        for qi in 0..40 {
            let q = [(qi as f64) * 0.027 - 0.05, 1.0 - (qi as f64) * 0.024];
            let t = tree.k_nearest(&q, 7).unwrap();
            let b = brute.k_nearest(&q, 7).unwrap();
            assert_eq!(t, b, "query {qi}");
            let tr = tree.within_radius(&q, 0.2).unwrap();
            let br = brute.within_radius(&q, 0.2).unwrap();
            assert_eq!(tr, br, "radius query {qi}");
        }
    }

    #[test]
    fn identical_points_collapse_to_one_leaf() {
        let pts = Matrix::from_fn(100, 2, |_, _| 0.5);
        let tree = KdTree::build(&pts).unwrap();
        assert_eq!(tree.node_count(), 1, "no axis separates identical points");
        let out = tree.k_nearest(&[0.5, 0.5], 3).unwrap();
        // All distances zero: ties broken by index.
        assert_eq!(
            out.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn query_order_walks_every_leaf_after_inserts() {
        let pts = cloud(64, 2);
        let mut tree = KdTree::build(&pts).unwrap();
        for i in 0..128 {
            let p = [((i * 53 + 7) as f64 * 0.37).fract(), 0.5];
            tree.insert(&p).unwrap();
        }
        let order = tree.query_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..192).collect::<Vec<_>>(),
            "a permutation of every id"
        );
        assert_ne!(order, sorted, "leaf order is not the id order");
        let rows =
            crate::self_k_nearest_batch(&tree, 5, &gssl_runtime::Executor::Sequential).unwrap();
        for i in 0..tree.len() {
            assert_eq!(
                rows.row(i),
                tree.k_nearest_excluding(tree.point(i), 5, Some(i))
                    .unwrap()
                    .as_slice(),
                "row {i}"
            );
        }
    }

    #[test]
    fn insert_keeps_queries_exact() {
        let pts = cloud(64, 2);
        let mut tree = KdTree::build(&pts).unwrap();
        let mut brute = BruteForce::build(&pts).unwrap();
        for i in 0..128 {
            let p = [
                ((i * 53 + 7) as f64 * 0.37).fract(),
                ((i * 29 + 3) as f64 * 0.61).fract(),
            ];
            assert_eq!(tree.insert(&p).unwrap(), brute.insert(&p).unwrap());
        }
        assert_eq!(tree.len(), 192);
        for qi in 0..25 {
            let q = [(qi as f64) * 0.04, (qi as f64) * 0.035];
            assert_eq!(
                tree.k_nearest(&q, 9).unwrap(),
                brute.k_nearest(&q, 9).unwrap(),
                "query {qi} after inserts"
            );
        }
    }
}
