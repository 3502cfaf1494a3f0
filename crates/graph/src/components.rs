//! Connectivity analysis of weighted graphs.
//!
//! Proposition II.2 (inconsistency of the soft criterion at large λ)
//! assumes `W` represents a *connected* graph;
//! [`is_connected`](crate::components::is_connected) makes that hypothesis
//! checkable, and
//! [`component_partition`](crate::components::component_partition) splits
//! a graph into the components the sharded serving engine fits one by
//! one.

use crate::error::{Error, Result};
use gssl_linalg::Matrix;

/// A disjoint-set (union–find) structure over `0..len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` when the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`, with path compression.
    ///
    /// # Panics
    ///
    /// Panics when `x` is out of bounds.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element out of bounds");
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `true` when they
    /// were previously separate.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Number of disjoint sets currently tracked.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Returns `true` when `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Component id of every element, ids assigned in order of first
    /// appearance — so id order is smallest-member order, whatever order
    /// the unions ran in.
    fn canonical_labels(&mut self) -> Vec<usize> {
        let n = self.len();
        let mut labels = vec![usize::MAX; n];
        let mut next = 0;
        for v in 0..n {
            let root = self.find(v);
            if labels[root] == usize::MAX {
                labels[root] = next;
                next += 1;
            }
            labels[v] = labels[root];
        }
        labels
    }

    /// The sets in canonical order: sorted by smallest member, members
    /// ascending. The one grouping routine behind every component
    /// partition in the crate, whichever edge source fed the unions.
    pub(crate) fn into_partition(mut self) -> Vec<Vec<usize>> {
        let labels = self.canonical_labels();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.component_count()];
        for (vertex, &label) in labels.iter().enumerate() {
            members[label].push(vertex);
        }
        members
    }
}

/// Labels each vertex of the weighted graph `w` with a component id in
/// `0..k` (ids are assigned in order of first appearance). Edges with
/// weight `> threshold` connect vertices.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `w` is not square.
pub fn connected_components(w: &Matrix, threshold: f64) -> Result<Vec<usize>> {
    Ok(dense_union_find(w, threshold)?.canonical_labels())
}

/// Unions every pair `i < j` with `w_ij > threshold` or `w_ji > threshold`.
fn dense_union_find(w: &Matrix, threshold: f64) -> Result<UnionFind> {
    if !w.is_square() {
        return Err(Error::InvalidArgument {
            message: format!(
                "affinity matrix must be square, got {}x{}",
                w.rows(),
                w.cols()
            ),
        });
    }
    let n = w.rows();
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if w.get(i, j) > threshold || w.get(j, i) > threshold {
                uf.union(i, j);
            }
        }
    }
    Ok(uf)
}

/// Partitions the vertices of `w` into connected components in canonical
/// order: components are sorted by their smallest member, and the members
/// of each component are listed in ascending order.
///
/// This is the shard-extraction API used by `gssl-serve`'s sharded engine
/// (each component is an independent sub-problem: the hard system
/// `D₂₂ − W₂₂` and the soft system `V + λL` are both block-diagonal
/// across components) and is the canonical ordering contract any
/// component-based decomposition in the workspace should follow. Edges
/// with weight `> threshold` connect vertices.
///
/// [`KernelGraph::component_partition`](crate::KernelGraph::component_partition)
/// returns the same partition for a kernel graph without materializing
/// `w`: it feeds spatial-index edges into the same union–find and the
/// same grouping routine.
///
/// ```
/// use gssl_graph::components::component_partition;
/// use gssl_linalg::Matrix;
/// # fn main() -> Result<(), gssl_graph::Error> {
/// let w = Matrix::from_rows(&[
///     &[0.0, 0.0, 1.0],
///     &[0.0, 0.0, 0.0],
///     &[1.0, 0.0, 0.0],
/// ])?;
/// assert_eq!(component_partition(&w, 0.0)?, vec![vec![0, 2], vec![1]]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `w` is not square.
///
/// complexity: O(n^2)
/// deterministic
pub fn component_partition(w: &Matrix, threshold: f64) -> Result<Vec<Vec<usize>>> {
    Ok(dense_union_find(w, threshold)?.into_partition())
}

/// Returns `true` when the graph with edges of weight `> threshold` is
/// connected (vacuously true for empty and single-vertex graphs).
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `w` is not square.
pub fn is_connected(w: &Matrix, threshold: f64) -> Result<bool> {
    let labels = connected_components(w, threshold)?;
    Ok(labels.iter().all(|&l| l == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques() -> Matrix {
        // Vertices {0,1} and {2,3} fully connected within, no cross edges.
        Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn union_find_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        uf.union(2, 3);
        uf.union(0, 3);
        assert_eq!(uf.component_count(), 1);
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
    }

    #[test]
    fn components_of_two_cliques() {
        let labels = connected_components(&two_cliques(), 0.0).unwrap();
        assert_eq!(labels, vec![0, 0, 1, 1]);
        assert!(!is_connected(&two_cliques(), 0.0).unwrap());
        assert!(connected_components(&Matrix::zeros(2, 3), 0.0).is_err());
    }

    #[test]
    fn threshold_cuts_weak_edges() {
        let mut w = two_cliques();
        w.set(1, 2, 0.05);
        w.set(2, 1, 0.05);
        assert!(is_connected(&w, 0.0).unwrap());
        assert!(!is_connected(&w, 0.1).unwrap());
    }

    #[test]
    fn single_vertex_and_empty_graphs_are_connected() {
        assert!(is_connected(&Matrix::zeros(1, 1), 0.0).unwrap());
        assert!(is_connected(&Matrix::zeros(0, 0), 0.0).unwrap());
    }

    #[test]
    fn partition_is_canonical() {
        // Interleaved cliques {0,2} and {1,3}: smallest-member order puts
        // the even clique first, members ascending within each.
        let w = Matrix::from_rows(&[
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
        ])
        .unwrap();
        assert_eq!(
            component_partition(&w, 0.0).unwrap(),
            vec![vec![0, 2], vec![1, 3]]
        );
        assert_eq!(
            component_partition(&two_cliques(), 0.0).unwrap(),
            vec![vec![0, 1], vec![2, 3]]
        );
        assert_eq!(
            component_partition(&Matrix::zeros(0, 0), 0.0).unwrap(),
            Vec::<Vec<usize>>::new()
        );
        assert!(component_partition(&Matrix::zeros(2, 3), 0.0).is_err());
    }

    #[test]
    fn partition_agrees_with_labels() {
        let mut w = two_cliques();
        w.set(1, 2, 0.5);
        w.set(2, 1, 0.5);
        let labels = connected_components(&w, 0.0).unwrap();
        let parts = component_partition(&w, 0.0).unwrap();
        for (id, part) in parts.iter().enumerate() {
            for &v in part {
                assert_eq!(labels[v], id);
            }
        }
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), labels.len());
    }
}
