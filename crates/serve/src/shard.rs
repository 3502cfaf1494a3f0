//! Component-based shard decomposition of a fitted weight matrix.
//!
//! Both criterion systems of the paper are block-diagonal across
//! connected components of the kernel graph: the hard system
//! `A = D₂₂ − W₂₂` has `A_ab = −w_ab = 0` whenever `a` and `b` sit in
//! different components (and the degree diagonal is a row sum whose
//! cross-component terms are exactly `0.0`), and the soft system
//! `V + λL` inherits the Laplacian's block structure. A
//! [`ShardPlan`] makes that structure explicit: one shard per connected
//! component, discovered through the graph crate's canonical
//! [`gssl_graph::component_partition`], so each shard can be fitted,
//! refitted and snapshotted independently while the assembled
//! predictions stay bit-identical to the monolithic engine (see the
//! module docs of [`crate::sharded`] for the proof obligations).
//!
//! A plan comes from one of two edge sources with one grouping routine:
//! [`ShardPlan::from_graph`] finds the components of a
//! [`KernelGraph`](gssl_graph::KernelGraph) through a spatial index, in
//! `O(N·k)` time and `O(N)` memory, and is what [`crate::ShardedEngine`]
//! fits from; [`ShardPlan::new`] reads a dense `N × N` weight matrix and
//! stays as the reference the graph route is tested against. The
//! monolithic [`crate::ServingEngine`] fits on the plan with one shard.

use crate::error::{Error, Result};
use gssl_graph::{component_partition, KernelGraph};
use gssl_index::SpatialIndex;
use gssl_linalg::Matrix;

/// One connected component of the fitted graph, in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Global node indices of the members, strictly ascending.
    members: Vec<usize>,
    /// How many members carry an observed label at fit time. Because the
    /// engine's labeled-first convention puts all labeled globals below
    /// `n_labeled`, the labeled members are exactly the first
    /// `n_labeled` entries of the ascending `members` list.
    n_labeled: usize,
}

impl Shard {
    /// Global node indices of this shard's members, strictly ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members that were labeled at fit time (a prefix of
    /// [`Shard::members`] under the labeled-first convention).
    pub fn n_labeled(&self) -> usize {
        self.n_labeled
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the shard has no members (never true for plan shards).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The local (within-shard) index of a global node, if it belongs to
    /// this shard. `O(log s)` — members are sorted.
    pub fn local_index_of(&self, node: usize) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Extracts the member rows of an `N × d` matrix into a dense
    /// `s × d` sub-matrix (points or targets restricted to this shard).
    pub(crate) fn extract_rows(&self, full: &Matrix) -> Matrix {
        Matrix::from_fn(self.members.len(), full.cols(), |i, j| {
            full.get(self.members[i], j)
        })
    }

    /// Extracts the rows of the first `take` (labeled) members — the
    /// labeled-first target block handed to the per-shard fit.
    ///
    /// # Panics
    ///
    /// Panics when `take` exceeds the member count; the fit passes
    /// [`Shard::n_labeled`], a prefix count of the members.
    pub(crate) fn extract_labeled_rows(&self, full: &Matrix, take: usize) -> Matrix {
        assert!(
            take <= self.members.len(),
            "labeled rows are a prefix of the members"
        );
        Matrix::from_fn(take, full.cols(), |i, j| full.get(self.members[i], j))
    }
}

/// The full decomposition: every node assigned to exactly one shard,
/// shards in the canonical smallest-member-first component order.
///
/// ```
/// use gssl_linalg::Matrix;
/// use gssl_serve::ShardPlan;
/// # fn main() -> Result<(), gssl_serve::Error> {
/// // Two components: {0, 2} and {1, 3}.
/// let w = Matrix::from_rows(&[
///     &[0.0, 0.0, 1.0, 0.0],
///     &[0.0, 0.0, 0.0, 1.0],
///     &[1.0, 0.0, 0.0, 0.0],
///     &[0.0, 1.0, 0.0, 0.0],
/// ]).map_err(gssl_serve::Error::Linalg)?;
/// let plan = ShardPlan::new(&w, 2)?;
/// assert_eq!(plan.n_shards(), 2);
/// assert_eq!(plan.shards()[0].members(), &[0, 2]);
/// assert_eq!(plan.shard_of(3), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    /// Global node index → shard index.
    node_to_shard: Vec<usize>,
}

impl ShardPlan {
    /// Decomposes a fitted `N × N` weight matrix into connected
    /// components (edges are entries `> 0`), recording for each shard how
    /// many of its members fall below the labeled-first boundary
    /// `n_labeled`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Graph`] for a non-square weight matrix and
    /// [`Error::InvalidConfig`] when `n_labeled` exceeds the node count.
    /// complexity: O(n^2)
    /// deterministic
    pub fn new(weights: &Matrix, n_labeled: usize) -> Result<Self> {
        check_labeled(n_labeled, weights.rows())?;
        let partition = component_partition(weights, 0.0)?;
        Ok(Self::from_partition(partition, weights.rows(), n_labeled))
    }

    /// Decomposes a kernel graph into its connected components through
    /// `index`, a spatial index over the graph's points, without building
    /// the `N × N` weight matrix: the same plan [`ShardPlan::new`] makes
    /// from `graph.weights()`, via
    /// [`KernelGraph::component_partition`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `n_labeled` exceeds the node
    /// count, and [`Error::Graph`] when `index` does not hold the graph's
    /// points.
    /// complexity: O(n * k * d)
    /// deterministic
    pub fn from_graph(graph: &KernelGraph, index: &SpatialIndex, n_labeled: usize) -> Result<Self> {
        check_labeled(n_labeled, graph.len())?;
        let partition = graph.component_partition(index)?;
        Ok(Self::from_partition(partition, graph.len(), n_labeled))
    }

    /// The plan with one shard that holds every node: the monolithic
    /// engine's plan, which needs no component search.
    pub(crate) fn single(n_nodes: usize, n_labeled: usize) -> Self {
        ShardPlan {
            shards: vec![Shard {
                members: (0..n_nodes).collect(),
                n_labeled,
            }],
            node_to_shard: vec![0; n_nodes],
        }
    }

    /// Assembles the plan from a canonical partition of `n_nodes`
    /// vertices (components ordered by smallest member, members
    /// ascending).
    fn from_partition(partition: Vec<Vec<usize>>, n_nodes: usize, n_labeled: usize) -> Self {
        let mut node_to_shard = vec![0usize; n_nodes];
        let mut shards = Vec::with_capacity(partition.len());
        for (shard_index, members) in partition.into_iter().enumerate() {
            for &node in &members {
                node_to_shard[node] = shard_index;
            }
            // Members ascend, so the labeled ones (globals < n_labeled)
            // form a prefix.
            let labeled = members.iter().take_while(|&&m| m < n_labeled).count();
            shards.push(Shard {
                members,
                n_labeled: labeled,
            });
        }
        ShardPlan {
            shards,
            node_to_shard,
        }
    }

    /// Fails like the monolithic engine's anchoring check when a shard
    /// holds no labeled node: the hard system of such a component is
    /// singular. The error names the first stranded unlabeled node — the
    /// smallest member of the first unanchored shard, since shards are in
    /// smallest-member order — as an index into the unlabeled block.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] carrying [`gssl::Error::UnanchoredUnlabeled`].
    pub(crate) fn require_anchored(&self, n_labeled: usize) -> Result<()> {
        for shard in &self.shards {
            if let (0, Some(&first)) = (shard.n_labeled, shard.members.first()) {
                return Err(Error::Core(gssl::Error::UnanchoredUnlabeled {
                    unlabeled_index: first.saturating_sub(n_labeled),
                }));
            }
        }
        Ok(())
    }

    /// Rehydrates a plan from snapshot state: the shards as recorded at
    /// fit time, over a graph of `n_nodes` vertices. Trusts the codec's
    /// checksum for internal consistency but still rejects out-of-range
    /// or doubly-assigned members.
    pub(crate) fn from_parts(shards: Vec<Shard>, n_nodes: usize) -> Result<Self> {
        let mut node_to_shard = vec![usize::MAX; n_nodes];
        for (shard_index, shard) in shards.iter().enumerate() {
            for &node in &shard.members {
                if node >= n_nodes || node_to_shard[node] != usize::MAX {
                    return Err(Error::Snapshot {
                        message: format!("shard member {node} is out of range or assigned twice"),
                    });
                }
                node_to_shard[node] = shard_index;
            }
        }
        if node_to_shard.contains(&usize::MAX) {
            return Err(Error::Snapshot {
                message: "shard plan does not cover every node".to_owned(),
            });
        }
        Ok(ShardPlan {
            shards,
            node_to_shard,
        })
    }

    /// Builds one shard record from snapshot fields.
    pub(crate) fn shard_from_parts(members: Vec<usize>, n_labeled: usize) -> Shard {
        Shard { members, n_labeled }
    }

    /// Number of shards (graph components).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in canonical smallest-member-first order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard containing a global node index, or `None` out of range.
    pub fn shard_of(&self, node: usize) -> Option<usize> {
        self.node_to_shard.get(node).copied()
    }
}

/// Rejects a labeled-first boundary beyond the node count.
fn check_labeled(n_labeled: usize, n_nodes: usize) -> Result<()> {
    if n_labeled > n_nodes {
        return Err(Error::InvalidConfig {
            message: format!("n_labeled {n_labeled} exceeds the {n_nodes} fitted nodes"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interleaved() -> Matrix {
        // {0, 2, 4} and {1, 3} as two cliques.
        Matrix::from_fn(
            5,
            5,
            |i, j| {
                if i != j && i % 2 == j % 2 {
                    1.0
                } else {
                    0.0
                }
            },
        )
    }

    #[test]
    fn plan_splits_interleaved_components() {
        let plan = ShardPlan::new(&interleaved(), 2).unwrap();
        assert_eq!(plan.n_shards(), 2);
        assert_eq!(plan.shards()[0].members(), &[0, 2, 4]);
        assert_eq!(plan.shards()[1].members(), &[1, 3]);
        // Labeled-first: globals 0 and 1 are labeled, one per shard.
        assert_eq!(plan.shards()[0].n_labeled(), 1);
        assert_eq!(plan.shards()[1].n_labeled(), 1);
        assert_eq!(plan.shard_of(4), Some(0));
        assert_eq!(plan.shard_of(3), Some(1));
        assert_eq!(plan.shard_of(9), None);
        assert_eq!(plan.shards()[1].local_index_of(3), Some(1));
        assert_eq!(plan.shards()[1].local_index_of(0), None);
        assert_eq!(plan.shards()[0].len(), 3);
        assert!(!plan.shards()[0].is_empty());
    }

    #[test]
    fn plan_validates_inputs() {
        assert!(matches!(
            ShardPlan::new(&interleaved(), 6),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            ShardPlan::new(&Matrix::zeros(2, 3), 1),
            Err(Error::Graph(_))
        ));
    }

    #[test]
    fn row_extraction_is_bitwise() {
        let full = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64 * 0.1);
        let plan = ShardPlan::new(&interleaved(), 2).unwrap();
        let shard = &plan.shards()[1]; // members [1, 3]
        let sub = shard.extract_rows(&full);
        assert_eq!(sub.rows(), 2);
        for (local, &global) in shard.members().iter().enumerate() {
            for j in 0..2 {
                assert_eq!(sub.get(local, j).to_bits(), full.get(global, j).to_bits());
            }
        }
        let labeled = shard.extract_labeled_rows(&full, 1);
        assert_eq!(labeled.rows(), 1);
        assert_eq!(labeled.get(0, 0).to_bits(), full.get(1, 0).to_bits());
    }
}
