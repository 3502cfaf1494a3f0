//! The [`NeighborSearch`] trait, its canonical result type, and the
//! deterministic batched-query helpers built on `gssl-runtime`.
//!
//! # Canonical ordering
//!
//! Every query returns neighbors sorted ascending by `(dist2, index)`
//! using `f64::total_cmp` — the same tie-break the brute-force scan in
//! `gssl-graph` has always used (its stable sort preserves index order
//! among equal distances). Two backends that return the same neighbor
//! *set* therefore return the same neighbor *sequence*, which is what
//! lets the tree backends replace the oracle without perturbing a single
//! bit of downstream graph assembly.

use crate::error::{Error, Result};
use gssl_linalg::Matrix;
use gssl_runtime::Executor;
use std::cmp::Ordering;

/// One query result: the id of a stored point and its squared distance
/// to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the stored point (row index at build time, or the id
    /// returned by [`NeighborSearch::insert`]).
    pub index: usize,
    /// Squared Euclidean distance to the query.
    pub dist2: f64,
}

impl Neighbor {
    /// Total order: ascending `dist2` (via `total_cmp`), ties broken by
    /// ascending `index`. Distinct stored points never compare equal.
    pub fn key_cmp(&self, other: &Neighbor) -> Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then(self.index.cmp(&other.index))
    }
}

/// Bounded best-`k` accumulator: a sorted insertion buffer.
///
/// For the small `k` of kNN graphs (≤ a few dozen) a sorted `Vec` with
/// `binary_search` + `insert` beats a binary heap: no index arithmetic,
/// no sift code, and the buffer doubles as the final sorted output.
#[derive(Debug)]
pub(crate) struct KBest {
    cap: usize,
    items: Vec<Neighbor>,
}

impl KBest {
    /// Creates an accumulator that retains the `cap` smallest offers.
    /// Callers validate `cap >= 1` before constructing.
    pub fn new(cap: usize) -> Self {
        debug_assert!(cap >= 1, "KBest capacity must be positive");
        KBest {
            cap,
            items: Vec::with_capacity(cap.saturating_add(1)),
        }
    }

    /// Squared distance a candidate must beat to be admitted:
    /// the current worst retained distance, or `+inf` while underfull.
    ///
    /// hot
    /// complexity: O(1)
    pub fn bound_dist2(&self) -> f64 {
        if self.items.len() < self.cap {
            f64::INFINITY
        } else {
            self.items.last().map_or(f64::INFINITY, |n| n.dist2)
        }
    }

    /// Whether `cap` neighbors have been retained.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// Offers a candidate; keeps the best `cap` under [`Neighbor::key_cmp`].
    ///
    /// hot
    /// complexity: O(k)
    pub fn offer(&mut self, cand: Neighbor) {
        if self.is_full() {
            // Fast reject without touching the buffer: strictly worse than
            // the current worst (or equal — equal keys cannot occur for
            // distinct ids, and re-offering the same id is a backend bug).
            if self
                .items
                .last()
                .is_some_and(|worst| cand.key_cmp(worst) != Ordering::Less)
            {
                return;
            }
        }
        let pos = match self.items.binary_search_by(|probe| probe.key_cmp(&cand)) {
            Ok(pos) | Err(pos) => pos,
        };
        self.items.insert(pos, cand);
        self.items.truncate(self.cap);
    }

    /// Consumes the accumulator, yielding neighbors in canonical order.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.items
    }
}

/// Exact nearest-neighbor search over a fixed-dimension point set.
///
/// All implementations in this crate are *exact*: for any query they
/// return precisely the neighbors the brute-force scan would, in the
/// canonical `(dist2, index)` order, with bitwise-equal distances (see
/// the module docs for why). `build` is deterministic — the same point
/// matrix always produces the same tree — and [`NeighborSearch::insert`]
/// supports out-of-sample growth after construction.
pub trait NeighborSearch: Sized {
    /// Builds an index over `points` (rows are points).
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyInput`] when `points` has no rows or no columns.
    /// * [`Error::NonFiniteCoordinate`] when any coordinate is NaN/inf.
    /// deterministic
    fn build(points: &Matrix) -> Result<Self>;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index holds no points (impossible after `build`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension of the indexed points.
    fn dim(&self) -> usize;

    /// Borrows the coordinates of stored point `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    fn point(&self, i: usize) -> &[f64];

    /// Appends an out-of-sample point, returning its id. The id sequence
    /// continues from the build-time row indices (`len()` before the
    /// call), so graph vertices and index ids never diverge.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] on wrong query dimension.
    /// * [`Error::NonFiniteCoordinate`] on NaN/inf coordinates.
    fn insert(&mut self, point: &[f64]) -> Result<usize>;

    /// The `k` nearest stored points to `query`, optionally excluding one
    /// id (a point querying its own neighborhood excludes itself).
    ///
    /// Results are sorted ascending by `(dist2, index)`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] / [`Error::NonFiniteCoordinate`]
    ///   on an invalid query.
    /// * [`Error::InvalidArgument`] when `k == 0` or `k` exceeds the
    ///   number of eligible candidates.
    /// deterministic
    fn k_nearest_excluding(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Result<Vec<Neighbor>>;

    /// The `k` nearest stored points to `query`.
    ///
    /// # Errors
    ///
    /// Same as [`NeighborSearch::k_nearest_excluding`].
    /// deterministic
    fn k_nearest(&self, query: &[f64], k: usize) -> Result<Vec<Neighbor>> {
        self.k_nearest_excluding(query, k, None)
    }

    /// Every stored point within `radius` of `query` (inclusive:
    /// `dist <= radius`), sorted ascending by `(dist2, index)`.
    ///
    /// The inclusive boundary matches the compactly supported kernels in
    /// `gssl-graph`, whose profiles are nonzero at `t = 1` for the boxcar
    /// case — a support-radius query must therefore keep `dist == h`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] / [`Error::NonFiniteCoordinate`]
    ///   on an invalid query.
    /// * [`Error::InvalidArgument`] when `radius` is negative or non-finite.
    /// deterministic
    fn within_radius(&self, query: &[f64], radius: f64) -> Result<Vec<Neighbor>>;

    /// The order in which the self-join batches ([`self_k_nearest_batch`],
    /// [`self_within_radius_batch`]) run their queries: a permutation of
    /// `0..len()`. An order that visits nearby points one after another
    /// lets each query walk the tree paths and point rows its predecessor
    /// just warmed. It changes only when a query runs, never its result,
    /// so batch output does not depend on it. The default is the
    /// identity.
    ///
    /// complexity: O(n)
    /// deterministic
    fn query_order(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }
}

/// Validates the shared `k_nearest` preconditions; returns the number of
/// eligible candidates.
pub(crate) fn check_k(len: usize, k: usize, exclude: Option<usize>) -> Result<usize> {
    let candidates = match exclude {
        Some(e) if e < len => len - 1,
        _ => len,
    };
    if k == 0 {
        return Err(Error::InvalidArgument {
            message: "k must be at least 1".into(),
        });
    }
    if k > candidates {
        return Err(Error::InvalidArgument {
            message: format!("k = {k} exceeds the {candidates} eligible points"),
        });
    }
    Ok(candidates)
}

/// Validates a radius-query precondition.
pub(crate) fn check_radius(radius: f64) -> Result<()> {
    if !radius.is_finite() || radius < 0.0 {
        return Err(Error::InvalidArgument {
            message: format!("radius must be finite and nonnegative, got {radius}"),
        });
    }
    Ok(())
}

/// The neighbor lists of a query batch in one flat buffer: row `i` holds
/// query `i`'s neighbors in canonical `(dist2, index)` order, and rows lie
/// back to back in ascending `i` (a CSR layout of one offsets table and
/// one [`Neighbor`] buffer, however many queries the batch ran).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborRows {
    /// `offsets[i]..offsets[i + 1]` is row `i` of `neighbors`.
    offsets: Vec<usize>,
    neighbors: Vec<Neighbor>,
}

impl NeighborRows {
    /// Number of rows (queries in the batch).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch ran no queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbors of query `i`, in canonical order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    ///
    /// hot
    /// complexity: O(1)
    pub fn row(&self, i: usize) -> &[Neighbor] {
        debug_assert!(i < self.len(), "row {i} of {} rows", self.len());
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The rows in query order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Neighbor]> + '_ {
        self.offsets
            .windows(2)
            .map(|span| &self.neighbors[span[0]..span[1]])
    }

    /// Total number of neighbors over all rows.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }
}

/// The rows of one claimed block in one flat buffer: the row of the
/// block's `j`-th query is `neighbors[spans[j].0..spans[j].1]`.
struct RowBlock {
    neighbors: Vec<Neighbor>,
    spans: Vec<(usize, usize)>,
}

/// Chunk width used by the batched helpers: ~4 chunks per worker bounds
/// the tail-latency imbalance while keeping per-chunk overhead small.
fn batch_block(len: usize, executor: &Executor) -> usize {
    len.div_ceil(executor.workers().saturating_mul(4).max(1))
        .max(1)
}

/// Inverts `order`: `position[id]` is where `id` runs.
///
/// # Errors
///
/// [`Error::InvalidArgument`] when `order` is not a permutation of
/// `0..order.len()`.
fn run_positions(order: &[usize]) -> Result<Vec<usize>> {
    let mut position = vec![usize::MAX; order.len()];
    for (run, &id) in order.iter().enumerate() {
        match position.get_mut(id) {
            Some(slot) if *slot == usize::MAX => *slot = run,
            _ => return Err(not_a_permutation(order.len(), run, id)),
        }
    }
    Ok(position)
}

/// The error for an order whose position `run` holds `id`, either out of
/// range or seen before.
fn not_a_permutation(len: usize, run: usize, id: usize) -> Error {
    Error::InvalidArgument {
        message: format!(
            "query order is not a permutation of 0..{len} (id {id} at position {run})"
        ),
    }
}

/// Runs `query(id)` for every id of `order`, a permutation of
/// `0..order.len()`, and returns the rows indexed by id.
///
/// Workers claim fixed blocks of `order`, one block per claim, and each
/// block writes its rows into one flat buffer. The rows are then copied
/// out in ascending id order, so the table depends only on what `query`
/// returns for each id: the order decides *when* a query runs, never its
/// arithmetic or where its row lands. `row_hint` is the expected row
/// length (exact for kNN), used to size each block's buffer once.
///
/// # Errors
///
/// [`Error::InvalidArgument`] when `order` is not a permutation; else the
/// first error of the lowest failing block, in run order.
///
/// hot
/// complexity: O(q * n * d)
fn batch_rows<F>(
    order: &[usize],
    row_hint: usize,
    executor: &Executor,
    query: F,
) -> Result<NeighborRows>
where
    F: Fn(usize) -> Result<Vec<Neighbor>> + Sync,
{
    let position = run_positions(order)?;
    let width = batch_block(order.len(), executor);
    let blocks: Vec<&[usize]> = order.chunks(width).collect();
    let runs = executor.map_tasks(&blocks, |_, ids| -> Result<RowBlock> {
        let mut neighbors = Vec::with_capacity(ids.len().saturating_mul(row_hint));
        let mut spans = Vec::with_capacity(ids.len());
        for &id in ids.iter() {
            let start = neighbors.len();
            neighbors.extend_from_slice(&query(id)?);
            spans.push((start, neighbors.len()));
        }
        Ok(RowBlock { neighbors, spans })
    })?;
    // Write back by id: row `id` is the row its query produced at run
    // position `position[id]`, in block `run / width` at slot `run % width`.
    let mut offsets = Vec::with_capacity(order.len() + 1);
    let mut neighbors = Vec::with_capacity(runs.iter().map(|b| b.neighbors.len()).sum());
    offsets.push(0);
    for &run in &position {
        let block = &runs[run / width];
        let (start, end) = block.spans[run % width];
        neighbors.extend_from_slice(&block.neighbors[start..end]);
        offsets.push(neighbors.len());
    }
    Ok(NeighborRows { offsets, neighbors })
}

/// `k_nearest` for every row of `queries`, executed in fixed chunks on
/// `executor`. Each query is answered by a pure function of the frozen
/// index and its own row, so the table (row `i` answers query row `i`)
/// is **bit-identical at every worker count**. Queries run in input
/// order: out-of-sample rows carry no index-supplied order.
///
/// # Errors
///
/// Any per-query error from [`NeighborSearch::k_nearest`], plus
/// [`Error::DimensionMismatch`] when `queries.cols() != index.dim()`.
///
/// hot
/// complexity: O(q * n * d)
/// deterministic
pub fn k_nearest_batch<I: NeighborSearch + Sync>(
    index: &I,
    queries: &Matrix,
    k: usize,
    executor: &Executor,
) -> Result<NeighborRows> {
    if queries.cols() != index.dim() {
        return Err(Error::DimensionMismatch {
            expected: index.dim(),
            actual: queries.cols(),
        });
    }
    let order: Vec<usize> = (0..queries.rows()).collect();
    batch_rows(&order, k, executor, |qi| {
        index.k_nearest(queries.row(qi), k)
    })
}

/// The self-join kNN: for every stored point `i`, its `k` nearest *other*
/// stored points — the exact neighbor lists kNN graph assembly consumes.
/// Queries run in [`NeighborSearch::query_order`] and land at their ids,
/// so the table is bit-identical at every worker count and under any
/// query order.
///
/// # Errors
///
/// Same as [`NeighborSearch::k_nearest_excluding`], plus
/// [`Error::InvalidArgument`] when the index's query order is not a
/// permutation.
///
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn self_k_nearest_batch<I: NeighborSearch + Sync>(
    index: &I,
    k: usize,
    executor: &Executor,
) -> Result<NeighborRows> {
    batch_rows(&index.query_order(), k, executor, |i| {
        index.k_nearest_excluding(index.point(i), k, Some(i))
    })
}

/// The self-join range query: for every stored point `i`, all *other*
/// stored points within `radius` — the neighbor lists ε-graph assembly
/// consumes. Runs in [`NeighborSearch::query_order`] like
/// [`self_k_nearest_batch`], and is deterministic for the same reason.
///
/// # Errors
///
/// Same as [`NeighborSearch::within_radius`], plus
/// [`Error::InvalidArgument`] when the index's query order is not a
/// permutation.
///
/// hot
/// complexity: O(n^2 * d)
/// deterministic
pub fn self_within_radius_batch<I: NeighborSearch + Sync>(
    index: &I,
    radius: f64,
    executor: &Executor,
) -> Result<NeighborRows> {
    batch_rows(&index.query_order(), 0, executor, |i| {
        let mut list = index.within_radius(index.point(i), radius)?;
        list.retain(|nb| nb.index != i);
        Ok(list)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(index: usize, dist2: f64) -> Neighbor {
        Neighbor { index, dist2 }
    }

    #[test]
    fn key_cmp_orders_by_distance_then_index() {
        assert_eq!(nb(5, 1.0).key_cmp(&nb(0, 2.0)), Ordering::Less);
        assert_eq!(nb(5, 2.0).key_cmp(&nb(0, 2.0)), Ordering::Greater);
        assert_eq!(nb(0, 2.0).key_cmp(&nb(5, 2.0)), Ordering::Less);
        assert_eq!(nb(3, 2.0).key_cmp(&nb(3, 2.0)), Ordering::Equal);
    }

    #[test]
    fn kbest_retains_smallest_k_in_order() {
        let mut best = KBest::new(3);
        assert_eq!(best.bound_dist2(), f64::INFINITY);
        for (i, d) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 2.0), (4, 9.0), (5, 1.0)] {
            best.offer(nb(i, d));
        }
        assert!(best.is_full());
        assert_eq!(best.bound_dist2(), 2.0);
        let out = best.into_sorted();
        assert_eq!(
            out,
            vec![nb(1, 1.0), nb(5, 1.0), nb(3, 2.0)],
            "ties broken by index, worst trimmed"
        );
    }

    #[test]
    fn kbest_rejects_equal_or_worse_when_full() {
        let mut best = KBest::new(2);
        best.offer(nb(0, 1.0));
        best.offer(nb(1, 3.0));
        // Worse than the current worst: rejected.
        best.offer(nb(2, 4.0));
        // Same distance, higher index than the worst: rejected by tie-break.
        best.offer(nb(9, 3.0));
        // Same distance, lower index: admitted, evicting index 1.
        best.offer(nb(0, 3.0));
        // (Re-offering id 0 is a backend bug in real use; here it just
        // exercises the comparator.)
        let out = best.into_sorted();
        assert_eq!(out, vec![nb(0, 1.0), nb(0, 3.0)]);
    }

    #[test]
    fn check_k_enforces_bounds() {
        assert!(check_k(5, 0, None).is_err());
        assert!(check_k(5, 6, None).is_err());
        assert_eq!(check_k(5, 5, None).unwrap(), 5);
        assert!(check_k(5, 5, Some(2)).is_err());
        assert_eq!(check_k(5, 4, Some(2)).unwrap(), 4);
        // An exclusion id beyond the stored range excludes nothing.
        assert_eq!(check_k(5, 5, Some(17)).unwrap(), 5);
    }

    #[test]
    fn check_radius_enforces_bounds() {
        assert!(check_radius(-1.0).is_err());
        assert!(check_radius(f64::NAN).is_err());
        assert!(check_radius(f64::INFINITY).is_err());
        assert!(check_radius(0.0).is_ok());
        assert!(check_radius(2.5).is_ok());
    }

    #[test]
    fn run_positions_inverts_permutations_and_rejects_the_rest() {
        assert_eq!(run_positions(&[2, 0, 1]).unwrap(), vec![1, 2, 0]);
        assert!(run_positions(&[]).unwrap().is_empty());
        for bad in [&[0, 0, 1][..], &[0, 3, 1][..]] {
            assert!(matches!(
                run_positions(bad),
                Err(Error::InvalidArgument { .. })
            ));
        }
    }

    /// A brute-force index that runs its self-join batches in `order`.
    struct Ordered {
        inner: crate::BruteForce,
        order: Vec<usize>,
    }

    impl NeighborSearch for Ordered {
        fn build(points: &Matrix) -> Result<Self> {
            let inner = crate::BruteForce::build(points)?;
            let order = (0..inner.len()).collect();
            Ok(Ordered { inner, order })
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn point(&self, i: usize) -> &[f64] {
            self.inner.point(i)
        }
        fn insert(&mut self, point: &[f64]) -> Result<usize> {
            self.inner.insert(point)
        }
        fn k_nearest_excluding(
            &self,
            query: &[f64],
            k: usize,
            exclude: Option<usize>,
        ) -> Result<Vec<Neighbor>> {
            self.inner.k_nearest_excluding(query, k, exclude)
        }
        fn within_radius(&self, query: &[f64], radius: f64) -> Result<Vec<Neighbor>> {
            self.inner.within_radius(query, radius)
        }
        fn query_order(&self) -> Vec<usize> {
            self.order.clone()
        }
    }

    #[test]
    fn self_batches_do_not_depend_on_the_query_order() {
        let pts = Matrix::from_fn(57, 2, |i, j| ((i * 7 + j * 3) as f64 * 0.37).fract());
        let mut index = Ordered::build(&pts).unwrap();
        let seq = Executor::Sequential;
        let knn = self_k_nearest_batch(&index, 4, &seq).unwrap();
        let balls = self_within_radius_batch(&index, 0.3, &seq).unwrap();
        assert_eq!(knn.len(), 57);
        assert_eq!(knn.neighbor_count(), 57 * 4);
        for order in [
            (0..57).rev().collect(),
            (0..57).map(|i| i * 23 % 57).collect(),
        ] {
            index.order = order;
            for workers in [1, 2, 3] {
                let executor = Executor::with_workers(workers);
                assert_eq!(self_k_nearest_batch(&index, 4, &executor).unwrap(), knn);
                assert_eq!(
                    self_within_radius_batch(&index, 0.3, &executor).unwrap(),
                    balls
                );
            }
        }
        index.order = vec![0; 57];
        assert!(matches!(
            self_k_nearest_batch(&index, 4, &seq),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn an_empty_batch_is_an_empty_table() {
        let index =
            crate::BruteForce::build(&Matrix::from_fn(3, 2, |i, j| (i + j) as f64)).unwrap();
        let rows = k_nearest_batch(&index, &Matrix::zeros(0, 2), 1, &Executor::Sequential).unwrap();
        assert!(rows.is_empty());
        assert_eq!(rows.rows().len(), 0);
        assert_eq!(rows.neighbor_count(), 0);
    }
}
