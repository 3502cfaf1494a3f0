//! Compressed sparse row (CSR) matrices.
//!
//! Similarity graphs built by kNN or ε-thresholding are sparse; CSR keeps
//! the iterative hard-criterion solvers at `O(nnz)` per sweep instead of
//! `O((n+m)²)`.

use crate::error::{Error, Result};
use crate::matrix::{row_block, Matrix};
use gssl_runtime::Executor;

/// Stored entries from which [`CsrMatrix::matvec_into_with`] shards rows
/// across its executor. Every dispatch spawns scoped threads (~100–150 µs
/// for two workers), which costs more than a small matvec saves.
///
/// Measured on a 2-core VM by timing the 1-worker matvec against the
/// 2-worker sharded one, alternating, 10 samples per size, on 5-point
/// stencils of 2^14 … 2^21 entries: the smallest power of two where two
/// workers won at least 9 of 10 samples was 2^19 (median over the sweeps
/// that found one). Pooled over the sweeps with under 10 % steal time, two
/// workers won 33 of 50 samples at 2^18 and 46 of 50 at 2^19, and never
/// more than 3 of 10 at 2^17 or below.
pub(crate) const PARALLEL_MIN_NNZ: usize = 1 << 19;

/// A sparse matrix in compressed sparse row format.
///
/// ```
/// use gssl_linalg::CsrMatrix;
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 4.0)]).unwrap();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(0, 1), 3.0);
/// assert_eq!(m.get(0, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Nonzero values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) sparse matrix.
    /// shape: (rows, cols)
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets sharing a coordinate are summed in input order. A zero is
    /// dropped only when it would open a coordinate (it is the first value
    /// kept there), so a group whose sum is exactly `0.0` — `1.0` then
    /// `-1.0` — stays stored and counts in [`CsrMatrix::nnz`]. Columns are
    /// sorted within each row. Assembly is a stable counting sort in
    /// `O(nnz + rows)`: the result is bitwise what a stable comparison sort
    /// by `(row, col)` followed by the same in-order summation produces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when any coordinate is out of
    /// bounds.
    /// shape: (rows, cols)
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(Error::InvalidArgument {
                    message: format!("triplet ({r}, {c}) out of bounds for {rows}x{cols} matrix"),
                });
            }
        }
        Ok(Self::from_entries(rows, cols, triplets.iter().copied()))
    }

    /// Stable counting-sort assembly shared by [`CsrMatrix::from_triplets`]
    /// and [`CsrMatrix::transpose`]; every coordinate must already be in
    /// bounds. `entries` is walked twice: once to count each row, once to
    /// scatter `(col, value)` into its row's bucket in input order.
    ///
    /// A bucket is then sorted by column only when it is out of order, with
    /// a stable sort, so equal coordinates keep their input order: the
    /// sequence the merge loop sees is exactly that of a stable sort of the
    /// whole input by `(row, col)`, and duplicates are summed in the same
    /// order (see DESIGN.md, "CSR construction").
    /// shape: (rows, cols)
    fn from_entries<I>(rows: usize, cols: usize, entries: I) -> Self
    where
        I: Iterator<Item = (usize, usize, f64)> + Clone,
    {
        debug_assert!(entries.clone().all(|(r, c, _)| r < rows && c < cols));
        // Row starts: per-row counts shifted by one, then prefix-summed.
        let mut starts = vec![0usize; rows + 1];
        for (r, _, _) in entries.clone() {
            starts[r + 1] += 1;
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        let mut next = starts.clone();
        let mut bucket = vec![(0usize, 0.0f64); total];
        for (r, c, v) in entries {
            let slot = &mut next[r];
            bucket[*slot] = (c, v);
            *slot += 1;
        }

        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(total);
        let mut values: Vec<f64> = Vec::with_capacity(total);
        indptr.push(0);
        for span in starts.windows(2) {
            let row = &mut bucket[span[0]..span[1]];
            if !row.is_sorted_by_key(|&(c, _)| c) {
                row.sort_by_key(|&(c, _)| c);
            }
            let row_start = indices.len();
            for &(c, v) in row.iter() {
                // Merge a duplicate into the entry this row stored last.
                if let (Some(&last_c), Some(last_v)) =
                    (indices[row_start..].last(), values.last_mut())
                {
                    if last_c == c {
                        *last_v += v;
                        continue;
                    }
                }
                if crate::float::is_exactly_zero(v) {
                    continue;
                }
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Converts a dense matrix to CSR, dropping entries with
    /// `|a_ij| <= threshold`.
    /// shape: (dense.rows, dense.cols)
    pub fn from_dense(dense: &Matrix, threshold: f64) -> Self {
        // Count survivors first so both payload buffers are sized exactly
        // once instead of growing through the fill loop.
        let nnz = dense
            .as_slice()
            .iter()
            .filter(|v| v.abs() > threshold)
            .count();
        let mut indptr = Vec::with_capacity(dense.rows() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for i in 0..dense.rows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v.abs() > threshold {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: dense.rows(),
            cols: dense.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Expands to a dense [`Matrix`].
    /// shape: (self.rows, self.cols)
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                out.set(i, j, v);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values, in row-major stored order.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Element at `(i, j)` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "sparse index out of bounds");
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        match self.indices[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row index out of bounds");
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Computes `out = A x` for a slice `x` of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `out.len() != rows`.
    /// hot
    /// complexity: O(nnz)
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "operand length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        self.matvec_rows_into(0, x, out);
    }

    /// The one CSR row kernel: `out[k] = (A x)[start + k]` for the rows
    /// `start..start + out.len()`. Each row sums `v * x[j]` over its stored
    /// entries in stored order, starting from `0.0`, so a row's bits do not
    /// depend on which rows share the call.
    /// hot
    /// complexity: O(nnz)
    pub(crate) fn matvec_rows_into(&self, start: usize, x: &[f64], out: &mut [f64]) {
        debug_assert!(start + out.len() <= self.rows && x.len() == self.cols);
        let spans = self.indptr[start..=start + out.len()].windows(2);
        for (o, span) in out.iter_mut().zip(spans) {
            let (lo, hi) = (span[0], span[1]);
            let mut sum = 0.0;
            for (&j, &v) in self.indices[lo..hi].iter().zip(&self.values[lo..hi]) {
                sum += v * x[j];
            }
            *o = sum;
        }
    }

    /// [`CsrMatrix::matvec_into`] with the rows sharded across `executor`
    /// (about four row blocks per worker) once the matrix stores at
    /// least [`PARALLEL_MIN_NNZ`] entries; smaller matrices run on the
    /// calling thread. Every row goes through the same kernel either way,
    /// so the output is bitwise that of `matvec_into` at any worker count.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `out.len() != rows`.
    /// deterministic
    pub(crate) fn matvec_into_with(&self, x: &[f64], out: &mut [f64], executor: &Executor) {
        if self.nnz() < PARALLEL_MIN_NNZ || executor.is_sequential() {
            self.matvec_into(x, out);
            return;
        }
        assert_eq!(x.len(), self.cols, "operand length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        let block = row_block(self.rows, executor);
        let sharded = executor.for_each_chunk_mut(out, block, |start, chunk| {
            self.matvec_rows_into(start, x, chunk);
        });
        if sharded.is_err() {
            // The block width is at least one and the kernel cannot fail,
            // so this arm is unreachable; recompute on the calling thread
            // rather than panic if it ever fires.
            self.matvec_into(x, out);
        }
    }

    /// Computes `A x` into a freshly allocated `Vec`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    /// hot
    /// complexity: O(nnz)
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Half-bandwidth: the largest `|i - j|` over stored entries (zero for
    /// a diagonal or empty matrix). Drives the solver policy's choice
    /// between incomplete-Cholesky CG (exact on narrow bands) and
    /// multigrid (wide-band graph Laplacians).
    /// complexity: O(nnz)
    pub fn bandwidth(&self) -> usize {
        let mut band = 0usize;
        for i in 0..self.rows {
            for (j, _) in self.row_iter(i) {
                band = band.max(i.abs_diff(j));
            }
        }
        band
    }

    /// Sum of each row (the degree vector when `self` is an affinity matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row_iter(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Returns the transpose (also in CSR form).
    ///
    /// Stored zeros are dropped — each coordinate of `self` is stored once,
    /// so its zero opens the coordinate in the transpose — which means
    /// `m.transpose().transpose() != m` when `m` stores a zero (a duplicate
    /// group of [`CsrMatrix::from_triplets`] that cancelled to `0.0`).
    /// Walking `self` in row order fills each transposed row already sorted.
    /// shape: (self.cols, self.rows)
    pub fn transpose(&self) -> CsrMatrix {
        // One flat pass over the stored entries, each tagged with its row:
        // far cheaper per entry than nesting a fresh row iterator per row.
        let source_rows = self
            .indptr
            .windows(2)
            .enumerate()
            .flat_map(|(i, span)| std::iter::repeat_n(i, span[1] - span[0]));
        let entries = self
            .indices
            .iter()
            .zip(source_rows)
            .zip(&self.values)
            .map(|((&j, i), &v)| (j, i, v));
        CsrMatrix::from_entries(self.cols, self.rows, entries)
    }

    /// Returns `true` when the matrix equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        for i in 0..self.rows {
            // Stream both rows (columns are sorted in CSR) instead of
            // collecting them into per-row scratch vectors.
            let mut a = self.row_iter(i).filter(|&(_, v)| v.abs() > tol);
            let mut b = t.row_iter(i).filter(|&(_, v)| v.abs() > tol);
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break,
                    (Some((ja, va)), Some((jb, vb))) => {
                        if ja != jb || (va - vb).abs() > tol {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// Multiplies every stored value by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The comparison-sort `from_triplets` this crate shipped before the
    /// counting sort, logic unchanged, as the bitwise oracle (coordinates
    /// are assumed in bounds).
    fn comparison_sort_reference(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> CsrMatrix {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if let (Some(&last_c), Some(last_v)) = (indices.last(), values.last_mut()) {
                if indptr[r + 1] > 0 && last_c == c && indptr[r + 1] == indices.len() {
                    *last_v += v;
                    continue;
                }
            }
            if crate::float::is_exactly_zero(v) {
                continue;
            }
            indices.push(c);
            values.push(v);
            indptr[r + 1] = indices.len();
        }
        for r in 1..=rows {
            if indptr[r] < indptr[r - 1] {
                indptr[r] = indptr[r - 1];
            }
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// The triplet-based transpose, fed through the oracle.
    fn transpose_reference(m: &CsrMatrix) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..m.rows {
            for (j, v) in m.row_iter(i) {
                triplets.push((j, i, v));
            }
        }
        comparison_sort_reference(m.cols, m.rows, &triplets)
    }

    /// Shape, structure and every value bit (so `-0.0 != 0.0`) agree.
    fn assert_bitwise(got: &CsrMatrix, want: &CsrMatrix) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols));
        assert_eq!(got.indptr, want.indptr);
        assert_eq!(got.indices, want.indices);
        let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
    }

    /// Values whose duplicate sums depend on summation order, signed zeros
    /// and values that cancel exactly.
    const PALETTE: [f64; 8] = [1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 0.5, 3.25];

    /// `count` seeded triplets in a `rows x cols` shape, unsorted, with
    /// many duplicate coordinates when the shape is small.
    fn seeded_triplets(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        count: usize,
    ) -> Vec<(usize, usize, f64)> {
        (0..count)
            .map(|_| {
                let v = if rng.gen_range(0..4usize) == 0 {
                    rng.gen::<f64>() * 2.0 - 1.0
                } else {
                    PALETTE[rng.gen_range(0..PALETTE.len())]
                };
                (rng.gen_range(0..rows), rng.gen_range(0..cols), v)
            })
            .collect()
    }

    #[test]
    fn from_triplets_is_bitwise_the_comparison_sort_on_edge_cases() {
        type Case = (usize, usize, Vec<(usize, usize, f64)>);
        let cases: Vec<Case> = vec![
            // Order-dependent sum: (1e16 + 1) - 1e16 is 0.0, not 1.0.
            (1, 2, vec![(0, 1, 1e16), (0, 1, 1.0), (0, 1, -1e16)]),
            (1, 2, vec![(0, 1, 1e16), (0, 1, -1e16), (0, 1, 1.0)]),
            // Signed zeros: dropped when they open a coordinate, summed
            // (and their sign kept by IEEE rules) when merged.
            (2, 3, vec![(1, 1, -0.0), (1, 1, 0.0), (0, 2, -0.0)]),
            (
                2,
                3,
                vec![(1, 2, -2.0), (1, 2, 2.0), (1, 2, -0.0), (0, 0, -0.0)],
            ),
            // A duplicate group that cancels to a stored 0.0.
            (3, 3, vec![(2, 0, 1.5), (0, 1, 4.0), (2, 0, -1.5)]),
            // A zero followed by a nonzero duplicate.
            (4, 5, vec![(3, 4, 0.0), (3, 4, 2.0), (3, 4, -0.0)]),
            // Empty rows around a lone entry; rows given in reverse.
            (5, 5, vec![(4, 0, 1.0), (2, 3, 1.0), (2, 1, 7.0)]),
            // Degenerate shapes.
            (0, 4, vec![]),
            (4, 0, vec![]),
            (0, 0, vec![]),
            (3, 3, vec![]),
        ];
        for (rows, cols, triplets) in &cases {
            let got = CsrMatrix::from_triplets(*rows, *cols, triplets).unwrap();
            assert_bitwise(&got, &comparison_sort_reference(*rows, *cols, triplets));
        }
        // The cancelled group stays stored and counts in nnz.
        let cancelled = CsrMatrix::from_triplets(3, 3, &cases[4].2).unwrap();
        assert_eq!(cancelled.nnz(), 2);
        assert_eq!(cancelled.get(2, 0).to_bits(), 0.0f64.to_bits());
        // Summation follows input order.
        let ordered = CsrMatrix::from_triplets(1, 2, &cases[0].2).unwrap();
        assert_eq!(ordered.get(0, 1).to_bits(), 0.0f64.to_bits());
        let reordered = CsrMatrix::from_triplets(1, 2, &cases[1].2).unwrap();
        assert_eq!(reordered.get(0, 1), 1.0);
    }

    #[test]
    fn from_triplets_is_bitwise_the_comparison_sort_on_seeded_inputs() {
        let mut rng = StdRng::seed_from_u64(0xC5_0001);
        for _ in 0..200 {
            // Few rows and columns with up to ~300 triplets: rows run far
            // past 20 unsorted entries, each coordinate repeated many times.
            let rows = rng.gen_range(1..9usize);
            let cols = rng.gen_range(1..12usize);
            let count = rng.gen_range(0..300usize);
            let triplets = seeded_triplets(&mut rng, rows, cols, count);
            let got = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            assert_bitwise(&got, &comparison_sort_reference(rows, cols, &triplets));
        }
        // A larger, sparser case with empty rows.
        let triplets = seeded_triplets(&mut rng, 300, 300, 20_000);
        let got = CsrMatrix::from_triplets(300, 300, &triplets).unwrap();
        assert_bitwise(&got, &comparison_sort_reference(300, 300, &triplets));
    }

    #[test]
    fn transpose_is_bitwise_the_triplet_transpose() {
        let mut rng = StdRng::seed_from_u64(0xC5_0002);
        let mut stored_zero_seen = false;
        for _ in 0..200 {
            let rows = rng.gen_range(0..10usize);
            let cols = rng.gen_range(0..14usize);
            let count = if rows == 0 || cols == 0 {
                0
            } else {
                rng.gen_range(0..300usize)
            };
            let triplets = seeded_triplets(&mut rng, rows.max(1), cols.max(1), count);
            let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            stored_zero_seen |= m.values.iter().any(|&v| crate::float::is_exactly_zero(v));
            let t = m.transpose();
            assert_bitwise(&t, &transpose_reference(&m));
            assert_bitwise(&t.transpose(), &transpose_reference(&t));
        }
        assert!(
            stored_zero_seen,
            "the seeded inputs must store a cancelled zero"
        );
    }

    #[test]
    fn transpose_drops_stored_zeros() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 2, -1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        let t = m.transpose();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(0, 1), 2.0);
        assert_ne!(t.transpose(), m);
    }

    /// The `row_iter` loop `matvec_into` ran before the row kernel.
    fn row_iter_matvec(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        (0..m.rows)
            .map(|i| {
                let mut sum = 0.0;
                for (j, v) in m.row_iter(i) {
                    sum += v * x[j];
                }
                sum
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// A palette value three times in four, else a uniform draw in [-1, 1).
    fn seeded_value(rng: &mut StdRng) -> f64 {
        if rng.gen_range(0..4usize) == 0 {
            rng.gen::<f64>() * 2.0 - 1.0
        } else {
            PALETTE[rng.gen_range(0..PALETTE.len())]
        }
    }

    /// A square `rows x rows` matrix storing exactly `nnz` entries (stored
    /// zeros of both signs included): rows differ in length by at most one
    /// and spread their columns over the whole width.
    fn seeded_csr_with_nnz(rng: &mut StdRng, rows: usize, nnz: usize) -> CsrMatrix {
        let mut indptr = vec![0usize];
        let mut indices = Vec::with_capacity(nnz);
        for i in 0..rows {
            let len = nnz / rows + usize::from(i < nnz % rows);
            let step = rows / len.max(1);
            indices.extend((0..len).map(|k| k * step + i % step.max(1)));
            indptr.push(indices.len());
        }
        let values = (0..nnz).map(|_| seeded_value(rng)).collect();
        CsrMatrix {
            rows,
            cols: rows,
            indptr,
            indices,
            values,
        }
    }

    #[test]
    fn matvec_into_is_bitwise_the_row_iter_loop() {
        let mut rng = StdRng::seed_from_u64(0xC5_0003);
        for _ in 0..200 {
            let rows = rng.gen_range(0..12usize);
            let cols = rng.gen_range(1..14usize);
            let count = rng.gen_range(0..300usize);
            let triplets = if rows == 0 {
                Vec::new()
            } else {
                seeded_triplets(&mut rng, rows, cols, count)
            };
            let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            let x: Vec<f64> = (0..cols).map(|_| seeded_value(&mut rng)).collect();
            assert_eq!(bits(&m.matvec(&x)), bits(&row_iter_matvec(&m, &x)));
        }
    }

    #[test]
    fn matvec_into_with_is_bitwise_matvec_into_around_the_gate() {
        let mut rng = StdRng::seed_from_u64(0xC5_0004);
        // 4099 rows: no worker count divides them into equal blocks.
        for nnz in [PARALLEL_MIN_NNZ - 1, PARALLEL_MIN_NNZ] {
            let m = seeded_csr_with_nnz(&mut rng, 4099, nnz);
            assert_eq!(m.nnz(), nnz);
            assert!(m
                .indptr
                .windows(2)
                .all(|w| m.indices[w[0]..w[1]].is_sorted()));
            let x: Vec<f64> = (0..m.cols).map(|_| seeded_value(&mut rng)).collect();
            let want = m.matvec(&x);
            for workers in [1, 2, 3, 8] {
                let mut got = vec![f64::NAN; m.rows];
                m.matvec_into_with(&x, &mut got, &Executor::with_workers(workers));
                assert_eq!(bits(&got), bits(&want), "nnz={nnz} workers={workers}");
            }
        }
    }

    #[test]
    fn from_triplets_and_get() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 1, 5.0), (0, 2, 2.0)]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let dense = Matrix::from_rows(&[&[0.0, 1.5, 0.0], &[2.0, 0.0, 0.0]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn from_dense_applies_threshold() {
        let dense = Matrix::from_rows(&[&[0.1, 0.9], &[-0.05, 0.5]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense, 0.2);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.get(0, 1), 0.9);
        assert_eq!(sparse.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let dense =
            Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        let x = [1.0, 2.0, 3.0];
        let expected = dense.matvec(&crate::Vector::from(x.as_slice())).unwrap();
        assert_eq!(sparse.matvec(&x), expected.as_slice().to_vec());
    }

    #[test]
    fn row_sums_match_degrees() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0)]).unwrap();
        assert_eq!(m.row_sums(), vec![3.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
        let rect = CsrMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn scale_multiplies_values() {
        let mut m = CsrMatrix::from_triplets(1, 2, &[(0, 0, 2.0), (0, 1, -1.0)]).unwrap();
        m.scale(3.0);
        assert_eq!(m.get(0, 0), 6.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn empty_rows_have_valid_indptr() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        assert_eq!(m.row_iter(0).count(), 0);
        assert_eq!(m.row_iter(1).count(), 0);
        assert_eq!(m.row_iter(3).count(), 1);
        assert_eq!(m.matvec(&[1.0; 4]), vec![0.0, 0.0, 0.0, 1.0]);
    }
}
