//! Compressed sparse row (CSR) matrices.
//!
//! Similarity graphs built by kNN or ε-thresholding are sparse; CSR keeps
//! the iterative hard-criterion solvers at `O(nnz)` per sweep instead of
//! `O((n+m)²)`.

use crate::error::{Error, Result};
use crate::float::is_exactly_zero;
use crate::matrix::{row_block, Matrix};
use gssl_runtime::Executor;
use std::borrow::Cow;

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

/// Entries [`CsrMatrix::from_entries`] pulls from its source at a time in
/// its filling walk, to scatter them in a loop of their own. Scattering
/// straight from a source that does real work per entry (the kNN
/// symmetrization at n = 2×10⁵, 2-core VM) took 1.4 to 2 times as long
/// as first copying each 4096-entry batch (96 KiB) into one reused
/// buffer.
const SCATTER_BATCH: usize = 4096;

// Column ids are stored as `u32` and read back as `usize`; the widening is
// lossless on every target whose `usize` has at least 32 bits.
const _: () = assert!(usize::BITS >= 32);

/// A stored column id as an index.
#[inline]
pub(crate) fn widen(id: u32) -> usize {
    id as usize
}

/// Whether every row or column id of a `dim`-long axis fits a `u32`, so
/// the axis has at most 2^32 entries.
fn axis_fits(dim: usize) -> bool {
    dim.checked_sub(1)
        .is_none_or(|last| u32::try_from(last).is_ok())
}

/// `Err` unless both axes fit [`axis_fits`] and `rows + 1` row pointers
/// are addressable.
fn check_dims(rows: usize, cols: usize) -> Result<()> {
    if axis_fits(rows) && axis_fits(cols) && rows < usize::MAX {
        Ok(())
    } else {
        Err(Error::InvalidArgument {
            message: format!(
                "a {rows}x{cols} CSR matrix exceeds 2^32 rows or columns (column ids are u32)"
            ),
        })
    }
}

/// A sparse matrix in compressed sparse row format.
///
/// Rows and columns number at most 2^32 each: column ids are stored as
/// `u32` (12 bytes per stored entry with its value), while every public
/// signature speaks `usize`.
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
    /// Column ids, sorted within each row.
    indices: Vec<u32>,
    /// Nonzero values aligned with `indices`.
    values: Vec<f64>,
}

/// Hands an owned system to an entry point that stores it, with no copy.
impl From<CsrMatrix> for Cow<'_, CsrMatrix> {
    fn from(m: CsrMatrix) -> Self {
        Cow::Owned(m)
    }
}

/// Lends a system to an entry point that stores it; the entry point
/// copies it once.
impl<'a> From<&'a CsrMatrix> for Cow<'a, CsrMatrix> {
    fn from(m: &'a CsrMatrix) -> Self {
        Cow::Borrowed(m)
    }
}

impl CsrMatrix {
    /// Creates an empty (all-zero) sparse matrix.
    ///
    /// # Panics
    ///
    /// Panics when `rows` or `cols` exceeds 2^32 (column ids are `u32`).
    /// shape: (rows, cols)
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(
            check_dims(rows, cols).is_ok(),
            "CSR dimensions {rows}x{cols} exceed 2^32"
        );
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets: exactly
    /// [`CsrMatrix::from_entries`] over the slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when a dimension exceeds 2^32 or
    /// any coordinate is out of bounds.
    /// shape: (rows, cols)
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        Self::from_entries(rows, cols, triplets.iter().copied())
    }

    /// Assembles a CSR matrix from a re-iterable source of
    /// `(row, col, value)` entries, walking it twice and holding nothing
    /// but the row pointers, one row cursor per row, the final arrays and
    /// two small reused buffers.
    ///
    /// Entries sharing a coordinate are summed in source order. A zero is
    /// dropped only when it would open a coordinate (it is the first value
    /// kept there), so a group whose sum is exactly `0.0` — `1.0` then
    /// `-1.0` — stays stored and counts in [`CsrMatrix::nnz`]. Columns are
    /// sorted within each row.
    ///
    /// The first walk counts each row; the prefix sums are the row starts.
    /// The second scatters `(col, value)` straight into the final arrays,
    /// in source order, a batch of entries at a time. Then, row by row,
    /// the row is staged in a scratch buffer and stable-sorted by column
    /// when it is out of order, and one pass merges duplicates and drops
    /// opening zeros as it writes the row back in place. The result is
    /// bitwise what a stable comparison sort of the whole source by
    /// `(row, col)` followed by the same in-order summation produces (see
    /// DESIGN.md, "CSR construction"). Merged or dropped entries give
    /// their slots back.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`], before allocating anything,
    /// when `rows` or `cols` exceeds 2^32, and otherwise:
    ///
    /// * when the first walk yields an out-of-bounds coordinate;
    /// * when the second walk yields an out-of-bounds coordinate or puts
    ///   a different number of entries in some row than the first walk
    ///   did. The matrix holds the second walk's entries, so a source
    ///   that changes only columns or values within its rows between the
    ///   walks is assembled from the second walk.
    ///
    /// A source that differs between its walks never causes a panic or a
    /// write outside the arrays.
    ///
    /// shape: (rows, cols)
    pub fn from_entries<I>(rows: usize, cols: usize, mut entries: I) -> Result<Self>
    where
        I: Iterator<Item = (usize, usize, f64)> + Clone,
    {
        check_dims(rows, cols)?;
        let out_of_bounds = |r, c| Error::InvalidArgument {
            message: format!("entry ({r}, {c}) out of bounds for {rows}x{cols} matrix"),
        };
        let changed = || Error::InvalidArgument {
            message: "entry source changed its rows between the counting and filling walks"
                .to_owned(),
        };

        // First walk: per-row counts at indptr[r + 1], then prefix sums,
        // after which indptr[r] is the first slot of row r.
        let mut indptr = vec![0usize; rows + 1];
        let counts = &mut indptr[1..];
        entries
            .clone()
            .try_for_each(|(r, c, _)| match counts.get_mut(r) {
                Some(count) if c < cols => {
                    *count += 1;
                    Ok(())
                }
                _ => Err(out_of_bounds(r, c)),
            })?;
        let mut total = 0;
        for start in &mut indptr {
            total += *start;
            *start = total;
        }

        // Second walk: scatter into the final arrays at each row's cursor.
        // A row that gets more entries than counted spills into the next
        // row (or past the end, which is refused); every row must end
        // exactly full, so any difference in the rows' counts is caught
        // below.
        let mut indices = vec![0u32; total];
        let mut values = vec![0.0f64; total];
        let mut cursors = indptr[..rows].to_vec();
        let mut batch = Vec::with_capacity(SCATTER_BATCH.min(total));
        loop {
            batch.clear();
            batch.extend(entries.by_ref().take(SCATTER_BATCH));
            if batch.is_empty() {
                break;
            }
            for &(r, c, v) in &batch {
                let Some(cursor) = cursors.get_mut(r).filter(|_| c < cols) else {
                    return Err(changed());
                };
                let col = u32::try_from(c).map_err(|_| changed())?;
                let (Some(slot_c), Some(slot_v)) =
                    (indices.get_mut(*cursor), values.get_mut(*cursor))
                else {
                    return Err(changed());
                };
                *slot_c = col;
                *slot_v = v;
                *cursor += 1;
            }
        }
        if cursors
            .iter()
            .zip(&indptr[1..])
            .any(|(cursor, end)| cursor != end)
        {
            return Err(changed());
        }
        drop(cursors);

        // Row by row: stage the row in one reused scratch buffer and sort
        // it by column (stably) when it is out of order. Then merge
        // duplicates into the entry the row kept last and drop opening
        // zeros, writing the row back right after the rows before it,
        // which never reaches past its own end.
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        let mut kept = 0;
        let mut start = 0;
        for row_end in &mut indptr[1..=rows] {
            let end = *row_end;
            scratch.clear();
            scratch.extend(
                indices[start..end]
                    .iter()
                    .copied()
                    .zip(values[start..end].iter().copied()),
            );
            if !scratch.is_sorted_by_key(|&(c, _)| c) {
                scratch.sort_by_key(|&(c, _)| c);
            }
            let mut slots = indices[kept..end].iter_mut().zip(&mut values[kept..end]);
            let mut last: Option<(&mut u32, &mut f64)> = None;
            for &(c, v) in &scratch {
                if let Some((last_c, last_v)) = &mut last {
                    if **last_c == c {
                        **last_v += v;
                        continue;
                    }
                }
                if is_exactly_zero(v) {
                    continue;
                }
                // The row holds at most end - kept entries, so a slot is
                // always left.
                let Some((slot_c, slot_v)) = slots.next() else {
                    break;
                };
                *slot_c = c;
                *slot_v = v;
                kept += 1;
                last = Some((slot_c, slot_v));
            }
            *row_end = kept;
            start = end;
        }
        if kept < total {
            indices.truncate(kept);
            values.truncate(kept);
            indices.shrink_to_fit();
            values.shrink_to_fit();
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Wraps arrays that are already a CSR matrix, for a builder that
    /// writes them at their final size: `indptr` holds `rows + 1`
    /// monotone row starts from `0` to `indices.len()`, `values` is as
    /// long as `indices`, and each row's column ids increase strictly and
    /// stay below `cols`. Debug builds check every invariant.
    /// shape: (rows, cols)
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(check_dims(rows, cols).is_ok());
        debug_assert!(indptr.len() == rows + 1 && indptr.first() == Some(&0));
        debug_assert!(indptr.is_sorted() && indptr.last() == Some(&indices.len()));
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indptr.windows(2).all(|span| {
            let row = &indices[span[0]..span[1]];
            row.is_sorted_by(|a, b| a < b) && row.last().is_none_or(|&j| widen(j) < cols)
        }));
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
    ///
    /// # Panics
    ///
    /// Panics when `dense` has more than 2^32 rows or columns.
    /// shape: (dense.rows, dense.cols)
    pub fn from_dense(dense: &Matrix, threshold: f64) -> Self {
        assert!(
            check_dims(dense.rows(), dense.cols()).is_ok(),
            "CSR dimensions {}x{} exceed 2^32",
            dense.rows(),
            dense.cols()
        );
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
            for (j, &v) in (0..=u32::MAX).zip(dense.row(i)) {
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
        self.stored(i, j).unwrap_or(0.0)
    }

    /// The value stored at `(i, j)`, if any (`None` when `i` is not a row).
    fn stored(&self, i: usize, j: usize) -> Option<f64> {
        let (cols, vals) = self.row(i);
        let k = cols.binary_search(&u32::try_from(j).ok()?).ok()?;
        vals.get(k).copied()
    }

    /// Row `i` as its stored column ids and values (empty when `i` is not
    /// a row).
    pub(crate) fn row(&self, i: usize) -> (&[u32], &[f64]) {
        debug_assert!(i < self.rows, "row {i} of {}", self.rows);
        let Some(&[lo, hi, ..]) = self.indptr.get(i..) else {
            return (&[], &[]);
        };
        (
            self.indices.get(lo..hi).unwrap_or_default(),
            self.values.get(lo..hi).unwrap_or_default(),
        )
    }

    /// Iterates over the stored `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        assert!(i < self.rows, "row index out of bounds");
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .map(|&j| widen(j))
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
                sum += v * x[widen(j)];
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
    /// a diagonal or empty matrix); about `rows` for a kNN graph in index
    /// order, about `√rows` for a 2-D mesh in row order.
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
            .map(|((&j, i), &v)| (widen(j), i, v));
        // `self` fits the bounds with its axes swapped, every coordinate is
        // in range and both walks are the same pure function of `self`, so
        // assembly cannot fail and the fallback is never taken.
        CsrMatrix::from_entries(self.cols, self.rows, entries)
            .unwrap_or_else(|_| CsrMatrix::zeros(self.cols, self.rows))
    }

    /// Returns `true` when the matrix equals its transpose up to `tol`.
    ///
    /// Every stored entry `v` at `(i, j)` with `|v| > tol` needs a stored
    /// mirror `m` at `(j, i)` that is not exactly zero, has `|m| > tol`,
    /// and leaves `(v - m).abs() > tol` false. That is the verdict of
    /// comparing each row with the same row of [`CsrMatrix::transpose`]
    /// (which drops stored zeros) over the entries above `tol`, on every
    /// input, NaN included.
    ///
    /// No transpose is built. Rows are visited in order, so the mirrors
    /// row `j` is asked for come in increasing column order, and one
    /// forward-only cursor per row finds each of them: a single pass over
    /// the stored entries plus one row pointer per row.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let mut cursors = self.indptr.clone();
        self.indptr.windows(2).enumerate().all(|(i, span)| {
            let (lo, hi) = (span[0], span[1]);
            self.indices[lo..hi]
                .iter()
                .zip(&self.values[lo..hi])
                .all(|(&j, &v)| {
                    !(v.abs() > tol)
                        || self.mirror(&mut cursors, widen(j), i).is_some_and(|m| {
                            !is_exactly_zero(m) && m.abs() > tol && !((v - m).abs() > tol)
                        })
                })
        })
    }

    /// The value stored at `(j, i)`, if any, found from `cursors[j]` and
    /// moving it forward; every earlier call for row `j` must have asked
    /// for a smaller `i`.
    fn mirror(&self, cursors: &mut [usize], j: usize, i: usize) -> Option<f64> {
        let end = *self.indptr.get(j + 1)?;
        let cursor = cursors.get_mut(j)?;
        let i = u32::try_from(i).ok()?;
        let rest = self.indices.get(*cursor..end)?;
        let skipped = rest.iter().take_while(|&&c| c < i).count();
        *cursor += skipped;
        match rest.get(skipped) {
            Some(&c) if c == i => self.values.get(*cursor).copied(),
            _ => None,
        }
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
            let c = u32::try_from(c).unwrap();
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
            indices.extend((0..len).map(|k| u32::try_from(k * step + i % step.max(1)).unwrap()));
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

    /// The transpose-based `is_symmetric` this crate shipped before the
    /// mirror lookup, logic unchanged, against the triplet transpose.
    fn is_symmetric_reference(m: &CsrMatrix, tol: f64) -> bool {
        if m.rows != m.cols {
            return false;
        }
        let t = transpose_reference(m);
        for i in 0..m.rows {
            let mut a = m.row_iter(i).filter(|&(_, v)| v.abs() > tol);
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

    /// A square matrix storing exactly the present cells of a row-major
    /// grid, zeros and NaN included (no constructor would keep a zero
    /// that opens a coordinate).
    fn stored_cells(n: usize, cells: &[Option<f64>]) -> CsrMatrix {
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in cells.chunks(n) {
            for (j, cell) in (0u32..).zip(row) {
                if let Some(v) = *cell {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }

    const SYMMETRY_CELLS: [Option<f64>; 8] = [
        None,
        Some(f64::NAN),
        Some(-0.0),
        Some(0.0),
        Some(1.0),
        Some(-1.0),
        Some(1.0 + 1e-10),
        Some(f64::INFINITY),
    ];
    const SYMMETRY_TOLS: [f64; 5] = [-1.0, 0.0, 1e-9, f64::NAN, f64::INFINITY];

    #[test]
    fn is_symmetric_is_the_transpose_verdict_on_every_2x2_matrix() {
        let mut verdicts = [0usize; 2];
        for code in 0..SYMMETRY_CELLS.len().pow(4) {
            let cells: Vec<Option<f64>> = (0..4)
                .map(|k| SYMMETRY_CELLS[code / SYMMETRY_CELLS.len().pow(k) % SYMMETRY_CELLS.len()])
                .collect();
            let m = stored_cells(2, &cells);
            for tol in SYMMETRY_TOLS {
                let want = is_symmetric_reference(&m, tol);
                assert_eq!(m.is_symmetric(tol), want, "cells {cells:?}, tol {tol}");
                verdicts[usize::from(want)] += 1;
            }
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn is_symmetric_is_the_transpose_verdict_on_seeded_matrices() {
        let mut rng = StdRng::seed_from_u64(0xC5_0005);
        let mut verdicts = [0usize; 2];
        for _ in 0..3000 {
            let n = rng.gen_range(3..7usize);
            let mut cells = vec![None; n * n];
            for i in 0..n {
                for j in i..n {
                    let pick = |rng: &mut StdRng| {
                        if rng.gen_range(0..3usize) == 0 {
                            Some(rng.gen::<f64>() * 2.0 - 1.0)
                        } else {
                            SYMMETRY_CELLS[rng.gen_range(0..SYMMETRY_CELLS.len())]
                        }
                    };
                    let upper = pick(&mut rng);
                    // Mostly mirrored, so symmetric matrices occur too.
                    let lower = if rng.gen_range(0..4usize) == 0 {
                        pick(&mut rng)
                    } else {
                        upper
                    };
                    cells[i * n + j] = upper;
                    cells[j * n + i] = lower;
                }
            }
            let m = stored_cells(n, &cells);
            for tol in SYMMETRY_TOLS.into_iter().chain([1e-12, 0.5, 2.0]) {
                let want = is_symmetric_reference(&m, tol);
                assert_eq!(m.is_symmetric(tol), want, "cells {cells:?}, tol {tol}");
                verdicts[usize::from(want)] += 1;
            }
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    /// `2^32`, the largest row or column count, when `usize` holds it.
    fn two_pow_32() -> Option<usize> {
        usize::try_from(1u64 << 32).ok()
    }

    #[test]
    fn dimensions_past_2_pow_32_are_rejected_before_allocating() {
        // `rows + 1` used to wrap (release) or overflow (debug) here.
        assert!(CsrMatrix::from_triplets(usize::MAX, 1, &[]).is_err());
        assert!(CsrMatrix::from_triplets(1, usize::MAX, &[]).is_err());
        assert!(CsrMatrix::from_triplets(usize::MAX, usize::MAX, &[(0, 0, 1.0)]).is_err());
        if let Some(limit) = two_pow_32() {
            assert!(CsrMatrix::from_triplets(limit + 1, 1, &[]).is_err());
            assert!(CsrMatrix::from_triplets(1, limit + 1, &[]).is_err());
            // Exactly 2^32 columns is the largest width; ids up to 2^32 - 1.
            let wide =
                CsrMatrix::from_triplets(2, limit, &[(1, limit - 1, 2.0), (0, 7, 1.0)]).unwrap();
            assert_eq!(wide.cols(), limit);
            assert_eq!(wide.get(1, limit - 1), 2.0);
            assert_eq!(wide.row_iter(1).collect::<Vec<_>>(), vec![(limit - 1, 2.0)]);
        }
    }

    #[test]
    #[should_panic(expected = "exceed 2^32")]
    fn zeros_panics_past_2_pow_32() {
        let _ = CsrMatrix::zeros(usize::MAX, 1);
    }

    /// A source that yields `first` on every clone and `second` on the
    /// value itself, so `from_entries` counts `first` and fills from
    /// `second`.
    struct TwoFaced<'a> {
        first: &'a [(usize, usize, f64)],
        second: &'a [(usize, usize, f64)],
        cloned: bool,
        pos: usize,
    }

    impl Clone for TwoFaced<'_> {
        fn clone(&self) -> Self {
            TwoFaced {
                cloned: true,
                ..*self
            }
        }
    }

    impl Iterator for TwoFaced<'_> {
        type Item = (usize, usize, f64);

        fn next(&mut self) -> Option<Self::Item> {
            let walk = if self.cloned { self.first } else { self.second };
            let item = walk.get(self.pos).copied();
            self.pos += 1;
            item
        }
    }

    /// Palette of hostile values: NaN, both infinities, both zeros, and
    /// sums that depend on their order.
    const HOSTILE: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e16,
        -1e16,
        1.0,
        -1.0,
    ];

    /// In-range entries, a quarter of them piled on one coordinate.
    fn hostile_entries(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<(usize, usize, f64)> {
        let count = rng.gen_range(0..60usize);
        let pile = (rng.gen_range(0..rows), rng.gen_range(0..cols));
        (0..count)
            .map(|_| {
                let (r, c) = if rng.gen_range(0..4usize) == 0 {
                    pile
                } else {
                    (rng.gen_range(0..rows), rng.gen_range(0..cols))
                };
                (r, c, HOSTILE[rng.gen_range(0..HOSTILE.len())])
            })
            .collect()
    }

    #[test]
    fn seeded_hostile_sources_end_in_err_or_the_reference() {
        let mut outcomes = [0usize; 2];
        for seed in 0..3000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows = rng.gen_range(0..7usize);
            let mut cols = rng.gen_range(0..7usize);
            let kind = rng.gen_range(0..6usize);
            let mut first = if rows > 0 && cols > 0 {
                hostile_entries(&mut rng, rows, cols)
            } else {
                Vec::new()
            };
            let mut second = first.clone();
            let what = match kind {
                0 => "in-range entries",
                1 => {
                    // An out-of-range coordinate in the first walk.
                    let bad = [rows, rows + 1, usize::MAX][rng.gen_range(0..3usize)];
                    let at = rng.gen_range(0..first.len() + 1);
                    let entry = if rng.gen_range(0..2usize) == 0 {
                        (bad, 0, 1.0)
                    } else {
                        (0, bad.max(cols), 1.0)
                    };
                    first.insert(at, entry);
                    second = first.clone();
                    "an out-of-range coordinate"
                }
                2 => {
                    // Dimensions at and past the 2^32 bound.
                    let limit = two_pow_32().unwrap_or(usize::MAX);
                    match rng.gen_range(0..4usize) {
                        0 => {
                            cols = limit;
                            rows = rows.max(1);
                            first.push((rows - 1, limit - 1, 2.0));
                            first.push((0, limit - 1, -0.0));
                        }
                        1 => rows = limit.saturating_add(1),
                        2 => cols = limit.saturating_add(1),
                        _ => rows = usize::MAX,
                    }
                    second = first.clone();
                    "dimensions at the 2^32 bound"
                }
                _ if first.is_empty() => "an empty source",
                3 => {
                    // The second walk moves one entry to another row.
                    let at = rng.gen_range(0..second.len());
                    second[at].0 = rng.gen_range(0..rows.max(1));
                    "a second walk that moves an entry"
                }
                4 => {
                    // The second walk is one entry shorter or longer.
                    if rng.gen_range(0..2usize) == 0 {
                        second.pop();
                    } else {
                        second.push(second[0]);
                    }
                    "a second walk of another length"
                }
                _ => {
                    // The second walk changes a column or a value in place,
                    // or leaves the bounds.
                    let at = rng.gen_range(0..second.len());
                    match rng.gen_range(0..3usize) {
                        0 => second[at].1 = rng.gen_range(0..cols),
                        1 => second[at].2 = HOSTILE[rng.gen_range(0..HOSTILE.len())],
                        _ => second[at].1 = usize::MAX,
                    }
                    "a second walk that rewrites an entry"
                }
            };
            let outcome = std::panic::catch_unwind(|| {
                let source = TwoFaced {
                    first: &first,
                    second: &second,
                    cloned: false,
                    pos: 0,
                };
                let Ok(got) = CsrMatrix::from_entries(rows, cols, source) else {
                    return false;
                };
                // Accepted: both walks stayed in range with equal rows, and
                // the matrix is the second walk's.
                let in_range =
                    |w: &[(usize, usize, f64)]| w.iter().all(|&(r, c, _)| r < rows && c < cols);
                assert!(in_range(&first) && in_range(&second));
                let row_counts = |w: &[(usize, usize, f64)]| {
                    let mut counts = vec![0; rows];
                    w.iter().for_each(|&(r, _, _)| counts[r] += 1);
                    counts
                };
                assert_eq!(row_counts(&first), row_counts(&second));
                assert_bitwise(&got, &comparison_sort_reference(rows, cols, &second));
                true
            });
            match outcome {
                Ok(accepted) => outcomes[usize::from(accepted)] += 1,
                Err(_) => panic!("seed {seed}: {what} ({rows}x{cols}) panicked"),
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }
}
