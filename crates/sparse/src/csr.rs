//! Compressed sparse row matrices and the kernels multigrid needs:
//! matrix-vector products, transposition, sparse matrix-matrix products and
//! the Galerkin triple product `A_c = R A Rᵀ` (§3 of the paper).

use crate::dense::DenseMatrix;
use crate::flops;
use rayon::prelude::*;

/// Builder accumulating coordinate-format entries; duplicate `(i, j)`
/// entries are summed on build (matching finite element assembly semantics).
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Start building an `nrows` x `ncols` matrix with no entries.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Reserve space for `n` additional entries.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n);
    }

    /// Add `v` at `(i, j)`.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols, "entry out of bounds");
        self.entries.push((i, j, v));
    }

    /// Entries pushed so far (duplicates not yet summed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assemble into CSR, summing duplicates and dropping exact zeros that
    /// result from cancellation only if `drop_zeros` is set.
    pub fn build(mut self) -> CsrMatrix {
        // Sort lexicographically by (row, col); stable not required since we
        // sum duplicates.
        self.entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut vals = Vec::with_capacity(self.entries.len());
        let mut k = 0;
        while k < self.entries.len() {
            let (i, j, mut v) = self.entries[k];
            k += 1;
            while k < self.entries.len() && self.entries[k].0 == i && self.entries[k].1 == j {
                v += self.entries[k].2;
                k += 1;
            }
            row_ptr[i + 1] += 1;
            col_idx.push(j);
            vals.push(v);
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

/// A sparse matrix in compressed sparse row format. Column indices within a
/// row are sorted and unique.
///
/// ```
/// use pmg_sparse::{CooBuilder, CsrMatrix};
/// let mut b = CooBuilder::new(2, 2);
/// b.push(0, 0, 2.0);
/// b.push(0, 1, -1.0);
/// b.push(1, 1, 3.0);
/// let a = b.build();
/// let mut y = vec![0.0; 2];
/// a.spmv(&[1.0, 2.0], &mut y);
/// assert_eq!(y, vec![0.0, 6.0]);
/// assert_eq!(a.nnz(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Construct from raw parts (validated).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1);
        assert_eq!(col_idx.len(), vals.len());
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_idx.iter().all(|&j| j < ncols));
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// The n-by-n identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// A matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let a = self.row_ptr[i];
        let b = self.row_ptr[i + 1];
        (&self.col_idx[a..b], &self.vals[a..b])
    }

    /// Mutable values of row `i` (column structure is immutable).
    pub fn row_vals_mut(&mut self, i: usize) -> &mut [f64] {
        let a = self.row_ptr[i];
        let b = self.row_ptr[i + 1];
        &mut self.vals[a..b]
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (one entry per stored value).
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// All stored values in row-major CSR order.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable view of all stored values (the pattern is immutable) — the
    /// direct-indexing seam pattern-reuse assembly and [`crate::RapPlan`]
    /// write through.
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Copy a subset of rows, in the given order, into a new matrix over
    /// the same column space. Each output row is a verbatim copy (same
    /// column order, same value bits) of the source row — the row-shipping
    /// primitive of the sharded setup path, where operator and restriction
    /// rows travel between ranks as self-contained row sets.
    pub fn extract_rows(&self, rows: &[u32]) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for &g in rows {
            let (cols, vs) = self.row(g as usize);
            col_idx.extend_from_slice(cols);
            vals.extend_from_slice(vs);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(rows.len(), self.ncols(), row_ptr, col_idx, vals)
    }

    /// The Kronecker product `self ⊗ I_n`: row `i` becomes rows `i*n + d`,
    /// entry `(j, w)` becomes `(j*n + d, w)` in stored column order — how a
    /// per-vertex restriction acts on `n` unknowns per vertex. Rows are
    /// built in place, so the image of a row subset is bitwise the
    /// corresponding row run of the full matrix's image.
    pub fn kron_identity(&self, n: usize) -> CsrMatrix {
        if n == 1 {
            return self.clone();
        }
        let mut row_ptr = Vec::with_capacity(self.nrows * n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz() * n);
        let mut vals = Vec::with_capacity(self.nnz() * n);
        for i in 0..self.nrows {
            let (cols, ws) = self.row(i);
            for d in 0..n {
                col_idx.extend(cols.iter().map(|&j| j * n + d));
                vals.extend_from_slice(ws);
                row_ptr.push(col_idx.len());
            }
        }
        CsrMatrix::from_parts(self.nrows * n, self.ncols * n, row_ptr, col_idx, vals)
    }

    /// Value at `(i, j)`, or 0 if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// `y = A x` (serial).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            y[i] = acc;
        }
        flops::add(2 * self.nnz() as u64);
    }

    /// `y[i] = (A x)[i]` for the listed `rows` only; other entries of `y`
    /// are untouched. The per-row accumulation is identical to [`spmv`]
    /// (same loop body, same order), so computing a partition of the rows
    /// in any number of `spmv_rows` calls produces bitwise the same `y` as
    /// one full [`spmv`] — the property the communication/computation
    /// overlap in the SPMD solve path relies on.
    ///
    /// [`spmv`]: CsrMatrix::spmv
    pub fn spmv_rows(&self, x: &[f64], y: &mut [f64], rows: &[u32]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        let mut nnz = 0u64;
        for &i in rows {
            let i = i as usize;
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            y[i] = acc;
            nnz += cols.len() as u64;
        }
        flops::add(2 * nnz);
    }

    /// `y = A x` parallelized over rows with rayon.
    pub fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *yi = acc;
        });
        flops::add(2 * self.nnz() as u64);
    }

    /// `y = Aᵀ x` without forming the transpose.
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.ncols);
        y.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let xi = x[i];
            for (&j, &v) in cols.iter().zip(vals) {
                y[j] += v * xi;
            }
        }
        flops::add(2 * self.nnz() as u64);
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &j in &self.col_idx {
            row_ptr[j + 1] += 1;
        }
        for j in 0..self.ncols {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut next = row_ptr.clone();
        for i in 0..self.nrows {
            let (cols, v) = self.row(i);
            for (&j, &val) in cols.iter().zip(v) {
                let dst = next[j];
                col_idx[dst] = i;
                vals[dst] = val;
                next[j] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Sparse matrix product `C = self * other` (Gustavson's algorithm).
    pub fn matmul(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let n = self.nrows;
        let m = other.ncols;
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();

        // Dense accumulator workspace with sparse reset.
        let mut acc = vec![0.0f64; m];
        let mut marker = vec![usize::MAX; m];
        let mut touched: Vec<usize> = Vec::new();
        let mut fl: u64 = 0;

        for i in 0..n {
            touched.clear();
            let (acols, avals) = self.row(i);
            for (&k, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = other.row(k);
                fl += 2 * bcols.len() as u64;
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    if marker[j] != i {
                        marker[j] = i;
                        acc[j] = av * bv;
                        touched.push(j);
                    } else {
                        acc[j] += av * bv;
                    }
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                col_idx.push(j);
                vals.push(acc[j]);
            }
            row_ptr.push(col_idx.len());
        }
        flops::add(fl);
        CsrMatrix {
            nrows: n,
            ncols: m,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Parallel sparse matrix product: Gustavson per row, rows processed in
    /// rayon chunks with chunk-local accumulator workspaces, results
    /// stitched afterwards. Identical output to [`CsrMatrix::matmul`].
    pub fn matmul_par(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let n = self.nrows;
        let m = other.ncols;
        let chunk = matmul_chunk_rows(n, rayon::current_num_threads());
        let nchunks = n.div_ceil(chunk.max(1)).max(1);
        if n == 0 || nchunks <= 1 {
            return self.matmul(other);
        }
        type Piece = (Vec<usize>, Vec<f64>, Vec<usize>, u64);
        let pieces: Vec<Piece> = (0..nchunks)
            .into_par_iter()
            .map(|c| {
                let lo = c * chunk;
                let hi = ((c + 1) * chunk).min(n);
                let mut acc = vec![0.0f64; m];
                let mut marker = vec![usize::MAX; m];
                let mut touched: Vec<usize> = Vec::new();
                let mut col_idx = Vec::new();
                let mut vals = Vec::new();
                let mut lens = Vec::with_capacity(hi - lo);
                let mut fl: u64 = 0;
                for i in lo..hi {
                    touched.clear();
                    let (acols, avals) = self.row(i);
                    for (&k, &av) in acols.iter().zip(avals) {
                        let (bcols, bvals) = other.row(k);
                        fl += 2 * bcols.len() as u64;
                        for (&j, &bv) in bcols.iter().zip(bvals) {
                            if marker[j] != i {
                                marker[j] = i;
                                acc[j] = av * bv;
                                touched.push(j);
                            } else {
                                acc[j] += av * bv;
                            }
                        }
                    }
                    touched.sort_unstable();
                    for &j in &touched {
                        col_idx.push(j);
                        vals.push(acc[j]);
                    }
                    lens.push(touched.len());
                }
                (col_idx, vals, lens, fl)
            })
            .collect();

        let total: usize = pieces.iter().map(|p| p.0.len()).sum();
        let mut col_idx = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut fl = 0u64;
        for (ci, va, lens, f) in pieces {
            for len in lens {
                row_ptr.push(row_ptr.last().unwrap() + len);
            }
            col_idx.extend_from_slice(&ci);
            vals.extend_from_slice(&va);
            fl += f;
        }
        flops::add(fl);
        CsrMatrix {
            nrows: n,
            ncols: m,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Galerkin triple product `A_c = R A Rᵀ` where `self = A` (n×n) and `r`
    /// is the restriction (n_c × n). This is the "Mat. Products (RAR')"
    /// operation in the paper's Epimetheus component.
    pub fn rap(&self, r: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(r.ncols(), self.nrows);
        let ra = r.matmul_par(self);
        ra.matmul_par(&r.transpose())
    }

    /// The diagonal as a vector (missing entries are 0). One linear pass
    /// over each row slice — columns are sorted, so scanning stops at the
    /// first index `≥ i` (cheaper than a per-entry binary search on the
    /// short rows of FE operators, and this runs per smoother setup).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for (i, di) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j >= i {
                    if j == i {
                        *di = v;
                    }
                    break;
                }
            }
        }
        d
    }

    /// Dense copy (small matrices only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                d[(i, j)] = v;
            }
        }
        d
    }

    /// Symmetry check up to `tol` relative to the largest entry.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let scale = self
            .vals
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Structurally nonsymmetric: fall back to value comparison.
            for i in 0..self.nrows {
                let (cols, vals) = self.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    if (v - t.get(i, j)).abs() > tol * scale {
                        return false;
                    }
                }
            }
            return true;
        }
        self.vals
            .iter()
            .zip(&t.vals)
            .all(|(a, b)| (a - b).abs() <= tol * scale)
    }

    /// Add `v` to the stored entry `(i, j)`. Returns `false` (and changes
    /// nothing) if the entry is not in the sparsity pattern.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) -> bool {
        let a = self.row_ptr[i];
        let b = self.row_ptr[i + 1];
        match self.col_idx[a..b].binary_search(&j) {
            Ok(k) => {
                self.vals[a + k] += v;
                true
            }
            Err(_) => false,
        }
    }

    /// Scale all values by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.vals {
            *v *= s;
        }
        flops::add(self.vals.len() as u64);
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        flops::add(2 * self.vals.len() as u64);
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Iterate over all stored entries as `(i, j, v)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }
}

/// Rows per parallel chunk for [`CsrMatrix::matmul_par`]: aim for a few
/// chunks per worker thread (load balance without stitching overhead),
/// but never chunks smaller than 256 rows — below that the per-chunk
/// accumulator setup dominates and the serial path wins.
fn matmul_chunk_rows(nrows: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * 4;
    nrows.div_ceil(target_chunks).max(256)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CsrMatrix {
        // [2 0 1]
        // [0 3 0]
        // [4 0 5]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 2.0);
        b.push(0, 2, 1.0);
        b.push(1, 1, 3.0);
        b.push(2, 0, 4.0);
        b.push(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn build_sums_duplicates() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 1, 5.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![5.0, 6.0, 19.0]);
        let mut y2 = vec![0.0; 3];
        a.spmv_par(&x, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        let x = vec![1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        a.spmv_transpose(&x, &mut y1);
        a.transpose().spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn matmul_identity() {
        let a = small();
        let i = CsrMatrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_dense() {
        let a = small();
        let b = small().transpose();
        let c = a.matmul(&b);
        let ad = a.to_dense();
        let bd = b.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += ad[(i, k)] * bd[(k, j)];
                }
                assert!((c.get(i, j) - acc).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn matmul_par_matches_serial() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        // Big enough to cross the parallel-chunk threshold.
        let n = 2600;
        let mut ba = CooBuilder::new(n, n);
        let mut bb = CooBuilder::new(n, n);
        for i in 0..n {
            for _ in 0..4 {
                ba.push(i, rng.gen_range(0..n), rng.gen_range(-2.0..2.0));
                bb.push(i, rng.gen_range(0..n), rng.gen_range(-2.0..2.0));
            }
        }
        let a = ba.build();
        let b = bb.build();
        assert_eq!(a.matmul(&b), a.matmul_par(&b));
    }

    #[test]
    fn matmul_chunk_rows_derivation() {
        // Chunks follow available parallelism: ~4 chunks per thread.
        assert_eq!(matmul_chunk_rows(100_000, 4), 100_000_usize.div_ceil(16));
        assert_eq!(
            matmul_chunk_rows(1_000_000, 8),
            1_000_000_usize.div_ceil(32)
        );
        // ... but never shrink below the 256-row floor.
        assert_eq!(matmul_chunk_rows(300, 64), 256);
        assert_eq!(matmul_chunk_rows(0, 1), 256);
        // Serial-fallback boundary at one thread: n <= 256 gives one chunk
        // (matmul_par delegates to matmul), n = 257 gives two.
        assert_eq!(256_usize.div_ceil(matmul_chunk_rows(256, 1)), 1);
        assert_eq!(257_usize.div_ceil(matmul_chunk_rows(257, 1)), 2);
    }

    #[test]
    fn matmul_par_across_fallback_boundary() {
        use rand::{Rng, SeedableRng};
        // Exercise both sides of the nchunks <= 1 serial-fallback boundary
        // explicitly: 256 rows stays serial, 257 takes the chunked path.
        for n in [255, 256, 257, 258] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let mut ba = CooBuilder::new(n, n);
            let mut bb = CooBuilder::new(n, n);
            for i in 0..n {
                for _ in 0..3 {
                    ba.push(i, rng.gen_range(0..n), rng.gen_range(-2.0..2.0));
                    bb.push(i, rng.gen_range(0..n), rng.gen_range(-2.0..2.0));
                }
            }
            let a = ba.build();
            let b = bb.build();
            assert_eq!(a.matmul(&b), a.matmul_par(&b), "n={n}");
        }
    }

    #[test]
    fn diag_skips_missing_entries() {
        // Row 1 has no diagonal entry; row 2's diagonal is not its first
        // stored column.
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 5.0);
        b.push(1, 0, 1.0);
        b.push(1, 2, 2.0);
        b.push(2, 0, 3.0);
        b.push(2, 2, 7.0);
        let a = b.build();
        assert_eq!(a.diag(), vec![5.0, 0.0, 7.0]);
    }

    #[test]
    fn rap_galerkin() {
        let a = small();
        // R = injection onto vertices {0, 2}.
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 0, 1.0);
        b.push(1, 2, 1.0);
        let r = b.build();
        let ac = a.rap(&r);
        assert_eq!(ac.nrows(), 2);
        assert_eq!(ac.get(0, 0), 2.0);
        assert_eq!(ac.get(0, 1), 1.0);
        assert_eq!(ac.get(1, 0), 4.0);
        assert_eq!(ac.get(1, 1), 5.0);
    }

    #[test]
    fn rap_preserves_symmetry() {
        let mut b = CooBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 4.0);
        }
        b.push(0, 1, -1.0);
        b.push(1, 0, -1.0);
        b.push(1, 2, -1.0);
        b.push(2, 1, -1.0);
        let a = b.build();
        assert!(a.is_symmetric(1e-14));
        let mut rb = CooBuilder::new(2, 3);
        rb.push(0, 0, 1.0);
        rb.push(0, 1, 0.5);
        rb.push(1, 1, 0.5);
        rb.push(1, 2, 1.0);
        let r = rb.build();
        let ac = a.rap(&r);
        assert!(ac.is_symmetric(1e-14));
    }

    #[test]
    fn diag_and_norms() {
        let a = small();
        assert_eq!(a.diag(), vec![2.0, 3.0, 5.0]);
        let f = a.frobenius();
        assert!((f - (4.0f64 + 1.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-14);
        let mut a2 = a.clone();
        a2.scale(2.0);
        assert_eq!(a2.get(2, 2), 10.0);
    }

    #[test]
    fn symmetric_check() {
        let a = small();
        assert!(!a.is_symmetric(1e-12)); // a(0,2)=1 vs a(2,0)=4
        let sym = {
            let mut b = CooBuilder::new(2, 2);
            b.push(0, 0, 1.0);
            b.push(0, 1, 2.0);
            b.push(1, 0, 2.0);
            b.push(1, 1, 3.0);
            b.build()
        };
        assert!(sym.is_symmetric(1e-14));
    }

    proptest! {
        #[test]
        fn prop_spmv_transpose_consistency(
            entries in proptest::collection::vec(
                (0usize..8, 0usize..8, -10.0f64..10.0), 0..60),
            x in proptest::collection::vec(-5.0f64..5.0, 8),
        ) {
            let mut b = CooBuilder::new(8, 8);
            for (i, j, v) in entries {
                b.push(i, j, v);
            }
            let a = b.build();
            let mut y1 = vec![0.0; 8];
            let mut y2 = vec![0.0; 8];
            a.spmv_transpose(&x, &mut y1);
            a.transpose().spmv(&x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!((u - v).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_matmul_associative_with_identity(
            entries in proptest::collection::vec(
                (0usize..6, 0usize..6, -10.0f64..10.0), 0..40),
        ) {
            let mut b = CooBuilder::new(6, 6);
            for (i, j, v) in entries {
                b.push(i, j, v);
            }
            let a = b.build();
            let i6 = CsrMatrix::identity(6);
            prop_assert_eq!(a.matmul(&i6), a.clone());
            prop_assert_eq!(i6.matmul(&a), a);
        }

        #[test]
        fn prop_rap_symmetry(
            entries in proptest::collection::vec(
                (0usize..6, 0usize..6, -10.0f64..10.0), 0..30),
            r_entries in proptest::collection::vec(
                (0usize..3, 0usize..6, -2.0f64..2.0), 1..15),
        ) {
            // Symmetrize A.
            let mut b = CooBuilder::new(6, 6);
            for (i, j, v) in entries {
                b.push(i, j, v);
                b.push(j, i, v);
            }
            let a = b.build();
            let mut rb = CooBuilder::new(3, 6);
            for (i, j, v) in r_entries {
                rb.push(i, j, v);
            }
            let r = rb.build();
            let ac = a.rap(&r);
            prop_assert!(ac.is_symmetric(1e-9));
        }
    }
}
