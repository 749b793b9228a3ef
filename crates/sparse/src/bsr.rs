//! Block CSR with 3x3 blocks.
//!
//! Displacement problems carry 3 dofs per vertex, so the operator is
//! naturally blocked: one dense 3x3 block per vertex pair. BSR storage
//! roughly halves the index metadata and lets the matrix-vector product
//! run on contiguous 3x3 tiles — the standard optimization for elasticity
//! operators (PETSc's BAIJ). Convertible to/from scalar CSR; `spmv`
//! accumulates each row's blocks in the same column order as the CSR
//! product, so the two are **bitwise identical**, not merely close.
//!
//! # Ghost-padding rule (distributed use)
//!
//! A [`Bsr3Matrix`] requires both dimensions to be multiples of 3 and all
//! entries to fall on vertex-aligned 3x3 tiles. On a distributed
//! operator's off-process part the ghost-column space does not naturally
//! satisfy this: a rank may reference only one or two of a remote
//! vertex's three dofs. The distributed layer (`DistMatrix::try_block3`
//! in `pmg-parallel`) therefore *pads* the ghost index space to whole
//! vertex triples — missing ghost columns become explicit structural
//! zeros inside materialized blocks — before converting to BSR. The
//! padding only widens the gather; padded columns multiply zero values,
//! so the routed product stays bitwise equal to the scalar CSR path.

use crate::csr::CsrMatrix;
use crate::flops;
use rayon::prelude::*;

/// Sparse matrix of dense 3x3 blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Bsr3Matrix {
    nblock_rows: usize,
    nblock_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Row-major 3x3 blocks.
    blocks: Vec<[f64; 9]>,
}

impl Bsr3Matrix {
    /// Convert a scalar CSR operator whose dimensions are multiples of 3.
    /// Any scalar entry inside a touched block materializes the full block
    /// (absent entries are zero).
    pub fn from_csr(a: &CsrMatrix) -> Bsr3Matrix {
        Self::from_csr_cols(a, a.ncols(), |j| j)
    }

    /// [`from_csr`](Self::from_csr) of `a` with column `j` moved to
    /// `col(j)` in a space of `ncols` columns — how a distributed
    /// operator's ghost columns are padded to whole vertex triples without
    /// building the padded CSR. `col` must be strictly increasing, so every
    /// row keeps its entry order.
    pub fn from_csr_cols(a: &CsrMatrix, ncols: usize, col: impl Fn(usize) -> usize) -> Bsr3Matrix {
        assert_eq!(a.nrows() % 3, 0, "rows not a multiple of 3");
        assert_eq!(ncols % 3, 0, "cols not a multiple of 3");
        let nbr = a.nrows() / 3;
        let nbc = ncols / 3;
        let mut row_ptr = Vec::with_capacity(nbr + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut blocks: Vec<[f64; 9]> = Vec::new();

        let mut touched: Vec<usize> = Vec::new();
        let mut slot = vec![usize::MAX; nbc];
        for br in 0..nbr {
            touched.clear();
            let base = blocks.len();
            for local in 0..3 {
                let i = 3 * br + local;
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = col(j);
                    let bc = j / 3;
                    let k = if slot[bc] == usize::MAX {
                        let k = base + touched.len();
                        slot[bc] = k;
                        touched.push(bc);
                        blocks.push([0.0; 9]);
                        col_idx.push(bc);
                        k
                    } else {
                        slot[bc]
                    };
                    blocks[k][3 * local + (j % 3)] = v;
                }
            }
            // Sort this row's blocks by column for deterministic layout.
            let mut order: Vec<usize> = (0..touched.len()).collect();
            order.sort_unstable_by_key(|&t| col_idx[base + t]);
            let cols_sorted: Vec<usize> = order.iter().map(|&t| col_idx[base + t]).collect();
            let blocks_sorted: Vec<[f64; 9]> = order.iter().map(|&t| blocks[base + t]).collect();
            col_idx[base..].copy_from_slice(&cols_sorted);
            blocks[base..].copy_from_slice(&blocks_sorted);
            for &bc in &touched {
                slot[bc] = usize::MAX;
            }
            row_ptr.push(col_idx.len());
        }
        Bsr3Matrix {
            nblock_rows: nbr,
            nblock_cols: nbc,
            row_ptr,
            col_idx,
            blocks,
        }
    }

    /// Overwrite the stored values with those of `a`, which must have the
    /// sparsity pattern this matrix was built from (with the same `col`,
    /// see [`from_csr_cols`](Self::from_csr_cols)): one ordered walk with a
    /// cursor per scalar row over the block row's ascending blocks — no
    /// allocation, and the explicit zeros inside blocks stay zero.
    ///
    /// # Panics
    /// If an entry of `a` falls in a block this matrix does not store. An
    /// entry *missing* from `a` is not detected (its old value stays), so
    /// callers compare pattern fingerprints first.
    pub fn refresh_from_csr(&mut self, a: &CsrMatrix, col: impl Fn(usize) -> usize) {
        assert_eq!(a.nrows(), self.nrows(), "pattern changed: rows");
        for br in 0..self.nblock_rows {
            let end = self.row_ptr[br + 1];
            for local in 0..3 {
                let mut k = self.row_ptr[br];
                let (cols, vals) = a.row(3 * br + local);
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = col(j);
                    while k < end && self.col_idx[k] < j / 3 {
                        k += 1;
                    }
                    assert!(
                        k < end && self.col_idx[k] == j / 3,
                        "pattern changed: no block for entry ({}, {j})",
                        3 * br + local
                    );
                    self.blocks[k][3 * local + j % 3] = v;
                }
            }
        }
    }

    /// Scalar rows (3 per block row).
    pub fn nrows(&self) -> usize {
        3 * self.nblock_rows
    }

    /// Scalar columns (3 per block column).
    pub fn ncols(&self) -> usize {
        3 * self.nblock_cols
    }

    /// Stored 3x3 blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Scalar nonzeros stored (9 per block, including explicit zeros).
    pub fn nnz_stored(&self) -> usize {
        9 * self.blocks.len()
    }

    /// `y = A x` over 3x3 tiles (serial).
    ///
    /// Accumulates one add per scalar entry, in column order within each
    /// row — the same association as [`CsrMatrix::spmv`] — so the blocked
    /// product is bitwise identical to the scalar one (explicit zeros only
    /// add `0.0`). Solvers routed through BSR therefore take exactly the
    /// same iteration path as the CSR-routed reference.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        for br in 0..self.nblock_rows {
            let mut acc = [0.0f64; 3];
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[k];
                let b = &self.blocks[k];
                let xb = &x[3 * bc..3 * bc + 3];
                for c in 0..3 {
                    acc[0] += b[c] * xb[c];
                    acc[1] += b[3 + c] * xb[c];
                    acc[2] += b[6 + c] * xb[c];
                }
            }
            y[3 * br..3 * br + 3].copy_from_slice(&acc);
        }
        flops::add(2 * self.nnz_stored() as u64);
    }

    /// Blocked SpMM: `Y = A X` on `k` interleaved vectors (column `c` of
    /// `X` at `x[j * k + c]`). Per block row the `3 × k` accumulator is
    /// updated block-by-block in [`spmv`]'s block-column order with the
    /// same `b[3r + c] * x` products per column, so each result column is
    /// bitwise identical to a single [`spmv`] on it while every stored
    /// block is read once for all `k` columns.
    ///
    /// [`spmv`]: Bsr3Matrix::spmv
    pub fn spmm(&self, x: &[f64], y: &mut [f64], k: usize) {
        assert!(k > 0, "spmm needs at least one column");
        assert_eq!(x.len(), self.ncols() * k);
        assert_eq!(y.len(), self.nrows() * k);
        // Monomorphized bodies for the common column counts: const-width
        // accumulators turn the per-entry update into fixed vector fmas.
        // Each column's adds run in the same order either way.
        match k {
            1 => self.spmm_const::<1>(x, y),
            2 => self.spmm_const::<2>(x, y),
            4 => self.spmm_const::<4>(x, y),
            8 => self.spmm_const::<8>(x, y),
            _ => {
                let mut acc = vec![0.0f64; 3 * k];
                for br in 0..self.nblock_rows {
                    acc.fill(0.0);
                    for kk in self.row_ptr[br]..self.row_ptr[br + 1] {
                        let bc = self.col_idx[kk];
                        let b = &self.blocks[kk];
                        let xb = &x[3 * bc * k..(3 * bc + 3) * k];
                        for c in 0..3 {
                            let xc = &xb[c * k..c * k + k];
                            for (col, &xv) in xc.iter().enumerate() {
                                acc[col] += b[c] * xv;
                                acc[k + col] += b[3 + c] * xv;
                                acc[2 * k + col] += b[6 + c] * xv;
                            }
                        }
                    }
                    for r in 0..3 {
                        y[(3 * br + r) * k..(3 * br + r + 1) * k]
                            .copy_from_slice(&acc[r * k..r * k + k]);
                    }
                }
            }
        }
        flops::add(2 * self.nnz_stored() as u64 * k as u64);
        pmg_telemetry::counter_add("spmv/multi_bsr3", 1);
    }

    /// [`spmm`] body for a compile-time column count (same accumulation
    /// order, so bitwise identical to the runtime-`k` form).
    ///
    /// [`spmm`]: Bsr3Matrix::spmm
    fn spmm_const<const K: usize>(&self, x: &[f64], y: &mut [f64]) {
        for br in 0..self.nblock_rows {
            let mut acc = [[0.0f64; K]; 3];
            for kk in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[kk];
                let b = &self.blocks[kk];
                let xb = &x[3 * bc * K..(3 * bc + 3) * K];
                for c in 0..3 {
                    let xc: &[f64; K] = xb[c * K..c * K + K].try_into().unwrap();
                    for (col, &xv) in xc.iter().enumerate() {
                        acc[0][col] += b[c] * xv;
                        acc[1][col] += b[3 + c] * xv;
                        acc[2][col] += b[6 + c] * xv;
                    }
                }
            }
            for (r, a) in acc.iter().enumerate() {
                y[(3 * br + r) * K..(3 * br + r + 1) * K].copy_from_slice(a);
            }
        }
    }

    /// `y[3·br .. 3·br+3] = (A x)[3·br .. 3·br+3]` for the listed block
    /// rows only; other entries of `y` are untouched. Identical per-block-
    /// row accumulation to [`spmv`], so computing a partition of the block
    /// rows in any number of calls is bitwise equal to one full [`spmv`] —
    /// the blocked counterpart of [`CsrMatrix::spmv_rows`].
    ///
    /// [`spmv`]: Bsr3Matrix::spmv
    pub fn spmv_block_rows(&self, x: &[f64], y: &mut [f64], brows: &[u32]) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        let mut blocks = 0u64;
        for &br in brows {
            let br = br as usize;
            let mut acc = [0.0f64; 3];
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[k];
                let b = &self.blocks[k];
                let xb = &x[3 * bc..3 * bc + 3];
                for c in 0..3 {
                    acc[0] += b[c] * xb[c];
                    acc[1] += b[3 + c] * xb[c];
                    acc[2] += b[6 + c] * xb[c];
                }
            }
            y[3 * br..3 * br + 3].copy_from_slice(&acc);
            blocks += (self.row_ptr[br + 1] - self.row_ptr[br]) as u64;
        }
        flops::add(2 * 9 * blocks);
    }

    /// `y = A x` parallelized over block rows.
    pub fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        y.par_chunks_mut(3).enumerate().for_each(|(br, yb)| {
            let mut acc = [0.0f64; 3];
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[k];
                let b = &self.blocks[k];
                let xb = &x[3 * bc..3 * bc + 3];
                for c in 0..3 {
                    acc[0] += b[c] * xb[c];
                    acc[1] += b[3 + c] * xb[c];
                    acc[2] += b[6 + c] * xb[c];
                }
            }
            yb.copy_from_slice(&acc);
        });
        flops::add(2 * self.nnz_stored() as u64);
    }

    /// Back to scalar CSR (explicit zeros inside blocks are dropped).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut b = crate::csr::CooBuilder::new(self.nrows(), self.ncols());
        b.reserve(self.nnz_stored());
        for br in 0..self.nblock_rows {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[k];
                for li in 0..3 {
                    for lj in 0..3 {
                        let v = self.blocks[k][3 * li + lj];
                        if v != 0.0 {
                            b.push(3 * br + li, 3 * bc + lj, v);
                        }
                    }
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use proptest::prelude::*;

    fn block_laplacian(nb: usize) -> CsrMatrix {
        // Vertex-block tridiagonal with dense-ish 3x3 blocks.
        let mut b = CooBuilder::new(3 * nb, 3 * nb);
        for v in 0..nb {
            for i in 0..3 {
                for j in 0..3 {
                    b.push(3 * v + i, 3 * v + j, if i == j { 4.0 } else { -0.5 });
                    if v > 0 {
                        b.push(3 * v + i, 3 * (v - 1) + j, -0.25);
                    }
                    if v + 1 < nb {
                        b.push(3 * v + i, 3 * (v + 1) + j, -0.25);
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn roundtrip_csr_bsr_csr() {
        let a = block_laplacian(7);
        let b = Bsr3Matrix::from_csr(&a);
        assert_eq!(b.num_blocks(), 7 + 2 * 6);
        assert_eq!(b.to_csr(), a);
    }

    #[test]
    #[should_panic(expected = "pattern changed")]
    fn refresh_rejects_an_entry_outside_the_stored_blocks() {
        // Block (0, 4) is in range but not stored by the tridiagonal
        // pattern: the walk must stop at the row's end, not write elsewhere.
        let mut b = Bsr3Matrix::from_csr(&block_laplacian(5));
        let mut other = CooBuilder::new(15, 15);
        other.push(0, 13, 1.0);
        b.refresh_from_csr(&other.build(), |j| j);
    }

    #[test]
    fn spmv_matches_csr() {
        let a = block_laplacian(9);
        let b = Bsr3Matrix::from_csr(&a);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        let mut y3 = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y1);
        b.spmv(&x, &mut y2);
        b.spmv_par(&x, &mut y3);
        for ((u, v), w) in y1.iter().zip(&y2).zip(&y3) {
            assert!((u - v).abs() < 1e-14);
            assert!((u - w).abs() < 1e-14);
        }
    }

    #[test]
    fn spmm_is_bitwise_spmv_per_column() {
        // A 9x9 block-structured matrix with an irregular stencil so block
        // rows have varying lengths; every monomorphized width plus the
        // generic fallback (k = 3).
        let n = 9;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 3.0 + (i as f64) * 0.17);
            if i + 3 < n {
                b.push(i, i + 3, -1.25 + (i as f64) * 0.01);
                b.push(i + 3, i, -0.75);
            }
            if i % 2 == 0 && i + 1 < n {
                b.push(i, i + 1, 0.31 * (i as f64 + 1.0));
            }
        }
        let bsr = Bsr3Matrix::from_csr(&b.build());
        for k in [1usize, 2, 3, 4, 8] {
            let x: Vec<f64> = (0..n * k)
                .map(|i| ((i * 7 % 13) as f64 - 6.0) * 0.3)
                .collect();
            let mut ym = vec![0.0; n * k];
            bsr.spmm(&x, &mut ym, k);
            for c in 0..k {
                let xc: Vec<f64> = (0..n).map(|i| x[i * k + c]).collect();
                let mut yc = vec![0.0; n];
                bsr.spmv(&xc, &mut yc);
                for i in 0..n {
                    assert_eq!(
                        ym[i * k + c].to_bits(),
                        yc[i].to_bits(),
                        "k={k} c={c} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_blocks_materialize_zeros() {
        // A single scalar entry inside a block stores the full 3x3 block.
        let mut b = CooBuilder::new(6, 6);
        b.push(0, 4, 7.0);
        let a = b.build();
        let bsr = Bsr3Matrix::from_csr(&a);
        assert_eq!(bsr.num_blocks(), 1);
        assert_eq!(bsr.nnz_stored(), 9);
        let back = bsr.to_csr();
        assert_eq!(back.nnz(), 1);
        assert_eq!(back.get(0, 4), 7.0);
    }

    proptest! {
        #[test]
        fn prop_bsr_spmv_equals_csr(
            entries in proptest::collection::vec(
                (0usize..12, 0usize..12, -5.0f64..5.0), 0..80),
            x in proptest::collection::vec(-3.0f64..3.0, 12),
        ) {
            let mut b = CooBuilder::new(12, 12);
            for (i, j, v) in entries {
                b.push(i, j, v);
            }
            let a = b.build();
            let bsr = Bsr3Matrix::from_csr(&a);
            prop_assert_eq!(bsr.to_csr(), a.clone());
            let mut y1 = vec![0.0; 12];
            let mut y2 = vec![0.0; 12];
            a.spmv(&x, &mut y1);
            bsr.spmv(&x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!((u - v).abs() < 1e-12);
            }
        }
    }
}
