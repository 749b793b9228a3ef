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
//! # Tile layout and the product kernel
//!
//! A tile is nine `f64` stored **by column**, unpadded —
//! `[b00 b10 b20 | b01 b11 b21 | b02 b12 b22]` — and its block column is a
//! `u32`: 76 B per tile. The value array carries one extra `0.0` after the
//! last tile.
//!
//! Every product (`spmv`, `spmv_block_rows`, and through them the ghost
//! product of a distributed operator) runs one private per-block-row body
//! whose SIMD lanes are the tile's three **rows**: per tile
//! `acc = acc + col_c · broadcast(x_c)` for `c = 0, 1, 2`. Lane `r` then
//! executes `acc[r] += b[r][c] * x[c]` in ascending column order — exactly
//! [`CsrMatrix::spmv`]'s sequence for scalar row `3·br + r` — so the bits
//! are the CSR product's at any vector width. Three things keep it so:
//!
//! * **No FMA.** The scalar reference rounds the product and the sum
//!   separately; a fused multiply–add rounds once and would change the
//!   low bits, and with them every iteration count pinned downstream. The
//!   multiply and the add are separate instructions.
//! * **The fourth lane is garbage and is dropped.** A column is read as
//!   four lanes, so the fourth holds the next column's first entry (for a
//!   tile's last column: the next tile's `b00`, or the tail). It is
//!   accumulated and never stored — a `NaN` there reaches no result.
//! * **One block row in flight.** Rows are independent chains the
//!   out-of-order core already overlaps; interleaving 2, 4 or 8 of them by
//!   hand measured 7–20 % *slower* out of L2 (more streams, same bytes).
//!
//! The vector body is explicit AVX2 (`std::arch`, detected at run time)
//! and hints the tile stream 32 tiles ahead, which moves no bit; the
//! portable body runs the same order in scalar code and is both the
//! fallback and the oracle the vector body is tested against.
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

/// `f64`s after the last tile: the four-lane read of a tile's third column
/// ends one element past the tile, so the last tile needs one to land on.
const TAIL: usize = 1;

/// How far ahead of the tile in hand the vector body prefetches, in tiles
/// (2.3 kB). The tile stream is the only one that misses — `x` and `y` stay
/// cached — and the hardware streamer alone left 10–15 % of the L3 rate on
/// the table at this 72-byte stride; 16, 32 and 64 measured alike.
#[cfg(target_arch = "x86_64")]
const PREFETCH_TILES: usize = 32;

/// Sparse matrix of dense 3x3 blocks.
///
/// Invariants the vector kernel relies on (fields are private and only this
/// module writes them): `row_ptr` is non-decreasing from 0 to
/// `col_idx.len()`, every `col_idx[k] < nblock_cols`, and
/// `vals.len() == 9 * col_idx.len() + TAIL`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bsr3Matrix {
    nblock_rows: usize,
    nblock_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Column-major 3x3 tiles, nine values each, then [`TAIL`] zeros.
    vals: Vec<f64>,
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
    ///
    /// # Panics
    /// If a dimension is not a multiple of 3, or `ncols / 3` exceeds
    /// `u32::MAX` (block columns are stored as `u32`).
    pub fn from_csr_cols(a: &CsrMatrix, ncols: usize, col: impl Fn(usize) -> usize) -> Bsr3Matrix {
        assert_eq!(a.nrows() % 3, 0, "rows not a multiple of 3");
        assert_eq!(ncols % 3, 0, "cols not a multiple of 3");
        let nbr = a.nrows() / 3;
        let nbc = ncols / 3;
        assert!(
            nbc <= u32::MAX as usize,
            "{nbc} block columns do not fit the u32 block-column index"
        );
        let mut row_ptr = Vec::with_capacity(nbr + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::new();

        // The pattern first, so the values are allocated once at their
        // final size: each block row's block columns, ascending (the
        // product's accumulation order).
        let mut seen = vec![false; nbc];
        for br in 0..nbr {
            let base = col_idx.len();
            for local in 0..3 {
                for &j in a.row(3 * br + local).0 {
                    let bc = col(j) / 3;
                    if !seen[bc] {
                        seen[bc] = true;
                        col_idx.push(bc as u32);
                    }
                }
            }
            col_idx[base..].sort_unstable();
            for &bc in &col_idx[base..] {
                seen[bc as usize] = false;
            }
            row_ptr.push(col_idx.len());
        }
        let mut m = Bsr3Matrix {
            nblock_rows: nbr,
            nblock_cols: nbc,
            row_ptr,
            vals: vec![0.0; 9 * col_idx.len() + TAIL],
            col_idx,
        };
        m.refresh_from_csr(a, col);
        m
    }

    /// Overwrite the stored values with those of `a`, which must have the
    /// sparsity pattern this matrix was built from (with the same `col`,
    /// see [`from_csr_cols`](Self::from_csr_cols)), allocating nothing. A
    /// scalar row with exactly three entries per stored block of its block
    /// row — every row of a fully coupled vertex — fills the tiles in
    /// order, three values each; any other row takes one ordered walk with
    /// a cursor over the block row's ascending blocks. The explicit zeros
    /// inside blocks stay zero.
    ///
    /// # Panics
    /// If an entry of `a` falls in a block this matrix does not store (on
    /// the full-row path: if a triple's first or last column is not its
    /// tile's). An entry *missing* from `a` is not detected (its old value
    /// stays), so callers compare pattern fingerprints first.
    pub fn refresh_from_csr(&mut self, a: &CsrMatrix, col: impl Fn(usize) -> usize) {
        assert_eq!(a.nrows(), self.nrows(), "pattern changed: rows");
        for br in 0..self.nblock_rows {
            let blocks = self.row_ptr[br]..self.row_ptr[br + 1];
            for local in 0..3 {
                let i = 3 * br + local;
                let (cols, vals) = a.row(i);
                if cols.len() == 3 * blocks.len() {
                    let triples = cols.chunks_exact(3).zip(vals.chunks_exact(3));
                    for (k, (c, v)) in blocks.clone().zip(triples) {
                        let first = 3 * self.col_idx[k] as usize;
                        assert!(
                            col(c[0]) == first && col(c[2]) == first + 2,
                            "pattern changed: row {i} is not whole tiles"
                        );
                        let tile = &mut self.vals[9 * k..9 * k + 9];
                        tile[local] = v[0];
                        tile[3 + local] = v[1];
                        tile[6 + local] = v[2];
                    }
                    continue;
                }
                let mut k = blocks.start;
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = col(j);
                    while k < blocks.end && (self.col_idx[k] as usize) < j / 3 {
                        k += 1;
                    }
                    assert!(
                        k < blocks.end && self.col_idx[k] as usize == j / 3,
                        "pattern changed: no block for entry ({i}, {j})"
                    );
                    self.vals[9 * k + 3 * (j % 3) + local] = v;
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
        self.col_idx.len()
    }

    /// Scalar nonzeros stored (9 per block, including explicit zeros).
    pub fn nnz_stored(&self) -> usize {
        9 * self.col_idx.len()
    }

    /// Resident bytes of the storage as allocated: 76 per tile (nine `f64`
    /// values and a `u32` block column), the value array's tail, and one
    /// `usize` pointer per block row plus one.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        (size_of_val(&self.vals[..])
            + size_of_val(&self.col_idx[..])
            + size_of_val(&self.row_ptr[..])) as u64
    }

    /// Tile `k`, column-major: entry `(r, c)` at `3 * c + r`.
    fn tile(&self, k: usize) -> &[f64; 9] {
        (self.vals[9 * k..9 * k + 9].try_into()).expect("a nine-element slice")
    }

    /// `y = A x` over 3x3 tiles (serial).
    ///
    /// Accumulates one add per scalar entry, in column order within each
    /// row — the same association as [`CsrMatrix::spmv`] — so the blocked
    /// product is bitwise identical to the scalar one (explicit zeros only
    /// add `0.0`). Solvers routed through BSR therefore take exactly the
    /// same iteration path as the CSR-routed reference.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.product(x, y, 0..self.nblock_rows);
    }

    /// `y[3·br .. 3·br+3] = (A x)[3·br .. 3·br+3]` for the listed block
    /// rows only; other entries of `y` are untouched. The same per-block-
    /// row body as [`spmv`], so computing a partition of the block rows in
    /// any number of calls is bitwise equal to one full [`spmv`] — the
    /// blocked counterpart of [`CsrMatrix::spmv_rows`].
    ///
    /// [`spmv`]: Bsr3Matrix::spmv
    pub fn spmv_block_rows(&self, x: &[f64], y: &mut [f64], brows: &[u32]) {
        self.product(x, y, brows.iter().map(|&br| br as usize));
    }

    /// The product of the block rows `brows`, on the widest body the host
    /// runs (see the module docs for the order both bodies keep).
    fn product(&self, x: &[f64], y: &mut [f64], brows: impl Iterator<Item = usize>) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        #[cfg(target_arch = "x86_64")]
        let tiles = if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected, and `x` has the `ncols()`
            // entries the body's unchecked reads rely on.
            unsafe { self.product_avx2(x, y, brows) }
        } else {
            self.product_portable(x, y, brows)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let tiles = self.product_portable(x, y, brows);
        flops::add(2 * 9 * tiles as u64);
    }

    /// Portable body of [`product`](Self::product): the only path off
    /// AVX2 hosts and the reference the vector body is tested against.
    /// Returns the tiles visited.
    fn product_portable(
        &self,
        x: &[f64],
        y: &mut [f64],
        brows: impl Iterator<Item = usize>,
    ) -> usize {
        let mut tiles = 0;
        for br in brows {
            let (lo, hi) = (self.row_ptr[br], self.row_ptr[br + 1]);
            let mut acc = [0.0f64; 3];
            for k in lo..hi {
                let b = self.tile(k);
                let bc = self.col_idx[k] as usize;
                let xb = &x[3 * bc..3 * bc + 3];
                for c in 0..3 {
                    for r in 0..3 {
                        acc[r] += b[3 * c + r] * xb[c];
                    }
                }
            }
            y[3 * br..3 * br + 3].copy_from_slice(&acc);
            tiles += hi - lo;
        }
        tiles
    }

    /// AVX2 body of [`product`](Self::product): a tile's three rows in
    /// lanes 0–2 of one `__m256d`, lane 3 accumulated and dropped.
    ///
    /// # Safety
    /// Requires AVX2 and `x.len() == self.ncols()`. `brows` and `y` are
    /// bounds-checked; the per-tile reads are not, and hold by the struct
    /// invariants: `k < col_idx.len()` inside a block row, `col_idx[k] <
    /// nblock_cols` keeps `x[3·bc + c]` in range, and the last lane read,
    /// `vals[9k + 9]`, is at worst the tail.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn product_avx2(
        &self,
        x: &[f64],
        y: &mut [f64],
        brows: impl Iterator<Item = usize>,
    ) -> usize {
        use std::arch::x86_64::*;
        debug_assert_eq!(self.vals.len(), 9 * self.col_idx.len() + TAIL);
        let (vals, cols, x) = (self.vals.as_ptr(), self.col_idx.as_ptr(), x.as_ptr());
        let mut tiles = 0;
        for br in brows {
            let (lo, hi) = (self.row_ptr[br], self.row_ptr[br + 1]);
            let mut acc = _mm256_setzero_pd();
            for k in lo..hi {
                let b = vals.add(9 * k);
                // A hint only: it never faults, so it may point past the end.
                _mm_prefetch::<_MM_HINT_T0>(b.wrapping_add(9 * PREFETCH_TILES).cast());
                let xb = x.add(3 * *cols.add(k) as usize);
                for c in 0..3 {
                    let prod = _mm256_mul_pd(
                        _mm256_loadu_pd(b.add(3 * c)),
                        _mm256_broadcast_sd(&*xb.add(c)),
                    );
                    acc = _mm256_add_pd(acc, prod);
                }
            }
            let yb = y[3 * br..3 * br + 3].as_mut_ptr();
            _mm_storeu_pd(yb, _mm256_castpd256_pd128(acc));
            _mm_store_sd(yb.add(2), _mm256_extractf128_pd(acc, 1));
            tiles += hi - lo;
        }
        tiles
    }

    /// Blocked SpMM: `Y = A X` on `k` interleaved vectors (column `c` of
    /// `X` at `x[j * k + c]`). Per block row the `3 × k` accumulator is
    /// updated block-by-block in [`spmv`]'s block-column order with the
    /// same `b[r][c] * x` products per column, so each result column is
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
                        let bc = self.col_idx[kk] as usize;
                        let b = self.tile(kk);
                        let xb = &x[3 * bc * k..(3 * bc + 3) * k];
                        for c in 0..3 {
                            let xc = &xb[c * k..c * k + k];
                            for (col, &xv) in xc.iter().enumerate() {
                                acc[col] += b[3 * c] * xv;
                                acc[k + col] += b[3 * c + 1] * xv;
                                acc[2 * k + col] += b[3 * c + 2] * xv;
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
                let bc = self.col_idx[kk] as usize;
                let b = self.tile(kk);
                let xb = &x[3 * bc * K..(3 * bc + 3) * K];
                for c in 0..3 {
                    let xc: &[f64; K] = xb[c * K..c * K + K].try_into().unwrap();
                    for (col, &xv) in xc.iter().enumerate() {
                        acc[0][col] += b[3 * c] * xv;
                        acc[1][col] += b[3 * c + 1] * xv;
                        acc[2][col] += b[3 * c + 2] * xv;
                    }
                }
            }
            for (r, a) in acc.iter().enumerate() {
                y[(3 * br + r) * K..(3 * br + r + 1) * K].copy_from_slice(a);
            }
        }
    }

    /// Back to scalar CSR (explicit zeros inside blocks are dropped).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut b = crate::csr::CooBuilder::new(self.nrows(), self.ncols());
        b.reserve(self.nnz_stored());
        for br in 0..self.nblock_rows {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[k] as usize;
                let tile = self.tile(k);
                for li in 0..3 {
                    for lj in 0..3 {
                        let v = tile[3 * lj + li];
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
        let all: Vec<u32> = (0..9).collect();
        b.spmv_block_rows(&x, &mut y3, &all);
        for ((u, v), w) in y1.iter().zip(&y2).zip(&y3) {
            assert!((u - v).abs() < 1e-14);
            assert!((u - w).abs() < 1e-14);
        }
    }

    /// `x` through the portable body alone (`spmv` takes the host's widest).
    fn portable_product(b: &Bsr3Matrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![f64::NAN; b.nrows()];
        b.product_portable(x, &mut y, 0..b.nblock_rows);
        y
    }

    fn bits(y: &[f64]) -> Vec<u64> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn non_finite_tile_stays_in_its_own_block_row() {
        // Block row 2's first tile sits right after block row 1's last one
        // in the value array, so row 1's fourth lane reads its `b00`.
        let a = block_laplacian(5);
        let x: Vec<f64> = (0..15).map(|i| 0.5 + (i as f64 * 0.7).cos()).collect();
        let mut y_ref = vec![0.0; 15];
        Bsr3Matrix::from_csr(&a).spmv(&x, &mut y_ref);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut coo = CooBuilder::new(15, 15);
            for i in 0..15 {
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    let in_tile = (6..9).contains(&i) && (3..6).contains(&j);
                    coo.push(i, j, if in_tile { poison } else { v });
                }
            }
            let b = Bsr3Matrix::from_csr(&coo.build());
            let mut y = vec![0.0; 15];
            b.spmv(&x, &mut y);
            assert_eq!(bits(&y), bits(&portable_product(&b, &x)), "{poison}");
            for i in 0..15 {
                if (6..9).contains(&i) {
                    assert!(!y[i].is_finite(), "{poison}: row {i} = {}", y[i]);
                } else {
                    assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "{poison}: row {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pattern changed")]
    fn a_whole_tile_row_in_other_tiles_is_rejected() {
        // Block row 0 stores tiles 0 and 1: six entries in tiles 0 and 2
        // have the whole-row count, but the second triple is not tile 1's.
        let mut b = Bsr3Matrix::from_csr(&block_laplacian(5));
        let mut other = CooBuilder::new(15, 15);
        for j in [0, 1, 2, 6, 7, 8] {
            other.push(0, j, 1.0);
        }
        b.refresh_from_csr(&other.build(), |j| j);
    }

    #[test]
    fn refresh_then_spmv_equals_a_fresh_conversion() {
        // A padded ghost block (6 rows, 4 ghost columns spread over two
        // vertex triples), refreshed to new values on the same pattern.
        let pad = |j: usize| [0, 2, 3, 5][j];
        let pattern = [
            (0, 0),
            (0, 2),
            (1, 1),
            (2, 3),
            (3, 0),
            (4, 1),
            (4, 2),
            (5, 3),
        ];
        let with_values = |f: &dyn Fn(usize) -> f64| {
            let mut coo = CooBuilder::new(6, 4);
            for (e, &(i, j)) in pattern.iter().enumerate() {
                coo.push(i, j, f(e));
            }
            coo.build()
        };
        let first = with_values(&|e| 1.0 + e as f64);
        let second = with_values(&|e| -0.3 * (e as f64 + 2.0).sqrt());
        let mut b = Bsr3Matrix::from_csr_cols(&first, 6, pad);
        b.refresh_from_csr(&second, pad);
        let fresh = Bsr3Matrix::from_csr_cols(&second, 6, pad);
        assert_eq!(b, fresh);
        let x = [0.9, 7.0, -1.1, 0.4, 7.0, 2.5];
        let (mut y1, mut y2) = (vec![0.0; 6], vec![0.0; 6]);
        b.spmv(&x, &mut y1);
        fresh.spmv(&x, &mut y2);
        assert_eq!(bits(&y1), bits(&y2));
        let mut y_csr = vec![0.0; 6];
        second.spmv(&[x[0], x[2], x[3], x[5]], &mut y_csr);
        assert_eq!(bits(&y1), bits(&y_csr));
    }

    #[test]
    #[should_panic(expected = "do not fit the u32 block-column index")]
    fn more_than_u32_max_block_columns_are_rejected() {
        let empty = CooBuilder::new(3, 3).build();
        Bsr3Matrix::from_csr_cols(&empty, 3 * (u32::MAX as usize + 1), |j| j);
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

    /// Signed zeros and subnormals beside ordinary values.
    fn special(kind: usize, v: f64) -> f64 {
        match kind {
            0 => -0.0,
            1 => v * 1e-310,
            _ => v,
        }
    }

    proptest! {
        /// The host's body (AVX2 where detected), the portable body and
        /// `CsrMatrix::spmv` agree bit for bit, and so does any partition
        /// of the block rows through `spmv_block_rows`: rectangular shapes,
        /// empty and one-tile block rows, the last tile against the tail.
        #[test]
        fn prop_every_body_and_partition_equals_csr_bitwise(
            shape in (1usize..6, 1usize..6),
            tiles in proptest::collection::vec(
                (0usize..6, 0usize..6, 1usize..512,
                 proptest::collection::vec((0usize..6, -4.0f64..4.0), 9)),
                0..14),
            x in proptest::collection::vec((0usize..6, -3.0f64..3.0), 15),
            part in proptest::collection::vec(0usize..3, 5),
        ) {
            let (nbr, nbc) = shape;
            let mut coo = CooBuilder::new(3 * nbr, 3 * nbc);
            for (br, bc, mask, vals) in &tiles {
                for (e, &(kind, v)) in vals.iter().enumerate() {
                    if mask & (1 << e) != 0 {
                        coo.push(3 * (br % nbr) + e / 3, 3 * (bc % nbc) + e % 3, special(kind, v));
                    }
                }
            }
            let a = coo.build();
            let b = Bsr3Matrix::from_csr(&a);
            let x: Vec<f64> = x[..3 * nbc].iter().map(|&(kind, v)| special(kind, v)).collect();
            let mut y_csr = vec![0.0; 3 * nbr];
            let mut y = vec![f64::NAN; 3 * nbr];
            a.spmv(&x, &mut y_csr);
            b.spmv(&x, &mut y);
            prop_assert_eq!(bits(&y), bits(&y_csr));
            prop_assert_eq!(bits(&portable_product(&b, &x)), bits(&y_csr));
            let mut y_rows = vec![f64::NAN; 3 * nbr];
            for class in 0..3 {
                let brows: Vec<u32> =
                    (0..nbr as u32).filter(|&br| part[br as usize] == class).collect();
                b.spmv_block_rows(&x, &mut y_rows, &brows);
            }
            prop_assert_eq!(bits(&y_rows), bits(&y_csr));
        }
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
