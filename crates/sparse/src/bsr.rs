//! Block CSR with 3x3 blocks.
//!
//! Displacement problems carry 3 dofs per vertex, so the operator is
//! naturally blocked: one dense 3x3 block per vertex pair. BSR storage
//! roughly halves the index metadata and lets the matrix-vector product
//! run on contiguous 3x3 tiles — the standard optimization for elasticity
//! operators (PETSc's BAIJ). Convertible to/from scalar CSR; `spmv`
//! accumulates each row's blocks in the same column order as the CSR
//! product, so on finite operands the two are **bitwise identical**, not
//! merely close. A block materializes the zeros its scalar pattern lacks,
//! and such a zero times a non-finite `x` entry (±∞ or NaN) is NaN where
//! the CSR product skips the entry.
//!
//! # Tile layout and the product kernel
//!
//! A tile is nine `f64` stored **by column**, unpadded —
//! `[b00 b10 b20 | b01 b11 b21 | b02 b12 b22]` — and its block column is a
//! `u32`: 76 B per tile. The value array carries one extra `0.0` after the
//! last tile.
//!
//! The product runs one private per-block-row body whose SIMD lanes are
//! the tile's three **rows**: per tile
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
    /// (absent entries are zero): the tiles of
    /// [`MaskedBsr3::from_csr`], without the masks.
    ///
    /// # Panics
    /// If a dimension is not a multiple of 3, `ncols / 3` exceeds
    /// `u32::MAX` (block columns are stored as `u32`), or a row's columns
    /// do not strictly ascend.
    pub fn from_csr(a: &CsrMatrix) -> Bsr3Matrix {
        MaskedBsr3::from_csr(a).tiles
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
    /// row — the same association as [`CsrMatrix::spmv`] — so on finite
    /// operands the blocked product is bitwise identical to the scalar one
    /// (explicit zeros only add `0.0`; times a non-finite `x` entry they
    /// give NaN, see the module docs). Solvers routed through BSR therefore
    /// take exactly the same iteration path as the CSR-routed reference.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.product(x, y);
    }

    /// The product on the widest body the host runs (see the module docs
    /// for the order both bodies keep).
    fn product(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        #[cfg(target_arch = "x86_64")]
        let tiles = if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected, and `x` has the `ncols()`
            // entries the body's unchecked reads rely on.
            unsafe { self.product_avx2(x, y) }
        } else {
            self.product_portable(x, y)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let tiles = self.product_portable(x, y);
        flops::add(2 * 9 * tiles as u64);
    }

    /// Portable body of [`product`](Self::product): the only path off
    /// AVX2 hosts and the reference the vector body is tested against.
    /// Returns the tiles visited.
    fn product_portable(&self, x: &[f64], y: &mut [f64]) -> usize {
        let mut tiles = 0;
        for br in 0..self.nblock_rows {
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
    /// Requires AVX2 and `x.len() == self.ncols()`. `row_ptr` and `y` are
    /// bounds-checked; the per-tile reads are not, and hold by the struct
    /// invariants: `k < col_idx.len()` inside a block row, `col_idx[k] <
    /// nblock_cols` keeps `x[3·bc + c]` in range, and the last lane read,
    /// `vals[9k + 9]`, is at worst the tail.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn product_avx2(&self, x: &[f64], y: &mut [f64]) -> usize {
        use std::arch::x86_64::*;
        debug_assert_eq!(self.vals.len(), 9 * self.col_idx.len() + TAIL);
        let (vals, cols, x) = (self.vals.as_ptr(), self.col_idx.as_ptr(), x.as_ptr());
        let mut tiles = 0;
        for br in 0..self.nblock_rows {
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

/// A scalar matrix stored once, in 3x3 tiles: the [`Bsr3Matrix`] its
/// products run on and, per tile, the 9-bit mask of the scalar entries the
/// source stores (bit `3c + r` for entry `(r, c)`, the tile's value slot).
/// The masks keep the scalar rows exact where the tiles alone cannot: a
/// tile of a Dirichlet-trimmed row materializes zeros its source lacks,
/// and a source may store a zero of either sign. Read through them, every
/// scalar row is the source's — columns, order and value bits
/// ([`row`](Self::row), [`to_csr`](Self::to_csr)) — at 2 B per tile on top
/// of the tiles' 76.
#[derive(Clone, Debug, PartialEq)]
pub struct MaskedBsr3 {
    tiles: Bsr3Matrix,
    mask: Vec<u16>,
    /// Stored scalar entries: the masks' bits.
    nnz: usize,
}

/// Of a tile's mask, the columns scalar row `r` stores: bit `c` set when
/// entry `(r, c)` is.
fn row_bits(mask: u16, r: usize) -> u32 {
    let m = u32::from(mask) >> r;
    (m & 1) | ((m >> 2) & 2) | ((m >> 4) & 4)
}

impl MaskedBsr3 {
    /// Tile the rows of a scalar CSR matrix whose dimensions are multiples
    /// of 3: each block row is walked twice ([`for_each_tile`]) — counting
    /// its tiles first, so the arrays are allocated once at their final
    /// size, then writing them ([`MaskedBsr3Writer`]), block columns
    /// ascending (the product's accumulation order).
    ///
    /// # Panics
    /// If a dimension is not a multiple of 3, `ncols / 3` exceeds
    /// `u32::MAX` (block columns are stored as `u32`), or a row's columns
    /// do not strictly ascend.
    pub fn from_csr(a: &CsrMatrix) -> MaskedBsr3 {
        let (nbr, _) = block_dims(a.nrows(), a.ncols());
        let rows =
            |br: usize| -> [(&[usize], &[f64]); 3] { std::array::from_fn(|s| a.row(3 * br + s)) };
        let mut ntiles = 0;
        for br in 0..nbr {
            for_each_tile::<3>(rows(br).map(|r| r.0), |_, _, _| ntiles += 1);
        }
        let mut w = MaskedBsr3Writer::new(a.nrows(), a.ncols(), ntiles);
        for br in 0..nbr {
            let rows = rows(br);
            for_each_tile::<3>(rows.map(|r| r.0), |bc, from, to| {
                w.push_tile(bc, &rows, from, to);
            });
            w.end_block_row();
        }
        w.finish()
    }

    /// The tiles every product runs on.
    pub fn tiles(&self) -> &Bsr3Matrix {
        &self.tiles
    }

    /// The tiles' values, nine per tile in stored order (column-major, no
    /// tail): the source array of a planned Galerkin product
    /// ([`RapPlan::execute_tiles`](crate::RapPlan::execute_tiles)).
    pub fn tile_values(&self) -> &[f64] {
        let t = &self.tiles;
        &t.vals[..9 * t.col_idx.len()]
    }

    /// [`tile_values`](Self::tile_values) to overwrite in place — the
    /// output array of a planned Galerkin product. A writer keeps every
    /// slot the masks lack at `+0.0`, as the product does, so the tiles
    /// stay this matrix's ([`diag`](Self::diag) reads them unmasked).
    pub fn tile_values_mut(&mut self) -> &mut [f64] {
        let t = &mut self.tiles;
        &mut t.vals[..9 * t.col_idx.len()]
    }

    /// Scalar rows.
    pub fn nrows(&self) -> usize {
        self.tiles.nrows()
    }

    /// Scalar columns.
    pub fn ncols(&self) -> usize {
        self.tiles.ncols()
    }

    /// Stored scalar entries — the source's count, not the tiles' `9 ×`.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Resident bytes: the tiles as stored ([`Bsr3Matrix::memory_bytes`])
    /// and 2 per tile for the masks.
    pub fn memory_bytes(&self) -> u64 {
        self.tiles.memory_bytes() + std::mem::size_of_val(&self.mask[..]) as u64
    }

    /// Scalar row `i` as its source stored it: `(column, value)` in
    /// ascending column order, the tiles' values where the masks have bits.
    pub fn row(&self, i: usize) -> MaskedRow<'_> {
        let (br, r) = (i / 3, i % 3);
        let tiles = self.tiles.row_ptr[br]..self.tiles.row_ptr[br + 1];
        MaskedRow {
            cols: &self.tiles.col_idx[tiles.clone()],
            masks: &self.mask[tiles.clone()],
            vals: &self.tiles.vals[9 * tiles.start..9 * tiles.end],
            r,
            next: 0,
            col: 0,
            val: 0,
            bits: 0,
        }
    }

    /// `f(column, value)` for scalar row `i`'s stored entries at or left
    /// of column `i`, in ascending column order: [`row`](Self::row) up to
    /// the diagonal, with no comparison per entry — the tiles left of the
    /// diagonal tile whole, the diagonal tile's columns up to the row's.
    #[inline]
    pub fn for_each_lower(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let (br, r) = (i / 3, i % 3);
        let t = &self.tiles;
        for k in t.row_ptr[br]..t.row_ptr[br + 1] {
            let bc = t.col_idx[k] as usize;
            let mut bits = row_bits(self.mask[k], r);
            if bc >= br {
                if bc > br {
                    break;
                }
                bits &= (2 << r) - 1;
            }
            let tile = &t.vals[9 * k + r..];
            if bits == 0b111 {
                // A whole tile row, the common case: no bit to walk.
                f(3 * bc, tile[0]);
                f(3 * bc + 1, tile[3]);
                f(3 * bc + 2, tile[6]);
                continue;
            }
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(3 * bc + c, tile[3 * c]);
            }
        }
    }

    /// Overwrite scalar row `i`'s stored values, in column order, with the
    /// first values `vals` yields — the numeric refresh from a source of
    /// the pattern this was tiled from (the caller compares pattern
    /// fingerprints first: no column is checked here). Returns how many
    /// were taken: the row's stored count, unless `vals` ran out first;
    /// values beyond it are left unread.
    pub fn set_row(&mut self, i: usize, vals: impl IntoIterator<Item = f64>) -> usize {
        let (br, r) = (i / 3, i % 3);
        let mut vals = vals.into_iter();
        let mut n = 0;
        for k in self.tiles.row_ptr[br]..self.tiles.row_ptr[br + 1] {
            let mut bits = row_bits(self.mask[k], r);
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(v) = vals.next() else {
                    return n;
                };
                self.tiles.vals[9 * k + 3 * c + r] = v;
                n += 1;
            }
        }
        n
    }

    /// The main diagonal (missing entries are `0.0`): a tile slot the mask
    /// lacks holds `+0.0`, so the diagonal tiles alone give the source's.
    pub fn diag(&self) -> Vec<f64> {
        let t = &self.tiles;
        let nb = t.nblock_rows.min(t.nblock_cols);
        let mut d = vec![0.0; 3 * nb];
        for br in 0..nb {
            let cols = &t.col_idx[t.row_ptr[br]..t.row_ptr[br + 1]];
            if let Ok(p) = cols.binary_search(&(br as u32)) {
                let tile = t.tile(t.row_ptr[br] + p);
                for r in 0..3 {
                    d[3 * br + r] = tile[4 * r];
                }
            }
        }
        d
    }

    /// The source as scalar CSR, exactly: every stored entry and no other,
    /// signed zeros included.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.nrows() + 1);
        row_ptr.push(0);
        let (mut cols, mut vals) = (Vec::with_capacity(self.nnz), Vec::with_capacity(self.nnz));
        for i in 0..self.nrows() {
            for (j, v) in self.row(i) {
                cols.push(j);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_parts(self.nrows(), self.ncols(), row_ptr, cols, vals)
    }
}

/// Block rows and block columns of `nrows × ncols` scalars, checked.
fn block_dims(nrows: usize, ncols: usize) -> (usize, usize) {
    assert_eq!(nrows % 3, 0, "rows not a multiple of 3");
    assert_eq!(ncols % 3, 0, "cols not a multiple of 3");
    let nbc = ncols / 3;
    assert!(
        nbc <= u32::MAX as usize,
        "{nbc} block columns do not fit the u32 block-column index"
    );
    (nrows / 3, nbc)
}

/// Walk one block row — its `B` scalar rows' ascending column ids — tile
/// by tile in ascending block column `j`: `tile(j, from, to)` gets the
/// range `from[s]..to[s]` of scalar row `s`'s entries that fall in the
/// tile. The one tiling walk: [`MaskedBsr3::from_csr`], a distributed
/// share's owned block and the Galerkin plans all tile rows through it.
pub fn for_each_tile<const B: usize>(
    rows: [&[usize]; B],
    mut tile: impl FnMut(usize, [usize; B], [usize; B]),
) {
    let mut at = [0usize; B];
    loop {
        let mut j = usize::MAX;
        for s in 0..B {
            if let Some(&c) = rows[s].get(at[s]) {
                j = j.min(c / B);
            }
        }
        if j == usize::MAX {
            return;
        }
        let from = at;
        for s in 0..B {
            while at[s] < rows[s].len() && rows[s][at[s]] / B == j {
                at[s] += 1;
            }
            debug_assert!(
                rows[s].get(at[s]).is_none_or(|&c| c / B > j),
                "row {s} of a block row does not ascend"
            );
        }
        tile(j, from, at);
    }
}

/// A [`MaskedBsr3`] written tile by tile, block row after block row, into
/// arrays allocated once for the tile count a counting pass found — how a
/// distributed share tiles the owned entries of its source rows in the
/// same walk that sorts the rest into its ghost block.
#[derive(Debug)]
pub struct MaskedBsr3Writer {
    m: MaskedBsr3,
}

impl MaskedBsr3Writer {
    /// Room for `ntiles` tiles of an `nrows × ncols` matrix (both multiples
    /// of 3; panics as [`MaskedBsr3::from_csr`] does otherwise).
    pub fn new(nrows: usize, ncols: usize, ntiles: usize) -> MaskedBsr3Writer {
        let (nbr, nbc) = block_dims(nrows, ncols);
        let mut row_ptr = Vec::with_capacity(nbr + 1);
        row_ptr.push(0);
        let tiles = Bsr3Matrix {
            nblock_rows: nbr,
            nblock_cols: nbc,
            row_ptr,
            col_idx: Vec::with_capacity(ntiles),
            vals: vec![0.0; 9 * ntiles + TAIL],
        };
        let mask = Vec::with_capacity(ntiles);
        MaskedBsr3Writer {
            m: MaskedBsr3 {
                tiles,
                mask,
                nnz: 0,
            },
        }
    }

    /// Append a tile in block column `bc` to the open block row (block
    /// columns strictly ascending within it), holding the entries
    /// `from[r]..to[r]` of the block row's scalar rows `rows[r]` (columns
    /// and values) — the ranges [`for_each_tile`] hands out.
    ///
    /// # Panics
    /// Past the announced count, if `bc` does not ascend within the block
    /// row, or if a row's columns do not strictly ascend (a repeated or
    /// out-of-order column would otherwise overwrite a slot).
    pub fn push_tile(
        &mut self,
        bc: usize,
        rows: &[(&[usize], &[f64]); 3],
        from: [usize; 3],
        to: [usize; 3],
    ) {
        let t = &mut self.m.tiles;
        let k = t.col_idx.len();
        assert!(9 * k + TAIL < t.vals.len(), "more tiles than announced");
        assert!(bc < t.nblock_cols, "block column {bc} out of range");
        assert!(
            k == t.row_ptr[t.row_ptr.len() - 1] || t.col_idx[k - 1] < bc as u32,
            "block column {bc} does not ascend within its block row"
        );
        let tile = &mut t.vals[9 * k..9 * k + 9];
        let mut mask = 0u16;
        for (r, &(cols, vals)) in rows.iter().enumerate() {
            for q in from[r]..to[r] {
                assert!(
                    q == 0 || cols[q - 1] < cols[q],
                    "row {r} of a block row does not ascend"
                );
                let slot = 3 * (cols[q] % 3) + r;
                tile[slot] = vals[q];
                mask |= 1 << slot;
            }
            self.m.nnz += to[r] - from[r];
        }
        t.col_idx.push(bc as u32);
        self.m.mask.push(mask);
    }

    /// Close the open block row.
    pub fn end_block_row(&mut self) {
        let t = &mut self.m.tiles;
        t.row_ptr.push(t.col_idx.len());
    }

    /// The matrix, once every block row is closed and every announced tile
    /// written.
    pub fn finish(self) -> MaskedBsr3 {
        let t = &self.m.tiles;
        assert_eq!(t.row_ptr.len(), t.nblock_rows + 1, "block rows left open");
        assert_eq!(
            9 * t.col_idx.len() + TAIL,
            t.vals.len(),
            "fewer tiles than announced"
        );
        self.m
    }
}

/// One scalar row of a [`MaskedBsr3`]: see [`MaskedBsr3::row`].
#[derive(Clone, Debug)]
pub struct MaskedRow<'a> {
    /// The block row's tiles: block columns, masks and values.
    cols: &'a [u32],
    masks: &'a [u16],
    vals: &'a [f64],
    /// The row within its block row.
    r: usize,
    /// The next tile to open.
    next: usize,
    /// The open tile's first scalar column and this row's first value
    /// slot in it, and its columns this row has not yet yielded.
    col: usize,
    val: usize,
    bits: u32,
}

impl Iterator for MaskedRow<'_> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        while self.bits == 0 {
            let k = self.next;
            if k == self.cols.len() {
                return None;
            }
            self.bits = row_bits(self.masks[k], self.r);
            (self.col, self.val) = (3 * self.cols[k] as usize, 9 * k + self.r);
            self.next += 1;
        }
        let c = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.col + c, self.vals[self.val + 3 * c]))
    }

    /// The rest of the row tile by tile, a whole tile row without walking
    /// its bits.
    #[inline]
    fn fold<B, F: FnMut(B, (usize, f64)) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        loop {
            if self.bits == 0b111 {
                for c in 0..3 {
                    acc = f(acc, (self.col + c, self.vals[self.val + 3 * c]));
                }
            } else {
                while self.bits != 0 {
                    let c = self.bits.trailing_zeros() as usize;
                    self.bits &= self.bits - 1;
                    acc = f(acc, (self.col + c, self.vals[self.val + 3 * c]));
                }
            }
            let k = self.next;
            if k == self.cols.len() {
                return acc;
            }
            self.bits = row_bits(self.masks[k], self.r);
            (self.col, self.val) = (3 * self.cols[k] as usize, 9 * k + self.r);
            self.next += 1;
        }
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
    fn spmv_matches_csr() {
        let a = block_laplacian(9);
        let b = Bsr3Matrix::from_csr(&a);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y1);
        b.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    /// `x` through the portable body alone (`spmv` takes the host's widest).
    fn portable_product(b: &Bsr3Matrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![f64::NAN; b.nrows()];
        b.product_portable(x, &mut y);
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
    fn set_row_takes_its_stored_count_and_leaves_the_rest_unread() {
        let a = block_laplacian(3);
        let mut b = MaskedBsr3::from_csr(&a);
        // Scalar row 4 (middle block row): three whole tiles.
        let mut vals = (0..20).map(|k| k as f64);
        assert_eq!(b.set_row(4, vals.by_ref()), 9);
        assert_eq!(vals.next(), Some(9.0));
        let row4: Vec<(usize, f64)> = b.row(4).collect();
        assert_eq!(row4, (0..9).map(|j| (j, j as f64)).collect::<Vec<_>>());
        // A short supply rewrites a prefix only.
        assert_eq!(b.set_row(0, [7.0, 8.0]), 2);
        let row0: Vec<f64> = b.row(0).map(|(_, v)| v).collect();
        assert_eq!(row0, [7.0, 8.0, -0.5, -0.25, -0.25, -0.25]);
    }

    #[test]
    fn lower_rows_are_the_rows_up_to_the_diagonal() {
        let mut coo = CooBuilder::new(9, 9);
        for (i, j) in [
            (0, 0),
            (0, 5),
            (1, 0),
            (1, 2),
            (3, 1),
            (3, 3),
            (3, 4),
            (5, 0),
            (5, 4),
            (7, 8),
            (8, 2),
        ] {
            coo.push(i, j, (10 * i + j) as f64);
        }
        let a = coo.build();
        let b = MaskedBsr3::from_csr(&a);
        for i in 0..9 {
            let mut got = Vec::new();
            b.for_each_lower(i, |j, v| got.push((j, v)));
            let want: Vec<(usize, f64)> = b.row(i).filter(|&(j, _)| j <= i).collect();
            assert_eq!(got, want, "row {i}");
        }
    }

    #[test]
    fn masked_diagonal_and_rows_keep_signed_zeros_and_gaps() {
        // Row 0 stores -0.0 on its diagonal, row 1 no diagonal, row 2 a
        // stored +0.0 beside a value; block (1, 0) is one entry of nine.
        let mut coo = CooBuilder::new(6, 6);
        for (i, j, v) in [
            (0, 0, -0.0),
            (0, 4, 1.5),
            (1, 2, 2.0),
            (2, 1, 0.0),
            (2, 2, 3.0),
            (4, 0, -1.0),
        ] {
            coo.push(i, j, v);
        }
        let a = coo.build();
        let b = MaskedBsr3::from_csr(&a);
        assert_eq!((b.nnz(), b.tiles().num_blocks()), (6, 3));
        assert_eq!(bits(&b.diag()), bits(&a.diag()));
        assert_eq!(b.diag()[0].to_bits(), (-0.0f64).to_bits());
        let back = b.to_csr();
        assert_eq!((back.row_ptr(), back.col_idx()), (a.row_ptr(), a.col_idx()));
        assert_eq!(bits(back.vals()), bits(a.vals()));
        assert_eq!(b.memory_bytes(), b.tiles().memory_bytes() + 2 * 3);
    }

    #[test]
    fn refresh_then_spmv_equals_a_fresh_conversion() {
        // Partial tiles (6 rows, 4 of 6 columns stored, no scalar row a
        // whole tile row), refreshed to new values on the same pattern.
        let pattern = [
            (0, 0),
            (0, 3),
            (1, 2),
            (2, 5),
            (3, 0),
            (4, 2),
            (4, 3),
            (5, 5),
        ];
        let with_values = |f: &dyn Fn(usize) -> f64| {
            let mut coo = CooBuilder::new(6, 6);
            for (e, &(i, j)) in pattern.iter().enumerate() {
                coo.push(i, j, f(e));
            }
            coo.build()
        };
        let first = with_values(&|e| 1.0 + e as f64);
        let second = with_values(&|e| -0.3 * (e as f64 + 2.0).sqrt());
        let mut b = MaskedBsr3::from_csr(&first);
        for i in 0..6 {
            let vals = second.row(i).1;
            assert_eq!(b.set_row(i, vals.iter().copied()), vals.len(), "row {i}");
        }
        let fresh = MaskedBsr3::from_csr(&second);
        assert_eq!(b, fresh);
        assert_eq!(b.to_csr(), second);
        let x = [0.9, 7.0, -1.1, 0.4, 7.0, 2.5];
        let (mut y1, mut y2) = (vec![0.0; 6], vec![0.0; 6]);
        b.tiles().spmv(&x, &mut y1);
        fresh.tiles().spmv(&x, &mut y2);
        assert_eq!(bits(&y1), bits(&y2));
        let mut y_csr = vec![0.0; 6];
        second.spmv(&x, &mut y_csr);
        assert_eq!(bits(&y1), bits(&y_csr));
    }

    #[test]
    #[should_panic(expected = "do not fit the u32 block-column index")]
    fn more_than_u32_max_block_columns_are_rejected() {
        let empty = CooBuilder::new(3, 3 * (u32::MAX as usize + 1)).build();
        Bsr3Matrix::from_csr(&empty);
    }

    #[test]
    fn rows_that_do_not_ascend_are_rejected() {
        // `from_parts` does not check column order, so the tiling must:
        // row 1 repeats column 4; row 2 holds column 5 before column 4.
        for (row_ptr, cols, msg) in [
            (
                vec![0, 1, 3, 4],
                vec![0, 4, 4, 2],
                "row 1 of a block row does not ascend",
            ),
            (
                vec![0, 1, 2, 4],
                vec![0, 4, 5, 4],
                "row 2 of a block row does not ascend",
            ),
        ] {
            let a = CsrMatrix::from_parts(3, 6, row_ptr, cols, vec![1.0; 4]);
            let err = std::panic::catch_unwind(|| MaskedBsr3::from_csr(&a)).unwrap_err();
            let text = err.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(text.contains(msg), "{text:?}");
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
        /// `CsrMatrix::spmv` agree bit for bit: rectangular shapes, empty
        /// and one-tile block rows, the last tile against the tail.
        #[test]
        fn prop_every_body_equals_csr_bitwise(
            shape in (1usize..6, 1usize..6),
            tiles in proptest::collection::vec(
                (0usize..6, 0usize..6, 1usize..512,
                 proptest::collection::vec((0usize..6, -4.0f64..4.0), 9)),
                0..14),
            x in proptest::collection::vec((0usize..6, -3.0f64..3.0), 15),
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
