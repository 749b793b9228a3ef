//! Symbolic/numeric split for the Galerkin triple product `R A Rᵀ`, in
//! vertex blocks.
//!
//! [`CsrMatrix::rap`] redoes the full symbolic Gustavson machinery on every
//! call, even though the repeated-solve paths (Newton re-linearization,
//! operator updates after a rediscretization) change only `A`'s *values*,
//! never its *pattern*. A [`RapPlan`] runs the symbolic phase once and
//! re-executes numerically.
//!
//! Every restriction the hierarchy builds is `R = R_v ⊗ I_B`: one scalar
//! weight per coarse/fine *vertex* pair, applied to each of the `B` unknowns
//! of a vertex. The whole product therefore factors through the vertex
//! graph, and the plan works there: `A` is viewed as `B×B` tiles (one per
//! vertex pair, zero-padded where a tile is not fully stored — Dirichlet
//! rows keep only their diagonal), and both product stages are lists of
//! *tile* contributions
//!
//! ```text
//! stage 1:  RA[c,l] = Σ_k  R_v[c,k] · A[k,l]      (k ascending)
//! stage 2:  C[c,d]  = Σ_l  RA[c,l]  · R_v[d,l]    (l ascending)
//! ```
//!
//! with one `(weight, source tile)` pair per contribution — a ninth of the
//! scalar multiply count at `B = 3`. One implementation, generic over the
//! block size, serves both `B = 3` (chosen when `R` itself shows the
//! `R_v ⊗ I₃` structure) and `B = 1` (any other `R`); there is no selector.
//!
//! **Symbolic phase** (per coarse vertex row, shared by [`RapPlan::new`]
//! and [`rap_local_rows`]): a marker array discovers the row's output tiles
//! and counts their contributions, the distinct output columns are sorted,
//! and a second pass drops every contribution at its exact slot. No
//! comparison sort ever touches the contributions, and they land per output
//! tile in the order the sums above state — ascending fine vertex. That
//! order is part of the contract: it is what makes the planned product, the
//! sharded row kernel, and every thread count agree bitwise.
//!
//! **Numeric phase**: `A.vals` is scattered into its tiles through a
//! per-stored-entry slot map, then each coarse vertex row runs
//! `tile[t] += w · tile[src]` over contiguous `B²`-wide tiles (stage 1 into
//! a row-local scratch that stage 2 reads back), and the row's tiles are
//! emitted through per-tile structural masks — the OR of the contributing
//! tiles' masks — so the output is exactly the scalar CSR pattern of
//! `R A Rᵀ`, never a padded one. Rows are independent tasks; bits do not
//! depend on `PMG_THREADS`.
//!
//! The flop charge is the structural *scalar* multiply-add count (taken from
//! the masks at plan time), so machine-model columns stay comparable with
//! the unblocked product.
//!
//! Telemetry: building a plan counts `rap/plan_build` (and
//! `rap/block_plans` when it took `B = 3`), each numeric re-execution
//! counts `rap/plan_reuse` — the reuse the paper's nonlinear runs (Fig. 13)
//! depend on is thereby observable and testable.

use crate::csr::CsrMatrix;
use crate::flops;
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;

/// Translated block column of an `A` tile whose `Rᵀ` row is not held.
const ABSENT: u32 = u32::MAX;

/// Block view of a set of `A` rows: `B` consecutive scalar rows form a
/// block row, scalar column `j` falls in block column `j / B`.
struct BlockRows {
    /// Block row `i`'s tiles are `row_ptr[i]..row_ptr[i + 1]`.
    row_ptr: Vec<u32>,
    /// Block column of each tile, ascending per block row — as a position
    /// in the caller's id list when one was given ([`ABSENT`] if missing).
    cols: Vec<u32>,
    /// Which of the tile's `B×B` entries are stored (bit `a*B + b`).
    masks: Vec<u16>,
    /// Stored entry `q` of `A` is slot `slots[q]` of the flat tile array.
    /// Empty for `B = 1`, where tiles are the stored entries themselves.
    slots: Vec<u32>,
}

impl BlockRows {
    /// Merge each block row's `B` sorted scalar rows into its tile list.
    fn new<const B: usize>(a: &CsrMatrix, col_ids: Option<&[u32]>) -> BlockRows {
        assert_eq!(a.nrows() % B, 0, "A rows must come in runs of {B}");
        let (rp, ci) = (a.row_ptr(), a.col_idx());
        let nb = a.nrows() / B;
        let mut row_ptr = Vec::with_capacity(nb + 1);
        row_ptr.push(0u32);
        let mut cols = Vec::with_capacity(a.nnz() / (B * B));
        let mut masks = Vec::with_capacity(a.nnz() / (B * B));
        let mut slots = vec![0u32; if B == 1 { 0 } else { a.nnz() }];
        let mut at = [0usize; B];
        for i in 0..nb {
            at.copy_from_slice(&rp[i * B..(i + 1) * B]);
            loop {
                let mut j = usize::MAX;
                for s in 0..B {
                    if at[s] < rp[i * B + s + 1] {
                        j = j.min(ci[at[s]] / B);
                    }
                }
                if j == usize::MAX {
                    break;
                }
                let tile = cols.len();
                let mut mask = 0u16;
                for s in 0..B {
                    while at[s] < rp[i * B + s + 1] && ci[at[s]] / B == j {
                        let slot = s * B + ci[at[s]] % B;
                        mask |= 1 << slot;
                        if B > 1 {
                            slots[at[s]] = (tile * B * B + slot) as u32;
                        }
                        at[s] += 1;
                    }
                }
                cols.push(match col_ids {
                    None => j as u32,
                    Some(ids) => ids.binary_search(&(j as u32)).map_or(ABSENT, |p| p as u32),
                });
                masks.push(mask);
            }
            row_ptr.push(cols.len() as u32);
        }
        assert!(
            cols.len() * B * B < u32::MAX as usize,
            "RapPlan: A has too many tiles for 32-bit slots"
        );
        BlockRows {
            row_ptr,
            cols,
            masks,
            slots,
        }
    }
}

/// `A.vals` as the flat zero-padded tile array the stage-1 gather reads.
fn scatter_tiles<'a>(slots: &[u32], tiles_len: usize, a_vals: &'a [f64]) -> Cow<'a, [f64]> {
    if slots.is_empty() {
        return Cow::Borrowed(a_vals);
    }
    let mut tiles = vec![0.0; tiles_len];
    for (&s, &v) in slots.iter().zip(a_vals) {
        tiles[s as usize] = v;
    }
    Cow::Owned(tiles)
}

/// One tile contribution as the symbolic phase enumerates it: `weight`
/// times source tile `src` (whose stored entries are `mask`) goes to the
/// output tile in block column `col`.
struct Contrib {
    col: u32,
    weight: f64,
    src: u32,
    mask: u16,
}

/// Per-output-column accumulator state of the row kernel.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Stamp of the row that last touched this column.
    seen: u32,
    /// Contribution count, then fill cursor, of the row's tile here.
    cursor: u32,
    /// OR of the contributing source masks.
    mask: u16,
}

/// Marker array over an output column space, reused row after row.
struct Marker {
    stamp: u32,
    slots: Vec<Slot>,
}

impl Marker {
    fn new(ncols: usize) -> Marker {
        Marker {
            stamp: 0,
            slots: vec![Slot::default(); ncols],
        }
    }
}

/// One product stage in tile form: output tiles (row after row, columns
/// ascending within a row) and their contribution lists.
struct Stage {
    /// Block column of each output tile.
    cols: Vec<u32>,
    /// Structural mask of each output tile.
    masks: Vec<u16>,
    /// Output tile `t`'s contributions are `offsets[t]..offsets[t + 1]`.
    offsets: Vec<u32>,
    /// Fixed multiplier of each contribution (an `R_v` entry).
    weight: Vec<f64>,
    /// Source tile of each contribution.
    src: Vec<u32>,
    /// Scalar multiply-adds the contributions stand for.
    scalar_madds: u64,
}

impl Stage {
    fn new() -> Stage {
        Stage {
            cols: Vec::new(),
            masks: Vec::new(),
            offsets: vec![0],
            weight: Vec::new(),
            src: Vec::new(),
            scalar_madds: 0,
        }
    }

    /// Forget the rows pushed so far (the flop tally keeps running).
    fn clear(&mut self) {
        self.cols.clear();
        self.masks.clear();
        self.offsets.truncate(1);
        self.weight.clear();
        self.src.clear();
    }

    /// Symbolic row kernel: append one block row whose contributions
    /// `each()` enumerates (twice, in the same order). Contributions to
    /// one output tile keep their enumeration order.
    fn push_row<I: Iterator<Item = Contrib>>(&mut self, marker: &mut Marker, each: impl Fn() -> I) {
        marker.stamp += 1;
        let stamp = marker.stamp;
        let first = self.cols.len();
        // `for_each`, not `for`: the enumerators are nested `flat_map`s,
        // which only internal iteration compiles to plain nested loops.
        each().for_each(|c| {
            let s = &mut marker.slots[c.col as usize];
            if s.seen != stamp {
                *s = Slot {
                    seen: stamp,
                    cursor: 0,
                    mask: 0,
                };
                self.cols.push(c.col);
            }
            s.cursor += 1;
            s.mask |= c.mask;
        });
        self.cols[first..].sort_unstable();
        let mut end = self.weight.len();
        for &col in &self.cols[first..] {
            let s = &mut marker.slots[col as usize];
            let n = s.cursor as usize;
            s.cursor = end as u32;
            end += n;
            self.offsets.push(end as u32);
            self.masks.push(s.mask);
        }
        assert!(
            end < u32::MAX as usize,
            "RapPlan: too many contributions for 32-bit offsets"
        );
        self.weight.resize(end, 0.0);
        self.src.resize(end, 0);
        each().for_each(|c| {
            let s = &mut marker.slots[c.col as usize];
            self.weight[s.cursor as usize] = c.weight;
            self.src[s.cursor as usize] = c.src;
            s.cursor += 1;
            self.scalar_madds += c.mask.count_ones() as u64;
        });
    }

    /// Numeric row kernel: `out` tile by tile over `tiles`, each the sum of
    /// its contributions in stored order.
    fn accumulate<const BB: usize>(&self, tiles: Range<usize>, src: &[f64], out: &mut [f64]) {
        for (t, tile) in tiles.zip(out.chunks_exact_mut(BB)) {
            let list = self.offsets[t] as usize..self.offsets[t + 1] as usize;
            let mut acc = [0.0f64; BB];
            for (&w, &s) in self.weight[list.clone()].iter().zip(&self.src[list]) {
                let from = &src[s as usize * BB..][..BB];
                for x in 0..BB {
                    acc[x] += w * from[x];
                }
            }
            tile.copy_from_slice(&acc);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.cols.capacity() * 4
            + self.masks.capacity() * 2
            + self.offsets.capacity() * 4
            + self.weight.capacity() * 8
            + self.src.capacity() * 4
    }
}

/// Stage-1 symbolics of one coarse vertex: its `R_v` row's entries in
/// stored (ascending) order — entry `j` with weight `ws[j]` standing on
/// block row `block_rows[j]` of `a` — each against that block row's tiles
/// in stored order.
fn stage1_row(
    stage: &mut Stage,
    marker: &mut Marker,
    block_rows: impl Iterator<Item = usize> + Clone,
    ws: &[f64],
    a: &BlockRows,
) {
    stage.push_row(marker, || {
        block_rows.clone().zip(ws).flat_map(move |(k, &weight)| {
            (a.row_ptr[k] as usize..a.row_ptr[k + 1] as usize).map(move |p| {
                assert!(
                    a.cols[p] != ABSENT,
                    "rap_local_rows: an Rᵀ row the product reaches is not held locally"
                );
                Contrib {
                    col: a.cols[p],
                    weight,
                    src: p as u32,
                    mask: a.masks[p],
                }
            })
        })
    });
}

/// Stage-2 symbolics of one coarse vertex: its `RA` tiles ascending, each
/// against that fine vertex's `R_vᵀ` row in stored order; sources are
/// row-relative `RA` tile numbers.
fn stage2_row(
    stage: &mut Stage,
    marker: &mut Marker,
    ra_cols: &[u32],
    ra_masks: &[u16],
    rt: &CsrMatrix,
) {
    stage.push_row(marker, || {
        let ra = ra_cols.iter().zip(ra_masks).enumerate();
        ra.flat_map(move |(t, (&l, &mask))| {
            let (ds, ws) = rt.row(l as usize);
            ds.iter().zip(ws).map(move |(&d, &weight)| Contrib {
                col: d as u32,
                weight,
                src: t as u32,
                mask,
            })
        })
    });
}

/// Stored entries of each of the `B` scalar rows a run of tiles spans.
fn scalar_row_lens<const B: usize>(masks: &[u16]) -> [usize; B] {
    let mut lens = [0usize; B];
    for &m in masks {
        for a in 0..B {
            lens[a] += (m >> (a * B) & ((1 << B) - 1)).count_ones() as usize;
        }
    }
    lens
}

/// Emit one block row's tiles as its `B` scalar CSR rows, keeping exactly
/// the entries the masks mark.
fn emit_row<const B: usize, const BB: usize>(
    cols: &[u32],
    masks: &[u16],
    tiles: &[f64],
    out_cols: &mut [usize],
    out_vals: &mut [f64],
) {
    let mut q = 0;
    for a in 0..B {
        for ((&col, &mask), tile) in cols.iter().zip(masks).zip(tiles.chunks_exact(BB)) {
            for b in 0..B {
                if mask >> (a * B + b) & 1 != 0 {
                    out_cols[q] = col as usize * B + b;
                    out_vals[q] = tile[a * B + b];
                    q += 1;
                }
            }
        }
    }
    debug_assert_eq!(q, out_vals.len());
}

/// `R_v` if `r = R_v ⊗ I₃` (every row triple repeats one weight row on the
/// three dof diagonals), bit for bit.
fn vertex_restriction(r: &CsrMatrix) -> Option<CsrMatrix> {
    const B: usize = 3;
    if !r.nrows().is_multiple_of(B) || !r.ncols().is_multiple_of(B) {
        return None;
    }
    let nc = r.nrows() / B;
    let mut row_ptr = Vec::with_capacity(nc + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(r.nnz() / B);
    let mut vals = Vec::with_capacity(r.nnz() / B);
    for c in 0..nc {
        let (k0, w0) = r.row(c * B);
        for d in 0..B {
            let (kd, wd) = r.row(c * B + d);
            let repeats = kd.len() == k0.len()
                && kd
                    .iter()
                    .zip(k0)
                    .all(|(&k, &base)| base % B == 0 && k == base + d)
                && wd
                    .iter()
                    .zip(w0)
                    .all(|(w, base)| w.to_bits() == base.to_bits());
            if !repeats {
                return None;
            }
        }
        col_idx.extend(k0.iter().map(|&k| k / B));
        vals.extend_from_slice(w0);
        row_ptr.push(col_idx.len());
    }
    Some(CsrMatrix::from_parts(
        nc,
        r.ncols() / B,
        row_ptr,
        col_idx,
        vals,
    ))
}

/// Identity of a CSR sparsity pattern: the row count, the stored-entry
/// count, and an FNV-1a hash of the full `(row lengths, column indices)`
/// structure — explicitly *not* of the values. The key the symbolic caches
/// ([`RapPlan`], the block-Jacobi smoother's block plan) hold to detect
/// pattern drift between numeric re-executions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternFingerprint {
    rows: usize,
    nnz: usize,
    hash: u64,
}

impl PatternFingerprint {
    /// Fingerprint `a`'s pattern.
    pub fn of(a: &CsrMatrix) -> PatternFingerprint {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |x: usize| {
            h ^= x as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        eat(a.nrows());
        eat(a.ncols());
        for i in 0..a.nrows() {
            let (cols, _) = a.row(i);
            eat(cols.len());
            for &j in cols {
                eat(j);
            }
        }
        PatternFingerprint {
            rows: a.nrows(),
            nnz: a.nnz(),
            hash: h,
        }
    }

    /// Whether `a` has exactly the fingerprinted pattern (the cheap shape
    /// comparison runs first; the hash only when it passes).
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        a.nrows() == self.rows && a.nnz() == self.nnz && *self == PatternFingerprint::of(a)
    }
}

/// A reusable execution plan for the Galerkin triple product
/// `A_c = R A Rᵀ` with `R` frozen and `A`'s sparsity pattern fixed.
///
/// The plan holds, per product stage, one `(weight, source tile)` pair per
/// *tile* contribution, the slot map from `A`'s stored entries into its
/// zero-padded tiles, and the output's structural tile masks — see the
/// [module docs](self) for the layout and the defined summation order
/// (ascending fine vertex within every output entry).
///
/// # Invalidation invariant
///
/// A plan is valid **only** for operators whose sparsity pattern is
/// identical to the `A` it was built from; the values may change freely.
/// Validity is checked by [`RapPlan::matches`], which compares the row
/// count, the stored-nonzero count, and an FNV-1a fingerprint of the full
/// `(row lengths, column indices)` structure — explicitly *not* of the
/// values, so Newton re-linearizations on a fixed mesh always reuse the
/// plan. Anything that changes the pattern — remeshing, a different
/// drop-tolerance, a new restriction `R` — must rebuild the plan.
/// [`RapPlan::try_execute`] checks once and declines a non-matching
/// operator (`MgHierarchy::update_operator` rebuilds transparently on
/// `None`); [`RapPlan::execute`] panics instead of scattering values
/// through stale slots.
///
/// ```
/// use pmg_sparse::{CooBuilder, RapPlan};
/// let mut b = CooBuilder::new(2, 2);
/// b.push(0, 0, 2.0);
/// b.push(0, 1, -1.0);
/// b.push(1, 1, 3.0);
/// let a = b.build();
/// let mut rb = CooBuilder::new(1, 2);
/// rb.push(0, 0, 1.0);
/// rb.push(0, 1, 0.5);
/// let r = rb.build();
/// let mut plan = RapPlan::new(&a, &r);
/// let ac = plan.execute(&a);
/// assert!((ac.get(0, 0) - a.rap(&r).get(0, 0)).abs() < 1e-14);
/// ```
pub struct RapPlan {
    /// Pattern of the `A` the plan was built for.
    a_pattern: PatternFingerprint,
    /// Unknowns per vertex the plan runs in: 3 when `R = R_v ⊗ I₃`, else 1.
    block: usize,
    /// Slot of each stored `A` entry in the flat tile array.
    a_slots: Vec<u32>,
    /// Length of the flat `A` tile array.
    a_tiles_len: usize,
    /// Coarse vertex `c`'s `RA` tiles are `rows1[c]..rows1[c + 1]`.
    rows1: Vec<u32>,
    stage1: Stage,
    /// Coarse vertex `c`'s output tiles are `rows2[c]..rows2[c + 1]`.
    rows2: Vec<u32>,
    stage2: Stage,
    /// Scalar row pointer of the output.
    c_row_ptr: Vec<usize>,
}

impl RapPlan {
    /// Symbolic phase: fix the tile contribution lists and the output
    /// pattern of `R A Rᵀ` from `A`'s pattern (values are ignored) and
    /// `R`. Runs in 3×3 vertex blocks when `R` is `R_v ⊗ I₃` — what
    /// `expand_restriction` produces for elasticity — and in scalars
    /// otherwise; the output is the same scalar CSR matrix either way.
    pub fn new(a: &CsrMatrix, r: &CsrMatrix) -> RapPlan {
        assert_eq!(a.nrows(), a.ncols(), "A must be square");
        assert_eq!(r.ncols(), a.nrows(), "R columns must match A");
        pmg_telemetry::counter_add("rap/plan_build", 1);
        match vertex_restriction(r) {
            Some(r_v) => {
                pmg_telemetry::counter_add("rap/block_plans", 1);
                Self::build::<3>(a, &r_v)
            }
            None => Self::build::<1>(a, r),
        }
    }

    fn build<const B: usize>(a: &CsrMatrix, r_v: &CsrMatrix) -> RapPlan {
        let nc = r_v.nrows();
        let ab = BlockRows::new::<B>(a, None);
        let rt_v = r_v.transpose();
        let mut marker = Marker::new(r_v.ncols().max(nc));
        let tiles_of = |k: usize| (ab.row_ptr[k + 1] - ab.row_ptr[k]) as usize;

        // The contribution arrays are sized exactly up front; the (far
        // smaller) per-tile arrays are trimmed once the stage is complete.
        let mut stage1 = Stage::new();
        let contribs: usize = r_v.col_idx().iter().map(|&k| tiles_of(k)).sum();
        stage1.weight.reserve_exact(contribs);
        stage1.src.reserve_exact(contribs);
        let mut rows1 = Vec::with_capacity(nc + 1);
        rows1.push(0u32);
        for c in 0..nc {
            let (ks, ws) = r_v.row(c);
            stage1_row(&mut stage1, &mut marker, ks.iter().copied(), ws, &ab);
            rows1.push(stage1.cols.len() as u32);
        }

        let mut stage2 = Stage::new();
        let rt_len = |l: u32| rt_v.row_ptr()[l as usize + 1] - rt_v.row_ptr()[l as usize];
        let contribs: usize = stage1.cols.iter().map(|&l| rt_len(l)).sum();
        stage2.weight.reserve_exact(contribs);
        stage2.src.reserve_exact(contribs);
        let mut rows2 = Vec::with_capacity(nc + 1);
        rows2.push(0u32);
        let mut c_row_ptr = Vec::with_capacity(nc * B + 1);
        c_row_ptr.push(0usize);
        for c in 0..nc {
            let ra = rows1[c] as usize..rows1[c + 1] as usize;
            stage2_row(
                &mut stage2,
                &mut marker,
                &stage1.cols[ra.clone()],
                &stage1.masks[ra],
                &rt_v,
            );
            let first = rows2[c] as usize;
            rows2.push(stage2.cols.len() as u32);
            for len in scalar_row_lens::<B>(&stage2.masks[first..]) {
                c_row_ptr.push(c_row_ptr[c_row_ptr.len() - 1] + len);
            }
        }

        // Stage 1's columns and masks only fed stage 2.
        stage1.cols = Vec::new();
        stage1.masks = Vec::new();
        stage1.offsets.shrink_to_fit();
        stage2.cols.shrink_to_fit();
        stage2.masks.shrink_to_fit();
        stage2.offsets.shrink_to_fit();
        RapPlan {
            a_pattern: PatternFingerprint::of(a),
            block: B,
            a_slots: ab.slots,
            a_tiles_len: ab.cols.len() * B * B,
            rows1,
            stage1,
            rows2,
            stage2,
            c_row_ptr,
        }
    }

    /// Whether `a` has the exact sparsity pattern this plan was built for.
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        self.a_pattern.matches(a)
    }

    /// Unknowns per vertex the plan works in: 3 if the restriction it was
    /// built from is `R_v ⊗ I₃`, else 1.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Heap bytes the plan holds between executions.
    pub fn memory_bytes(&self) -> usize {
        self.a_slots.capacity() * 4
            + (self.rows1.capacity() + self.rows2.capacity()) * 4
            + self.stage1.memory_bytes()
            + self.stage2.memory_bytes()
            + self.c_row_ptr.capacity() * std::mem::size_of::<usize>()
    }

    /// Numeric phase: compute `R A Rᵀ` for a new `A` with the planned
    /// pattern. Panics if the pattern changed — callers that cannot
    /// guarantee stability should use [`RapPlan::try_execute`] and rebuild.
    pub fn execute(&mut self, a: &CsrMatrix) -> CsrMatrix {
        self.try_execute(a).expect(
            "RapPlan::execute: A's sparsity pattern changed since the plan \
             was built (rebuild with RapPlan::new)",
        )
    }

    /// [`execute`](Self::execute) behind its one pattern check: `None`
    /// (and nothing computed) if `a` does not have the planned pattern.
    pub fn try_execute(&mut self, a: &CsrMatrix) -> Option<CsrMatrix> {
        if !self.matches(a) {
            return None;
        }
        pmg_telemetry::counter_add("rap/plan_reuse", 1);
        Some(match self.block {
            3 => self.run::<3, 9>(a),
            _ => self.run::<1, 1>(a),
        })
    }

    fn run<const B: usize, const BB: usize>(&self, a: &CsrMatrix) -> CsrMatrix {
        let a_tiles = scatter_tiles(&self.a_slots, self.a_tiles_len, a.vals());
        let nc = self.rows2.len() - 1;
        let nnz = self.c_row_ptr[nc * B];
        let mut col_idx = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];

        // One task per coarse vertex, each owning its B scalar output rows.
        let mut outs = Vec::with_capacity(nc);
        let (mut rest_cols, mut rest_vals) = (&mut col_idx[..], &mut vals[..]);
        for c in 0..nc {
            let len = self.c_row_ptr[(c + 1) * B] - self.c_row_ptr[c * B];
            let (cols, tail) = std::mem::take(&mut rest_cols).split_at_mut(len);
            rest_cols = tail;
            let (vals, tail) = std::mem::take(&mut rest_vals).split_at_mut(len);
            rest_vals = tail;
            outs.push((cols, vals));
        }
        // A run of coarse vertices per task shares one pair of tile
        // buffers (every tile is overwritten before it is read).
        const RUN: usize = 32;
        outs.par_chunks_mut(RUN).enumerate().for_each(|(k, run)| {
            let (mut ra_tiles, mut c_tiles) = (Vec::new(), Vec::new());
            for (c, (out_cols, out_vals)) in (k * RUN..).zip(run) {
                let ra = self.rows1[c] as usize..self.rows1[c + 1] as usize;
                let out = self.rows2[c] as usize..self.rows2[c + 1] as usize;
                ra_tiles.resize(ra.len() * BB, 0.0);
                self.stage1.accumulate::<BB>(ra, &a_tiles, &mut ra_tiles);
                c_tiles.resize(out.len() * BB, 0.0);
                self.stage2
                    .accumulate::<BB>(out.clone(), &ra_tiles, &mut c_tiles);
                emit_row::<B, BB>(
                    &self.stage2.cols[out.clone()],
                    &self.stage2.masks[out],
                    &c_tiles,
                    out_cols,
                    out_vals,
                );
            }
        });
        flops::add(2 * (self.stage1.scalar_madds + self.stage2.scalar_madds));
        CsrMatrix::from_parts(nc * B, nc * B, self.c_row_ptr.clone(), col_idx, vals)
    }
}

/// Owned Galerkin rows from purely **local** row sets — the kernel of the
/// sharded setup path, where no rank ever holds the full `A` or `R`.
///
/// The restriction comes at vertex level (`R = R_v ⊗ I_dofs` is never
/// formed), the operator at dof level, all with *global* column ids:
///
/// * `r_rows` — the owned coarse-vertex rows of `R_v` (one local row per
///   owned coarse vertex, in owned order; `ncols` = global fine vertices).
/// * `a_ids` / `a_rows` — the fine vertices whose operator rows this rank
///   holds (owned plus fetched), ids strictly ascending, `dofs` consecutive
///   CSR rows per id (`ncols` = global fine dofs). Every fine vertex of
///   `r_rows` must appear in `a_ids`.
/// * `rt_ids` / `rt_rows` — rows of the **full** transpose `R_vᵀ` (each
///   carrying every coarse vertex touching that fine vertex, ascending —
///   not just this rank's), ids strictly ascending. Every fine vertex of
///   the held `A` rows reachable from `r_rows` must appear; a superset is
///   fine, unused rows are ignored.
///
/// Returns the owned coarse dof rows of `R·A·Rᵀ` (`dofs` per owned coarse
/// vertex; `ncols` = global coarse dofs).
///
/// # Bitwise contract
///
/// Each output row runs the row kernels of [`RapPlan`] on the local row
/// sets — the same symbolic enumeration (`R_v` row entries ascending × `A`
/// tiles in stored order, then `RA` tiles ascending × `R_vᵀ` row entries in
/// stored order; positions in the ascending id lists stand in for global
/// ids, which preserves every order) and the same tile accumulation. The
/// output values are therefore **bitwise identical** to the corresponding
/// rows of the full planned product; the partition tests and the
/// ownership-map proptests below pin this.
pub fn rap_local_rows(
    dofs: usize,
    r_rows: &CsrMatrix,
    a_ids: &[u32],
    a_rows: &CsrMatrix,
    rt_ids: &[u32],
    rt_rows: &CsrMatrix,
) -> CsrMatrix {
    assert_eq!(a_rows.nrows(), a_ids.len() * dofs, "dofs A rows per id");
    assert_eq!(rt_rows.nrows(), rt_ids.len(), "one Rᵀ row per id");
    assert_eq!(
        r_rows.ncols() * dofs,
        a_rows.ncols(),
        "R columns must match A"
    );
    debug_assert!(a_ids.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(rt_ids.windows(2).all(|w| w[0] < w[1]));
    pmg_telemetry::counter_add("rap/local_rows", (r_rows.nrows() * dofs) as u64);
    match dofs {
        3 => local_rows::<3, 9>(r_rows, a_ids, a_rows, rt_ids, rt_rows),
        1 => local_rows::<1, 1>(r_rows, a_ids, a_rows, rt_ids, rt_rows),
        // Any other block size runs in scalars on the expanded restriction.
        _ => local_rows::<1, 1>(
            &r_rows.kron_identity(dofs),
            &dof_ids(a_ids, dofs),
            a_rows,
            &dof_ids(rt_ids, dofs),
            &rt_rows.kron_identity(dofs),
        ),
    }
}

/// The `dofs` dof ids of each vertex id, in order.
fn dof_ids(vertices: &[u32], dofs: usize) -> Vec<u32> {
    let d = dofs as u32;
    let ids = vertices.iter();
    ids.flat_map(|&v| (0..d).map(move |c| v * d + c)).collect()
}

fn local_rows<const B: usize, const BB: usize>(
    r_rows: &CsrMatrix,
    a_ids: &[u32],
    a_rows: &CsrMatrix,
    rt_ids: &[u32],
    rt_rows: &CsrMatrix,
) -> CsrMatrix {
    let nl = r_rows.nrows();
    let mut marker = Marker::new(rt_ids.len().max(rt_rows.ncols()));
    let mut row_ptr = Vec::with_capacity(nl * B + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<usize> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    // Per-row scratch, cleared between rows.
    let mut held: Vec<u32> = Vec::new();
    let (mut stage1, mut stage2) = (Stage::new(), Stage::new());
    let (mut ra_tiles, mut c_tiles) = (Vec::new(), Vec::new());
    for c in 0..nl {
        // Tile only the A rows under this coarse vertex (a handful), so
        // nothing the size of the rank's operator share is ever built. Tile
        // columns become positions in `rt_ids`: the marker and the stage-2
        // row lookups then run over the local support only.
        let (ks, ws) = r_rows.row(c);
        held.clear();
        for &k in ks {
            let at = a_ids.binary_search(&(k as u32)).unwrap_or_else(|_| {
                panic!("rap_local_rows: A rows of vertex {k} not held locally")
            });
            held.extend((at * B..(at + 1) * B).map(|row| row as u32));
        }
        let under = a_rows.extract_rows(&held);
        let ab = BlockRows::new::<B>(&under, Some(rt_ids));
        let a_tiles = scatter_tiles(&ab.slots, ab.cols.len() * BB, under.vals());

        stage1.clear();
        stage1_row(&mut stage1, &mut marker, 0..ks.len(), ws, &ab);
        ra_tiles.clear();
        ra_tiles.resize(stage1.cols.len() * BB, 0.0);
        stage1.accumulate::<BB>(0..stage1.cols.len(), &a_tiles, &mut ra_tiles);

        stage2.clear();
        stage2_row(
            &mut stage2,
            &mut marker,
            &stage1.cols,
            &stage1.masks,
            rt_rows,
        );
        c_tiles.clear();
        c_tiles.resize(stage2.cols.len() * BB, 0.0);
        stage2.accumulate::<BB>(0..stage2.cols.len(), &ra_tiles, &mut c_tiles);

        let first = col_idx.len();
        for len in scalar_row_lens::<B>(&stage2.masks) {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + len);
        }
        col_idx.resize(row_ptr[row_ptr.len() - 1], 0);
        vals.resize(col_idx.len(), 0.0);
        emit_row::<B, BB>(
            &stage2.cols,
            &stage2.masks,
            &c_tiles,
            &mut col_idx[first..],
            &mut vals[first..],
        );
    }
    flops::add(2 * (stage1.scalar_madds + stage2.scalar_madds));
    CsrMatrix::from_parts(nl * B, rt_rows.ncols() * B, row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_sym(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0 + rng.gen_range(0.0..1.0));
            for _ in 0..per_row {
                let j = rng.gen_range(0..n);
                let v = rng.gen_range(-1.0..1.0);
                b.push(i, j, v);
                b.push(j, i, v);
            }
        }
        b.build()
    }

    fn random_restriction(nc: usize, nf: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = CooBuilder::new(nc, nf);
        for c in 0..nc {
            b.push(c, c * nf / nc, 1.0);
            for _ in 0..3 {
                b.push(c, rng.gen_range(0..nf), rng.gen_range(0.0..1.0));
            }
        }
        b.build()
    }

    /// A 3-dof operator over `nv` vertices whose tiles are *not* complete:
    /// neighbour tiles keep a random subset of their nine entries, every
    /// fifth dof is a Dirichlet row (diagonal only), and vertex 1's rows
    /// are empty.
    fn random_elastic(nv: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = CooBuilder::new(nv * 3, nv * 3);
        for v in 0..nv {
            if v == 1 {
                continue;
            }
            let mut nbrs = vec![v];
            nbrs.extend((0..3).map(|_| rng.gen_range(0..nv)));
            for a in 0..3 {
                let i = v * 3 + a;
                if i % 5 == 0 {
                    b.push(i, i, 1.0);
                    continue;
                }
                b.push(i, i, 6.0);
                for &w in &nbrs {
                    for c in 0..3 {
                        if rng.gen_range(0..4) != 0 {
                            b.push(i, w * 3 + c, rng.gen_range(-1.0..1.0));
                        }
                    }
                }
            }
        }
        b.build()
    }

    fn assert_matches_oracle(planned: &CsrMatrix, a: &CsrMatrix, r: &CsrMatrix) {
        let reference = a.rap(r);
        assert_eq!(planned.nrows(), reference.nrows());
        assert_eq!(planned.ncols(), reference.ncols());
        assert_eq!(planned.row_ptr(), reference.row_ptr());
        assert_eq!(planned.col_idx(), reference.col_idx());
        for ((i, j, v1), (_, _, v2)) in planned.iter().zip(reference.iter()) {
            assert!((v1 - v2).abs() < 1e-12, "({i},{j}): {v1} vs {v2}");
        }
    }

    #[test]
    fn plan_matches_unplanned_rap() {
        let a = random_sym(60, 4, 7);
        let r = random_restriction(20, 60, 8);
        let mut plan = RapPlan::new(&a, &r);
        assert_eq!(plan.block_size(), 1);
        assert_matches_oracle(&plan.execute(&a), &a, &r);
    }

    #[test]
    fn block_plan_matches_unplanned_rap_on_incomplete_tiles() {
        let a = random_elastic(20, 3);
        // Coarse vertex 6 has no support at all.
        let mut rb = CooBuilder::new(7, 20);
        for (c, f, w) in random_restriction(6, 20, 4).iter() {
            rb.push(c, f, w);
        }
        let r = rb.build().kron_identity(3);
        let mut plan = RapPlan::new(&a, &r);
        assert_eq!(plan.block_size(), 3);
        let planned = plan.execute(&a);
        assert_matches_oracle(&planned, &a, &r);
        assert_eq!(planned.row(18).0.len(), 0);
    }

    #[test]
    fn non_kronecker_restriction_runs_scalar() {
        // Dimensions divisible by 3 are not enough: one weight off the
        // `w ⊗ I₃` pattern, or one column off its dof diagonal, and the
        // plan must fall back to scalars — and still be right.
        let a = random_elastic(12, 5);
        let r = random_restriction(4, 12, 6).kron_identity(3);
        assert_eq!(RapPlan::new(&a, &r).block_size(), 3);

        let mut skewed = r.clone();
        skewed.row_vals_mut(4)[0] += 0.125;
        let mut shifted = CooBuilder::new(r.nrows(), r.ncols());
        for (i, j, v) in r.iter() {
            shifted.push(i, if i == 2 { j - 2 } else { j }, v);
        }
        for r in [skewed, shifted.build()] {
            let mut plan = RapPlan::new(&a, &r);
            assert_eq!(plan.block_size(), 1);
            assert_matches_oracle(&plan.execute(&a), &a, &r);
        }
    }

    #[test]
    fn reexecution_tracks_new_values() {
        for (a, r) in [
            (random_sym(40, 3, 11), random_restriction(13, 40, 12)),
            (
                random_elastic(14, 11),
                random_restriction(5, 14, 12).kron_identity(3),
            ),
        ] {
            let mut plan = RapPlan::new(&a, &r);
            let _ = plan.execute(&a);
            // Same pattern, new values.
            let mut a2 = a.clone();
            a2.scale(std::f64::consts::PI);
            assert!(plan.matches(&a2));
            assert_matches_oracle(&plan.execute(&a2), &a2, &r);
        }
    }

    #[test]
    fn pattern_change_detected() {
        let a = random_sym(30, 3, 21);
        let r = random_restriction(10, 30, 22);
        let mut plan = RapPlan::new(&a, &r);
        // Different pattern: extra entry.
        let mut b = CooBuilder::new(30, 30);
        for (i, j, v) in a.iter() {
            b.push(i, j, v);
        }
        b.push(0, 29, 1e-9);
        b.push(29, 0, 1e-9);
        let a2 = b.build();
        assert!(!plan.matches(&a2));
        assert!(plan.try_execute(&a2).is_none());
        assert!(plan.try_execute(&a).is_some());
    }

    #[test]
    #[should_panic(expected = "sparsity pattern changed")]
    fn execute_panics_on_a_foreign_pattern() {
        let a = random_sym(30, 3, 21);
        let mut plan = RapPlan::new(&a, &random_restriction(10, 30, 22));
        plan.execute(&random_sym(30, 3, 23));
    }

    #[test]
    fn identity_restriction_reproduces_a() {
        let a = random_sym(25, 3, 31);
        let r = CsrMatrix::identity(25);
        let mut plan = RapPlan::new(&a, &r);
        let c = plan.execute(&a);
        assert_eq!(c.nnz(), a.nnz());
        for ((i1, j1, v1), (i2, j2, v2)) in c.iter().zip(a.iter()) {
            assert_eq!((i1, j1), (i2, j2));
            assert!((v1 - v2).abs() < 1e-13);
        }
    }

    #[test]
    fn block_plan_is_an_eighth_of_the_scalar_plan() {
        // A block-complete lattice operator apart from a few Dirichlet
        // rows, four-point interpolation: the 3-dof plan must hold at most
        // 1/8 of the scalar contribution count (1/9 on complete tiles).
        let nv = 400;
        let mut b = CooBuilder::new(nv * 3, nv * 3);
        for v in 0..nv {
            for a in 0..3 {
                let i = v * 3 + a;
                if v % 50 == 0 {
                    b.push(i, i, 1.0);
                    continue;
                }
                for w in [
                    v.saturating_sub(20),
                    v.saturating_sub(1),
                    v,
                    (v + 1).min(nv - 1),
                ] {
                    for c in 0..3 {
                        b.push(i, w * 3 + c, if w == v && a == c { 8.0 } else { -0.5 });
                    }
                }
            }
        }
        let a = b.build();
        let r = random_restriction(100, nv, 40).kron_identity(3);
        let block = RapPlan::new(&a, &r);
        assert_eq!(block.block_size(), 3);
        let tile_contribs = block.stage1.weight.len() + block.stage2.weight.len();
        let scalar_contribs = (block.stage1.scalar_madds + block.stage2.scalar_madds) as usize;
        assert!(
            tile_contribs * 8 <= scalar_contribs,
            "{tile_contribs} tile contributions for {scalar_contribs} scalar ones"
        );
        // The same product planned in scalars holds one pair per scalar
        // multiply; it charges the same flops.
        let scalar = RapPlan::build::<1>(&a, &r);
        assert_eq!(
            scalar.stage1.weight.len() + scalar.stage2.weight.len(),
            scalar_contribs
        );
        println!(
            "RapPlan::memory_bytes: {} B in 3x3 tiles, {} B in scalars",
            block.memory_bytes(),
            scalar.memory_bytes()
        );
        assert!(block.memory_bytes() * 4 <= scalar.memory_bytes());
    }

    /// Assemble the local-row-set inputs of [`rap_local_rows`] for a rank
    /// owning the coarse vertices `owned` (global `a`, `r_v` in hand —
    /// test-side only; the production path ships the rows instead).
    fn local_inputs(
        dofs: usize,
        a: &CsrMatrix,
        r_v: &CsrMatrix,
        rt_v: &CsrMatrix,
        owned: &[u32],
    ) -> (CsrMatrix, Vec<u32>, CsrMatrix, Vec<u32>, CsrMatrix) {
        let sorted_ids = |cols: &[usize], per: usize| -> Vec<u32> {
            let mut ids: Vec<u32> = cols.iter().map(|&k| (k / per) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let r_rows = r_v.extract_rows(owned);
        let a_ids = sorted_ids(r_rows.col_idx(), 1);
        let a_rows = a.extract_rows(&dof_ids(&a_ids, dofs));
        let rt_ids = sorted_ids(a_rows.col_idx(), dofs);
        let rt_rows = rt_v.extract_rows(&rt_ids);
        (r_rows, a_ids, a_rows, rt_ids, rt_rows)
    }

    /// The sharded-RAP contract: ranks holding only their owned `R_v` rows,
    /// the referenced `A` rows, and the referenced full `R_vᵀ` rows compute
    /// exactly their rows of the full planned product, and any *vertex*
    /// ownership map (ranks owning nothing included) tiles it.
    fn assert_local_rows_tile_plan(dofs: usize, a: &CsrMatrix, r_v: &CsrMatrix, owner: &[u32]) {
        let rt_v = r_v.transpose();
        let full = RapPlan::new(a, &r_v.kron_identity(dofs)).execute(a);
        let mut seen = vec![false; full.nnz()];
        for rank in 0..=owner.iter().copied().max().unwrap_or(0) + 1 {
            let owned: Vec<u32> = (0..r_v.nrows() as u32)
                .filter(|&c| owner[c as usize] == rank)
                .collect();
            let (r_rows, a_ids, a_rows, rt_ids, rt_rows) =
                local_inputs(dofs, a, r_v, &rt_v, &owned);
            let local = rap_local_rows(dofs, &r_rows, &a_ids, &a_rows, &rt_ids, &rt_rows);
            assert_eq!(local.nrows(), owned.len() * dofs);
            assert_eq!(local.ncols(), full.ncols());
            for (lc, &c) in owned.iter().enumerate() {
                for d in 0..dofs {
                    let g = c as usize * dofs + d;
                    let (gcols, gvals) = full.row(g);
                    let (lcols, lvals) = local.row(lc * dofs + d);
                    assert_eq!(lcols, gcols, "row {g} pattern (rank {rank})");
                    for (x, y) in lvals.iter().zip(gvals) {
                        assert_eq!(x.to_bits(), y.to_bits(), "row {g}");
                    }
                    seen[full.row_ptr()[g]..full.row_ptr()[g + 1]].fill(true);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "ownership map must tile all rows");
    }

    #[test]
    fn local_rows_are_bitwise_planned_rows() {
        let r_v = random_restriction(18, 50, 18);
        for nparts in [1u32, 2, 3, 5] {
            let owner: Vec<u32> = (0..18).map(|c| c % nparts).collect();
            assert_local_rows_tile_plan(1, &random_sym(50, 4, 17), &r_v, &owner);
            assert_local_rows_tile_plan(3, &random_elastic(50, 17), &r_v, &owner);
        }
        // Any other block size runs the scalar kernel on expanded rows.
        assert_local_rows_tile_plan(2, &random_sym(100, 4, 17), &r_v, &[0; 18]);
    }

    #[test]
    fn local_rows_tolerate_superset_row_sets() {
        // Extra A / Rᵀ rows beyond the needed closure must not change a
        // single bit (the ingest path ships an adjacency superset).
        for (dofs, a) in [(1, random_sym(40, 4, 9)), (3, random_elastic(40, 9))] {
            let r_v = random_restriction(14, 40, 10);
            let owned: Vec<u32> = vec![2, 3, 7, 11];
            let want = RapPlan::new(&a, &r_v.kron_identity(dofs))
                .execute(&a)
                .extract_rows(&dof_ids(&owned, dofs));
            let all: Vec<u32> = (0..40).collect();
            let local = rap_local_rows(
                dofs,
                &r_v.extract_rows(&owned),
                &all,
                &a,
                &all,
                &r_v.transpose(),
            );
            assert_eq!(local.col_idx(), want.col_idx());
            for (x, y) in local.vals().iter().zip(want.vals()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_local_rows_cover_full_product(
            seed in 0u64..1000,
            owner in proptest::collection::vec(0u32..4, 12),
        ) {
            let r_v = random_restriction(12, 36, seed.wrapping_add(1));
            assert_local_rows_tile_plan(1, &random_sym(36, 3, seed), &r_v, &owner);
            assert_local_rows_tile_plan(3, &random_elastic(36, seed), &r_v, &owner);
        }

        #[test]
        fn prop_plan_equals_rap(
            entries in proptest::collection::vec(
                (0usize..10, 0usize..10, -5.0f64..5.0), 1..60),
            r_entries in proptest::collection::vec(
                (0usize..4, 0usize..10, -2.0f64..2.0), 1..20),
        ) {
            let mut b = CooBuilder::new(10, 10);
            for (i, j, v) in entries {
                b.push(i, j, v);
            }
            let a = b.build();
            let mut rb = CooBuilder::new(4, 10);
            for (i, j, v) in r_entries {
                rb.push(i, j, v);
            }
            let r = rb.build();
            assert_matches_oracle(&RapPlan::new(&a, &r).execute(&a), &a, &r);
        }

        #[test]
        fn prop_block_plan_equals_rap(
            entries in proptest::collection::vec(
                (0usize..24, 0usize..24, -5.0f64..5.0), 0..150),
            dirichlet in proptest::collection::vec(0usize..24, 0..4),
            empty in proptest::collection::vec(0usize..8, 0..2),
            r_entries in proptest::collection::vec(
                (0usize..4, 0usize..8, -2.0f64..2.0), 0..14),
        ) {
            // Scalar-level random entries leave tiles incomplete; Dirichlet
            // dofs keep only a unit diagonal, `empty` vertices no rows at
            // all, and coarse vertices no `r_entries` hit have no support.
            let mut b = CooBuilder::new(24, 24);
            for (i, j, v) in entries {
                if !dirichlet.contains(&i) && !empty.contains(&(i / 3)) {
                    b.push(i, j, v);
                }
            }
            for &i in &dirichlet {
                if !empty.contains(&(i / 3)) {
                    b.push(i, i, 1.0);
                }
            }
            let a = b.build();
            let mut rb = CooBuilder::new(4, 8);
            for (c, f, w) in r_entries {
                rb.push(c, f, w);
            }
            let r = rb.build().kron_identity(3);
            let mut plan = RapPlan::new(&a, &r);
            prop_assert_eq!(plan.block_size(), 3);
            assert_matches_oracle(&plan.execute(&a), &a, &r);
        }
    }
}
