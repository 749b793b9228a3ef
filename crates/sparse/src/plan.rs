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
//! **Symbolic phase** (`RapPlan::build`, the one driver): the simulator
//! plans one whole `A` ([`RapPlan::new`], ids equal to positions), a rank
//! of the sharded set-up its owned `R_v` rows over the `A` rows it holds
//! ([`RapPlan::over_held`]: owned rows read in place, then fetched ones,
//! each tile's block column addressed by its position in the held `R_vᵀ`
//! rows, `R_v`'s columns by their positions in the reached vertices). The
//! view of `A` of either plan comes from one tile walk (`fill_tiles`),
//! which also hands a held-rows plan its source tiles. Per coarse vertex
//! row a marker array discovers the row's output tiles and counts their
//! contributions, the distinct output columns are sorted, and a second
//! pass drops every contribution at its exact slot.
//! No comparison sort ever touches the contributions, and they land per
//! output tile in the order the sums above state — ascending fine vertex
//! (positions in ascending id lists keep it). That order is part of the
//! contract: it makes both routes agree bitwise.
//!
//! **Numeric phase**: each coarse vertex row runs `tile[t] += w · tile[src]`
//! over contiguous `B²`-wide tiles — stage 1 into a row-local scratch that
//! stage 2 reads back — straight into the row's output tiles. A tile's
//! slots are column-major (entry `(r, c)` at `B·c + r`, mask bit alike), the
//! layout of [`MaskedBsr3`](crate::MaskedBsr3)'s tiles, and the output
//! tiles' masks are the OR of the contributing tiles' masks, so the output
//! is exactly the scalar pattern of `R A Rᵀ`. Both stages work slot by slot
//! with scalar weights, so the layout moves no bit.
//! [`RapPlan::execute_tiles`] runs tiles to tiles (a one-rank promoted
//! share's, in place; any other share's through [`RapPlan::tile_source_row`]
//! and [`RapPlan::output_row`]); [`RapPlan::execute_tiles_csr`] emits CSR
//! (what a build hands the next level) from a share's tiles, a CSR's
//! ([`RapPlan::execute`]) or a rank's held rows (as
//! [`RapPlan::over_held`] tiled them, or [`RapPlan::tile_held`] tiles
//! them again), all tiled by the one tile walk. A rank builds its plan and
//! tiles its held rows in one pass, executes and drops the plan: its
//! set-up has no update to keep it for. Rows run one after another on the
//! calling thread, each through one reused stage-1 scratch.
//!
//! The flop charge is the structural *scalar* multiply-add count (taken from
//! the masks at plan time), so machine-model columns stay comparable with
//! the unblocked product.
//!
//! Telemetry: building a plan counts `rap/plan_build` (and
//! `rap/block_plans` when it took `B = 3`; a held-rows plan also its coarse
//! dof rows as `rap/local_rows`), each numeric execution counts
//! `rap/plan_reuse` — the reuse the paper's nonlinear runs (Fig. 13)
//! depend on is thereby observable and testable.

use crate::bsr::for_each_tile;
use crate::csr::{CsrMatrix, PatternFingerprint};
use crate::flops;
use std::borrow::Cow;
use std::ops::Range;

/// Where one block row of a plan's `A` is held: `B` consecutive scalar
/// rows of a matrix, from the given row on.
type Run<'a> = (&'a CsrMatrix, usize);

/// Block view of the `A` rows a plan reads: `B` consecutive scalar rows
/// form a block row, scalar column `j` falls in block column `j / B`.
struct BlockRows {
    /// Block row `i`'s tiles are `row_ptr[i]..row_ptr[i + 1]`.
    row_ptr: Vec<u32>,
    /// Of each tile, the `R_vᵀ` row its block column meets (its position
    /// in the plan's `R_vᵀ` rows), ascending per block row.
    cols: Vec<u32>,
    /// Which of the tile's `B×B` entries are stored (bit `a*B + b`).
    masks: Vec<u16>,
}

/// Slot of entry `(s, b)` — row `s`, column `b` — of a `B×B` tile, and its
/// mask bit: column-major, as [`MaskedBsr3`](crate::MaskedBsr3) stores its
/// tiles, so a share's stored tiles are the product's tiles.
fn slot(block: usize, s: usize, b: usize) -> usize {
    b * block + s
}

impl BlockRows {
    /// Merge the `B` sorted scalar rows of each of the `n` block rows
    /// `run` yields into its tile list, and their values into `values` when
    /// given: the source tiles a plan over these rows reads. A tile's block
    /// column is its own `R_vᵀ` row (`rt_ids` is `None`) or is found in the
    /// ascending `rt_ids` by a forward merge along the block row.
    fn new<'a, const B: usize, const BB: usize>(
        n: usize,
        run: impl Fn(usize) -> Run<'a>,
        rt_ids: Option<&[u32]>,
        mut values: Option<&mut Vec<f64>>,
    ) -> BlockRows {
        let rows = |i: usize| -> [_; B] {
            let (a, first) = run(i);
            std::array::from_fn(|s| a.row(first + s))
        };
        // Tiling values, count first: the tiles (8·B² bytes each) are then
        // allocated once, at their final size, not grown by copies.
        let mut ntiles = 0;
        if let Some(v) = values.as_deref_mut() {
            for i in 0..n {
                for_each_tile::<B>(rows(i).map(|r| r.0), |_, _, _| ntiles += 1);
            }
            v.reserve_exact(ntiles * BB);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0u32);
        let (mut cols, mut masks) = (Vec::with_capacity(ntiles), Vec::with_capacity(ntiles));
        for i in 0..n {
            let rows = rows(i);
            let mut from = 0;
            fill_tiles::<B, BB>(rows.map(|r| r.0), rows.map(|r| r.1), |j, mask, tile| {
                let col = match rt_ids {
                    None => j,
                    // Every tile of a held row is read, so a missing `Rᵀ`
                    // row is an error here already.
                    Some(ids) => {
                        let p = gallop(ids, from, j as u32).unwrap_or_else(|_| {
                            panic!("RapPlan: an Rᵀ row the product reaches is not held locally")
                        });
                        from = p + 1;
                        p
                    }
                };
                cols.push(col as u32);
                masks.push(mask);
                if let Some(v) = values.as_deref_mut() {
                    v.extend_from_slice(&tile);
                }
            });
            row_ptr.push(cols.len() as u32);
        }
        assert!(
            cols.len() < u32::MAX as usize,
            "RapPlan: A has too many tiles for 32-bit tile numbers"
        );
        BlockRows {
            row_ptr,
            cols,
            masks,
        }
    }
}

/// `ids[from..]` searched for `x` by doubling steps from `from`, then
/// bisection: `Ok(position)` or `Err(insertion point)`, as
/// `binary_search` — at a cost logarithmic in the distance moved.
fn gallop(ids: &[u32], from: usize, x: u32) -> Result<usize, usize> {
    let mut step = 1;
    let mut lo = from;
    while lo + step <= ids.len() && ids[lo + step - 1] < x {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(ids.len());
    match ids[lo..hi].binary_search(&x) {
        Ok(p) => Ok(lo + p),
        Err(p) => Err(lo + p),
    }
}

/// Where the block rows of `block` scalar rows each of the ascending
/// vertices `ids`, `dofs` rows per vertex, are held: the first of the
/// `held` sources that lists the vertex, and the block row's first row
/// there, found by one forward merge per source.
fn held_runs(
    ids: &[u32],
    held: &[(&[u32], &CsrMatrix)],
    dofs: usize,
    block: usize,
) -> Vec<(usize, usize)> {
    let mut cursors = vec![0usize; held.len()];
    let mut runs = Vec::with_capacity(ids.len() * dofs / block);
    for &k in ids {
        let found = held
            .iter()
            .zip(&mut cursors)
            .enumerate()
            .find_map(|(s, (&(ids, _), at))| {
                let hit = gallop(ids, *at, k);
                *at = hit.unwrap_or_else(|p| p);
                hit.ok().map(|p| (s, p * dofs))
            });
        let (s, first) =
            found.unwrap_or_else(|| panic!("RapPlan: A rows of vertex {k} not held locally"));
        runs.extend((first..first + dofs).step_by(block).map(|f| (s, f)));
    }
    runs
}

/// Walk one block row of `A` — its `B` scalar rows' sorted columns and
/// values — tile by tile, block columns ascending: `tile` gets each tile's
/// block column, mask and whole values (every slot the rows do not store
/// `+0.0`). Returns the tiles walked. The one tiler: a plan's view of its
/// `A` rows and the source tiles it reads both come from here.
fn fill_tiles<const B: usize, const BB: usize>(
    cols: [&[usize]; B],
    vals: [&[f64]; B],
    mut tile: impl FnMut(usize, u16, [f64; BB]),
) -> usize {
    let mut n = 0;
    for_each_tile::<B>(cols, |j, from, to| {
        let (mut mask, mut values) = (0u16, [0.0; BB]);
        for s in 0..B {
            for q in from[s]..to[s] {
                let slot = slot(B, s, cols[s][q] % B);
                mask |= 1 << slot;
                values[slot] = vals[s][q];
            }
        }
        tile(j, mask, values);
        n += 1;
    });
    n
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

/// Stored entries of each of the `B` scalar rows a run of tiles spans.
fn scalar_row_lens<const B: usize>(masks: &[u16]) -> [usize; B] {
    let mut lens = [0usize; B];
    for &m in masks {
        for a in 0..B {
            for b in 0..B {
                lens[a] += usize::from(m >> slot(B, a, b) & 1 != 0);
            }
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
                if mask >> slot(B, a, b) & 1 != 0 {
                    out_cols[q] = col as usize * B + b;
                    out_vals[q] = tile[slot(B, a, b)];
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

/// A reusable execution plan for the Galerkin triple product
/// `A_c = R A Rᵀ` with `R` frozen and `A`'s sparsity pattern fixed.
///
/// The plan holds, per product stage, one `(weight, source tile)` pair per
/// *tile* contribution, where each block row of `A` starts in the flat
/// source tile array, and the output's structural tile masks — see the
/// [module docs](self) for the layout and the defined summation order
/// (ascending fine vertex within every output entry). It keeps nothing per
/// stored scalar of `A`.
///
/// # Invalidation invariant
///
/// A plan is valid **only** for operators whose sparsity pattern is
/// identical to the `A` it was built from; the values may change freely.
/// Validity is checked by [`RapPlan::matches`], which compares the row
/// count, the stored-nonzero count, and the [`PatternFingerprint`] of the
/// full `(row lengths, column indices)` structure — explicitly *not* of the
/// values, so Newton re-linearizations on a fixed mesh always reuse the
/// plan. Anything that changes the pattern — remeshing, a different
/// drop-tolerance, a new restriction `R` — must rebuild the plan:
/// `MgHierarchy::update_operator` asks [`matches`](RapPlan::matches) and
/// builds a new plan for a foreign pattern, and [`RapPlan::execute`]
/// panics instead of reading values into the wrong tiles.
/// [`RapPlan::execute_tiles`] has no pattern to check: its caller hands it
/// tiles of the planned pattern, and a tile count off the plan's panics,
/// as in [`RapPlan::tile_held`]: a held-rows plan carries no input
/// fingerprint (its rows are no one matrix's) and matches no CSR.
///
/// The check reads the fingerprint `A` carries, so it hashes `A` only if
/// nothing has before in `A`'s life. The output's pattern is fixed by the
/// plan: its fingerprint is hashed on the first execution and stamped on
/// every later output, so the next level's consumers (its distribution,
/// smoother and plan) check a Galerkin operator without hashing it.
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
    /// Pattern of the `A` the plan was built for; `None` for a held-rows
    /// plan.
    a_pattern: Option<PatternFingerprint>,
    /// Unknowns per vertex the plan runs in: 3 when `R = R_v ⊗ I₃`, else 1.
    block: usize,
    /// Where a held-rows plan's block rows are held: the source (in the
    /// `held` it was built over) and the block row's first row there.
    /// Empty for a plan of one whole `A`, whose block rows are its own.
    held: Vec<(usize, usize)>,
    /// Scalar columns of the output.
    ncols: usize,
    /// Block row `k` of `A` is source tiles `a_rows[k]..a_rows[k + 1]`.
    a_rows: Vec<u32>,
    /// Coarse vertex `c`'s `RA` tiles are `rows1[c]..rows1[c + 1]`.
    rows1: Vec<u32>,
    stage1: Stage,
    /// Coarse vertex `c`'s output tiles are `rows2[c]..rows2[c + 1]`.
    rows2: Vec<u32>,
    stage2: Stage,
    /// Pattern of the output, fixed by the plan: hashed on the first
    /// execution, stamped on every later output.
    c_pattern: Option<PatternFingerprint>,
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
        let mut plan = match vertex_restriction(r) {
            Some(r_v) => {
                pmg_telemetry::counter_add("rap/block_plans", 1);
                Self::whole::<3, 9>(a, &r_v)
            }
            None => Self::whole::<1, 1>(a, r),
        };
        plan.a_pattern = Some(PatternFingerprint::of(a));
        plan
    }

    /// [`build`](Self::build) over every block row of `a`, in order.
    fn whole<const B: usize, const BB: usize>(a: &CsrMatrix, r_v: &CsrMatrix) -> RapPlan {
        assert_eq!(a.nrows() % B, 0, "A rows must come in runs of {B}");
        let ab = BlockRows::new::<B, BB>(a.nrows() / B, |k| (a, k * B), None, None);
        Self::build::<B>(ab, r_v, &r_v.transpose())
    }

    /// Symbolic phase over a rank's held rows — the sharded set-up's,
    /// where no rank holds the full `A` or `R`: the plan of this rank's
    /// rows of `R A Rᵀ` (`dofs` per owned coarse vertex, global coarse dof
    /// columns), and its source tiles: the held rows it reads, tiled in
    /// the same pass, for [`execute_tiles_csr`](Self::execute_tiles_csr)
    /// ([`tile_held`](Self::tile_held) tiles new values again). All ids
    /// global:
    ///
    /// * `r_rows` — the owned coarse-vertex rows of `R_v`, in owned order
    ///   (`R = R_v ⊗ I_dofs` is never formed).
    /// * `held` — the `A` rows this rank holds, as sources `(ids, rows)`:
    ///   `dofs` consecutive rows per vertex of `ids` (strictly ascending,
    ///   no vertex in two sources) — its owned share as stored, then the
    ///   off-rank rows it fetched. Every fine vertex of `r_rows` must be
    ///   held; rows no owned coarse vertex reaches are ignored.
    /// * `rt_ids` / `rt_rows` — rows of the **full** `R_vᵀ`, ids strictly
    ///   ascending: every fine vertex the reached `A` rows touch, or a
    ///   superset.
    ///
    /// Runs in 3×3 vertex tiles at `dofs = 3`, in scalars otherwise. The
    /// plan is [`RapPlan::new`]'s with positions in the ascending id lists
    /// standing in for ids, which keeps every order: its output is
    /// **bitwise** the corresponding rows of the full planned product,
    /// however the held rows are split into sources.
    pub fn over_held(
        dofs: usize,
        r_rows: &CsrMatrix,
        held: &[(&[u32], &CsrMatrix)],
        rt_ids: &[u32],
        rt_rows: &CsrMatrix,
    ) -> (RapPlan, Vec<f64>) {
        for &(ids, rows) in held {
            assert_eq!(rows.nrows(), ids.len() * dofs, "dofs A rows per id");
            assert_eq!(
                r_rows.ncols() * dofs,
                rows.ncols(),
                "R columns must match A"
            );
            debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(rt_rows.nrows(), rt_ids.len(), "one Rᵀ row per id");
        debug_assert!(rt_ids.windows(2).all(|w| w[0] < w[1]));
        pmg_telemetry::counter_add("rap/plan_build", 1);
        pmg_telemetry::counter_add("rap/local_rows", (r_rows.nrows() * dofs) as u64);
        // The fine vertices the owned coarse vertices reach, ascending, and
        // `R_v`'s columns as positions in them: the plan's block rows.
        let mut reached: Vec<u32> = r_rows.col_idx().iter().map(|&k| k as u32).collect();
        reached.sort_unstable();
        reached.dedup();
        let at = |&k: &usize| reached.partition_point(|&v| (v as usize) < k);
        let (rp, vals) = (r_rows.row_ptr().to_vec(), r_rows.vals().to_vec());
        let cols = r_rows.col_idx().iter().map(at).collect();
        let r_pos = CsrMatrix::from_parts(r_rows.nrows(), reached.len(), rp, cols, vals);
        // 3x3 tiles at three dofs, else scalars on the expanded restriction
        // (block rows and `R_vᵀ` ids expanded alike).
        let block = if dofs == 3 { 3 } else { 1 };
        let runs = held_runs(&reached, held, dofs, block);
        let run = |i: usize| (held[runs[i].0].1, runs[i].1);
        let per = dofs / block;
        let expand = |m| match per {
            1 => Cow::Borrowed(m),
            _ => Cow::Owned(CsrMatrix::kron_identity(m, per)),
        };
        let (r, rt) = (expand(&r_pos), expand(rt_rows));
        let per = per as u32;
        let ids: Cow<[u32]> = match per {
            1 => Cow::Borrowed(rt_ids),
            _ => rt_ids
                .iter()
                .flat_map(|&v| (0..per).map(move |d| v * per + d))
                .collect(),
        };
        let (n, mut tiles) = (runs.len(), Vec::new());
        let (ids, values) = (Some(&ids[..]), Some(&mut tiles));
        let mut plan = if block == 3 {
            pmg_telemetry::counter_add("rap/block_plans", 1);
            Self::build::<3>(BlockRows::new::<3, 9>(n, run, ids, values), &r, &rt)
        } else {
            Self::build::<1>(BlockRows::new::<1, 1>(n, run, ids, values), &r, &rt)
        };
        plan.held = runs;
        (plan, tiles)
    }

    /// The one symbolic driver: the rows of `R_v` given (their columns
    /// positions of the block rows of `ab`) against those block rows of
    /// `A` and the `R_vᵀ` rows `rt_v` (by position, as `ab`'s block
    /// columns are).
    fn build<const B: usize>(ab: BlockRows, r_v: &CsrMatrix, rt_v: &CsrMatrix) -> RapPlan {
        let nc = r_v.nrows();
        let mut marker = Marker {
            stamp: 0,
            slots: vec![Slot::default(); rt_v.nrows().max(rt_v.ncols())],
        };
        let tiles_of = |k: usize| (ab.row_ptr[k + 1] - ab.row_ptr[k]) as usize;

        // The contribution arrays are sized exactly up front; the (far
        // smaller) per-tile arrays are trimmed once the stage is complete.
        let mut stage1 = Stage::new();
        let contribs: usize = r_v.col_idx().iter().map(|&k| tiles_of(k)).sum();
        stage1.weight.reserve_exact(contribs);
        stage1.src.reserve_exact(contribs);
        let mut rows1 = Vec::with_capacity(nc + 1);
        rows1.push(0u32);
        // A coarse vertex's `R_v` entries ascending, each against its
        // block row's tiles in stored order.
        for c in 0..nc {
            let ((ks, ws), ab) = (r_v.row(c), &ab);
            stage1.push_row(&mut marker, || {
                ks.iter().zip(ws).flat_map(|(&k, &weight)| {
                    (ab.row_ptr[k] as usize..ab.row_ptr[k + 1] as usize).map(move |p| Contrib {
                        col: ab.cols[p],
                        weight,
                        src: p as u32,
                        mask: ab.masks[p],
                    })
                })
            });
            rows1.push(stage1.cols.len() as u32);
        }

        let mut stage2 = Stage::new();
        let rt_len = |l: u32| rt_v.row_ptr()[l as usize + 1] - rt_v.row_ptr()[l as usize];
        let contribs: usize = stage1.cols.iter().map(|&l| rt_len(l)).sum();
        stage2.weight.reserve_exact(contribs);
        stage2.src.reserve_exact(contribs);
        let mut rows2 = Vec::with_capacity(nc + 1);
        rows2.push(0u32);
        // Its `RA` tiles ascending, each against that fine vertex's `R_vᵀ`
        // row in stored order; sources are row-relative `RA` tile numbers.
        for c in 0..nc {
            let ra = rows1[c] as usize..rows1[c + 1] as usize;
            let ra = stage1.cols[ra.clone()].iter().zip(&stage1.masks[ra]);
            stage2.push_row(&mut marker, || {
                ra.clone().enumerate().flat_map(|(t, (&l, &mask))| {
                    let (ds, ws) = rt_v.row(l as usize);
                    ds.iter().zip(ws).map(move |(&d, &weight)| Contrib {
                        col: d as u32,
                        weight,
                        src: t as u32,
                        mask,
                    })
                })
            });
            rows2.push(stage2.cols.len() as u32);
        }

        // Stage 1's columns and masks only fed stage 2.
        stage1.cols = Vec::new();
        stage1.masks = Vec::new();
        stage1.offsets.shrink_to_fit();
        stage2.cols.shrink_to_fit();
        stage2.masks.shrink_to_fit();
        stage2.offsets.shrink_to_fit();
        RapPlan {
            a_pattern: None,
            block: B,
            held: Vec::new(),
            ncols: rt_v.ncols() * B,
            a_rows: ab.row_ptr,
            rows1,
            stage1,
            rows2,
            stage2,
            c_pattern: None,
        }
    }

    /// Whether `a` has the exact sparsity pattern this plan was built for
    /// (never, for a held-rows plan).
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        self.a_pattern.is_some_and(|p| p.matches(a))
    }

    /// Unknowns per vertex the plan works in: 3 if the restriction it was
    /// built from is `R_v ⊗ I₃`, else 1.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Heap bytes the plan holds between executions.
    pub fn memory_bytes(&self) -> usize {
        (4 * self.held.capacity()
            + self.a_rows.capacity()
            + self.rows1.capacity()
            + self.rows2.capacity())
            * 4
            + self.stage1.memory_bytes()
            + self.stage2.memory_bytes()
    }

    /// Length of the source tile array [`execute_tiles`](Self::execute_tiles)
    /// reads: `B²` values per tile of `A`, block rows in order, block
    /// columns ascending within a row — a one-rank promoted share's tiles
    /// (`B = 3`), or `A`'s CSR values (`B = 1`).
    pub fn source_len(&self) -> usize {
        self.a_rows[self.a_rows.len() - 1] as usize * self.block * self.block
    }

    /// Length of the output tile array [`execute_tiles`](Self::execute_tiles)
    /// writes, laid out as [`source_len`](Self::source_len)'s.
    pub fn output_len(&self) -> usize {
        self.rows2[self.rows2.len() - 1] as usize * self.block * self.block
    }

    /// Write block row `k` of `A`, given as its `B` scalar rows (columns
    /// ascending, with their values), into its tiles of the source array
    /// `a_tiles`, whole: every slot the rows do not store becomes `+0.0`.
    /// How a source that does not store the plan's tiles contiguously is
    /// read. Panics if the rows' tiles are not the planned ones' count.
    pub fn tile_source_row(
        &self,
        k: usize,
        cols: &[&[usize]],
        vals: &[&[f64]],
        a_tiles: &mut [f64],
    ) {
        let bb = self.block * self.block;
        let tiles = self.a_rows[k] as usize..self.a_rows[k + 1] as usize;
        let mut out = a_tiles[tiles.start * bb..tiles.end * bb].chunks_exact_mut(bb);
        // A tile past the planned count is not written; the count is checked.
        let mut put = |tile: &[f64]| out.next().map(|t| t.copy_from_slice(tile));
        let n = match self.block {
            3 => fill_tiles::<3, 9>(rows(cols), rows(vals), |_, _, t| _ = put(&t)),
            _ => fill_tiles::<1, 1>(rows(cols), rows(vals), |_, _, t| _ = put(&t)),
        };
        assert_eq!(n, tiles.len(), "block row {k} is not the planned pattern's");
    }

    /// The source tile array of the block rows `run` yields, in order.
    fn tile_runs<'a>(&self, run: impl Fn(usize) -> Run<'a>) -> Vec<f64> {
        let b = self.block;
        let mut tiles = vec![0.0; self.source_len()];
        for k in 0..self.a_rows.len() - 1 {
            let (a, first) = run(k);
            let rows: [_; 3] = std::array::from_fn(|s| a.row(first + s.min(b - 1)));
            let (cols, vals) = (rows.map(|r| r.0), rows.map(|r| r.1));
            self.tile_source_row(k, &cols[..b], &vals[..b], &mut tiles);
        }
        tiles
    }

    /// A held-rows plan's source tile array, tiled from `held`: the
    /// sources the plan was built over, in that order, with the same
    /// values or new ones on the same pattern. The plan keeps no input
    /// fingerprint to check that: a block row whose tile count moved
    /// panics, but a column moved to another tile of the same count reads
    /// into the wrong tile. Panics on a plan of one whole `A`.
    pub fn tile_held(&self, held: &[(&[u32], &CsrMatrix)]) -> Vec<f64> {
        assert!(self.a_pattern.is_none(), "not a held-rows plan");
        self.tile_runs(|i| (held[self.held[i].0].1, self.held[i].1))
    }

    /// Scalar row `i` of an output tile array, as [`execute`](Self::execute)
    /// emits it: into `cols` / `vals` (cleared first), ascending column,
    /// exactly the entries the output masks mark. How an output is written
    /// to a share that does not store the plan's tiles contiguously.
    pub fn output_row(
        &self,
        i: usize,
        c_tiles: &[f64],
        cols: &mut Vec<usize>,
        vals: &mut Vec<f64>,
    ) {
        let (block, bb) = (self.block, self.block * self.block);
        let (c, a) = (i / block, i % block);
        cols.clear();
        vals.clear();
        for t in self.rows2[c] as usize..self.rows2[c + 1] as usize {
            let (col, mask) = (self.stage2.cols[t] as usize, self.stage2.masks[t]);
            for b in 0..block {
                let at = slot(block, a, b);
                if mask >> at & 1 != 0 {
                    cols.push(col * block + b);
                    vals.push(c_tiles[t * bb + at]);
                }
            }
        }
    }

    /// Numeric phase, tiles to tiles: `c_tiles` (every slot, the ones no
    /// output mask marks `+0.0`) from `a_tiles`, both laid out as
    /// [`source_len`](Self::source_len) says. [`execute`](Self::execute)
    /// runs the same row kernel on a CSR's tiles. Panics if either array
    /// is not the planned length.
    pub fn execute_tiles(&self, a_tiles: &[f64], c_tiles: &mut [f64]) {
        assert_eq!(
            a_tiles.len(),
            self.source_len(),
            "A's tiles are not the planned pattern's"
        );
        assert_eq!(
            c_tiles.len(),
            self.output_len(),
            "output tiles are not the planned pattern's"
        );
        pmg_telemetry::counter_add("rap/plan_reuse", 1);
        match self.block {
            3 => self.run_tiles::<9>(a_tiles, c_tiles),
            _ => self.run_tiles::<1>(a_tiles, c_tiles),
        }
        self.charge_flops();
    }

    /// Numeric phase: compute `R A Rᵀ` for a new `A` with the planned
    /// pattern. Panics if the pattern changed — a caller that cannot
    /// guarantee stability asks [`matches`](Self::matches) first and
    /// rebuilds.
    pub fn execute(&mut self, a: &CsrMatrix) -> CsrMatrix {
        assert!(
            self.matches(a),
            "RapPlan::execute: A's sparsity pattern changed since the plan \
             was built (rebuild with RapPlan::new)"
        );
        match self.block {
            3 => self.execute_tiles_csr(&self.tile_runs(|k| (a, k * 3))),
            _ => self.execute_tiles_csr(a.vals()),
        }
    }

    /// [`execute`](Self::execute) from a source tile array laid out as
    /// [`source_len`](Self::source_len) says — a level share's tiles, read
    /// where they are stored, or a rank's held rows
    /// ([`tile_held`](Self::tile_held)) — instead of a CSR: the same
    /// product, the same output. Panics if the array is not the planned
    /// length.
    pub fn execute_tiles_csr(&mut self, a_tiles: &[f64]) -> CsrMatrix {
        assert_eq!(
            a_tiles.len(),
            self.source_len(),
            "A's tiles are not the planned pattern's"
        );
        pmg_telemetry::counter_add("rap/plan_reuse", 1);
        let c = match self.block {
            3 => self.run_csr::<3, 9>(a_tiles),
            _ => self.run_csr::<1, 1>(a_tiles),
        };
        self.charge_flops();
        match self.c_pattern {
            Some(p) => p.stamp(&c),
            None => self.c_pattern = Some(PatternFingerprint::of(&c)),
        }
        c
    }

    fn charge_flops(&self) {
        flops::add(2 * (self.stage1.scalar_madds + self.stage2.scalar_madds));
    }
    /// Output block row `c` into `out`, exactly its tiles; stage 1 goes
    /// through the row scratch `ra`.
    fn row_product<const BB: usize>(
        &self,
        c: usize,
        a_tiles: &[f64],
        ra: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let ra_tiles = self.rows1[c] as usize..self.rows1[c + 1] as usize;
        ra.resize(ra_tiles.len() * BB, 0.0);
        self.stage1.accumulate::<BB>(ra_tiles, a_tiles, ra);
        let out_tiles = self.rows2[c] as usize..self.rows2[c + 1] as usize;
        self.stage2.accumulate::<BB>(out_tiles, ra, out);
    }

    fn run_tiles<const BB: usize>(&self, a_tiles: &[f64], c_tiles: &mut [f64]) {
        // One stage-1 row scratch, as wide as the plan's widest row, for
        // every coarse vertex in turn; each row overwrites its own tiles.
        let widest = self.rows1.windows(2).map(|w| w[1] - w[0]).max();
        let mut ra = Vec::with_capacity(widest.unwrap_or(0) as usize * BB);
        for (c, w) in self.rows2.windows(2).enumerate() {
            let out = w[0] as usize * BB..w[1] as usize * BB;
            self.row_product::<BB>(c, a_tiles, &mut ra, &mut c_tiles[out]);
        }
    }

    fn run_csr<const B: usize, const BB: usize>(&self, a_tiles: &[f64]) -> CsrMatrix {
        let nc = self.rows2.len() - 1;
        let mut row_ptr = Vec::with_capacity(nc * B + 1);
        row_ptr.push(0usize);
        for c in 0..nc {
            let masks = &self.stage2.masks[self.rows2[c] as usize..self.rows2[c + 1] as usize];
            for len in scalar_row_lens::<B>(masks) {
                row_ptr.push(row_ptr[row_ptr.len() - 1] + len);
            }
        }
        let nnz = row_ptr[nc * B];
        let mut col_idx = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];

        let (mut ra, mut c_tiles) = (Vec::new(), Vec::new());
        for c in 0..nc {
            let out = self.rows2[c] as usize..self.rows2[c + 1] as usize;
            let scalar = row_ptr[c * B]..row_ptr[(c + 1) * B];
            c_tiles.resize(out.len() * BB, 0.0);
            self.row_product::<BB>(c, a_tiles, &mut ra, &mut c_tiles);
            emit_row::<B, BB>(
                &self.stage2.cols[out.clone()],
                &self.stage2.masks[out],
                &c_tiles,
                &mut col_idx[scalar.clone()],
                &mut vals[scalar],
            );
        }
        CsrMatrix::from_parts(nc * B, self.ncols, row_ptr, col_idx, vals)
    }
}

/// `B` scalar rows as the array the tile walk takes.
fn rows<'a, T, const B: usize>(rows: &[&'a [T]]) -> [&'a [T]; B] {
    rows.try_into()
        .unwrap_or_else(|_| panic!("{B} scalar rows per block row"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use crate::MaskedBsr3;
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
        let plan = RapPlan::new(&a, &r);
        // Different pattern: extra entry.
        let mut b = CooBuilder::new(30, 30);
        for (i, j, v) in a.iter() {
            b.push(i, j, v);
        }
        b.push(0, 29, 1e-9);
        b.push(29, 0, 1e-9);
        let a2 = b.build();
        assert!(!plan.matches(&a2));
        assert!(plan.matches(&a));
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
        let scalar = RapPlan::whole::<1, 1>(&a, &r);
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tile_execution_is_bitwise_the_csr_execution() {
        // Partial tiles, Dirichlet rows, an empty vertex and a stored
        // `-0.0`; then the scalar plan, whose tiles are the CSR values.
        let mut a3 = random_elastic(24, 5);
        a3.vals_mut()[7] = -0.0;
        let r3 = random_restriction(8, 24, 6).kron_identity(3);
        let (a1, r1) = (random_sym(30, 3, 9), random_restriction(9, 30, 10));
        for (a, r) in [(&a3, &r3), (&a1, &r1)] {
            let mut plan = RapPlan::new(a, r);
            let want = RapPlan::new(a, r).execute(a);
            let block = plan.block_size();
            // Read in place and written in place, as one rank's shares are
            // (every output slot written: unmasked ones `+0.0`).
            let (src, fresh) = match block {
                3 => (
                    MaskedBsr3::from_csr(a).tile_values().to_vec(),
                    MaskedBsr3::from_csr(&want).tile_values().to_vec(),
                ),
                _ => (a.vals().to_vec(), want.vals().to_vec()),
            };
            let mut out = vec![f64::NAN; plan.output_len()];
            for _ in 0..2 {
                plan.execute_tiles(&src, &mut out);
                assert_eq!(bits(&out), bits(&fresh));
            }
            // Through a transient array, as any other storage goes.
            let mut tiles = vec![f64::NAN; plan.source_len()];
            for k in 0..a.nrows() / block {
                let rows: Vec<_> = (0..block).map(|s| a.row(k * block + s)).collect();
                let (cols, vals): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
                plan.tile_source_row(k, &cols, &vals, &mut tiles);
            }
            assert_eq!(bits(&tiles), bits(&src));
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            for i in 0..want.nrows() {
                plan.output_row(i, &out, &mut cols, &mut vals);
                assert_eq!(&cols[..], want.row(i).0, "row {i}");
                assert_eq!(bits(&vals), bits(want.row(i).1), "row {i}");
            }
            // The CSR route after the in-place executions, from the CSR or
            // from the tiles as a build reads a share, is a fresh plan's,
            // bit for bit.
            for again in [plan.execute(a), plan.execute_tiles_csr(&src)] {
                assert_eq!(again.row_ptr(), want.row_ptr());
                assert_eq!(again.col_idx(), want.col_idx());
                assert_eq!(bits(again.vals()), bits(want.vals()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not the planned pattern's")]
    fn tile_execution_rejects_a_foreign_tile_count() {
        let a = random_elastic(12, 5);
        let plan = RapPlan::new(&a, &random_restriction(4, 12, 6).kron_identity(3));
        let src = vec![0.0; plan.source_len() + 9];
        plan.execute_tiles(&src, &mut vec![0.0; plan.output_len()]);
    }

    /// The `dofs` dof ids of each vertex id, in order.
    fn dofs_of(vertices: &[u32], dofs: usize) -> Vec<u32> {
        let d = dofs as u32;
        let ids = vertices.iter();
        ids.flat_map(|&v| (0..d).map(move |c| v * d + c)).collect()
    }

    /// A held-rows plan's product, run as a rank runs it: plan and tile the
    /// held rows in one pass, execute. Tiling them again through the plan
    /// gives the same source tiles.
    fn held_product(
        dofs: usize,
        r_rows: &CsrMatrix,
        held: &[(&[u32], &CsrMatrix)],
        rt_ids: &[u32],
        rt_rows: &CsrMatrix,
    ) -> CsrMatrix {
        let (mut plan, tiles) = RapPlan::over_held(dofs, r_rows, held, rt_ids, rt_rows);
        assert_eq!(bits(&plan.tile_held(held)), bits(&tiles));
        plan.execute_tiles_csr(&tiles)
    }

    fn assert_same_bits(x: &CsrMatrix, y: &CsrMatrix) {
        assert_eq!((x.nrows(), x.ncols()), (y.nrows(), y.ncols()));
        assert_eq!(x.row_ptr(), y.row_ptr());
        assert_eq!(x.col_idx(), y.col_idx());
        assert_eq!(bits(x.vals()), bits(y.vals()));
    }

    /// The row sets of one rank for [`RapPlan::over_held`], from the global
    /// `a` and `r_v` (test-side only; the production path ships the rows):
    /// its owned `R_v` rows (coarse vertices `owned`), its held `A` rows
    /// split as the sharded setup splits them — every fine vertex it owns
    /// (`fine_owner[v] == rank`, reached or not) as one source, then the
    /// reached vertices it does not own — and the `R_vᵀ` rows those reach.
    struct RankRows {
        r_rows: CsrMatrix,
        sources: [(Vec<u32>, CsrMatrix); 2],
        rt_ids: Vec<u32>,
        rt_rows: CsrMatrix,
    }

    impl RankRows {
        fn new(
            dofs: usize,
            a: &CsrMatrix,
            r_v: &CsrMatrix,
            owned: &[u32],
            fine_owner: &[u32],
            rank: u32,
        ) -> RankRows {
            let sorted_ids = |cols: &[usize], per: usize| -> Vec<u32> {
                let mut ids: Vec<u32> = cols.iter().map(|&k| (k / per) as u32).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            let r_rows = r_v.extract_rows(owned);
            let reached = sorted_ids(r_rows.col_idx(), 1);
            let rt_ids = sorted_ids(a.extract_rows(&dofs_of(&reached, dofs)).col_idx(), dofs);
            let mine = |v: &u32| fine_owner[*v as usize] == rank;
            let own: Vec<u32> = (0..fine_owner.len() as u32).filter(mine).collect();
            let fetched: Vec<u32> = reached.into_iter().filter(|v| !mine(v)).collect();
            RankRows {
                r_rows,
                sources: [own, fetched].map(|ids| {
                    let rows = a.extract_rows(&dofs_of(&ids, dofs));
                    (ids, rows)
                }),
                rt_rows: r_v.transpose().extract_rows(&rt_ids),
                rt_ids,
            }
        }

        fn held(&self) -> [(&[u32], &CsrMatrix); 2] {
            let [(o, orows), (f, frows)] = &self.sources;
            [(&o[..], orows), (&f[..], frows)]
        }

        fn rap(&self, dofs: usize) -> CsrMatrix {
            held_product(
                dofs,
                &self.r_rows,
                &self.held(),
                &self.rt_ids,
                &self.rt_rows,
            )
        }
    }

    /// The sharded-RAP contract: ranks holding only their owned `R_v` rows,
    /// their owned `A` rows plus the reached off-rank ones (two sources),
    /// and the reached full `R_vᵀ` rows compute exactly their rows of the
    /// full planned product, and any *vertex* ownership maps (ranks owning
    /// nothing included) tile it.
    fn assert_held_rows_tile_plan(
        dofs: usize,
        a: &CsrMatrix,
        r_v: &CsrMatrix,
        owner: &[u32],
        fine_owner: &[u32],
    ) {
        let full = RapPlan::new(a, &r_v.kron_identity(dofs)).execute(a);
        let mut seen = vec![false; full.nnz()];
        let last = owner.iter().chain(fine_owner).copied().max().unwrap_or(0);
        for rank in 0..=last + 1 {
            let owned: Vec<u32> = (0..r_v.nrows() as u32)
                .filter(|&c| owner[c as usize] == rank)
                .collect();
            let local = RankRows::new(dofs, a, r_v, &owned, fine_owner, rank).rap(dofs);
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
    fn held_rows_are_bitwise_planned_rows() {
        let r_v = random_restriction(18, 50, 18);
        for nparts in [1u32, 2, 3, 5] {
            let owner: Vec<u32> = (0..18).map(|c| c % nparts).collect();
            // Contiguous fine blocks, as a coordinate bisection leaves them.
            let fine_owner: Vec<u32> = (0..50).map(|v| v * nparts / 50).collect();
            assert_held_rows_tile_plan(1, &random_sym(50, 4, 17), &r_v, &owner, &fine_owner);
            assert_held_rows_tile_plan(3, &random_elastic(50, 17), &r_v, &owner, &fine_owner);
        }
        // Any other block size runs the scalar kernel on expanded rows.
        let fine_owner: Vec<u32> = (0..50).map(|v| v % 2).collect();
        assert_held_rows_tile_plan(2, &random_sym(100, 4, 17), &r_v, &[0; 18], &fine_owner);
    }

    #[test]
    fn held_rows_read_a_first_held_vertex_from_the_fetched_source() {
        // The lowest fine vertex the rank reaches is off-rank, and so is
        // every vertex above the owned block: the view interleaves the two
        // sources from its first block row on.
        let r_v = random_restriction(14, 40, 10);
        let owner = [0u32; 14];
        let mut reached: Vec<usize> = r_v.col_idx().to_vec();
        reached.sort_unstable();
        let fine_owner: Vec<u32> = (0..40)
            .map(|v| u32::from(v == reached[0] || v >= 30))
            .collect();
        for (dofs, a) in [(1, random_sym(40, 4, 9)), (3, random_elastic(40, 9))] {
            let rows = RankRows::new(dofs, &a, &r_v, &(0..14).collect::<Vec<_>>(), &fine_owner, 0);
            assert_eq!(rows.sources[1].0[0], reached[0] as u32);
            assert_held_rows_tile_plan(dofs, &a, &r_v, &owner, &fine_owner);
        }
    }

    #[test]
    fn held_rows_tolerate_superset_row_sets() {
        // Extra A / Rᵀ rows beyond the needed closure must not change a
        // single bit (the ingest path ships an adjacency superset), however
        // the held rows are split into sources.
        for (dofs, a) in [(1, random_sym(40, 4, 9)), (3, random_elastic(40, 9))] {
            let r_v = random_restriction(14, 40, 10);
            let owned: Vec<u32> = vec![2, 3, 7, 11];
            let want = RapPlan::new(&a, &r_v.kron_identity(dofs))
                .execute(&a)
                .extract_rows(&dofs_of(&owned, dofs));
            let all: Vec<u32> = (0..40).collect();
            let (low, high) = all.split_at(17);
            let (low_rows, high_rows) = (
                a.extract_rows(&dofs_of(low, dofs)),
                a.extract_rows(&dofs_of(high, dofs)),
            );
            let r_rows = r_v.extract_rows(&owned);
            let rt_v = r_v.transpose();
            for held in [
                vec![(&all[..], &a)],
                vec![(high, &high_rows), (low, &low_rows)],
            ] {
                let local = held_product(dofs, &r_rows, &held, &all, &rt_v);
                assert_eq!(local.col_idx(), want.col_idx());
                for (x, y) in local.vals().iter().zip(want.vals()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "A rows of vertex")]
    fn held_rows_panic_on_a_missing_a_row() {
        let (a, r_v) = (random_elastic(20, 3), random_restriction(6, 20, 4));
        let mut rows = RankRows::new(3, &a, &r_v, &[0, 1, 2], &[0; 20], 0);
        // Drop the highest vertex an owned coarse vertex reaches.
        let gone = *rows.r_rows.col_idx().iter().max().unwrap() as u32;
        let (ids, held) = &mut rows.sources[0];
        ids.retain(|&v| v != gone);
        *held = a.extract_rows(&dofs_of(ids, 3));
        rows.rap(3);
    }

    #[test]
    #[should_panic(expected = "an Rᵀ row the product reaches is not held locally")]
    fn held_rows_panic_on_a_missing_rt_row() {
        let (a, r_v) = (random_elastic(20, 3), random_restriction(6, 20, 4));
        let mut rows = RankRows::new(3, &a, &r_v, &[0, 1, 2], &[0; 20], 0);
        rows.rt_ids.remove(0);
        rows.rt_rows = r_v.transpose().extract_rows(&rows.rt_ids);
        rows.rap(3);
    }

    #[test]
    fn a_held_plan_reexecuted_on_new_values_is_a_fresh_plan() {
        // Two sources, as a rank holds them; then every held row with new
        // values (a Newton step's), tiled again through the built plan.
        let r_v = random_restriction(14, 40, 10);
        let fine_owner: Vec<u32> = (0..40).map(|v| u32::from(v >= 23)).collect();
        for (dofs, a) in [(1, random_sym(40, 4, 9)), (3, random_elastic(40, 9))] {
            let owned: Vec<u32> = (0..14).filter(|c| c % 2 == 0).collect();
            let rows = RankRows::new(dofs, &a, &r_v, &owned, &fine_owner, 0);
            let (mut plan, tiles) = RapPlan::over_held(
                dofs,
                &rows.r_rows,
                &rows.held(),
                &rows.rt_ids,
                &rows.rt_rows,
            );
            let first = plan.execute_tiles_csr(&tiles);
            assert_same_bits(&first, &rows.rap(dofs));
            let mut next = RankRows::new(dofs, &a, &r_v, &owned, &fine_owner, 0);
            for (_, m) in &mut next.sources {
                m.scale(std::f64::consts::PI);
            }
            let again = plan.execute_tiles_csr(&plan.tile_held(&next.held()));
            assert_same_bits(&again, &next.rap(dofs));
            assert!(bits(again.vals()) != bits(first.vals()));
        }
    }

    #[test]
    fn a_one_rank_scalar_held_plan_is_the_simulators_product() {
        // Serve's scalar ingest at one rank: every vertex owned and held as
        // one source, every `R_vᵀ` row — the simulator's planned product,
        // whole, bit for bit.
        let (a, r_v) = (random_sym(50, 4, 17), random_restriction(18, 50, 18));
        let all: Vec<u32> = (0..50).collect();
        let (plan, _) = RapPlan::over_held(1, &r_v, &[(&all, &a)], &all, &r_v.transpose());
        assert_eq!(plan.block_size(), 1);
        let held = held_product(1, &r_v, &[(&all, &a)], &all, &r_v.transpose());
        assert_same_bits(&held, &RapPlan::new(&a, &r_v).execute(&a));
    }

    proptest! {
        #[test]
        fn prop_stamped_output_fingerprint_is_its_rows(
            seed in 0u64..1000,
            nc in 1usize..8,
            block in 0usize..2,
        ) {
            let (a, r) = if block == 1 {
                let r_v = random_restriction(nc, 12, seed.wrapping_add(1));
                (random_elastic(12, seed), r_v.kron_identity(3))
            } else {
                (random_sym(30, 3, seed), random_restriction(nc, 30, seed.wrapping_add(1)))
            };
            let mut plan = RapPlan::new(&a, &r);
            prop_assert_eq!(plan.block_size(), if block == 1 { 3 } else { 1 });
            let mut a2 = a.clone();
            a2.scale(0.5);
            // The first execution hashes its output, the second is stamped.
            for a in [&a, &a2] {
                let c = plan.execute(a);
                let rows = (0..c.nrows()).map(|i| c.row(i).0);
                let fresh = PatternFingerprint::of_rows(c.ncols(), rows);
                prop_assert_eq!(PatternFingerprint::of(&c), fresh);
            }
        }

        #[test]
        fn prop_held_rows_cover_full_product(
            seed in 0u64..1000,
            owner in proptest::collection::vec(0u32..4, 12),
            fine_owner in proptest::collection::vec(0u32..4, 36),
        ) {
            let r_v = random_restriction(12, 36, seed.wrapping_add(1));
            assert_held_rows_tile_plan(1, &random_sym(36, 3, seed), &r_v, &owner, &fine_owner);
            assert_held_rows_tile_plan(3, &random_elastic(36, seed), &r_v, &owner, &fine_owner);
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
