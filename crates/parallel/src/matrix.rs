//! Rank-partitioned sparse matrices with ghost-column exchange plans.
//!
//! Each rank owns the matrix rows of its owned indices (the paper's Athena
//! builds processor sub-domains so that "each processor can compute all
//! rows of the stiffness matrix associated with vertices that have been
//! partitioned to the processor"). Columns referencing other ranks' indices
//! are *ghosts*: before a product, ghost values are fetched from their
//! owners — one message per neighbor rank, 8 bytes per ghost value — which
//! is exactly what the BSP machine model charges.
//!
//! A rank's share is one [`RankMatrix`] on both runtimes: the simulator's
//! [`DistMatrix`] holds one per virtual rank and replays the halo plan in
//! memory, a message-passing rank holds its own and sends the plan's
//! messages ([`RankMatrix::spmv`]) — the same kernels on the same storage,
//! so the two are bitwise identical.

use crate::halo::{HaloPlan, RankHalo};
use crate::layout::Layout;
use crate::sim::Sim;
use crate::vec::DistVec;
use pmg_comm::{halo_exchange, CommError, Transport};
use pmg_sparse::{
    for_each_tile, Bsr3Matrix, CsrMatrix, DenseMatrix, MaskedBsr3, MaskedBsr3Writer, MaskedRow,
    PatternFingerprint, RapPlan,
};
use std::borrow::Cow;
use std::sync::Arc;

/// A sparse matrix distributed by rows over `row_layout`, whose columns are
/// distributed by `col_layout` (square operators share one layout;
/// restriction operators use coarse rows × fine columns): one
/// [`RankMatrix`] share per rank.
#[derive(Clone, Debug)]
pub struct DistMatrix {
    row_layout: Arc<Layout>,
    col_layout: Arc<Layout>,
    ranks: Vec<RankMatrix>,
    /// Persistent coalesced ghost-exchange plan over `col_layout` (built
    /// once at distribution time and installed in every share).
    plan: Arc<HaloPlan>,
    spmv_traffic: Vec<(u64, u64)>,
}

/// One owned row, as `(global columns, values)`.
type Row<'a> = (&'a [usize], &'a [f64]);

/// The owned rows a share is built from or refreshed with: rows `owned` of
/// a global matrix, or (`owned` = `None`) every row of an owned-rows matrix.
#[derive(Clone, Copy)]
struct OwnedRows<'a> {
    a: &'a CsrMatrix,
    owned: Option<&'a [u32]>,
}

impl<'a> OwnedRows<'a> {
    fn len(&self) -> usize {
        self.owned.map_or(self.a.nrows(), <[u32]>::len)
    }

    fn row(&self, li: usize) -> Row<'a> {
        self.a.row(self.owned.map_or(li, |o| o[li] as usize))
    }

    /// Whether the rows are all of `a`'s, in order (an owned list is
    /// ascending, so as long as `a` it is `0..n`).
    fn whole(&self) -> bool {
        self.len() == self.a.nrows()
    }

    /// The rows' pattern over `a`'s columns: the fingerprint `a` carries
    /// when they are all of it, else one pass over the subset.
    fn pattern(&self) -> PatternFingerprint {
        match self.owned {
            Some(o) if !self.whole() => PatternFingerprint::of_rows(
                self.a.ncols(),
                o.iter().map(|&g| self.a.row(g as usize).0),
            ),
            _ => PatternFingerprint::of(self.a),
        }
    }
}

/// **One** rank's owned share of a distributed matrix: its rows split into
/// the owned-column block `diag` and the ghost-column block `off`, and the
/// halo plan. A [`DistMatrix`] holds one per virtual rank; a
/// message-passing rank builds only its own from the rows it owns (reading
/// nothing of other ranks' rows beyond the replicated layout).
///
/// Both go through the same construction, so for the same layouts and the
/// same global values the shares are **bitwise identical** — the parity
/// the sharded setup's tests pin against the simulated hierarchy.
///
/// A rank-local construction is two-phase because the halo-exchange plan
/// needs every rank's ghost list: build locally
/// ([`RankMatrix::from_local_rows`], `_blocked`), exchange
/// [`RankMatrix::ghosts`] over a transport collective, then
/// [`RankMatrix::install_plan`] with all ranks' lists (each rank builds the
/// identical plan from the identical inputs).
#[derive(Clone, Debug)]
pub struct RankMatrix {
    rank: usize,
    row_layout: Arc<Layout>,
    col_layout: Arc<Layout>,
    /// Local rows × owned columns, in the one form it is stored in.
    diag: Diag,
    /// Local rows × ghost columns, only ever scalar: a ghost block is a
    /// thin, ragged slice of a row (a rank may reference one or two of a
    /// remote vertex's dofs), so it has no blocked form.
    off: CsrMatrix,
    /// Global ids of ghost columns, ascending.
    ghosts: Vec<u32>,
    /// The halo plan over every rank of `col_layout`; `None` until
    /// [`RankMatrix::install_plan`].
    plan: Option<Arc<HaloPlan>>,
}

/// The owned-column block of a share, stored once — scalar CSR, or, for a
/// 3-dof operator on a vertex-aligned partition, the 3x3 tiles its products
/// run on, whose masks give back its scalar rows exactly — with the pattern
/// of the owned rows it was built from, in global columns: what a refresh
/// is checked against.
#[derive(Clone, Debug)]
enum Diag {
    /// `None` when the rows were the whole input and this rank owns every
    /// column: the block then *is* that input and carries its fingerprint.
    Csr(CsrMatrix, Option<PatternFingerprint>),
    /// The tiled block's pattern is also its [`LocalBlock::pattern`].
    Tiles(MaskedBsr3, PatternFingerprint),
}

impl Diag {
    fn pattern(&self) -> PatternFingerprint {
        match self {
            Diag::Csr(a, p) => p.unwrap_or_else(|| PatternFingerprint::of(a)),
            Diag::Tiles(_, p) => *p,
        }
    }

    /// Overwrite scalar row `i`'s values, in column order, from `vals`;
    /// returns how many were taken (see [`MaskedBsr3::set_row`]).
    fn set_row(&mut self, i: usize, vals: impl IntoIterator<Item = f64>) -> usize {
        match self {
            Diag::Csr(a, _) => (a.row_vals_mut(i).iter_mut().zip(vals))
                .map(|(slot, v)| *slot = v)
                .count(),
            Diag::Tiles(t, _) => t.set_row(i, vals),
        }
    }
}

/// A share's local block (owned rows × owned columns) read as scalar rows,
/// in the form the share stores it — no copy is made: CSR rows as they
/// are, or the promoted tiles' values where their masks have bits, which
/// are the same entries and the same value bits. What the block-Jacobi
/// smoother partitions and factors and the diagonal smoothers read. A
/// plain scalar matrix is a local block too (`From<&CsrMatrix>`).
#[derive(Clone, Copy, Debug)]
pub struct LocalBlock<'a> {
    block: BlockRef<'a>,
}

#[derive(Clone, Copy, Debug)]
enum BlockRef<'a> {
    Csr(&'a CsrMatrix),
    Tiles(&'a MaskedBsr3, PatternFingerprint),
}

impl<'a> From<&'a CsrMatrix> for LocalBlock<'a> {
    fn from(a: &'a CsrMatrix) -> LocalBlock<'a> {
        LocalBlock {
            block: BlockRef::Csr(a),
        }
    }
}

impl<'a> LocalBlock<'a> {
    /// Scalar rows.
    pub fn nrows(&self) -> usize {
        match self.block {
            BlockRef::Csr(a) => a.nrows(),
            BlockRef::Tiles(t, _) => t.nrows(),
        }
    }

    /// Scalar columns.
    pub fn ncols(&self) -> usize {
        match self.block {
            BlockRef::Csr(a) => a.ncols(),
            BlockRef::Tiles(t, _) => t.ncols(),
        }
    }

    /// Stored scalar entries.
    pub fn nnz(&self) -> usize {
        match self.block {
            BlockRef::Csr(a) => a.nnz(),
            BlockRef::Tiles(t, _) => t.nnz(),
        }
    }

    /// The key of the block's pattern, unchanged while its share is
    /// refreshed in place: a scalar block's own fingerprint (the value it
    /// carries, hashed at most once in its life), a tiled block's share's
    /// owned-rows fingerprint (the tiles have no scalar pattern to hash).
    pub fn pattern(&self) -> PatternFingerprint {
        match self.block {
            BlockRef::Csr(a) => PatternFingerprint::of(a),
            BlockRef::Tiles(_, p) => p,
        }
    }

    /// Resident bytes of the block as stored: the CSR arrays, or the tiles
    /// and their masks.
    pub fn memory_bytes(&self) -> u64 {
        use pmg_sparse::Operator;
        match self.block {
            BlockRef::Csr(a) => a.memory_bytes(),
            BlockRef::Tiles(t, _) => t.memory_bytes(),
        }
    }

    /// Scalar row `i`: `(local column, value)` in ascending column order.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + 'a {
        match self.block {
            BlockRef::Csr(a) => {
                let (cols, vals) = a.row(i);
                LocalRow::Csr(cols.iter().zip(vals))
            }
            BlockRef::Tiles(t, _) => LocalRow::Tiles(t.row(i)),
        }
    }

    /// Rows per block row of [`for_each_block`](Self::for_each_block): 3
    /// for a promoted block, 1 for scalar CSR.
    pub fn block_size(&self) -> usize {
        match self.block {
            BlockRef::Csr(_) => 1,
            BlockRef::Tiles(..) => 3,
        }
    }

    /// The pattern of block row `br`, values unread: `f(block column,
    /// mask)` per stored block, block columns ascending, bit `B·c + r` of
    /// the mask set when entry `(r, c)` is stored — a promoted block's
    /// tiles and their masks as stored, a scalar block's row `br` as
    /// `1 × 1` blocks (mask 1). The walk the smoother's partitioner reads
    /// its twin classes and their adjacency from.
    #[inline]
    pub fn for_each_block(&self, br: usize, mut f: impl FnMut(usize, u16)) {
        match self.block {
            BlockRef::Csr(a) => a.row(br).0.iter().for_each(|&j| f(j, 1)),
            BlockRef::Tiles(t, _) => t.block_row(br).for_each(|(bc, m)| f(bc, m)),
        }
    }

    /// `f(column, value)` for row `i`'s entries at or left of its
    /// diagonal, in ascending column order — the lower triangle the
    /// block-Jacobi smoother factors, read with one dispatch per row.
    #[inline]
    pub fn for_each_lower(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        match self.block {
            BlockRef::Csr(a) => {
                let (cols, vals) = a.row(i);
                let cut = cols.partition_point(|&j| j <= i);
                (cols[..cut].iter().zip(&vals[..cut])).for_each(|(&j, &v)| f(j, v));
            }
            BlockRef::Tiles(t, _) => t.for_each_lower(i, f),
        }
    }

    /// The main diagonal (missing entries are `0.0`).
    pub fn diag(&self) -> Vec<f64> {
        match self.block {
            BlockRef::Csr(a) => a.diag(),
            BlockRef::Tiles(t, _) => t.diag(),
        }
    }

    /// The block as scalar CSR, exactly (a copy, for tests and tools).
    pub fn to_csr(&self) -> CsrMatrix {
        match self.block {
            BlockRef::Csr(a) => a.clone(),
            BlockRef::Tiles(t, _) => t.to_csr(),
        }
    }

    /// The 3x3 tiles of a promoted block (`None`: scalar CSR).
    pub fn tiles(&self) -> Option<&'a Bsr3Matrix> {
        match self.block {
            BlockRef::Csr(_) => None,
            BlockRef::Tiles(t, _) => Some(t.tiles()),
        }
    }
}

/// A [`LocalBlock::row`] of either form.
enum LocalRow<'a> {
    Csr(std::iter::Zip<std::slice::Iter<'a, usize>, std::slice::Iter<'a, f64>>),
    Tiles(MaskedRow<'a>),
}

impl Iterator for LocalRow<'_> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            LocalRow::Csr(it) => it.next().map(|(&j, &v)| (j, v)),
            LocalRow::Tiles(it) => it.next(),
        }
    }

    /// One dispatch per row, then the form's own loop.
    #[inline]
    fn fold<B, F: FnMut(B, (usize, f64)) -> B>(self, init: B, mut f: F) -> B {
        match self {
            LocalRow::Csr(it) => it.fold(init, |acc, (&j, &v)| f(acc, (j, v))),
            LocalRow::Tiles(it) => it.fold(init, f),
        }
    }
}

/// Structural BSR3 eligibility — computable from the (replicated) layouts
/// alone, with no communication: global dimensions are multiples of 3 and
/// every rank's owned rows/columns come in vertex-aligned triples.
fn block3_eligible(row_layout: &Layout, col_layout: &Layout) -> bool {
    let nranks = row_layout.num_ranks();
    row_layout.num_global().is_multiple_of(3)
        && col_layout.num_global().is_multiple_of(3)
        && (0..nranks)
            .all(|r| aligned_triples(row_layout.owned(r)) && aligned_triples(col_layout.owned(r)))
}

impl DistMatrix {
    /// Distribute a global CSR matrix, every share's `diag` as scalar CSR.
    pub fn from_global(
        a: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
    ) -> DistMatrix {
        DistMatrix::distribute(a, row_layout, col_layout, false)
    }

    /// Distribute a global CSR matrix with every share's `diag` in 3x3
    /// tiles ([`MaskedBsr3`]), so `spmv` runs on contiguous tiles (PETSc's
    /// BAIJ optimization for 3-dof displacement operators), when the
    /// partition allows it; scalar CSR otherwise.
    ///
    /// Structural eligibility — computable from the replicated layouts
    /// alone, with no communication — all of:
    /// - global dimensions are multiples of 3,
    /// - every rank's owned rows and owned columns come in vertex-aligned
    ///   triples `(3v, 3v+1, 3v+2)` (the layout produced by
    ///   `Layout::expand_dofs(vertex_layout, 3)`).
    ///
    /// Ghost columns need not form whole blocks: the ghost-column block
    /// stays scalar CSR either way. The tiles are built straight from the
    /// owned rows, and the share keeps no scalar copy: its scalar rows are
    /// read through the tiles' masks ([`LocalBlock`]). On finite operands
    /// the blocked product is bitwise the scalar one: tiles materialize
    /// explicit zeros and preserve the per-row accumulation order.
    pub fn from_global_blocked(
        a: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
    ) -> DistMatrix {
        let blocked = block3_eligible(&row_layout, &col_layout);
        DistMatrix::distribute(a, row_layout, col_layout, blocked)
    }

    fn distribute(
        a: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
        blocked: bool,
    ) -> DistMatrix {
        assert_eq!(a.nrows(), row_layout.num_global());
        assert_eq!(a.ncols(), col_layout.num_global());
        let nranks = row_layout.num_ranks();
        assert_eq!(nranks, col_layout.num_ranks());

        let mut ranks: Vec<RankMatrix> = (0..nranks)
            .map(|r| {
                let rows = OwnedRows {
                    a,
                    owned: Some(row_layout.owned(r)),
                };
                RankMatrix::build(rows, row_layout.clone(), col_layout.clone(), r, blocked)
            })
            .collect();

        // Persistent exchange plan: the Sim charges exactly the plan's
        // messages, the transports send exactly the plan's messages.
        let ghost_lists: Vec<Vec<u32>> = ranks.iter().map(|m| m.ghosts.clone()).collect();
        let plan = Arc::new(HaloPlan::build(&col_layout, &ghost_lists));
        for m in &mut ranks {
            m.plan = Some(plan.clone());
        }

        let spmv_traffic = plan
            .ranks
            .iter()
            .map(|rh| (rh.recv.len() as u64, 8 * rh.recv_len() as u64))
            .collect();
        DistMatrix {
            row_layout,
            col_layout,
            ranks,
            plan,
            spmv_traffic,
        }
    }

    /// Take the values of `a`, a new state of the global matrix this was
    /// distributed from, in place. While `a` keeps that matrix's sparsity
    /// pattern (Newton on a fixed mesh) only values move — each share
    /// checks the pattern of its own owned rows and rewrites their values
    /// in the form it stores them; ghost lists, halo plan and the tiles'
    /// structure stay, nothing is allocated — and the result is
    /// bitwise what [`from_global`](Self::from_global) (`_blocked`, if this
    /// one is) builds from `a`; a changed pattern is exactly that rebuild.
    /// Returns whether the pattern held (counted: `distribute/refresh` /
    /// `distribute/rebuild`).
    pub fn refresh_from_global(&mut self, a: &CsrMatrix) -> bool {
        assert_eq!(a.nrows(), self.row_layout.num_global(), "row count changed");
        let mut changed = false;
        for m in &mut self.ranks {
            let owned = Some(self.row_layout.owned(m.rank));
            changed |= !m.refresh_rows(OwnedRows { a, owned });
        }
        if !changed {
            pmg_telemetry::counter_add("distribute/refresh", 1);
            return true;
        }
        pmg_telemetry::counter_add("distribute/rebuild", 1);
        let blocked = self.bsr3_routed();
        let (rows, cols) = (self.row_layout.clone(), self.col_layout.clone());
        *self = DistMatrix::distribute(a, rows, cols, blocked);
        false
    }

    /// Whether products run through the 3x3-blocked path.
    pub fn bsr3_routed(&self) -> bool {
        !self.ranks.is_empty() && self.ranks.iter().all(RankMatrix::bsr3_routed)
    }

    pub fn row_layout(&self) -> &Arc<Layout> {
        &self.row_layout
    }

    pub fn col_layout(&self) -> &Arc<Layout> {
        &self.col_layout
    }

    pub fn num_global_rows(&self) -> usize {
        self.row_layout.num_global()
    }

    pub fn nnz(&self) -> usize {
        self.ranks.iter().map(RankMatrix::nnz_local).sum()
    }

    /// Rank `r`'s share — what a message-passing rank holds of this
    /// operator.
    pub fn share(&self, r: usize) -> &RankMatrix {
        &self.ranks[r]
    }

    /// The local (owned-rows × owned-columns) block of rank `r`, read in
    /// place — the sub-domain matrix the block-Jacobi smoother factors.
    pub fn local_block(&self, r: usize) -> LocalBlock<'_> {
        self.ranks[r].local_block()
    }

    /// The persistent ghost-exchange plan this operator replays.
    pub fn halo_plan(&self) -> &Arc<HaloPlan> {
        &self.plan
    }

    /// Per rank, the `(messages, bytes)` one product's ghost exchange
    /// receives.
    pub(crate) fn spmv_traffic(&self) -> &[(u64, u64)] {
        &self.spmv_traffic
    }

    /// `y = A x`, charging one ghost exchange plus one compute superstep.
    pub fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        assert!(
            Arc::ptr_eq(x.layout(), &self.col_layout),
            "x layout mismatch"
        );
        assert!(
            Arc::ptr_eq(y.layout(), &self.row_layout),
            "y layout mismatch"
        );
        sim.exchange(&self.spmv_traffic);
        if self.bsr3_routed() {
            pmg_telemetry::counter_add("spmv/bsr3_routed", 1);
        }

        // Replay the persistent plan: each rank's ghost buffer is filled
        // from its peers' send lists (reads other ranks' parts — the
        // simulated message payloads), then the rank computes its rows
        // straight into its part of `y`, rank after rank. Same pack order
        // as the real transports. A rank without ghosts — every rank
        // of a one-rank run — allocates nothing.
        let plan = &self.plan;
        self.ranks
            .iter()
            .zip(y.parts_mut())
            .enumerate()
            .for_each(|(r, (m, yl))| {
                m.diag_spmv(x.part(r), yl);
                if m.off.nnz() == 0 {
                    return;
                }
                let mut gv = vec![0.0; m.ghosts.len()];
                for msg in &plan.ranks[r].recv {
                    let peer = msg.peer as usize;
                    let send = plan.ranks[peer].send_to(r);
                    for (&slot, &li) in msg.idx.iter().zip(&send.idx) {
                        gv[slot as usize] = x.part(peer)[li as usize];
                    }
                }
                m.off_accumulate(&gv, yl);
            });
        sim.compute_each(|r| 2 * self.ranks[r].nnz_local() as u64);
    }

    /// Reassemble the global matrix (testing / coarse-grid gather): a row is
    /// its owner's diag and off runs, each ascending in global id, merged —
    /// the input this was distributed from, entry for entry and bit for
    /// bit, whichever form the shares store `diag` in.
    pub fn to_global(&self) -> CsrMatrix {
        let n = self.row_layout.num_global();
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for g in 0..n {
            let r = self.row_layout.owner(g) as usize;
            let li = self.row_layout.local_index(g) as usize;
            self.ranks[r].for_each_global(li, |j, v| {
                col_idx.push(j);
                vals.push(v);
            });
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(n, self.col_layout.num_global(), row_ptr, col_idx, vals)
    }

    /// The global matrix written into the dense `d` (of its shape) — what a
    /// coarse direct solve gathers: [`to_global`](Self::to_global)'s
    /// entries, absent ones zero, with no CSR in between and no allocation.
    pub fn gather_dense(&self, d: &mut DenseMatrix) {
        let n = self.row_layout.num_global();
        assert_eq!((d.nrows(), d.ncols()), (n, self.col_layout.num_global()));
        for g in 0..n {
            let r = self.row_layout.owner(g) as usize;
            let li = self.row_layout.local_index(g) as usize;
            let row = d.row_mut(g);
            row.fill(0.0);
            self.ranks[r].for_each_global(li, |j, v| row[j] = v);
        }
    }

    /// The Galerkin product `R A Rᵀ` of this operator through `plan` (built
    /// from this operator's global matrix), written into `coarse` — a
    /// distribution of the plan's output pattern — in place: values only,
    /// as [`refresh_from_global`](Self::refresh_from_global) takes them,
    /// and bitwise what that refresh takes from
    /// [`RapPlan::execute`]'s CSR. No global matrix is formed. The plan
    /// reads this operator's values where its one share stores them as the
    /// plan's source tiles (one rank, promoted, a 3x3 vertex-block plan)
    /// and writes `coarse`'s where they are stored likewise; any other
    /// storage goes through a transient tile array — gathered from each
    /// row's owner, `diag` and `off` merged, or scattered to the owners'
    /// `diag` and `off` values. Counts `distribute/refresh` for `coarse`.
    ///
    /// # Panics
    /// If either operator's pattern is not the plan's (a tile or entry
    /// count off).
    pub fn galerkin_into(&self, plan: &RapPlan, coarse: &mut DistMatrix) {
        let a_tiles = self.source_tiles(plan);
        match coarse.plan_tiles_mut(plan.block_size()) {
            Some(c_tiles) => plan.execute_tiles(&a_tiles, c_tiles),
            None => {
                let mut c_tiles = vec![0.0; plan.output_len()];
                plan.execute_tiles(&a_tiles, &mut c_tiles);
                coarse.scatter_tiles(plan, &c_tiles);
            }
        }
        pmg_telemetry::counter_add("distribute/refresh", 1);
    }

    /// The Galerkin product `R A Rᵀ` of this operator through `plan` (built
    /// from this operator's global matrix) as a global CSR — what a build
    /// hands the next level — reading this operator's values as
    /// [`galerkin_into`](Self::galerkin_into) does: bitwise
    /// [`RapPlan::execute`] of the global matrix, without tiling it again.
    pub fn galerkin(&self, plan: &mut RapPlan) -> CsrMatrix {
        plan.execute_tiles_csr(&self.source_tiles(plan))
    }

    /// A plan's source tiles: this operator's own when its one share
    /// stores them so, else gathered.
    fn source_tiles(&self, plan: &RapPlan) -> Cow<'_, [f64]> {
        match self.plan_tiles(plan.block_size()) {
            Some(tiles) => Cow::Borrowed(tiles),
            None => Cow::Owned(self.gather_tiles(plan)),
        }
    }

    /// The values as a plan's source tiles in `block`-vertex tiles, when
    /// one promoted share holds every row and column and the plan runs in
    /// 3x3 tiles.
    fn plan_tiles(&self, block: usize) -> Option<&[f64]> {
        let [m] = &self.ranks[..] else {
            return None;
        };
        match (&m.diag, block) {
            (Diag::Tiles(t, _), 3) => Some(t.tile_values()),
            _ => None,
        }
    }

    /// [`plan_tiles`](Self::plan_tiles), to overwrite in place.
    fn plan_tiles_mut(&mut self, block: usize) -> Option<&mut [f64]> {
        let [m] = &mut self.ranks[..] else {
            return None;
        };
        match (&mut m.diag, block) {
            (Diag::Tiles(t, _), 3) => Some(t.tile_values_mut()),
            _ => None,
        }
    }

    /// A plan's source tiles read out of any storage: each global block
    /// row's scalar rows from their owners, in global columns.
    fn gather_tiles(&self, plan: &RapPlan) -> Vec<f64> {
        let block = plan.block_size();
        let mut tiles = vec![0.0; plan.source_len()];
        let mut rows: [(Vec<usize>, Vec<f64>); 3] = Default::default();
        for k in 0..self.num_global_rows() / block {
            for (s, (cols, vals)) in rows[..block].iter_mut().enumerate() {
                let g = k * block + s;
                let m = &self.ranks[self.row_layout.owner(g) as usize];
                cols.clear();
                vals.clear();
                m.for_each_global(self.row_layout.local_index(g) as usize, |j, v| {
                    cols.push(j);
                    vals.push(v);
                });
            }
            let cols: [&[usize]; 3] = std::array::from_fn(|s| &rows[s].0[..]);
            let vals: [&[f64]; 3] = std::array::from_fn(|s| &rows[s].1[..]);
            plan.tile_source_row(k, &cols[..block], &vals[..block], &mut tiles);
        }
        tiles
    }

    /// A plan's output tiles written into any storage: each share takes
    /// its owned rows' values in place.
    fn scatter_tiles(&mut self, plan: &RapPlan, c_tiles: &[f64]) {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for m in &mut self.ranks {
            let mut written = 0;
            for (li, &g) in self.row_layout.owned(m.rank).iter().enumerate() {
                plan.output_row(g as usize, c_tiles, &mut cols, &mut vals);
                written += m.set_row(li, &cols, &vals);
            }
            assert_eq!(
                written,
                m.nnz_local(),
                "the product's pattern is not this share's"
            );
        }
    }
}

impl RankMatrix {
    /// Build rank `rank`'s share from its owned rows — read out of a
    /// global CSR through the row layout ([`DistMatrix`]) or straight from
    /// an owned-rows CSR ([`from_local_rows`](Self::from_local_rows)); one
    /// function for both is what makes the two bitwise identical. A source
    /// row ascends in global column and owned and ghost columns keep that
    /// order locally, so the entries of both blocks land in order as they
    /// come: a counting pass finds the ghost columns, a second fills `off`
    /// and `diag` — the scalar CSR, or, `blocked`, the tiles, written
    /// straight from the source rows (no scalar copy is made). A rank
    /// that owns every row and every column numbers them as the input
    /// does, so its `diag` is the input's (cloned, or tiled from it) and
    /// `off` is empty — what the passes would build. No halo plan yet.
    fn build(
        rows: OwnedRows<'_>,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
        rank: usize,
        blocked: bool,
    ) -> RankMatrix {
        let nlocal = row_layout.local_len(rank);
        debug_assert_eq!(rows.len(), nlocal);
        let ncols = col_layout.local_len(rank);
        if blocked && rank == 0 {
            pmg_telemetry::counter_add("spmv/bsr3_promoted", 1);
        }
        let (diag, off, ghosts) = if rows.whole() && ncols == col_layout.num_global() {
            let diag = match blocked {
                true => Diag::Tiles(MaskedBsr3::from_csr(rows.a), rows.pattern()),
                false => Diag::Csr(rows.a.clone(), None),
            };
            (diag, CsrMatrix::zeros(nlocal, 0), Vec::new())
        } else if blocked {
            Self::split_tiled(rows, &col_layout, rank)
        } else {
            Self::split_scalar(rows, &col_layout, rank)
        };
        RankMatrix {
            diag,
            off,
            ghosts,
            plan: None,
            rank,
            row_layout,
            col_layout,
        }
    }

    /// The scalar split of [`build`](Self::build): `diag` and `off` as CSR,
    /// and the ghost columns.
    fn split_scalar(
        rows: OwnedRows<'_>,
        col_layout: &Layout,
        rank: usize,
    ) -> (Diag, CsrMatrix, Vec<u32>) {
        let (nlocal, ncols) = (rows.len(), col_layout.local_len(rank));
        let mine = |j: usize| col_layout.owner(j) as usize == rank;
        // Until deduplicated, `ghosts` has one entry per off-diagonal entry.
        let mut ghosts: Vec<u32> = Vec::new();
        let (mut diag_ptr, mut off_ptr) = (vec![0usize], vec![0usize]);
        let mut seen = 0;
        for li in 0..nlocal {
            let (cols, _) = rows.row(li);
            debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row not ascending");
            ghosts.extend(cols.iter().filter(|&&j| !mine(j)).map(|&j| j as u32));
            seen += cols.len();
            off_ptr.push(ghosts.len());
            diag_ptr.push(seen - ghosts.len());
        }
        let noff = off_ptr[nlocal];
        ghosts.sort_unstable();
        ghosts.dedup();

        // A row without ghost columns is all `diag`: no owner to look up.
        let ndiag = diag_ptr[nlocal];
        let (mut diag_cols, mut diag_vals) = (Vec::with_capacity(ndiag), Vec::with_capacity(ndiag));
        let (mut off_cols, mut off_vals) = (Vec::with_capacity(noff), Vec::with_capacity(noff));
        for li in 0..nlocal {
            let ghost_free = off_ptr[li] == off_ptr[li + 1];
            let (cols, vals) = rows.row(li);
            for (&j, &v) in cols.iter().zip(vals) {
                if !ghost_free && !mine(j) {
                    let ghost = ghosts.binary_search(&(j as u32));
                    off_cols.push(ghost.expect("collected in the first pass"));
                    off_vals.push(v);
                } else {
                    diag_cols.push(col_layout.local_index(j) as usize);
                    diag_vals.push(v);
                }
            }
        }
        let diag = CsrMatrix::from_parts(nlocal, ncols, diag_ptr, diag_cols, diag_vals);
        let off = CsrMatrix::from_parts(nlocal, ghosts.len(), off_ptr, off_cols, off_vals);
        (Diag::Csr(diag, Some(rows.pattern())), off, ghosts)
    }

    /// The tiled split of [`build`](Self::build): the owned rows come in
    /// vertex triples and each vertex's columns have one owner, so a block
    /// row is walked tile by tile ([`for_each_tile`]) and each tile's owner
    /// and local block column are looked up once per walk — one walk
    /// counts the tiles and collects the ghost columns, the second writes
    /// the owned tiles ([`MaskedBsr3Writer`]) and `off`.
    fn split_tiled(
        rows: OwnedRows<'_>,
        col_layout: &Layout,
        rank: usize,
    ) -> (Diag, CsrMatrix, Vec<u32>) {
        let (nlocal, ncols) = (rows.len(), col_layout.local_len(rank));
        let mine = |bc: usize| col_layout.owner(3 * bc) as usize == rank;
        let block_row =
            |br: usize| -> [Row<'_>; 3] { std::array::from_fn(|s| rows.row(3 * br + s)) };
        // Until deduplicated, `ghosts` has one entry per off-diagonal entry.
        let mut ghosts: Vec<u32> = Vec::new();
        let mut off_ptr = vec![0usize; nlocal + 1];
        let mut ntiles = 0;
        for br in 0..nlocal / 3 {
            let rs = block_row(br);
            for_each_tile::<3>(rs.map(|r| r.0), |bc, from, to| {
                if mine(bc) {
                    ntiles += 1;
                    return;
                }
                for s in 0..3 {
                    ghosts.extend(rs[s].0[from[s]..to[s]].iter().map(|&j| j as u32));
                    off_ptr[3 * br + s + 1] += to[s] - from[s];
                }
            });
        }
        for li in 0..nlocal {
            off_ptr[li + 1] += off_ptr[li];
        }
        ghosts.sort_unstable();
        ghosts.dedup();

        let noff = off_ptr[nlocal];
        let (mut off_cols, mut off_vals) = (vec![0usize; noff], vec![0.0; noff]);
        let mut tiles = MaskedBsr3Writer::new(nlocal, ncols, ntiles);
        for br in 0..nlocal / 3 {
            let rs = block_row(br);
            let mut at: [usize; 3] = std::array::from_fn(|s| off_ptr[3 * br + s]);
            for_each_tile::<3>(rs.map(|r| r.0), |bc, from, to| {
                if mine(bc) {
                    let local = col_layout.local_index(3 * bc) as usize / 3;
                    tiles.push_tile(local, &rs, from, to);
                    return;
                }
                for s in 0..3 {
                    for q in from[s]..to[s] {
                        let ghost = ghosts.binary_search(&(rs[s].0[q] as u32));
                        off_cols[at[s]] = ghost.expect("collected in the first pass");
                        off_vals[at[s]] = rs[s].1[q];
                        at[s] += 1;
                    }
                }
            });
            tiles.end_block_row();
        }
        let off = CsrMatrix::from_parts(nlocal, ghosts.len(), off_ptr, off_cols, off_vals);
        (Diag::Tiles(tiles.finish(), rows.pattern()), off, ghosts)
    }

    /// Build this rank's blocks from an **owned-rows** CSR: one row per
    /// owned global row (row `li` = global row `row_layout.owned(rank)[li]`,
    /// columns global), as produced by per-rank assembly or the sharded
    /// Galerkin kernel. Bitwise identical to this rank's share of
    /// [`DistMatrix::from_global`] on a global matrix with the same owned
    /// rows — but no rank ever holds that global matrix.
    pub fn from_local_rows(
        a_local: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
        rank: usize,
    ) -> RankMatrix {
        RankMatrix::from_owned_rows(a_local, row_layout, col_layout, rank, false)
    }

    /// [`from_local_rows`](Self::from_local_rows) with `diag` in 3x3 tiles
    /// when the layouts allow it — this rank's share of
    /// [`DistMatrix::from_global_blocked`], decided on the replicated
    /// layouts alone, so every rank decides alike with no communication.
    pub fn from_local_rows_blocked(
        a_local: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
        rank: usize,
    ) -> RankMatrix {
        let blocked = block3_eligible(&row_layout, &col_layout);
        RankMatrix::from_owned_rows(a_local, row_layout, col_layout, rank, blocked)
    }

    fn from_owned_rows(
        a_local: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
        rank: usize,
        blocked: bool,
    ) -> RankMatrix {
        assert_eq!(a_local.ncols(), col_layout.num_global());
        assert_eq!(
            a_local.nrows(),
            row_layout.local_len(rank),
            "one local row per owned row"
        );
        let rows = OwnedRows {
            a: a_local,
            owned: None,
        };
        RankMatrix::build(rows, row_layout, col_layout, rank, blocked)
    }

    /// The numeric half of [`build`](Self::build), for owned rows of the
    /// pattern this share was built from: one ordered walk rewrites the
    /// values of `diag`, in the form it is stored in, and `off` — a row
    /// without ghost columns goes whole into `diag`, any other row is split
    /// by column owner, same classification, same order, so same slots.
    /// Nothing is allocated, sorted or looked up. Rows of another pattern
    /// leave the share as it was and return `false`.
    ///
    /// Rows that are the whole input are checked by the fingerprint the
    /// input carries (hashed at most once in its life) against the one the
    /// share holds; a subset of a larger matrix is hashed here, on every
    /// call.
    fn refresh_rows(&mut self, rows: OwnedRows<'_>) -> bool {
        let nlocal = self.off.nrows();
        if rows.len() != nlocal || rows.pattern() != self.diag.pattern() {
            return false;
        }
        let written: usize = (0..nlocal)
            .map(|li| {
                let (cols, vals) = rows.row(li);
                self.set_row(li, cols, vals)
            })
            .sum();
        assert_eq!(written, self.nnz_local(), "pattern changed");
        true
    }

    /// Overwrite owned row `li`'s values from the row in global columns
    /// (`cols` ascending, this share's pattern of the row): a row without
    /// ghost columns goes whole into `diag`, any other row is split by
    /// column owner into `diag` and `off` — the classification and order of
    /// [`build`](Self::build), so the same slots. Returns the values
    /// written; a row of another pattern writes a different count.
    fn set_row(&mut self, li: usize, cols: &[usize], vals: &[f64]) -> usize {
        let off = self.off.row_ptr()[li]..self.off.row_ptr()[li + 1];
        if off.is_empty() {
            return self.diag.set_row(li, vals.iter().copied());
        }
        let (layout, rank) = (&self.col_layout, self.rank);
        let mut off_vals = self.off.vals_mut()[off].iter_mut();
        let mut o = 0;
        let mut owned = cols.iter().zip(vals).filter_map(|(&j, &v)| {
            if layout.owner(j) as usize == rank {
                return Some(v);
            }
            if let Some(slot) = off_vals.next() {
                *slot = v;
                o += 1;
            }
            None
        });
        let d = self.diag.set_row(li, &mut owned);
        owned.for_each(drop);
        d + o
    }

    /// Owned row `li` in global columns, `f(column, value)` per entry in
    /// ascending column: its `diag` and `off` runs, each ascending, merged
    /// — the row it was built or last refreshed from, entry for entry and
    /// bit for bit, whichever form `diag` is stored in.
    fn for_each_global(&self, li: usize, mut f: impl FnMut(usize, f64)) {
        let (owned, ghosts) = (self.col_layout.owned(self.rank), &self.ghosts);
        let (oc, ov) = self.off.row(li);
        let mut o = 0;
        for (j, v) in self.local_block().row(li) {
            let jg = owned[j] as usize;
            while o < oc.len() && (ghosts[oc[o]] as usize) < jg {
                f(ghosts[oc[o]] as usize, ov[o]);
                o += 1;
            }
            f(jg, v);
        }
        for (&k, &v) in oc[o..].iter().zip(&ov[o..]) {
            f(ghosts[k] as usize, v);
        }
    }

    /// [`DistMatrix::refresh_from_global`] for one rank's share: take the
    /// values of a new state of the owned-rows matrix in place (same
    /// kernel, so bitwise a fresh [`from_local_rows`](Self::from_local_rows)
    /// or `_blocked`, whichever built it). A changed pattern changes the
    /// ghost list, which every rank's halo plan depends on: the share is
    /// then left as it was and `false` returned, for the caller to go
    /// through the two-phase construction again.
    pub fn refresh_from_local_rows(&mut self, a_local: &CsrMatrix) -> bool {
        self.refresh_rows(OwnedRows {
            a: a_local,
            owned: None,
        })
    }

    /// Resident bytes of this rank's share as stored: `diag` (scalar CSR,
    /// or the promoted tiles at 76 B per tile — see
    /// [`Bsr3Matrix::memory_bytes`] — plus 2 B of mask per tile), the
    /// scalar `off` block and the ghost-column map. Feeds the
    /// `mem/level{N}/operator_bytes` gauges of the sharded setup path.
    pub fn memory_bytes(&self) -> u64 {
        use pmg_sparse::Operator;
        let bytes = self.local_block().memory_bytes() + self.off.memory_bytes();
        bytes + 4 * self.ghosts.len() as u64
    }

    /// This rank's ghost-column global ids (ascending) — the payload each
    /// rank contributes to the setup's ghost-list allgather.
    pub fn ghosts(&self) -> &[u32] {
        &self.ghosts
    }

    /// Install the halo-exchange plan from **all** ranks' ghost lists (as
    /// returned by the allgather of [`RankMatrix::ghosts`]). Every rank
    /// derives the identical plan from the identical replicated inputs.
    ///
    /// The lists arrived from peers, so they are checked first: one list
    /// per rank, this rank's own unchanged, and every list strictly
    /// ascending, inside the column range and free of columns its own rank
    /// owns. Anything else is [`CommError::Invalid`] and installs nothing.
    pub fn install_plan(&mut self, ghost_lists: &[Vec<u32>]) -> Result<(), CommError> {
        let layout = &self.col_layout;
        if ghost_lists.len() != layout.num_ranks() || ghost_lists[self.rank] != self.ghosts {
            return Err(CommError::Invalid(
                "ghost lists do not match this rank's machine".into(),
            ));
        }
        for (q, list) in ghost_lists.iter().enumerate() {
            let off_rank = |&g: &u32| {
                (g as usize) < layout.num_global() && layout.owner(g as usize) as usize != q
            };
            if !list.windows(2).all(|w| w[0] < w[1]) || !list.iter().all(off_rank) {
                return Err(CommError::Invalid(format!(
                    "rank {q}'s ghost list is not ascending off-rank columns"
                )));
            }
        }
        self.plan = Some(Arc::new(HaloPlan::build(layout, ghost_lists)));
        Ok(())
    }

    /// Whether products run through the 3x3-blocked path.
    pub fn bsr3_routed(&self) -> bool {
        matches!(self.diag, Diag::Tiles(..))
    }

    /// Row ownership layout (replicated).
    pub fn row_layout(&self) -> &Arc<Layout> {
        &self.row_layout
    }

    /// Column ownership layout (replicated).
    pub fn col_layout(&self) -> &Arc<Layout> {
        &self.col_layout
    }

    /// The local (owned-rows × owned-columns) block, read in place — what
    /// the block-Jacobi smoother factors.
    pub fn local_block(&self) -> LocalBlock<'_> {
        let block = match &self.diag {
            Diag::Csr(a, _) => BlockRef::Csr(a),
            Diag::Tiles(t, p) => BlockRef::Tiles(t, *p),
        };
        LocalBlock { block }
    }

    /// Stored scalar nonzeros of this rank's share (diag + off) — the
    /// source rows' count, not the tiles' nine per block.
    pub fn nnz_local(&self) -> usize {
        self.local_block().nnz() + self.off.nnz()
    }

    /// This rank's half of the halo plan.
    fn halo(&self) -> &RankHalo {
        let plan = self.plan.as_ref();
        &plan.expect("RankMatrix product before install_plan").ranks[self.rank]
    }

    /// `y_local = diag · x_local`, on the tiles once promoted.
    fn diag_spmv(&self, x_local: &[f64], y_local: &mut [f64]) {
        match &self.diag {
            Diag::Csr(a, _) => a.spmv(x_local, y_local),
            Diag::Tiles(t, _) => t.tiles().spmv(x_local, y_local),
        }
    }

    /// The off-diagonal (ghost-column) product accumulated into `y_local`,
    /// shared verbatim between the transport product and the simulated
    /// [`DistMatrix::spmv`], which the bitwise parity contract rests on.
    /// Each row of `off` sums its ghost entries in column order from
    /// `+0.0`, as [`CsrMatrix::spmv`] does, and adds the sum to its `diag`
    /// product. A row without ghost entries — most rows of a share — is
    /// skipped on its row pointers alone: its sum would be `+0.0`, which
    /// changes only `-0.0`, and no `diag` product leaves one (its sums
    /// start from `+0.0` too).
    fn off_accumulate(&self, ghost_vals: &[f64], y_local: &mut [f64]) {
        let (cols, vals) = (self.off.col_idx(), self.off.vals());
        for (ends, y) in self.off.row_ptr().windows(2).zip(y_local) {
            if ends[0] == ends[1] {
                continue;
            }
            let row = ends[0]..ends[1];
            *y += cols[row.clone()]
                .iter()
                .zip(&vals[row])
                .fold(0.0, |acc, (&j, &v)| acc + v * ghost_vals[j]);
        }
        pmg_sparse::flops::add(2 * self.off.nnz() as u64);
    }

    /// `y_local = A_rank · x` with a real halo exchange on message tag
    /// `tag`: sends this rank's owned values per the plan, computes the
    /// `diag` product while they are in flight, receives its ghosts and
    /// adds the `off` product — bitwise this rank's part of
    /// [`DistMatrix::spmv`] (including the BSR3 branch), which runs the
    /// same two kernels in the same order.
    ///
    /// All ranks of the machine must call this in lockstep with their own
    /// shares of the same operator and the same tag (each operator of a
    /// lockstep program uses its own tag).
    pub fn spmv<T: Transport>(
        &self,
        t: &mut T,
        tag: u32,
        x_local: &[f64],
        y_local: &mut [f64],
    ) -> Result<(), CommError> {
        let local = self.local_block();
        assert_eq!(x_local.len(), local.ncols(), "x_local length");
        assert_eq!(y_local.len(), local.nrows(), "y_local length");

        let halo = self.halo();
        let sends = halo.send.iter().map(|msg| {
            let packed = msg.idx.iter().map(|&li| x_local[li as usize]);
            (msg.peer as usize, packed)
        });
        let recvs = halo
            .recv
            .iter()
            .map(|msg| (msg.peer as usize, &msg.idx[..]));
        let mut ghost_vals = vec![0.0; self.ghosts.len()];
        let diag = || self.diag_spmv(x_local, y_local);
        halo_exchange(t, tag, sends, recvs, &mut ghost_vals, diag)?;
        self.off_accumulate(&ghost_vals, y_local);
        Ok(())
    }
}

/// Do the (ascending) global ids form whole vertex blocks `(3v, 3v+1, 3v+2)`?
fn aligned_triples(ids: &[u32]) -> bool {
    ids.len().is_multiple_of(3)
        && ids
            .chunks_exact(3)
            .all(|t| t[0].is_multiple_of(3) && t[1] == t[0] + 1 && t[2] == t[0] + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::MachineModel;
    use pmg_comm::LocalTransport;
    use pmg_sparse::CooBuilder;
    use rand::{Rng, SeedableRng};

    /// 1D Laplacian.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn distributed_spmv_matches_serial() {
        let n = 23;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut y_serial = vec![0.0; n];
        a.spmv(&x, &mut y_serial);

        for p in [1, 2, 3, 5, 8] {
            let l = Layout::block(n, p);
            let mut sim = Sim::new(p, MachineModel::default());
            let da = DistMatrix::from_global(&a, l.clone(), l.clone());
            let dx = DistVec::from_global(l.clone(), &x);
            let mut dy = DistVec::zeros(l);
            da.spmv(&mut sim, &dx, &mut dy);
            let yg = dy.to_global();
            for (u, v) in yg.iter().zip(&y_serial) {
                assert!((u - v).abs() < 1e-13, "p={p}");
            }
        }
    }

    #[test]
    fn spmv_with_scattered_layout() {
        // Round-robin ownership maximizes ghosts; result must not change.
        let n = 17;
        let a = laplacian(n);
        let owner: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let l = Layout::from_part(owner, 4);
        let mut sim = Sim::new(4, MachineModel::default());
        let da = DistMatrix::from_global(&a, l.clone(), l.clone());
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let dx = DistVec::from_global(l.clone(), &x);
        let mut dy = DistVec::zeros(l);
        da.spmv(&mut sim, &dx, &mut dy);
        let mut expect = vec![0.0; n];
        a.spmv(&x, &mut expect);
        assert_eq!(dy.to_global(), expect);
    }

    #[test]
    fn to_global_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut b = CooBuilder::new(12, 12);
        for _ in 0..40 {
            b.push(
                rng.gen_range(0..12),
                rng.gen_range(0..12),
                rng.gen_range(-5.0..5.0),
            );
        }
        let a = b.build();
        let l = Layout::block(12, 3);
        let da = DistMatrix::from_global(&a, l.clone(), l);
        assert_eq!(da.to_global(), a);
    }

    #[test]
    fn rectangular_restriction() {
        // R: 3x6, coarse rows on 2 ranks, fine cols on 2 ranks.
        let mut b = CooBuilder::new(3, 6);
        for c in 0..3 {
            b.push(c, 2 * c, 1.0);
            b.push(c, 2 * c + 1, 0.5);
        }
        let r = b.build();
        let lc = Layout::block(3, 2);
        let lf = Layout::block(6, 2);
        let mut sim = Sim::new(2, MachineModel::default());
        let dr = DistMatrix::from_global(&r, lc.clone(), lf.clone());
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let dx = DistVec::from_global(lf, &x);
        let mut dy = DistVec::zeros(lc);
        dr.spmv(&mut sim, &dx, &mut dy);
        let mut expect = vec![0.0; 3];
        r.spmv(&x, &mut expect);
        assert_eq!(dy.to_global(), expect);
    }

    /// Vertex-block tridiagonal operator with dense 3x3 blocks.
    fn block_laplacian(nb: usize) -> CsrMatrix {
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
    fn blocked_spmv_bitwise_matches_scalar() {
        let nb = 11;
        let a = block_laplacian(nb);
        // Vertex-aligned round-robin partition: maximizes ghosts while
        // keeping every rank's rows/ghosts in whole vertex triples.
        let p = 3;
        let mut owner = vec![0u32; 3 * nb];
        for v in 0..nb {
            for c in 0..3 {
                owner[3 * v + c] = (v % p) as u32;
            }
        }
        let l = Layout::from_part(owner, p);
        let scalar = DistMatrix::from_global(&a, l.clone(), l.clone());
        let blocked = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        assert!(!scalar.bsr3_routed());
        assert!(blocked.bsr3_routed());

        let x: Vec<f64> = (0..3 * nb).map(|i| (i as f64 * 0.7).sin()).collect();
        let dx = DistVec::from_global(l.clone(), &x);
        let mut y1 = DistVec::zeros(l.clone());
        let mut y2 = DistVec::zeros(l);
        let mut sim = Sim::new(p, MachineModel::default());
        scalar.spmv(&mut sim, &dx, &mut y1);
        blocked.spmv(&mut sim, &dx, &mut y2);
        // Bitwise equal: blocks preserve per-row accumulation order and
        // explicit zeros only add 0.0.
        assert_eq!(y1.to_global(), y2.to_global());
    }

    #[test]
    fn blocked_spmv_takes_partial_ghost_blocks() {
        // Inter-vertex coupling through a single scalar column, so ghost
        // columns do NOT form whole vertex blocks (as after Dirichlet
        // column elimination). Promotion must still happen: the ghost
        // block is scalar CSR and never needs whole blocks.
        let nb = 6;
        let mut b = CooBuilder::new(3 * nb, 3 * nb);
        for v in 0..nb {
            for i in 0..3 {
                for j in 0..3 {
                    b.push(3 * v + i, 3 * v + j, if i == j { 4.0 } else { -0.5 });
                }
                if v + 1 < nb {
                    b.push(3 * v + i, 3 * (v + 1) + 1, -0.25);
                }
                if v > 0 {
                    b.push(3 * v + i, 3 * (v - 1) + 2, -0.125);
                }
            }
        }
        let a = b.build();
        let mut owner = vec![0u32; 3 * nb];
        for v in 0..nb {
            for c in 0..3 {
                owner[3 * v + c] = (v / 3) as u32;
            }
        }
        let l = Layout::from_part(owner, 2);
        let scalar = DistMatrix::from_global(&a, l.clone(), l.clone());
        let blocked = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        assert!(blocked.bsr3_routed());
        // Each rank sees exactly one partial ghost block column.
        assert_eq!([0, 1].map(|r| blocked.share(r).ghosts().len()), [1, 1]);

        let x: Vec<f64> = (0..3 * nb).map(|i| (i as f64 * 1.3).cos()).collect();
        let dx = DistVec::from_global(l.clone(), &x);
        let mut y1 = DistVec::zeros(l.clone());
        let mut y2 = DistVec::zeros(l);
        let mut sim = Sim::new(2, MachineModel::default());
        scalar.spmv(&mut sim, &dx, &mut y1);
        blocked.spmv(&mut sim, &dx, &mut y2);
        assert_eq!(y1.to_global(), y2.to_global());
    }

    #[test]
    fn block3_rejects_misaligned_partitions() {
        // Scalar round-robin ownership splits vertex triples across ranks.
        let nb = 6;
        let a = block_laplacian(nb);
        let owner: Vec<u32> = (0..3 * nb).map(|i| (i % 2) as u32).collect();
        let l = Layout::from_part(owner, 2);
        let m = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        assert!(!m.bsr3_routed());
        assert_eq!(m.to_global(), a);
        // Dimensions not a multiple of 3.
        let a17 = laplacian(17);
        let l17 = Layout::block(17, 2);
        let m17 = DistMatrix::from_global_blocked(&a17, l17.clone(), l17);
        assert!(!m17.bsr3_routed());
    }

    /// Every rank's promoted share built on its own from its owned rows of
    /// `a`, the ghost lists then exchanged (here: collected in a plain Vec,
    /// standing in for the allgather).
    fn local_shares(a: &CsrMatrix, l: &Arc<Layout>) -> Vec<RankMatrix> {
        let mut shares: Vec<RankMatrix> = (0..l.num_ranks())
            .map(|r| {
                let rows = a.extract_rows(l.owned(r));
                RankMatrix::from_local_rows_blocked(&rows, l.clone(), l.clone(), r)
            })
            .collect();
        let ghost_lists: Vec<Vec<u32>> = shares.iter().map(|s| s.ghosts().to_vec()).collect();
        for s in &mut shares {
            s.install_plan(&ghost_lists).unwrap();
            assert!(s.bsr3_routed());
        }
        shares
    }

    #[test]
    fn rank_matrix_matches_dist_matrix_shares() {
        // The SPMD-setup path (each rank builds only its own share, from an
        // owned-rows CSR with no global matrix in sight) must produce
        // exactly the orchestrated distribution's shares — blocks, plan,
        // BSR3 promotion and pattern — the bitwise-parity foundation of
        // RankHierarchy::build_from_shards.
        let nb = 9;
        let a = block_laplacian(nb);
        let p = 3;
        let mut owner = vec![0u32; 3 * nb];
        for v in 0..nb {
            for c in 0..3 {
                owner[3 * v + c] = (v % p) as u32;
            }
        }
        let l = Layout::from_part(owner, p);
        let dist = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        assert!(dist.bsr3_routed());
        for (r, s) in local_shares(&a, &l).iter().enumerate() {
            assert_eq!(format!("{s:?}"), format!("{:?}", dist.share(r)), "rank {r}");
            assert!(s.memory_bytes() > 0, "rank {r} resident accounting");
        }
    }

    #[test]
    fn a_promoted_share_holds_tiles_masks_off_and_index_lists_only() {
        // Three vertices per rank: partial tiles inside `diag`, ghosts too.
        let l = Layout::from_part((0..27).map(|d| d / 9).collect(), 3);
        let a = partial_block_matrix(9, 9, 0);
        let dist = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        for r in 0..3 {
            let s = dist.share(r);
            let Diag::Tiles(t, _) = &s.diag else {
                panic!("rank {r} not promoted")
            };
            let tiles = t.tiles().memory_bytes();
            let masks = 2 * t.tiles().num_blocks() as u64;
            let off = 16 * s.off.nnz() as u64 + 8 * (s.off.nrows() + 1) as u64;
            let lists = 4 * s.ghosts.len() as u64;
            assert_eq!(s.memory_bytes(), tiles + masks + off + lists, "rank {r}");
            assert_eq!(s.local_block().memory_bytes(), tiles + masks, "rank {r}");
            // Stored scalar entries, not the tiles' nine per block.
            assert_eq!(s.nnz_local(), a.extract_rows(l.owned(r)).nnz(), "rank {r}");
            assert!(
                9 * t.tiles().num_blocks() > t.nnz(),
                "rank {r}: no partial tile"
            );
            assert!(!s.ghosts.is_empty(), "rank {r}: no ghost");
        }
    }

    #[test]
    fn to_global_gives_back_a_promoted_constrained_operator_exactly() {
        // Partial tiles (single-column couplings, as Dirichlet column
        // elimination leaves them) and stored zeros of both signs, on four
        // ranks with ghost columns and on one rank.
        let a = partial_block_matrix(9, 9, 2);
        assert!(a.vals().iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert!(a.vals().iter().any(|v| v.to_bits() == 0));
        for l in [scattered_layout(9), Layout::serial(27)] {
            let dist = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
            assert!(dist.bsr3_routed());
            assert_eq!(format!("{:?}", dist.to_global()), format!("{a:?}"));
            for r in 0..l.num_ranks() {
                let want = a.extract_rows(l.owned(r));
                let got = dist.local_block(r);
                assert_eq!(got.nnz() + dist.share(r).off.nnz(), want.nnz());
                let diag: Vec<u64> = got.diag().iter().map(|v| v.to_bits()).collect();
                let scalar = DistMatrix::from_global(&a, l.clone(), l.clone());
                let want_diag: Vec<u64> = scalar
                    .local_block(r)
                    .diag()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(diag, want_diag, "rank {r}");
                assert_eq!(
                    format!("{:?}", got.to_csr()),
                    format!("{:?}", scalar.local_block(r).to_csr()),
                    "rank {r}"
                );
            }
        }
    }

    #[test]
    fn corrupt_ghost_lists_are_typed_errors() {
        // A peer's list arrives off the wire: every kind of corruption is
        // a typed error, and nothing panics or gets installed.
        let a = laplacian(12);
        let l = Layout::block(12, 3);
        let dist = DistMatrix::from_global(&a, l.clone(), l.clone());
        let lists: Vec<Vec<u32>> = (0..3).map(|r| dist.share(r).ghosts().to_vec()).collect();
        assert_eq!(lists, [vec![4], vec![3, 8], vec![7]]);
        let share = || dist.share(0).clone();
        assert_eq!(share().install_plan(&lists), Ok(()));
        type Corrupt = fn(&mut Vec<Vec<u32>>);
        let corruptions: [(&str, Corrupt); 6] = [
            ("out of range", |ls| ls[2].push(12)),
            ("descending", |ls| ls[1].reverse()),
            ("repeated", |ls| ls[1].insert(1, 3)),
            ("owned by the lister", |ls| ls[2].push(9)),
            ("a list short", |ls| drop(ls.pop())),
            ("own list altered", |ls| ls[0].clear()),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = lists.clone();
            corrupt(&mut bad);
            let mut s = share();
            s.plan = None;
            assert!(
                matches!(s.install_plan(&bad), Err(CommError::Invalid(_))),
                "{what}"
            );
            assert!(s.plan.is_none(), "{what}: nothing installed");
        }
    }

    /// Vertex blocks coupled through single scalar columns (so ghost
    /// columns form *partial* vertex blocks, as after Dirichlet column
    /// elimination), `nbr x nbc` vertices; `t` varies the values — zeros of
    /// both signs included — on one fixed pattern.
    fn partial_block_matrix(nbr: usize, nbc: usize, t: usize) -> CsrMatrix {
        let val = |i: usize, j: usize| match (i * 7 + j * 3 + t) % 5 {
            0 => -0.0,
            1 => 0.0,
            k => (k as f64 - 2.5) * (1.0 + t as f64) + (i + j) as f64 * 0.125,
        };
        let mut b = CooBuilder::new(3 * nbr, 3 * nbc);
        for v in 0..nbr {
            for i in 0..3 {
                let row = 3 * v + i;
                for j in 0..3 {
                    b.push(row, 3 * (v % nbc) + j, val(row, j));
                }
                b.push(row, 3 * ((v + 1) % nbc) + 1, val(row, 4));
                b.push(row, 3 * ((v + 4) % nbc) + 2, val(row, 5));
            }
        }
        b.build()
    }

    /// Vertex-aligned scattered ownership over four ranks, rank 2 empty.
    fn scattered_layout(nb: usize) -> Arc<Layout> {
        let owner = (0..3 * nb).map(|d| [0, 1, 3][(d / 3) % 3]).collect();
        Layout::from_part(owner, 4)
    }

    fn spmv_bits(m: &DistMatrix) -> Vec<u64> {
        let x: Vec<f64> = (0..m.col_layout.num_global())
            .map(|i| (i as f64 * 0.7).sin())
            .collect();
        let dx = DistVec::from_global(m.col_layout.clone(), &x);
        let mut dy = DistVec::zeros(m.row_layout.clone());
        let mut sim = Sim::new(m.row_layout.num_ranks(), MachineModel::default());
        m.spmv(&mut sim, &dx, &mut dy);
        dy.to_global().iter().map(|v| v.to_bits()).collect()
    }

    /// Every field, private ones and the sign of every zero included.
    fn fields(m: &DistMatrix) -> String {
        format!("{m:?}")
    }

    #[test]
    fn refresh_is_field_for_field_a_rebuild() {
        type Build = fn(&CsrMatrix, Arc<Layout>, Arc<Layout>) -> DistMatrix;
        // Four ranks (rank 2 empty), whose shares hash their own rows, and
        // one, whose share is the whole input and reads its fingerprint.
        let layouts = [
            (scattered_layout(9), scattered_layout(5)),
            (Layout::serial(27), Layout::serial(15)),
        ];
        for (fine, coarse) in &layouts {
            // Square and blocked, square and scalar (eligible but
            // unpromoted: the matrix-free level 0), rectangular like a
            // restriction.
            let cases: [(usize, &Arc<Layout>, Build, bool); 3] = [
                (9, fine, DistMatrix::from_global_blocked, true),
                (9, fine, DistMatrix::from_global, false),
                (5, fine, DistMatrix::from_global, false),
            ];
            for (nbr, cols, build, blocked) in cases {
                let rows = if nbr == 9 { fine } else { coarse };
                let build = |a: &CsrMatrix| build(a, rows.clone(), cols.clone());
                let (a1, a2) = (
                    partial_block_matrix(nbr, 9, 0),
                    partial_block_matrix(nbr, 9, 1),
                );
                let mut m = build(&a1);
                assert_eq!(m.bsr3_routed(), blocked);
                let partial = |r: &RankMatrix| {
                    let mut blocks: Vec<u32> = r.ghosts.iter().map(|g| g / 3).collect();
                    blocks.dedup();
                    3 * blocks.len() > r.ghosts.len()
                };
                if fine.num_ranks() > 1 {
                    assert!(m.ranks.iter().any(partial), "no partial ghost block");
                } else {
                    let diag = format!("{:?}", m.local_block(0).to_csr());
                    assert_eq!(diag, format!("{a1:?}"), "a one-rank share is its input");
                }

                assert!(m.refresh_from_global(&a2), "same pattern");
                let cold = build(&a2);
                assert_eq!(
                    fields(&m),
                    fields(&cold),
                    "nbr = {nbr}, blocked = {blocked}"
                );
                assert_eq!(spmv_bits(&m), spmv_bits(&cold));
                assert_eq!(m.to_global(), a2);

                // One more stored entry: rebuilt, in the storage it had.
                let mut b = CooBuilder::new(a2.nrows(), a2.ncols());
                a2.iter().for_each(|(i, j, v)| b.push(i, j, v));
                b.push(1, 3 * 7 + 2, 0.5);
                let a3 = b.build();
                assert_eq!(a3.nnz(), a2.nnz() + 1);
                assert!(!m.refresh_from_global(&a3), "changed pattern");
                assert_eq!(fields(&m), fields(&build(&a3)));
                assert_eq!(m.bsr3_routed(), blocked);
                assert!(m.refresh_from_global(&a3), "and refreshed from there on");
            }
        }
    }

    #[test]
    fn a_promoted_share_rejects_an_entry_moved_inside_its_tile() {
        // Same stored count, same tiles, one scalar entry moved within its
        // tile: only the share's pattern fingerprint tells, and the share
        // is rebuilt, in tiles again.
        let a = partial_block_matrix(9, 9, 0);
        let mut b = CooBuilder::new(27, 27);
        a.iter()
            .for_each(|(i, j, v)| b.push(i, if (i, j) == (0, 4) { 3 } else { j }, v));
        let moved = b.build();
        assert_eq!(moved.nnz(), a.nnz());
        for l in [scattered_layout(9), Layout::serial(27)] {
            let mut m = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
            assert!(!m.refresh_from_global(&moved), "moved entry");
            let cold = DistMatrix::from_global_blocked(&moved, l.clone(), l.clone());
            assert_eq!(fields(&m), fields(&cold));
            assert!(m.bsr3_routed());
            assert_eq!(format!("{:?}", m.to_global()), format!("{moved:?}"));
        }
    }

    #[test]
    fn rank_share_refresh_is_the_orchestrated_refresh() {
        let l = scattered_layout(9);
        let (a1, a2) = (partial_block_matrix(9, 9, 0), partial_block_matrix(9, 9, 1));
        let cold = DistMatrix::from_global_blocked(&a2, l.clone(), l.clone());
        for (r, mut share) in local_shares(&a1, &l).into_iter().enumerate() {
            let local = |a: &CsrMatrix| a.extract_rows(l.owned(r));
            assert!(share.refresh_from_local_rows(&local(&a2)));
            assert_eq!(format!("{share:?}"), format!("{:?}", cold.share(r)));
            // A changed pattern changes the ghost list under the other
            // ranks' halo plans: declined, and the share left as it was.
            let changed = local(&partial_block_matrix(9, 9, 0).transpose());
            if changed.nnz() > 0 {
                assert!(!share.refresh_from_local_rows(&changed));
                assert_eq!(format!("{share:?}"), format!("{:?}", cold.share(r)));
            }
        }
    }

    #[test]
    fn ghosts_and_traffic_counted() {
        let n = 16;
        let a = laplacian(n);
        let l = Layout::block(n, 4);
        let mut sim = Sim::new(4, MachineModel::default());
        let da = DistMatrix::from_global(&a, l.clone(), l.clone());
        // Interior ranks of a block-partitioned 1D Laplacian have 2 ghosts.
        let ghosts = [0, 1, 2, 3].map(|r| da.share(r).ghosts().len());
        assert_eq!(ghosts, [1, 2, 2, 1]);
        let dx = DistVec::zeros(l.clone());
        let mut dy = DistVec::zeros(l);
        da.spmv(&mut sim, &dx, &mut dy);
        let phases = sim.finish();
        let p = &phases["default"];
        assert_eq!(p.ranks[1].msgs, 2);
        assert_eq!(p.ranks[1].bytes, 16);
        assert!(p.modeled_comm_time > 0.0);
    }

    #[test]
    fn transport_spmv_bitwise_matches_sim() {
        let n = 23;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        for p in [1, 2, 3, 5] {
            let l = Layout::block(n, p);
            let da = DistMatrix::from_global(&a, l.clone(), l.clone());
            let dx = DistVec::from_global(l.clone(), &x);
            let mut dy = DistVec::zeros(l.clone());
            let mut sim = Sim::new(p, MachineModel::default());
            da.spmv(&mut sim, &dx, &mut dy);
            let expect = dy.to_global();

            let da = &da;
            let l2 = &l;
            let x2 = &x;
            let parts = LocalTransport::run_ranks(p, move |mut t| {
                let r = t.rank();
                let op = da.share(r);
                let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
                let mut yl = vec![0.0; op.local_block().nrows()];
                op.spmv(&mut t, 7, &xl, &mut yl).unwrap();
                yl
            });
            let mut got = vec![0.0; n];
            for (r, part) in parts.iter().enumerate() {
                for (&g, &v) in l.owned(r).iter().zip(part) {
                    got[g as usize] = v;
                }
            }
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p}");
            }
        }
    }
}
