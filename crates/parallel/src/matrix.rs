//! Rank-partitioned sparse matrices with ghost-column exchange plans.
//!
//! Each rank owns the matrix rows of its owned indices (the paper's Athena
//! builds processor sub-domains so that "each processor can compute all
//! rows of the stiffness matrix associated with vertices that have been
//! partitioned to the processor"). Columns referencing other ranks' indices
//! are *ghosts*: before a product, ghost values are fetched from their
//! owners — one message per neighbor rank, 8 bytes per ghost value — which
//! is exactly what the BSP machine model charges.

use crate::halo::{HaloPlan, RankHalo};
use crate::layout::Layout;
use crate::rank::RankOp;
use crate::sim::Sim;
use crate::vec::DistVec;
use pmg_sparse::{Bsr3Matrix, CsrMatrix, PatternFingerprint};
use rayon::prelude::*;
use std::sync::Arc;

/// One rank's share of a distributed matrix.
#[derive(Clone, Debug)]
struct RankMat {
    /// Local rows × owned columns.
    diag: CsrMatrix,
    /// Local rows × ghost columns.
    off: CsrMatrix,
    /// 3x3-blocked copies of `diag`/`off`, present when the operator was
    /// promoted via [`DistMatrix::try_block3`]. The scalar matrices are
    /// kept: block-Jacobi factors `diag` directly ([`DistMatrix::local_block`]).
    diag_bsr: Option<Bsr3Matrix>,
    off_bsr: Option<Bsr3Matrix>,
    /// Padded ghost column of each ghost (`off_bsr` works on whole vertex
    /// blocks; ghost columns missing from a block — e.g. dropped by
    /// Dirichlet constraints — become explicit zero columns).
    ghost_pad: Vec<u32>,
    /// Global ids of ghost columns, ascending.
    ghosts: Vec<u32>,
    /// Row classes for communication/computation overlap, fixed at
    /// distribution time: *interior* rows reference no ghost column (their
    /// product needs nothing from the wire), *boundary* rows do. Ascending
    /// local row ids; together they partition `0..diag.nrows()`.
    interior: Vec<u32>,
    boundary: Vec<u32>,
    /// Block-row classes for the BSR3 path (a block row is boundary when
    /// any of its three scalar rows is), filled by `try_block3`.
    interior_b: Vec<u32>,
    boundary_b: Vec<u32>,
}

/// A sparse matrix distributed by rows over `row_layout`, whose columns are
/// distributed by `col_layout` (square operators share one layout;
/// restriction operators use coarse rows × fine columns).
#[derive(Clone, Debug)]
pub struct DistMatrix {
    row_layout: Arc<Layout>,
    col_layout: Arc<Layout>,
    ranks: Vec<RankMat>,
    /// Persistent coalesced ghost-exchange plan over `col_layout` (built
    /// once at distribution time, cached on the layout).
    plan: Arc<HaloPlan>,
    /// Pattern of the global matrix this was distributed from: while it
    /// holds, [`DistMatrix::refresh_from_global`] only rewrites values.
    pattern: PatternFingerprint,
    spmv_flops: Vec<u64>,
    spmv_traffic: Vec<(u64, u64)>,
}

/// One owned row, as `(global columns, values)`.
type Row<'a> = (&'a [usize], &'a [f64]);

/// Build rank `r`'s share from its `nlocal` owned rows, `row(li)` being
/// local row `li` — read out of a global CSR
/// through the row layout ([`DistMatrix`]) or straight from an owned-rows
/// CSR ([`RankMatrix`]); one function for both is what makes the two
/// bitwise identical. Two passes, count then fill: a source row ascends in
/// global column and owned and ghost columns keep that order locally, so
/// the entries of both blocks land in CSR order as they come.
fn build_rank_mat<'a>(
    nlocal: usize,
    row: impl Fn(usize) -> Row<'a>,
    col_layout: &Layout,
    r: usize,
) -> RankMat {
    let mine = |j: usize| col_layout.owner(j) as usize == r;
    // Until deduplicated, `ghosts` has one entry per off-diagonal entry.
    let mut ghosts: Vec<u32> = Vec::new();
    let (mut diag_ptr, mut off_ptr) = (vec![0usize], vec![0usize]);
    let mut seen = 0;
    for li in 0..nlocal {
        let (cols, _) = row(li);
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row not ascending");
        ghosts.extend(cols.iter().filter(|&&j| !mine(j)).map(|&j| j as u32));
        seen += cols.len();
        off_ptr.push(ghosts.len());
        diag_ptr.push(seen - ghosts.len());
    }
    // Row classes for the overlap: a row with any ghost-column entry is
    // boundary, the rest are interior and can be computed while the halo
    // messages are in flight.
    let (interior, boundary) =
        (0..nlocal as u32).partition(|&li| off_ptr[li as usize] == off_ptr[li as usize + 1]);
    let (ndiag, noff) = (diag_ptr[nlocal], off_ptr[nlocal]);
    ghosts.sort_unstable();
    ghosts.dedup();

    let (mut diag_cols, mut diag_vals) = (Vec::with_capacity(ndiag), Vec::with_capacity(ndiag));
    let (mut off_cols, mut off_vals) = (Vec::with_capacity(noff), Vec::with_capacity(noff));
    for li in 0..nlocal {
        let (cols, vals) = row(li);
        for (&j, &v) in cols.iter().zip(vals) {
            if mine(j) {
                diag_cols.push(col_layout.local_index(j) as usize);
                diag_vals.push(v);
            } else {
                let ghost = ghosts.binary_search(&(j as u32));
                off_cols.push(ghost.expect("collected in the first pass"));
                off_vals.push(v);
            }
        }
    }
    let ncols = col_layout.local_len(r);
    RankMat {
        diag: CsrMatrix::from_parts(nlocal, ncols, diag_ptr, diag_cols, diag_vals),
        off: CsrMatrix::from_parts(nlocal, ghosts.len(), off_ptr, off_cols, off_vals),
        diag_bsr: None,
        off_bsr: None,
        ghost_pad: Vec::new(),
        ghosts,
        interior,
        boundary,
        interior_b: Vec::new(),
        boundary_b: Vec::new(),
    }
}

impl RankMat {
    /// The numeric half of [`build_rank_mat`] and [`promote_block3`], for
    /// rows of the pattern this share was built from: one ordered walk
    /// rewrites the values of `diag` and `off` through a running cursor
    /// each — same classification, same order, so same slots — then the
    /// blocked copies take theirs. Nothing is allocated, sorted or looked up.
    fn refresh<'a>(&mut self, row: impl Fn(usize) -> Row<'a>, col_layout: &Layout, r: usize) {
        let nlocal = self.diag.nrows();
        let (diag_vals, off_vals) = (self.diag.vals_mut(), self.off.vals_mut());
        let (mut d, mut o) = (0, 0);
        for li in 0..nlocal {
            let (cols, vals) = row(li);
            for (&j, &v) in cols.iter().zip(vals) {
                if col_layout.owner(j) as usize == r {
                    diag_vals[d] = v;
                    d += 1;
                } else {
                    off_vals[o] = v;
                    o += 1;
                }
            }
        }
        assert_eq!((d, o), (diag_vals.len(), off_vals.len()), "pattern changed");
        if let Some(b) = &mut self.diag_bsr {
            b.refresh_from_csr(&self.diag, |j| j);
        }
        if let Some(b) = &mut self.off_bsr {
            b.refresh_from_csr(&self.off, |j| self.ghost_pad[j] as usize);
        }
    }

    /// This share's operator view for SPMD execution over its part of the
    /// halo plan, bound to message tag `tag`.
    fn op<'a>(&'a self, halo: &'a RankHalo, tag: u32) -> RankOp<'a> {
        RankOp {
            diag: &self.diag,
            off: &self.off,
            diag_bsr: self.diag_bsr.as_ref(),
            off_bsr: self.off_bsr.as_ref(),
            ghost_pad: &self.ghost_pad,
            nghosts: self.ghosts.len(),
            interior: &self.interior,
            boundary: &self.boundary,
            interior_b: &self.interior_b,
            boundary_b: &self.boundary_b,
            halo,
            tag,
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

/// Promote one rank's blocks to BSR3 storage (shared by
/// [`DistMatrix::try_block3`] and [`RankMatrix::try_block3`]; the caller
/// has already checked [`block3_eligible`]).
fn promote_block3(m: &mut RankMat) {
    m.diag_bsr = Some(Bsr3Matrix::from_csr(&m.diag));
    // Remap ghost columns onto whole vertex blocks, then block the
    // padded off-diagonal part. Ghosts are ascending, so padded
    // columns are ascending too and the scalar accumulation order
    // is preserved.
    let mut blocks: Vec<u32> = m.ghosts.iter().map(|&g| g / 3).collect();
    blocks.dedup();
    let padded = |g: u32| 3 * blocks.partition_point(|&w| w < g / 3) as u32 + g % 3;
    m.ghost_pad = m.ghosts.iter().map(|&g| padded(g)).collect();
    let pad = |j: usize| m.ghost_pad[j] as usize;
    m.off_bsr = Some(Bsr3Matrix::from_csr_cols(&m.off, 3 * blocks.len(), pad));
    // Block-row classes: a block row is boundary when any of its
    // three scalar rows references a ghost. `boundary` is
    // ascending, so mapping to block ids and deduplicating keeps
    // the ascending order.
    let mut bb: Vec<u32> = m.boundary.iter().map(|&r| r / 3).collect();
    bb.dedup();
    m.interior_b = (0..(m.diag.nrows() / 3) as u32)
        .filter(|br| bb.binary_search(br).is_err())
        .collect();
    m.boundary_b = bb;
}

impl DistMatrix {
    /// Distribute a global CSR matrix.
    pub fn from_global(
        a: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
    ) -> DistMatrix {
        assert_eq!(a.nrows(), row_layout.num_global());
        assert_eq!(a.ncols(), col_layout.num_global());
        let nranks = row_layout.num_ranks();
        assert_eq!(nranks, col_layout.num_ranks());

        let ranks: Vec<RankMat> = (0..nranks)
            .into_par_iter()
            .map(|r| {
                let owned = row_layout.owned(r);
                build_rank_mat(owned.len(), |li| a.row(owned[li] as usize), &col_layout, r)
            })
            .collect();

        // Persistent exchange plan: the Sim charges exactly the plan's
        // messages, the transports send exactly the plan's messages.
        let ghost_lists: Vec<Vec<u32>> = ranks.iter().map(|m| m.ghosts.clone()).collect();
        let plan = col_layout.halo_plan(&ghost_lists);

        let spmv_flops = ranks
            .iter()
            .map(|m| 2 * (m.diag.nnz() + m.off.nnz()) as u64)
            .collect();
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
            pattern: PatternFingerprint::of(a),
            spmv_flops,
            spmv_traffic,
        }
    }

    /// Distribute a global CSR matrix and promote it to the 3x3-blocked
    /// storage when the partition is vertex-aligned (see
    /// [`DistMatrix::try_block3`]); falls back to scalar CSR otherwise.
    pub fn from_global_blocked(
        a: &CsrMatrix,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
    ) -> DistMatrix {
        let mut m = DistMatrix::from_global(a, row_layout, col_layout);
        m.try_block3();
        m
    }

    /// Take the values of `a`, a new state of the global matrix this was
    /// distributed from, in place. While `a` keeps that matrix's sparsity
    /// pattern (Newton on a fixed mesh) only values move — ghost lists, halo
    /// plan, row classes and the blocked copies' structure stay, nothing is
    /// allocated — and the result is bitwise what
    /// [`from_global`](Self::from_global) (`_blocked`, if this one is) builds
    /// from `a`; a changed pattern is exactly that rebuild. Returns whether
    /// the pattern held (counted: `distribute/refresh` / `distribute/rebuild`).
    pub fn refresh_from_global(&mut self, a: &CsrMatrix) -> bool {
        if !self.pattern.matches(a) {
            pmg_telemetry::counter_add("distribute/rebuild", 1);
            let blocked = self.bsr3_routed();
            *self = DistMatrix::from_global(a, self.row_layout.clone(), self.col_layout.clone());
            if blocked {
                self.try_block3();
            }
            return false;
        }
        pmg_telemetry::counter_add("distribute/refresh", 1);
        let (row_layout, col_layout) = (&self.row_layout, &self.col_layout);
        self.ranks.par_iter_mut().enumerate().for_each(|(r, m)| {
            let owned = row_layout.owned(r);
            m.refresh(|li| a.row(owned[li] as usize), col_layout, r)
        });
        true
    }

    /// Promote the per-rank `diag`/`off` blocks to [`Bsr3Matrix`] storage so
    /// `spmv` runs on contiguous 3x3 tiles (PETSc's BAIJ optimization for
    /// 3-dof displacement operators).
    ///
    /// Structural eligibility — all of:
    /// - global dimensions are multiples of 3,
    /// - every rank's owned rows and owned columns come in vertex-aligned
    ///   triples `(3v, 3v+1, 3v+2)` (the layout produced by
    ///   `Layout::expand_dofs(vertex_layout, 3)`).
    ///
    /// Ghost columns need not form whole blocks: the off-diagonal part is
    /// padded up to whole vertex blocks (missing columns — e.g. dropped by
    /// Dirichlet constraints — become explicit zero columns).
    ///
    /// Returns whether promotion happened; ineligible operators are left
    /// untouched (scalar CSR path). The blocked product is numerically
    /// identical to the scalar one: blocks materialize explicit zeros and
    /// preserve the per-row accumulation order.
    pub fn try_block3(&mut self) -> bool {
        if !block3_eligible(&self.row_layout, &self.col_layout) {
            return false;
        }
        self.ranks.par_iter_mut().for_each(promote_block3);
        pmg_telemetry::counter_add("spmv/bsr3_promoted", 1);
        true
    }

    /// Whether products run through the 3x3-blocked path.
    pub fn bsr3_routed(&self) -> bool {
        !self.ranks.is_empty() && self.ranks.iter().all(|m| m.diag_bsr.is_some())
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
        self.ranks.iter().map(|m| m.diag.nnz() + m.off.nnz()).sum()
    }

    /// The local (owned-rows × owned-columns) block of rank `r` — the
    /// sub-domain matrix the block-Jacobi smoother factors.
    pub fn local_block(&self, r: usize) -> &CsrMatrix {
        &self.ranks[r].diag
    }

    /// Per-rank ghost counts (diagnostics).
    pub fn ghost_counts(&self) -> Vec<usize> {
        self.ranks.iter().map(|m| m.ghosts.len()).collect()
    }

    /// The persistent ghost-exchange plan this operator replays.
    pub fn halo_plan(&self) -> &Arc<HaloPlan> {
        &self.plan
    }

    /// Rank `r`'s borrowed view for SPMD execution over a real transport,
    /// bound to message tag `tag`. The view computes bitwise the same
    /// product as [`DistMatrix::spmv`] (including the BSR3 branch).
    pub fn rank_op(&self, r: usize, tag: u32) -> RankOp<'_> {
        self.ranks[r].op(&self.plan.ranks[r], tag)
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
        // straight into its part of `y`, all ranks in parallel. Same pack
        // order as the real transports. A rank without ghosts — every rank
        // of a one-rank run — allocates nothing.
        let plan = &self.plan;
        self.ranks
            .par_iter()
            .zip(y.par_parts_mut())
            .enumerate()
            .for_each(|(r, (m, yl))| {
                let xl = x.part(r);
                match &m.diag_bsr {
                    Some(db) => db.spmv(xl, yl),
                    None => m.diag.spmv(xl, yl),
                }
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
                m.op(&plan.ranks[r], 0).off_accumulate(&gv, yl);
            });
        sim.compute(&self.spmv_flops);
    }

    /// Reassemble the global matrix (testing / coarse-grid gather): a row is
    /// its owner's diag and off runs, each ascending in global id, merged.
    pub fn to_global(&self) -> CsrMatrix {
        let n = self.row_layout.num_global();
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for g in 0..n {
            let r = self.row_layout.owner(g) as usize;
            let (mat, li) = (&self.ranks[r], self.row_layout.local_index(g) as usize);
            let (owned, ghosts) = (self.col_layout.owned(r), &mat.ghosts);
            let ((dc, dv), (oc, ov)) = (mat.diag.row(li), mat.off.row(li));
            let (mut d, mut o) = (0, 0);
            while d < dc.len() || o < oc.len() {
                if o == oc.len() || (d < dc.len() && owned[dc[d]] < ghosts[oc[o]]) {
                    col_idx.push(owned[dc[d]] as usize);
                    vals.push(dv[d]);
                    d += 1;
                } else {
                    col_idx.push(ghosts[oc[o]] as usize);
                    vals.push(ov[o]);
                    o += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(n, self.col_layout.num_global(), row_ptr, col_idx, vals)
    }
}

/// **One** rank's owned share of a distributed matrix — the SPMD-setup
/// counterpart of [`DistMatrix`], which holds *all* ranks' shares.
///
/// Built by the distributed setup pipeline, where each rank constructs
/// only its own operator blocks from the rows it owns (reading nothing of
/// other ranks' rows beyond the replicated layout). The construction goes
/// through the same `build_rank_mat` as [`DistMatrix::from_global`],
/// so for the same layouts and the same global values the per-rank blocks
/// are **bitwise identical** to the orchestrated distribution — the parity
/// the `RankHierarchy::extract` oracle tests pin.
///
/// Construction is two-phase because the halo-exchange plan needs every
/// rank's ghost list: build locally ([`RankMatrix::from_local_rows`]),
/// exchange [`RankMatrix::ghosts`] over a transport collective, then
/// [`RankMatrix::install_plan`] with all ranks' lists (each rank builds the
/// identical plan from the identical inputs, cached on the layout).
#[derive(Clone, Debug)]
pub struct RankMatrix {
    rank: usize,
    row_layout: Arc<Layout>,
    col_layout: Arc<Layout>,
    mat: RankMat,
    plan: Option<Arc<HaloPlan>>,
    /// Pattern of the owned-rows matrix the share was built from.
    pattern: PatternFingerprint,
}

impl RankMatrix {
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
        assert_eq!(a_local.ncols(), col_layout.num_global());
        assert_eq!(
            a_local.nrows(),
            row_layout.local_len(rank),
            "one local row per owned row"
        );
        let mat = build_rank_mat(a_local.nrows(), |li| a_local.row(li), &col_layout, rank);
        RankMatrix {
            rank,
            row_layout,
            col_layout,
            mat,
            plan: None,
            pattern: PatternFingerprint::of(a_local),
        }
    }

    /// [`DistMatrix::refresh_from_global`] for one rank's share: take the
    /// values of a new state of the owned-rows matrix in place (same
    /// kernel, so bitwise a fresh [`from_local_rows`](Self::from_local_rows)
    /// plus promotion). A changed pattern changes the ghost list, which
    /// every rank's halo plan depends on: the share is then left as it
    /// was and `false` returned, for the caller to go through the
    /// two-phase construction again.
    pub fn refresh_from_local_rows(&mut self, a_local: &CsrMatrix) -> bool {
        if !self.pattern.matches(a_local) {
            return false;
        }
        self.mat
            .refresh(|li| a_local.row(li), &self.col_layout, self.rank);
        true
    }

    /// Resident bytes of this rank's share: scalar diag/off CSR blocks plus
    /// any promoted BSR3 copies as they are stored (76 B per tile, see
    /// [`Bsr3Matrix::memory_bytes`]; they keep the scalar blocks alive — the
    /// block-Jacobi smoother factors `diag` directly), the ghost-column map
    /// and the overlap row classes. Feeds the
    /// `mem/level{N}/operator_bytes` gauges of the sharded setup path.
    pub fn memory_bytes(&self) -> u64 {
        use pmg_sparse::Operator;
        let m = &self.mat;
        let mut bytes = m.diag.memory_bytes() + m.off.memory_bytes();
        if let Some(b) = &m.diag_bsr {
            bytes += b.memory_bytes();
        }
        if let Some(b) = &m.off_bsr {
            bytes += b.memory_bytes();
        }
        bytes += (m.ghosts.len() * 4 + m.ghost_pad.len() * 4) as u64;
        let classes = [&m.interior, &m.boundary, &m.interior_b, &m.boundary_b];
        bytes += classes.iter().map(|c| c.len() as u64 * 4).sum::<u64>();
        bytes
    }

    /// This rank's ghost-column global ids (ascending) — the payload each
    /// rank contributes to the setup's ghost-list allgather.
    pub fn ghosts(&self) -> &[u32] {
        &self.mat.ghosts
    }

    /// Install the halo-exchange plan from **all** ranks' ghost lists (as
    /// returned by the allgather of [`RankMatrix::ghosts`]). Every rank
    /// derives the identical plan from the identical replicated inputs;
    /// the layout's fingerprint cache dedupes plan construction.
    pub fn install_plan(&mut self, ghost_lists: &[Vec<u32>]) {
        assert_eq!(ghost_lists.len(), self.col_layout.num_ranks());
        assert_eq!(ghost_lists[self.rank], self.mat.ghosts);
        self.plan = Some(self.col_layout.halo_plan(ghost_lists));
    }

    /// Promote this rank's blocks to BSR3 storage when the layouts are
    /// vertex-aligned (same structural test as [`DistMatrix::try_block3`],
    /// evaluated on the replicated layouts — no communication). Returns
    /// whether promotion happened.
    pub fn try_block3(&mut self) -> bool {
        if !block3_eligible(&self.row_layout, &self.col_layout) {
            return false;
        }
        promote_block3(&mut self.mat);
        if self.rank == 0 {
            pmg_telemetry::counter_add("spmv/bsr3_promoted", 1);
        }
        true
    }

    /// Whether products run through the 3x3-blocked path.
    pub fn bsr3_routed(&self) -> bool {
        self.mat.diag_bsr.is_some()
    }

    /// The rank this share belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Row ownership layout (replicated).
    pub fn row_layout(&self) -> &Arc<Layout> {
        &self.row_layout
    }

    /// Column ownership layout (replicated).
    pub fn col_layout(&self) -> &Arc<Layout> {
        &self.col_layout
    }

    /// The local (owned-rows × owned-columns) block — what the block-Jacobi
    /// smoother factors.
    pub fn local_block(&self) -> &CsrMatrix {
        &self.mat.diag
    }

    /// Stored nonzeros of this rank's share (diag + off).
    pub fn nnz_local(&self) -> usize {
        self.mat.diag.nnz() + self.mat.off.nnz()
    }

    /// This rank's operator view for SPMD execution, bound to message tag
    /// `tag`. Panics if [`RankMatrix::install_plan`] has not run.
    pub fn rank_op(&self, tag: u32) -> RankOp<'_> {
        let plan = self
            .plan
            .as_ref()
            .expect("RankMatrix::rank_op before install_plan (halo plan missing)");
        self.mat.op(&plan.ranks[self.rank], tag)
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
    fn blocked_spmv_pads_partial_ghost_blocks() {
        // Inter-vertex coupling through a single scalar column, so ghost
        // columns do NOT form whole vertex blocks (as after Dirichlet
        // column elimination). The off part must be padded, not rejected.
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
        assert_eq!(blocked.ghost_counts(), vec![1, 1]);

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
        let mut m = DistMatrix::from_global(&a, l.clone(), l.clone());
        assert!(!m.try_block3());
        assert!(!m.bsr3_routed());
        // Dimensions not a multiple of 3.
        let a17 = laplacian(17);
        let l17 = Layout::block(17, 2);
        let mut m17 = DistMatrix::from_global(&a17, l17.clone(), l17);
        assert!(!m17.try_block3());
    }

    #[test]
    fn rank_matrix_matches_dist_matrix_shares() {
        // The SPMD-setup path (each rank builds only its own share, from an
        // owned-rows CSR with no global matrix in sight) must produce
        // exactly the orchestrated distribution's per-rank blocks, plans,
        // and BSR3 promotion — the bitwise-parity foundation of
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

        // Each "rank" builds locally, then the ghost lists are exchanged
        // (here: collected in a plain Vec, standing in for the allgather).
        let mut shares: Vec<RankMatrix> = (0..p)
            .map(|r| {
                RankMatrix::from_local_rows(&a.extract_rows(l.owned(r)), l.clone(), l.clone(), r)
            })
            .collect();
        let ghost_lists: Vec<Vec<u32>> = shares.iter().map(|s| s.ghosts().to_vec()).collect();
        for s in &mut shares {
            s.install_plan(&ghost_lists);
            assert!(s.try_block3());
        }

        for (r, s) in shares.iter().enumerate() {
            let m = &dist.ranks[r];
            assert_eq!(s.mat.diag, m.diag, "rank {r} diag");
            assert_eq!(s.mat.off, m.off, "rank {r} off");
            assert_eq!(s.mat.ghosts, m.ghosts, "rank {r} ghosts");
            assert_eq!(s.mat.ghost_pad, m.ghost_pad, "rank {r} ghost_pad");
            assert_eq!(s.mat.interior, m.interior, "rank {r} interior");
            assert_eq!(s.mat.boundary, m.boundary, "rank {r} boundary");
            assert_eq!(s.mat.interior_b, m.interior_b, "rank {r} interior_b");
            assert_eq!(s.mat.boundary_b, m.boundary_b, "rank {r} boundary_b");
            assert_eq!(s.nnz_local(), m.diag.nnz() + m.off.nnz(), "rank {r} nnz");
            assert!(s.memory_bytes() > 0, "rank {r} resident accounting");
            // The plan is structurally the same object contents.
            let sp = s.plan.as_ref().unwrap();
            assert_eq!(sp.ranks.len(), dist.plan.ranks.len());
            assert_eq!(
                sp.ranks[r].recv.len(),
                dist.plan.ranks[r].recv.len(),
                "rank {r} recv manifest"
            );
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
        let mut sim = Sim::new(4, MachineModel::default());
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
        let (fine, coarse) = (scattered_layout(9), scattered_layout(5));
        assert_eq!(fine.local_len(2), 0);
        // Square and blocked, square and scalar (eligible but unpromoted:
        // the matrix-free level 0), rectangular like a restriction.
        let cases: [(usize, &Arc<Layout>, Build, bool); 3] = [
            (9, &fine, DistMatrix::from_global_blocked, true),
            (9, &fine, DistMatrix::from_global, false),
            (5, &fine, DistMatrix::from_global, false),
        ];
        for (nbr, cols, build, blocked) in cases {
            let rows = if nbr == 9 { &fine } else { &coarse };
            let build = |a: &CsrMatrix| build(a, rows.clone(), cols.clone());
            let (a1, a2) = (
                partial_block_matrix(nbr, 9, 0),
                partial_block_matrix(nbr, 9, 1),
            );
            let mut m = build(&a1);
            assert_eq!(m.bsr3_routed(), blocked);
            let partial = |r: &RankMat| {
                let mut blocks: Vec<u32> = r.ghosts.iter().map(|g| g / 3).collect();
                blocks.dedup();
                3 * blocks.len() > r.ghosts.len()
            };
            assert!(m.ranks.iter().any(partial), "no partial ghost block");

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

    #[test]
    fn rank_share_refresh_is_the_orchestrated_refresh() {
        let l = scattered_layout(9);
        let (a1, a2) = (partial_block_matrix(9, 9, 0), partial_block_matrix(9, 9, 1));
        let cold = DistMatrix::from_global_blocked(&a2, l.clone(), l.clone());
        for r in 0..4 {
            let local = |a: &CsrMatrix| a.extract_rows(l.owned(r));
            let mut share = RankMatrix::from_local_rows(&local(&a1), l.clone(), l.clone(), r);
            assert!(share.try_block3());
            assert!(share.refresh_from_local_rows(&local(&a2)));
            assert_eq!(format!("{:?}", share.mat), format!("{:?}", cold.ranks[r]));
            // A changed pattern changes the ghost list under the other
            // ranks' halo plans: declined, and the share left as it was.
            let changed = local(&partial_block_matrix(9, 9, 0).transpose());
            if changed.nnz() > 0 {
                assert!(!share.refresh_from_local_rows(&changed));
                assert_eq!(format!("{:?}", share.mat), format!("{:?}", cold.ranks[r]));
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
        let ghosts = da.ghost_counts();
        assert_eq!(ghosts, vec![1, 2, 2, 1]);
        let dx = DistVec::zeros(l.clone());
        let mut dy = DistVec::zeros(l);
        da.spmv(&mut sim, &dx, &mut dy);
        let phases = sim.finish();
        let p = &phases["default"];
        assert_eq!(p.ranks[1].msgs, 2);
        assert_eq!(p.ranks[1].bytes, 16);
        assert!(p.modeled_comm_time > 0.0);
    }
}
