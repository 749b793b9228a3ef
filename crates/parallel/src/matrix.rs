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
//! messages ([`RankMatrix::spmv`], [`RankMatrix::spmv_overlapped`]) — the
//! same kernels on the same storage, so the two are bitwise identical.

use crate::halo::{HaloPlan, RankHalo};
use crate::layout::Layout;
use crate::sim::Sim;
use crate::vec::DistVec;
use pmg_comm::{CommError, HaloExchange, Transport};
use pmg_sparse::{Bsr3Matrix, CsrMatrix, PatternFingerprint};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
/// the owned-column block `diag` and the ghost-column block `off`, the
/// 3x3-blocked copy of `diag`, the row classes of the overlapped product
/// and the halo plan. A [`DistMatrix`] holds one per virtual rank; a
/// message-passing rank builds only its own from the rows it owns
/// (reading nothing of other ranks' rows beyond the replicated layout).
///
/// Both go through the same construction, so for the same layouts and the
/// same global values the shares are **bitwise identical** — the parity
/// the sharded setup's tests pin against the simulated hierarchy.
///
/// A rank-local construction is two-phase because the halo-exchange plan
/// needs every rank's ghost list: build locally
/// ([`RankMatrix::from_local_rows`]), exchange [`RankMatrix::ghosts`] over a
/// transport collective, then [`RankMatrix::install_plan`] with all ranks'
/// lists (each rank builds the identical plan from the identical inputs).
#[derive(Clone, Debug)]
pub struct RankMatrix {
    rank: usize,
    row_layout: Arc<Layout>,
    col_layout: Arc<Layout>,
    /// Local rows × owned columns.
    diag: CsrMatrix,
    /// Local rows × ghost columns, only ever scalar: a ghost block is a
    /// thin, ragged slice of a row (a rank may reference one or two of a
    /// remote vertex's dofs), so it has no blocked copy.
    off: CsrMatrix,
    /// 3x3-blocked copy of `diag`, present when the operator was promoted
    /// via [`RankMatrix::try_block3`]. The scalar `diag` is kept:
    /// block-Jacobi factors it directly ([`RankMatrix::local_block`]).
    diag_bsr: Option<Bsr3Matrix>,
    /// Global ids of ghost columns, ascending.
    ghosts: Vec<u32>,
    /// Row classes for communication/computation overlap, fixed at
    /// distribution time and counted in the rows the `diag` product runs —
    /// scalar rows, or block rows once promoted: *interior* rows reference
    /// no ghost column (their product needs nothing from the wire),
    /// *boundary* rows do (a block row when any of its three scalar rows
    /// does). Ascending ids; together they partition the local rows.
    interior: Vec<u32>,
    boundary: Vec<u32>,
    /// The halo plan over every rank of `col_layout`; `None` until
    /// [`RankMatrix::install_plan`].
    plan: Option<Arc<HaloPlan>>,
    /// Pattern of the owned rows the share was built from, in global
    /// columns — `None` when they were the whole input and this rank owns
    /// every column: `diag` then *is* that pattern and carries its
    /// fingerprint.
    pattern: Option<PatternFingerprint>,
}

/// What one overlapped product hid: the interior-compute window that ran
/// while the halo messages were in flight, and the row-split sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlapInfo {
    /// Wall-clock seconds of the interior-compute window between
    /// [`HaloExchange::start`] and [`HaloExchange::finish`] — latency the
    /// overlap can hide (the blocked remainder shows up in the transport's
    /// wait clock, not here).
    pub hidden_s: f64,
    /// Scalar rows computed inside the window (no ghost references).
    pub interior_rows: u64,
    /// Scalar rows computed after the ghosts arrived.
    pub boundary_rows: u64,
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

        let mut ranks: Vec<RankMatrix> = (0..nranks)
            .into_par_iter()
            .map(|r| {
                let rows = OwnedRows {
                    a,
                    owned: Some(row_layout.owned(r)),
                };
                RankMatrix::build(rows, row_layout.clone(), col_layout.clone(), r)
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
    /// pattern (Newton on a fixed mesh) only values move — each share
    /// checks the pattern of its own owned rows and rewrites their values;
    /// ghost lists, halo plan, row classes and the blocked copy's
    /// structure stay, nothing is allocated — and the result is bitwise
    /// what [`from_global`](Self::from_global) (`_blocked`, if this one is)
    /// builds from `a`; a changed pattern is exactly that rebuild. Returns
    /// whether the pattern held (counted: `distribute/refresh` /
    /// `distribute/rebuild`).
    pub fn refresh_from_global(&mut self, a: &CsrMatrix) -> bool {
        assert_eq!(a.nrows(), self.row_layout.num_global(), "row count changed");
        let (row_layout, changed) = (&self.row_layout, AtomicBool::new(false));
        self.ranks.par_iter_mut().for_each(|m| {
            let owned = Some(row_layout.owned(m.rank));
            if !m.refresh_rows(OwnedRows { a, owned }) {
                changed.store(true, Ordering::Relaxed);
            }
        });
        if !changed.into_inner() {
            pmg_telemetry::counter_add("distribute/refresh", 1);
            return true;
        }
        pmg_telemetry::counter_add("distribute/rebuild", 1);
        let blocked = self.bsr3_routed();
        *self = DistMatrix::from_global(a, self.row_layout.clone(), self.col_layout.clone());
        if blocked {
            self.try_block3();
        }
        false
    }

    /// Promote the per-rank `diag` blocks to [`Bsr3Matrix`] storage so
    /// `spmv` runs on contiguous 3x3 tiles (PETSc's BAIJ optimization for
    /// 3-dof displacement operators).
    ///
    /// Structural eligibility — all of:
    /// - global dimensions are multiples of 3,
    /// - every rank's owned rows and owned columns come in vertex-aligned
    ///   triples `(3v, 3v+1, 3v+2)` (the layout produced by
    ///   `Layout::expand_dofs(vertex_layout, 3)`).
    ///
    /// Ghost columns need not form whole blocks: the ghost-column block
    /// stays scalar CSR either way.
    ///
    /// Returns whether promotion happened; ineligible operators are left
    /// untouched (scalar CSR path). On finite operands the blocked product
    /// is bitwise the scalar one: blocks materialize explicit zeros and
    /// preserve the per-row accumulation order.
    pub fn try_block3(&mut self) -> bool {
        self.ranks.par_iter_mut().for_each(|m| {
            m.try_block3();
        });
        self.bsr3_routed()
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

    /// The local (owned-rows × owned-columns) block of rank `r` — the
    /// sub-domain matrix the block-Jacobi smoother factors.
    pub fn local_block(&self, r: usize) -> &CsrMatrix {
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
        // straight into its part of `y`, all ranks in parallel. Same pack
        // order as the real transports. A rank without ghosts — every rank
        // of a one-rank run — allocates nothing.
        let plan = &self.plan;
        self.ranks
            .par_iter()
            .zip(y.par_parts_mut())
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

impl RankMatrix {
    /// Build rank `rank`'s share from its owned rows — read out of a
    /// global CSR through the row layout ([`DistMatrix`]) or straight from
    /// an owned-rows CSR ([`from_local_rows`](Self::from_local_rows)); one
    /// function for both is what makes the two bitwise identical. Two
    /// passes, count then fill: a source row ascends in global column and
    /// owned and ghost columns keep that order locally, so the entries of
    /// both blocks land in CSR order as they come. A rank that owns every
    /// row and every column numbers them as the input does, so its `diag`
    /// is a copy of the input (carrying its fingerprint) and `off` is
    /// empty — what the two passes would build. No halo plan yet.
    fn build(
        rows: OwnedRows<'_>,
        row_layout: Arc<Layout>,
        col_layout: Arc<Layout>,
        rank: usize,
    ) -> RankMatrix {
        let nlocal = row_layout.local_len(rank);
        debug_assert_eq!(rows.len(), nlocal);
        let ncols = col_layout.local_len(rank);
        let share = |diag, off, ghosts, pattern| {
            let (interior, boundary) = row_classes(&off, 1);
            RankMatrix {
                diag,
                off,
                diag_bsr: None,
                ghosts,
                interior,
                boundary,
                plan: None,
                pattern,
                rank,
                row_layout: row_layout.clone(),
                col_layout: col_layout.clone(),
            }
        };
        if rows.whole() && ncols == col_layout.num_global() {
            let off = CsrMatrix::zeros(nlocal, 0);
            return share(rows.a.clone(), off, Vec::new(), None);
        }

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
        let (ndiag, noff) = (diag_ptr[nlocal], off_ptr[nlocal]);
        ghosts.sort_unstable();
        ghosts.dedup();

        let (mut diag_cols, mut diag_vals) = (Vec::with_capacity(ndiag), Vec::with_capacity(ndiag));
        let (mut off_cols, mut off_vals) = (Vec::with_capacity(noff), Vec::with_capacity(noff));
        for li in 0..nlocal {
            let (cols, vals) = rows.row(li);
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
        share(
            CsrMatrix::from_parts(nlocal, ncols, diag_ptr, diag_cols, diag_vals),
            CsrMatrix::from_parts(nlocal, ghosts.len(), off_ptr, off_cols, off_vals),
            ghosts,
            Some(rows.pattern()),
        )
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
        RankMatrix::build(rows, row_layout, col_layout, rank)
    }

    /// The numeric half of [`build`](Self::build) and
    /// [`try_block3`](Self::try_block3), for owned rows of the pattern
    /// this share was built from: one ordered walk rewrites the values of
    /// `diag` and `off` — a row without ghost columns is one copy into
    /// `diag`, any other row is split through a running cursor per block,
    /// same classification, same order, so same slots — then the blocked
    /// copy of `diag` takes the new values. Nothing is allocated, sorted or
    /// looked up. Rows of another pattern leave the share as it was and
    /// return `false`.
    ///
    /// Rows that are the whole input are checked by the fingerprint the
    /// input carries (hashed at most once in its life) against the one
    /// `diag` or the share holds; a subset of a larger matrix is hashed
    /// here, on every call.
    fn refresh_rows(&mut self, rows: OwnedRows<'_>) -> bool {
        let nlocal = self.diag.nrows();
        let held = self
            .pattern
            .unwrap_or_else(|| PatternFingerprint::of(&self.diag));
        if rows.len() != nlocal || rows.pattern() != held {
            return false;
        }
        let diag_vals = self.diag.vals_mut();
        let (mut d, mut o) = (0, 0);
        for li in 0..nlocal {
            let (cols, vals) = rows.row(li);
            if self.off.row(li).0.is_empty() {
                diag_vals[d..d + vals.len()].copy_from_slice(vals);
                d += vals.len();
                continue;
            }
            for (&j, &v) in cols.iter().zip(vals) {
                if self.col_layout.owner(j) as usize == self.rank {
                    diag_vals[d] = v;
                    d += 1;
                } else {
                    self.off.vals_mut()[o] = v;
                    o += 1;
                }
            }
        }
        assert_eq!((d, o), (diag_vals.len(), self.off.nnz()), "pattern changed");
        if let Some(b) = &mut self.diag_bsr {
            b.refresh_from_csr(&self.diag);
        }
        true
    }

    /// [`DistMatrix::refresh_from_global`] for one rank's share: take the
    /// values of a new state of the owned-rows matrix in place (same
    /// kernel, so bitwise a fresh [`from_local_rows`](Self::from_local_rows)
    /// plus promotion). A changed pattern changes the ghost list, which
    /// every rank's halo plan depends on: the share is then left as it
    /// was and `false` returned, for the caller to go through the
    /// two-phase construction again.
    pub fn refresh_from_local_rows(&mut self, a_local: &CsrMatrix) -> bool {
        self.refresh_rows(OwnedRows {
            a: a_local,
            owned: None,
        })
    }

    /// Resident bytes of this rank's share: scalar diag/off CSR blocks plus
    /// a promoted BSR3 copy of `diag` as it is stored (76 B per tile, see
    /// [`Bsr3Matrix::memory_bytes`]; it keeps the scalar block alive — the
    /// block-Jacobi smoother factors `diag` directly), the ghost-column map
    /// and the overlap row classes. Feeds the
    /// `mem/level{N}/operator_bytes` gauges of the sharded setup path.
    pub fn memory_bytes(&self) -> u64 {
        use pmg_sparse::Operator;
        let mut bytes = self.diag.memory_bytes() + self.off.memory_bytes();
        if let Some(b) = &self.diag_bsr {
            bytes += b.memory_bytes();
        }
        let indices = self.ghosts.len() + self.interior.len() + self.boundary.len();
        bytes + 4 * indices as u64
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

    /// Promote this rank's `diag` to BSR3 storage when the layouts are
    /// vertex-aligned (same structural test as [`DistMatrix::try_block3`],
    /// evaluated on the replicated layouts — no communication) and count
    /// the row classes in block rows. Both are derived from the scalar
    /// blocks, so promoting again changes nothing. Returns whether
    /// promotion happened (counted once per operator, by rank 0:
    /// `spmv/bsr3_promoted`).
    pub fn try_block3(&mut self) -> bool {
        if !block3_eligible(&self.row_layout, &self.col_layout) {
            return false;
        }
        if self.rank == 0 {
            pmg_telemetry::counter_add("spmv/bsr3_promoted", 1);
        }
        self.diag_bsr = Some(Bsr3Matrix::from_csr(&self.diag));
        (self.interior, self.boundary) = row_classes(&self.off, 3);
        true
    }

    /// Whether products run through the 3x3-blocked path.
    pub fn bsr3_routed(&self) -> bool {
        self.diag_bsr.is_some()
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
        &self.diag
    }

    /// Stored nonzeros of this rank's share (diag + off).
    pub fn nnz_local(&self) -> usize {
        self.diag.nnz() + self.off.nnz()
    }

    /// This rank's half of the halo plan.
    fn halo(&self) -> &RankHalo {
        let plan = self.plan.as_ref();
        &plan.expect("RankMatrix product before install_plan").ranks[self.rank]
    }

    /// Post this share's halo sends on `tag` (packing `x_local` per the
    /// plan) and return the in-flight exchange.
    fn start_exchange<T: Transport>(
        &self,
        t: &mut T,
        tag: u32,
        x_local: &[f64],
    ) -> Result<HaloExchange<'_>, CommError> {
        let halo = self.halo();
        let sends = halo.send.iter().map(|msg| {
            let packed = msg.idx.iter().map(|&li| x_local[li as usize]);
            (msg.peer as usize, packed)
        });
        let recvs = halo.recv.iter();
        let recvs = recvs.map(|msg| (msg.peer as usize, msg.idx.as_slice()));
        HaloExchange::start(t, tag, sends, recvs.collect())
    }

    /// `y_local = diag · x_local`, through the blocked copy when there is
    /// one.
    fn diag_spmv(&self, x_local: &[f64], y_local: &mut [f64]) {
        match &self.diag_bsr {
            Some(db) => db.spmv(x_local, y_local),
            None => self.diag.spmv(x_local, y_local),
        }
    }

    /// [`diag_spmv`](Self::diag_spmv) of one row class only (other entries
    /// of `y_local` untouched); returns the scalar rows it computed.
    fn diag_spmv_rows(&self, x_local: &[f64], y_local: &mut [f64], rows: &[u32]) -> u64 {
        match &self.diag_bsr {
            Some(db) => db.spmv_block_rows(x_local, y_local, rows),
            None => self.diag.spmv_rows(x_local, y_local, rows),
        }
        (self.class_width() * rows.len()) as u64
    }

    /// Scalar rows per row-class entry: 3 once promoted, else 1.
    fn class_width(&self) -> usize {
        if self.diag_bsr.is_some() {
            3
        } else {
            1
        }
    }

    /// The off-diagonal (ghost-column) product accumulated into `y_local`,
    /// shared verbatim between the blocking and overlapped paths and the
    /// simulated [`DistMatrix::spmv`], which the bitwise parity contract
    /// rests on. Each row of the boundary class sums its ghost entries in
    /// column order from `+0.0`, as [`CsrMatrix::spmv`] does, and adds the
    /// sum to its `diag` product. Interior rows are skipped: their sum
    /// would be `+0.0`, and adding it changes only `-0.0`, which no
    /// `diag` product leaves (its sums start from `+0.0` too).
    fn off_accumulate(&self, ghost_vals: &[f64], y_local: &mut [f64]) {
        let width = self.class_width();
        for &g in &self.boundary {
            let rows = width * g as usize..width * (g as usize + 1);
            for (i, y) in rows.clone().zip(&mut y_local[rows]) {
                let (cols, vals) = self.off.row(i);
                *y += cols
                    .iter()
                    .zip(vals)
                    .fold(0.0, |acc, (&j, &v)| acc + v * ghost_vals[j]);
            }
        }
        pmg_sparse::flops::add(2 * self.off.nnz() as u64);
    }

    /// `y_local = A_rank · x` with a real halo exchange on message tag
    /// `tag`: sends this rank's owned values per the plan, receives its
    /// ghosts, computes locally — bitwise this rank's part of
    /// [`DistMatrix::spmv`] (including the BSR3 branch).
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
        assert_eq!(x_local.len(), self.diag.ncols(), "x_local length");
        assert_eq!(y_local.len(), self.diag.nrows(), "y_local length");

        // Sends first (buffered), then blocking receives: the classic
        // deadlock-free exchange order for eager transports.
        let hx = self.start_exchange(t, tag, x_local)?;
        let mut ghost_vals = vec![0.0; self.ghosts.len()];
        hx.finish(t, &mut ghost_vals)?;
        self.diag_spmv(x_local, y_local);
        self.off_accumulate(&ghost_vals, y_local);
        Ok(())
    }

    /// `y_local = A_rank · x` with communication/computation overlap:
    /// sends post, the interior rows (no ghost references) are computed
    /// while the halo messages are in flight, then receives drain and the
    /// boundary rows and ghost-column product finish the job.
    ///
    /// Bitwise identical to [`spmv`](Self::spmv): interior and boundary
    /// row classes partition the local rows, each row's accumulation runs
    /// the unchanged per-row kernel, and the ghost-column accumulate is the
    /// same pass over the boundary rows — only the *schedule* differs.
    /// Lockstep like [`spmv`](Self::spmv); blocking and overlapped callers
    /// may not be mixed across ranks of one product.
    pub fn spmv_overlapped<T: Transport>(
        &self,
        t: &mut T,
        tag: u32,
        x_local: &[f64],
        y_local: &mut [f64],
    ) -> Result<OverlapInfo, CommError> {
        assert_eq!(x_local.len(), self.diag.ncols(), "x_local length");
        assert_eq!(y_local.len(), self.diag.nrows(), "y_local length");

        let hx = self.start_exchange(t, tag, x_local)?;
        let window = Instant::now();
        let interior_rows = self.diag_spmv_rows(x_local, y_local, &self.interior);
        let hidden_s = window.elapsed().as_secs_f64();
        let mut ghost_vals = vec![0.0; self.ghosts.len()];
        hx.finish(t, &mut ghost_vals)?;
        let boundary_rows = self.diag_spmv_rows(x_local, y_local, &self.boundary);
        self.off_accumulate(&ghost_vals, y_local);
        Ok(OverlapInfo {
            hidden_s,
            interior_rows,
            boundary_rows,
        })
    }
}

/// The overlap's row classes of a share with ghost block `off`, over groups
/// of `width` rows (1: scalar rows, 3: block rows): a group with any
/// ghost-column entry is *boundary*, the rest are *interior* and can be
/// computed while the halo messages are in flight. Ascending group ids.
fn row_classes(off: &CsrMatrix, width: usize) -> (Vec<u32>, Vec<u32>) {
    let ptr = off.row_ptr();
    let groups = (off.nrows() / width) as u32;
    (0..groups).partition(|&g| ptr[width * g as usize] == ptr[width * (g as usize + 1)])
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
        let mut m = DistMatrix::from_global(&a, l.clone(), l.clone());
        assert!(!m.try_block3());
        assert!(!m.bsr3_routed());
        // Dimensions not a multiple of 3.
        let a17 = laplacian(17);
        let l17 = Layout::block(17, 2);
        let mut m17 = DistMatrix::from_global(&a17, l17.clone(), l17);
        assert!(!m17.try_block3());
    }

    /// Every rank's share built on its own from its owned rows of `a`, the
    /// ghost lists then exchanged (here: collected in a plain Vec, standing
    /// in for the allgather) and the shares promoted.
    fn local_shares(a: &CsrMatrix, l: &Arc<Layout>) -> Vec<RankMatrix> {
        let mut shares: Vec<RankMatrix> = (0..l.num_ranks())
            .map(|r| {
                RankMatrix::from_local_rows(&a.extract_rows(l.owned(r)), l.clone(), l.clone(), r)
            })
            .collect();
        let ghost_lists: Vec<Vec<u32>> = shares.iter().map(|s| s.ghosts().to_vec()).collect();
        for s in &mut shares {
            s.install_plan(&ghost_lists).unwrap();
            assert!(s.try_block3());
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
            // Promoting again changes nothing: the row classes stay in
            // block rows.
            let mut again = s.clone();
            assert!(again.try_block3());
            assert_eq!(format!("{again:?}"), format!("{s:?}"), "rank {r}");
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
                    assert_eq!(m.ranks[0].diag, a1, "a one-rank share is its input");
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

    #[test]
    fn overlapped_spmv_bitwise_matches_blocking() {
        let n = 29;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        for p in [1, 2, 3, 5] {
            let l = Layout::block(n, p);
            let da = DistMatrix::from_global(&a, l.clone(), l.clone());
            let da = &da;
            let l2 = &l;
            let x2 = &x;
            let parts = LocalTransport::run_ranks(p, move |mut t| {
                let r = t.rank();
                let op = da.share(r);
                let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
                let mut y1 = vec![0.0; op.local_block().nrows()];
                op.spmv(&mut t, 7, &xl, &mut y1).unwrap();
                let mut y2 = vec![0.0; op.local_block().nrows()];
                let info = op.spmv_overlapped(&mut t, 7, &xl, &mut y2).unwrap();
                (y1, y2, info)
            });
            for (r, (y1, y2, info)) in parts.iter().enumerate() {
                assert_eq!(
                    info.interior_rows + info.boundary_rows,
                    y1.len() as u64,
                    "p={p} r={r} row split must partition the local rows"
                );
                for (a, b) in y1.iter().zip(y2) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p} r={r}");
                }
            }
        }
    }

    #[test]
    fn overlapped_spmv_bitwise_matches_blocking_bsr3() {
        let nb = 10;
        let a = block_laplacian(nb);
        let p = 3;
        // Contiguous vertex blocks so ranks have both interior and
        // boundary block rows.
        let mut owner = vec![0u32; 3 * nb];
        for v in 0..nb {
            for c in 0..3 {
                owner[3 * v + c] = ((v * p / nb) as u32).min(p as u32 - 1);
            }
        }
        let l = Layout::from_part(owner, p);
        let da = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        assert!(da.bsr3_routed());
        let x: Vec<f64> = (0..3 * nb).map(|i| (i as f64 * 0.7).sin()).collect();
        let da = &da;
        let l2 = &l;
        let x2 = &x;
        let parts = LocalTransport::run_ranks(p, move |mut t| {
            let r = t.rank();
            let op = da.share(r);
            let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
            let mut y1 = vec![0.0; op.local_block().nrows()];
            op.spmv(&mut t, 5, &xl, &mut y1).unwrap();
            let mut y2 = vec![0.0; op.local_block().nrows()];
            let info = op.spmv_overlapped(&mut t, 5, &xl, &mut y2).unwrap();
            (y1, y2, info)
        });
        for (r, (y1, y2, info)) in parts.iter().enumerate() {
            assert_eq!(info.interior_rows + info.boundary_rows, y1.len() as u64);
            for (a, b) in y1.iter().zip(y2) {
                assert_eq!(a.to_bits(), b.to_bits(), "r={r}");
            }
        }
    }
}
