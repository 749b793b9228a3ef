//! SPMD execution of the multigrid-preconditioned CG solve over a real
//! [`Transport`].
//!
//! The orchestrated path ([`crate::solver::Prometheus`]) loops over virtual
//! ranks in one address space and charges a BSP machine model. This module
//! runs the *same* solve as a true single-program-multiple-data program:
//! every rank (a thread over [`LocalTransport`], or a process over
//! `pmg_comm::SocketTransport`) holds only its own share of each level and
//! exchanges halos, inner-product partials, and the coarse-grid gather as
//! real messages.
//!
//! Bitwise parity is the design contract. Every kernel is the identical
//! per-rank code the orchestrated path runs ([`RankOp::spmv`],
//! [`RankSmoother::solve_add`], [`CoarseDirect::solve_global_in_place`]),
//! every reduction combines in the fixed binomial-tree order of
//! [`pmg_comm::tree_combine`] (which
//! [`DistVec::dot`](pmg_parallel::DistVec::dot) also uses), and the
//! Krylov recurrence is the *same code* — [`pmg_solver::pcg_generic`] —
//! driven through a transport backend instead of the simulator's. So the
//! solution and the residual history match the simulated solve bit for bit,
//! at any rank count, on any transport.

use crate::classify::VertexClasses;
use crate::coarsen::coarsen_level_transport;
use crate::cycle::{self, CycleScratch, Done, LevelOps};
use crate::ingest::RankSeed;
use crate::mg::{expand_restriction, FineOperator, MgHierarchy, MgOptions, Smoother, SmootherType};
use pmg_comm::{
    f64s_from_bytes, f64s_to_bytes, CommError, CommStats, LeReader, LocalTransport, Transport,
};
use pmg_geometry::Vec3;
use pmg_parallel::{Layout, MfRankOp, OverlapInfo, RankMatrix, RankOp};
use pmg_partition::{recursive_coordinate_bisection, Graph};
use pmg_solver::{
    pcg_generic, CoarseDirect, PcgBackend, PcgOptions, PcgResult, RankJacobi, RankSmoother,
};
use pmg_sparse::{rap_local_rows, vector, CsrMatrix};
use std::borrow::Cow;
use std::sync::Arc;

/// Real time (seconds) a rank spent blocked on each communication phase,
/// measured from the transport's wait clock — not modeled — plus what the
/// communication/computation overlap hid from that clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseWaits {
    /// Waiting on halo-exchange receives (level operator, R, P products).
    /// With overlap enabled this is only the *blocked remainder* after the
    /// interior-compute window: latency hidden behind interior work never
    /// reaches the transport's wait clock and is accounted in
    /// [`halo_hidden_s`](PhaseWaits::halo_hidden_s) instead — the two are
    /// never double-counted.
    pub halo_s: f64,
    /// Waiting inside allreduces (inner products and norms).
    pub allreduce_s: f64,
    /// Waiting in the coarse-grid gather/solve/scatter.
    pub coarse_s: f64,
    /// Wall-clock seconds of interior-compute windows that ran between
    /// halo `start` and `finish` — message latency the overlap could hide.
    pub halo_hidden_s: f64,
    /// Scalar rows computed inside overlap windows (no ghost references).
    pub interior_rows: u64,
    /// Scalar rows computed after their halo messages arrived.
    pub boundary_rows: u64,
}

impl PhaseWaits {
    fn publish(&self) {
        pmg_telemetry::gauge_set("comm/wait/halo", self.halo_s);
        pmg_telemetry::gauge_set("comm/wait/allreduce", self.allreduce_s);
        pmg_telemetry::gauge_set("comm/wait/coarse", self.coarse_s);
        pmg_telemetry::gauge_set("comm/overlap/halo_hidden_s", self.halo_hidden_s);
        pmg_telemetry::counter_add("comm/overlap/interior_rows", self.interior_rows);
        pmg_telemetry::counter_add("comm/overlap/boundary_rows", self.boundary_rows);
    }
}

/// One rank's level/restriction/prolongation apply: assembled rows or the
/// matrix-free element kernel. Both backends run the identical two-phase
/// interior-then-boundary schedule with the same halo plan, so the
/// blocking and overlapped paths dispatch through here without changing
/// the bitwise contract of either.
enum LevelOp<'a> {
    Mat(RankOp<'a>),
    MatFree(MfRankOp<'a>),
}

impl LevelOp<'_> {
    fn local_rows(&self) -> usize {
        match self {
            LevelOp::Mat(op) => op.local_rows(),
            LevelOp::MatFree(op) => op.local_rows(),
        }
    }

    fn spmv<T: Transport>(&self, t: &mut T, x: &[f64], y: &mut [f64]) -> Result<(), CommError> {
        match self {
            LevelOp::Mat(op) => op.spmv(t, x, y),
            LevelOp::MatFree(op) => op.spmv(t, x, y),
        }
    }

    fn spmv_overlapped<T: Transport>(
        &self,
        t: &mut T,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<OverlapInfo, CommError> {
        match self {
            LevelOp::Mat(op) => op.spmv_overlapped(t, x, y),
            LevelOp::MatFree(op) => op.spmv_overlapped(t, x, y),
        }
    }
}

/// One rank's borrowed view of one grid level.
struct RankLevel<'a> {
    a: LevelOp<'a>,
    r: Option<LevelOp<'a>>,
    p: Option<LevelOp<'a>>,
    smoother: RankSmoother<'a>,
    coarse: Option<&'a CoarseDirect>,
    layout: &'a Arc<Layout>,
}

/// One rank's borrowed view of a whole [`MgHierarchy`]: the SPMD
/// counterpart of the hierarchy's `Precond` implementation.
pub struct RankHierarchy<'a> {
    levels: Vec<RankLevel<'a>>,
    /// Which cycle to run (`cycle`, `pre_smooth`, `post_smooth`).
    opts: MgOptions,
    /// The halo schedule (default on): operator, restriction, and
    /// prolongation products — including the smoother's residual refresh —
    /// compute interior rows between halo `start` and `finish`
    /// (`spmv_overlapped`) instead of waiting for the ghosts first
    /// (`spmv`). Nothing else depends on it: both settings send the same
    /// messages, enter the same allreduces, and produce the same bits (see
    /// `docs/comm.md`); flip off for A/B wait-time measurements of the
    /// blocking schedule.
    pub overlap: bool,
}

/// Message tags: each operator of each level gets its own tag so a
/// lockstep program never confuses halo traffic between products.
fn tags(lvl: usize) -> (u32, u32, u32) {
    let base = 16 * lvl as u32;
    (base, base + 1, base + 2)
}

/// Setup-phase point-to-point tag space: far above the solve's
/// `tags(lvl)` so MIS rounds of any level can never alias solve traffic
/// (collectives carry their own fixed tag).
fn setup_tag(lvl: usize) -> u32 {
    0x5000 + 16 * lvl as u32
}

/// One grid level of a distributed setup: this rank's **owned** share of
/// the operator, restriction, and prolongation, its block-Jacobi factors,
/// and (on the gather root's coarsest grid) the direct factor.
struct DistLevel {
    a: RankMatrix,
    r: Option<RankMatrix>,
    p: Option<RankMatrix>,
    smoother: RankJacobi,
    /// The coarsest-grid factor: the owned rows are tree-gathered and
    /// factored on rank 0 alone, leaving `None` elsewhere — only rank 0's
    /// copy ever solves. The bottom level is the last one, whatever this
    /// field holds.
    coarse: Option<CoarseDirect>,
    layout: Arc<Layout>,
}

/// A multigrid hierarchy built **by** the SPMD ranks themselves — the
/// owning counterpart of [`RankHierarchy`], which borrows a replicated
/// [`MgHierarchy`].
///
/// Produced by [`RankHierarchy::build_from_shards`] from a
/// partition-at-ingest seed and this rank's owned fine rows: every level is
/// held as owned rows only, coarse grids are coarsened by the §4.2 MIS
/// rounds and the §4.5 face-ID merge over the transport, and the Galerkin
/// product fetches the few off-rank rows it needs point-to-point.
///
/// Call [`DistributedSetup::rank_hierarchy`] to borrow the solve view;
/// its shares are **bitwise identical** to
/// `RankHierarchy::extract(&MgHierarchy::build(..), rank)` on the same
/// global problem — the parity the `shards_match_extract_oracle` tests pin
/// on every transport.
///
/// # Example
///
/// Ingest planning, sharded setup and solve on two SPMD rank threads (a
/// scalar graph Laplacian on a structured cube mesh):
///
/// ```
/// use pmg_comm::{LocalTransport, Transport};
/// use pmg_solver::PcgOptions;
/// use pmg_sparse::CooBuilder;
/// use prometheus::{classify_mesh, plan_ingest, spmd::RankHierarchy, spmd_pcg, MgOptions};
///
/// let mesh = pmg_mesh::generators::cube(5);
/// let graph = mesh.vertex_graph();
/// let n = mesh.num_vertices();
/// let mut b = CooBuilder::new(n, n);
/// for v in 0..n {
///     b.push(v, v, graph.degree(v) as f64 + 1.0);
///     for &w in graph.neighbors(v) {
///         b.push(v, w as usize, -1.0);
///     }
/// }
/// let a = b.build();
/// let classes = classify_mesh(&mesh, 0.7);
/// let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
/// let opts = MgOptions {
///     dofs_per_vertex: 1,
///     coarse_dof_threshold: 40,
///     ..Default::default()
/// };
///
/// // The loader partitions the fine vertices and plans one seed per rank ...
/// let plan = plan_ingest(&mesh.coords, &graph, &classes, &[], 2, &opts);
/// let layout = pmg_parallel::Layout::from_part(plan.part().to_vec(), 2);
///
/// let converged = LocalTransport::run_ranks(2, |mut t| {
///     // ... every rank brings only its owned fine rows (a real program
///     // assembles them from its mesh shard; here they are cut from `a`) ...
///     let rank = t.rank();
///     let a_owned = a.extract_rows(layout.owned(rank));
///     // ... builds its share of the hierarchy over the transport ...
///     let setup =
///         RankHierarchy::build_from_shards(&mut t, &plan.seeds[rank], &a_owned, opts).unwrap();
///     // ... scatters the global right-hand side into its owned slice ...
///     let b_local: Vec<f64> = setup
///         .fine_layout()
///         .owned(rank)
///         .iter()
///         .map(|&g| rhs[g as usize])
///         .collect();
///     let mut x_local = vec![0.0; b_local.len()];
///     // ... and solves SPMD with the FMG-preconditioned CG.
///     let h = setup.rank_hierarchy();
///     let pcg_opts = PcgOptions { rtol: 1e-8, max_iters: 60, ..Default::default() };
///     let (res, _waits) = spmd_pcg(&mut t, &h, &b_local, &mut x_local, pcg_opts).unwrap();
///     res.converged
/// });
/// assert!(converged.into_iter().all(|c| c));
/// ```
pub struct DistributedSetup {
    levels: Vec<DistLevel>,
    opts: MgOptions,
    rank: usize,
}

impl DistributedSetup {
    /// Number of grid levels (fine to coarsest).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The rank that built (and is served by) this setup.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Global rows of level `lvl`'s operator.
    pub fn level_rows(&self, lvl: usize) -> usize {
        self.levels[lvl].layout.num_global()
    }

    /// Rows of level `lvl` owned by this rank.
    pub fn level_rows_local(&self, lvl: usize) -> usize {
        self.levels[lvl].layout.local_len(self.rank)
    }

    /// Nonzeros of this rank's share of level `lvl` (diag + off blocks).
    pub fn level_nnz_local(&self, lvl: usize) -> usize {
        self.levels[lvl].a.nnz_local()
    }

    /// Exact resident bytes of this rank's share of level `lvl`'s
    /// operator — the same number the `mem/level{N}/operator_bytes`
    /// gauge reports at setup.
    pub fn level_operator_bytes(&self, lvl: usize) -> usize {
        self.levels[lvl].a.memory_bytes() as usize
    }

    /// The fine-grid dof layout (for scattering a global right-hand side
    /// into this rank's owned slice and gathering the solution back).
    pub fn fine_layout(&self) -> &Arc<Layout> {
        &self.levels[0].layout
    }

    /// Borrow this rank's solve view: the same [`RankHierarchy`] the
    /// extract path produces, ready for [`spmd_pcg`].
    pub fn rank_hierarchy(&self) -> RankHierarchy<'_> {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(lvl, level)| {
                let (ta, tr, tp) = tags(lvl);
                RankLevel {
                    a: LevelOp::Mat(level.a.rank_op(ta)),
                    r: level.r.as_ref().map(|m| LevelOp::Mat(m.rank_op(tr))),
                    p: level.p.as_ref().map(|m| LevelOp::Mat(m.rank_op(tp))),
                    smoother: level.smoother.view(),
                    coarse: level.coarse.as_ref(),
                    layout: &level.layout,
                }
            })
            .collect();
        RankHierarchy {
            levels,
            opts: self.opts,
            overlap: true,
        }
    }
}

/// Allgather every rank's ghost-column list and install the halo plan:
/// the setup's halo-column-ghosting collective. Each rank contributes the
/// ascending global ids its off-block references; every rank then derives
/// the identical exchange plan from the identical lists.
fn exchange_ghosts<T: Transport>(t: &mut T, m: &mut RankMatrix) -> Result<(), CommError> {
    let lists = pmg_comm::allgather_u32s(t, m.ghosts())?;
    m.install_plan(&lists);
    Ok(())
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    let mut b = Vec::with_capacity(v.len() * 4);
    for &x in v {
        b.extend_from_slice(&x.to_le_bytes());
    }
    b
}

fn bytes_to_u32s(b: &[u8]) -> Result<Vec<u32>, CommError> {
    let mut r = LeReader::new(b);
    let vals: Vec<u32> = r.u32s(b.len() / 4).expect("length taken from b").collect();
    if !r.is_empty() {
        return Err(CommError::Invalid("malformed u32 list blob".into()));
    }
    Ok(vals)
}

/// Encode a run of CSR rows as `[len, cols.., valbits..]` per row — the
/// wire format of the setup's row exchanges and the bottom-level gather.
/// Values travel as raw bits so the receiver reconstructs them verbatim.
fn encode_rows_into(b: &mut Vec<u8>, a: &CsrMatrix, rows: impl Iterator<Item = usize>) {
    for i in rows {
        let (cols, vals) = a.row(i);
        b.extend_from_slice(&(cols.len() as u32).to_le_bytes());
        for &c in cols {
            b.extend_from_slice(&(c as u32).to_le_bytes());
        }
        for &v in vals {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Where [`rows_from_blobs`] takes a row from.
enum RowSource<'a> {
    /// A row this rank holds: `(cols, vals)`.
    Local(&'a [usize], &'a [f64]),
    /// The next undecoded row of the blob at this index.
    Blob(usize),
}

/// Reassemble a matrix of `ncols` columns row by row: row `i` comes from
/// `sources`' `i`-th item, peers' rows being decoded from their
/// [`encode_rows_into`] blobs in order. A blob that runs short, names a
/// column outside the matrix or is not used up is a malformed message.
fn rows_from_blobs<'a>(
    blobs: &[Vec<u8>],
    ncols: usize,
    nnz_bound: usize,
    sources: impl ExactSizeIterator<Item = RowSource<'a>>,
) -> Result<CsrMatrix, CommError> {
    let bad = || CommError::Invalid("malformed row blob".into());
    let mut readers: Vec<LeReader> = blobs.iter().map(|b| LeReader::new(b)).collect();
    let nrows = sources.len();
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz_bound);
    let mut vals = Vec::with_capacity(nnz_bound);
    for source in sources {
        match source {
            RowSource::Local(cols, vs) => {
                col_idx.extend_from_slice(cols);
                vals.extend_from_slice(vs);
            }
            RowSource::Blob(q) => {
                let r = &mut readers[q];
                let len = r.u32().ok_or_else(bad)? as usize;
                let at = col_idx.len();
                col_idx.extend(r.u32s(len).ok_or_else(bad)?.map(|c| c as usize));
                vals.extend(r.f64s(len).ok_or_else(bad)?);
                if col_idx[at..].iter().any(|&c| c >= ncols) {
                    return Err(bad());
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    if !readers.iter().all(LeReader::is_empty) {
        return Err(bad());
    }
    Ok(CsrMatrix::from_parts(nrows, ncols, row_ptr, col_idx, vals))
}

/// Fetch the global rows `need` (ascending) of an operator stored as
/// owned-rows shares across the ranks: rows this rank owns are copied
/// locally, the rest travel a deterministic pairwise exchange (lower rank
/// sends first; request lists on `tag`, row payloads on `tag + 1` — every
/// pair exchanges on both tags even when empty, keeping the lockstep
/// schedule identical on all ranks). Returned rows are **verbatim bits**
/// of the owners' rows, in `need` order, with global column ids.
fn fetch_rows<T: Transport>(
    t: &mut T,
    a_owned: &CsrMatrix,
    layout: &Arc<Layout>,
    need: &[u32],
    tag: u32,
) -> Result<CsrMatrix, CommError> {
    let rank = t.rank();
    let p = t.size();
    debug_assert!(need.windows(2).all(|w| w[0] < w[1]));

    let mut wanted: Vec<Vec<u32>> = vec![Vec::new(); p];
    for &g in need {
        let o = layout.owner(g as usize) as usize;
        if o != rank {
            wanted[o].push(g);
        }
    }

    // Phase 1: request lists. Phase 2: row payloads, served in request
    // order. Both phases visit peers in ascending rank order with the
    // lower rank sending first, so no pair can deadlock.
    let mut asked_of_me: Vec<Vec<u32>> = vec![Vec::new(); p];
    for q in 0..p {
        if q == rank {
            continue;
        }
        let mine = u32s_to_bytes(&wanted[q]);
        if rank < q {
            t.send(q, tag, &mine)?;
            asked_of_me[q] = bytes_to_u32s(&t.recv(q, tag)?)?;
        } else {
            asked_of_me[q] = bytes_to_u32s(&t.recv(q, tag)?)?;
            t.send(q, tag, &mine)?;
        }
        let n = layout.num_global();
        let mine_to_give = |&g: &u32| (g as usize) < n && layout.owner(g as usize) as usize == rank;
        if !asked_of_me[q].iter().all(mine_to_give) {
            return Err(CommError::Invalid(format!(
                "rank {q} asked rank {rank} for a row it does not own"
            )));
        }
    }
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); p];
    for q in 0..p {
        if q == rank {
            continue;
        }
        let mut blob = Vec::new();
        encode_rows_into(
            &mut blob,
            a_owned,
            asked_of_me[q]
                .iter()
                .map(|&g| layout.local_index(g as usize) as usize),
        );
        if rank < q {
            t.send(q, tag + 1, &blob)?;
            payloads[q] = t.recv(q, tag + 1)?;
        } else {
            payloads[q] = t.recv(q, tag + 1)?;
            t.send(q, tag + 1, &blob)?;
        }
    }

    // An upper bound on the entries (each wire entry costs 12 bytes): the
    // result is most of a rank's operator share, and growing it by doubling
    // leaves as much again behind in freed buffers.
    let nnz_bound = a_owned.nnz() + payloads.iter().map(|b| b.len() / 12).sum::<usize>();
    let sources = need.iter().map(|&g| {
        let o = layout.owner(g as usize) as usize;
        if o == rank {
            let (cols, vs) = a_owned.row(layout.local_index(g as usize) as usize);
            RowSource::Local(cols, vs)
        } else {
            RowSource::Blob(o)
        }
    });
    rows_from_blobs(&payloads, layout.num_global(), nnz_bound, sources)
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Build the coarsest [`DistLevel`] from owned rows only: the operator
/// share and smoother factors come straight from `a_owned`, and the
/// direct factor is made by tree-gathering every rank's owned rows to
/// rank 0 — reversing the §5 replication: the full (constant-size)
/// coarsest matrix exists on the gather root alone, and only there is it
/// factored. Other ranks carry `coarse: None`.
fn bottom_level<T: Transport>(
    t: &mut T,
    ra: RankMatrix,
    a_owned: &CsrMatrix,
    layout: &Arc<Layout>,
    opts: &MgOptions,
) -> Result<DistLevel, CommError> {
    let smoother = {
        let _t = pmg_telemetry::scope("smoother");
        RankJacobi::new(ra.local_block(), opts.blocks_per_1000, opts.omega)
    };
    let coarse = {
        let _t = pmg_telemetry::scope("coarse_direct");
        let mut blob = Vec::new();
        encode_rows_into(&mut blob, a_owned, 0..a_owned.nrows());
        match pmg_comm::gather(t, &blob)? {
            None => None,
            Some(parts) => {
                // Owned lists are ascending and tile 0..n, so walking the
                // global rows and pulling each owner's next row reassembles
                // the matrix the replicated path would have held — verbatim.
                let n = layout.num_global();
                let owners = (0..n).map(|g| RowSource::Blob(layout.owner(g) as usize));
                Some(CoarseDirect::from_csr(&rows_from_blobs(
                    &parts, n, 0, owners,
                )?))
            }
        }
    };
    Ok(DistLevel {
        a: ra,
        r: None,
        p: None,
        smoother,
        coarse,
        layout: layout.clone(),
    })
}

/// The dof layout of a grid (RCB over its vertex coordinates, `dofs`
/// unknowns per vertex) plus the vertex partition's load imbalance (max
/// part over ideal share; 1.0 = perfectly balanced).
fn dof_layout(coords: &[Vec3], nranks: usize, dofs: usize) -> (Arc<Layout>, f64) {
    let part = recursive_coordinate_bisection(coords, nranks);
    let imbalance = pmg_partition::part_imbalance(&part, nranks);
    let vlayout = Layout::from_part(part, nranks);
    (Layout::expand_dofs(&vlayout, dofs), imbalance)
}

/// The vertices behind `rank`'s owned dofs of a [`Layout::expand_dofs`]
/// layout, ascending.
fn owned_vertices(layout: &Layout, rank: usize, dofs: usize) -> Vec<u32> {
    let owned = layout.owned(rank).iter().step_by(dofs);
    owned.map(|&g| g / dofs as u32).collect()
}

/// Replicated geometry of one coarse grid (coarse grids shrink
/// geometrically, §5; the fine grid is never held this way).
struct Grid {
    coords: Vec<Vec3>,
    graph: Graph,
    classes: VertexClasses,
}

/// How one level reaches the next: this rank's owned rows of `R` and of
/// `P = Rᵀ` (dof-expanded, global column ids) for the solve, the
/// vertex-level tiles its Galerkin product reads, and the coarse grid with
/// its layout.
struct Transfer {
    r_owned: CsrMatrix,
    p_owned: CsrMatrix,
    /// Owned coarse-vertex rows of the scalar restriction `R_v`
    /// (`r_owned` before dof expansion).
    rv_owned: CsrMatrix,
    /// Ascending global fine vertex ids of `rt_rows`' rows.
    rt_ids: Vec<u32>,
    /// Full `R_vᵀ` rows covering whatever the Galerkin product can touch
    /// ([`rap_local_rows`] tolerates a superset).
    rt_rows: CsrMatrix,
    grid: Grid,
    layout: Arc<Layout>,
    imbalance: f64,
}

/// Level 0's transfer, from the ingest seed: the fine grid was coarsened
/// once at load time and split into per-rank restriction tiles. `None` when
/// the plan found the fine grid to be the coarsest.
fn seed_transfer(seed: &RankSeed, fine_vlayout: &Layout, dofs: usize) -> Option<Transfer> {
    let cs = seed.coarse.as_ref()?;
    let nranks = seed.nranks as usize;
    // Owned prolongation rows: the Rᵀ rows of this rank's own fine
    // vertices, which the seed's support set is guaranteed to cover.
    let pos: Vec<u32> = fine_vlayout
        .owned(seed.rank as usize)
        .iter()
        .map(|&g| {
            cs.rt_ids
                .binary_search(&g)
                .expect("seed covers owned fine vertices") as u32
        })
        .collect();
    let (layout, imbalance) = dof_layout(&cs.coords, nranks, dofs);
    Some(Transfer {
        r_owned: expand_restriction(&cs.r_rows, dofs),
        p_owned: expand_restriction(&cs.rt_rows.extract_rows(&pos), dofs),
        rv_owned: cs.r_rows.clone(),
        rt_ids: cs.rt_ids.clone(),
        rt_rows: cs.rt_rows.clone(),
        grid: Grid {
            coords: cs.coords.clone(),
            graph: cs.graph.clone(),
            classes: cs.classes.clone(),
        },
        layout,
        imbalance,
    })
}

/// A coarse level's transfer: coarsen the replicated grid over the
/// transport (distributed MIS + face-ID merge) and cut this rank's rows out
/// of the replicated restriction. `None` when this grid is the bottom —
/// small enough, at the level cap, or coarsening stalled.
fn coarsen_transfer<T: Transport>(
    t: &mut T,
    grid: &Grid,
    layout: &Layout,
    lvl: usize,
    opts: &MgOptions,
) -> Result<Option<Transfer>, CommError> {
    let (nranks, rank, dofs) = (t.size(), t.rank(), opts.dofs_per_vertex);
    let nv = grid.coords.len();
    let Some(copts) = opts.level_coarsen_options(lvl, nranks, layout.num_global(), nv) else {
        return Ok(None);
    };
    let cl = {
        let _t = pmg_telemetry::scope("coarsen");
        coarsen_level_transport(
            t,
            &grid.coords,
            &grid.graph,
            &grid.classes,
            &copts,
            setup_tag(lvl),
        )?
    };
    if cl.stalled(nv) {
        return Ok(None); // finish with a direct solve here
    }
    let rt_v = cl.restriction.transpose();
    let (next_layout, imbalance) = dof_layout(&cl.coords, nranks, dofs);
    let rv_owned = cl
        .restriction
        .extract_rows(&owned_vertices(&next_layout, rank, dofs));
    let pv_owned = rt_v.extract_rows(&owned_vertices(layout, rank, dofs));
    Ok(Some(Transfer {
        r_owned: expand_restriction(&rv_owned, dofs),
        p_owned: expand_restriction(&pv_owned, dofs),
        rv_owned,
        // The restriction is replicated coarse-scale metadata, so every Rᵀ
        // row is at hand.
        rt_ids: (0..rt_v.nrows() as u32).collect(),
        rt_rows: rt_v,
        grid: Grid {
            coords: cl.coords,
            graph: cl.graph,
            classes: cl.classes,
        },
        layout: next_layout,
        imbalance,
    }))
}

impl<'a> RankHierarchy<'a> {
    /// Borrow rank `rank`'s share of every level.
    ///
    /// Panics if the hierarchy uses the Chebyshev smoother — its eigenvalue
    /// bounds are estimated with inner products the SPMD path does not
    /// carry; the paper's block-Jacobi smoother is fully local.
    pub fn extract(mg: &'a MgHierarchy, rank: usize) -> RankHierarchy<'a> {
        let levels = mg
            .levels
            .iter()
            .enumerate()
            .map(|(lvl, level)| {
                let (ta, tr, tp) = tags(lvl);
                let smoother = match &level.smoother {
                    Smoother::BlockJacobi(bj) => bj.rank_view(rank),
                    Smoother::Chebyshev(_) => {
                        panic!("SPMD execution supports the block-Jacobi smoother only")
                    }
                };
                // The fine grid routes through the matrix-free kernels
                // when the hierarchy has them installed; the tag and the
                // halo plan are the same either way (the kernels' ghost
                // sets match the assembled matrix by construction).
                let a = match &mg.fine_mf {
                    Some(mf) if lvl == 0 => LevelOp::MatFree(mf.rank_op(rank, ta)),
                    _ => LevelOp::Mat(level.a.rank_op(rank, ta)),
                };
                RankLevel {
                    a,
                    r: level.r.as_ref().map(|m| LevelOp::Mat(m.rank_op(rank, tr))),
                    p: level.p.as_ref().map(|m| LevelOp::Mat(m.rank_op(rank, tp))),
                    smoother,
                    coarse: level.coarse.as_ref(),
                    layout: level.a.row_layout(),
                }
            })
            .collect();
        RankHierarchy {
            levels,
            opts: mg.opts,
            overlap: true,
        }
    }

    /// Run the **setup** pipeline SPMD over a real transport, from a
    /// **partition-at-ingest seed**: no rank — this one included — ever
    /// materializes the global fine mesh, the global fine matrix, or a
    /// global fine vector.
    ///
    /// The inputs are what the ingest pipeline hands a rank:
    ///
    /// * `seed` — this rank's [`RankSeed`] from
    ///   [`plan_ingest`](crate::ingest::plan_ingest) (usually received via
    ///   [`scatter_seeds`](crate::ingest::scatter_seeds)): the fine vertex
    ///   partition, plus its owned rows of the level-0 restriction and the
    ///   replicated level-1 geometry,
    /// * `a_owned` — this rank's **owned dof rows** of the fine operator
    ///   (row `li` = global row `owned[li]`, columns global), as produced
    ///   by `pmg_fem::RankAssembly::assemble_owned_local` from a
    ///   [`pmg_mesh::MeshShard`] — or any other per-rank assembly whose
    ///   sparsity stays inside the vertex adjacency of the graph the seed
    ///   was planned on (the Galerkin kernel panics otherwise).
    ///
    /// Every level runs the same step: distribute the owned operator rows
    /// (ghost columns resolved by one ghost-list allgather), compute the
    /// owned Galerkin rows ([`rap_local_rows`] over the few off-rank `A`
    /// rows fetched point-to-point — no value allgather, no replicated
    /// coarse matrix), distribute the owned `R`/`P` rows, factor the
    /// block-Jacobi smoother. Only *where `R` and `Rᵀ` come from* differs:
    /// level 0 reads the seed's restriction tiles (the fine grid was
    /// coarsened once, at load time); coarser grids are replicated and
    /// coarsened here — the MIS as the §4.2 BSP rounds
    /// ([`crate::mis::parallel_mis_transport`]), the reclassification
    /// through the §4.5 face-ID collective
    /// ([`crate::classify::identify_faces_transport`]). **The coarsest
    /// factor** lives on rank 0 alone: owned rows are tree-gathered there,
    /// factored once, and the solve's gather-solve-scatter serves every
    /// rank (other ranks hold `coarse: None`).
    ///
    /// The level shares and the solve are **bitwise identical** to the
    /// `MgHierarchy::build` + [`RankHierarchy::extract`] oracle on the same
    /// global problem; the `shards_match_extract_oracle` tests pin it on
    /// every transport.
    ///
    /// Telemetry: the whole build runs under a `setup` scope with the same
    /// child phases as the orchestrated path (`coarsen` with
    /// `mis`/`delaunay`/`restriction`/`classify`, `rap`, `smoother`,
    /// `coarse_direct`) plus the distribution phase `distribute`; rank 0
    /// additionally records the real transport traffic of the build as
    /// `comm/setup_msgs` / `comm/setup_bytes` counters and the
    /// `comm/setup_wait_s` gauge, per-level `mem/level{N}/operator_bytes`
    /// (its resident share) and `mem/peak_rss` gauges, plus
    /// `mg/level0/element_imbalance` when the seed carries ingest-time
    /// element counts.
    ///
    /// Panics if `opts` asks for the Chebyshev smoother or the
    /// matrix-free fine operator — the SPMD setup supports the paper's
    /// block-Jacobi smoother and the assembled fine grid.
    pub fn build_from_shards<T: Transport>(
        t: &mut T,
        seed: &RankSeed,
        a_owned: &CsrMatrix,
        opts: MgOptions,
    ) -> Result<DistributedSetup, CommError> {
        assert!(
            matches!(opts.smoother, SmootherType::BlockJacobi),
            "sharded setup supports the block-Jacobi smoother only"
        );
        assert_eq!(
            opts.fine_operator,
            FineOperator::Assembled,
            "sharded setup supports the assembled fine operator only"
        );
        let _setup_scope = pmg_telemetry::scope("setup");
        let stats0 = t.stats();
        let nranks = t.size();
        let rank = t.rank();
        let dofs = opts.dofs_per_vertex;
        assert_eq!(seed.rank as usize, rank, "seed built for another rank");
        assert_eq!(
            seed.nranks as usize, nranks,
            "seed built for another world size"
        );
        assert_eq!(
            seed.dofs as usize, dofs,
            "seed planned for different dofs/vertex"
        );

        let fine_vlayout = Layout::from_part(seed.part.clone(), nranks);
        let fine_layout = Layout::expand_dofs(&fine_vlayout, dofs);
        assert_eq!(a_owned.nrows(), fine_layout.owned(rank).len());
        assert_eq!(a_owned.ncols(), fine_layout.num_global());
        let record = rank == 0 && pmg_telemetry::enabled();
        if record && !seed.elem_counts.is_empty() {
            let counts: Vec<usize> = seed.elem_counts.iter().map(|&c| c as usize).collect();
            pmg_telemetry::gauge_set(
                "mg/level0/element_imbalance",
                pmg_mesh::element_imbalance(&counts),
            );
        }

        let mut levels: Vec<DistLevel> = Vec::new();
        let mut level_nnz: Vec<f64> = Vec::new();
        // The current level: owned operator rows, dof layout, and — below
        // the fine grid — the replicated geometry.
        let mut cur_owned = Cow::Borrowed(a_owned);
        let mut cur_layout = fine_layout;
        let mut cur_imbalance = pmg_partition::part_imbalance(&seed.part, nranks);
        let mut cur_grid: Option<Grid> = None;

        loop {
            let lvl = levels.len();
            // Level nnz is summed over the ranks' shares — nobody holds the
            // global matrix to count. The allreduce is collective, so every
            // rank runs it regardless of who records the gauge.
            let nnz = pmg_comm::allreduce_scalar(t, cur_owned.nnz() as f64)?;
            level_nnz.push(nnz);
            if record {
                let n = cur_layout.num_global();
                pmg_telemetry::gauge_set(&format!("mg/level{lvl}/rows"), n as f64);
                pmg_telemetry::gauge_set(&format!("mg/level{lvl}/nnz"), nnz);
                pmg_telemetry::gauge_set(&format!("mg/level{lvl}/imbalance"), cur_imbalance);
            }

            let ra = {
                let _t = pmg_telemetry::scope("distribute");
                let mut m = RankMatrix::from_local_rows(
                    &cur_owned,
                    cur_layout.clone(),
                    cur_layout.clone(),
                    rank,
                );
                if dofs == 3 && opts.block3 {
                    m.try_block3();
                }
                exchange_ghosts(t, &mut m)?;
                m
            };

            let transfer = match &cur_grid {
                None => seed_transfer(seed, &fine_vlayout, dofs),
                Some(grid) => coarsen_transfer(t, grid, &cur_layout, lvl, &opts)?,
            };
            let Some(tr) = transfer else {
                levels.push(bottom_level(t, ra, &cur_owned, &cur_layout, &opts)?);
                break;
            };
            assert_eq!(tr.r_owned.nrows(), tr.layout.owned(rank).len());

            // Galerkin product: the off-rank A rows under the owned
            // restriction support arrive point-to-point; everything else is
            // already local. The vertex-level tiles are read only here, so
            // they move in and are freed before the smoother factors.
            let next_owned = {
                let _t = pmg_telemetry::scope("rap");
                let (rv_owned, rt_ids, rt_rows) = (tr.rv_owned, tr.rt_ids, tr.rt_rows);
                let mut a_ids: Vec<u32> = rv_owned.col_idx().iter().map(|&v| v as u32).collect();
                a_ids.sort_unstable();
                a_ids.dedup();
                let d = dofs as u32;
                let a_dofs: Vec<u32> = a_ids
                    .iter()
                    .flat_map(|&v| (0..d).map(move |c| v * d + c))
                    .collect();
                let a_rows = fetch_rows(t, &cur_owned, &cur_layout, &a_dofs, setup_tag(lvl) + 8)?;
                rap_local_rows(dofs, &rv_owned, &a_ids, &a_rows, &rt_ids, &rt_rows)
            };
            let (rr, rp) = {
                let _t = pmg_telemetry::scope("distribute");
                let mut rr = RankMatrix::from_local_rows(
                    &tr.r_owned,
                    tr.layout.clone(),
                    cur_layout.clone(),
                    rank,
                );
                exchange_ghosts(t, &mut rr)?;
                let mut rp = RankMatrix::from_local_rows(
                    &tr.p_owned,
                    cur_layout.clone(),
                    tr.layout.clone(),
                    rank,
                );
                exchange_ghosts(t, &mut rp)?;
                (rr, rp)
            };
            let smoother = {
                let _t = pmg_telemetry::scope("smoother");
                RankJacobi::new(ra.local_block(), opts.blocks_per_1000, opts.omega)
            };
            levels.push(DistLevel {
                a: ra,
                r: Some(rr),
                p: Some(rp),
                smoother,
                coarse: None,
                layout: cur_layout,
            });

            cur_owned = Cow::Owned(next_owned);
            cur_layout = tr.layout;
            cur_imbalance = tr.imbalance;
            cur_grid = Some(tr.grid);
        }

        if record {
            pmg_telemetry::gauge_set("mg/levels", levels.len() as f64);
            let total_nnz: f64 = level_nnz.iter().sum();
            pmg_telemetry::gauge_set("mg/operator_complexity", total_nnz / level_nnz[0].max(1.0));
            for (i, level) in levels.iter().enumerate() {
                pmg_telemetry::gauge_set(
                    &format!("mem/level{i}/operator_bytes"),
                    level.a.memory_bytes() as f64,
                );
            }
            if let Some(rss) = peak_rss_bytes() {
                pmg_telemetry::gauge_set("mem/peak_rss", rss as f64);
            }
            let ds = t.stats();
            pmg_telemetry::counter_add("comm/setup_msgs", ds.msgs - stats0.msgs);
            pmg_telemetry::counter_add("comm/setup_bytes", ds.bytes - stats0.bytes);
            pmg_telemetry::gauge_set("comm/setup_wait_s", ds.wait_s - stats0.wait_s);
        }
        Ok(DistributedSetup { levels, opts, rank })
    }
}

/// One rank's backend of the cycle: vectors are the rank's owned slices,
/// every product is a real halo exchange, and the bottom level is one
/// gather-solve-scatter through rank 0.
struct RankLevels<'a, 'h, T: Transport> {
    t: &'a mut T,
    h: &'a RankHierarchy<'h>,
    waits: PhaseWaits,
}

impl<T: Transport> LevelOps for RankLevels<'_, '_, T> {
    type Vector = Vec<f64>;
    type Error = CommError;

    fn num_levels(&self) -> usize {
        self.h.levels.len()
    }

    fn zeros(&self, lvl: usize) -> Vec<f64> {
        vec![0.0; self.h.levels[lvl].a.local_rows()]
    }

    /// Stationary sweeps `x ← x + ω B⁻¹ (b − A x)`, as
    /// `BlockJacobi::smooth[_from_zero]`: `res` holds the residual, and the
    /// first sweep from the zero guess needs no product, so no halo
    /// exchange either.
    fn smooth(
        &mut self,
        lvl: usize,
        b: &Vec<f64>,
        x: &mut Vec<f64>,
        res: &mut Vec<f64>,
        mut sweeps: usize,
        from_zero: bool,
    ) -> Done<Self> {
        let smoother = &self.h.levels[lvl].smoother;
        if from_zero {
            match sweeps.checked_sub(1) {
                None => x.fill(0.0),
                Some(more) => {
                    smoother.solve_from_zero(b, x);
                    sweeps = more;
                }
            }
        }
        for _ in 0..sweeps {
            self.residual(lvl, b, x, res)?;
            smoother.solve_add(res, x);
        }
        Ok(())
    }

    fn residual(&mut self, lvl: usize, b: &Vec<f64>, x: &Vec<f64>, r: &mut Vec<f64>) -> Done<Self> {
        let a = &self.h.levels[lvl].a;
        halo_spmv(self.t, &mut self.waits, a, self.h.overlap, x, r)?;
        vector::aypx(-1.0, b, r);
        Ok(())
    }

    fn restrict(&mut self, lvl: usize, f: &Vec<f64>, c: &mut Vec<f64>) -> Done<Self> {
        let rmat = self.h.levels[lvl].r.as_ref();
        let rmat = rmat.expect("level above the bottom has R");
        halo_spmv(self.t, &mut self.waits, rmat, self.h.overlap, f, c)
    }

    fn prolong(&mut self, lvl: usize, c: &Vec<f64>, f: &mut Vec<f64>) -> Done<Self> {
        let pmat = self.h.levels[lvl].p.as_ref();
        let pmat = pmat.expect("level above the bottom has P");
        halo_spmv(self.t, &mut self.waits, pmat, self.h.overlap, c, f)
    }

    /// Coarsest-grid direct solve of `A x = r`, written into `x`: gather
    /// the right-hand side to rank 0 in the layout's owned order (exactly
    /// `DistVec::to_global`), solve in the gathered buffer with the
    /// already-factored operator, then *scatter* each rank its owned share
    /// (exactly `DistVec::scatter_from_global`). The gather and scatter
    /// both travel the binomial tree as one coalesced message per edge, and
    /// the scatter ships each rank only its own values instead of
    /// broadcasting the full coarse vector — which is also precisely the
    /// traffic `CoarseDirect::apply` charges the BSP model.
    fn coarse_solve(&mut self, r: &Vec<f64>, x: &mut Vec<f64>) -> Done<Self> {
        let level = self.h.levels.last().expect("hierarchy has a level");
        let (t, layout) = (&mut *self.t, level.layout);
        let before = t.stats().wait_s;
        let gathered = pmg_comm::gather(t, &f64s_to_bytes(r))?;
        let shares = gathered.map(|parts| {
            // Only the gather root ever needs the factor: sharded setups
            // hold it on rank 0 alone, replicated hierarchies everywhere.
            let direct = level.coarse.expect("rank 0 holds the coarsest-grid factor");
            let mut global = vec![0.0; layout.num_global()];
            for (rk, blob) in parts.iter().enumerate() {
                for (&g, v) in layout.owned(rk).iter().zip(f64s_from_bytes(blob)) {
                    global[g as usize] = v;
                }
            }
            direct.solve_global_in_place(&mut global);
            (0..t.size())
                .map(|rk| {
                    let share: Vec<f64> = layout
                        .owned(rk)
                        .iter()
                        .map(|&g| global[g as usize])
                        .collect();
                    f64s_to_bytes(&share)
                })
                .collect()
        });
        let mine = pmg_comm::scatter(t, shares)?;
        self.waits.coarse_s += t.stats().wait_s - before;
        for (xi, v) in x.iter_mut().zip(f64s_from_bytes(&mine)) {
            *xi = v;
        }
        Ok(())
    }

    fn add(&mut self, x: &mut Vec<f64>, y: &Vec<f64>) {
        vector::axpy(1.0, y, x);
    }

    // Rank 0 only, so SPMD runs record once like the orchestrated path.
    fn traced(&self) -> bool {
        self.t.rank() == 0
    }
}

/// `y = op · x` with the wait time booked to the halo phase. With
/// `overlap`, the overlapped schedule runs and only the blocked remainder
/// reaches `halo_s` (the transport's wait clock ticks inside blocking
/// receives only, so latency spent computing interior rows never enters
/// it); the hidden window and row-split sizes accumulate alongside.
fn halo_spmv<T: Transport>(
    t: &mut T,
    w: &mut PhaseWaits,
    op: &LevelOp<'_>,
    overlap: bool,
    x: &[f64],
    y: &mut [f64],
) -> Result<(), CommError> {
    let before = t.stats().wait_s;
    if overlap {
        let info = op.spmv_overlapped(t, x, y)?;
        w.halo_hidden_s += info.hidden_s;
        w.interior_rows += info.interior_rows;
        w.boundary_rows += info.boundary_rows;
    } else {
        op.spmv(t, x, y)?;
    }
    w.halo_s += t.stats().wait_s - before;
    Ok(())
}

/// The message-passing backend of [`pcg_generic`]: vectors are this rank's
/// owned slices, the operator and preconditioner come from the rank's
/// [`RankHierarchy`], and every reduction point is one `allreduce_many`.
struct TransportPcg<'a, 'h, T: Transport> {
    ops: RankLevels<'a, 'h, T>,
    /// The cycle's temporaries, allocated once per solve and shared by
    /// every preconditioner application.
    scratch: CycleScratch<Vec<f64>>,
}

impl<T: Transport> PcgBackend for TransportPcg<'_, '_, T> {
    type Vector = Vec<f64>;
    type Error = CommError;

    fn zeros(&self) -> Vec<f64> {
        self.ops.zeros(0)
    }

    fn apply(&mut self, x: &Vec<f64>, y: &mut Vec<f64>) -> Result<(), CommError> {
        let (h, ops) = (self.ops.h, &mut self.ops);
        halo_spmv(ops.t, &mut ops.waits, &h.levels[0].a, h.overlap, x, y)
    }

    fn precond(&mut self, r: &Vec<f64>, z: &mut Vec<f64>) -> Result<(), CommError> {
        let opts = &self.ops.h.opts;
        cycle::apply(&mut self.ops, opts, 0, r, z, &mut self.scratch)
    }

    /// Local partials, then one fused binomial allreduce: it reduces
    /// elementwise through the same tree as `DistVec::dot`, so each
    /// component is bitwise its own scalar allreduce.
    fn dots(&mut self, pairs: &[(&Vec<f64>, &Vec<f64>)]) -> Result<Vec<f64>, CommError> {
        let mut partials: Vec<f64> = pairs.iter().map(|(u, v)| vector::dot(u, v)).collect();
        let ops = &mut self.ops;
        let before = ops.t.stats().wait_s;
        pmg_comm::allreduce_many(ops.t, &mut partials)?;
        ops.waits.allreduce_s += ops.t.stats().wait_s - before;
        Ok(partials)
    }

    fn axpy(&mut self, alpha: f64, x: &Vec<f64>, y: &mut Vec<f64>) {
        vector::axpy(alpha, x, y);
    }

    fn aypx(&mut self, beta: f64, x: &Vec<f64>, y: &mut Vec<f64>) {
        vector::aypx(beta, x, y);
    }

    fn record_iteration(&mut self) {
        if self.ops.traced() {
            pmg_telemetry::counter_add("pcg/iterations", 1);
        }
    }

    fn record_residual(&mut self, rnorm: f64) {
        if self.ops.traced() {
            pmg_telemetry::series_push("pcg/residuals", rnorm);
        }
    }
}

/// PCG over a real transport, preconditioned by one MG cycle per
/// [`RankHierarchy`]: [`pmg_solver::pcg_generic`] on this rank's shares, and
/// so the same recurrence as [`pmg_solver::pcg()`]. `b_local`/`x_local` are
/// this rank's shares in the fine layout's owned order; `x_local` holds the
/// initial guess and the solution. The schedule is the same for either
/// setting of [`RankHierarchy::overlap`]: same messages, same allreduces.
///
/// Telemetry (rank 0 only): `pcg/iterations`, the `pcg/residuals` series,
/// the cycle's scopes — `precond` and under it
/// `level{N}/{smooth,restrict,prolong,coarse}`, entered as often as the
/// simulator enters them — the real per-phase wait gauges
/// `comm/wait/{halo,allreduce,coarse}`, and the overlap accounting
/// `comm/overlap/{interior_rows,boundary_rows}` counters plus the
/// `comm/overlap/halo_hidden_s` gauge.
pub fn spmd_pcg<T: Transport>(
    t: &mut T,
    h: &RankHierarchy<'_>,
    b_local: &[f64],
    x_local: &mut [f64],
    opts: PcgOptions,
) -> Result<(PcgResult, PhaseWaits), CommError> {
    let ops = RankLevels {
        t,
        h,
        waits: PhaseWaits::default(),
    };
    let scratch = CycleScratch::new(&ops, 0, h.opts.cycle);
    let mut be = TransportPcg { ops, scratch };
    // The cycle's vectors are `Vec<f64>`, so the caller's slices are copied
    // in and the solution copied back.
    let mut x = x_local.to_vec();
    let result = pcg_generic(&mut be, &b_local.to_vec(), &mut x, opts)?;
    x_local.copy_from_slice(&x);
    if be.ops.traced() {
        be.ops.waits.publish();
    }
    Ok((result, be.ops.waits))
}

/// Outcome of a threaded SPMD solve: the assembled global solution and its
/// result, plus per-rank real communication statistics.
pub struct SpmdSolveOutcome {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// The solve result (identical on every rank by construction).
    pub result: PcgResult,
    /// Per-rank transport statistics (messages, bytes, real wait time).
    pub stats: Vec<CommStats>,
    /// Per-rank per-phase wait breakdown.
    pub waits: Vec<PhaseWaits>,
}

/// Run the solve `A x = b` as one threaded SPMD program through
/// [`spmd_pcg`]: one OS thread per rank of the hierarchy's fine layout,
/// connected by a [`LocalTransport`] machine. The hierarchy is borrowed
/// read-only by every rank (the setup is shared; only the solve runs SPMD),
/// and the returned solution is bitwise identical to the orchestrated
/// [`pmg_solver::pcg()`] path at any rank count.
///
/// `overlap` picks the halo schedule ([`RankHierarchy::overlap`]); both
/// produce bitwise-identical solutions, residual histories and message
/// counts, and `false` exists for A/B wait-time measurements of the
/// blocking exchange.
pub fn solve_threads(
    mg: &MgHierarchy,
    b: &[f64],
    opts: PcgOptions,
    overlap: bool,
) -> Result<SpmdSolveOutcome, CommError> {
    let layout = mg.levels[0].a.row_layout().clone();
    let nranks = layout.num_ranks();
    assert_eq!(b.len(), layout.num_global(), "rhs length");

    let layout_ref = &layout;
    let per_rank = LocalTransport::run_ranks(nranks, move |mut t| {
        let rank = t.rank();
        let mut h = RankHierarchy::extract(mg, rank);
        h.overlap = overlap;
        let owned = layout_ref.owned(rank);
        let bl: Vec<f64> = owned.iter().map(|&g| b[g as usize]).collect();
        let mut xl = vec![0.0; owned.len()];
        let (result, waits) = spmd_pcg(&mut t, &h, &bl, &mut xl, opts)?;
        Ok::<_, CommError>((xl, result, waits, t.stats()))
    });

    let mut x = vec![0.0; layout.num_global()];
    let mut result = None;
    let mut stats = Vec::with_capacity(nranks);
    let mut waits = Vec::with_capacity(nranks);
    for (rank, out) in per_rank.into_iter().enumerate() {
        let (xl, res, wt, st) = out?;
        for (&g, &v) in layout.owned(rank).iter().zip(&xl) {
            x[g as usize] = v;
        }
        if rank == 0 {
            result = Some(res);
        }
        waits.push(wt);
        stats.push(st);
    }
    Ok(SpmdSolveOutcome {
        x,
        result: result.expect("at least one rank"),
        stats,
        waits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_mesh;
    use crate::mg::MgOptions;
    use pmg_parallel::{DistVec, MachineModel, Sim};
    use pmg_solver::pcg;
    use pmg_sparse::{CooBuilder, CsrMatrix};

    fn scalar_problem(n: usize) -> (CsrMatrix, Vec<pmg_geometry::Vec3>, pmg_partition::Graph) {
        let m = pmg_mesh::generators::cube(n);
        let g = m.vertex_graph();
        let nv = m.num_vertices();
        let mut b = CooBuilder::new(nv, nv);
        for v in 0..nv {
            b.push(v, v, g.degree(v) as f64 + 1.0);
            for &w in g.neighbors(v) {
                b.push(v, w as usize, -1.0);
            }
        }
        (b.build(), m.coords.clone(), g)
    }

    #[test]
    fn malformed_row_and_request_blobs_are_typed_errors() {
        // The wire form fetch_rows and the bottom-level gather both decode.
        let a = scalar_problem(2).0;
        let mut blob = Vec::new();
        encode_rows_into(&mut blob, &a, 0..a.nrows());
        let decode = |blob: Vec<u8>, ncols: usize| {
            let rows = (0..a.nrows()).map(|_| RowSource::Blob(0));
            rows_from_blobs(&[blob], ncols, 0, rows)
        };
        assert_eq!(decode(blob.clone(), a.ncols()).unwrap(), a);
        let malformed = Err(CommError::Invalid("malformed row blob".into()));
        assert_eq!(
            decode(blob[..blob.len() - 3].to_vec(), a.ncols()),
            malformed
        );
        assert_eq!(
            decode([&blob[..], &[0u8; 4]].concat(), a.ncols()),
            malformed
        );
        assert_eq!(
            decode(blob.clone(), a.ncols() - 1),
            malformed,
            "column out of range"
        );
        // A row count that promises more than the blob holds.
        assert_eq!(
            decode(u32::MAX.to_le_bytes().to_vec(), a.ncols()),
            malformed
        );

        // The request lists of fetch_rows' first phase.
        let ids = [3u32, 1, 4];
        let bytes = u32s_to_bytes(&ids);
        assert_eq!(bytes_to_u32s(&bytes).unwrap(), ids);
        for ragged in [
            &bytes[..bytes.len() - 1],
            &[&bytes[..], &[7u8][..]].concat()[..],
        ] {
            assert_eq!(
                bytes_to_u32s(ragged),
                Err(CommError::Invalid("malformed u32 list blob".into()))
            );
        }
    }

    #[test]
    fn threaded_solve_matches_sim_bitwise() {
        let n = 7;
        let m = pmg_mesh::generators::cube(n);
        let classes = classify_mesh(&m, 0.7);
        let (a, coords, g) = scalar_problem(n);
        let nv = a.nrows();
        let bg: Vec<f64> = (0..nv).map(|i| (i as f64 * 0.23).sin()).collect();
        let opts = PcgOptions {
            rtol: 1e-8,
            max_iters: 60,
            ..Default::default()
        };
        for p in [1usize, 2, 4] {
            let mut sim = Sim::new(p, MachineModel::default());
            let mg_opts = MgOptions {
                dofs_per_vertex: 1,
                coarse_dof_threshold: 60,
                ..Default::default()
            };
            let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &classes, mg_opts);
            let layout = mg.levels[0].a.row_layout().clone();
            let db = DistVec::from_global(layout.clone(), &bg);
            let mut dx = DistVec::zeros(layout);
            let sim_res = pcg(&mut sim, &mg.levels[0].a, &mg, &db, &mut dx, opts);
            let expect = dx.to_global();

            let spmd = solve_threads(&mg, &bg, opts, true).unwrap();
            let res = &spmd.result;
            assert_eq!(res.converged, sim_res.converged, "p={p}");
            assert_eq!(res.iterations, sim_res.iterations, "p={p}");
            assert_eq!(res.residuals.len(), sim_res.residuals.len(), "p={p}");
            for (a, b) in res.residuals.iter().zip(&sim_res.residuals) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p} residual history");
            }
            for (a, b) in spmd.x.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p} solution");
            }
            assert!(spmd.stats.iter().any(|s| s.msgs > 0) || p == 1, "p={p}");

            // The schedule flag changes only the schedule: the blocking
            // run is the same arithmetic *and* the same traffic — every
            // rank sends the same messages and enters the same allreduces —
            // it just hides no halo window.
            let blocking = solve_threads(&mg, &bg, opts, false).unwrap();
            let bres = &blocking.result;
            assert_eq!(bres.iterations, res.iterations, "p={p}");
            for (a, b) in blocking.x.iter().zip(&spmd.x) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p} blocking solution");
            }
            for (a, b) in bres.residuals.iter().zip(&res.residuals) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p} blocking residuals");
            }
            for (rank, (o, b)) in spmd.stats.iter().zip(&blocking.stats).enumerate() {
                assert_eq!(
                    (o.msgs, o.bytes, o.allreduces),
                    (b.msgs, b.bytes, b.allreduces),
                    "p={p} rank={rank}: overlap must not change (msgs, bytes, allreduces)"
                );
            }
            let w0 = spmd.waits[0];
            assert!(
                w0.interior_rows + w0.boundary_rows > 0,
                "p={p}: overlap row accounting must tick"
            );
            assert_eq!(blocking.waits[0].interior_rows, 0, "p={p}");
        }
    }

    /// 3-dof expansion of the scalar cube problem: each scalar entry
    /// becomes `v·I₃`, so the matrix is SPD, vertex-aligned, and exercises
    /// the BSR3 promotion on every level.
    fn vector_problem(n: usize) -> (CsrMatrix, Vec<pmg_geometry::Vec3>, pmg_partition::Graph) {
        let (a, coords, g) = scalar_problem(n);
        let mut b = CooBuilder::new(3 * a.nrows(), 3 * a.ncols());
        for (i, j, v) in a.iter() {
            for d in 0..3 {
                b.push(3 * i + d, 3 * j + d, v);
            }
        }
        (b.build(), coords, g)
    }

    #[test]
    fn breakdown_is_reported_over_the_transport() {
        // The message-passing backend reports loss of positive definiteness
        // and non-finite data the way the simulator's does: `breakdown`,
        // not a silent `converged: false`.
        let n = 4;
        let m = pmg_mesh::generators::cube(n);
        let classes = classify_mesh(&m, 0.7);
        let (spd, coords, g) = scalar_problem(n);
        let nv = spd.nrows();
        // Indefinite diagonal, right-hand side on its negative part: with
        // the one-level hierarchy's exact preconditioner, p·Ap = bᵀA⁻¹b < 0.
        let mut diag = CooBuilder::new(nv, nv);
        for i in 0..nv {
            diag.push(i, i, if i < nv / 2 { 2.0 } else { -1.0 });
        }
        let on_negative: Vec<f64> = (0..nv)
            .map(|i| if i < nv / 2 { 0.0 } else { 1.0 })
            .collect();
        let mut poisoned = vec![1.0; nv];
        poisoned[nv / 3] = f64::NAN;
        // p·Ap < 0 shows at the first iteration, a NaN at the first reduction.
        for (a, b, iters) in [(diag.build(), on_negative, 1), (spd, poisoned, 0)] {
            for p in [1usize, 2] {
                let mut sim = Sim::new(p, MachineModel::default());
                let mg_opts = MgOptions {
                    dofs_per_vertex: 1,
                    coarse_dof_threshold: nv,
                    ..Default::default()
                };
                let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &classes, mg_opts);
                let out = solve_threads(&mg, &b, PcgOptions::default(), true).unwrap();
                let res = &out.result;
                assert!(res.breakdown && !res.converged, "p={p}: {res:?}");
                assert_eq!(res.iterations, iters, "p={p}");
                assert!(out.x.iter().all(|&v| v == 0.0), "p={p}: x untouched");
            }
        }
    }

    #[test]
    fn shards_match_extract_oracle() {
        // The PR's tentpole bar: a hierarchy grown from partition-at-ingest
        // seeds and per-rank owned fine rows — no rank ever holding the
        // global mesh, matrix, or vectors, no coarse value allgather, the
        // direct factor on rank 0 alone — holds level shares bitwise
        // identical to the extract oracle, and the solve reproduces the
        // oracle solve bit for bit.
        for (dofs, n) in [(1usize, 7usize), (3, 5)] {
            let (a, coords, g) = if dofs == 1 {
                scalar_problem(n)
            } else {
                vector_problem(n)
            };
            let m = pmg_mesh::generators::cube(n);
            let classes = classify_mesh(&m, 0.7);
            let nv = a.nrows();
            let bg: Vec<f64> = (0..nv).map(|i| (i as f64 * 0.23).sin()).collect();
            let opts = PcgOptions {
                rtol: 1e-8,
                max_iters: 60,
                ..Default::default()
            };
            for p in [1usize, 2, 4] {
                let mut sim = Sim::new(p, MachineModel::default());
                let mg_opts = MgOptions {
                    dofs_per_vertex: dofs,
                    coarse_dof_threshold: 60 * dofs,
                    ..Default::default()
                };
                let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &classes, mg_opts);
                let oracle = solve_threads(&mg, &bg, opts, true).unwrap();
                let layout = mg.levels[0].a.row_layout().clone();

                // The ingest side: the loader plans seeds once ...
                let plan = crate::ingest::plan_ingest(&coords, &g, &classes, &[], p, &mg_opts);
                // Same RCB ownership the replicated build derived itself.
                for (v, &o) in plan.part().iter().enumerate() {
                    assert_eq!(o, layout.owner(v * dofs), "vertex {v} owner");
                }

                let mg_ref = &mg;
                let a_ref = &a;
                let bg_ref = &bg;
                let layout_ref = &layout;
                let plan_ref = &plan;
                let per_rank = LocalTransport::run_ranks(p, move |mut t| {
                    let rank = t.rank();
                    // ... each rank receives its seed over the scatter tree
                    // and assembles only its owned fine rows (extracted from
                    // the test's global matrix here; `RankAssembly` produces
                    // the same bits from a real mesh shard).
                    let give = if rank == 0 { Some(plan_ref) } else { None };
                    let seed = crate::ingest::scatter_seeds(&mut t, give)?;
                    let a_owned = a_ref.extract_rows(layout_ref.owned(rank));
                    let setup = RankHierarchy::build_from_shards(&mut t, &seed, &a_owned, mg_opts)?;
                    assert_eq!(setup.num_levels(), mg_ref.levels.len(), "p={p} rank={rank}");
                    for (lvl, dl) in setup.levels.iter().enumerate() {
                        let ml = &mg_ref.levels[lvl];
                        assert_eq!(
                            dl.a.bsr3_routed(),
                            ml.a.bsr3_routed(),
                            "p={p} rank={rank} lvl={lvl} bsr3"
                        );
                        // Owned-share coarse: the direct factor exists on the
                        // gather root's bottom level only.
                        assert_eq!(
                            dl.coarse.is_some(),
                            ml.coarse.is_some() && rank == 0,
                            "p={p} rank={rank} lvl={lvl} factor placement"
                        );
                        assert_eq!(dl.r.is_none(), ml.r.is_none(), "bottom marker");
                        let pairs = [
                            (Some(dl.a.local_block()), Some(ml.a.local_block(rank))),
                            (
                                dl.r.as_ref().map(|m| m.local_block()),
                                ml.r.as_ref().map(|m| m.local_block(rank)),
                            ),
                            (
                                dl.p.as_ref().map(|m| m.local_block()),
                                ml.p.as_ref().map(|m| m.local_block(rank)),
                            ),
                        ];
                        for (got, want) in pairs {
                            match (got, want) {
                                (Some(x), Some(y)) => {
                                    assert_eq!(x.nrows(), y.nrows(), "p={p} lvl={lvl}");
                                    assert_eq!(x.nnz(), y.nnz(), "p={p} lvl={lvl}");
                                    for (u, v) in x.vals().iter().zip(y.vals()) {
                                        assert_eq!(
                                            u.to_bits(),
                                            v.to_bits(),
                                            "p={p} rank={rank} lvl={lvl} values"
                                        );
                                    }
                                }
                                (None, None) => {}
                                _ => panic!("p={p} lvl={lvl}: R/P presence diverged"),
                            }
                        }
                    }
                    let h = setup.rank_hierarchy();
                    let bl: Vec<f64> = layout_ref
                        .owned(rank)
                        .iter()
                        .map(|&gi| bg_ref[gi as usize])
                        .collect();
                    let mut xl = vec![0.0; bl.len()];
                    let (result, _w) = spmd_pcg(&mut t, &h, &bl, &mut xl, opts)?;
                    Ok::<_, CommError>((xl, result))
                });

                let mut x = vec![0.0; layout.num_global()];
                for (rank, out) in per_rank.into_iter().enumerate() {
                    let (xl, res) = out.unwrap();
                    for (&gi, &v) in layout.owned(rank).iter().zip(&xl) {
                        x[gi as usize] = v;
                    }
                    assert_eq!(
                        res.iterations, oracle.result.iterations,
                        "p={p} dofs={dofs}"
                    );
                    assert_eq!(res.converged, oracle.result.converged);
                    for (u, v) in res.residuals.iter().zip(&oracle.result.residuals) {
                        assert_eq!(u.to_bits(), v.to_bits(), "p={p} dofs={dofs} residuals");
                    }
                }
                for (u, v) in x.iter().zip(&oracle.x) {
                    assert_eq!(u.to_bits(), v.to_bits(), "p={p} dofs={dofs} solution");
                }
            }
        }
    }

    #[test]
    fn sharded_ingest_tolerates_empty_ranks() {
        // An ownership map that leaves one rank with no fine vertices at
        // all: the seeded setup must still build, and the solve must still
        // converge to the true solution (bitwise parity with the oracle is
        // an RCB-layout contract, so here we assert the residual instead).
        let n = 5;
        let m = pmg_mesh::generators::cube(n);
        let classes = classify_mesh(&m, 0.7);
        let (a, coords, g) = scalar_problem(n);
        let nv = a.nrows();
        let bg: Vec<f64> = (0..nv).map(|i| (i as f64 * 0.23).sin()).collect();
        let mg_opts = MgOptions {
            dofs_per_vertex: 1,
            coarse_dof_threshold: 40,
            ..Default::default()
        };
        // Two-way RCB embedded in a three-rank world: rank 2 owns nothing.
        let part = recursive_coordinate_bisection(&coords, 2);
        let plan = crate::ingest::plan_ingest_with_part(
            &coords,
            &g,
            &classes,
            &[],
            part.clone(),
            3,
            &mg_opts,
        );
        let layout = Layout::from_part(part, 3);
        let opts = PcgOptions {
            rtol: 1e-8,
            max_iters: 60,
            ..Default::default()
        };
        let a_ref = &a;
        let bg_ref = &bg;
        let layout_ref = &layout;
        let plan_ref = &plan;
        let per_rank = LocalTransport::run_ranks(3, move |mut t| {
            let rank = t.rank();
            let a_owned = a_ref.extract_rows(layout_ref.owned(rank));
            let setup =
                RankHierarchy::build_from_shards(&mut t, &plan_ref.seeds[rank], &a_owned, mg_opts)?;
            let h = setup.rank_hierarchy();
            let bl: Vec<f64> = layout_ref
                .owned(rank)
                .iter()
                .map(|&gi| bg_ref[gi as usize])
                .collect();
            let mut xl = vec![0.0; bl.len()];
            let (result, _w) = spmd_pcg(&mut t, &h, &bl, &mut xl, opts)?;
            Ok::<_, CommError>((xl, result.converged))
        });
        let mut x = vec![0.0; nv];
        for (rank, out) in per_rank.into_iter().enumerate() {
            let (xl, converged) = out.unwrap();
            assert!(converged, "rank {rank}");
            if rank == 2 {
                assert!(xl.is_empty(), "rank 2 owns nothing");
            }
            for (&gi, &v) in layout.owned(rank).iter().zip(&xl) {
                x[gi as usize] = v;
            }
        }
        let mut r = bg.clone();
        for (i, j, v) in a.iter() {
            r[i] -= v * x[j];
        }
        let rn = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let bn = bg.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rn / bn < 1e-7, "residual {} too large", rn / bn);
    }

    proptest::proptest! {
        /// `fetch_rows` must serve verbatim row bits under *any* ownership
        /// map — unbalanced, interleaved, with empty ranks — because the
        /// sharded Galerkin product trusts it for off-rank A rows.
        #[test]
        fn fetch_rows_serves_arbitrary_ownership(
            part in proptest::collection::vec(0u32..3, 40),
            picks in proptest::collection::vec(0u32..2, 40),
        ) {
            use rand::{Rng, SeedableRng};
            let n = part.len();
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut b = CooBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 4.0 + rng.gen_range(0.0..1.0));
                for _ in 0..3 {
                    let j = rng.gen_range(0..n);
                    if j != i {
                        b.push(i, j, rng.gen_range(-1.0..1.0));
                    }
                }
            }
            let a = b.build();
            let layout = Layout::from_part(part, 3);
            let need: Vec<u32> = (0..n as u32).filter(|&i| picks[i as usize] == 1).collect();
            let want = a.extract_rows(&need);
            let a_ref = &a;
            let layout_ref = &layout;
            let need_ref = &need;
            let oks = LocalTransport::run_ranks(3, move |mut t| {
                let rank = t.rank();
                let a_owned = a_ref.extract_rows(layout_ref.owned(rank));
                let got = fetch_rows(&mut t, &a_owned, layout_ref, need_ref, 0x7000).unwrap();
                got.col_idx() == want.col_idx()
                    && got
                        .vals()
                        .iter()
                        .zip(want.vals())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
            proptest::prop_assert!(oks.into_iter().all(|ok| ok));
        }
    }
}
