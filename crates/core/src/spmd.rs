//! SPMD execution of the multigrid setup and the multigrid-preconditioned
//! CG solve over a real [`Transport`].
//!
//! The orchestrated path ([`crate::solver::Prometheus`]) loops over virtual
//! ranks in one address space and charges a BSP machine model. This module
//! runs the *same* setup and solve as a true single-program-multiple-data
//! program: every rank (a thread over [`LocalTransport`], or a process over
//! `pmg_comm::SocketTransport`) builds and holds only its own share of each
//! level ([`RankHierarchy::build_from_shards`], the only way an SPMD
//! hierarchy comes into being) and exchanges halos, inner-product partials,
//! and the coarse-grid gather as real messages.
//!
//! Bitwise parity is the design contract. A rank's share of a level is the
//! object the orchestrated path holds one of per virtual rank —
//! [`RankMatrix`] for `A`, `R` and `P`, [`RankJacobi`] for the smoother —
//! and runs the same kernels ([`RankMatrix::spmv`],
//! [`RankJacobi::solve_add`], [`CoarseDirect::solve_global_in_place`]),
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
use crate::ingest::{IngestPlan, RankSeed};
use crate::mg::{expand_restriction, MgOptions, SmootherType};
use pmg_comm::{CommError, CommStats, LeReader, LeWriter, LocalTransport, Transport};
use pmg_geometry::Vec3;
use pmg_parallel::{Layout, RankMatrix};
use pmg_partition::{recursive_coordinate_bisection, Graph};
use pmg_solver::{pcg_generic, CoarseDirect, PcgBackend, PcgOptions, PcgResult, RankJacobi};
use pmg_sparse::{vector, CsrMatrix, RapPlan};
use std::borrow::Cow;
use std::sync::Arc;

/// Real time (seconds) a rank spent blocked on each communication phase,
/// measured from the transport's wait clock — not modeled.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseWaits {
    /// Waiting on halo-exchange receives (level operator, R, P products):
    /// what was still on the wire after the product's `diag` block, which
    /// runs while the halo is in flight.
    pub halo_s: f64,
    /// Waiting inside allreduces (inner products and norms).
    pub allreduce_s: f64,
    /// Waiting in the coarse-grid gather/solve/scatter.
    pub coarse_s: f64,
    /// Always 0: the `diag` product each halo exchange runs in flight is
    /// not timed apart. Still a field only because `benchmark/`'s
    /// `comm.halo_hidden_s` reads it; it leaves with that metric at the
    /// benchmark re-baseline (ROADMAP item 1).
    pub halo_hidden_s: f64,
}

impl PhaseWaits {
    fn publish(&self) {
        pmg_telemetry::gauge_set("comm/wait/halo", self.halo_s);
        pmg_telemetry::gauge_set("comm/wait/allreduce", self.allreduce_s);
        pmg_telemetry::gauge_set("comm/wait/coarse", self.coarse_s);
    }
}

/// One rank's solve handle on its [`DistributedSetup`]: the SPMD
/// counterpart of the simulated hierarchy's `Precond` implementation.
pub struct RankHierarchy<'a> {
    setup: &'a DistributedSetup,
    /// Read by nothing: every product runs the one halo schedule
    /// (`docs/comm.md`, "Halo schedule"). Still a field only because
    /// `benchmark/`'s `comm.overlap_gain_frac` probe sets it; it leaves
    /// with that metric at the benchmark re-baseline (ROADMAP item 1).
    pub overlap: bool,
}

/// Message tags: each operator of each level gets its own tag so a
/// lockstep program never confuses halo traffic between products.
fn tags(lvl: usize) -> (u32, u32, u32) {
    let base = 16 * lvl as u32;
    (base, base + 1, base + 2)
}

/// Setup-phase point-to-point tag space: far above the solve's
/// `tags(lvl)` so the set-up's row fetches of any level can never alias
/// solve traffic (collectives carry their own fixed tag).
fn setup_tag(lvl: usize) -> u32 {
    0x5000 + 16 * lvl as u32
}

/// One grid level of a distributed setup: this rank's **owned** share of
/// the operator (whose row layout is the level's), restriction, and
/// prolongation, its block-Jacobi factors, and (on the gather root's
/// coarsest grid) the direct factor.
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
}

/// A multigrid hierarchy built **by** the SPMD ranks themselves: this
/// rank's share of every level, which [`RankHierarchy`] solves on. It is
/// the only way a message-passing hierarchy comes into being.
///
/// Produced by [`RankHierarchy::build_from_shards`] from a
/// partition-at-ingest seed and this rank's owned fine rows: every level is
/// held as owned rows only, coarse grids are coarsened by the §4.2 MIS
/// rounds and the §4.5 face-ID merge over the transport, and the Galerkin
/// product fetches the few off-rank rows it needs point-to-point.
///
/// Call [`DistributedSetup::rank_hierarchy`] for the solve handle.
/// Its shares are **bitwise identical** to rank `rank`'s local blocks of
/// the simulated [`MgHierarchy::build`](crate::MgHierarchy::build) on the
/// same global problem, and its solve to the simulated
/// [`pmg_solver::pcg()`] — the parity the
/// `shards_match_the_simulated_hierarchy` test pins.
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
        self.levels[lvl].a.row_layout().num_global()
    }

    /// Rows of level `lvl` owned by this rank.
    pub fn level_rows_local(&self, lvl: usize) -> usize {
        self.levels[lvl].a.local_block().nrows()
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
        self.levels[0].a.row_layout()
    }

    /// Resident bytes of this rank's share of every level: `A`, `R` and
    /// `P`, the block-Jacobi factors and, on rank 0, the coarsest factor.
    pub fn memory_bytes(&self) -> u64 {
        let level = |l: &DistLevel| {
            let mats = [Some(&l.a), l.r.as_ref(), l.p.as_ref()];
            let mats = mats.into_iter().flatten();
            let coarse = l.coarse.as_ref().map_or(0, CoarseDirect::memory_bytes);
            mats.map(RankMatrix::memory_bytes).sum::<u64>() + l.smoother.memory_bytes() + coarse
        };
        self.levels.iter().map(level).sum()
    }

    /// This rank's solve handle, ready for [`spmd_pcg`].
    pub fn rank_hierarchy(&self) -> RankHierarchy<'_> {
        RankHierarchy {
            setup: self,
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
    m.install_plan(&lists)
}

/// A request list of global row ids: the whole message is the ids.
pub(crate) fn decode_row_ids(b: &[u8]) -> Result<Vec<u32>, CommError> {
    let ids = LeReader::all_u32s(b).map(Iterator::collect);
    ids.ok_or_else(|| CommError::Invalid("malformed u32 list blob".into()))
}

/// Encode a run of CSR rows as `[len, cols.., valbits..]` per row — the
/// wire format of the setup's row exchanges and the bottom-level gather.
/// Values travel as raw bits so the receiver reconstructs them verbatim.
pub(crate) fn encode_rows_into(w: &mut LeWriter, a: &CsrMatrix, rows: impl Iterator<Item = usize>) {
    for i in rows {
        let (cols, vals) = a.row(i);
        w.u32(cols.len() as u32);
        w.u32s(cols.iter().map(|&c| c as u32));
        w.f64s(vals.iter().copied());
    }
}

/// Reassemble a matrix of `ncols` columns row by row from peers'
/// [`encode_rows_into`] blobs: row `i` is the next undecoded row of blob
/// `owners`' `i`-th item. A blob that runs short, is not used up, or holds
/// a row whose column ids are not strictly ascending inside `0..ncols` is
/// a malformed message — every consumer (the held-row tiles of the
/// Galerkin product, the coarse factor) reads rows as sorted, unique
/// columns.
pub(crate) fn rows_from_blobs(
    blobs: &[Vec<u8>],
    ncols: usize,
    nnz_bound: usize,
    owners: impl ExactSizeIterator<Item = usize>,
) -> Result<CsrMatrix, CommError> {
    let bad = || CommError::Invalid("malformed row blob".into());
    let mut readers: Vec<LeReader> = blobs.iter().map(|b| LeReader::new(b)).collect();
    let nrows = owners.len();
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz_bound);
    let mut vals = Vec::with_capacity(nnz_bound);
    for q in owners {
        let r = &mut readers[q];
        let len = r.u32().ok_or_else(bad)? as usize;
        let at = col_idx.len();
        col_idx.extend(r.u32s(len).ok_or_else(bad)?.map(|c| c as usize));
        vals.extend(r.f64s(len).ok_or_else(bad)?);
        let cols = &col_idx[at..];
        if cols.windows(2).any(|w| w[0] >= w[1]) || cols.last().is_some_and(|&c| c >= ncols) {
            return Err(bad());
        }
        row_ptr.push(col_idx.len());
    }
    if !readers.iter().all(LeReader::is_empty) {
        return Err(bad());
    }
    Ok(CsrMatrix::from_parts(nrows, ncols, row_ptr, col_idx, vals))
}

/// Fetch the global rows `need` (ascending, **none owned by this rank**)
/// of an operator stored as owned-rows shares across the ranks, serving
/// the rows peers ask of `a_owned` in turn. Rows travel a deterministic
/// pairwise exchange (lower rank sends first; request lists on `tag`, row
/// payloads on `tag + 1` — every pair exchanges on both tags even when
/// empty, keeping the lockstep schedule identical on all ranks). Returned
/// rows are **verbatim bits** of the owners' rows, in `need` order, with
/// global column ids; the caller reads its own rows in place.
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
        debug_assert_ne!(o, rank, "fetch_rows: row {g} is this rank's own");
        wanted[o].push(g);
    }

    // Phase 1: request lists. Phase 2: row payloads, served in request
    // order. Both phases visit peers in ascending rank order with the
    // lower rank sending first, so no pair can deadlock.
    let mut asked_of_me: Vec<Vec<u32>> = vec![Vec::new(); p];
    for q in 0..p {
        if q == rank {
            continue;
        }
        let mut mine = LeWriter::with_capacity(4 * wanted[q].len());
        let mine = mine.u32s(wanted[q].iter().copied()).as_bytes();
        if rank < q {
            t.send(q, tag, mine)?;
            asked_of_me[q] = decode_row_ids(&t.recv(q, tag)?)?;
        } else {
            asked_of_me[q] = decode_row_ids(&t.recv(q, tag)?)?;
            t.send(q, tag, mine)?;
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
        let mut blob = LeWriter::new();
        encode_rows_into(
            &mut blob,
            a_owned,
            asked_of_me[q]
                .iter()
                .map(|&g| layout.local_index(g as usize) as usize),
        );
        if rank < q {
            t.send(q, tag + 1, blob.as_bytes())?;
            payloads[q] = t.recv(q, tag + 1)?;
        } else {
            payloads[q] = t.recv(q, tag + 1)?;
            t.send(q, tag + 1, blob.as_bytes())?;
        }
    }

    // An upper bound on the entries (each wire entry costs 12 bytes), so
    // the off-rank rows are decoded into arrays that never grow.
    let nnz_bound = payloads.iter().map(|b| b.len() / 12).sum::<usize>();
    let owners = need.iter().map(|&g| layout.owner(g as usize) as usize);
    rows_from_blobs(&payloads, layout.num_global(), nnz_bound, owners)
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
    opts: &MgOptions,
) -> Result<DistLevel, CommError> {
    let smoother = {
        let _t = pmg_telemetry::scope("smoother");
        RankJacobi::new(ra.local_block(), opts.blocks_per_1000, opts.omega)
    };
    let coarse = {
        let _t = pmg_telemetry::scope("coarse_direct");
        let mut blob = LeWriter::new();
        encode_rows_into(&mut blob, a_owned, 0..a_owned.nrows());
        match pmg_comm::gather(t, blob.as_bytes())? {
            None => None,
            Some(parts) => {
                // Owned lists are ascending and tile 0..n, so walking the
                // global rows and pulling each owner's next row reassembles
                // the matrix the replicated path would have held — verbatim.
                let layout = ra.row_layout();
                let n = layout.num_global();
                let owners = (0..n).map(|g| layout.owner(g) as usize);
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
/// `P = Rᵀ` (dof-expanded, global column ids) for the solve, and the coarse
/// grid with its layout.
struct Transfer {
    r_owned: CsrMatrix,
    p_owned: CsrMatrix,
    grid: Grid,
    layout: Arc<Layout>,
    imbalance: f64,
}

/// The vertex-level restriction tiles one level's Galerkin product reads
/// (and nothing else does, so [`galerkin_rows`] consumes them).
struct GalerkinTiles {
    /// Owned coarse-vertex rows of the scalar restriction `R_v`
    /// (`Transfer::r_owned` before dof expansion).
    rv_owned: CsrMatrix,
    /// Ascending global fine vertex ids of `rt_rows`' rows.
    rt_ids: Vec<u32>,
    /// Full `R_vᵀ` rows covering whatever the Galerkin product can touch
    /// ([`RapPlan::over_held`] tolerates a superset).
    rt_rows: CsrMatrix,
}

/// This rank's owned rows of the next level's operator, `R A Rᵀ`: the
/// off-rank `A` rows under the owned restriction support arrive
/// point-to-point ([`fetch_rows`] on `tag`), the owned ones are read in
/// place from `a_owned`. A [`RapPlan`] over both ([`RapPlan::over_held`],
/// which tiles them in the same pass) runs its numeric phase once and is
/// dropped: the rank's set-up keeps no plan.
fn galerkin_rows<T: Transport>(
    t: &mut T,
    tiles: GalerkinTiles,
    a_owned: &CsrMatrix,
    layout: &Arc<Layout>,
    dofs: usize,
    tag: u32,
) -> Result<CsrMatrix, CommError> {
    let _t = pmg_telemetry::scope("rap");
    let rank = t.rank();
    let d = dofs as u32;
    let mut off_ids: Vec<u32> = tiles.rv_owned.col_idx().iter().map(|&v| v as u32).collect();
    off_ids.sort_unstable();
    off_ids.dedup();
    off_ids.retain(|&v| layout.owner((v * d) as usize) as usize != rank);
    let off_dofs: Vec<u32> = off_ids
        .iter()
        .flat_map(|&v| (0..d).map(move |c| v * d + c))
        .collect();
    let fetched = fetch_rows(t, a_owned, layout, &off_dofs, tag)?;
    let own_ids = owned_vertices(layout, rank, dofs);
    let held = [(&own_ids[..], a_owned), (&off_ids[..], &fetched)];
    let (mut plan, a_tiles) =
        RapPlan::over_held(dofs, &tiles.rv_owned, &held, &tiles.rt_ids, &tiles.rt_rows);
    Ok(plan.execute_tiles_csr(&a_tiles))
}

/// Level 0's transfer, from the ingest seed: the fine grid was coarsened
/// once at load time and split into per-rank restriction tiles. `None` when
/// the plan found the fine grid to be the coarsest.
fn seed_transfer(
    seed: &RankSeed,
    fine_vlayout: &Layout,
    dofs: usize,
) -> Option<(Transfer, GalerkinTiles)> {
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
    let transfer = Transfer {
        r_owned: expand_restriction(&cs.r_rows, dofs),
        p_owned: expand_restriction(&cs.rt_rows.extract_rows(&pos), dofs),
        grid: Grid {
            coords: cs.coords.clone(),
            graph: cs.graph.clone(),
            classes: cs.classes.clone(),
        },
        layout,
        imbalance,
    };
    let tiles = GalerkinTiles {
        rv_owned: cs.r_rows.clone(),
        rt_ids: cs.rt_ids.clone(),
        rt_rows: cs.rt_rows.clone(),
    };
    Some((transfer, tiles))
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
) -> Result<Option<(Transfer, GalerkinTiles)>, CommError> {
    let (nranks, rank, dofs) = (t.size(), t.rank(), opts.dofs_per_vertex);
    let nv = grid.coords.len();
    let Some(copts) = opts.level_coarsen_options(lvl, nranks, layout.num_global(), nv) else {
        return Ok(None);
    };
    let cl = {
        let _t = pmg_telemetry::scope("coarsen");
        coarsen_level_transport(t, &grid.coords, &grid.graph, &grid.classes, &copts)?
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
    let transfer = Transfer {
        r_owned: expand_restriction(&rv_owned, dofs),
        p_owned: expand_restriction(&pv_owned, dofs),
        grid: Grid {
            coords: cl.coords,
            graph: cl.graph,
            classes: cl.classes,
        },
        layout: next_layout,
        imbalance,
    };
    let tiles = GalerkinTiles {
        rv_owned,
        // The restriction is replicated coarse-scale metadata, so every Rᵀ
        // row is at hand.
        rt_ids: (0..rt_v.nrows() as u32).collect(),
        rt_rows: rt_v,
    };
    Ok(Some((transfer, tiles)))
}

impl RankHierarchy<'_> {
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
    /// Every level runs the same step: compute the owned Galerkin rows
    /// (a [`RapPlan`] over the owned `A` rows, read in place, and the
    /// few off-rank ones fetched point-to-point — no value allgather, no
    /// replicated coarse matrix; the plan is built, executed once and
    /// dropped), then distribute the owned operator rows
    /// (ghost columns resolved by one ghost-list allgather) and the owned
    /// `R`/`P` rows, and factor the block-Jacobi smoother. The product
    /// comes first so that its transient plan and tiles are freed before
    /// the level's share is allocated. Only *where `R` and `Rᵀ` come from*
    /// differs: level 0 reads the seed's restriction tiles (the fine grid was
    /// coarsened once, at load time); coarser grids are replicated and
    /// coarsened here — the MIS as the §4.2 BSP rounds
    /// ([`crate::mis::parallel_mis_transport`]), the reclassification
    /// through the §4.5 face-ID collective
    /// ([`crate::classify::identify_faces_transport`]) — the same step
    /// [`crate::coarsen::coarsen_level`] runs on one rank. **The coarsest
    /// factor** lives on rank 0 alone: owned rows are tree-gathered there,
    /// factored once, and the solve's gather-solve-scatter serves every
    /// rank (other ranks hold `coarse: None`).
    ///
    /// The level shares and the solve are **bitwise identical** to the
    /// simulated `MgHierarchy::build` and its solve on the same global
    /// problem, for the RCB partition both derive; the
    /// `shards_match_the_simulated_hierarchy` test pins it on rank threads
    /// and `tests/parallel_consistency.rs` over sockets.
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
    /// `opts` asking for the Chebyshev smoother is [`CommError::Invalid`],
    /// returned before the first message — the SPMD setup supports the
    /// paper's block-Jacobi smoother, and every rank holds the same options,
    /// so every rank refuses and none is left waiting. (The fine grid is
    /// always assembled here: a matrix-free operator cannot be handed in.)
    pub fn build_from_shards<T: Transport>(
        t: &mut T,
        seed: &RankSeed,
        a_owned: &CsrMatrix,
        opts: MgOptions,
    ) -> Result<DistributedSetup, CommError> {
        if !matches!(opts.smoother, SmootherType::BlockJacobi) {
            return Err(CommError::Invalid(
                "sharded setup supports the block-Jacobi smoother only".into(),
            ));
        }
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

            let transfer = match &cur_grid {
                None => seed_transfer(seed, &fine_vlayout, dofs),
                Some(grid) => coarsen_transfer(t, grid, &cur_layout, lvl, &opts)?,
            };
            // The Galerkin product comes before this level's share, so the
            // transient held-row tiles are freed before the share is
            // allocated; the restriction tiles are freed with them.
            let tag = setup_tag(lvl) + 8;
            let next = match transfer {
                None => None,
                Some((tr, tiles)) => Some((
                    tr,
                    galerkin_rows(t, tiles, &cur_owned, &cur_layout, dofs, tag)?,
                )),
            };

            let ra = {
                let _t = pmg_telemetry::scope("distribute");
                let build = match dofs {
                    3 => RankMatrix::from_local_rows_blocked,
                    _ => RankMatrix::from_local_rows,
                };
                let mut m = build(&cur_owned, cur_layout.clone(), cur_layout.clone(), rank);
                exchange_ghosts(t, &mut m)?;
                m
            };
            let Some((tr, next_owned)) = next else {
                levels.push(bottom_level(t, ra, &cur_owned, &opts)?);
                break;
            };
            assert_eq!(tr.r_owned.nrows(), tr.layout.owned(rank).len());

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
            // The share holds all that is needed of this level's owned
            // rows: free them before the smoother's set-up.
            cur_owned = Cow::Owned(next_owned);
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
            });

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

impl<'h, T: Transport> RankLevels<'_, 'h, T> {
    fn level(&self, lvl: usize) -> &'h DistLevel {
        &self.h.setup.levels[lvl]
    }

    /// `y = op · x` on message tag `tag`, with the wait time booked to the
    /// halo phase.
    fn halo_spmv(&mut self, op: &RankMatrix, tag: u32, x: &[f64], y: &mut [f64]) -> Done<Self> {
        let before = self.t.stats().wait_s;
        op.spmv(self.t, tag, x, y)?;
        self.waits.halo_s += self.t.stats().wait_s - before;
        Ok(())
    }
}

impl<T: Transport> LevelOps for RankLevels<'_, '_, T> {
    type Vector = Vec<f64>;
    type Error = CommError;

    fn num_levels(&self) -> usize {
        self.h.setup.levels.len()
    }

    fn zeros(&self, lvl: usize) -> Vec<f64> {
        vec![0.0; self.level(lvl).a.local_block().nrows()]
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
        let smoother = &self.level(lvl).smoother;
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
        self.halo_spmv(&self.level(lvl).a, tags(lvl).0, x, r)?;
        vector::aypx(-1.0, b, r);
        Ok(())
    }

    fn restrict(&mut self, lvl: usize, f: &Vec<f64>, c: &mut Vec<f64>) -> Done<Self> {
        let rmat = self.level(lvl).r.as_ref();
        let rmat = rmat.expect("level above the bottom has R");
        self.halo_spmv(rmat, tags(lvl).1, f, c)
    }

    fn prolong(&mut self, lvl: usize, c: &Vec<f64>, f: &mut Vec<f64>) -> Done<Self> {
        let pmat = self.level(lvl).p.as_ref();
        let pmat = pmat.expect("level above the bottom has P");
        self.halo_spmv(pmat, tags(lvl).2, c, f)
    }

    /// Coarsest-grid direct solve of `A x = r`, written into `x`: gather
    /// the right-hand side to rank 0 in the layout's owned order (exactly
    /// `DistVec::to_global`), solve in the gathered buffer with the
    /// already-factored operator, then *scatter* each rank its owned share
    /// (exactly `DistVec::scatter_from_global`). The gather and scatter
    /// both travel the binomial tree as one coalesced message per edge, and
    /// the scatter ships each rank only its own values instead of
    /// broadcasting the full coarse vector — which is also precisely the
    /// traffic `CoarseDirect::apply` charges the BSP model. A gathered
    /// part or a scattered share that is not exactly its rank's owned rows
    /// is a malformed message.
    fn coarse_solve(&mut self, r: &Vec<f64>, x: &mut Vec<f64>) -> Done<Self> {
        let level = self.level(self.num_levels() - 1);
        let (t, layout) = (&mut *self.t, level.a.row_layout());
        let before = t.stats().wait_s;
        let mut part = LeWriter::with_capacity(8 * r.len());
        let gathered = pmg_comm::gather(t, part.f64s(r.iter().copied()).as_bytes())?;
        let shares = gathered.map(|parts| {
            // Only the gather root needs the factor, and only it holds one.
            let direct = level.coarse.as_ref();
            let direct = direct.expect("rank 0 holds the coarsest-grid factor");
            let mut global = vec![0.0; layout.num_global()];
            for (rk, blob) in parts.iter().enumerate() {
                let owned = layout.owned(rk);
                for (&g, v) in owned.iter().zip(coarse_values(blob, owned.len())?) {
                    global[g as usize] = v;
                }
            }
            direct.solve_global_in_place(&mut global);
            let shares = (0..t.size()).map(|rk| {
                let owned = layout.owned(rk);
                let mut share = LeWriter::with_capacity(8 * owned.len());
                share.f64s(owned.iter().map(|&g| global[g as usize]));
                share.into_bytes()
            });
            Ok::<_, CommError>(shares.collect())
        });
        let mine = pmg_comm::scatter(t, shares.transpose()?)?;
        self.waits.coarse_s += t.stats().wait_s - before;
        let mine = coarse_values(&mine, x.len())?;
        for (xi, v) in x.iter_mut().zip(mine) {
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

/// The values of a coarse-grid gather part or scatter share that must
/// carry exactly `rows` of them: any other byte length — short, long or
/// ragged — is [`CommError::Invalid`].
fn coarse_values(blob: &[u8], rows: usize) -> Result<impl Iterator<Item = f64> + '_, CommError> {
    LeReader::all_f64s(blob, rows).ok_or_else(|| {
        CommError::Invalid(format!(
            "coarse-grid message of {} bytes for {rows} rows",
            blob.len()
        ))
    })
}

/// The message-passing backend of [`pcg_generic`]: vectors are this rank's
/// owned slices, the operator and preconditioner come from the rank's
/// [`RankHierarchy`], and every reduction point is one `allreduce_sum`.
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
        self.ops.halo_spmv(&self.ops.level(0).a, tags(0).0, x, y)
    }

    fn precond(&mut self, r: &Vec<f64>, z: &mut Vec<f64>) -> Result<(), CommError> {
        let opts = &self.ops.h.setup.opts;
        cycle::fmg(&mut self.ops, opts, 0, r, z, &mut self.scratch)
    }

    /// Local partials, then one fused binomial allreduce: it reduces
    /// elementwise through the same tree as `DistVec::dot`, so each
    /// component is bitwise its own scalar allreduce.
    fn dots(&mut self, pairs: &[(&Vec<f64>, &Vec<f64>)]) -> Result<Vec<f64>, CommError> {
        let mut partials: Vec<f64> = pairs.iter().map(|(u, v)| vector::dot(u, v)).collect();
        let ops = &mut self.ops;
        let before = ops.t.stats().wait_s;
        pmg_comm::allreduce_sum(ops.t, &mut partials)?;
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
/// initial guess and the solution.
///
/// Telemetry (rank 0 only): `pcg/iterations`, the `pcg/residuals` series,
/// the cycle's scopes — `precond` and under it
/// `level{N}/{smooth,restrict,prolong,coarse}`, entered as often as the
/// simulator enters them — the real per-phase wait gauges
/// `comm/wait/{halo,allreduce,coarse}`.
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
    let scratch = CycleScratch::new(&ops, 0);
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

/// Run [`RankHierarchy::build_from_shards`] as one threaded SPMD program:
/// one OS thread per seed of `plan`, connected by a [`LocalTransport`]
/// machine, rank `r` building from its seed and its owned fine rows
/// `rows(r)`. Returns the setups in rank order (what [`solve_threads`]
/// takes), or the error of the lowest rank that failed.
pub fn build_threads(
    plan: &IngestPlan,
    rows: impl Fn(usize) -> CsrMatrix + Sync,
    opts: MgOptions,
) -> Result<Vec<DistributedSetup>, CommError> {
    LocalTransport::run_ranks(plan.seeds.len(), |mut t| {
        let rank = t.rank();
        RankHierarchy::build_from_shards(&mut t, &plan.seeds[rank], &rows(rank), opts)
    })
    .into_iter()
    .collect()
}

/// Run the solve `A x = b` as one threaded SPMD program through
/// [`spmd_pcg`]: one OS thread per setup (`setups[r]` is rank `r`'s, as
/// [`build_threads`] returns them), connected by a [`LocalTransport`]
/// machine. The returned solution is bitwise identical to the simulated
/// [`pmg_solver::pcg()`] solve of the same problem at any rank count.
pub fn solve_threads(
    setups: &[DistributedSetup],
    b: &[f64],
    opts: PcgOptions,
) -> Result<SpmdSolveOutcome, CommError> {
    let layout = setups.first().expect("one setup per rank").fine_layout();
    let nranks = setups.len();
    assert_eq!(b.len(), layout.num_global(), "rhs length");

    let per_rank = LocalTransport::run_ranks(nranks, |mut t| {
        let rank = t.rank();
        let setup = &setups[rank];
        assert_eq!(setup.rank(), rank, "setups in rank order");
        let h = setup.rank_hierarchy();
        let owned = layout.owned(rank);
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
    use crate::mg::MgHierarchy;
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
        let mut w = LeWriter::new();
        encode_rows_into(&mut w, &a, 0..a.nrows());
        let blob = w.into_bytes();
        let decode = |blob: Vec<u8>, ncols: usize| {
            rows_from_blobs(&[blob], ncols, 0, (0..a.nrows()).map(|_| 0))
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
        let mut w = LeWriter::new();
        let bytes = w.u32s(ids).as_bytes();
        assert_eq!(decode_row_ids(bytes).unwrap(), ids);
        for ragged in [&bytes[..bytes.len() - 1], &[bytes, &[7u8][..]].concat()[..]] {
            assert_eq!(
                decode_row_ids(ragged),
                Err(CommError::Invalid("malformed u32 list blob".into()))
            );
        }
    }

    #[test]
    fn coarse_messages_carry_exactly_the_owned_rows() {
        let vals = [1.5, -0.0, 3.25];
        let mut w = LeWriter::new();
        let blob = w.f64s(vals).as_bytes();
        let got: Vec<f64> = coarse_values(blob, 3).unwrap().collect();
        assert_eq!(bits(&got), bits(&vals));
        assert_eq!(coarse_values(&[], 0).unwrap().count(), 0);
        let long = [blob, &[0u8; 8]].concat();
        let ragged = [blob, &[0u8; 3]].concat();
        for (what, blob) in [("short", &blob[..16]), ("long", &long), ("ragged", &ragged)] {
            assert!(
                matches!(coarse_values(blob, 3), Err(CommError::Invalid(_))),
                "{what}"
            );
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

    /// Sharded setups of `a` over `p` rank threads, planned from the RCB
    /// partition the simulated build derives itself.
    fn sharded(
        a: &CsrMatrix,
        coords: &[Vec3],
        g: &Graph,
        classes: &VertexClasses,
        p: usize,
        opts: MgOptions,
    ) -> Vec<DistributedSetup> {
        let plan = crate::ingest::plan_ingest(coords, g, classes, &[], p, &opts);
        let vlayout = Layout::from_part(plan.part().to_vec(), p);
        let layout = Layout::expand_dofs(&vlayout, opts.dofs_per_vertex);
        build_threads(&plan, |rank| a.extract_rows(layout.owned(rank)), opts).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shards_match_the_simulated_hierarchy() {
        // A hierarchy grown from partition-at-ingest seeds and per-rank
        // owned fine rows — no rank ever holding the global mesh, matrix, or
        // vectors, no coarse value allgather, the direct factor on rank 0
        // alone — holds level shares bitwise the simulated hierarchy's
        // local blocks, and its solve reproduces the simulated solve bit for
        // bit.
        let opts = PcgOptions {
            rtol: 1e-8,
            max_iters: 60,
            ..Default::default()
        };
        for (dofs, n) in [(1usize, 7usize), (3, 5)] {
            let (a, coords, g) = if dofs == 1 {
                scalar_problem(n)
            } else {
                vector_problem(n)
            };
            let classes = classify_mesh(&pmg_mesh::generators::cube(n), 0.7);
            let bg: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.23).sin()).collect();
            for p in [1usize, 2, 4] {
                let mg_opts = MgOptions {
                    dofs_per_vertex: dofs,
                    coarse_dof_threshold: 60 * dofs,
                    ..Default::default()
                };
                let mut sim = Sim::new(p, MachineModel::default());
                let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &classes, mg_opts);
                let layout = mg.levels[0].a.row_layout().clone();
                let db = DistVec::from_global(layout.clone(), &bg);
                let mut dx = DistVec::zeros(layout.clone());
                let sim_res = pcg(&mut sim, &mg.levels[0].a, &mg, &db, &mut dx, opts);
                let sim_x = dx.to_global();

                let setups = sharded(&a, &coords, &g, &classes, p, mg_opts);
                for (rank, setup) in setups.iter().enumerate() {
                    // Same RCB ownership the simulated build derived itself.
                    assert_eq!(setup.fine_layout().owned(rank), layout.owned(rank));
                    assert_eq!(setup.num_levels(), mg.levels.len(), "p={p} rank={rank}");
                    for (lvl, (dl, ml)) in setup.levels.iter().zip(&mg.levels).enumerate() {
                        let at = format!("dofs={dofs} p={p} rank={rank} lvl={lvl}");
                        assert_eq!(dl.a.bsr3_routed(), ml.a.bsr3_routed(), "{at} bsr3");
                        // Owned-share coarse: the direct factor exists on the
                        // gather root's bottom level only.
                        assert_eq!(
                            dl.coarse.is_some(),
                            ml.coarse.is_some() && rank == 0,
                            "{at} factor placement"
                        );
                        let shares = [
                            (Some(&dl.a), Some(&ml.a)),
                            (dl.r.as_ref(), ml.r.as_ref()),
                            (dl.p.as_ref(), ml.p.as_ref()),
                        ];
                        for (got, want) in shares {
                            let got = got.map(|m| m.local_block().to_csr());
                            let want = want.map(|m| m.local_block(rank).to_csr());
                            let shape = |m: &CsrMatrix| {
                                (m.row_ptr().to_vec(), m.col_idx().to_vec(), bits(m.vals()))
                            };
                            assert_eq!(
                                got.as_ref().map(shape),
                                want.as_ref().map(shape),
                                "{at} share"
                            );
                        }
                    }
                }

                let spmd = solve_threads(&setups, &bg, opts).unwrap();
                let at = format!("dofs={dofs} p={p}");
                let res = &spmd.result;
                assert_eq!(
                    (res.converged, res.iterations),
                    (sim_res.converged, sim_res.iterations),
                    "{at}"
                );
                assert_eq!(bits(&res.residuals), bits(&sim_res.residuals), "{at}");
                assert_eq!(bits(&spmd.x), bits(&sim_x), "{at} solution");
                assert!(spmd.stats.iter().any(|s| s.msgs > 0) || p == 1, "p={p}");
            }
        }
    }

    #[test]
    fn breakdown_is_reported_over_the_transport() {
        // The message-passing backend reports loss of positive definiteness
        // and non-finite data the way the simulator's does: `breakdown`,
        // not a silent `converged: false`.
        let n = 4;
        let classes = classify_mesh(&pmg_mesh::generators::cube(n), 0.7);
        let (spd, coords, g) = scalar_problem(n);
        let nv = spd.nrows();
        // Indefinite diagonal: the one-level hierarchy's only level is its
        // coarse grid, whose Cholesky factor fails, so the preconditioner
        // writes NaN and p·Ap is NaN at the first iteration.
        let mut diag = CooBuilder::new(nv, nv);
        for i in 0..nv {
            diag.push(i, i, if i < nv / 2 { 2.0 } else { -1.0 });
        }
        let on_negative: Vec<f64> = (0..nv)
            .map(|i| if i < nv / 2 { 0.0 } else { 1.0 })
            .collect();
        let mut poisoned = vec![1.0; nv];
        poisoned[nv / 3] = f64::NAN;
        // The failed factor shows at the first iteration, a NaN in the data
        // at the first reduction.
        for (a, b, iters) in [(diag.build(), on_negative, 1), (spd, poisoned, 0)] {
            for p in [1usize, 2] {
                let mg_opts = MgOptions {
                    dofs_per_vertex: 1,
                    coarse_dof_threshold: nv,
                    ..Default::default()
                };
                let setups = sharded(&a, &coords, &g, &classes, p, mg_opts);
                let out = solve_threads(&setups, &b, PcgOptions::default()).unwrap();
                let res = &out.result;
                assert!(res.breakdown && !res.converged, "p={p}: {res:?}");
                assert_eq!(res.iterations, iters, "p={p}");
                assert!(out.x.iter().all(|&v| v == 0.0), "p={p}: x untouched");
            }
        }
    }

    /// Every rank of a two-rank machine refuses `opts` with the same typed
    /// error before it sends anything: the options are identical on all
    /// ranks, so none is left waiting for a peer that gave up.
    fn assert_refused(opts: MgOptions, why: &str) {
        let (a, coords, g) = scalar_problem(4);
        let classes = classify_mesh(&pmg_mesh::generators::cube(4), 0.7);
        let plan = crate::ingest::plan_ingest(&coords, &g, &classes, &[], 2, &opts);
        let layout = Layout::from_part(plan.part().to_vec(), 2);
        let outcomes = LocalTransport::run_ranks(2, |mut t| {
            let rank = t.rank();
            let a_owned = a.extract_rows(layout.owned(rank));
            let built = RankHierarchy::build_from_shards(&mut t, &plan.seeds[rank], &a_owned, opts);
            (built.err(), t.stats().msgs)
        });
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            assert_eq!(
                outcome,
                (Some(CommError::Invalid(why.into())), 0),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn chebyshev_smoother_is_a_typed_error_on_every_rank() {
        let opts = MgOptions {
            dofs_per_vertex: 1,
            smoother: SmootherType::Chebyshev { degree: 2 },
            ..Default::default()
        };
        assert_refused(
            opts,
            "sharded setup supports the block-Jacobi smoother only",
        );
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
        /// sharded Galerkin product trusts it for off-rank A rows. Each
        /// rank asks only for rows it does not own.
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
            let a_ref = &a;
            let layout_ref = &layout;
            let picks_ref = &picks;
            let oks = LocalTransport::run_ranks(3, move |mut t| {
                let rank = t.rank();
                let need: Vec<u32> = (0..n as u32)
                    .filter(|&i| picks_ref[i as usize] == 1 && layout_ref.owner(i as usize) as usize != rank)
                    .collect();
                let want = a_ref.extract_rows(&need);
                let a_owned = a_ref.extract_rows(layout_ref.owned(rank));
                let got = fetch_rows(&mut t, &a_owned, layout_ref, &need, 0x7000).unwrap();
                got.nrows() == need.len()
                    && got.col_idx() == want.col_idx()
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
