//! Partition-at-ingest: plan per-rank seeds at load time so compute ranks
//! never materialize the global fine problem (§5).
//!
//! The paper's Athena reader partitions the finite element graph *before*
//! any processor builds a stiffness matrix. This module is that seam for
//! the SPMD setup: whatever loads the mesh (rank 0, or a file reader) runs
//! [`plan_ingest`] once against the fine geometry and produces one
//! [`RankSeed`] per rank. A seed carries everything
//! [`crate::spmd::RankHierarchy::build_from_shards`] needs that cannot be
//! computed from owned data alone:
//!
//! * the fine vertex partition (4 bytes/vertex of layout metadata — the
//!   one global-length array a rank keeps, needed for ghost-owner lookups;
//!   no global mesh, matrix, or dof vector is ever shipped),
//! * this rank's **owned rows** of the level-0 scalar restriction, plus
//!   the transposed-restriction rows for the fine vertices the rank's
//!   Galerkin product can touch (owned vertices ∪ restriction support ∪
//!   its one-ring graph closure — a superset is harmless, a miss is a
//!   panic in `rap_local_rows`),
//! * the replicated **coarse** (level-1) geometry: coordinates, graph,
//!   classification. Coarse grids shrink geometrically (§5), so
//!   replicating their geometry — exactly what the distributed setup
//!   already does from level 1 on — costs O(N/c) per rank, while the
//!   coarse *operators* stay owned-share (see `build_from_shards`).
//!
//! The level-0 coarsening runs in-process here with `nproc = nranks`
//! virtual processors: [`coarsen_level`] is the ranks' own coarsening step
//! on a one-rank endpoint, and the step gives every rank count the same
//! level (`coarsening_is_rank_count_invariant` pins it) — so a hierarchy
//! grown from seeds matches the simulated `MgHierarchy::build` bit for bit.

use crate::classify::{VertexClass, VertexClasses};
use crate::coarsen::coarsen_level;
use crate::mg::MgOptions;
use pmg_comm::{CommError, LeReader, LeWriter, Transport};
use pmg_geometry::Vec3;
use pmg_parallel::Layout;
use pmg_partition::{recursive_coordinate_bisection, Graph};
use pmg_sparse::CsrMatrix;

/// Level-0 coarsening share of one rank's seed (absent when the fine grid
/// is already the coarsest level).
#[derive(Clone, Debug)]
pub struct CoarseSeed {
    /// This rank's owned rows of the scalar restriction (row `l` is the
    /// coarse vertex `owned[l]` of the coarse RCB layout; columns are
    /// global fine vertex ids).
    pub r_rows: CsrMatrix,
    /// Scalar transposed-restriction rows for the fine vertices in
    /// [`rt_ids`](CoarseSeed::rt_ids) (columns are global coarse ids).
    pub rt_rows: CsrMatrix,
    /// Ascending global fine vertex ids of `rt_rows`: owned vertices ∪
    /// restriction support ∪ one-ring closure.
    pub rt_ids: Vec<u32>,
    /// Coarse (level-1) vertex coordinates, replicated.
    pub coords: Vec<Vec3>,
    /// Coarse vertex connectivity, replicated.
    pub graph: Graph,
    /// Coarse vertex classification, replicated.
    pub classes: VertexClasses,
}

/// One rank's ingest payload: partition metadata plus its level-0
/// coarsening share.
#[derive(Clone, Debug)]
pub struct RankSeed {
    /// This seed's rank.
    pub rank: u32,
    /// Ranks in the partition.
    pub nranks: u32,
    /// Dofs per vertex the plan was built for.
    pub dofs: u32,
    /// Fine vertex → owning rank (the RCB partition over the fine
    /// coordinates; layout metadata, 4 bytes per global vertex).
    pub part: Vec<u32>,
    /// Ghost-closure element count per rank at partition time (empty when
    /// the problem was not sharded from a mesh). Drives the ingest-time
    /// `mg/level0/element_imbalance` gauge.
    pub elem_counts: Vec<u32>,
    /// The level-0 coarsening share; `None` when the fine grid is the
    /// bottom (tiny problem, `max_levels == 1`, or stalled coarsening).
    pub coarse: Option<CoarseSeed>,
}

/// The full ingest plan: one seed per rank. Lives only on the loading
/// side; compute ranks receive their seed through [`scatter_seeds`].
#[derive(Clone, Debug)]
pub struct IngestPlan {
    /// Per-rank seeds, indexed by rank.
    pub seeds: Vec<RankSeed>,
}

impl IngestPlan {
    /// The fine vertex partition shared by every seed (for carving mesh
    /// shards with `pmg_mesh::shard_mesh` against the same ownership).
    pub fn part(&self) -> &[u32] {
        &self.seeds[0].part
    }
}

/// Plan the ingest: partition the fine vertices (RCB over the
/// coordinates — identical to the layout every rank derives), run the
/// level-0 coarsening once, and split its restriction into per-rank owned
/// rows. `elem_counts` is the per-rank ghost-closure element count from
/// `pmg_mesh::shard_mesh` (pass `&[]` for problems not born from a mesh).
///
/// Mirrors the level-0 decisions of the distributed setup exactly: the
/// same bottom test, the same stall test, the same `CoarsenOptions`
/// derivation — so `build_from_shards` reproduces the replicated
/// `MgHierarchy::build` level structure bit for bit.
pub fn plan_ingest(
    coords: &[Vec3],
    graph: &Graph,
    classes: &VertexClasses,
    elem_counts: &[u32],
    nranks: usize,
    opts: &MgOptions,
) -> IngestPlan {
    let part = recursive_coordinate_bisection(coords, nranks);
    plan_ingest_with_part(coords, graph, classes, elem_counts, part, nranks, opts)
}

/// [`plan_ingest`] with an explicit fine ownership map instead of the RCB
/// partition — for external partitioners and for exercising degenerate
/// ownership (empty ranks) in tests. Note the bitwise-parity contract with
/// the replicated setup paths only holds for the RCB map those paths
/// derive themselves.
pub fn plan_ingest_with_part(
    coords: &[Vec3],
    graph: &Graph,
    classes: &VertexClasses,
    elem_counts: &[u32],
    part: Vec<u32>,
    nranks: usize,
    opts: &MgOptions,
) -> IngestPlan {
    assert_eq!(part.len(), coords.len(), "one owner per fine vertex");
    let dofs = opts.dofs_per_vertex;
    let n = coords.len() * dofs;

    // `None`: the fine grid is the bottom (by the schedule, or stalled) and
    // finishes with a direct solve.
    let cl = opts
        .level_coarsen_options(0, nranks, n, coords.len())
        .map(|copts| coarsen_level(coords, graph, classes, &copts))
        .filter(|cl| !cl.stalled(coords.len()));

    let mut seeds = Vec::with_capacity(nranks);
    match cl {
        None => {
            for r in 0..nranks {
                seeds.push(RankSeed {
                    rank: r as u32,
                    nranks: nranks as u32,
                    dofs: dofs as u32,
                    part: part.clone(),
                    elem_counts: elem_counts.to_vec(),
                    coarse: None,
                });
            }
        }
        Some(cl) => {
            let fine_vlayout = Layout::from_part(part.clone(), nranks);
            let cpart = recursive_coordinate_bisection(&cl.coords, nranks);
            let cvlayout = Layout::from_part(cpart, nranks);
            let rt_full = cl.restriction.transpose();
            for r in 0..nranks {
                let r_rows = cl.restriction.extract_rows(cvlayout.owned(r));
                // Fine vertices this rank's Galerkin product can touch:
                // the owned restriction support K plus its one-ring graph
                // closure (the assembled operator's pattern lives inside
                // the vertex adjacency), plus the rank's own fine vertices
                // (whose prolongation rows it owns).
                let mut rt_ids: Vec<u32> = r_rows.col_idx().iter().map(|&c| c as u32).collect();
                rt_ids.sort_unstable();
                rt_ids.dedup();
                let k_support = rt_ids.clone();
                for &k in &k_support {
                    rt_ids.extend_from_slice(graph.neighbors(k as usize));
                }
                rt_ids.extend_from_slice(fine_vlayout.owned(r));
                rt_ids.sort_unstable();
                rt_ids.dedup();
                let rt_rows = rt_full.extract_rows(&rt_ids);
                seeds.push(RankSeed {
                    rank: r as u32,
                    nranks: nranks as u32,
                    dofs: dofs as u32,
                    part: part.clone(),
                    elem_counts: elem_counts.to_vec(),
                    coarse: Some(CoarseSeed {
                        r_rows,
                        rt_rows,
                        rt_ids,
                        coords: cl.coords.clone(),
                        graph: cl.graph.clone(),
                        classes: cl.classes.clone(),
                    }),
                });
            }
        }
    }
    IngestPlan { seeds }
}

/// Ship each rank its seed: rank 0 (the loader) passes `Some(plan)`, every
/// other rank `None`; the seeds travel the binomial scatter tree and each
/// rank decodes only its own. Rank 0's copy never leaves its address space.
pub fn scatter_seeds<T: Transport>(
    t: &mut T,
    plan: Option<&IngestPlan>,
) -> Result<RankSeed, CommError> {
    let parts = plan.map(|p| {
        assert_eq!(p.seeds.len(), t.size(), "plan rank count");
        p.seeds.iter().map(|s| s.encode()).collect()
    });
    let mine = pmg_comm::scatter(t, parts)?;
    RankSeed::decode(&mine).ok_or_else(|| CommError::Invalid("malformed ingest seed".into()))
}

// --- wire form -------------------------------------------------------------
//
// Length-prefixed, through `pmg_comm`'s `LeWriter` / `LeReader`; f64s travel
// as raw bits so restriction weights and coordinates roundtrip bitwise.

const SEED_MAGIC: u32 = 0x504D_5344; // "PMSD"

fn put_csr(w: &mut LeWriter, m: &CsrMatrix) {
    w.u32(m.nrows() as u32)
        .u32(m.ncols() as u32)
        .u32(m.nnz() as u32);
    w.u32s((0..m.nrows()).map(|i| m.row(i).0.len() as u32));
    w.u32s(m.col_idx().iter().map(|&c| c as u32));
    w.f64s(m.vals().iter().copied());
}

fn put_vec3s(w: &mut LeWriter, v: &[Vec3]) {
    w.u32(v.len() as u32);
    w.f64s(v.iter().flat_map(|p| [p.x, p.y, p.z]));
}

fn put_graph(w: &mut LeWriter, g: &Graph) {
    w.u32(g.num_vertices() as u32);
    for v in 0..g.num_vertices() {
        w.u32_list(g.neighbors(v));
    }
}

fn put_classes(w: &mut LeWriter, c: &VertexClasses) {
    w.u32(c.class.len() as u32);
    for &cl in &c.class {
        w.u8(cl as u8);
    }
    w.u32(c.faces.len() as u32);
    for f in &c.faces {
        w.u32_list(f);
    }
}

fn get_csr(c: &mut LeReader) -> Option<CsrMatrix> {
    let nrows = c.u32()? as usize;
    let ncols = c.u32()? as usize;
    let nnz = c.u32()? as usize;
    let mut row_ptr = vec![0usize];
    for len in c.u32s(nrows)? {
        row_ptr.push(row_ptr.last().unwrap() + len as usize);
    }
    if *row_ptr.last().unwrap() != nnz {
        return None;
    }
    let col_idx: Vec<usize> = c.u32s(nnz)?.map(|j| j as usize).collect();
    if col_idx.iter().any(|&j| j >= ncols) {
        return None;
    }
    let vals = c.f64s(nnz)?.collect();
    Some(CsrMatrix::from_parts(nrows, ncols, row_ptr, col_idx, vals))
}

fn get_vec3s(c: &mut LeReader) -> Option<Vec<Vec3>> {
    let n = c.u32()? as usize;
    let xyz: Vec<f64> = c.f64s(n.checked_mul(3)?)?.collect();
    let points = xyz.chunks_exact(3).map(|p| Vec3::new(p[0], p[1], p[2]));
    Some(points.collect())
}

/// The graph of `n` adjacency lists; `None` unless each list ascends
/// strictly inside `0..n` and the lists are symmetric, as every `Graph`
/// is ([`Graph::from_adjacency`] asserts it).
fn get_graph(c: &mut LeReader) -> Option<Graph> {
    let n = c.u32()? as usize;
    let mut adj = Vec::new();
    for _ in 0..n {
        let list = c.u32_list()?;
        let ascending = list.windows(2).all(|w| w[0] < w[1]);
        if !ascending || list.last().is_some_and(|&w| w as usize >= n) {
            return None;
        }
        adj.push(list);
    }
    let has = |v: u32, w: usize| adj[w].binary_search(&v).is_ok();
    let symmetric = (0..n).all(|v| adj[v].iter().all(|&w| has(v as u32, w as usize)));
    symmetric.then(|| Graph::from_adjacency(&adj))
}

fn get_classes(c: &mut LeReader) -> Option<VertexClasses> {
    let n = c.u32()? as usize;
    let mut class = Vec::new();
    for _ in 0..n {
        class.push(match c.u8()? {
            0 => VertexClass::Interior,
            1 => VertexClass::Surface,
            2 => VertexClass::Edge,
            3 => VertexClass::Corner,
            _ => return None,
        });
    }
    if c.u32()? as usize != n {
        return None;
    }
    let mut faces = Vec::new();
    for _ in 0..n {
        faces.push(c.u32_list()?);
    }
    Some(VertexClasses { class, faces })
}

impl RankSeed {
    /// Serialize to the scatter payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = LeWriter::new();
        w.u32(SEED_MAGIC)
            .u32(self.rank)
            .u32(self.nranks)
            .u32(self.dofs);
        w.u32_list(&self.part).u32_list(&self.elem_counts);
        match &self.coarse {
            None => {
                w.u32(0);
            }
            Some(c) => {
                w.u32(1);
                put_csr(&mut w, &c.r_rows);
                put_csr(&mut w, &c.rt_rows);
                w.u32_list(&c.rt_ids);
                put_vec3s(&mut w, &c.coords);
                put_graph(&mut w, &c.graph);
                put_classes(&mut w, &c.classes);
            }
        }
        w.into_bytes()
    }

    /// Decode a payload produced by [`RankSeed::encode`]; `None` on a
    /// malformed buffer.
    pub fn decode(bytes: &[u8]) -> Option<RankSeed> {
        let c = &mut LeReader::new(bytes);
        if c.u32()? != SEED_MAGIC {
            return None;
        }
        let rank = c.u32()?;
        let nranks = c.u32()?;
        let dofs = c.u32()?;
        let part = c.u32_list()?;
        let elem_counts = c.u32_list()?;
        let coarse = match c.u32()? {
            0 => None,
            1 => Some(CoarseSeed {
                r_rows: get_csr(c)?,
                rt_rows: get_csr(c)?,
                rt_ids: c.u32_list()?,
                coords: get_vec3s(c)?,
                graph: get_graph(c)?,
                classes: get_classes(c)?,
            }),
            _ => return None,
        };
        if !c.is_empty() {
            return None;
        }
        Some(RankSeed {
            rank,
            nranks,
            dofs,
            part,
            elem_counts,
            coarse,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_mesh;
    use crate::mg::expand_restriction;
    use pmg_comm::LocalTransport;
    use pmg_sparse::RapPlan;

    fn fine_problem(n: usize) -> (Vec<Vec3>, Graph, VertexClasses, CsrMatrix) {
        let m = pmg_mesh::generators::cube(n);
        let g = m.vertex_graph();
        let classes = classify_mesh(&m, 0.7);
        let nv = m.num_vertices();
        let mut b = pmg_sparse::CooBuilder::new(nv, nv);
        for v in 0..nv {
            b.push(v, v, g.degree(v) as f64 + 1.0);
            for &w in g.neighbors(v) {
                b.push(v, w as usize, -1.0);
            }
        }
        (m.coords.clone(), g, classes, b.build())
    }

    #[test]
    fn seeds_split_the_level0_restriction_by_ownership() {
        let (coords, graph, classes, a) = fine_problem(6);
        let opts = MgOptions {
            dofs_per_vertex: 1,
            coarse_dof_threshold: 40,
            ..Default::default()
        };
        for p in [1usize, 2, 3] {
            let plan = plan_ingest(&coords, &graph, &classes, &[], p, &opts);
            assert_eq!(plan.seeds.len(), p);

            // Oracle: the same coarsening the seeds were carved from.
            let mut copts = opts.coarsen;
            copts.nproc = p;
            let cl = coarsen_level(&coords, &graph, &classes, &copts);
            let cpart = recursive_coordinate_bisection(&cl.coords, p);
            let cvlayout = Layout::from_part(cpart, p);
            let fine_vlayout = Layout::from_part(plan.part().to_vec(), p);

            let mut rows_seen = 0usize;
            for (r, seed) in plan.seeds.iter().enumerate() {
                let c = seed.coarse.as_ref().expect("coarsened");
                assert_eq!(c.r_rows.nrows(), cvlayout.owned(r).len());
                rows_seen += c.r_rows.nrows();
                // Owned rows are verbatim slices of the full restriction.
                for (l, &g) in cvlayout.owned(r).iter().enumerate() {
                    let (c1, v1) = cl.restriction.row(g as usize);
                    let (c2, v2) = c.r_rows.row(l);
                    assert_eq!(c1, c2);
                    assert_eq!(v1, v2);
                }
                // rt rows cover owned fine vertices and the support closure.
                for &g in fine_vlayout.owned(r) {
                    assert!(c.rt_ids.binary_search(&g).is_ok(), "rank {r} misses {g}");
                }
                // Replicated coarse geometry matches the oracle coarsening.
                assert_eq!(c.coords.len(), cl.coords.len());
                assert_eq!(c.graph.num_edges(), cl.graph.num_edges());
            }
            assert_eq!(rows_seen, cl.restriction.nrows());

            // The per-rank (r_rows, rt_rows) tiles reproduce the Galerkin
            // product bitwise through rap_local_rows.
            let r_dof = expand_restriction(&cl.restriction, 1);
            let full = RapPlan::new(&a, &r_dof).execute(&a);
            for (r, seed) in plan.seeds.iter().enumerate() {
                let c = seed.coarse.as_ref().unwrap();
                let mut a_ids: Vec<u32> = c.r_rows.col_idx().iter().map(|&x| x as u32).collect();
                a_ids.sort_unstable();
                a_ids.dedup();
                let a_rows = a.extract_rows(&a_ids);
                let mine = pmg_sparse::rap_local_rows(
                    1, &c.r_rows, &a_ids, &a_rows, &c.rt_ids, &c.rt_rows,
                );
                let expect = full.extract_rows(cvlayout.owned(r));
                assert_eq!(mine.nnz(), expect.nnz(), "rank {r} segment length");
                for (x, y) in mine.vals().iter().zip(expect.vals()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "rank {r} Galerkin bits");
                }
            }
        }
    }

    #[test]
    fn tiny_problem_seeds_have_no_coarse_level() {
        let (coords, graph, classes, _) = fine_problem(2);
        let opts = MgOptions {
            dofs_per_vertex: 1,
            ..Default::default()
        };
        let plan = plan_ingest(&coords, &graph, &classes, &[4, 4], 2, &opts);
        for seed in &plan.seeds {
            assert!(seed.coarse.is_none());
            assert_eq!(seed.elem_counts, vec![4, 4]);
        }
    }

    #[test]
    fn seed_codec_roundtrips_bitwise_and_scatters() {
        let (coords, graph, classes, _) = fine_problem(5);
        let opts = MgOptions {
            dofs_per_vertex: 3,
            coarse_dof_threshold: 60,
            ..Default::default()
        };
        let plan = plan_ingest(&coords, &graph, &classes, &[9, 7, 8], 3, &opts);
        for seed in &plan.seeds {
            let bytes = seed.encode();
            let back = RankSeed::decode(&bytes).expect("decode");
            assert_eq!(back.rank, seed.rank);
            assert_eq!(back.part, seed.part);
            assert_eq!(back.elem_counts, seed.elem_counts);
            let (a, b) = (seed.coarse.as_ref().unwrap(), back.coarse.as_ref().unwrap());
            assert_eq!(a.rt_ids, b.rt_ids);
            assert_eq!(a.r_rows.vals(), b.r_rows.vals());
            assert_eq!(a.r_rows.col_idx(), b.r_rows.col_idx());
            assert_eq!(a.rt_rows.vals(), b.rt_rows.vals());
            for (p, q) in a.coords.iter().zip(&b.coords) {
                assert_eq!(p.x.to_bits(), q.x.to_bits());
            }
            for v in 0..a.graph.num_vertices() {
                assert_eq!(a.graph.neighbors(v), b.graph.neighbors(v));
            }
            assert_eq!(a.classes.class, b.classes.class);
            assert_eq!(a.classes.faces, b.classes.faces);
            assert!(RankSeed::decode(&bytes[..bytes.len() - 2]).is_none());
        }

        // Rank 0 holds the plan; everyone receives exactly their seed.
        let plan_ref = &plan;
        let oks = LocalTransport::run_ranks(3, move |mut t| {
            let mine = if t.rank() == 0 { Some(plan_ref) } else { None };
            let seed = scatter_seeds(&mut t, mine).unwrap();
            seed.rank as usize == t.rank()
                && seed.coarse.as_ref().unwrap().r_rows.nrows()
                    == plan_ref.seeds[t.rank()]
                        .coarse
                        .as_ref()
                        .unwrap()
                        .r_rows
                        .nrows()
        });
        assert!(oks.into_iter().all(|ok| ok));
    }
}
