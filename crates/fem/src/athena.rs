//! The parallel finite element layer ("Athena", §5 of the paper).
//!
//! "Athena [...] uses ParMetis to partition the finite element graph, and
//! then constructs a complete finite element problem on each processor.
//! These processor sub-domains are constructed so that each processor can
//! compute all rows of the stiffness matrix, and entries of the residual
//! vector, associated with vertices that have been partitioned to the
//! processor. This negates the need for communication in the finite
//! element element evaluation at the expense of some redundant work."
//!
//! [`partition_mesh`] builds exactly those sub-domains: every rank gets all
//! elements touching at least one of its owned vertices (ghost elements
//! included), with local vertex numbering and the global↔local maps.
//! [`assemble_distributed`] then assembles the global operator rank by
//! rank (each rank computing only its owned rows) and reports the
//! redundant-work factor the paper's work efficiency `e_w` accounts for.

use crate::assembly::FemProblem;
use crate::material::Material;
use pmg_mesh::{Mesh, MeshShard};
use pmg_sparse::{CooBuilder, CsrMatrix};
use rayon::prelude::*;
use std::sync::Arc;

/// One rank's complete finite element sub-problem.
pub struct SubMesh {
    pub rank: u32,
    /// The local mesh: all elements touching an owned vertex.
    pub mesh: Mesh,
    /// Global vertex id of each local vertex.
    pub global_vertices: Vec<u32>,
    /// Whether each local vertex is owned by this rank.
    pub owned: Vec<bool>,
}

impl SubMesh {
    pub fn num_owned(&self) -> usize {
        self.owned.iter().filter(|&&o| o).count()
    }

    pub fn num_ghost(&self) -> usize {
        self.mesh.num_vertices() - self.num_owned()
    }
}

/// Partition `mesh` into per-rank sub-domains per the vertex assignment
/// `part` (one rank id per vertex).
pub fn partition_mesh(mesh: &Mesh, part: &[u32], nranks: usize) -> Vec<SubMesh> {
    assert_eq!(part.len(), mesh.num_vertices());
    let nv_per_elem = mesh.kind.nodes();
    // Elements per rank: any element touching an owned vertex.
    let mut elems_of: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    for e in 0..mesh.num_elements() {
        let mut ranks: Vec<u32> = mesh.elem(e).iter().map(|&v| part[v as usize]).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for r in ranks {
            elems_of[r as usize].push(e as u32);
        }
    }

    (0..nranks)
        .map(|r| {
            let elems = &elems_of[r];
            // Collect local vertices: owned first (ascending global id, so
            // the local order matches pmg-parallel's Layout numbering),
            // then ghosts.
            let mut vset: Vec<u32> = elems
                .iter()
                .flat_map(|&e| mesh.elem(e as usize).iter().copied())
                .collect();
            vset.sort_unstable();
            vset.dedup();
            let (owned_v, ghost_v): (Vec<u32>, Vec<u32>) = vset
                .into_iter()
                .partition(|&v| part[v as usize] == r as u32);
            let global_vertices: Vec<u32> = owned_v.iter().chain(ghost_v.iter()).copied().collect();
            let mut local_of = std::collections::HashMap::with_capacity(global_vertices.len());
            for (l, &g) in global_vertices.iter().enumerate() {
                local_of.insert(g, l as u32);
            }
            let coords = global_vertices
                .iter()
                .map(|&g| mesh.coords[g as usize])
                .collect();
            let mut elem_verts = Vec::with_capacity(elems.len() * nv_per_elem);
            let mut materials = Vec::with_capacity(elems.len());
            for &e in elems {
                for &v in mesh.elem(e as usize) {
                    elem_verts.push(local_of[&v]);
                }
                materials.push(mesh.materials[e as usize]);
            }
            let owned: Vec<bool> = global_vertices
                .iter()
                .map(|&g| part[g as usize] == r as u32)
                .collect();
            SubMesh {
                rank: r as u32,
                mesh: Mesh::new(coords, mesh.kind, elem_verts, materials),
                global_vertices,
                owned,
            }
        })
        .collect()
}

/// Redundant-work factor: total element evaluations over all sub-domains
/// divided by the number of distinct global elements (the source of the
/// paper's work efficiency `e_w < 1` in Athena).
pub fn redundancy_factor(subs: &[SubMesh]) -> f64 {
    let total: usize = subs.iter().map(|s| s.mesh.num_elements()).sum();
    let distinct: std::collections::HashSet<Vec<u32>> = subs
        .iter()
        .flat_map(|s| {
            s.mesh.elem_verts.chunks(s.mesh.kind.nodes()).map(|ev| {
                let mut g: Vec<u32> = ev
                    .iter()
                    .map(|&lv| s.global_vertices[lv as usize])
                    .collect();
                g.sort_unstable();
                g
            })
        })
        .collect();
    total as f64 / distinct.len().max(1) as f64
}

/// One rank's persistent assembly context: a [`FemProblem`] over the
/// sub-domain whose sparsity pattern and scatter map are built once and
/// reused across every re-assembly (Newton iterations, load steps). Each
/// call to [`RankAssembly::assemble_owned`] produces only the rows this
/// rank owns, with **global** column ids — the form
/// `pmg_parallel::RankMatrix` ingests — so no rank ever materializes the
/// global operator.
pub struct RankAssembly {
    fem: FemProblem,
    global_vertices: Vec<u32>,
    num_owned: usize,
}

impl RankAssembly {
    /// Build the persistent per-rank problem (pattern + scatter map built
    /// here, reused by every subsequent assembly).
    pub fn new(sub: &SubMesh, materials: &[Arc<dyn Material>]) -> RankAssembly {
        RankAssembly {
            fem: FemProblem::new(sub.mesh.clone(), materials.to_vec()),
            global_vertices: sub.global_vertices.clone(),
            num_owned: sub.num_owned(),
        }
    }

    /// Build the per-rank problem directly from a partition-at-ingest
    /// [`MeshShard`] — the path where no rank ever saw the global mesh.
    /// The shard's sub-domain construction matches [`partition_mesh`]'s, so
    /// the assembled rows are bitwise identical to the [`SubMesh`] route.
    pub fn from_shard(shard: &MeshShard, materials: &[Arc<dyn Material>]) -> RankAssembly {
        RankAssembly {
            fem: FemProblem::new(shard.mesh.clone(), materials.to_vec()),
            global_vertices: shard.global_vertices.clone(),
            num_owned: shard.num_owned(),
        }
    }

    /// Global vertex id per local vertex (owned first).
    pub fn global_vertices(&self) -> &[u32] {
        &self.global_vertices
    }

    /// Local dof count (3 per local vertex, owned + ghost).
    pub fn num_local_dof(&self) -> usize {
        3 * self.global_vertices.len()
    }

    /// Global dof ids of the owned rows, ascending (owned vertices come
    /// first in the local numbering and are sorted by global id, so this
    /// matches `pmg_parallel::Layout`'s owned ordering).
    pub fn owned_rows(&self) -> Vec<u32> {
        self.global_vertices[..self.num_owned]
            .iter()
            .flat_map(|&g| (0..3).map(move |c| 3 * g + c))
            .collect()
    }

    /// Re-assemble at the global displacement `u_global` (only the entries
    /// of vertices in this sub-domain are read) and return the owned rows:
    /// one CSR row per owned global dof with global column ids, plus the
    /// owned entries of the internal force. The pattern is reused — the
    /// `assembly/pattern_reuse` counter ticks once per call.
    pub fn assemble_owned(&mut self, u_global: &[f64]) -> (CsrMatrix, Vec<f64>) {
        let u_local: Vec<f64> = self
            .global_vertices
            .iter()
            .flat_map(|&g| (0..3).map(move |c| u_global[3 * g as usize + c]))
            .collect();
        self.assemble_owned_local(&u_local, u_global.len())
    }

    /// Like [`RankAssembly::assemble_owned`], but taking the *local*
    /// displacement (3 dofs per local vertex, owned then ghost) — the
    /// sharded-ingest form where no global-length vector exists on any
    /// rank. `num_global_dof` only sizes the column space of the returned
    /// rows. Bitwise identical to `assemble_owned` at the gathered
    /// displacement.
    pub fn assemble_owned_local(
        &mut self,
        u_local: &[f64],
        num_global_dof: usize,
    ) -> (CsrMatrix, Vec<f64>) {
        assert_eq!(u_local.len(), 3 * self.global_vertices.len());
        let (k, f) = self.fem.assemble(u_local);
        let mut b = CooBuilder::new(3 * self.num_owned, num_global_dof);
        b.reserve(k.row_ptr()[3 * self.num_owned]);
        let mut f_owned = vec![0.0; 3 * self.num_owned];
        for lv in 0..self.num_owned {
            for c in 0..3 {
                let li = 3 * lv + c;
                f_owned[li] = f[li];
                let (cols, vals) = k.row(li);
                for (&lj, &v) in cols.iter().zip(vals) {
                    let gj = 3 * self.global_vertices[lj / 3] as usize + lj % 3;
                    b.push(li, gj, v);
                }
            }
        }
        (b.build(), f_owned)
    }

    /// Commit the trial Gauss-point history after a converged step.
    pub fn commit(&mut self) {
        self.fem.commit();
    }
}

/// Assemble the global operator rank by rank: each rank assembles its full
/// sub-domain (no communication) and contributes only the rows of its
/// owned vertices. Equals the serial assembly of the global mesh.
pub fn assemble_distributed(
    subs: &[SubMesh],
    materials: &[Arc<dyn Material>],
    u_global: &[f64],
    num_global_vertices: usize,
) -> (CsrMatrix, Vec<f64>) {
    let ndof = 3 * num_global_vertices;
    assert_eq!(u_global.len(), ndof);

    // Per-rank local assemblies in parallel.
    let locals: Vec<(CsrMatrix, Vec<f64>, &SubMesh)> = subs
        .par_iter()
        .map(|sub| {
            let mut fem = FemProblem::new(sub.mesh.clone(), materials.to_vec());
            let u_local: Vec<f64> = sub
                .global_vertices
                .iter()
                .flat_map(|&g| (0..3).map(move |c| u_global[3 * g as usize + c]))
                .collect();
            let (k, f) = fem.assemble(&u_local);
            (k, f, sub)
        })
        .collect();

    // Gather owned rows into the global operator.
    let mut b = CooBuilder::new(ndof, ndof);
    let mut f_global = vec![0.0; ndof];
    for (k, f, sub) in locals {
        for (lv, &g) in sub.global_vertices.iter().enumerate() {
            if !sub.owned[lv] {
                continue;
            }
            for c in 0..3 {
                let li = 3 * lv + c;
                let gi = 3 * g as usize + c;
                f_global[gi] = f[li];
                let (cols, vals) = k.row(li);
                for (&lj, &v) in cols.iter().zip(vals) {
                    let gj = 3 * sub.global_vertices[lj / 3] as usize + (lj % 3);
                    b.push(gi, gj, v);
                }
            }
        }
    }
    (b.build(), f_global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{LinearElastic, NeoHookean};
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;
    use pmg_partition::recursive_coordinate_bisection;

    fn mats() -> Vec<Arc<dyn Material>> {
        vec![
            Arc::new(LinearElastic::from_e_nu(1.0, 0.3)) as Arc<dyn Material>,
            Arc::new(NeoHookean::from_e_nu(1e-2, 0.4)) as Arc<dyn Material>,
        ]
    }

    fn two_material_mesh() -> Mesh {
        block(4, 3, 3, Vec3::new(4.0, 3.0, 3.0), |c| {
            if c.x < 2.0 {
                0
            } else {
                1
            }
        })
    }

    #[test]
    fn submeshes_cover_all_vertices_and_elements() {
        let mesh = two_material_mesh();
        for p in [1usize, 3, 5] {
            let part = recursive_coordinate_bisection(&mesh.coords, p);
            let subs = partition_mesh(&mesh, &part, p);
            assert_eq!(subs.len(), p);
            let owned_total: usize = subs.iter().map(|s| s.num_owned()).sum();
            assert_eq!(owned_total, mesh.num_vertices());
            // Each sub-domain mesh is a valid mesh.
            for s in &subs {
                assert!(s.mesh.validate_volumes().is_ok());
                // Owned vertices come first in the local numbering.
                let first_ghost = s.owned.iter().position(|&o| !o);
                if let Some(fg) = first_ghost {
                    assert!(s.owned[..fg].iter().all(|&o| o));
                    assert!(s.owned[fg..].iter().all(|&o| !o));
                }
            }
            // Redundancy is 1 for P=1 and grows mildly with P.
            let rf = redundancy_factor(&subs);
            if p == 1 {
                assert!((rf - 1.0).abs() < 1e-12);
            } else {
                assert!(rf > 1.0 && rf < 3.0, "redundancy {rf}");
            }
        }
    }

    #[test]
    fn distributed_assembly_equals_serial() {
        let mesh = two_material_mesh();
        let ndof = mesh.num_dof();
        let u: Vec<f64> = (0..ndof)
            .map(|i| 1e-3 * ((i * 31 % 17) as f64 - 8.0))
            .collect();
        let mut serial = FemProblem::new(mesh.clone(), mats());
        let (k_serial, f_serial) = serial.assemble(&u);

        for p in [2usize, 4] {
            let part = recursive_coordinate_bisection(&mesh.coords, p);
            let subs = partition_mesh(&mesh, &part, p);
            let (k_dist, f_dist) = assemble_distributed(&subs, &mats(), &u, mesh.num_vertices());
            // Row-by-row equality.
            assert_eq!(k_dist.nrows(), k_serial.nrows());
            for i in 0..ndof {
                let (c1, v1) = k_serial.row(i);
                let (c2, v2) = k_dist.row(i);
                assert_eq!(c1, c2, "row {i} pattern (p={p})");
                for (a, b) in v1.iter().zip(v2) {
                    assert!((a - b).abs() < 1e-12, "row {i} values (p={p})");
                }
                assert!((f_serial[i] - f_dist[i]).abs() < 1e-12, "residual {i}");
            }
        }
    }

    #[test]
    fn rank_assembly_owned_rows_match_serial() {
        let mesh = two_material_mesh();
        let ndof = mesh.num_dof();
        let u: Vec<f64> = (0..ndof)
            .map(|i| 1e-3 * ((i * 31 % 17) as f64 - 8.0))
            .collect();
        let mut serial = FemProblem::new(mesh.clone(), mats());
        let (k_serial, f_serial) = serial.assemble(&u);

        for p in [2usize, 3] {
            let part = recursive_coordinate_bisection(&mesh.coords, p);
            let subs = partition_mesh(&mesh, &part, p);
            let mut seen = vec![false; ndof];
            for sub in &subs {
                let mut ra = RankAssembly::new(sub, &mats());
                let rows = ra.owned_rows();
                // Re-assemble twice: the second pass reuses the pattern and
                // must reproduce the first bitwise.
                let (k1, f1) = ra.assemble_owned(&u);
                let (k2, f2) = ra.assemble_owned(&u);
                assert_eq!(f1, f2);
                for li in 0..k1.nrows() {
                    let (c1, v1) = k1.row(li);
                    let (c2, v2) = k2.row(li);
                    assert_eq!(c1, c2);
                    assert_eq!(v1, v2);
                }
                assert_eq!(k1.nrows(), rows.len());
                for (li, &gi) in rows.iter().enumerate() {
                    let gi = gi as usize;
                    assert!(!seen[gi], "row {gi} owned twice");
                    seen[gi] = true;
                    let (cg, vg) = k_serial.row(gi);
                    let (cl, vl) = k1.row(li);
                    assert_eq!(cg, cl, "row {gi} pattern (p={p})");
                    for (a, b) in vg.iter().zip(vl) {
                        assert!((a - b).abs() < 1e-12, "row {gi} values (p={p})");
                    }
                    assert!((f_serial[gi] - f1[li]).abs() < 1e-12, "residual {gi}");
                }
            }
            assert!(seen.iter().all(|&s| s), "owned rows cover all dofs");
        }
    }

    #[test]
    fn from_shard_assembles_bitwise_vs_submesh_route() {
        let mesh = two_material_mesh();
        let ndof = mesh.num_dof();
        let u: Vec<f64> = (0..ndof)
            .map(|i| 1e-3 * ((i * 31 % 17) as f64 - 8.0))
            .collect();
        for p in [1usize, 2, 4] {
            let part = recursive_coordinate_bisection(&mesh.coords, p);
            let subs = partition_mesh(&mesh, &part, p);
            let shards = pmg_mesh::shard_mesh(&mesh, &part, p);
            for (sub, shard) in subs.iter().zip(&shards) {
                // The shard's local numbering must agree with the SubMesh's.
                assert_eq!(shard.global_vertices, sub.global_vertices);
                assert_eq!(shard.num_owned(), sub.num_owned());
                assert_eq!(shard.mesh.elem_verts, sub.mesh.elem_verts);

                let mut via_sub = RankAssembly::new(sub, &mats());
                let mut via_shard = RankAssembly::from_shard(shard, &mats());
                assert_eq!(via_shard.owned_rows(), via_sub.owned_rows());
                let (k_sub, f_sub) = via_sub.assemble_owned(&u);
                // The shard route gathers only the local displacement —
                // round-trip through a codec-shipped shard, no global
                // vector on the "remote" side.
                let shipped = MeshShard::decode(&shard.encode()).unwrap();
                assert_eq!(shipped.global_vertices, shard.global_vertices);
                let u_ref = &u;
                let u_local: Vec<f64> = shipped
                    .global_vertices
                    .iter()
                    .flat_map(|&g| (0..3).map(move |c| u_ref[3 * g as usize + c]))
                    .collect();
                assert_eq!(u_local.len(), via_shard.num_local_dof());
                let (k_shard, f_shard) = via_shard.assemble_owned_local(&u_local, ndof);
                assert_eq!(f_sub, f_shard, "residual bits (p={p})");
                assert_eq!(k_sub.nrows(), k_shard.nrows());
                for li in 0..k_sub.nrows() {
                    let (c1, v1) = k_sub.row(li);
                    let (c2, v2) = k_shard.row(li);
                    assert_eq!(c1, c2, "row {li} pattern (p={p})");
                    assert_eq!(v1, v2, "row {li} bits (p={p})");
                }
            }
        }
    }

    #[test]
    fn ghost_layer_is_one_element_deep() {
        let mesh = block(6, 1, 1, Vec3::new(6.0, 1.0, 1.0), |_| 0);
        // Split in half along x: each rank owns ~half the vertices and has
        // exactly one ghost element layer.
        let part: Vec<u32> = mesh.coords.iter().map(|p| u32::from(p.x > 3.0)).collect();
        let subs = partition_mesh(&mesh, &part, 2);
        // 6 elements globally; rank 0 owns the x=0..3 vertex planes (sees
        // elements 0-3), rank 1 owns x=4..6 (sees elements 3-5): the shared
        // element 3 is evaluated twice — the redundant work.
        assert_eq!(subs[0].mesh.num_elements(), 4);
        assert_eq!(subs[1].mesh.num_elements(), 3);
        for s in &subs {
            assert!(s.num_ghost() > 0, "rank {}", s.rank);
        }
        assert!((redundancy_factor(&subs) - 7.0 / 6.0).abs() < 1e-12);
    }
}
