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
//! `pmg_mesh::shard_mesh` builds exactly those sub-domains at ingest: every
//! rank gets all elements touching at least one of its owned vertices
//! (ghost elements included), with local vertex numbering and the
//! local→global maps. [`RankAssembly::from_shard`] turns one such
//! [`MeshShard`] into the rank's persistent finite element problem: the
//! element work covers the whole sub-domain, but the context stores, and
//! [`RankAssembly::assemble_owned_local`] computes, only the rows that rank
//! owns.

use crate::assembly::FemProblem;
use crate::material::Material;
use pmg_mesh::MeshShard;
use pmg_sparse::CsrMatrix;
use std::sync::Arc;

/// One rank's persistent assembly context: a [`FemProblem`] over the
/// sub-domain that assembles only the rows of the vertices this rank owns,
/// with **global** column ids — the form `pmg_parallel::RankMatrix`
/// ingests — so no rank stores a ghost row or ever materializes the global
/// operator. Its vertex pattern and scatter positions are built once and
/// reused across every re-assembly (Newton iterations, load steps).
pub struct RankAssembly {
    fem: FemProblem,
    owned_vertices: Vec<u32>,
}

impl RankAssembly {
    /// Build the per-rank problem from a partition-at-ingest [`MeshShard`]
    /// (pattern + scatter positions built here over the owned rows, reused
    /// by every subsequent assembly) — no rank ever sees the global mesh.
    ///
    /// The shard numbers its vertices owned-ascending then ghost-ascending
    /// in global id (checked here), so the owned vertices are the local
    /// prefix and their rows come out in global order; each row's global
    /// columns are sorted once, here.
    pub fn from_shard(shard: &MeshShard, materials: &[Arc<dyn Material>]) -> RankAssembly {
        let global = &shard.global_vertices;
        let (owned, ghosts) = global.split_at(shard.num_owned());
        let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
        assert!(
            ascending(owned) && ascending(ghosts),
            "shard vertices must be owned-ascending then ghost-ascending"
        );
        RankAssembly {
            fem: FemProblem::over_rows(shard.mesh.clone(), materials.to_vec(), owned.len(), |w| {
                global[w as usize]
            }),
            owned_vertices: owned.to_vec(),
        }
    }

    /// Local dof count (3 per local vertex, owned + ghost).
    pub fn num_local_dof(&self) -> usize {
        self.fem.ndof()
    }

    /// Global dof ids of the owned rows, ascending (owned vertices come
    /// first in the local numbering and are sorted by global id, so this
    /// matches `pmg_parallel::Layout`'s owned ordering).
    pub fn owned_rows(&self) -> Vec<u32> {
        self.owned_vertices
            .iter()
            .flat_map(|&g| (0..3).map(move |c| 3 * g + c))
            .collect()
    }

    /// Re-assemble at the *local* displacement `u_local` (3 dofs per local
    /// vertex, owned then ghost; no global-length vector exists on any
    /// rank) and return the owned rows: one CSR row per owned global dof
    /// with global column ids, plus the owned entries of the internal
    /// force. `num_global_dof` only sizes the column space of the returned
    /// rows. The pattern is reused — the `assembly/pattern_reuse` counter
    /// ticks once per call — and the assembled rows are returned as they
    /// are: the context holds no other rows.
    pub fn assemble_owned_local(
        &mut self,
        u_local: &[f64],
        num_global_dof: usize,
    ) -> (CsrMatrix, Vec<f64>) {
        self.fem.assemble_rows(u_local, num_global_dof)
    }

    /// Commit the trial Gauss-point history after a converged step.
    pub fn commit(&mut self) {
        self.fem.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{LinearElastic, NeoHookean};
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;
    use pmg_mesh::shard_mesh;
    use pmg_partition::recursive_coordinate_bisection;

    #[test]
    fn shard_rows_equal_serial_rows_bitwise() {
        let mats: Vec<Arc<dyn Material>> = vec![
            Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
            Arc::new(NeoHookean::from_e_nu(1e-2, 0.4)),
        ];
        let mesh = block(4, 3, 3, Vec3::new(4.0, 3.0, 3.0), |c| u32::from(c.x >= 2.0));
        let ndof = mesh.num_dof();
        let u: Vec<f64> = (0..ndof)
            .map(|i| 1e-3 * ((i * 31 % 17) as f64 - 8.0))
            .collect();
        let (k_serial, f_serial) = FemProblem::new(mesh.clone(), mats.clone()).assemble(&u);

        for p in [1usize, 2, 3, 4] {
            let part = recursive_coordinate_bisection(&mesh.coords, p);
            let mut seen = vec![false; ndof];
            for shard in shard_mesh(&mesh, &part, p) {
                let mut ra = RankAssembly::from_shard(&shard, &mats);
                let u_local: Vec<f64> = shard
                    .global_vertices
                    .iter()
                    .flat_map(|&g| &u[3 * g as usize..3 * g as usize + 3])
                    .copied()
                    .collect();
                assert_eq!(u_local.len(), ra.num_local_dof());
                let rows = ra.owned_rows();
                // The context stores the owned rows and nothing else.
                let owned_nnz: usize = (rows.iter())
                    .map(|&g| k_serial.row(g as usize).0.len())
                    .sum();
                assert_eq!(ra.fem.nnz(), owned_nnz, "stored entries (p={p})");
                // The second pass reuses the pattern; both must reproduce
                // the serial rows bit for bit.
                for pass in 0..2 {
                    let (k, f) = ra.assemble_owned_local(&u_local, ndof);
                    assert_eq!(k.nrows(), rows.len());
                    for (li, &gi) in rows.iter().enumerate() {
                        let gi = gi as usize;
                        let (cols, vals) = k.row(li);
                        let (cols_serial, vals_serial) = k_serial.row(gi);
                        assert_eq!(cols, cols_serial, "row {gi} pattern (p={p})");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(vals),
                            bits(vals_serial),
                            "row {gi} (p={p}, pass {pass})"
                        );
                        assert_eq!(f[li].to_bits(), f_serial[gi].to_bits(), "residual {gi}");
                        if pass == 0 {
                            assert!(!seen[gi], "row {gi} owned twice");
                            seen[gi] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "owned rows cover all dofs (p={p})");
        }
    }
}
