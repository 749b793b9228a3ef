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
//! [`MeshShard`] into the rank's persistent finite element problem, and
//! [`RankAssembly::assemble_owned_local`] computes only the rows that rank
//! owns.

use crate::assembly::FemProblem;
use crate::material::Material;
use pmg_mesh::MeshShard;
use pmg_sparse::CsrMatrix;
use std::sync::Arc;

/// One rank's persistent assembly context: a [`FemProblem`] over the
/// sub-domain whose sparsity pattern and scatter map are built once and
/// reused across every re-assembly (Newton iterations, load steps). Each
/// call to [`RankAssembly::assemble_owned_local`] produces only the rows
/// this rank owns, with **global** column ids — the form
/// `pmg_parallel::RankMatrix` ingests — so no rank ever materializes the
/// global operator.
pub struct RankAssembly {
    fem: FemProblem,
    global_vertices: Vec<u32>,
    num_owned: usize,
}

impl RankAssembly {
    /// Build the per-rank problem from a partition-at-ingest [`MeshShard`]
    /// (pattern + scatter map built here, reused by every subsequent
    /// assembly) — no rank ever sees the global mesh.
    pub fn from_shard(shard: &MeshShard, materials: &[Arc<dyn Material>]) -> RankAssembly {
        let (owned, ghosts) = shard.global_vertices.split_at(shard.num_owned());
        let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
        assert!(
            ascending(owned) && ascending(ghosts),
            "shard vertices must be owned-ascending then ghost-ascending"
        );
        RankAssembly {
            fem: FemProblem::new(shard.mesh.clone(), materials.to_vec()),
            global_vertices: shard.global_vertices.clone(),
            num_owned: shard.num_owned(),
        }
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

    /// Re-assemble at the *local* displacement `u_local` (3 dofs per local
    /// vertex, owned then ghost; no global-length vector exists on any
    /// rank) and return the owned rows: one CSR row per owned global dof
    /// with global column ids, plus the owned entries of the internal
    /// force. `num_global_dof` only sizes the column space of the returned
    /// rows. The pattern is reused — the `assembly/pattern_reuse` counter
    /// ticks once per call.
    ///
    /// The shard numbers its vertices owned-ascending then ghost-ascending
    /// in global id (checked in [`RankAssembly::from_shard`]), so each local
    /// row is two runs that both ascend in global column: the owned columns,
    /// then the ghost ones. One merge per row emits it in global column
    /// order — no sort, and no second pattern stored.
    pub fn assemble_owned_local(
        &mut self,
        u_local: &[f64],
        num_global_dof: usize,
    ) -> (CsrMatrix, Vec<f64>) {
        assert_eq!(u_local.len(), 3 * self.global_vertices.len());
        let (k, f) = self.fem.assemble(u_local);
        let owned_dof = 3 * self.num_owned;
        let nnz = k.row_ptr()[owned_dof];
        let global = |lj: usize| 3 * self.global_vertices[lj / 3] as usize + lj % 3;
        let mut row_ptr = Vec::with_capacity(owned_dof + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for li in 0..owned_dof {
            let (cols, v) = k.row(li);
            let split = cols.partition_point(|&lj| lj < owned_dof);
            let (mut p, mut q) = (0, split);
            while p < split || q < cols.len() {
                let next = if q == cols.len() || (p < split && global(cols[p]) < global(cols[q])) {
                    &mut p
                } else {
                    &mut q
                };
                col_idx.push(global(cols[*next]));
                vals.push(v[*next]);
                *next += 1;
            }
            row_ptr.push(col_idx.len());
        }
        let k_owned = CsrMatrix::from_parts(owned_dof, num_global_dof, row_ptr, col_idx, vals);
        (k_owned, f[..owned_dof].to_vec())
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
