//! Damped block-Jacobi smoother.
//!
//! The paper's multigrid smoother: "block Jacobi with 6 blocks for every
//! 1,000 unknowns (these block Jacobi sub-domains are constructed with
//! METIS)". Blocks are built *within* each rank's sub-domain (block Jacobi
//! needs no communication beyond the residual's matrix product), factored
//! densely once per matrix setup, and applied with damping `ω` so the
//! smoothing iteration contracts the high-frequency error.
//!
//! The setup has a symbolic half (graph, partition, block index maps — a
//! function of the sparsity pattern alone) and a numeric half (extract and
//! factor each block). [`BlockJacobi::refactor`] keeps the first and redoes
//! only the second while the pattern is unchanged, which is every Newton
//! iteration on a fixed mesh.

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Sim, SimOperator};
use pmg_partition::{partition_graph, Graph};
use pmg_sparse::dense::{Cholesky, DenseMatrix, Lu};
use pmg_sparse::{CsrMatrix, PatternFingerprint};
use rayon::prelude::*;

enum BlockFactor {
    Chol(Cholesky),
    Lu(Lu),
    /// Last-resort inverse diagonal (singular block).
    Diag(Vec<f64>),
}

impl BlockFactor {
    /// Cholesky, else pivoted LU (block lost definiteness), else the
    /// inverse diagonal (block is singular).
    fn new(sub: &DenseMatrix) -> BlockFactor {
        if let Some(c) = Cholesky::factor(sub) {
            BlockFactor::Chol(c)
        } else if let Some(l) = Lu::factor(sub) {
            BlockFactor::Lu(l)
        } else {
            let d: Vec<f64> = (0..sub.nrows())
                .map(|i| {
                    let v = sub[(i, i)];
                    if v != 0.0 {
                        1.0 / v
                    } else {
                        1.0
                    }
                })
                .collect();
            BlockFactor::Diag(d)
        }
    }

    fn solve_in_place(&self, b: &mut [f64]) {
        match self {
            BlockFactor::Chol(c) => c.solve_in_place(b),
            BlockFactor::Lu(l) => b.copy_from_slice(&l.solve(b)),
            BlockFactor::Diag(d) => b.iter_mut().zip(d).for_each(|(x, di)| *x *= di),
        }
    }

    fn solve_flops(&self) -> u64 {
        match self {
            BlockFactor::Chol(c) => 2 * (c.dim() * c.dim()) as u64,
            BlockFactor::Lu(l) => 2 * (l.dim() * l.dim()) as u64,
            BlockFactor::Diag(d) => d.len() as u64,
        }
    }
}

/// One rank's blocks, split like `RapPlan` splits the Galerkin product:
/// a *symbolic* half — the partition of the local block's graph into
/// sub-domains, a function of the sparsity pattern alone — and a *numeric*
/// half, the dense factor of each sub-domain's principal submatrix.
/// [`refactor`](Self::refactor) redoes only the numeric half while the
/// pattern is unchanged.
struct RankBlocks {
    /// Pattern of the local block the symbolic half was built for.
    pattern: PatternFingerprint,
    blocks_per_1000: f64,
    /// Local dof indices per block (ascending within a block).
    blocks: Vec<Vec<u32>>,
    /// Per local dof: the block it belongs to and its position inside it.
    home: Vec<(u32, u32)>,
    factors: Vec<BlockFactor>,
    apply_flops: u64,
}

impl RankBlocks {
    /// Partition one rank's local block into METIS-style sub-domains and
    /// factor each densely. The single per-rank build both the orchestrated
    /// [`BlockJacobi::new`] and the SPMD-setup [`RankJacobi::new`] run — the
    /// factorizations depend only on this rank's local block, so the two
    /// paths are bitwise identical by construction.
    fn new(local: &CsrMatrix, blocks_per_1000: f64) -> RankBlocks {
        pmg_telemetry::counter_add("smoother/plan_build", 1);
        let n = local.nrows();
        let mut blocks = Vec::new();
        if n > 0 {
            let nblocks = ((blocks_per_1000 * n as f64 / 1000.0).round() as usize).clamp(1, n);
            let g = Graph::from_pattern(local.row_ptr(), local.col_idx());
            let part = partition_graph(&g, nblocks);
            blocks = vec![Vec::new(); nblocks];
            for (v, &p) in part.iter().enumerate() {
                blocks[p as usize].push(v as u32);
            }
            blocks.retain(|b| !b.is_empty());
        }
        let mut home = vec![(0u32, 0u32); n];
        for (b, blk) in blocks.iter().enumerate() {
            for (l, &v) in blk.iter().enumerate() {
                home[v as usize] = (b as u32, l as u32);
            }
        }
        let mut rb = RankBlocks {
            pattern: PatternFingerprint::of(local),
            blocks_per_1000,
            blocks,
            home,
            factors: Vec::new(),
            apply_flops: 0,
        };
        rb.factor(local);
        rb
    }

    /// Refactor for a new local block: numeric-only when its sparsity
    /// pattern is the one the blocks were planned for (the values may have
    /// changed freely), a transparent rebuild otherwise. Either way the
    /// result is bitwise what [`RankBlocks::new`] gives on `local`.
    fn refactor(&mut self, local: &CsrMatrix) {
        if self.pattern.matches(local) {
            pmg_telemetry::counter_add("smoother/plan_reuse", 1);
            self.factor(local);
        } else {
            *self = RankBlocks::new(local, self.blocks_per_1000);
        }
    }

    /// The numeric half: extract and factor every block (independent, so
    /// in parallel; results land in block order on any pool size).
    fn factor(&mut self, local: &CsrMatrix) {
        self.factors = (0..self.blocks.len())
            .into_par_iter()
            .map(|b| BlockFactor::new(&self.extract(local, b)))
            .collect();
        self.apply_flops = self.factors.iter().map(|f| f.solve_flops()).sum();
        let (mut chol, mut lu, mut diag) = (0, 0, 0);
        for f in &self.factors {
            match f {
                BlockFactor::Chol(_) => chol += 1,
                BlockFactor::Lu(_) => lu += 1,
                BlockFactor::Diag(_) => diag += 1,
            }
        }
        pmg_telemetry::counter_add("smoother/blocks_chol", chol);
        pmg_telemetry::counter_add("smoother/blocks_lu", lu);
        pmg_telemetry::counter_add("smoother/blocks_diag", diag);
    }

    /// Dense principal submatrix of `local` on block `b`: each of the
    /// block's CSR rows is scattered through the plan's dof → (block, slot)
    /// maps; entries whose column lies in another block are dropped.
    fn extract(&self, local: &CsrMatrix, b: usize) -> DenseMatrix {
        let blk = &self.blocks[b];
        let mut sub = DenseMatrix::zeros(blk.len(), blk.len());
        for (l, &g) in blk.iter().enumerate() {
            let (cols, vals) = local.row(g as usize);
            let row = sub.row_mut(l);
            for (&j, &v) in cols.iter().zip(vals) {
                let (block, slot) = self.home[j];
                if block as usize == b {
                    row[slot as usize] = v;
                }
            }
        }
        sub
    }

    /// `zp = ω · B⁻¹ rp` for this rank's blocks (zeroes `zp` first). The
    /// single per-rank kernel both the orchestrated path and the SPMD
    /// [`RankSmoother`] run, so their results are bitwise identical.
    fn apply_into(&self, omega: f64, rp: &[f64], zp: &mut [f64]) {
        zp.iter_mut().for_each(|v| *v = 0.0);
        // One buffer for the whole call: gather, solve in place, scatter.
        let widest = self.blocks.iter().map(Vec::len).max().unwrap_or(0);
        let mut buf = vec![0.0; widest];
        for (blk, fac) in self.blocks.iter().zip(&self.factors) {
            let x = &mut buf[..blk.len()];
            for (xi, &v) in x.iter_mut().zip(blk) {
                *xi = rp[v as usize];
            }
            fac.solve_in_place(x);
            for (&v, &s) in blk.iter().zip(x.iter()) {
                zp[v as usize] = omega * s;
            }
        }
    }
}

/// One rank's borrowed view of a [`BlockJacobi`] smoother: block Jacobi
/// needs no communication beyond the residual's product, so the view is a
/// purely local kernel for SPMD execution.
pub struct RankSmoother<'a> {
    blocks: &'a RankBlocks,
    omega: f64,
}

impl RankSmoother<'_> {
    /// `zp = ω · B⁻¹ rp` on this rank's share.
    pub fn apply(&self, rp: &[f64], zp: &mut [f64]) {
        self.blocks.apply_into(self.omega, rp, zp);
    }
}

/// The block-Jacobi smoother / one-level preconditioner.
pub struct BlockJacobi {
    ranks: Vec<RankBlocks>,
    omega: f64,
    apply_flops: Vec<u64>,
}

/// **One** rank's owned block-Jacobi smoother — the SPMD-setup counterpart
/// of [`BlockJacobi`], which factors every rank's blocks. Block Jacobi is
/// purely rank-local, so the distributed setup builds exactly this rank's
/// sub-domain factorizations from its local operator block and nothing
/// else; [`RankJacobi::view`] yields the same [`RankSmoother`] kernel the
/// borrowed path uses.
pub struct RankJacobi {
    blocks: RankBlocks,
    omega: f64,
}

impl RankJacobi {
    /// Factor this rank's blocks from its local (owned × owned) operator
    /// block at the paper's `blocks_per_1000` density.
    pub fn new(local: &CsrMatrix, blocks_per_1000: f64, omega: f64) -> RankJacobi {
        RankJacobi {
            blocks: RankBlocks::new(local, blocks_per_1000),
            omega,
        }
    }

    /// Refactor for a new local block; see [`BlockJacobi::refactor`].
    pub fn refactor(&mut self, local: &CsrMatrix) {
        self.blocks.refactor(local);
    }

    /// Number of sub-domain blocks (diagnostics).
    pub fn num_blocks(&self) -> usize {
        self.blocks.blocks.len()
    }

    /// The per-rank application kernel (same type the borrowed
    /// [`BlockJacobi::rank_view`] returns).
    pub fn view(&self) -> RankSmoother<'_> {
        RankSmoother {
            blocks: &self.blocks,
            omega: self.omega,
        }
    }
}

impl BlockJacobi {
    /// Build with the paper's density of `blocks_per_1000` blocks per 1000
    /// local unknowns and damping `omega`.
    pub fn new(a: &DistMatrix, blocks_per_1000: f64, omega: f64) -> BlockJacobi {
        let nranks = a.row_layout().num_ranks();
        let ranks: Vec<RankBlocks> = (0..nranks)
            .into_par_iter()
            .map(|r| RankBlocks::new(a.local_block(r), blocks_per_1000))
            .collect();
        let apply_flops = ranks.iter().map(|r| r.apply_flops).collect();
        BlockJacobi {
            ranks,
            omega,
            apply_flops,
        }
    }

    /// Refactor for a new operator on the same ranks, at the density and
    /// damping the smoother was built with. While a rank's local sparsity
    /// pattern is unchanged (Newton only changes values) this is
    /// numeric-only — no graph, no partition, just extract and factor the
    /// planned blocks; a rank whose pattern changed is rebuilt
    /// transparently. The result is bitwise a fresh [`BlockJacobi::new`].
    pub fn refactor(&mut self, a: &DistMatrix) {
        assert_eq!(
            a.row_layout().num_ranks(),
            self.ranks.len(),
            "rank count changed"
        );
        self.ranks
            .par_iter_mut()
            .enumerate()
            .for_each(|(r, rb)| rb.refactor(a.local_block(r)));
        self.apply_flops = self.ranks.iter().map(|r| r.apply_flops).collect();
    }

    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Number of blocks on rank `r` (diagnostics).
    pub fn num_blocks(&self, r: usize) -> usize {
        self.ranks[r].blocks.len()
    }

    /// Rank `r`'s borrowed view for SPMD execution.
    pub fn rank_view(&self, r: usize) -> RankSmoother<'_> {
        RankSmoother {
            blocks: &self.ranks[r],
            omega: self.omega,
        }
    }

    /// `z = ω · B⁻¹ r` where `B` is the block diagonal.
    fn apply_inner(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        let omega = self.omega;
        let parts: Vec<Vec<f64>> = self
            .ranks
            .par_iter()
            .enumerate()
            .map(|(rank, rb)| {
                let rp = r.part(rank);
                let mut zp = vec![0.0; rp.len()];
                rb.apply_into(omega, rp, &mut zp);
                zp
            })
            .collect();
        for (rank, p) in parts.into_iter().enumerate() {
            z.part_mut(rank).copy_from_slice(&p);
        }
        sim.compute(&self.apply_flops);
    }

    /// One (or more) stationary smoothing sweeps
    /// `x ← x + ω B⁻¹ (b − A x)`. The residual refresh goes through the
    /// [`SimOperator`] abstraction, so the operator may be assembled or
    /// matrix-free (the block factors themselves always come from an
    /// assembled local block at setup).
    pub fn smooth(
        &self,
        sim: &mut Sim,
        a: &dyn SimOperator,
        b: &DistVec,
        x: &mut DistVec,
        sweeps: usize,
    ) {
        let mut r = DistVec::zeros(b.layout().clone());
        let mut z = DistVec::zeros(b.layout().clone());
        for _ in 0..sweeps {
            a.spmv(sim, x, &mut r); // r = A x
            r.aypx(sim, -1.0, b); // r = b - A x
            self.apply_inner(sim, &r, &mut z);
            x.axpy(sim, 1.0, &z);
        }
    }
}

impl Precond for BlockJacobi {
    fn apply(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        self.apply_inner(sim, r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_parallel::{Layout, MachineModel};
    use pmg_sparse::CooBuilder;

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
    fn single_block_is_direct() {
        // With one block covering the rank, one sweep with ω=1 solves the
        // system exactly.
        let n = 12;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let bj = BlockJacobi::new(&da, 0.1, 1.0); // 0.1 blocks/1000 -> 1 block
        assert_eq!(bj.num_blocks(0), 1);
        let mut sim = Sim::new(1, MachineModel::default());
        let b = DistVec::from_global(l.clone(), &vec![1.0; n]);
        let mut x = DistVec::zeros(l);
        bj.smooth(&mut sim, &da, &b, &mut x, 1);
        let mut ax = vec![0.0; n];
        a.spmv(&x.to_global(), &mut ax);
        for (u, v) in ax.iter().zip(b.to_global().iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn smoothing_reduces_residual() {
        // A smoother kills high-frequency residual components fast but
        // barely touches the smoothest modes: test with a frequency-rich
        // right-hand side and expect a solid (not dramatic) reduction.
        let n = 60;
        let a = laplacian(n);
        for p in [1, 3] {
            let l = Layout::block(n, p);
            let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
            let bj = BlockJacobi::new(&da, 100.0, 0.66); // ~6 unknowns/block
            let mut sim = Sim::new(p, MachineModel::default());
            let bg: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -0.5 } + (i as f64 * 0.4).sin())
                .collect();
            let b = DistVec::from_global(l.clone(), &bg);
            let mut x = DistVec::zeros(l.clone());
            let norm0 = {
                let mut r = DistVec::zeros(l.clone());
                da.spmv(&mut sim, &x, &mut r);
                r.aypx(&mut sim, -1.0, &b);
                r.norm2(&mut sim)
            };
            bj.smooth(&mut sim, &da, &b, &mut x, 10);
            let norm1 = {
                let mut r = DistVec::zeros(l.clone());
                da.spmv(&mut sim, &x, &mut r);
                r.aypx(&mut sim, -1.0, &b);
                r.norm2(&mut sim)
            };
            assert!(norm1 < 0.5 * norm0, "p={p}: {norm0} -> {norm1}");
        }
    }

    #[test]
    fn block_count_follows_density() {
        let n = 1000;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l);
        let bj = BlockJacobi::new(&da, 6.0, 0.66);
        // 500 unknowns per rank -> 3 blocks per rank.
        assert_eq!(bj.num_blocks(0), 3);
        assert_eq!(bj.num_blocks(1), 3);
    }

    /// 2-D five-point Laplacian on an `nx x nx` grid, `shift` added to the
    /// diagonal.
    fn grid_laplacian(nx: usize, shift: f64) -> CsrMatrix {
        let id = |i: usize, j: usize| i * nx + j;
        let mut b = CooBuilder::new(nx * nx, nx * nx);
        for i in 0..nx {
            for j in 0..nx {
                b.push(id(i, j), id(i, j), 4.0 + shift);
                if i + 1 < nx {
                    b.push(id(i, j), id(i + 1, j), -1.0);
                    b.push(id(i + 1, j), id(i, j), -1.0);
                }
                if j + 1 < nx {
                    b.push(id(i, j), id(i, j + 1), -1.0);
                    b.push(id(i, j + 1), id(i, j), -1.0);
                }
            }
        }
        b.build()
    }

    fn apply_bits(bj: &BlockJacobi, l: &std::sync::Arc<Layout>) -> Vec<u64> {
        let mut sim = Sim::new(l.num_ranks(), MachineModel::default());
        let rg: Vec<f64> = (0..l.num_global())
            .map(|i| (i as f64 * 0.61).sin())
            .collect();
        let r = DistVec::from_global(l.clone(), &rg);
        let mut z = DistVec::zeros(l.clone());
        bj.apply(&mut sim, &r, &mut z);
        z.to_global().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn extracted_blocks_are_the_principal_submatrices() {
        let a = grid_laplacian(9, 0.25);
        let rb = RankBlocks::new(&a, 50.0); // 81 dofs -> 4 blocks
        assert_eq!(rb.blocks.len(), 4);
        let mut covered = 0;
        for (b, blk) in rb.blocks.iter().enumerate() {
            let want = DenseMatrix::from_fn(blk.len(), blk.len(), |i, j| {
                a.get(blk[i] as usize, blk[j] as usize)
            });
            assert_eq!(rb.extract(&a, b), want, "block {b}");
            covered += blk.len();
        }
        assert_eq!(covered, 81);
    }

    #[test]
    fn refactor_is_bitwise_a_fresh_build() {
        let l = Layout::block(144, 2);
        let dist = |a: &CsrMatrix| DistMatrix::from_global(a, l.clone(), l.clone());
        let a = grid_laplacian(12, 0.0);
        let mut bj = BlockJacobi::new(&dist(&a), 60.0, 0.7); // 4 blocks a rank
        let blocks_before: Vec<Vec<u32>> = bj.ranks[0].blocks.clone();

        // Values change, pattern holds: the blocks are kept, the factors
        // are those of a fresh build.
        let a2 = grid_laplacian(12, 1.5);
        bj.refactor(&dist(&a2));
        assert_eq!(bj.ranks[0].blocks, blocks_before);
        assert_eq!(
            apply_bits(&bj, &l),
            apply_bits(&BlockJacobi::new(&dist(&a2), 60.0, 0.7), &l)
        );

        // The one-rank SPMD smoother shares the kernel and the contract.
        let view_bits = |rj: &RankJacobi| -> Vec<u64> {
            let r: Vec<f64> = (0..144).map(|i| (i as f64 * 0.61).sin()).collect();
            let mut z = vec![0.0; 144];
            rj.view().apply(&r, &mut z);
            z.iter().map(|v| v.to_bits()).collect()
        };
        let mut rj = RankJacobi::new(&a, 60.0, 0.7);
        rj.refactor(&a2);
        assert_eq!(view_bits(&rj), view_bits(&RankJacobi::new(&a2, 60.0, 0.7)));

        // Pattern changes (a different grid numbering of the same size):
        // the stale plan is dropped and rebuilt.
        let mut b3 = CooBuilder::new(144, 144);
        for (i, j, v) in a2.iter() {
            b3.push(143 - i, 143 - j, v);
        }
        b3.push(0, 70, -0.5);
        b3.push(70, 0, -0.5);
        let a3 = b3.build();
        bj.refactor(&dist(&a3));
        assert_eq!(
            apply_bits(&bj, &l),
            apply_bits(&BlockJacobi::new(&dist(&a3), 60.0, 0.7), &l)
        );
    }

    #[test]
    fn indefinite_and_singular_blocks_fall_back() {
        // One block per matrix (density rounds to the minimum of one).
        // Indefinite: Cholesky refuses, pivoted LU solves it exactly.
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 2.0);
        b.push(1, 0, 2.0);
        b.push(1, 1, 1.0);
        let rb = RankBlocks::new(&b.build(), 1.0);
        assert!(matches!(rb.factors[0], BlockFactor::Lu(_)));
        let mut z = [0.0; 2];
        rb.apply_into(1.0, &[5.0, 4.0], &mut z);
        assert!((z[0] - 1.0).abs() < 1e-14 && (z[1] - 2.0).abs() < 1e-14);

        // Singular: LU refuses too, the inverse diagonal is what is left.
        let mut b = CooBuilder::new(2, 2);
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.push(i, j, 4.0);
        }
        let rb = RankBlocks::new(&b.build(), 1.0);
        assert!(matches!(rb.factors[0], BlockFactor::Diag(_)));
        let mut z = [0.0; 2];
        rb.apply_into(0.5, &[8.0, 4.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    #[test]
    fn apply_is_symmetric() {
        // <B z, w> == <z, B w> for the preconditioner application.
        let n = 20;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let bj = BlockJacobi::new(&da, 200.0, 0.66);
        let mut sim = Sim::new(2, MachineModel::default());
        let z: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let dz = DistVec::from_global(l.clone(), &z);
        let dw = DistVec::from_global(l.clone(), &w);
        let mut bz = DistVec::zeros(l.clone());
        let mut bw = DistVec::zeros(l);
        bj.apply(&mut sim, &dz, &mut bz);
        bj.apply(&mut sim, &dw, &mut bw);
        let s1: f64 = bz.to_global().iter().zip(&w).map(|(a, b)| a * b).sum();
        let s2: f64 = bw.to_global().iter().zip(&z).map(|(a, b)| a * b).sum();
        assert!((s1 - s2).abs() < 1e-10 * s1.abs().max(1.0));
    }
}
