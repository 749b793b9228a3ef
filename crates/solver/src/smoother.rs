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
//! function of the sparsity pattern alone) and a numeric half (scatter each
//! block into its factor's packed storage and factor it there).
//! [`BlockJacobi::refactor`] keeps the first and redoes only the second —
//! allocating nothing — while the pattern is unchanged, which is every
//! Newton iteration on a fixed mesh.

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Sim, SimOperator};
use pmg_partition::{partition_graph, Graph};
use pmg_sparse::dense::{Cholesky, DenseMatrix, Lu};
use pmg_sparse::{CsrMatrix, PatternFingerprint};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

enum BlockFactor {
    Chol(Cholesky),
    Lu(Lu),
    /// Last-resort inverse diagonal (singular block).
    Diag(Vec<f64>),
}

impl BlockFactor {
    /// Factor block `b` of `plan` out of `local`, where the factor lives:
    /// the block's CSR rows are scattered straight into the packed storage
    /// a Cholesky slot already owns — the lower triangle, row `l`'s entries
    /// with slot `<= l`, which is all Cholesky ever read, so round-off
    /// asymmetry in a Galerkin operator cannot reach the factor — and
    /// factored in place. Only a block that is not SPD is extracted densely,
    /// for pivoted LU (it lost definiteness) or, if singular too, the
    /// inverse diagonal.
    fn refactor(&mut self, plan: &RankBlocks, local: &CsrMatrix, b: usize) {
        let blk = &plan.blocks[b];
        let n = blk.len();
        if !matches!(self, BlockFactor::Chol(c) if c.dim() == n) {
            *self = BlockFactor::Chol(Cholesky::with_dim(n));
        }
        let BlockFactor::Chol(chol) = self else {
            unreachable!("set just above")
        };
        let spd = chol.factor_in_place(|u| {
            for (l, &g) in blk.iter().enumerate() {
                let (cols, vals) = local.row(g as usize);
                for (&j, &v) in cols.iter().zip(vals) {
                    let (block, slot) = plan.home[j];
                    if block as usize == b && slot as usize <= l {
                        u[Cholesky::packed_index(n, l, slot as usize)] = v;
                    }
                }
            }
        });
        if !spd {
            let sub = plan.extract(local, b);
            let inv = |i: usize| {
                if sub[(i, i)] != 0.0 {
                    1.0 / sub[(i, i)]
                } else {
                    1.0
                }
            };
            *self = match Lu::factor(&sub) {
                Some(lu) => BlockFactor::Lu(lu),
                None => BlockFactor::Diag((0..n).map(inv).collect()),
            };
        }
    }

    fn solve_in_place(&self, b: &mut [f64]) {
        match self {
            BlockFactor::Chol(c) => c.solve_in_place(b),
            BlockFactor::Lu(l) => l.solve_in_place(b),
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
    /// A sweep's gather buffer, as long as the longest block: sized with
    /// the plan, so no sweep allocates. One sweep at a time per rank; the
    /// lock is uncontended in every solve path.
    buf: Mutex<Vec<f64>>,
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
            buf: Mutex::new(vec![0.0; blocks.iter().map(Vec::len).max().unwrap_or(0)]),
            factors: (blocks.iter())
                .map(|blk| BlockFactor::Chol(Cholesky::with_dim(blk.len())))
                .collect(),
            blocks,
            home,
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

    /// The numeric half: factor every block in the storage its factor
    /// already owns (independent, so in parallel, each into its own slot;
    /// nothing is allocated while every block stays SPD).
    fn factor(&mut self, local: &CsrMatrix) {
        let mut factors = std::mem::take(&mut self.factors);
        factors
            .par_iter_mut()
            .enumerate()
            .for_each(|(b, f)| f.refactor(self, local, b));
        self.factors = factors;
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

    /// Dense principal submatrix of `local` on block `b` (what a block that
    /// is not SPD falls back on): each of the block's CSR rows is scattered
    /// through the plan's dof → (block, slot) maps; entries whose column
    /// lies in another block are dropped.
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

    /// `x += ω · B⁻¹ r` on this rank's blocks: gather a block's residual,
    /// solve in place, scatter-add the damped result straight into `x` —
    /// bitwise `z = ω B⁻¹ r` followed by `x += 1.0 · z`, without the `z`.
    /// The single per-rank kernel both the orchestrated path and the SPMD
    /// [`RankSmoother`] run, so their results are bitwise identical.
    fn solve_add(&self, omega: f64, r: &[f64], x: &mut [f64]) {
        // The buffer carries nothing from sweep to sweep, so one left by a
        // sweep that panicked is as good as new.
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        for (blk, fac) in self.blocks.iter().zip(&self.factors) {
            let s = &mut buf[..blk.len()];
            for (si, &v) in s.iter_mut().zip(blk) {
                *si = r[v as usize];
            }
            fac.solve_in_place(s);
            for (&v, &si) in blk.iter().zip(s.iter()) {
                x[v as usize] += omega * si;
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
    /// `x += ω · B⁻¹ r` on this rank's share.
    pub fn solve_add(&self, r: &[f64], x: &mut [f64]) {
        self.blocks.solve_add(self.omega, r, x);
    }

    /// `x = ω · B⁻¹ b` on this rank's share: the sweep from the zero guess
    /// (see [`BlockJacobi::smooth_from_zero`]), as
    /// [`solve_add`](Self::solve_add) of `b` into a zero-filled `x`.
    pub fn solve_from_zero(&self, b: &[f64], x: &mut [f64]) {
        x.fill(0.0);
        self.solve_add(b, x);
    }
}

/// The block-Jacobi smoother / one-level preconditioner.
pub struct BlockJacobi {
    ranks: Vec<RankBlocks>,
    omega: f64,
    apply_flops: Vec<u64>,
    /// A sweep's residual `b − A x`, kept between sweeps so that smoothing
    /// allocates nothing (`tests/smoother_alloc.rs`). One sweep at a time;
    /// the lock is uncontended in every solve path.
    residual: Mutex<DistVec>,
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
            residual: Mutex::new(DistVec::zeros(a.row_layout().clone())),
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
        for (flops, rb) in self.apply_flops.iter_mut().zip(&self.ranks) {
            *flops = rb.apply_flops;
        }
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

    /// `x += ω · B⁻¹ r`: every rank's block solves on its own parts (in
    /// parallel over ranks), plus the model's charge for them.
    fn solve_add(&self, sim: &mut Sim, r: &DistVec, x: &mut DistVec) {
        let omega = self.omega;
        self.ranks
            .par_iter()
            .zip(x.par_parts_mut())
            .enumerate()
            .for_each(|(rank, (rb, xp))| rb.solve_add(omega, r.part(rank), xp));
        sim.compute(&self.apply_flops);
    }

    /// `sweeps` stationary smoothing sweeps `x ← x + ω B⁻¹ (b − A x)`. The
    /// residual refresh goes through the [`SimOperator`] abstraction, so
    /// the operator may be assembled or matrix-free (the block factors
    /// themselves always come from an assembled local block at setup). The
    /// damped block solves are scatter-added straight into `x`.
    pub fn smooth(
        &self,
        sim: &mut Sim,
        a: &dyn SimOperator,
        b: &DistVec,
        x: &mut DistVec,
        sweeps: usize,
    ) {
        // Nothing is carried from sweep to sweep, so a residual left by a
        // sweep that panicked is as good as new.
        let mut r = self.residual.lock().unwrap_or_else(|e| e.into_inner());
        if !Arc::ptr_eq(r.layout(), b.layout()) {
            // A caller with an equal layout of its own.
            *r = DistVec::zeros(b.layout().clone());
        }
        let r = &mut *r;
        for _ in 0..sweeps {
            a.spmv(sim, x, r); // r = A x
            r.aypx(sim, -1.0, b); // r = b - A x
            self.solve_add(sim, r, x);
            // The `x +=` of the scatter-add, charged as the `axpy` it is.
            sim.compute_each(|rank| 2 * x.part(rank).len() as u64);
        }
    }

    /// [`smooth`](Self::smooth) for the zero initial guess, which is how
    /// every multigrid cycle visit starts: the first sweep is
    /// `x = ω B⁻¹ b` directly — no `A·0` product (so no halo exchange of
    /// zeros either), no `b − 0`, and none of their modeled charges — and
    /// the remaining `sweeps − 1` are ordinary. What `x` held on entry is
    /// ignored.
    ///
    /// Bitwise `x.set_zero()` followed by [`smooth`](Self::smooth) for a
    /// finite operator: every product kernel accumulates from `+0.0`, so
    /// `A·0` is `+0.0` and `b − A·0` is `b` bit for bit, `-0.0` included;
    /// and the scatter-add into the zero-filled `x` is that sweep's
    /// `0 + z`, so a block solve that returns `-0.0` lands as `+0.0` on
    /// both routes.
    pub fn smooth_from_zero(
        &self,
        sim: &mut Sim,
        a: &dyn SimOperator,
        b: &DistVec,
        x: &mut DistVec,
        sweeps: usize,
    ) {
        x.set_zero();
        if sweeps > 0 {
            self.solve_add(sim, b, x);
            self.smooth(sim, a, b, x, sweeps - 1);
        }
    }
}

impl Precond for BlockJacobi {
    /// `z = ω · B⁻¹ r` where `B` is the block diagonal.
    fn apply(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        z.set_zero();
        self.solve_add(sim, r, z);
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
            let mut z = vec![f64::NAN; 144];
            rj.view().solve_from_zero(&r, &mut z);
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
        let mut z = [0.0f64; 2];
        rb.solve_add(1.0, &[5.0, 4.0], &mut z);
        assert!((z[0] - 1.0).abs() < 1e-14 && (z[1] - 2.0).abs() < 1e-14);

        // Singular: LU refuses too, the inverse diagonal is what is left.
        let mut b = CooBuilder::new(2, 2);
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.push(i, j, 4.0);
        }
        let rb = RankBlocks::new(&b.build(), 1.0);
        assert!(matches!(rb.factors[0], BlockFactor::Diag(_)));
        let mut z = [0.0; 2];
        rb.solve_add(0.5, &[8.0, 4.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    /// Four ranks, 44 dofs: rank 0 owns a 40-dof SPD chain (four Cholesky
    /// blocks), rank 1 owns nothing, rank 2 an indefinite pair (pivoted
    /// LU), rank 3 a singular pair (inverse diagonal).
    fn fallback_problem() -> (DistMatrix, Arc<Layout>, BlockJacobi) {
        let mut b = CooBuilder::new(44, 44);
        for i in 0..40 {
            b.push(i, i, 2.5);
            if i + 1 < 40 {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        for (i, j, v) in [(40, 40, 1.0), (40, 41, 2.0), (41, 40, 2.0), (41, 41, 1.0)] {
            b.push(i, j, v);
        }
        for (i, j) in [(42, 42), (42, 43), (43, 42), (43, 43)] {
            b.push(i, j, 4.0);
        }
        // Couplings across ranks, so the residual refresh has a halo.
        for (i, j) in [(39, 40), (41, 42)] {
            b.push(i, j, -0.25);
            b.push(j, i, -0.25);
        }
        let part = (0..44).map(|i| [0, 2, 3][(i.max(38) - 38) / 2]).collect();
        let l = Layout::from_part(part, 4);
        let da = DistMatrix::from_global(&b.build(), l.clone(), l.clone());
        let bj = BlockJacobi::new(&da, 100.0, 0.7);
        assert_eq!(l.local_len(1), 0);
        assert_eq!(bj.num_blocks(0), 4);
        assert!(matches!(bj.ranks[2].factors[..], [BlockFactor::Lu(_)]));
        assert!(matches!(bj.ranks[3].factors[..], [BlockFactor::Diag(_)]));
        (da, l, bj)
    }

    fn bits(v: &DistVec) -> Vec<u64> {
        v.to_global().iter().map(|x| x.to_bits()).collect()
    }

    /// Ordinary values, zeros, and `-0.0` — on dof 42, the singular pair's
    /// first, among others.
    fn signed_zero_rhs(l: &Arc<Layout>) -> DistVec {
        let g: Vec<f64> = (0..l.num_global())
            .map(|i| match i % 7 {
                0 => -0.0,
                1 => 0.0,
                _ => (i as f64 * 0.61).sin(),
            })
            .collect();
        DistVec::from_global(l.clone(), &g)
    }

    #[test]
    fn from_zero_sweep_is_bitwise_a_sweep_on_zeros() {
        let (da, l, bj) = fallback_problem();
        let b = signed_zero_rhs(&l);
        let mut sim = Sim::new(4, MachineModel::default());
        for sweeps in 0..=3 {
            let mut want = DistVec::zeros(l.clone());
            bj.smooth(&mut sim, &da, &b, &mut want, sweeps);
            // What `x` holds on entry must not matter.
            let mut x = DistVec::from_global(l.clone(), &[f64::NAN; 44]);
            bj.smooth_from_zero(&mut sim, &da, &b, &mut x, sweeps);
            assert_eq!(bits(&x), bits(&want), "{sweeps} sweeps");
        }
        // The per-rank entry the SPMD cycle calls is the same kernel.
        let mut want = DistVec::zeros(l.clone());
        bj.smooth(&mut sim, &da, &b, &mut want, 1);
        for rank in 0..4 {
            let mut xp = vec![f64::NAN; l.local_len(rank)];
            bj.rank_view(rank).solve_from_zero(b.part(rank), &mut xp);
            let got: Vec<u64> = xp.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.part(rank).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "rank {rank}");
        }
    }

    #[test]
    fn scatter_add_is_bitwise_apply_then_axpy() {
        // The unfused form, spelled out: `z = ω B⁻¹ r` into a vector of
        // its own, then `x += 1.0 · z`.
        let (_, l, bj) = fallback_problem();
        let r = signed_zero_rhs(&l);
        let x0: Vec<f64> = (0..44)
            .map(|i| {
                if i % 3 == 0 {
                    -0.0
                } else {
                    (i as f64 * 0.3).cos()
                }
            })
            .collect();
        for rank in 0..4 {
            let rb = &bj.ranks[rank];
            let (rp, n) = (r.part(rank), l.local_len(rank));
            let mut z = vec![0.0; n];
            for (blk, fac) in rb.blocks.iter().zip(&rb.factors) {
                let mut s: Vec<f64> = blk.iter().map(|&v| rp[v as usize]).collect();
                fac.solve_in_place(&mut s);
                for (&v, &si) in blk.iter().zip(&s) {
                    z[v as usize] = bj.omega * si;
                }
            }
            let x0p: Vec<f64> = l.owned(rank).iter().map(|&g| x0[g as usize]).collect();
            let mut want = x0p.clone();
            pmg_sparse::vector::axpy(1.0, &z, &mut want);
            let mut got = x0p;
            bj.rank_view(rank).solve_add(rp, &mut got);
            // Bit for bit, signed zeros included: `x + 1.0·(ω s)` and
            // `x + ω s` are the same sum, so a `-0.0` in `x` survives a
            // `-0.0` update on both routes.
            let as_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(as_bits(&got), as_bits(&want), "rank {rank}");
        }
        // From zero the update lands on `+0.0`: a block solve that returns
        // `-0.0` (the singular pair's, from a `-0.0` residual) reads
        // `+0.0` in `x` — as `0.0 + z` always did in `smooth`, and unlike
        // the `z` of the unfused `Precond::apply`, which kept the sign.
        let mut sim = Sim::new(4, MachineModel::default());
        let mut z = DistVec::zeros(l.clone());
        bj.apply(&mut sim, &r, &mut z);
        assert_eq!(r.part(3)[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(z.part(3)[0].to_bits(), 0.0f64.to_bits());
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
