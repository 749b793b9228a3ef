//! Damped block-Jacobi smoother.
//!
//! The paper's multigrid smoother: "block Jacobi with 6 blocks for every
//! 1,000 unknowns (these block Jacobi sub-domains are constructed with
//! METIS)". Blocks are built *within* each rank's sub-domain (block Jacobi
//! needs no communication beyond the residual's matrix product), factored
//! once per matrix setup, and applied with damping `ω` so the smoothing
//! iteration contracts the high-frequency error.
//!
//! The setup has a symbolic half (the twin quotient of the local block's
//! pattern, its partition, block index maps and each block's envelope — a
//! function of the sparsity pattern alone) and a numeric half (scatter
//! each block into its factor's envelope and factor it there). The
//! partition runs on the quotient read straight from the block as stored
//! (its tiles' masks, or its CSR rows): no dof-level graph is built.
//! [`BlockJacobi::refactor`] keeps the first and redoes only the
//! second — allocating nothing — while the pattern is unchanged, which is
//! every Newton iteration on a fixed mesh. A block's Cholesky factor is
//! stored, factored and solved only inside the envelope of its principal
//! submatrix's pattern — about half of the dense triangle and a quarter of
//! its factor flops at the paper's density on the spheres meshes — with the
//! bits of the dense factor (see [`Cholesky`]).
//!
//! Every block of an SPD operator is a principal submatrix, so it is SPD
//! and Cholesky is its only factor. A block that is not numerically SPD
//! keeps its envelope and a factor that records the failure: every sweep
//! through it writes NaN, which PCG reports as a breakdown, and the next
//! refactor factors into the same envelope again.

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, LocalBlock, Sim, SimOperator};
use pmg_partition::{BlockPattern, TwinQuotient};
use pmg_sparse::dense::Cholesky;
use pmg_sparse::PatternFingerprint;
use std::sync::{Arc, Mutex};

/// **One** rank's block-Jacobi smoother: block Jacobi is purely
/// rank-local, so a rank's share is its sub-domain factorizations of its
/// local operator block and nothing else. [`BlockJacobi`] holds one per
/// virtual rank, a message-passing rank its own — the same kernels, so the
/// two runtimes are bitwise identical.
///
/// The blocks are split like `RapPlan` splits the Galerkin product: a
/// *symbolic* half — the partition of the local block's graph into
/// sub-domains and each sub-domain's envelope, a function of the sparsity
/// pattern alone — and a *numeric* half, the envelope Cholesky factor of
/// each sub-domain's principal submatrix.
/// [`refactor`](Self::refactor) redoes only the numeric half while the
/// pattern is unchanged.
pub struct RankJacobi {
    /// Pattern of the local block the symbolic half was built for.
    pattern: PatternFingerprint,
    blocks_per_1000: f64,
    omega: f64,
    /// Local dof indices per block (ascending within a block).
    blocks: Vec<Vec<u32>>,
    /// Per local dof: the block it belongs to and its position inside it.
    home: Vec<(u32, u32)>,
    /// A sweep's gather buffer, as long as the longest block: sized with
    /// the plan, so no sweep allocates. One sweep at a time per rank; the
    /// lock is uncontended in every solve path.
    buf: Mutex<Vec<f64>>,
    factors: Vec<Cholesky>,
    apply_flops: u64,
}

impl RankJacobi {
    /// Partition this rank's local (owned × owned) operator block into
    /// METIS-style sub-domains at the paper's `blocks_per_1000` density
    /// and factor each inside its envelope; sweeps are damped by `omega`.
    /// The block is read in place, in the form its share stores it.
    ///
    /// Telemetry: the symbolic half — the twin quotient, region growing
    /// and refinement, the block index maps and envelopes — under
    /// `partition`, the numeric half under `factor`;
    /// `smoother/blocks_short` counts the blocks asked for that came out
    /// empty (regions of `⌈n / nblocks⌉` dofs can run out before the last
    /// one).
    pub fn new(local: LocalBlock<'_>, blocks_per_1000: f64, omega: f64) -> RankJacobi {
        pmg_telemetry::counter_add("smoother/plan_build", 1);
        let partition = pmg_telemetry::scope("partition");
        let n = local.nrows();
        let mut blocks = Vec::new();
        if n > 0 {
            let nblocks = ((blocks_per_1000 * n as f64 / 1000.0).round() as usize).clamp(1, n);
            let part = TwinQuotient::of_block_rows(&Pattern(local)).partition(nblocks);
            blocks = vec![Vec::new(); nblocks];
            for (v, &p) in part.iter().enumerate() {
                blocks[p as usize].push(v as u32);
            }
            blocks.retain(|b| !b.is_empty());
            pmg_telemetry::counter_add("smoother/blocks_short", (nblocks - blocks.len()) as u64);
        }
        let mut home = vec![(0u32, 0u32); n];
        for (b, blk) in blocks.iter().enumerate() {
            for (l, &v) in blk.iter().enumerate() {
                home[v as usize] = (b as u32, l as u32);
            }
        }
        let mut rj = RankJacobi {
            pattern: local.pattern(),
            blocks_per_1000,
            omega,
            buf: Mutex::new(vec![0.0; blocks.iter().map(Vec::len).max().unwrap_or(0)]),
            factors: Vec::new(),
            blocks,
            home,
            apply_flops: 0,
        };
        let profiles: Vec<Vec<usize>> =
            (0..rj.blocks.len()).map(|b| rj.profile(local, b)).collect();
        drop(partition);
        let _factor = pmg_telemetry::scope("factor");
        rj.factors = profiles.iter().map(|p| Cholesky::with_profile(p)).collect();
        rj.apply_flops = rj.factors.iter().map(Cholesky::solve_flops).sum();
        rj.factor(local);
        rj
    }

    /// Block `b`'s envelope: per row `l`, the lowest slot among its entries
    /// in the block at or left of the diagonal (the diagonal itself if
    /// none). A block lists its dofs in ascending order and a row's
    /// columns ascend, so that is the slot of the row's first column in
    /// the block: each row is read up to there.
    fn profile(&self, local: LocalBlock<'_>, b: usize) -> Vec<usize> {
        (self.blocks[b].iter().enumerate())
            .map(|(l, &g)| {
                let mut row = local.row(g as usize);
                let first = row.find(|&(j, _)| self.home[j].0 as usize == b);
                first.map_or(l, |(j, _)| l.min(self.home[j].1 as usize))
            })
            .collect()
    }

    /// Refactor for a new local block: numeric-only when its sparsity
    /// pattern is the one the blocks were planned for (the values may have
    /// changed freely), a transparent rebuild otherwise. Either way the
    /// result is bitwise what [`RankJacobi::new`] gives on `local`. The
    /// check compares [`LocalBlock::pattern`], which a share keeps for its
    /// lifetime, so checking it on every Newton update hashes nothing.
    pub fn refactor(&mut self, local: LocalBlock<'_>) {
        if self.pattern == local.pattern() {
            pmg_telemetry::counter_add("smoother/plan_reuse", 1);
            self.factor(local);
        } else {
            *self = RankJacobi::new(local, self.blocks_per_1000, self.omega);
        }
    }

    /// The numeric half: every block's rows are scattered straight into
    /// the envelope its factor already owns — the lower triangle, row `l`'s
    /// entries with slot `<= l`, which is all Cholesky ever reads, so
    /// round-off asymmetry in a Galerkin operator cannot reach the factor —
    /// and factored there, allocating nothing. A block that is not SPD
    /// keeps the failed factor (`smoother/blocks_not_spd`).
    fn factor(&mut self, local: LocalBlock<'_>) {
        let mut not_spd = 0;
        for ((b, blk), chol) in self.blocks.iter().enumerate().zip(&mut self.factors) {
            let spd = chol.factor_in_place(|u| {
                // Row `g` up to its diagonal: a block lists its dofs in
                // ascending order and a row's columns ascend, so of the
                // row's entries in `g`'s block these are exactly those at
                // or left of `g`'s slot.
                for (l, &g) in blk.iter().enumerate() {
                    local.for_each_lower(g as usize, |j, v| {
                        let (block, slot) = self.home[j];
                        if block as usize == b {
                            u.set(l, slot as usize, v);
                        }
                    });
                }
            });
            not_spd += u64::from(!spd);
        }
        pmg_telemetry::counter_add("smoother/blocks_not_spd", not_spd);
    }

    /// Number of sub-domain blocks (diagnostics).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Each block's number of dofs (diagnostics).
    pub fn block_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().map(Vec::len)
    }

    /// Resident bytes: the block factors as stored, the block index maps
    /// and the sweep buffer.
    pub fn memory_bytes(&self) -> u64 {
        let factors: u64 = self.factors.iter().map(Cholesky::memory_bytes).sum();
        let buf = self.blocks.iter().map(Vec::len).max().unwrap_or(0);
        factors + (12 * self.home.len() + 8 * buf) as u64
    }

    /// `x += ω · B⁻¹ r` on this rank's blocks: gather a block's residual,
    /// solve in place, scatter-add the damped result straight into `x` —
    /// bitwise `z = ω B⁻¹ r` followed by `x += 1.0 · z`, without the `z`.
    pub fn solve_add(&self, r: &[f64], x: &mut [f64]) {
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
                x[v as usize] += self.omega * si;
            }
        }
    }

    /// `x = ω · B⁻¹ b` on this rank's share: the sweep from the zero guess
    /// (see [`BlockJacobi::smooth_from_zero`]), as
    /// [`solve_add`](Self::solve_add) of `b` into a zero-filled `x`.
    pub fn solve_from_zero(&self, b: &[f64], x: &mut [f64]) {
        x.fill(0.0);
        self.solve_add(b, x);
    }
}

/// A local block as the partitioner reads it: block row by block row,
/// tiles and masks or CSR rows ([`LocalBlock::for_each_block`]).
struct Pattern<'a>(LocalBlock<'a>);

impl BlockPattern for Pattern<'_> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }

    fn block_size(&self) -> usize {
        self.0.block_size()
    }

    fn for_each_block(&self, br: usize, f: impl FnMut(usize, u16)) {
        self.0.for_each_block(br, f)
    }
}

/// The block-Jacobi smoother / one-level preconditioner: one
/// [`RankJacobi`] per virtual rank.
pub struct BlockJacobi {
    ranks: Vec<RankJacobi>,
    /// A sweep's residual `b − A x`, kept between sweeps so that smoothing
    /// allocates nothing (`tests/smoother_alloc.rs`). One sweep at a time;
    /// the lock is uncontended in every solve path.
    residual: Mutex<DistVec>,
}

impl BlockJacobi {
    /// Build with the paper's density of `blocks_per_1000` blocks per 1000
    /// local unknowns and damping `omega`.
    pub fn new(a: &DistMatrix, blocks_per_1000: f64, omega: f64) -> BlockJacobi {
        let nranks = a.row_layout().num_ranks();
        let ranks: Vec<RankJacobi> = (0..nranks)
            .map(|r| RankJacobi::new(a.local_block(r), blocks_per_1000, omega))
            .collect();
        BlockJacobi {
            ranks,
            residual: Mutex::new(DistVec::zeros(a.row_layout().clone())),
        }
    }

    /// Refactor for a new operator on the same ranks, at the density and
    /// damping the smoother was built with. While a rank's local sparsity
    /// pattern is unchanged (Newton only changes values) this is
    /// numeric-only — no graph, no partition, just scatter and factor the
    /// planned blocks; a rank whose pattern changed is rebuilt
    /// transparently. The result is bitwise a fresh [`BlockJacobi::new`].
    pub fn refactor(&mut self, a: &DistMatrix) {
        assert_eq!(
            a.row_layout().num_ranks(),
            self.ranks.len(),
            "rank count changed"
        );
        for (r, rj) in self.ranks.iter_mut().enumerate() {
            rj.refactor(a.local_block(r));
        }
    }

    /// Number of blocks on rank `r` (diagnostics).
    pub fn num_blocks(&self, r: usize) -> usize {
        self.ranks[r].num_blocks()
    }

    /// Rank `r`'s share — what a message-passing rank holds of this
    /// smoother.
    pub fn share(&self, r: usize) -> &RankJacobi {
        &self.ranks[r]
    }

    /// `x += ω · B⁻¹ r`: every rank's block solves on its own parts, plus
    /// the model's charge for them.
    fn solve_add(&self, sim: &mut Sim, r: &DistVec, x: &mut DistVec) {
        for (rank, (rj, xp)) in self.ranks.iter().zip(x.parts_mut()).enumerate() {
            rj.solve_add(r.part(rank), xp);
        }
        sim.compute_each(|rank| self.ranks[rank].apply_flops);
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
    use pmg_partition::{partition_graph, Graph};
    use pmg_sparse::{CooBuilder, CsrMatrix};

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

        // So does one share on its own, as a message-passing rank holds it.
        let share_bits = |rj: &RankJacobi| -> Vec<u64> {
            let r: Vec<f64> = (0..144).map(|i| (i as f64 * 0.61).sin()).collect();
            let mut z = vec![f64::NAN; 144];
            rj.solve_from_zero(&r, &mut z);
            z.iter().map(|v| v.to_bits()).collect()
        };
        let mut rj = RankJacobi::new((&a).into(), 60.0, 0.7);
        rj.refactor((&a2).into());
        assert_eq!(
            share_bits(&rj),
            share_bits(&RankJacobi::new((&a2).into(), 60.0, 0.7))
        );

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

        // A pattern change that widens a block's envelope: couple the
        // first and the last dof of a block of rank 0. Refactoring in the
        // old extents would have no room for the new entries; the plan is
        // rebuilt with wider ones, bitwise a fresh build.
        let before = bj.ranks[0].memory_bytes();
        let blk = &bj.ranks[0].blocks[0];
        let (first, last) = (blk[0] as usize, blk[blk.len() - 1] as usize);
        let mut b4 = CooBuilder::new(144, 144);
        for (i, j, v) in a3.iter() {
            b4.push(i, j, v);
        }
        b4.push(first, last, -0.25);
        b4.push(last, first, -0.25);
        let a4 = b4.build();
        bj.refactor(&dist(&a4));
        assert!(
            bj.ranks[0].memory_bytes() > before,
            "the envelope did not widen"
        );
        assert_eq!(
            apply_bits(&bj, &l),
            apply_bits(&BlockJacobi::new(&dist(&a4), 60.0, 0.7), &l)
        );
    }

    /// A block that is not SPD sweeps to NaN on its own dofs only, keeps
    /// its envelope, and the next refactor factors into it again — bitwise
    /// the factor it had.
    #[test]
    fn a_block_that_is_not_spd_sweeps_to_nan_and_recovers_in_place() {
        let spd = grid_laplacian(6, 0.0);
        let mut poisoned = CooBuilder::new(36, 36);
        for (i, j, v) in spd.iter() {
            poisoned.push(i, j, v);
        }
        poisoned.push(0, 0, f64::NAN);
        let sweep = |rj: &RankJacobi| -> Vec<f64> {
            let r: Vec<f64> = (0..36).map(|i| (i as f64 * 0.61).sin()).collect();
            let mut x = vec![0.0; 36];
            rj.solve_from_zero(&r, &mut x);
            x
        };
        let bits = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
        let mut rj = RankJacobi::new((&spd).into(), 100.0, 1.0); // 36 dofs -> 4 blocks
        assert_eq!(rj.num_blocks(), 4);
        let (good, bytes) = (bits(&sweep(&rj)), rj.memory_bytes());
        // The NaN fails dof 0's block; a negative diagonal fails them all.
        let dof0_block: Vec<bool> = (0..36).map(|v| rj.home[v].0 == rj.home[0].0).collect();
        for (a, failed) in [
            (poisoned.build(), dof0_block),
            (grid_laplacian(6, -8.0), vec![true; 36]),
        ] {
            rj.refactor((&a).into());
            let nan: Vec<bool> = sweep(&rj).iter().map(|v| v.is_nan()).collect();
            assert_eq!(nan, failed);
            assert_eq!(rj.memory_bytes(), bytes);
            rj.refactor((&spd).into());
            assert_eq!(bits(&sweep(&rj)), good);
        }
    }

    /// Four ranks, 44 dofs: rank 0 owns a 40-dof SPD chain (four blocks),
    /// rank 1 owns nothing, rank 2 a coupled SPD pair and rank 3 a
    /// decoupled one (a block each).
    fn four_rank_problem() -> (DistMatrix, Arc<Layout>, BlockJacobi) {
        let mut b = CooBuilder::new(44, 44);
        for i in 0..40 {
            b.push(i, i, 2.5);
            if i + 1 < 40 {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        for (i, j, v) in [(40, 40, 3.0), (40, 41, 1.0), (41, 40, 1.0), (41, 41, 3.0)] {
            b.push(i, j, v);
        }
        for i in [42, 43] {
            b.push(i, i, 4.0);
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
        assert_eq!((bj.num_blocks(2), bj.num_blocks(3)), (1, 1));
        (da, l, bj)
    }

    fn bits(v: &DistVec) -> Vec<u64> {
        v.to_global().iter().map(|x| x.to_bits()).collect()
    }

    /// Ordinary values, zeros, and `-0.0` — on dof 42, the decoupled pair's
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
        let (da, l, bj) = four_rank_problem();
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
            bj.share(rank).solve_from_zero(b.part(rank), &mut xp);
            let got: Vec<u64> = xp.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.part(rank).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "rank {rank}");
        }
    }

    #[test]
    fn scatter_add_is_bitwise_apply_then_axpy() {
        // The unfused form, spelled out: `z = ω B⁻¹ r` into a vector of
        // its own, then `x += 1.0 · z`.
        let (_, l, bj) = four_rank_problem();
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
            let rb = bj.share(rank);
            let (rp, n) = (r.part(rank), l.local_len(rank));
            let mut z = vec![0.0; n];
            for (blk, fac) in rb.blocks.iter().zip(&rb.factors) {
                let mut s: Vec<f64> = blk.iter().map(|&v| rp[v as usize]).collect();
                fac.solve_in_place(&mut s);
                for (&v, &si) in blk.iter().zip(&s) {
                    z[v as usize] = rb.omega * si;
                }
            }
            let x0p: Vec<f64> = l.owned(rank).iter().map(|&g| x0[g as usize]).collect();
            let mut want = x0p.clone();
            pmg_sparse::vector::axpy(1.0, &z, &mut want);
            let mut got = x0p;
            bj.share(rank).solve_add(rp, &mut got);
            // Bit for bit, signed zeros included: `x + 1.0·(ω s)` and
            // `x + ω s` are the same sum, so a `-0.0` in `x` survives a
            // `-0.0` update on both routes.
            let as_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(as_bits(&got), as_bits(&want), "rank {rank}");
        }
        // From zero the update lands on `+0.0`: a block solve that returns
        // `-0.0` (the decoupled pair's, from a `-0.0` residual) reads
        // `+0.0` in `x` — as `0.0 + z` always did in `smooth`, and unlike
        // the `z` of the unfused `Precond::apply`, which kept the sign.
        let mut sim = Sim::new(4, MachineModel::default());
        let mut z = DistVec::zeros(l.clone());
        bj.apply(&mut sim, &r, &mut z);
        assert_eq!(r.part(3)[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(z.part(3)[0].to_bits(), 0.0f64.to_bits());
    }

    /// Three dofs on each vertex of an `nx × nx × 2` grid, coupled to the
    /// vertices around it, diagonally dominant; the dofs `fixed` keep only
    /// their diagonal, and the entries `dropped` are not stored.
    fn elastic(nx: usize, fixed: &[usize], dropped: &[(usize, usize)]) -> CsrMatrix {
        // Vertex `(i * nx + j) * 2 + k` sits at `(i, j, k)`.
        let nv = 2 * nx * nx;
        let at = |u: usize| (u / 2 / nx, u / 2 % nx, u % 2);
        let near = |u: usize, v: usize| {
            let ((ui, uj, uk), (vi, vj, vk)) = (at(u), at(v));
            ui.abs_diff(vi) <= 1 && uj.abs_diff(vj) <= 1 && uk.abs_diff(vk) <= 1
        };
        let mut b = CooBuilder::new(3 * nv, 3 * nv);
        for u in 0..nv {
            for v in (0..nv).filter(|&v| near(u, v)) {
                for (r, c) in (0..9).map(|k| (3 * u + k / 3, 3 * v + k % 3)) {
                    let kept =
                        !fixed.contains(&r) && !fixed.contains(&c) && !dropped.contains(&(r, c));
                    if r == c {
                        b.push(r, c, 40.0);
                    } else if kept {
                        b.push(r, c, -0.1 - 0.01 * ((r + 2 * c) % 5) as f64);
                    }
                }
            }
        }
        b.build()
    }

    /// The blocks are the dof graph's partition whichever form the block
    /// is stored in — promoted 3x3 tiles, or the same rows as scalar CSR —
    /// on a constrained pattern and on a structurally unsymmetric one:
    /// rows 6 and 7 store no column 9 while row 9 stores column 6 only,
    /// so dofs 6 and 7 are not twins although their rows agree.
    #[test]
    fn blocks_are_the_dof_graph_partition_in_every_stored_form() {
        let symmetric = elastic(4, &[4, 17, 18, 19, 50], &[]);
        let unsymmetric = elastic(4, &[50], &[(9, 7), (6, 9), (7, 9), (20, 21), (33, 40)]);
        assert!(unsymmetric.get(9, 6) != 0.0 && unsymmetric.get(6, 9) == 0.0);
        for a in [symmetric, unsymmetric] {
            assert_blocks_are_the_dof_graph_partition(&a, 60.0);
        }
    }

    /// `RankJacobi::new`'s blocks on `a`, promoted to 3x3 tiles and as
    /// scalar CSR, are the dof graph's partition grouped by part.
    fn assert_blocks_are_the_dof_graph_partition(a: &CsrMatrix, per_1000: f64) {
        let n = a.nrows();
        let nblocks = ((per_1000 * n as f64 / 1000.0).round() as usize).clamp(1, n);
        let graph = Graph::from_rows(n, |i| a.row(i).0.iter().copied());
        let mut want = vec![Vec::new(); nblocks];
        for (v, &p) in partition_graph(&graph, nblocks).iter().enumerate() {
            want[p as usize].push(v as u32);
        }
        want.retain(|b: &Vec<u32>| !b.is_empty());
        let l = Layout::serial(n);
        let tiled = DistMatrix::from_global_blocked(a, l.clone(), l);
        assert!(tiled.local_block(0).tiles().is_some());
        for (form, local) in [("tiles", tiled.local_block(0)), ("csr", a.into())] {
            let rj = RankJacobi::new(local, per_1000, 0.7);
            assert_eq!(rj.blocks, want, "{form}");
        }
    }

    proptest::proptest! {
        /// [`blocks_are_the_dof_graph_partition_in_every_stored_form`] on
        /// drawn constraints, one-way drops and densities.
        #[test]
        fn prop_blocks_are_the_dof_graph_partition_in_every_stored_form(
            nx in 1usize..5,
            fixed in proptest::collection::vec(0usize..1000, 0..6),
            drops in proptest::collection::vec((0usize..1000, 0usize..1000), 0..8),
            per_1000 in 10.0f64..400.0,
        ) {
            // Each draw `(a, k)` drops entry `(a, b)` near the diagonal,
            // where the entries are, and column `a` from the rows of `b`'s
            // vertex: those rows agree, their columns do not.
            let n = 6 * nx * nx;
            let fixed: Vec<usize> = fixed.iter().map(|f| f % n).collect();
            let drops: Vec<(usize, usize)> = (drops.iter())
                .flat_map(|&(a, k)| {
                    let (a, b) = (a % n, (a % n + 1 + k % 9) % n);
                    (b - b % 3..b - b % 3 + 3).map(move |t| (t, a)).chain([(a, b)])
                })
                .collect();
            let a = elastic(nx, &fixed, &drops);
            assert_blocks_are_the_dof_graph_partition(&a, per_1000);
        }
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
