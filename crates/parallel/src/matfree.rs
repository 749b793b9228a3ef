//! Distributed matrix-free operator application.
//!
//! [`DistMatFree`] is the matrix-free sibling of
//! [`DistMatrix`]: the same row partition, the same
//! persistent coalesced [`HaloPlan`](crate::halo::HaloPlan) (requested
//! through the layout's fingerprint cache, so a matrix-free operator whose
//! ghost sets match an assembled one *reuses its plan*), the same BSP
//! charges — but each rank's product runs an element-loop kernel
//! ([`pmg_sparse::MatrixFreeKernel`]) instead of stored CSR/BSR3 values.
//!
//! The kernel contract splits the product in two phases. `apply_interior`
//! needs only owned values (interior elements plus Dirichlet rows);
//! `apply_boundary` accumulates the ghost-touching elements. Running
//! interior-then-boundary in that fixed order makes the blocking and
//! overlapped schedules bitwise identical — the same argument as the
//! assembled row-split, except rows may receive contributions from *both*
//! phases (an owned row shared by interior and boundary elements). One
//! product takes one vector.
//!
//! [`SimOperator`] abstracts "something `spmv`-shaped under the Sim" so the
//! Krylov loop and the multigrid cycle can hold either representation.

use crate::halo::RankHalo;
use crate::layout::Layout;
use crate::rank::OverlapInfo;
use crate::sim::Sim;
use crate::vec::DistVec;
use crate::DistMatrix;
use pmg_comm::{CommError, HaloExchange, Transport};
use pmg_sparse::MatrixFreeKernel;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A distributed operator the orchestrated (Sim) solve can apply: either an
/// assembled [`DistMatrix`] or a matrix-free [`DistMatFree`]. Square
/// operators only — row and column layouts coincide.
pub trait SimOperator: Send + Sync {
    /// The row (= column) partition of the operator.
    fn row_layout(&self) -> &Arc<Layout>;
    /// `y = A x`, charging one ghost exchange plus one compute superstep.
    fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec);
    /// Global diagonal (Jacobi-type setup and diagnostics).
    fn diag_global(&self) -> Vec<f64>;
}

impl SimOperator for DistMatrix {
    fn row_layout(&self) -> &Arc<Layout> {
        DistMatrix::row_layout(self)
    }

    fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        DistMatrix::spmv(self, sim, x, y)
    }

    fn diag_global(&self) -> Vec<f64> {
        self.to_global().diag()
    }
}

/// A matrix-free operator distributed by rows over a [`Layout`]: one
/// two-phase element-loop kernel per rank plus the persistent ghost
/// exchange plan over the kernels' ghost sets.
pub struct DistMatFree {
    layout: Arc<Layout>,
    kernels: Vec<Box<dyn MatrixFreeKernel>>,
    plan: Arc<crate::halo::HaloPlan>,
    spmv_flops: Vec<u64>,
    spmv_traffic: Vec<(u64, u64)>,
}

impl DistMatFree {
    /// Wrap per-rank kernels (one per layout rank, rows matching the
    /// layout's owned counts). The exchange plan is requested from the
    /// layout's fingerprint cache: kernels whose ghost sets equal an
    /// assembled operator's get a `comm/plan_reuse` hit, not a rebuild.
    pub fn new(layout: Arc<Layout>, kernels: Vec<Box<dyn MatrixFreeKernel>>) -> DistMatFree {
        assert_eq!(kernels.len(), layout.num_ranks(), "one kernel per rank");
        for (r, k) in kernels.iter().enumerate() {
            assert_eq!(
                k.local_rows(),
                layout.local_len(r),
                "kernel rows must match layout rank {r}"
            );
        }
        let ghost_lists: Vec<Vec<u32>> = kernels.iter().map(|k| k.ghosts().to_vec()).collect();
        let plan = layout.halo_plan(&ghost_lists);
        let spmv_flops = kernels.iter().map(|k| k.flops_per_apply()).collect();
        let spmv_traffic = plan
            .ranks
            .iter()
            .map(|rh| (rh.recv.len() as u64, 8 * rh.recv_len() as u64))
            .collect();
        DistMatFree {
            layout,
            kernels,
            plan,
            spmv_flops,
            spmv_traffic,
        }
    }

    /// Build the kernels from a [`MatrixFreeFactory`](pmg_sparse::MatrixFreeFactory)
    /// over the layout's owned index lists.
    pub fn from_factory(
        layout: Arc<Layout>,
        factory: &dyn pmg_sparse::MatrixFreeFactory,
    ) -> DistMatFree {
        let owned: Vec<&[u32]> = (0..layout.num_ranks()).map(|r| layout.owned(r)).collect();
        let kernels = factory.build_kernels(&owned);
        DistMatFree::new(layout, kernels)
    }

    /// The row (= column) partition.
    pub fn row_layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The persistent ghost-exchange plan this operator replays.
    pub fn halo_plan(&self) -> &Arc<crate::halo::HaloPlan> {
        &self.plan
    }

    /// Per-rank ghost counts (diagnostics).
    pub fn ghost_counts(&self) -> Vec<usize> {
        self.kernels.iter().map(|k| k.ghosts().len()).collect()
    }

    /// Rank `r`'s borrowed view for SPMD execution over a real transport,
    /// bound to message tag `tag`. Computes bitwise the same product as
    /// [`DistMatFree::spmv`].
    pub fn rank_op(&self, r: usize, tag: u32) -> MfRankOp<'_> {
        MfRankOp {
            kernel: self.kernels[r].as_ref(),
            halo: &self.plan.ranks[r],
            tag,
        }
    }

    /// `y = A x`, charging one ghost exchange plus one compute superstep.
    /// Same plan replay and ghost pack order as the real transports, so the
    /// simulated and SPMD paths agree bitwise at a fixed layout.
    pub fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        assert!(Arc::ptr_eq(x.layout(), &self.layout), "x layout mismatch");
        assert!(Arc::ptr_eq(y.layout(), &self.layout), "y layout mismatch");
        sim.exchange(&self.spmv_traffic);
        pmg_telemetry::counter_add("spmv/matfree_routed", 1);

        let plan = &self.plan;
        let ghost_vals: Vec<Vec<f64>> = self
            .kernels
            .par_iter()
            .enumerate()
            .map(|(r, k)| {
                let mut gv = vec![0.0; k.ghosts().len()];
                for msg in &plan.ranks[r].recv {
                    let peer = msg.peer as usize;
                    let send = plan.ranks[peer].send_to(r);
                    for (&slot, &li) in msg.idx.iter().zip(&send.idx) {
                        gv[slot as usize] = x.part(peer)[li as usize];
                    }
                }
                gv
            })
            .collect();

        let parts: Vec<Vec<f64>> = self
            .kernels
            .par_iter()
            .enumerate()
            .map(|(r, k)| {
                let xl = x.part(r);
                let mut yl = vec![0.0; k.local_rows()];
                k.apply_interior(xl, &mut yl);
                k.apply_boundary(xl, &ghost_vals[r], &mut yl);
                yl
            })
            .collect();
        for (r, p) in parts.into_iter().enumerate() {
            y.part_mut(r).copy_from_slice(&p);
        }
        sim.compute(&self.spmv_flops);
    }
}

impl SimOperator for DistMatFree {
    fn row_layout(&self) -> &Arc<Layout> {
        DistMatFree::row_layout(self)
    }

    fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        DistMatFree::spmv(self, sim, x, y)
    }

    fn diag_global(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.layout.num_global()];
        for (r, k) in self.kernels.iter().enumerate() {
            for (slot, &g) in self.layout.owned(r).iter().enumerate() {
                d[g as usize] = k.diag_local()[slot];
            }
        }
        d
    }
}

/// One rank's borrowed matrix-free view, bound to a message tag — the
/// element-loop analogue of [`RankOp`](crate::rank::RankOp).
pub struct MfRankOp<'a> {
    kernel: &'a dyn MatrixFreeKernel,
    halo: &'a RankHalo,
    tag: u32,
}

impl<'a> MfRankOp<'a> {
    /// Rows (= owned columns) of this rank's share.
    pub fn local_rows(&self) -> usize {
        self.kernel.local_rows()
    }

    /// Post this operator's halo sends (packing `x_local` per the plan)
    /// and return the in-flight exchange.
    fn start_exchange<T: Transport>(
        &self,
        t: &mut T,
        x_local: &[f64],
    ) -> Result<HaloExchange<'a>, CommError> {
        let sends = self.halo.send.iter().map(|msg| {
            let packed: Vec<f64> = msg.idx.iter().map(|&li| x_local[li as usize]).collect();
            (msg.peer as usize, packed)
        });
        let recvs = self
            .halo
            .recv
            .iter()
            .map(|msg| (msg.peer as usize, msg.idx.as_slice()))
            .collect();
        HaloExchange::start(t, self.tag, sends, recvs)
    }

    /// `y_local = A_rank · x` with a blocking halo exchange. The interior
    /// phase runs only after the exchange drains, but in the *same*
    /// interior-then-boundary order as the overlapped schedule, so the two
    /// are bitwise identical. Lockstep across ranks.
    pub fn spmv<T: Transport>(
        &self,
        t: &mut T,
        x_local: &[f64],
        y_local: &mut [f64],
    ) -> Result<(), CommError> {
        assert_eq!(x_local.len(), self.kernel.local_rows(), "x_local length");
        assert_eq!(y_local.len(), self.kernel.local_rows(), "y_local length");
        let hx = self.start_exchange(t, x_local)?;
        let mut ghost_vals = vec![0.0; self.kernel.ghosts().len()];
        hx.finish(t, &mut ghost_vals)?;
        self.kernel.apply_interior(x_local, y_local);
        self.kernel.apply_boundary(x_local, &ghost_vals, y_local);
        Ok(())
    }

    /// `y_local = A_rank · x` with communication/computation overlap: the
    /// interior phase (elements with no ghost dof, plus Dirichlet rows)
    /// runs while the halo messages are in flight; the boundary elements
    /// accumulate after the ghosts arrive. Bitwise identical to
    /// [`spmv`](MfRankOp::spmv) — only the schedule differs.
    pub fn spmv_overlapped<T: Transport>(
        &self,
        t: &mut T,
        x_local: &[f64],
        y_local: &mut [f64],
    ) -> Result<OverlapInfo, CommError> {
        assert_eq!(x_local.len(), self.kernel.local_rows(), "x_local length");
        assert_eq!(y_local.len(), self.kernel.local_rows(), "y_local length");
        let hx = self.start_exchange(t, x_local)?;
        let window = Instant::now();
        self.kernel.apply_interior(x_local, y_local);
        let hidden_s = window.elapsed().as_secs_f64();
        let mut ghost_vals = vec![0.0; self.kernel.ghosts().len()];
        hx.finish(t, &mut ghost_vals)?;
        self.kernel.apply_boundary(x_local, &ghost_vals, y_local);
        Ok(OverlapInfo {
            hidden_s,
            interior_rows: self.kernel.interior_rows(),
            boundary_rows: self.kernel.boundary_rows(),
        })
    }
}

#[doc(hidden)]
pub mod test_kernel {
    //! A miniature element-loop kernel over 1D two-node "elements", used by
    //! the unit tests here and the property suite (this crate's and the
    //! workspace's): enough structure to exercise ghosts, the two-phase
    //! split, and rows fed by both phases. Hidden from docs — it is test
    //! scaffolding, not API.

    use pmg_sparse::{CooBuilder, CsrMatrix, MatrixFreeKernel};

    /// Elements are index pairs `(i, i+1 mod n)` with the 2x2 stencil
    /// `[[2, -1], [-1, 2]]` scaled per element.
    pub struct ChainKernel {
        pub owned: Vec<u32>,
        /// Per global dof: owned slot (`>= 0`), ghost slot (`-(s+2)`), or
        /// `-1` (untouched by this rank).
        pub code: Vec<i32>,
        pub ghosts: Vec<u32>,
        pub elems_int: Vec<u32>,
        pub elems_bnd: Vec<u32>,
        pub scales: Vec<f64>,
        pub n: usize,
        pub wrap: bool,
        pub diag: Vec<f64>,
        pub interior_rows: u64,
        pub boundary_rows: u64,
    }

    impl ChainKernel {
        /// One rank's kernel for the chain of `n` dofs (`wrap` closes the
        /// ring) with per-element `scales`, owning `owned`.
        pub fn build(n: usize, wrap: bool, scales: Vec<f64>, owned: Vec<u32>) -> ChainKernel {
            let ne = if wrap { n } else { n.saturating_sub(1) };
            assert_eq!(scales.len(), ne);
            let mut code = vec![-1i32; n];
            for (slot, &g) in owned.iter().enumerate() {
                code[g as usize] = slot as i32;
            }
            let ends = |e: usize| [e as u32, ((e + 1) % n) as u32];
            let mut listed = Vec::new();
            let mut is_ghost = vec![false; n];
            for e in 0..ne {
                let vs = ends(e);
                if vs.iter().any(|&v| code[v as usize] >= 0) {
                    listed.push(e as u32);
                    for &v in &vs {
                        if code[v as usize] < 0 {
                            is_ghost[v as usize] = true;
                        }
                    }
                }
            }
            let ghosts: Vec<u32> = (0..n as u32).filter(|&g| is_ghost[g as usize]).collect();
            for (s, &g) in ghosts.iter().enumerate() {
                code[g as usize] = -(s as i32 + 2);
            }
            let mut elems_int = Vec::new();
            let mut elems_bnd = Vec::new();
            let mut row_bnd = vec![false; owned.len()];
            for &e in &listed {
                let vs = ends(e as usize);
                if vs.iter().any(|&v| code[v as usize] < -1) {
                    elems_bnd.push(e);
                    for &v in &vs {
                        if code[v as usize] >= 0 {
                            row_bnd[code[v as usize] as usize] = true;
                        }
                    }
                } else {
                    elems_int.push(e);
                }
            }
            let boundary_rows = row_bnd.iter().filter(|&&b| b).count() as u64;
            let mut diag = vec![0.0; owned.len()];
            for &e in listed.iter() {
                for &v in &ends(e as usize) {
                    let c = code[v as usize];
                    if c >= 0 {
                        diag[c as usize] += 2.0 * scales[e as usize];
                    }
                }
            }
            ChainKernel {
                interior_rows: owned.len() as u64 - boundary_rows,
                boundary_rows,
                owned,
                code,
                ghosts,
                elems_int,
                elems_bnd,
                scales,
                n,
                wrap,
                diag,
            }
        }

        /// The matching global matrix, assembled conventionally.
        pub fn global_matrix(n: usize, wrap: bool, scales: &[f64]) -> CsrMatrix {
            let ne = if wrap { n } else { n.saturating_sub(1) };
            let mut b = CooBuilder::new(n, n);
            for (e, &s) in scales.iter().enumerate().take(ne) {
                let i = e;
                let j = (e + 1) % n;
                b.push(i, i, 2.0 * s);
                b.push(j, j, 2.0 * s);
                b.push(i, j, -s);
                b.push(j, i, -s);
            }
            b.build()
        }

        fn run(&self, elems: &[u32], xo: &[f64], xg: &[f64], y: &mut [f64]) {
            for &e in elems {
                let s = self.scales[e as usize];
                let vs = [e as usize, (e as usize + 1) % self.n];
                let xv = vs.map(|v| match self.code[v] {
                    c if c >= 0 => xo[c as usize],
                    c if c < -1 => xg[(-c - 2) as usize],
                    _ => 0.0,
                });
                let ye = [s * (2.0 * xv[0] - xv[1]), s * (2.0 * xv[1] - xv[0])];
                for (k, &v) in vs.iter().enumerate() {
                    let c = self.code[v];
                    if c >= 0 {
                        y[c as usize] += ye[k];
                    }
                }
            }
        }
    }

    impl MatrixFreeKernel for ChainKernel {
        fn local_rows(&self) -> usize {
            self.owned.len()
        }

        fn ghosts(&self) -> &[u32] {
            &self.ghosts
        }

        fn apply_interior(&self, x_owned: &[f64], y: &mut [f64]) {
            y.fill(0.0);
            self.run(&self.elems_int, x_owned, &[], y);
        }

        fn apply_boundary(&self, x_owned: &[f64], x_ghost: &[f64], y: &mut [f64]) {
            self.run(&self.elems_bnd, x_owned, x_ghost, y);
        }

        fn interior_rows(&self) -> u64 {
            self.interior_rows
        }

        fn boundary_rows(&self) -> u64 {
            self.boundary_rows
        }

        fn diag_local(&self) -> &[f64] {
            &self.diag
        }

        fn flops_per_apply(&self) -> u64 {
            6 * (self.elems_int.len() + self.elems_bnd.len()) as u64
        }

        fn memory_bytes(&self) -> u64 {
            (self.scales.len() * 8 + self.code.len() * 4 + self.diag.len() * 8) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_kernel::ChainKernel;
    use super::*;
    use crate::sim::MachineModel;
    use pmg_comm::LocalTransport;
    use pmg_sparse::MatrixFreeFactory;

    fn chain_matfree(n: usize, wrap: bool, layout: &Arc<Layout>) -> DistMatFree {
        let scales: Vec<f64> = (0..if wrap { n } else { n - 1 })
            .map(|e| 1.0 + 0.1 * e as f64)
            .collect();
        let kernels: Vec<Box<dyn MatrixFreeKernel>> = (0..layout.num_ranks())
            .map(|r| {
                Box::new(ChainKernel::build(
                    n,
                    wrap,
                    scales.clone(),
                    layout.owned(r).to_vec(),
                )) as Box<dyn MatrixFreeKernel>
            })
            .collect();
        DistMatFree::new(layout.clone(), kernels)
    }

    #[test]
    fn matfree_spmv_matches_assembled_reference() {
        let n = 19;
        let scales: Vec<f64> = (0..n - 1).map(|e| 1.0 + 0.1 * e as f64).collect();
        let a = ChainKernel::global_matrix(n, false, &scales);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin()).collect();
        let mut expect = vec![0.0; n];
        a.spmv(&x, &mut expect);
        for p in [1, 2, 3, 5] {
            let l = Layout::block(n, p);
            let mf = chain_matfree(n, false, &l);
            let dx = DistVec::from_global(l.clone(), &x);
            let mut dy = DistVec::zeros(l.clone());
            let mut sim = Sim::new(p, MachineModel::default());
            SimOperator::spmv(&mf, &mut sim, &dx, &mut dy);
            let got = dy.to_global();
            for (u, v) in got.iter().zip(&expect) {
                assert!((u - v).abs() < 1e-13, "p={p}");
            }
        }
    }

    #[test]
    fn diag_global_matches_assembled() {
        let n = 12;
        // Same per-element scales as `chain_matfree` builds.
        let scales: Vec<f64> = (0..n).map(|e| 1.0 + 0.1 * e as f64).collect();
        let a = ChainKernel::global_matrix(n, true, &scales);
        let l = Layout::block(n, 3);
        let mf = chain_matfree(n, true, &l);
        assert_eq!(mf.diag_global(), a.diag());
    }

    #[test]
    fn transport_spmv_bitwise_matches_sim() {
        let n = 17;
        for p in [1, 2, 4] {
            let l = Layout::block(n, p);
            let mf = chain_matfree(n, true, &l);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).cos()).collect();
            let dx = DistVec::from_global(l.clone(), &x);
            let mut dy = DistVec::zeros(l.clone());
            let mut sim = Sim::new(p, MachineModel::default());
            SimOperator::spmv(&mf, &mut sim, &dx, &mut dy);
            let expect = dy.to_global();

            let mfr = &mf;
            let l2 = &l;
            let x2 = &x;
            let parts = LocalTransport::run_ranks(p, move |mut t| {
                let r = t.rank();
                let op = mfr.rank_op(r, 3);
                let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
                let mut y1 = vec![0.0; op.local_rows()];
                op.spmv(&mut t, &xl, &mut y1).unwrap();
                let mut y2 = vec![0.0; op.local_rows()];
                let info = op.spmv_overlapped(&mut t, &xl, &mut y2).unwrap();
                (y1, y2, info)
            });
            let mut got = vec![0.0; n];
            for (r, (y1, y2, info)) in parts.iter().enumerate() {
                assert_eq!(
                    info.interior_rows + info.boundary_rows,
                    y1.len() as u64,
                    "row accounting partitions the local rows"
                );
                // Blocking and overlapped schedules agree bitwise.
                for (a, b) in y1.iter().zip(y2) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p} r={r}");
                }
                for (&g, &v) in l.owned(r).iter().zip(y1) {
                    got[g as usize] = v;
                }
            }
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p} transport vs sim");
            }
        }
    }

    #[test]
    fn plan_shared_with_assembled_operator() {
        // A matrix-free operator whose ghost sets equal the assembled
        // operator's hits the layout's plan cache instead of rebuilding.
        let n = 15;
        let scales: Vec<f64> = (0..n - 1).map(|e| 1.0 + 0.2 * e as f64).collect();
        let a = ChainKernel::global_matrix(n, false, &scales);
        let l = Layout::block(n, 3);
        let da = DistMatrix::from_global(&a, l.clone(), l.clone());
        let mf = chain_matfree(n, false, &l);
        assert!(Arc::ptr_eq(da.halo_plan(), mf.halo_plan()));
        assert_eq!(da.ghost_counts(), mf.ghost_counts());
    }

    #[test]
    fn factory_construction_roundtrip() {
        struct ChainFactory {
            n: usize,
            scales: Vec<f64>,
        }
        impl MatrixFreeFactory for ChainFactory {
            fn build_kernels(&self, owned: &[&[u32]]) -> Vec<Box<dyn MatrixFreeKernel>> {
                owned
                    .iter()
                    .map(|rows| {
                        Box::new(ChainKernel::build(
                            self.n,
                            false,
                            self.scales.clone(),
                            rows.to_vec(),
                        )) as Box<dyn MatrixFreeKernel>
                    })
                    .collect()
            }
        }
        let n = 11;
        let scales: Vec<f64> = (0..n - 1).map(|e| 2.0 - 0.1 * e as f64).collect();
        let l = Layout::block(n, 2);
        let mf = DistMatFree::from_factory(
            l.clone(),
            &ChainFactory {
                n,
                scales: scales.clone(),
            },
        );
        let a = ChainKernel::global_matrix(n, false, &scales);
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let dx = DistVec::from_global(l.clone(), &x);
        let mut dy = DistVec::zeros(l);
        let mut sim = Sim::new(2, MachineModel::default());
        SimOperator::spmv(&mf, &mut sim, &dx, &mut dy);
        let mut expect = vec![0.0; n];
        a.spmv(&x, &mut expect);
        for (u, v) in dy.to_global().iter().zip(&expect) {
            assert!((u - v).abs() < 1e-13);
        }
    }
}
