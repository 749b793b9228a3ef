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
//! `apply_boundary` accumulates the ghost-touching elements, always in
//! that order, so a product's bits do not depend on when the ghosts
//! arrived. One product takes one vector.
//!
//! The operator lives on the simulator only: message-passing ranks build
//! their hierarchy with `build_from_shards`, which assembles the fine grid.
//!
//! [`SimOperator`] abstracts "something `spmv`-shaped under the Sim" so the
//! Krylov loop and the multigrid cycle can hold either representation.

use crate::layout::Layout;
use crate::sim::Sim;
use crate::vec::DistVec;
use crate::DistMatrix;
use pmg_sparse::MatrixFreeKernel;
use rayon::prelude::*;
use std::sync::Arc;

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

    /// `y = A x`, charging one ghost exchange plus one compute superstep.
    /// Each rank gathers its ghosts in plan order, then runs both kernel
    /// phases.
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
            let (elems_bnd, elems_int): (Vec<u32>, Vec<u32>) = listed
                .iter()
                .partition(|&&e| ends(e as usize).iter().any(|&v| code[v as usize] < -1));
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
    fn plan_shared_with_assembled_operator() {
        // A matrix-free operator whose ghost sets equal the assembled
        // operator's hits the layout's plan cache instead of rebuilding.
        let n = 15;
        let scales: Vec<f64> = (0..n - 1).map(|e| 1.0 + 0.2 * e as f64).collect();
        let a = ChainKernel::global_matrix(n, false, &scales);
        let l = Layout::block(n, 3);
        let da = DistMatrix::from_global(&a, l.clone(), l.clone());
        let mf = chain_matfree(n, false, &l);
        assert!(Arc::ptr_eq(da.halo_plan(), &mf.plan));
        let ghosts: Vec<usize> = mf.kernels.iter().map(|k| k.ghosts().len()).collect();
        assert_eq!(da.ghost_counts(), ghosts);
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
