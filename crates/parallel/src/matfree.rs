//! Distributed matrix-free operator application.
//!
//! [`DistMatFree`] puts one whole-domain [`Operator`] — an element loop
//! such as `pmg-fem`'s `MatFreeOperator` — behind the row partition of the
//! assembled fine [`DistMatrix`] it stands in for. A product gathers the
//! ranks' owned parts into one global vector, applies the operator and
//! scatters the result back, so its bits do not depend on the layout. The
//! machine model is charged what a rank-local element loop would cost: the
//! assembled operator's ghost exchange (a rank's elements read exactly the
//! ghost dofs its assembled rows do) and the operator's flops, split over
//! the ranks by owned rows.
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
use pmg_sparse::Operator;
use std::sync::{Arc, Mutex, PoisonError};

/// A distributed operator the orchestrated (Sim) solve can apply: either an
/// assembled [`DistMatrix`] or a matrix-free [`DistMatFree`]. Square
/// operators only — row and column layouts coincide.
pub trait SimOperator: Send + Sync {
    /// The row (= column) partition of the operator.
    fn row_layout(&self) -> &Arc<Layout>;
    /// `y = A x`, charging one ghost exchange plus one compute superstep.
    fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec);
}

impl SimOperator for DistMatrix {
    fn row_layout(&self) -> &Arc<Layout> {
        DistMatrix::row_layout(self)
    }

    fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        DistMatrix::spmv(self, sim, x, y)
    }
}

/// A whole-domain matrix-free operator on the row partition of the
/// assembled operator it replaces.
pub struct DistMatFree {
    layout: Arc<Layout>,
    op: Box<dyn Operator>,
    spmv_flops: Vec<u64>,
    spmv_traffic: Vec<(u64, u64)>,
    /// The global input and output of a product, reused by the next. Each
    /// product overwrites both, so a poisoned lock's buffers are usable.
    global: Mutex<(Vec<f64>, Vec<f64>)>,
}

impl DistMatFree {
    /// Put `op` behind the partition of `fine`, the square assembled
    /// operator it replaces: products run on `fine`'s row layout and are
    /// charged `fine`'s ghost exchange.
    pub fn new(op: Box<dyn Operator>, fine: &DistMatrix) -> DistMatFree {
        let layout = fine.row_layout().clone();
        assert!(Arc::ptr_eq(&layout, fine.col_layout()), "square operator");
        let n = layout.num_global();
        assert_eq!((op.nrows(), op.ncols()), (n, n), "operator shape");
        let flops = op.flops_per_apply();
        let spmv_flops = (0..layout.num_ranks())
            .map(|r| flops * layout.local_len(r) as u64 / n.max(1) as u64)
            .collect();
        DistMatFree {
            layout,
            op,
            spmv_flops,
            spmv_traffic: fine.spmv_traffic().to_vec(),
            global: Mutex::new((vec![0.0; n], vec![0.0; n])),
        }
    }

    /// The row (= column) partition.
    pub fn row_layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// `y = A x`, charging one ghost exchange plus one compute superstep.
    pub fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        assert!(Arc::ptr_eq(x.layout(), &self.layout), "x layout mismatch");
        assert!(Arc::ptr_eq(y.layout(), &self.layout), "y layout mismatch");
        sim.exchange(&self.spmv_traffic);
        pmg_telemetry::counter_add("spmv/matfree_routed", 1);
        let mut global = self.global.lock().unwrap_or_else(PoisonError::into_inner);
        let (xg, yg) = &mut *global;
        x.gather_into(xg);
        self.op.apply(xg, yg);
        y.scatter_from_global(yg);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::MachineModel;
    use pmg_sparse::{CooBuilder, CsrMatrix};

    /// A ring of `n` dofs with a per-edge stencil `[[2, -1], [-1, 2]]`.
    fn ring(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            let (j, s) = ((i + 1) % n, 1.0 + 0.1 * i as f64);
            b.push(i, i, 2.0 * s);
            b.push(j, j, 2.0 * s);
            b.push(i, j, -s);
            b.push(j, i, -s);
        }
        b.build()
    }

    #[test]
    fn spmv_charges_the_assembled_exchange_and_splits_the_flops() {
        let n = 15;
        let a = ring(n);
        let l = Layout::block(n, 3);
        let da = DistMatrix::from_global(&a, l.clone(), l.clone());
        let mf = DistMatFree::new(Box::new(a.clone()), &da);
        let xg: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let x = DistVec::from_global(l.clone(), &xg);
        let mut y = DistVec::zeros(l);
        let charged = |op: &dyn SimOperator| {
            let mut sim = Sim::new(3, MachineModel::default());
            op.spmv(&mut sim, &x, &mut y.clone());
            let phase = &sim.finish()["default"];
            phase
                .ranks
                .iter()
                .map(|r| (r.msgs, r.bytes, r.flops))
                .collect::<Vec<_>>()
        };
        // Same messages and bytes as the assembled product, and the same
        // flops: 2 nnz over five rows per rank.
        assert_eq!(charged(&mf), charged(&da));
        let mut sim = Sim::new(3, MachineModel::default());
        mf.spmv(&mut sim, &x, &mut y);
        let mut want = vec![0.0; n];
        a.apply(&xg, &mut want);
        assert_eq!(y.to_global(), want);
    }
}
