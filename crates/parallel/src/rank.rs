//! Per-rank operator views for SPMD execution over a real [`Transport`].
//!
//! A [`RankOp`] borrows one rank's share of a [`DistMatrix`](crate::DistMatrix)
//! — its diag/off blocks and its half of the persistent
//! [`HaloPlan`](crate::halo::HaloPlan) — and performs the product with real
//! messages: pack owned values per the plan's send list, exchange, unpack
//! into the ghost buffer, then run *exactly* the same per-rank kernel as the
//! orchestrated `DistMatrix::spmv` (including the BSR3 branch), so results
//! are bitwise identical to the simulated path.

use crate::halo::RankHalo;
use pmg_comm::{CommError, HaloExchange, Transport};
use pmg_sparse::{Bsr3Matrix, CsrMatrix};
use std::time::Instant;

/// One rank's borrowed view of a distributed operator, bound to a message
/// tag (each operator in a lockstep SPMD program uses a distinct tag).
pub struct RankOp<'a> {
    pub(crate) diag: &'a CsrMatrix,
    pub(crate) off: &'a CsrMatrix,
    pub(crate) diag_bsr: Option<&'a Bsr3Matrix>,
    pub(crate) off_bsr: Option<&'a Bsr3Matrix>,
    pub(crate) ghost_pad: &'a [u32],
    pub(crate) nghosts: usize,
    pub(crate) interior: &'a [u32],
    pub(crate) boundary: &'a [u32],
    pub(crate) interior_b: &'a [u32],
    pub(crate) boundary_b: &'a [u32],
    pub(crate) halo: &'a RankHalo,
    pub(crate) tag: u32,
}

/// What one overlapped product hid: the interior-compute window that ran
/// while the halo messages were in flight, and the row-split sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlapInfo {
    /// Wall-clock seconds of the interior-compute window between
    /// [`HaloExchange::start`] and [`HaloExchange::finish`] — latency the
    /// overlap can hide (the blocked remainder shows up in the transport's
    /// wait clock, not here).
    pub hidden_s: f64,
    /// Scalar rows computed inside the window (no ghost references).
    pub interior_rows: u64,
    /// Scalar rows computed after the ghosts arrived.
    pub boundary_rows: u64,
}

impl<'a> RankOp<'a> {
    /// Rows of this rank's share (length of the local output vector).
    pub fn local_rows(&self) -> usize {
        self.diag.nrows()
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

    /// The off-diagonal (ghost-column) product accumulated into `y_local`,
    /// shared verbatim between the blocking and overlapped paths and the
    /// simulated `DistMatrix::spmv`, which the bitwise parity contract rests
    /// on (the full-vector `+=` is kept even for rows whose `tmp` entry is
    /// zero, so `-0.0 + 0.0 = +0.0` rounding is reproduced exactly).
    pub(crate) fn off_accumulate(&self, ghost_vals: &[f64], y_local: &mut [f64]) {
        if self.off.nnz() > 0 {
            let mut tmp = vec![0.0; self.off.nrows()];
            match self.off_bsr {
                Some(ob) => {
                    let mut padded = vec![0.0; ob.ncols()];
                    for (l, &p) in self.ghost_pad.iter().enumerate() {
                        padded[p as usize] = ghost_vals[l];
                    }
                    ob.spmv(&padded, &mut tmp);
                }
                None => self.off.spmv(ghost_vals, &mut tmp),
            }
            for (a, b) in y_local.iter_mut().zip(&tmp) {
                *a += b;
            }
        }
    }

    /// `y_local = A_rank · x` with a real halo exchange: sends this rank's
    /// owned values per the plan, receives its ghosts, computes locally.
    ///
    /// All ranks of the machine must call this in lockstep with their own
    /// views of the same operator.
    pub fn spmv<T: Transport>(
        &self,
        t: &mut T,
        x_local: &[f64],
        y_local: &mut [f64],
    ) -> Result<(), CommError> {
        assert_eq!(x_local.len(), self.diag.ncols(), "x_local length");
        assert_eq!(y_local.len(), self.diag.nrows(), "y_local length");

        // Sends first (buffered), then blocking receives: the classic
        // deadlock-free exchange order for eager transports.
        let hx = self.start_exchange(t, x_local)?;
        let mut ghost_vals = vec![0.0; self.nghosts];
        hx.finish(t, &mut ghost_vals)?;

        // Identical kernel (and branch structure) to `DistMatrix::spmv`.
        match self.diag_bsr {
            Some(db) => db.spmv(x_local, y_local),
            None => self.diag.spmv(x_local, y_local),
        }
        self.off_accumulate(&ghost_vals, y_local);
        Ok(())
    }

    /// `y_local = A_rank · x` with communication/computation overlap:
    /// sends post, the interior rows (no ghost references) are computed
    /// while the halo messages are in flight, then receives drain and the
    /// boundary rows and ghost-column product finish the job.
    ///
    /// Bitwise identical to [`spmv`](RankOp::spmv): interior and boundary
    /// row classes partition the local rows, each row's accumulation runs
    /// the unchanged per-row kernel, and the ghost-column accumulate is the
    /// same full-vector pass — only the *schedule* differs. Lockstep like
    /// [`spmv`](RankOp::spmv); blocking and overlapped callers may not be
    /// mixed across ranks of one product.
    pub fn spmv_overlapped<T: Transport>(
        &self,
        t: &mut T,
        x_local: &[f64],
        y_local: &mut [f64],
    ) -> Result<OverlapInfo, CommError> {
        assert_eq!(x_local.len(), self.diag.ncols(), "x_local length");
        assert_eq!(y_local.len(), self.diag.nrows(), "y_local length");

        let hx = self.start_exchange(t, x_local)?;
        let window = Instant::now();
        match self.diag_bsr {
            Some(db) => db.spmv_block_rows(x_local, y_local, self.interior_b),
            None => self.diag.spmv_rows(x_local, y_local, self.interior),
        }
        let hidden_s = window.elapsed().as_secs_f64();
        let mut ghost_vals = vec![0.0; self.nghosts];
        hx.finish(t, &mut ghost_vals)?;
        match self.diag_bsr {
            Some(db) => db.spmv_block_rows(x_local, y_local, self.boundary_b),
            None => self.diag.spmv_rows(x_local, y_local, self.boundary),
        }
        self.off_accumulate(&ghost_vals, y_local);
        let (interior_rows, boundary_rows) = match self.diag_bsr {
            Some(_) => (
                3 * self.interior_b.len() as u64,
                3 * self.boundary_b.len() as u64,
            ),
            None => (self.interior.len() as u64, self.boundary.len() as u64),
        };
        Ok(OverlapInfo {
            hidden_s,
            interior_rows,
            boundary_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::layout::Layout;
    use crate::matrix::DistMatrix;
    use crate::sim::{MachineModel, Sim};
    use crate::vec::DistVec;
    use pmg_comm::{LocalTransport, Transport};
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
    fn transport_spmv_bitwise_matches_sim() {
        let n = 23;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        for p in [1, 2, 3, 5] {
            let l = Layout::block(n, p);
            let da = DistMatrix::from_global(&a, l.clone(), l.clone());
            let dx = DistVec::from_global(l.clone(), &x);
            let mut dy = DistVec::zeros(l.clone());
            let mut sim = Sim::new(p, MachineModel::default());
            da.spmv(&mut sim, &dx, &mut dy);
            let expect = dy.to_global();

            let da = &da;
            let l2 = &l;
            let x2 = &x;
            let parts = LocalTransport::run_ranks(p, move |mut t| {
                let r = t.rank();
                let op = da.rank_op(r, 7);
                let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
                let mut yl = vec![0.0; op.local_rows()];
                op.spmv(&mut t, &xl, &mut yl).unwrap();
                yl
            });
            let mut got = vec![0.0; n];
            for (r, part) in parts.iter().enumerate() {
                for (&g, &v) in l.owned(r).iter().zip(part) {
                    got[g as usize] = v;
                }
            }
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p}");
            }
        }
    }

    #[test]
    fn overlapped_spmv_bitwise_matches_blocking() {
        let n = 29;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        for p in [1, 2, 3, 5] {
            let l = Layout::block(n, p);
            let da = DistMatrix::from_global(&a, l.clone(), l.clone());
            let da = &da;
            let l2 = &l;
            let x2 = &x;
            let parts = LocalTransport::run_ranks(p, move |mut t| {
                let r = t.rank();
                let op = da.rank_op(r, 7);
                let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
                let mut y1 = vec![0.0; op.local_rows()];
                op.spmv(&mut t, &xl, &mut y1).unwrap();
                let mut y2 = vec![0.0; op.local_rows()];
                let info = op.spmv_overlapped(&mut t, &xl, &mut y2).unwrap();
                (y1, y2, info)
            });
            for (r, (y1, y2, info)) in parts.iter().enumerate() {
                assert_eq!(
                    info.interior_rows + info.boundary_rows,
                    y1.len() as u64,
                    "p={p} r={r} row split must partition the local rows"
                );
                for (a, b) in y1.iter().zip(y2) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p} r={r}");
                }
            }
        }
    }

    /// Vertex-block tridiagonal operator with dense 3x3 blocks (the BSR3
    /// promotion path).
    fn block_laplacian(nb: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(3 * nb, 3 * nb);
        for v in 0..nb {
            for i in 0..3 {
                for j in 0..3 {
                    b.push(3 * v + i, 3 * v + j, if i == j { 4.0 } else { -0.5 });
                    if v > 0 {
                        b.push(3 * v + i, 3 * (v - 1) + j, -0.25);
                    }
                    if v + 1 < nb {
                        b.push(3 * v + i, 3 * (v + 1) + j, -0.25);
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn overlapped_spmv_bitwise_matches_blocking_bsr3() {
        let nb = 10;
        let a = block_laplacian(nb);
        let p = 3;
        // Contiguous vertex blocks so ranks have both interior and
        // boundary block rows.
        let mut owner = vec![0u32; 3 * nb];
        for v in 0..nb {
            for c in 0..3 {
                owner[3 * v + c] = ((v * p / nb) as u32).min(p as u32 - 1);
            }
        }
        let l = Layout::from_part(owner, p);
        let da = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        assert!(da.bsr3_routed());
        let x: Vec<f64> = (0..3 * nb).map(|i| (i as f64 * 0.7).sin()).collect();
        let da = &da;
        let l2 = &l;
        let x2 = &x;
        let parts = LocalTransport::run_ranks(p, move |mut t| {
            let r = t.rank();
            let op = da.rank_op(r, 5);
            let xl: Vec<f64> = l2.owned(r).iter().map(|&g| x2[g as usize]).collect();
            let mut y1 = vec![0.0; op.local_rows()];
            op.spmv(&mut t, &xl, &mut y1).unwrap();
            let mut y2 = vec![0.0; op.local_rows()];
            let info = op.spmv_overlapped(&mut t, &xl, &mut y2).unwrap();
            (y1, y2, info)
        });
        for (r, (y1, y2, info)) in parts.iter().enumerate() {
            assert_eq!(info.interior_rows + info.boundary_rows, y1.len() as u64);
            for (a, b) in y1.iter().zip(y2) {
                assert_eq!(a.to_bits(), b.to_bits(), "r={r}");
            }
        }
    }
}
