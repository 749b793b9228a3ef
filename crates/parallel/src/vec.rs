//! Rank-partitioned vectors and their BLAS-1 operations.

use crate::layout::Layout;
use crate::sim::Sim;
use rayon::prelude::*;
use std::sync::Arc;

/// A vector distributed over the ranks of a [`Layout`]: rank `r` stores the
/// entries of the global indices in `layout.owned(r)`, in that order.
#[derive(Clone, Debug)]
pub struct DistVec {
    layout: Arc<Layout>,
    parts: Vec<Vec<f64>>,
}

impl DistVec {
    pub fn zeros(layout: Arc<Layout>) -> DistVec {
        let parts = (0..layout.num_ranks())
            .map(|r| vec![0.0; layout.local_len(r)])
            .collect();
        DistVec { layout, parts }
    }

    /// Scatter a global vector.
    pub fn from_global(layout: Arc<Layout>, global: &[f64]) -> DistVec {
        let mut v = DistVec::zeros(layout);
        v.scatter_from_global(global);
        v
    }

    /// Scatter a global vector into the existing parts.
    pub fn scatter_from_global(&mut self, global: &[f64]) {
        assert_eq!(global.len(), self.layout.num_global());
        for (r, part) in self.parts.iter_mut().enumerate() {
            for (v, &g) in part.iter_mut().zip(self.layout.owned(r)) {
                *v = global[g as usize];
            }
        }
    }

    /// Gather to a global vector.
    pub fn to_global(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.layout.num_global()];
        self.gather_into(&mut out);
        out
    }

    /// Gather into the existing global vector `out`.
    pub fn gather_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.layout.num_global());
        for (r, part) in self.parts.iter().enumerate() {
            for (&g, &v) in self.layout.owned(r).iter().zip(part) {
                out[g as usize] = v;
            }
        }
    }

    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    pub fn part(&self, r: usize) -> &[f64] {
        &self.parts[r]
    }

    pub fn part_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.parts[r]
    }

    /// Every rank's part at once, for rank-parallel kernels that write
    /// their own share (item `r` is [`part_mut`](Self::part_mut)`(r)`).
    pub fn par_parts_mut(&mut self) -> impl ParallelIterator<Item = &mut [f64]> {
        self.parts.par_iter_mut().map(Vec::as_mut_slice)
    }

    pub fn num_global(&self) -> usize {
        self.layout.num_global()
    }

    fn same_layout(&self, o: &DistVec) {
        assert!(
            Arc::ptr_eq(&self.layout, &o.layout),
            "DistVec layout mismatch"
        );
    }

    /// Charge `per_entry` flops per local entry on every rank.
    fn charge(&self, sim: &mut Sim, per_entry: u64) {
        sim.compute_each(|r| per_entry * self.parts[r].len() as u64);
    }

    /// `self += alpha * x` (embarrassingly parallel).
    pub fn axpy(&mut self, sim: &mut Sim, alpha: f64, x: &DistVec) {
        self.same_layout(x);
        for (yp, xp) in self.parts.iter_mut().zip(&x.parts) {
            pmg_sparse::vector::axpy(alpha, xp, yp);
        }
        self.charge(sim, 2);
    }

    /// `self = x + beta * self`.
    pub fn aypx(&mut self, sim: &mut Sim, beta: f64, x: &DistVec) {
        self.same_layout(x);
        for (yp, xp) in self.parts.iter_mut().zip(&x.parts) {
            pmg_sparse::vector::aypx(beta, xp, yp);
        }
        self.charge(sim, 2);
    }

    /// Inner product: per-rank partials then an allreduce.
    ///
    /// Partials combine in the fixed binomial-tree order of
    /// [`pmg_comm::tree_combine`], matching the deterministic allreduce the
    /// real transports run — so the result is bitwise identical whether the
    /// ranks are simulated, threads, or processes.
    pub fn dot(&self, sim: &mut Sim, x: &DistVec) -> f64 {
        self.same_layout(x);
        let partials: Vec<f64> = self
            .parts
            .iter()
            .zip(&x.parts)
            .map(|(yp, xp)| pmg_sparse::vector::dot(yp, xp))
            .collect();
        self.charge(sim, 2);
        sim.allreduce(1);
        pmg_comm::tree_combine(&partials)
    }

    pub fn norm2(&self, sim: &mut Sim) -> f64 {
        self.dot(sim, &self.clone()).sqrt()
    }

    /// `self *= s`.
    pub fn scale(&mut self, sim: &mut Sim, s: f64) {
        for p in self.parts.iter_mut() {
            pmg_sparse::vector::scale(p, s);
        }
        self.charge(sim, 1);
    }

    /// Copy values from `x`.
    pub fn copy_from(&mut self, x: &DistVec) {
        self.same_layout(x);
        for (yp, xp) in self.parts.iter_mut().zip(&x.parts) {
            yp.copy_from_slice(xp);
        }
    }

    /// Set to zero.
    pub fn set_zero(&mut self) {
        for p in self.parts.iter_mut() {
            p.iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::MachineModel;

    fn setup(n: usize, p: usize) -> (Arc<Layout>, Sim) {
        (Layout::block(n, p), Sim::new(p, MachineModel::default()))
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (l, _) = setup(7, 3);
        let g: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let d = DistVec::from_global(l, &g);
        assert_eq!(d.to_global(), g);
    }

    #[test]
    fn distributed_matches_serial_blas() {
        let (l, mut sim) = setup(10, 4);
        let xg: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let yg: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
        let x = DistVec::from_global(l.clone(), &xg);
        let mut y = DistVec::from_global(l.clone(), &yg);
        y.axpy(&mut sim, 2.0, &x);
        let expect: Vec<f64> = xg.iter().zip(&yg).map(|(a, b)| b + 2.0 * a).collect();
        assert_eq!(y.to_global(), expect);
        let d = y.dot(&mut sim, &x);
        let expect_dot: f64 = expect.iter().zip(&xg).map(|(a, b)| a * b).sum();
        assert!((d - expect_dot).abs() < 1e-9);
        y.scale(&mut sim, 0.5);
        let n = y.norm2(&mut sim);
        let expect_norm = expect.iter().map(|v| 0.25 * v * v).sum::<f64>().sqrt();
        assert!((n - expect_norm).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate() {
        let (l, mut sim) = setup(8, 2);
        let x = DistVec::zeros(l.clone());
        let mut y = DistVec::zeros(l);
        y.axpy(&mut sim, 1.0, &x);
        let _ = y.dot(&mut sim, &x);
        let phases = sim.finish();
        let p = &phases["default"];
        // 2 flops/entry axpy + 2 flops/entry dot, 4 entries per rank.
        assert_eq!(p.ranks[0].flops, 16);
        assert!(p.ranks[0].msgs > 0); // allreduce
    }

    #[test]
    #[should_panic]
    fn layout_mismatch_panics() {
        let (l1, mut sim) = setup(4, 2);
        let l2 = Layout::block(4, 2);
        let x = DistVec::zeros(l1);
        let mut y = DistVec::zeros(l2);
        y.axpy(&mut sim, 1.0, &x);
    }
}
