//! Coarsest-grid direct solver.
//!
//! "else x_i ← A_i⁻¹ r_i — solve coarsest problem directly" (Figure 1 of the
//! paper). The coarsest operator is gathered to a root rank, factored
//! densely once per matrix setup, and each application gathers the
//! right-hand side, solves at the root, and scatters the result. Its size
//! stays constant as the problem scales, so this is not a scalability
//! bottleneck (§5).

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Sim};
use pmg_sparse::dense::{Cholesky, Lu};

enum Factor {
    Chol(Cholesky),
    Lu(Lu),
}

/// Gather-to-root dense direct solver.
pub struct CoarseDirect {
    factor: Factor,
    n: usize,
    gather_traffic: Vec<(u64, u64)>,
}

/// Factor a global coarse operator: Cholesky when symmetric (it only reads
/// the lower triangle, so it is guarded by a symmetry check), pivoted LU
/// otherwise. Shared by [`CoarseDirect::new`] and [`CoarseDirect::from_csr`]
/// so the orchestrated and distributed setups factor identically.
fn factor_csr(global_csr: &pmg_sparse::CsrMatrix) -> (Factor, usize) {
    let symmetric = global_csr.is_symmetric(1e-12);
    let global = global_csr.to_dense();
    let n = global.nrows();
    let factor = match Some(())
        .filter(|_| symmetric)
        .and_then(|_| Cholesky::factor(&global))
    {
        Some(c) => Factor::Chol(c),
        None => Factor::Lu(Lu::factor(&global).expect("coarse operator is singular")),
    };
    (factor, n)
}

impl CoarseDirect {
    /// Factor a coarse operator already available as a global CSR — the
    /// SPMD distributed setup's root-rank constructor (only the root ever
    /// calls [`CoarseDirect::solve_global`] in the SPMD coarse apply). The
    /// factorization is identical to [`CoarseDirect::new`] on a
    /// distribution of the same matrix.
    pub fn from_csr(a: &pmg_sparse::CsrMatrix) -> CoarseDirect {
        let (factor, n) = factor_csr(a);
        CoarseDirect {
            factor,
            n,
            gather_traffic: vec![(0, 0)],
        }
    }

    /// Factor the (global) matrix of `a`. Panics if the matrix is singular.
    pub fn new(a: &DistMatrix) -> CoarseDirect {
        let global_csr = a.to_global();
        let (factor, n) = factor_csr(&global_csr);
        let layout = a.row_layout();
        let nranks = layout.num_ranks();
        // Gather: every non-root rank sends its local values to rank 0.
        let gather_traffic = (0..nranks)
            .map(|r| {
                if r == 0 {
                    (0, 0)
                } else {
                    (1u64, 8 * layout.local_len(r) as u64)
                }
            })
            .collect();
        CoarseDirect {
            factor,
            n,
            gather_traffic,
        }
    }

    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve against the factored coarse operator for an already-gathered
    /// global right-hand side (the root rank's step of an SPMD apply).
    pub fn solve_global(&self, r: &[f64]) -> Vec<f64> {
        let mut x = r.to_vec();
        self.solve_global_in_place(&mut x);
        x
    }

    /// [`solve_global`](Self::solve_global) in the gathered buffer itself.
    pub fn solve_global_in_place(&self, r: &mut [f64]) {
        match &self.factor {
            Factor::Chol(c) => c.solve_in_place(r),
            Factor::Lu(l) => l.solve_in_place(r),
        }
    }
}

impl Precond for CoarseDirect {
    fn apply(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        // Gather r to root, solve, scatter (charged as two exchanges plus a
        // root-only compute).
        sim.exchange(&self.gather_traffic);
        let mut global = r.to_global();
        self.solve_global_in_place(&mut global);
        sim.compute_each(|rank| {
            if rank == 0 {
                2 * (self.n * self.n) as u64
            } else {
                0
            }
        });
        sim.exchange(&self.gather_traffic); // scatter (mirror traffic)
        z.scatter_from_global(&global);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_parallel::{Layout, MachineModel};
    use pmg_sparse::CooBuilder;

    #[test]
    fn direct_solve_is_exact() {
        let n = 15;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 3.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
                b.push(i - 1, i, -1.0);
            }
        }
        let a = b.build();
        for p in [1, 4] {
            let l = Layout::block(n, p);
            let mut sim = Sim::new(p, MachineModel::default());
            let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
            let solver = CoarseDirect::new(&da);
            assert_eq!(solver.dim(), n);
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let dr = DistVec::from_global(l.clone(), &rhs);
            let mut dz = DistVec::zeros(l);
            solver.apply(&mut sim, &dr, &mut dz);
            let mut ax = vec![0.0; n];
            a.spmv(&dz.to_global(), &mut ax);
            for (u, v) in ax.iter().zip(&rhs) {
                assert!((u - v).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn unsymmetric_falls_back_to_lu() {
        let n = 6;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i + 1 < n {
                b.push(i, i + 1, -1.5); // unsymmetric coupling
            }
        }
        let a = b.build();
        let l = Layout::block(n, 2);
        let mut sim = Sim::new(2, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let solver = CoarseDirect::new(&da);
        let rhs = vec![1.0; n];
        let dr = DistVec::from_global(l.clone(), &rhs);
        let mut dz = DistVec::zeros(l);
        solver.apply(&mut sim, &dr, &mut dz);
        let mut ax = vec![0.0; n];
        a.spmv(&dz.to_global(), &mut ax);
        for (u, v) in ax.iter().zip(&rhs) {
            assert!((u - v).abs() < 1e-11);
        }
    }

    #[test]
    fn comm_is_charged() {
        let n = 8;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 1.0);
        }
        let a = b.build();
        let l = Layout::block(n, 4);
        let mut sim = Sim::new(4, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let solver = CoarseDirect::new(&da);
        let dr = DistVec::from_global(l.clone(), &vec![1.0; n]);
        let mut dz = DistVec::zeros(l);
        solver.apply(&mut sim, &dr, &mut dz);
        let phases = sim.finish();
        let p = &phases["default"];
        assert!(p.ranks[1].msgs >= 2); // gather + scatter
        assert_eq!(p.ranks[1].flops, 0); // root does the solve
        assert!(p.ranks[0].flops > 0);
    }
}
