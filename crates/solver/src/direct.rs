//! Coarsest-grid direct solver.
//!
//! "else x_i ← A_i⁻¹ r_i — solve coarsest problem directly" (Figure 1 of the
//! paper). The coarsest operator is gathered to a root rank, factored
//! once per matrix setup (inside the envelope of its nonzeros, see
//! `Cholesky::factor`; an operator update refactors a Cholesky factor in
//! its own storage, [`CoarseDirect::refactor`]), and each application
//! gathers the right-hand side, solves at the root, and scatters the
//! result. Its size stays constant as the problem scales, so this is not a
//! scalability bottleneck (§5).

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Sim};
use pmg_sparse::dense::{Cholesky, Lu};
use pmg_sparse::DenseMatrix;

enum Factor {
    Chol(Cholesky),
    Lu(Lu),
}

/// Gather-to-root dense direct solver.
pub struct CoarseDirect {
    factor: Factor,
    n: usize,
    /// The operator [`refactor`](CoarseDirect::refactor) gathers into, kept
    /// beside a Cholesky factor from one update to the next. Empty until
    /// the first update, so a build that is never updated holds no copy,
    /// and beside an LU factor, which works in the gathered matrix itself.
    dense: DenseMatrix,
    gather_traffic: Vec<(u64, u64)>,
}

/// Factor a global coarse operator: Cholesky when symmetric (it only reads
/// the lower triangle, so it is guarded by a symmetry check), pivoted LU
/// otherwise, in the gathered matrix's own storage. Returns the factor and
/// the gathered matrix when the factor does not work in it (empty when it
/// does). Shared by [`CoarseDirect::new`], [`CoarseDirect::from_csr`] and
/// [`CoarseDirect::refactor`], so every set-up factors identically.
fn factor_dense(global: DenseMatrix) -> (Factor, DenseMatrix) {
    if global.is_symmetric(1e-12) {
        if let Some(c) = Cholesky::factor(&global) {
            return (Factor::Chol(c), global);
        }
    }
    let lu = Lu::factor_owned(global).expect("coarse operator is singular");
    (Factor::Lu(lu), DenseMatrix::zeros(0, 0))
}

impl CoarseDirect {
    /// Factor a coarse operator already available as a global CSR — the
    /// SPMD distributed setup's root-rank constructor (only the root ever
    /// calls [`CoarseDirect::solve_global`] in the SPMD coarse apply). The
    /// factorization is identical to [`CoarseDirect::new`] on a
    /// distribution of the same matrix.
    pub fn from_csr(a: &pmg_sparse::CsrMatrix) -> CoarseDirect {
        let (factor, _) = factor_dense(a.to_dense());
        CoarseDirect {
            factor,
            n: a.nrows(),
            dense: DenseMatrix::zeros(0, 0),
            gather_traffic: vec![(0, 0)],
        }
    }

    /// Factor the (global) matrix of `a`. Panics if the matrix is singular.
    /// The gathered matrix is dropped (or is the LU factor's storage).
    pub fn new(a: &DistMatrix) -> CoarseDirect {
        let n = a.num_global_rows();
        let mut dense = DenseMatrix::zeros(n, n);
        a.gather_dense(&mut dense);
        let (factor, _) = factor_dense(dense);
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
            dense: DenseMatrix::zeros(0, 0),
            gather_traffic,
        }
    }

    /// Factor the new values of `a` — the operator this solver was built
    /// from, after an update — as [`new`](Self::new) would, bit for bit.
    /// The operator is gathered into the kept matrix (allocated on the
    /// first update, or after an LU took it), and a Cholesky factor
    /// refactors in its own storage while the operator stays symmetric and
    /// its envelope holds (`Cholesky::refactor`). Anything else, LU
    /// included, is factored afresh from the gathered matrix, as `new`
    /// does.
    pub fn refactor(&mut self, a: &DistMatrix) {
        let n = a.num_global_rows();
        if self.dense.nrows() != n {
            self.dense = DenseMatrix::zeros(n, n);
        }
        a.gather_dense(&mut self.dense);
        let in_place = match &mut self.factor {
            Factor::Chol(c) => self.dense.is_symmetric(1e-12) && c.refactor(&self.dense),
            Factor::Lu(_) => false,
        };
        if !in_place {
            let gathered = std::mem::replace(&mut self.dense, DenseMatrix::zeros(0, 0));
            (self.factor, self.dense) = factor_dense(gathered);
            self.n = n;
        }
    }

    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resident bytes of the dense factor and of the kept dense operator.
    pub fn memory_bytes(&self) -> u64 {
        let factor = match &self.factor {
            Factor::Chol(c) => c.memory_bytes(),
            Factor::Lu(l) => l.memory_bytes(),
        };
        factor + 8 * (self.dense.nrows() * self.dense.ncols()) as u64
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
    use pmg_parallel::{DistMatrix, Layout, MachineModel};
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

    /// An update refactors to the bits of a fresh factor of the new
    /// operator: a Cholesky factor in place while the operator is
    /// symmetric on the old envelope, and afresh otherwise — into LU, LU
    /// again, back to Cholesky, and a new envelope when a row's first
    /// entry drops out. Beside a fresh factor it holds the gathered
    /// operator it kept for the next update, and only beside a Cholesky
    /// factor.
    #[test]
    fn refactor_is_bitwise_a_fresh_factor() {
        let n = 9;
        let op = |scale: f64, skew: f64, far: f64| {
            let mut b = CooBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 4.0 * scale + i as f64 * 0.25);
                if i > 0 {
                    b.push(i, i - 1, -scale);
                    b.push(i - 1, i, -scale + skew);
                }
            }
            b.push(n - 1, 2, far);
            b.push(2, n - 1, far);
            b.build()
        };
        for p in [1, 3] {
            let l = Layout::block(n, p);
            let dist = |a: &pmg_sparse::CsrMatrix| DistMatrix::from_global(a, l.clone(), l.clone());
            let mut solver = CoarseDirect::new(&dist(&op(1.0, 0.0, -0.5)));
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            for (a, lu) in [
                (op(1.5, 0.0, -0.25), false),
                (op(1.5, 0.5, -0.25), true),
                (op(1.75, 0.25, -0.25), true),
                (op(2.0, 0.0, -0.75), false),
                (op(2.0, 0.0, 0.0), false),
            ] {
                let da = dist(&a);
                solver.refactor(&da);
                let fresh = CoarseDirect::new(&da);
                assert_eq!(matches!(solver.factor, Factor::Lu(_)), lu);
                let kept = if lu { 0 } else { 8 * n * n } as u64;
                assert_eq!(solver.memory_bytes(), fresh.memory_bytes() + kept);
                let (x, want) = (solver.solve_global(&rhs), fresh.solve_global(&rhs));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&want), "{p} ranks, LU {lu}");
            }
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
