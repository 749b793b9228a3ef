//! Coarsest-grid direct solver.
//!
//! "else x_i ← A_i⁻¹ r_i — solve coarsest problem directly" (Figure 1 of the
//! paper). The coarsest operator is gathered to a root rank, factored
//! once per matrix setup (inside the envelope of its nonzeros, see
//! `Cholesky::factor`; an operator update refactors the factor in its own
//! storage, [`CoarseDirect::refactor`]), and each application gathers the
//! right-hand side, solves at the root, and scatters the result. Its size
//! stays constant as the problem scales, so this is not a scalability
//! bottleneck (§5).
//!
//! A Galerkin product of an SPD operator is SPD, so Cholesky is the only
//! factor. An operator that is not — not symmetric to `1e-12`, not
//! numerically positive definite, or holding a NaN or `±∞` — has none:
//! every solve writes NaN, which PCG reports as a breakdown on every
//! runtime alike.

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Sim};
use pmg_sparse::dense::Cholesky;
use pmg_sparse::DenseMatrix;

/// Gather-to-root dense direct solver.
pub struct CoarseDirect {
    /// `None` when the operator failed to factor.
    factor: Option<Cholesky>,
    n: usize,
    /// The operator [`refactor`](CoarseDirect::refactor) gathers into, kept
    /// from one update to the next. Empty until the first update, so a
    /// build that is never updated holds no copy.
    dense: DenseMatrix,
    gather_traffic: Vec<(u64, u64)>,
}

/// Factor a global coarse operator. Cholesky reads only the lower
/// triangle, so a symmetry check guards it: an unsymmetric operator has no
/// factor, like one that is not SPD. Shared by [`CoarseDirect::new`],
/// [`CoarseDirect::from_csr`] and [`CoarseDirect::refactor`], so every
/// set-up factors identically.
fn factor_dense(global: &DenseMatrix) -> Option<Cholesky> {
    global
        .is_symmetric(1e-12)
        .then(|| Cholesky::factor(global))?
}

impl CoarseDirect {
    /// Factor a coarse operator already available as a global CSR — the
    /// SPMD distributed setup's root-rank constructor (only the root ever
    /// calls [`CoarseDirect::solve_global`] in the SPMD coarse apply). The
    /// factorization is identical to [`CoarseDirect::new`] on a
    /// distribution of the same matrix.
    pub fn from_csr(a: &pmg_sparse::CsrMatrix) -> CoarseDirect {
        let factor = factor_dense(&a.to_dense());
        CoarseDirect {
            factor,
            n: a.nrows(),
            dense: DenseMatrix::zeros(0, 0),
            gather_traffic: vec![(0, 0)],
        }
    }

    /// Factor the (global) matrix of `a`; the gathered matrix is dropped.
    pub fn new(a: &DistMatrix) -> CoarseDirect {
        let n = a.num_global_rows();
        let mut dense = DenseMatrix::zeros(n, n);
        a.gather_dense(&mut dense);
        let factor = factor_dense(&dense);
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
    /// first update), and the factor refactors in its own storage while
    /// the operator stays symmetric and SPD on the old envelope
    /// (`Cholesky::refactor`). Anything else is factored afresh from the
    /// gathered matrix, as `new` does.
    pub fn refactor(&mut self, a: &DistMatrix) {
        let n = a.num_global_rows();
        if self.dense.nrows() != n {
            self.dense = DenseMatrix::zeros(n, n);
        }
        a.gather_dense(&mut self.dense);
        let symmetric = self.dense.is_symmetric(1e-12);
        if !(symmetric
            && self
                .factor
                .as_mut()
                .is_some_and(|c| c.refactor(&self.dense)))
        {
            self.factor = factor_dense(&self.dense);
            self.n = n;
        }
    }

    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resident bytes of the dense factor and of the kept dense operator.
    pub fn memory_bytes(&self) -> u64 {
        let factor = self.factor.as_ref().map_or(0, Cholesky::memory_bytes);
        factor + 8 * (self.dense.nrows() * self.dense.ncols()) as u64
    }

    /// Solve against the factored coarse operator for an already-gathered
    /// global right-hand side (the root rank's step of an SPMD apply).
    pub fn solve_global(&self, r: &[f64]) -> Vec<f64> {
        let mut x = r.to_vec();
        self.solve_global_in_place(&mut x);
        x
    }

    /// [`solve_global`](Self::solve_global) in the gathered buffer itself;
    /// all NaN if the operator failed to factor.
    pub fn solve_global_in_place(&self, r: &mut [f64]) {
        match &self.factor {
            Some(c) => c.solve_in_place(r),
            None => r.fill(f64::NAN),
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

    /// An operator that is not SPD — unsymmetric, indefinite, singular (the
    /// pure-Neumann chain, whose last pivot is exactly 0) or holding a NaN —
    /// factors without a panic, and every solve through it is all NaN, on
    /// both constructors.
    #[test]
    fn an_operator_that_is_not_spd_solves_to_nan() {
        let n = 6;
        let chain = |diag: [f64; 6], upper: f64| {
            let mut b = CooBuilder::new(n, n);
            for (i, d) in diag.into_iter().enumerate() {
                b.push(i, i, d);
                if i + 1 < n {
                    b.push(i, i + 1, upper);
                    b.push(i + 1, i, -1.0);
                }
            }
            b.build()
        };
        for (what, a) in [
            ("unsymmetric", chain([2.0; 6], -1.5)),
            ("indefinite", chain([2.0, 2.0, 2.0, -2.0, 2.0, 2.0], -1.0)),
            ("singular", chain([1.0, 2.0, 2.0, 2.0, 2.0, 1.0], -1.0)),
            ("NaN", chain([2.0, 2.0, 2.0, 2.0, f64::NAN, 2.0], -1.0)),
        ] {
            let l = Layout::block(n, 2);
            let mut sim = Sim::new(2, MachineModel::default());
            let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
            let dr = DistVec::from_global(l.clone(), &vec![1.0; n]);
            let mut dz = DistVec::zeros(l);
            CoarseDirect::new(&da).apply(&mut sim, &dr, &mut dz);
            assert!(dz.to_global().iter().all(|v| v.is_nan()), "{what}");
            let x = CoarseDirect::from_csr(&a).solve_global(&[1.0; 6]);
            assert!(x.iter().all(|v| v.is_nan()), "{what}");
        }
    }

    /// An update refactors to the bits of a fresh factor of the new
    /// operator: in place while the operator is symmetric and SPD on the
    /// old envelope, and afresh otherwise — to no factor for an indefinite
    /// or unsymmetric operator, again, back to a factor, and a new envelope
    /// when a row's first entry drops out.
    /// Beside the factor it keeps the gathered operator for the next
    /// update.
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
            for (a, fails) in [
                (op(1.5, 0.0, -0.25), false),
                (op(-1.0, 0.0, -0.25), true),
                (op(1.5, 0.5, -0.25), true),
                (op(1.75, 0.25, -0.25), true),
                (op(2.0, 0.0, -0.75), false),
                (op(2.0, 0.0, 0.0), false),
            ] {
                let da = dist(&a);
                solver.refactor(&da);
                let fresh = CoarseDirect::new(&da);
                let kept = 8 * (n * n) as u64;
                assert_eq!(solver.memory_bytes(), fresh.memory_bytes() + kept);
                let (x, want) = (solver.solve_global(&rhs), fresh.solve_global(&rhs));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&want), "{p} ranks, fails {fails}");
                assert_eq!(x.iter().all(|v| v.is_nan()), fails, "{p} ranks");
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
