//! Preconditioned conjugate gradients on distributed vectors.
//!
//! The paper's outer Krylov method: PCG with a relative 2-norm residual
//! tolerance (`‖A x̂ − b‖ / ‖b‖ ≤ rtol`, §6), preconditioned by one full
//! multigrid cycle (or, for the baselines, by block Jacobi / point Jacobi).

use crate::precond::Precond;
use pmg_parallel::{DistVec, Sim, SimOperator};
use std::convert::Infallible;

/// Options for [`pcg`].
#[derive(Clone, Copy, Debug)]
pub struct PcgOptions {
    /// Relative residual tolerance (paper's first linear solve: 1e-4).
    pub rtol: f64,
    /// Absolute residual tolerance (safety net for zero right-hand sides).
    pub atol: f64,
    pub max_iters: usize,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            rtol: 1e-4,
            atol: 1e-30,
            max_iters: 500,
        }
    }
}

/// Outcome of a PCG solve.
#[derive(Clone, Debug)]
pub struct PcgResult {
    pub iterations: usize,
    pub converged: bool,
    /// The solve stopped because `p·Ap` was non-positive or non-finite (the
    /// operator or preconditioner is not positive definite) or because
    /// `‖b‖` or the initial `‖r‖` was (the data carried a NaN or `±∞`).
    /// Distinguishes that stop from running out of `max_iters` — both leave
    /// `converged` false.
    pub breakdown: bool,
    /// `‖r‖ / ‖b‖` at exit.
    pub rel_residual: f64,
    /// `‖r‖` after every iteration (index 0 is the initial residual).
    pub residuals: Vec<f64>,
}

/// Where a PCG solve's vectors live and how its partial sums meet.
///
/// [`pcg_generic`] is the one Krylov recurrence in the workspace; a backend
/// tells it how to apply `A` and `M⁻¹`, update a vector, and reduce inner
/// products. The virtual-rank runtime implements it over [`Sim`] +
/// [`DistVec`] (charging the machine model), the message-passing runtime
/// over a transport and owned slices (`prometheus::spmd_pcg`), and the tests
/// substitute a counting fake.
pub trait PcgBackend {
    /// The vector's storage (all ranks' parts, or this rank's share).
    type Vector;
    /// What a communication step can fail with.
    type Error;
    /// A zero work vector shaped like the right-hand side.
    fn zeros(&self) -> Self::Vector;
    /// `y = A x` (overwrites `y` whatever it held).
    fn apply(&mut self, x: &Self::Vector, y: &mut Self::Vector) -> Result<(), Self::Error>;
    /// `z = M⁻¹ r` (overwrites `z` whatever it held).
    fn precond(&mut self, r: &Self::Vector, z: &mut Self::Vector) -> Result<(), Self::Error>;
    /// The global inner product of every pair — one reduction point, so a
    /// backend may fuse them into one collective. Each value must be
    /// bitwise what reducing that pair alone gives.
    fn dots(&mut self, pairs: &[(&Self::Vector, &Self::Vector)]) -> Result<Vec<f64>, Self::Error>;
    /// `y += alpha x`.
    fn axpy(&mut self, alpha: f64, x: &Self::Vector, y: &mut Self::Vector);
    /// `y = x + beta y`.
    fn aypx(&mut self, beta: f64, x: &Self::Vector, y: &mut Self::Vector);
    /// Telemetry: one iteration is starting.
    fn record_iteration(&mut self);
    /// Telemetry: the new `‖r‖`.
    fn record_residual(&mut self, rnorm: f64);
}

/// Preconditioned CG on `A x = b` over any [`PcgBackend`]; `x` holds the
/// initial guess and receives the solution.
///
/// The order is the textbook one — test `‖r‖`, *then* precondition — so a
/// solve that converges after `n ≥ 1` iterations applies `M⁻¹` exactly `n`
/// times and `A` `n + 1` times. Its reduction points are `(b·b, r·r)`
/// fused, `r·z₀`, then `p·w`, `r·r` and `r·z` per iteration, the last
/// skipped by the iteration that converges: `3n + 1` collectives (one when
/// the initial residual already meets the tolerance).
///
/// A non-finite `‖b‖` or `‖r₀‖` (a NaN or `±∞` in the data) is a
/// [`breakdown`](PcgResult::breakdown) reported at iteration 0, before
/// `M⁻¹` is applied at all; `p·Ap ≤ 0` or non-finite is one at the
/// iteration that meets it. Either way `x` is left as it was.
pub fn pcg_generic<B: PcgBackend>(
    be: &mut B,
    b: &B::Vector,
    x: &mut B::Vector,
    opts: PcgOptions,
) -> Result<PcgResult, B::Error> {
    let (mut r, mut z, mut p, mut w) = (be.zeros(), be.zeros(), be.zeros(), be.zeros());

    // r = b - A x.
    be.apply(x, &mut r)?;
    be.aypx(-1.0, b, &mut r);

    // ‖b‖ and ‖r‖ are independent: one reduction point.
    let norms = be.dots(&[(b, b), (&r, &r)])?;
    let bnorm = norms[0].sqrt().max(1e-300);
    let mut rnorm = norms[1].sqrt();
    let done = |rnorm: f64| rnorm <= opts.rtol * bnorm || rnorm <= opts.atol;

    // `∞ ≤ rtol · ∞` holds, so finiteness is asked first.
    let breakdown = !(bnorm.is_finite() && rnorm.is_finite());
    let mut res = PcgResult {
        iterations: 0,
        converged: !breakdown && done(rnorm),
        breakdown,
        rel_residual: rnorm / bnorm,
        residuals: vec![rnorm],
    };
    be.record_residual(rnorm);
    if res.converged || res.breakdown {
        return Ok(res);
    }

    // The first direction is z itself, so M⁻¹ r lands straight in p.
    be.precond(&r, &mut p)?;
    let mut rz = be.dots(&[(&r, &p)])?[0];
    for it in 1..=opts.max_iters {
        be.record_iteration();
        res.iterations = it;
        be.apply(&p, &mut w)?;
        let pw = be.dots(&[(&p, &w)])?[0];
        if pw <= 0.0 || !pw.is_finite() {
            res.breakdown = true;
            break;
        }
        let alpha = rz / pw;
        be.axpy(alpha, &p, x);
        be.axpy(-alpha, &w, &mut r);
        rnorm = be.dots(&[(&r, &r)])?[0].sqrt();
        res.residuals.push(rnorm);
        be.record_residual(rnorm);
        res.converged = done(rnorm);
        if res.converged {
            break;
        }
        be.precond(&r, &mut z)?;
        let rz_new = be.dots(&[(&r, &z)])?[0];
        be.aypx(rz_new / rz, &z, &mut p);
        rz = rz_new;
    }
    res.rel_residual = rnorm / bnorm;
    Ok(res)
}

/// The virtual-rank backend: every rank's part lives in one [`DistVec`],
/// and every flop and message is charged to the [`Sim`] machine model.
struct SimBackend<'a> {
    sim: &'a mut Sim,
    a: &'a dyn SimOperator,
    m: &'a dyn Precond,
}

impl PcgBackend for SimBackend<'_> {
    type Vector = DistVec;
    type Error = Infallible;

    fn zeros(&self) -> DistVec {
        DistVec::zeros(self.a.row_layout().clone())
    }

    fn apply(&mut self, x: &DistVec, y: &mut DistVec) -> Result<(), Infallible> {
        self.a.spmv(self.sim, x, y);
        Ok(())
    }

    fn precond(&mut self, r: &DistVec, z: &mut DistVec) -> Result<(), Infallible> {
        self.m.apply(self.sim, r, z);
        Ok(())
    }

    fn dots(&mut self, pairs: &[(&DistVec, &DistVec)]) -> Result<Vec<f64>, Infallible> {
        // One modeled allreduce per inner product, through the same fixed
        // reduction tree the real transports run.
        Ok(pairs.iter().map(|(u, v)| u.dot(self.sim, v)).collect())
    }

    fn axpy(&mut self, alpha: f64, x: &DistVec, y: &mut DistVec) {
        y.axpy(self.sim, alpha, x);
    }

    fn aypx(&mut self, beta: f64, x: &DistVec, y: &mut DistVec) {
        y.aypx(self.sim, beta, x);
    }

    fn record_iteration(&mut self) {
        pmg_telemetry::counter_add("pcg/iterations", 1);
    }

    fn record_residual(&mut self, rnorm: f64) {
        pmg_telemetry::series_push("pcg/residuals", rnorm);
    }
}

/// Solve `A x = b` by preconditioned CG, starting from the initial guess in
/// `x`. Every flop and message is charged to `sim`. This is
/// [`pcg_generic`] on the virtual-rank runtime.
///
/// Telemetry: runs under a `pcg` scope, counts `pcg/iterations`, and
/// appends each `‖r‖` to the `pcg/residuals` series (the preconditioner
/// records its own child scopes, e.g. multigrid's `precond/level*`).
pub fn pcg(
    sim: &mut Sim,
    a: &dyn SimOperator,
    m: &dyn Precond,
    b: &DistVec,
    x: &mut DistVec,
    opts: PcgOptions,
) -> PcgResult {
    let _t = pmg_telemetry::scope("pcg");
    let mut be = SimBackend { sim, a, m };
    match pcg_generic(&mut be, b, x, opts) {
        Ok(res) => res,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use crate::smoother::BlockJacobi;
    use pmg_parallel::{Layout, MachineModel};
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

    fn check_solution(a: &CsrMatrix, x: &[f64], b: &[f64], tol: f64) {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(b)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err <= tol * bn, "residual {err} vs {}", tol * bn);
    }

    #[test]
    fn cg_identity_precond_converges() {
        let n = 50;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        for p in [1, 4] {
            let l = Layout::block(n, p);
            let mut sim = Sim::new(p, MachineModel::default());
            let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
            let db = DistVec::from_global(l.clone(), &b);
            let mut x = DistVec::zeros(l);
            let res = pcg(
                &mut sim,
                &da,
                &IdentityPrecond,
                &db,
                &mut x,
                PcgOptions {
                    rtol: 1e-10,
                    max_iters: 200,
                    ..Default::default()
                },
            );
            assert!(res.converged, "p={p}");
            check_solution(&a, &x.to_global(), &b, 1e-9);
            // Residual history is monotone-ish in the 2-norm? CG guarantees
            // A-norm monotonicity; just check it ends far below the start.
            assert!(res.residuals.last().unwrap() < &(1e-8 * res.residuals[0]));
        }
    }

    #[test]
    fn cg_exact_in_n_iterations() {
        // CG converges in at most n iterations in exact arithmetic.
        let n = 20;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let mut sim = Sim::new(1, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let db = DistVec::from_global(l.clone(), &vec![1.0; n]);
        let mut x = DistVec::zeros(l);
        let res = pcg(
            &mut sim,
            &da,
            &IdentityPrecond,
            &db,
            &mut x,
            PcgOptions {
                rtol: 1e-12,
                max_iters: n + 2,
                ..Default::default()
            },
        );
        assert!(res.converged);
        assert!(res.iterations <= n + 1);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let n = 200;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let db = DistVec::from_global(l.clone(), &b);
        let opts = PcgOptions {
            rtol: 1e-8,
            max_iters: 400,
            ..Default::default()
        };

        let mut sim1 = Sim::new(2, MachineModel::default());
        let mut x1 = DistVec::zeros(l.clone());
        let plain = pcg(&mut sim1, &da, &IdentityPrecond, &db, &mut x1, opts);

        let bj = BlockJacobi::new(&da, 40.0, 1.0); // 25-unknown blocks
        let mut sim2 = Sim::new(2, MachineModel::default());
        let mut x2 = DistVec::zeros(l.clone());
        let pre = pcg(&mut sim2, &da, &bj, &db, &mut x2, opts);

        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "block Jacobi {} vs identity {}",
            pre.iterations,
            plain.iterations
        );
        check_solution(&a, &x2.to_global(), &b, 1e-7);
    }

    #[test]
    fn jacobi_precond_on_scaled_system() {
        // Badly scaled diagonal: Jacobi fixes it.
        let n = 60;
        let mut bld = CooBuilder::new(n, n);
        for i in 0..n {
            let s = if i % 2 == 0 { 1.0 } else { 1e4 };
            bld.push(i, i, 2.0 * s);
            if i > 0 {
                bld.push(i, i - 1, -0.5);
            }
            if i + 1 < n {
                bld.push(i, i + 1, -0.5);
            }
        }
        let a = bld.build();
        let l = Layout::block(n, 3);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let b = vec![1.0; n];
        let db = DistVec::from_global(l.clone(), &b);
        let opts = PcgOptions {
            rtol: 1e-9,
            max_iters: 300,
            ..Default::default()
        };

        let mut sim1 = Sim::new(3, MachineModel::default());
        let mut x1 = DistVec::zeros(l.clone());
        let plain = pcg(&mut sim1, &da, &IdentityPrecond, &db, &mut x1, opts);
        let jac = JacobiPrecond::new(&da);
        let mut sim2 = Sim::new(3, MachineModel::default());
        let mut x2 = DistVec::zeros(l.clone());
        let pre = pcg(&mut sim2, &da, &jac, &db, &mut x2, opts);
        assert!(pre.converged);
        assert!(pre.iterations <= plain.iterations);
        check_solution(&a, &x2.to_global(), &b, 1e-8);
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let n = 10;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let mut sim = Sim::new(1, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let db = DistVec::zeros(l.clone());
        let mut x = DistVec::zeros(l);
        let res = pcg(
            &mut sim,
            &da,
            &IdentityPrecond,
            &db,
            &mut x,
            PcgOptions::default(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn warm_start_uses_initial_guess() {
        let n = 30;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let mut sim = Sim::new(1, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        // b = A * ones, start from x = ones: converged at iteration 0.
        let ones = vec![1.0; n];
        let mut bg = vec![0.0; n];
        a.spmv(&ones, &mut bg);
        let db = DistVec::from_global(l.clone(), &bg);
        let mut x = DistVec::from_global(l, &ones);
        let res = pcg(
            &mut sim,
            &da,
            &IdentityPrecond,
            &db,
            &mut x,
            PcgOptions::default(),
        );
        assert_eq!(res.iterations, 0);
        assert!(res.converged);
    }

    /// Serial textbook PCG (Saad, Alg. 9.1) on the same BLAS-1 kernels —
    /// the anchor the generic loop is pinned to. Returns the `‖r‖` history.
    fn textbook_pcg(
        a: &CsrMatrix,
        minv: &dyn Fn(&[f64], &mut [f64]),
        b: &[f64],
        x: &mut [f64],
        opts: PcgOptions,
    ) -> Vec<f64> {
        use pmg_sparse::vector::{axpy, aypx, dot};
        let n = b.len();
        let (mut r, mut z, mut w) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        a.spmv(x, &mut r);
        aypx(-1.0, b, &mut r);
        let bnorm = dot(b, b).sqrt().max(1e-300);
        let stop = |rn: f64| rn <= opts.rtol * bnorm || rn <= opts.atol;
        let mut hist = vec![dot(&r, &r).sqrt()];
        if stop(hist[0]) {
            return hist;
        }
        minv(&r, &mut z);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        for _ in 0..opts.max_iters {
            a.spmv(&p, &mut w);
            let alpha = rz / dot(&p, &w);
            axpy(alpha, &p, x);
            axpy(-alpha, &w, &mut r);
            hist.push(dot(&r, &r).sqrt());
            if stop(hist[hist.len() - 1]) {
                break;
            }
            minv(&r, &mut z);
            let rz_new = dot(&r, &z);
            aypx(rz_new / rz, &z, &mut p);
            rz = rz_new;
        }
        hist
    }

    #[test]
    fn generic_loop_is_bitwise_the_textbook_recurrence() {
        // The anchor for the recurrence itself: every other parity test
        // compares two runs of this one loop. One rank, so every reduction
        // is a plain serial dot.
        let n = 40;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let jac = JacobiPrecond::new(&da);
        let inv_diag: Vec<f64> = a.diag().iter().map(|&d| 1.0 / d).collect();
        let jacobi = |r: &[f64], z: &mut [f64]| {
            for ((zi, ri), di) in z.iter_mut().zip(r).zip(&inv_diag) {
                *zi = ri * di;
            }
        };
        let identity = |r: &[f64], z: &mut [f64]| z.copy_from_slice(r);
        let wavy: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        let mut a_ones = vec![0.0; n];
        a.spmv(&vec![1.0; n], &mut a_ones);
        let opts = PcgOptions {
            rtol: 1e-10,
            max_iters: 100,
            ..Default::default()
        };
        // (rhs, initial guess): cold start, zero rhs, exact warm start,
        // inexact warm start.
        let cases = [
            (wavy.clone(), vec![0.0; n]),
            (vec![0.0; n], vec![0.0; n]),
            (a_ones, vec![1.0; n]),
            (wavy.clone(), vec![0.5; n]),
        ];
        for (case, (b, x0)) in cases.iter().enumerate() {
            type Minv<'a> = &'a dyn Fn(&[f64], &mut [f64]);
            let preconds: [(&dyn Precond, Minv); 2] =
                [(&jac, &jacobi), (&IdentityPrecond, &identity)];
            for (which, (m, minv)) in preconds.into_iter().enumerate() {
                let mut x_ref = x0.clone();
                let hist = textbook_pcg(&a, minv, b, &mut x_ref, opts);
                let mut sim = Sim::new(1, MachineModel::default());
                let db = DistVec::from_global(l.clone(), b);
                let mut dx = DistVec::from_global(l.clone(), x0);
                let res = pcg(&mut sim, &da, m, &db, &mut dx, opts);
                assert!(res.converged && !res.breakdown, "case {case}/{which}");
                assert_eq!(res.iterations + 1, hist.len(), "case {case}/{which}");
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&res.residuals), bits(&hist), "case {case}/{which}");
                assert_eq!(bits(&dx.to_global()), bits(&x_ref), "case {case}/{which}");
            }
        }
    }

    /// A serial vector that counts the `axpy`s it receives.
    struct CountedVec {
        v: Vec<f64>,
        axpys: usize,
    }

    /// Serial backend (identity preconditioner) that counts what the loop
    /// asks of it.
    struct CountingBackend<'a> {
        a: &'a CsrMatrix,
        applies: usize,
        preconds: usize,
        /// Calls of `dots`: the reduction points a transport would enter.
        reductions: usize,
    }

    impl PcgBackend for CountingBackend<'_> {
        type Vector = CountedVec;
        type Error = Infallible;

        fn zeros(&self) -> CountedVec {
            CountedVec {
                v: vec![0.0; self.a.nrows()],
                axpys: 0,
            }
        }

        fn apply(&mut self, x: &CountedVec, y: &mut CountedVec) -> Result<(), Infallible> {
            self.applies += 1;
            self.a.spmv(&x.v, &mut y.v);
            Ok(())
        }

        fn precond(&mut self, r: &CountedVec, z: &mut CountedVec) -> Result<(), Infallible> {
            self.preconds += 1;
            z.v.copy_from_slice(&r.v);
            Ok(())
        }

        fn dots(&mut self, pairs: &[(&CountedVec, &CountedVec)]) -> Result<Vec<f64>, Infallible> {
            self.reductions += 1;
            Ok(pairs
                .iter()
                .map(|(u, v)| pmg_sparse::vector::dot(&u.v, &v.v))
                .collect())
        }

        fn axpy(&mut self, alpha: f64, x: &CountedVec, y: &mut CountedVec) {
            y.axpys += 1;
            pmg_sparse::vector::axpy(alpha, &x.v, &mut y.v);
        }

        fn aypx(&mut self, beta: f64, x: &CountedVec, y: &mut CountedVec) {
            pmg_sparse::vector::aypx(beta, &x.v, &mut y.v);
        }

        fn record_iteration(&mut self) {}

        fn record_residual(&mut self, _rnorm: f64) {}
    }

    #[test]
    fn converged_solve_applies_precond_n_and_operator_n_plus_one_times() {
        let n = 30;
        let a = laplacian(n);
        let counted = |v: Vec<f64>| CountedVec { v, axpys: 0 };
        let wavy: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let tight = PcgOptions {
            rtol: 1e-10,
            max_iters: 100,
            ..Default::default()
        };
        let loose = PcgOptions {
            rtol: 1e-2,
            ..tight
        };
        let capped = PcgOptions {
            max_iters: 2,
            ..tight
        };
        // Stops at different iterations: loose tolerance, tight tolerance,
        // the cap, a zero right-hand side (iteration 0), and ±∞ in the data.
        let mut poisoned = wavy.clone();
        poisoned[n / 2] = f64::NEG_INFINITY;
        let cases = [
            (&wavy, loose),
            (&wavy, tight),
            (&wavy, capped),
            (&vec![0.0; n], tight),
            (&poisoned, tight),
        ];
        let outcomes = cases.map(|(rhs, opts)| {
            let mut be = CountingBackend {
                a: &a,
                applies: 0,
                preconds: 0,
                reductions: 0,
            };
            let mut x = counted(vec![0.0; n]);
            let res = pcg_generic(&mut be, &counted(rhs.clone()), &mut x, opts).unwrap();
            let iters = res.iterations;
            assert_eq!(x.axpys, iters, "one x update per iteration: {res:?}");
            assert_eq!(be.applies, iters + 1, "the residual, then one each");
            if res.breakdown {
                // Reported from the first reduction, before M⁻¹ is touched.
                assert_eq!((be.preconds, be.reductions), (0, 1), "{res:?}");
            } else if res.converged {
                assert_eq!(be.preconds, iters, "no M⁻¹ is discarded: {res:?}");
                assert_eq!(be.reductions, 3 * iters + 1, "{res:?}");
            } else {
                // Out of iterations: the last r·z was computed for a
                // direction nobody took.
                assert_eq!(be.reductions, 3 * iters + 2, "{res:?}");
            }
            (iters, res.converged, res.breakdown)
        });
        let [loose, tight, capped, zero, poisoned] = outcomes;
        assert!(loose.1 && tight.1 && 1 <= loose.0 && loose.0 < tight.0);
        assert_eq!(capped, (2, false, false));
        assert_eq!(zero, (0, true, false), "one reduction, no M⁻¹");
        assert_eq!(poisoned, (0, false, true));
    }

    #[test]
    fn breakdown_is_reported_not_silent() {
        // Indefinite diagonal operator, right-hand side on the negative
        // part: p·Ap < 0 at the first iteration.
        let n = 12;
        let mut bld = CooBuilder::new(n, n);
        for i in 0..n {
            bld.push(i, i, if i < n / 2 { 2.0 } else { -1.0 });
        }
        let a = bld.build();
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let indefinite: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        let mut poisoned = vec![1.0; n];
        poisoned[3] = f64::NAN;
        let spd = laplacian(n);
        let dspd = pmg_parallel::DistMatrix::from_global(&spd, l.clone(), l.clone());
        // p·Ap < 0 shows at the first iteration, a NaN at the first reduction.
        for (op, b, iters) in [(&da, &indefinite, 1), (&dspd, &poisoned, 0)] {
            let mut sim = Sim::new(2, MachineModel::default());
            let db = DistVec::from_global(l.clone(), b);
            let mut x = DistVec::zeros(l.clone());
            let res = pcg(
                &mut sim,
                op,
                &IdentityPrecond,
                &db,
                &mut x,
                PcgOptions::default(),
            );
            assert!(res.breakdown && !res.converged, "{res:?}");
            assert_eq!(res.iterations, iters);
            assert!(x.to_global().iter().all(|&v| v == 0.0), "x untouched");
        }
        // Running out of iterations on an SPD system is not a breakdown.
        let mut sim = Sim::new(2, MachineModel::default());
        let db = DistVec::from_global(l.clone(), &vec![1.0; n]);
        let mut x = DistVec::zeros(l);
        let opts = PcgOptions {
            rtol: 1e-14,
            max_iters: 2,
            ..Default::default()
        };
        let res = pcg(&mut sim, &dspd, &IdentityPrecond, &db, &mut x, opts);
        assert!(
            !res.converged && !res.breakdown && res.iterations == 2,
            "{res:?}"
        );
    }
}
