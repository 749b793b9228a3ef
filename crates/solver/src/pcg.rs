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
    /// The solve stopped because `p·Ap` was non-positive or non-finite: the
    /// operator (or preconditioner) is not positive definite, or the data
    /// carried a NaN/Inf. Distinguishes that stop from running out of
    /// `max_iters` — both leave `converged` false.
    pub breakdown: bool,
    /// `‖r‖ / ‖b‖` at exit.
    pub rel_residual: f64,
    /// `‖r‖` after every iteration (index 0 is the initial residual).
    pub residuals: Vec<f64>,
}

/// Where a PCG solve's vectors live and how its partial sums meet.
///
/// [`pcg_blocked`] is the one Krylov recurrence in the workspace; a backend
/// tells it how to apply `A` and `M⁻¹`, update a vector, and reduce inner
/// products. The virtual-rank runtime implements it over [`Sim`] +
/// [`DistVec`] (charging the machine model), the message-passing runtime
/// over a transport and owned slices (`prometheus::spmd_pcg`), and the tests
/// substitute a counting fake.
pub trait PcgBackend {
    /// One column's storage (all ranks' parts, or this rank's share).
    type Vector;
    /// What a communication step can fail with.
    type Error;
    /// A zero work vector shaped like the right-hand sides.
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
    /// Telemetry: one blocked iteration is starting.
    fn record_iteration(&mut self);
    /// Telemetry: a column's new `‖r‖`.
    fn record_residual(&mut self, rnorm: f64);
}

/// Inner products `us[c]·vs[c]` over the columns `cols`; no reduction is
/// entered when `cols` is empty.
fn dots_of<B: PcgBackend>(
    be: &mut B,
    cols: &[usize],
    us: &[B::Vector],
    vs: &[B::Vector],
) -> Result<Vec<f64>, B::Error> {
    if cols.is_empty() {
        return Ok(Vec::new());
    }
    let pairs: Vec<_> = cols.iter().map(|&c| (&us[c], &vs[c])).collect();
    be.dots(&pairs)
}

/// Blocked preconditioned CG: k systems `A xs[c] = bs[c]` advance in
/// lockstep, sharing every reduction point, each under its own `opts[c]`
/// (tolerances and iteration cap). `xs` holds the initial guesses and
/// receives the solutions.
///
/// The columns do **not** share a Krylov space — each keeps its own `α`,
/// `β` and preconditioner applications — so column `c`'s iterates, residual
/// history and exit state are **bitwise identical** to a k = 1 call on
/// `(bs[c], xs[c], opts[c])`. A column that converges, breaks down
/// (`p·Ap ≤ 0` or non-finite) or reaches its own cap freezes: its `x`, `r`
/// and `p` stop updating and `A` is no longer applied to it.
///
/// The order is the textbook one — test `‖r‖`, *then* precondition — so a
/// solve that converges after `n ≥ 1` iterations applies `M⁻¹` exactly `n`
/// times and `A` `n + 1` times — per column.
pub fn pcg_blocked<B: PcgBackend>(
    be: &mut B,
    bs: &[B::Vector],
    xs: &mut [B::Vector],
    opts: &[PcgOptions],
) -> Result<Vec<PcgResult>, B::Error> {
    let k = bs.len();
    assert_eq!(xs.len(), k, "blocked PCG needs matching b/x counts");
    assert_eq!(opts.len(), k, "blocked PCG needs one PcgOptions per column");
    if k == 0 {
        return Ok(Vec::new());
    }
    let work = |be: &B| -> Vec<B::Vector> { (0..k).map(|_| be.zeros()).collect() };
    let (mut rs, mut zs, mut ps, mut ws) = (work(be), work(be), work(be), work(be));

    // rs[c] = bs[c] - A xs[c].
    for ((x, r), b) in xs.iter().zip(&mut rs).zip(bs) {
        be.apply(x, r)?;
        be.aypx(-1.0, b, r);
    }

    // ‖b‖ and ‖r‖ are independent: every column's pair shares one
    // reduction point.
    let norm_pairs: Vec<_> = bs
        .iter()
        .zip(&rs)
        .flat_map(|(b, r)| [(b, b), (r, r)])
        .collect();
    let norms = be.dots(&norm_pairs)?;
    let bnorms: Vec<f64> = (0..k).map(|c| norms[2 * c].sqrt().max(1e-300)).collect();
    let mut rnorms: Vec<f64> = (0..k).map(|c| norms[2 * c + 1].sqrt()).collect();
    let done = |c: usize, rnorm: f64| rnorm <= opts[c].rtol * bnorms[c] || rnorm <= opts[c].atol;

    let mut residuals: Vec<Vec<f64>> = rnorms.iter().map(|&rn| vec![rn]).collect();
    let mut active = vec![false; k];
    let mut converged = vec![false; k];
    let mut breakdown = vec![false; k];
    let mut iterations = vec![0usize; k];
    let mut rz = vec![0.0f64; k];
    for c in 0..k {
        be.record_residual(rnorms[c]);
        converged[c] = done(c, rnorms[c]);
        active[c] = !converged[c];
    }
    let open = |active: &[bool]| -> Vec<usize> { (0..k).filter(|&c| active[c]).collect() };

    // The first direction is z itself, so M⁻¹ r lands straight in p.
    let act = open(&active);
    for &c in &act {
        be.precond(&rs[c], &mut ps[c])?;
    }
    for (&c, rz0) in act.iter().zip(dots_of(be, &act, &rs, &ps)?) {
        rz[c] = rz0;
    }

    let it_cap = opts.iter().map(|o| o.max_iters).max().unwrap_or(0);
    for it in 1..=it_cap {
        // A column past its own cap freezes exactly where a k = 1 solve
        // would have returned (converged = false, iterations = cap).
        for c in 0..k {
            active[c] &= it <= opts[c].max_iters;
        }
        let act = open(&active);
        if act.is_empty() {
            break;
        }
        be.record_iteration();
        for &c in &act {
            be.apply(&ps[c], &mut ws[c])?;
        }
        for (&c, pw) in act.iter().zip(dots_of(be, &act, &ps, &ws)?) {
            iterations[c] = it;
            if pw <= 0.0 || !pw.is_finite() {
                breakdown[c] = true;
                active[c] = false;
                continue;
            }
            let alpha = rz[c] / pw;
            be.axpy(alpha, &ps[c], &mut xs[c]);
            be.axpy(-alpha, &ws[c], &mut rs[c]);
        }
        let act = open(&active);
        for (&c, rr) in act.iter().zip(dots_of(be, &act, &rs, &rs)?) {
            rnorms[c] = rr.sqrt();
            residuals[c].push(rnorms[c]);
            be.record_residual(rnorms[c]);
            converged[c] = done(c, rnorms[c]);
            active[c] = !converged[c];
        }
        let act = open(&active);
        for &c in &act {
            be.precond(&rs[c], &mut zs[c])?;
        }
        for (&c, rz_new) in act.iter().zip(dots_of(be, &act, &rs, &zs)?) {
            let beta = rz_new / rz[c];
            rz[c] = rz_new;
            be.aypx(beta, &zs[c], &mut ps[c]);
        }
    }
    Ok((0..k)
        .map(|c| PcgResult {
            iterations: iterations[c],
            converged: converged[c],
            breakdown: breakdown[c],
            rel_residual: rnorms[c] / bnorms[c],
            residuals: std::mem::take(&mut residuals[c]),
        })
        .collect())
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
/// [`pcg_multi_each`] at k = 1.
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
    let (bs, xs) = (std::slice::from_ref(b), std::slice::from_mut(x));
    let mut res = pcg_multi_each(sim, a, m, bs, xs, &[opts]);
    res.pop().expect("one column in, one result out")
}

/// Solve k systems `A xs[c] = bs[c]` by blocked PCG under uniform options:
/// [`pcg_multi_each`] with the same `opts` for every column.
pub fn pcg_multi(
    sim: &mut Sim,
    a: &dyn SimOperator,
    m: &dyn Precond,
    bs: &[DistVec],
    xs: &mut [DistVec],
    opts: PcgOptions,
) -> Vec<PcgResult> {
    pcg_multi_each(sim, a, m, bs, xs, &vec![opts; bs.len()])
}

/// [`pcg_blocked`] on the virtual-rank runtime with per-column options:
/// column `c` runs under `opts[c]`'s tolerances and iteration cap. This is
/// the ragged-batch entry the solver daemon feeds — concurrent requests for
/// the same operator may each carry their own `rtol` — and column `c` is
/// **bitwise identical** to an independent [`pcg`] call with `opts[c]`.
pub fn pcg_multi_each(
    sim: &mut Sim,
    a: &dyn SimOperator,
    m: &dyn Precond,
    bs: &[DistVec],
    xs: &mut [DistVec],
    opts: &[PcgOptions],
) -> Vec<PcgResult> {
    if bs.is_empty() {
        return Vec::new();
    }
    let _t = pmg_telemetry::scope("pcg");
    let mut be = SimBackend { sim, a, m };
    match pcg_blocked(&mut be, bs, xs, opts) {
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
    fn pcg_multi_bitwise_matches_independent_solves() {
        // Columns with different right-hand sides (and so different
        // convergence points, exercising the freeze path) must land on
        // exactly the bits of k independent solves.
        let n = 40;
        let k = 3;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let opts = PcgOptions {
            rtol: 1e-8,
            max_iters: 200,
            ..Default::default()
        };
        let bs: Vec<DistVec> = (0..k)
            .map(|c| {
                let b: Vec<f64> = (0..n)
                    .map(|i| ((i * (c + 1)) as f64 * 0.23).sin() * (1.0 + c as f64))
                    .collect();
                DistVec::from_global(l.clone(), &b)
            })
            .collect();
        let jac = JacobiPrecond::new(&da);
        let mut sim = Sim::new(2, MachineModel::default());
        let mut xs: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(l.clone())).collect();
        let multi = pcg_multi(&mut sim, &da, &jac, &bs, &mut xs, opts);
        for c in 0..k {
            let mut sim1 = Sim::new(2, MachineModel::default());
            let mut x1 = DistVec::zeros(l.clone());
            let single = pcg(&mut sim1, &da, &jac, &bs[c], &mut x1, opts);
            assert_eq!(multi[c].iterations, single.iterations, "c={c}");
            assert_eq!(multi[c].converged, single.converged, "c={c}");
            assert_eq!(multi[c].residuals, single.residuals, "c={c}");
            for (a, b) in xs[c].to_global().iter().zip(x1.to_global()) {
                assert_eq!(a.to_bits(), b.to_bits(), "c={c}");
            }
        }
        // They did not all stop at the same iteration (the freeze path ran).
        assert!(
            multi.iter().any(|r| r.iterations != multi[0].iterations)
                || multi.iter().all(|r| r.converged),
        );
    }

    #[test]
    fn pcg_multi_each_matches_independent_solves_per_column() {
        // Ragged options: every column carries its own rtol and iteration
        // cap, and each must land on exactly the bits of an independent
        // pcg call under those options — including a column whose cap is
        // hit before convergence.
        let n = 40;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let opts_each = [
            PcgOptions {
                rtol: 1e-10,
                max_iters: 200,
                ..Default::default()
            },
            PcgOptions {
                rtol: 1e-4,
                max_iters: 200,
                ..Default::default()
            },
            PcgOptions {
                rtol: 1e-12,
                max_iters: 3, // cap hit: freezes unconverged
                ..Default::default()
            },
        ];
        let bs: Vec<DistVec> = (0..3)
            .map(|c| {
                let b: Vec<f64> = (0..n).map(|i| ((i + 7 * c) as f64 * 0.31).cos()).collect();
                DistVec::from_global(l.clone(), &b)
            })
            .collect();
        let jac = JacobiPrecond::new(&da);
        let mut sim = Sim::new(2, MachineModel::default());
        let mut xs: Vec<DistVec> = (0..3).map(|_| DistVec::zeros(l.clone())).collect();
        let multi = pcg_multi_each(&mut sim, &da, &jac, &bs, &mut xs, &opts_each);
        for c in 0..3 {
            let mut sim1 = Sim::new(2, MachineModel::default());
            let mut x1 = DistVec::zeros(l.clone());
            let single = pcg(&mut sim1, &da, &jac, &bs[c], &mut x1, opts_each[c]);
            assert_eq!(multi[c].iterations, single.iterations, "c={c}");
            assert_eq!(multi[c].converged, single.converged, "c={c}");
            assert_eq!(multi[c].residuals, single.residuals, "c={c}");
            for (a, b) in xs[c].to_global().iter().zip(x1.to_global()) {
                assert_eq!(a.to_bits(), b.to_bits(), "c={c}");
            }
        }
        // The capped column really did freeze unconverged.
        assert!(!multi[2].converged);
        assert_eq!(multi[2].iterations, 3);
        assert!(
            !multi[2].breakdown,
            "running out of iterations is not a breakdown"
        );
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
        // With `pcg` being the k = 1 case of the blocked loop, "blocked
        // equals independent" says nothing about the recurrence itself;
        // this does. One rank, so every reduction is a plain serial dot.
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

    /// A serial vector that counts the `axpy`s it receives and remembers
    /// which column it belongs to: the test tags `b` and `x`, and the
    /// backend hands the tag from input to output, so every work vector of
    /// column `c` carries `c` by the time `A` is applied to it.
    struct CountedVec {
        v: Vec<f64>,
        axpys: usize,
        col: Option<usize>,
    }

    /// Serial backend (identity preconditioner) that counts what the loop
    /// asks of it.
    struct CountingBackend<'a> {
        a: &'a CsrMatrix,
        /// Operator applications per column.
        applies: Vec<usize>,
        preconds: usize,
    }

    impl PcgBackend for CountingBackend<'_> {
        type Vector = CountedVec;
        type Error = Infallible;

        fn zeros(&self) -> CountedVec {
            CountedVec {
                v: vec![0.0; self.a.nrows()],
                axpys: 0,
                col: None,
            }
        }

        fn apply(&mut self, x: &CountedVec, y: &mut CountedVec) -> Result<(), Infallible> {
            y.col = x.col;
            self.applies[x.col.expect("applied to a tagged vector")] += 1;
            self.a.spmv(&x.v, &mut y.v);
            Ok(())
        }

        fn precond(&mut self, r: &CountedVec, z: &mut CountedVec) -> Result<(), Infallible> {
            self.preconds += 1;
            z.col = r.col;
            z.v.copy_from_slice(&r.v);
            Ok(())
        }

        fn dots(&mut self, pairs: &[(&CountedVec, &CountedVec)]) -> Result<Vec<f64>, Infallible> {
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
        let counted = |col: usize, v: Vec<f64>| CountedVec {
            v,
            axpys: 0,
            col: Some(col),
        };
        let rhs =
            |c: usize| -> Vec<f64> { (0..n).map(|i| ((i + 3 * c) as f64 * 0.29).cos()).collect() };
        let tight = PcgOptions {
            rtol: 1e-10,
            max_iters: 100,
            ..Default::default()
        };
        // Three columns that stop at different iterations: loose
        // tolerance, tight tolerance, own cap.
        let loose = PcgOptions {
            rtol: 1e-2,
            ..tight
        };
        let capped = PcgOptions {
            max_iters: 2,
            ..tight
        };
        let opts = [loose, tight, capped];

        // Each column alone: M⁻¹ n times, A n + 1 times.
        let mut alone = Vec::new();
        for (c, o) in opts.iter().enumerate() {
            let mut be = CountingBackend {
                a: &a,
                applies: vec![0],
                preconds: 0,
            };
            let mut xs = [counted(0, vec![0.0; n])];
            let res = pcg_blocked(&mut be, &[counted(0, rhs(c))], &mut xs, &[*o]).unwrap();
            let iters = res[0].iterations;
            assert!(iters >= 1);
            if res[0].converged {
                assert_eq!(be.preconds, iters, "no M⁻¹ application is discarded");
            }
            assert_eq!(
                be.applies[0],
                iters + 1,
                "column {c}: residual + one per iteration"
            );
            alone.push((res, xs));
        }

        // Blocked: a frozen column's x receives no further axpy and A is
        // no longer applied to it, while the others keep iterating on
        // exactly the bits of their own k = 1 solve.
        let mut be = CountingBackend {
            a: &a,
            applies: vec![0; 3],
            preconds: 0,
        };
        let bs = [counted(0, rhs(0)), counted(1, rhs(1)), counted(2, rhs(2))];
        let mut xs = [0, 1, 2].map(|c| counted(c, vec![0.0; n]));
        let res = pcg_blocked(&mut be, &bs, &mut xs, &opts).unwrap();
        assert!(res[0].converged && res[1].converged && !res[2].converged);
        assert!(res[0].iterations < res[1].iterations, "{res:?}");
        assert_eq!(res[2].iterations, 2);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (c, (r, x)) in res.iter().zip(&xs).enumerate() {
            assert_eq!(x.axpys, r.iterations, "one x update per active iteration");
            assert_eq!(be.applies[c], r.iterations + 1, "column {c}");
            let (single, x1) = &alone[c];
            assert_eq!(bits(&r.residuals), bits(&single[0].residuals), "column {c}");
            assert_eq!(bits(&x.v), bits(&x1[0].v), "column {c}");
        }
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
        for (op, b) in [(&da, &indefinite), (&dspd, &poisoned)] {
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
            assert_eq!(res.iterations, 1);
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
