//! Chebyshev polynomial smoother.
//!
//! An alternative to block Jacobi that needs no factorizations and no
//! inner products (attractive at scale, where the block solves and the
//! allreduce-free structure matter). Targets the upper part of the
//! spectrum of `D⁻¹A`: eigenvalues in `[λ_max/ratio, λ_max]` are damped
//! optimally by the shifted Chebyshev polynomial.
//!
//! The recurrence's scratch vectors (`r`, `d`) live in a reused workspace:
//! the first [`Chebyshev::smooth`] on a layout allocates them, every later
//! call reuses them, so steady-state smoothing performs **no per-iteration
//! allocation** (the vector updates run through `pmg_sparse::vector` on the
//! parts directly, with precomputed flop charges). That is pinned by the
//! counting-allocator test in `tests/smoother_alloc.rs`.

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Layout, Sim, SimOperator};
use std::sync::{Arc, Mutex};

/// Reused smoothing scratch: the vectors `r`/`d` and the per-rank flop
/// charges of the BLAS-1 updates (so no charge vector is built per call).
struct ChebWorkspace {
    r: DistVec,
    d: DistVec,
    flops1: Vec<u64>,
    flops2: Vec<u64>,
}

impl ChebWorkspace {
    fn new(layout: &Arc<Layout>) -> ChebWorkspace {
        let flops1: Vec<u64> = (0..layout.num_ranks())
            .map(|r| layout.local_len(r) as u64)
            .collect();
        let flops2 = flops1.iter().map(|f| 2 * f).collect();
        ChebWorkspace {
            r: DistVec::zeros(layout.clone()),
            d: DistVec::zeros(layout.clone()),
            flops1,
            flops2,
        }
    }
}

/// `y = x + beta * y` on the parts, charging precomputed flops.
fn aypx_parts(sim: &mut Sim, flops: &[u64], beta: f64, x: &DistVec, y: &mut DistVec) {
    for r in 0..x.layout().num_ranks() {
        pmg_sparse::vector::aypx(beta, x.part(r), y.part_mut(r));
    }
    sim.compute(flops);
}

/// `y += alpha * x` on the parts, charging precomputed flops.
fn axpy_parts(sim: &mut Sim, flops: &[u64], alpha: f64, x: &DistVec, y: &mut DistVec) {
    for r in 0..x.layout().num_ranks() {
        pmg_sparse::vector::axpy(alpha, x.part(r), y.part_mut(r));
    }
    sim.compute(flops);
}

/// `y *= s` on the parts, charging precomputed flops.
fn scale_parts(sim: &mut Sim, flops: &[u64], y: &mut DistVec, s: f64) {
    for r in 0..y.layout().num_ranks() {
        pmg_sparse::vector::scale(y.part_mut(r), s);
    }
    sim.compute(flops);
}

/// Chebyshev smoother of fixed degree.
pub struct Chebyshev {
    inv_diag: Vec<Vec<f64>>,
    flops_per_scale: Vec<u64>,
    lambda_max: f64,
    /// Smoothing interval is `[lambda_max / ratio, lambda_max]`.
    ratio: f64,
    degree: usize,
    /// Scratch reuse across smoothing calls (one smooth at a time; the
    /// lock is uncontended in every solve path).
    workspace: Mutex<Option<ChebWorkspace>>,
}

impl Chebyshev {
    /// Build with `degree` matrix applications per smoothing step; the
    /// spectrum bound is estimated with a few power iterations.
    pub fn new(sim: &mut Sim, a: &DistMatrix, degree: usize, ratio: f64) -> Chebyshev {
        let nranks = a.row_layout().num_ranks();
        let mut inv_diag = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let d: Vec<f64> = a
                .local_block(r)
                .diag()
                .iter()
                .map(|&v| if v != 0.0 { 1.0 / v } else { 1.0 })
                .collect();
            inv_diag.push(d);
        }
        let flops_per_scale = inv_diag.iter().map(|d| d.len() as u64).collect();
        let mut cheb = Chebyshev {
            inv_diag,
            flops_per_scale,
            lambda_max: 1.0,
            ratio,
            degree,
            workspace: Mutex::new(None),
        };
        cheb.lambda_max = cheb.estimate_lambda_max(sim, a) * 1.05; // safety margin
        cheb
    }

    fn dinv_apply(&self, sim: &mut Sim, v: &mut DistVec) {
        for (rank, d) in self.inv_diag.iter().enumerate() {
            for (x, di) in v.part_mut(rank).iter_mut().zip(d) {
                *x *= di;
            }
        }
        sim.compute(&self.flops_per_scale);
    }

    fn estimate_lambda_max(&self, sim: &mut Sim, a: &DistMatrix) -> f64 {
        let layout = a.row_layout().clone();
        let n = layout.num_global();
        let seed: Vec<f64> = (0..n)
            .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut x = DistVec::from_global(layout.clone(), &seed);
        let mut y = DistVec::zeros(layout);
        let mut lam = 1.0;
        for _ in 0..12 {
            a.spmv(sim, &x, &mut y);
            self.dinv_apply(sim, &mut y);
            lam = y.norm2(sim);
            if lam <= 0.0 {
                return 1.0;
            }
            x.copy_from(&y);
            x.scale(sim, 1.0 / lam);
        }
        lam
    }

    pub fn lambda_max(&self) -> f64 {
        self.lambda_max
    }

    /// One Chebyshev smoothing step: `x ← x + p(D⁻¹A) D⁻¹ (b − A x)` with
    /// the classical three-term recurrence. Scratch comes from the reused
    /// workspace — after the first call on a layout, no allocation happens
    /// here (the operator's own `spmv` scratch is its business).
    pub fn smooth(
        &self,
        sim: &mut Sim,
        a: &dyn SimOperator,
        b: &DistVec,
        x: &mut DistVec,
        steps: usize,
    ) {
        let layout = b.layout();
        let lmax = self.lambda_max;
        let lmin = lmax / self.ratio;
        let theta = 0.5 * (lmax + lmin);
        let delta = 0.5 * (lmax - lmin);

        let mut guard = self.workspace.lock().unwrap_or_else(|e| e.into_inner());
        if !matches!(&*guard, Some(ws) if Arc::ptr_eq(ws.r.layout(), layout)) {
            *guard = Some(ChebWorkspace::new(layout));
        }
        let ws = guard.as_mut().unwrap();
        let ChebWorkspace {
            r,
            d,
            flops1,
            flops2,
        } = ws;

        for _ in 0..steps {
            // r = D⁻¹ (b - A x).
            a.spmv(sim, x, r);
            aypx_parts(sim, flops2, -1.0, b, r);
            self.dinv_apply(sim, r);

            // Chebyshev recurrence on the correction d (Saad, Alg. 12.1):
            // ρ₀ = δ/θ, ρ_k = 1/(2θ/δ − ρ_{k-1}),
            // d ← ρ_k ρ_{k-1} d + (2ρ_k/δ) r.
            d.copy_from(r);
            scale_parts(sim, flops1, d, 1.0 / theta);
            axpy_parts(sim, flops2, 1.0, d, x);
            let sigma = theta / delta;
            let mut rho_prev = 1.0 / sigma;
            for _ in 1..self.degree {
                // r ← D⁻¹(b - A x) (recomputed; simple and robust).
                a.spmv(sim, x, r);
                aypx_parts(sim, flops2, -1.0, b, r);
                self.dinv_apply(sim, r);
                let rho = 1.0 / (2.0 * sigma - rho_prev);
                // d ← (ρ ρ_prev) d + (2ρ/δ) r.
                scale_parts(sim, flops1, d, rho * rho_prev);
                axpy_parts(sim, flops2, 2.0 * rho / delta, r, d);
                axpy_parts(sim, flops2, 1.0, d, x);
                rho_prev = rho;
            }
        }
    }
}

impl Precond for Chebyshev {
    fn apply(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        // z = smooth(A z = r) from zero — but apply() has no matrix, so the
        // preconditioner form is a single D⁻¹-scaled Chebyshev on the
        // residual; for full smoothing use `smooth` with the operator.
        z.copy_from(r);
        self.dinv_apply(sim, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_parallel::{Layout, MachineModel};
    use pmg_sparse::CooBuilder;

    fn laplacian(n: usize) -> pmg_sparse::CsrMatrix {
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
    fn lambda_max_estimate_reasonable() {
        let n = 50;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let mut sim = Sim::new(2, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l);
        let cheb = Chebyshev::new(&mut sim, &da, 3, 30.0);
        // λ_max of D⁻¹A for the 1D Laplacian approaches 2.
        assert!(
            cheb.lambda_max() > 1.5 && cheb.lambda_max() < 2.3,
            "{}",
            cheb.lambda_max()
        );
    }

    #[test]
    fn chebyshev_smooths_high_frequencies() {
        let n = 64;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let mut sim = Sim::new(2, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let cheb = Chebyshev::new(&mut sim, &da, 3, 30.0);
        // Error = highest-frequency mode; one step must crush it.
        let err0: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let b = DistVec::zeros(l.clone());
        let mut x = DistVec::from_global(l.clone(), &err0);
        cheb.smooth(&mut sim, &da, &b, &mut x, 1);
        let before = (n as f64).sqrt();
        let after: f64 = x.to_global().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            after < 0.3 * before,
            "high frequency not damped: {after} vs {before}"
        );
        // Two more steps grind the oscillatory content to near nothing.
        cheb.smooth(&mut sim, &da, &b, &mut x, 2);
        let later: f64 = x.to_global().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(later < 0.05 * before, "{later} vs {before}");
    }

    #[test]
    fn chebyshev_converges_as_solver_on_easy_problem() {
        let n = 24;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let mut sim = Sim::new(1, MachineModel::default());
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        // Wide interval covers the full spectrum: Chebyshev iterates to the
        // solution (slowly but surely).
        let cheb = Chebyshev::new(&mut sim, &da, 10, 4000.0);
        let bg = vec![1.0; n];
        let b = DistVec::from_global(l.clone(), &bg);
        let mut x = DistVec::zeros(l.clone());
        cheb.smooth(&mut sim, &da, &b, &mut x, 60);
        let mut ax = vec![0.0; n];
        a.spmv(&x.to_global(), &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&bg)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 0.2 * (n as f64).sqrt(), "residual {err}");
    }
}
