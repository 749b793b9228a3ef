//! Full Newton nonlinear driver with the paper's dynamic linear tolerance.
//!
//! §7.2: "We use a dynamic convergence tolerance rtol for the linear solve
//! in each Newton iteration of rtol₁ = 10⁻⁴ in the first iteration and
//! rtolₘ = min(10⁻³, ‖rₘ‖/‖rₘ₋₁‖ · 10⁻¹) on all subsequent iterations.
//! [...] convergence is declared when the energy norm of the correction is
//! [a small factor] times that of the first correction."

use crate::assembly::FemProblem;
use crate::bc::{constrain_system, DirichletBc};
use pmg_sparse::CsrMatrix;

/// Newton iteration controls.
#[derive(Clone, Copy, Debug)]
pub struct NewtonOptions {
    pub max_iters: usize,
    /// Relative energy-norm convergence:
    /// `|Δuₘᵀ rhsₘ| ≤ energy_rtol · |Δu₀ᵀ rhs₀|`. The paper uses 1e-20 with
    /// exact assembly; 1e-16 is equivalent at f64 precision.
    pub energy_rtol: f64,
    /// Absolute energy floor: below this the step counts as converged (a
    /// re-solved step whose first correction is already roundoff).
    pub energy_atol: f64,
    /// Linear rtol of the first Newton iteration (paper: 1e-4).
    pub rtol_first: f64,
    /// Cap of the dynamic linear rtol (paper: 1e-3).
    pub rtol_cap: f64,
    /// Dynamic factor (paper: 1e-1).
    pub rtol_factor: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iters: 20,
            energy_rtol: 1e-16,
            energy_atol: 1e-26,
            rtol_first: 1e-4,
            rtol_cap: 1e-3,
            rtol_factor: 1e-1,
        }
    }
}

/// Statistics of one load step.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    pub newton_iters: usize,
    /// Linear solver iterations per Newton iteration.
    pub linear_iters: Vec<usize>,
    /// ‖rhs‖ per Newton iteration (free-dof residual norm).
    pub residual_norms: Vec<f64>,
    /// |Δuᵀ rhs| per Newton iteration.
    pub energies: Vec<f64>,
    pub converged: bool,
}

/// Statistics of a multi-step nonlinear solve.
#[derive(Clone, Debug, Default)]
pub struct NewtonStats {
    pub steps: Vec<StepStats>,
    /// Fraction of yielded hard-material Gauss points after each step
    /// (Figure 13 left).
    pub yielded: Vec<f64>,
}

/// The linear solver callback: `(K, rhs, rtol) -> (Δu, iterations)`.
pub type LinearSolve<'a> = dyn FnMut(&CsrMatrix, &[f64], f64) -> (Vec<f64>, usize) + 'a;

/// The Newton driver. The linear solver is injected as a callback
/// `(K, rhs, rtol) -> (Δu, iterations)` so the same driver runs with the
/// multigrid solver, a one-level baseline, or a direct solver.
pub struct NewtonDriver {
    pub opts: NewtonOptions,
}

impl NewtonDriver {
    pub fn new(opts: NewtonOptions) -> NewtonDriver {
        NewtonDriver { opts }
    }

    /// Solve one load step: drive `u` so the constrained dofs reach their
    /// prescribed values and the free-dof residual vanishes.
    pub fn solve_step(
        &self,
        problem: &mut FemProblem,
        u: &mut [f64],
        bcs: &[DirichletBc],
        solve: &mut LinearSolve,
    ) -> StepStats {
        let mut stats = StepStats::default();
        let mut prev_rnorm: Option<f64> = None;
        let mut first_energy: Option<f64> = None;

        for m in 0..self.opts.max_iters {
            let (k, r) = problem.assemble(u);
            // First iteration carries the BC increment; afterwards the
            // constrained dofs are already at their targets.
            let fixed: Vec<(u32, f64)> = bcs
                .iter()
                .map(|bc| (bc.dof, bc.value - u[bc.dof as usize]))
                .collect();
            let (kc, rhs) = constrain_system(&k, &r, &fixed);
            let rnorm = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
            stats.residual_norms.push(rnorm);

            let rtol = match prev_rnorm {
                None => self.opts.rtol_first,
                Some(prev) => {
                    let ratio = if prev > 0.0 { rnorm / prev } else { 0.0 };
                    (self.opts.rtol_factor * ratio).min(self.opts.rtol_cap)
                }
            };
            prev_rnorm = Some(rnorm);

            let (du, iters) = solve(&kc, &rhs, rtol.max(1e-14));
            stats.linear_iters.push(iters);
            stats.newton_iters = m + 1;
            for (ui, di) in u.iter_mut().zip(&du) {
                *ui += di;
            }

            let energy: f64 = du.iter().zip(&rhs).map(|(a, b)| a * b).sum::<f64>().abs();
            stats.energies.push(energy);
            if energy <= self.opts.energy_atol {
                // First correction already at roundoff: nothing to solve.
                stats.converged = true;
                break;
            }
            match first_energy {
                None => {
                    first_energy = Some(energy.max(1e-300));
                }
                Some(e0) => {
                    if energy <= self.opts.energy_rtol * e0 {
                        stats.converged = true;
                        break;
                    }
                }
            }
        }
        // Re-evaluate the history at the final displacement, then commit.
        let _ = problem.assemble(u);
        problem.commit();
        pmg_telemetry::counter_add("newton/steps", 1);
        pmg_telemetry::counter_add("newton/iterations", stats.newton_iters as u64);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::NeoHookean;
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;
    use pmg_sparse::dense::Cholesky;
    use std::sync::Arc;

    fn direct_solve(k: &CsrMatrix, rhs: &[f64], _rtol: f64) -> (Vec<f64>, usize) {
        // The constrained tangent is SPD.
        let ch = Cholesky::factor(&k.to_dense()).unwrap();
        (ch.solve(rhs), 1)
    }

    #[test]
    fn crush_one_hex_converges() {
        let mesh = block(1, 1, 1, Vec3::splat(1.0), |_| 0);
        let mut prob = crate::assembly::FemProblem::new(
            mesh.clone(),
            vec![Arc::new(NeoHookean::from_e_nu(1.0, 0.3))],
        );
        let mut u = vec![0.0; prob.ndof()];
        // Fix bottom in z, sides symmetric, crush top by 10%.
        let mut bcs = Vec::new();
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.x == 0.0 {
                bcs.push(DirichletBc {
                    dof: 3 * v as u32,
                    value: 0.0,
                });
            }
            if p.y == 0.0 {
                bcs.push(DirichletBc {
                    dof: 3 * v as u32 + 1,
                    value: 0.0,
                });
            }
            if p.z == 0.0 {
                bcs.push(DirichletBc {
                    dof: 3 * v as u32 + 2,
                    value: 0.0,
                });
            }
            if p.z == 1.0 {
                bcs.push(DirichletBc {
                    dof: 3 * v as u32 + 2,
                    value: -0.1,
                });
            }
        }
        let driver = NewtonDriver::new(NewtonOptions::default());
        let stats = driver.solve_step(&mut prob, &mut u, &bcs, &mut direct_solve);
        assert!(stats.converged, "{stats:?}");
        assert!(stats.newton_iters <= 10);
        // Top surface reached the prescribed displacement.
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.z == 1.0 {
                assert!((u[3 * v + 2] + 0.1).abs() < 1e-12);
            }
        }
        // Residual norms decay.
        let first = stats.residual_norms[1];
        let last = *stats.residual_norms.last().unwrap();
        assert!(last < 1e-6 * first.max(1e-30) || last < 1e-12);
    }

    #[test]
    fn second_step_continues_from_first() {
        let mesh = block(1, 1, 1, Vec3::splat(1.0), |_| 0);
        let mut prob = crate::assembly::FemProblem::new(
            mesh.clone(),
            vec![Arc::new(NeoHookean::from_e_nu(1.0, 0.3))],
        );
        let mut u = vec![0.0; prob.ndof()];
        let driver = NewtonDriver::new(NewtonOptions::default());
        let make_bcs = |crush: f64| -> Vec<DirichletBc> {
            let mut bcs = Vec::new();
            for (v, p) in mesh.coords.iter().enumerate() {
                if p.x == 0.0 {
                    bcs.push(DirichletBc {
                        dof: 3 * v as u32,
                        value: 0.0,
                    });
                }
                if p.y == 0.0 {
                    bcs.push(DirichletBc {
                        dof: 3 * v as u32 + 1,
                        value: 0.0,
                    });
                }
                if p.z == 0.0 {
                    bcs.push(DirichletBc {
                        dof: 3 * v as u32 + 2,
                        value: 0.0,
                    });
                }
                if p.z == 1.0 {
                    bcs.push(DirichletBc {
                        dof: 3 * v as u32 + 2,
                        value: -crush,
                    });
                }
            }
            bcs
        };
        let s1 = driver.solve_step(&mut prob, &mut u, &make_bcs(0.05), &mut direct_solve);
        let s2 = driver.solve_step(&mut prob, &mut u, &make_bcs(0.10), &mut direct_solve);
        assert!(s1.converged && s2.converged);
        // Solving the same step again is a no-op (already converged).
        let s3 = driver.solve_step(&mut prob, &mut u, &make_bcs(0.10), &mut direct_solve);
        assert!(s3.converged);
        assert!(s3.newton_iters <= 2, "{}", s3.newton_iters);
    }

    #[test]
    fn dynamic_rtol_schedule() {
        // The first linear solve uses rtol_first, later ones never exceed
        // rtol_cap.
        let mesh = block(1, 1, 1, Vec3::splat(1.0), |_| 0);
        let mut prob = crate::assembly::FemProblem::new(
            mesh.clone(),
            vec![Arc::new(NeoHookean::from_e_nu(1.0, 0.3))],
        );
        let mut u = vec![0.0; prob.ndof()];
        let mut bcs = Vec::new();
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.z == 0.0 {
                for c in 0..3 {
                    bcs.push(DirichletBc {
                        dof: 3 * v as u32 + c,
                        value: 0.0,
                    });
                }
            }
            if p.z == 1.0 {
                bcs.push(DirichletBc {
                    dof: 3 * v as u32 + 2,
                    value: -0.15,
                });
            }
        }
        let mut rtols = Vec::new();
        let mut solve = |k: &CsrMatrix, rhs: &[f64], rtol: f64| {
            rtols.push(rtol);
            direct_solve(k, rhs, rtol)
        };
        let driver = NewtonDriver::new(NewtonOptions::default());
        let stats = driver.solve_step(&mut prob, &mut u, &bcs, &mut solve);
        assert!(stats.converged);
        assert_eq!(rtols[0], 1e-4);
        for &t in &rtols[1..] {
            assert!(t <= 1e-3 + 1e-15);
        }
    }
}
