//! The top-level solver API ("Prometheus" proper): give it a fine grid and
//! an assembled operator, get solutions back — with the whole simulated
//! parallel machine and its per-phase statistics inside.

use crate::mg::{MgHierarchy, MgOptions};
use pmg_mesh::Mesh;
use pmg_parallel::{DistVec, MachineModel, PhaseStats, Sim};
use pmg_solver::{pcg, PcgOptions, PcgResult};
use pmg_sparse::{CsrMatrix, Operator};
use std::collections::BTreeMap;

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct PrometheusOptions {
    /// Hierarchy construction and cycling options.
    pub mg: MgOptions,
    /// Virtual ranks of the simulated machine.
    pub nranks: usize,
    /// BSP machine model the simulated ranks are charged against.
    pub model: MachineModel,
    /// Face identification tolerance for the fine-grid classification.
    pub face_tol: f64,
    /// Krylov iteration cap.
    pub max_iters: usize,
}

impl Default for PrometheusOptions {
    fn default() -> Self {
        PrometheusOptions {
            mg: MgOptions::default(),
            nranks: 1,
            model: MachineModel::default(),
            face_tol: 0.7,
            max_iters: 200,
        }
    }
}

/// The solver: a multigrid hierarchy bound to a simulated machine.
pub struct Prometheus {
    /// The simulated parallel machine (virtual ranks + BSP accounting).
    pub sim: Sim,
    /// The multigrid hierarchy the setup built.
    pub mg: MgHierarchy,
    opts: PrometheusOptions,
    /// Dedicated thread pool when `MgOptions::threads` is `Some(n)`;
    /// otherwise all parallel kernels run on the process-global pool.
    pool: Option<rayon::ThreadPool>,
}

/// Build the dedicated pool requested by the options, if any.
fn pool_for(opts: &PrometheusOptions) -> Option<rayon::ThreadPool> {
    opts.mg.threads.map(|n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool build is infallible")
    })
}

/// Run `f` on the solver's pool (or inline on the current one).
fn on_pool<R>(pool: &Option<rayon::ThreadPool>, f: impl FnOnce() -> R) -> R {
    match pool {
        Some(p) => p.install(f),
        None => f(),
    }
}

impl Prometheus {
    /// Build from a finite element mesh and its assembled operator (3 dofs
    /// per vertex). This is the paper's usage: the solver needs only data
    /// "easily available in most finite element codes".
    pub fn from_mesh(mesh: &Mesh, a: &CsrMatrix, opts: PrometheusOptions) -> Prometheus {
        Self::build(mesh, a, opts, None)
    }

    /// [`from_mesh`](Self::from_mesh) with a matrix-free operator for the
    /// fine-grid apply: every solve-time level-0 `A x` routes through
    /// `matrix_free` (an element loop equal to `a`); the assembled `a` is
    /// still consumed for the Galerkin coarse grids and the smoother
    /// factorizations.
    pub fn from_mesh_matrix_free(
        mesh: &Mesh,
        a: &CsrMatrix,
        opts: PrometheusOptions,
        matrix_free: Box<dyn Operator>,
    ) -> Prometheus {
        Self::build(mesh, a, opts, Some(matrix_free))
    }

    fn build(
        mesh: &Mesh,
        a: &CsrMatrix,
        opts: PrometheusOptions,
        matrix_free: Option<Box<dyn Operator>>,
    ) -> Prometheus {
        let _t = pmg_telemetry::scope("setup");
        let pool = pool_for(&opts);
        let (sim, mg) = on_pool(&pool, || {
            let mut sim = Sim::new(opts.nranks, opts.model);
            sim.phase("mesh setup");
            let graph = mesh.vertex_graph();
            let classes = crate::classify::classify_mesh_parallel(mesh, opts.face_tol, opts.nranks);
            let mg = MgHierarchy::build_with_factory(
                &mut sim,
                a,
                &mesh.coords,
                &graph,
                &classes,
                opts.mg,
                matrix_free,
            );
            (sim, mg)
        });
        Prometheus {
            sim,
            mg,
            opts,
            pool,
        }
    }

    /// Solve `A x = b` to relative tolerance `rtol` with FMG-preconditioned
    /// CG, starting from `x0` (zeros if `None`). Returns the solution and
    /// the Krylov statistics; work is charged to the sim phase `"solve"`.
    pub fn solve(&mut self, b: &[f64], x0: Option<&[f64]>, rtol: f64) -> (Vec<f64>, PcgResult) {
        let _t = pmg_telemetry::scope("solve");
        let pool = self.pool.take();
        let out = on_pool(&pool, || {
            let layout = self.mg.levels[0].a.row_layout().clone();
            assert_eq!(b.len(), layout.num_global());
            self.sim.phase("solve");
            let db = DistVec::from_global(layout.clone(), b);
            let mut dx = match x0 {
                Some(x) => DistVec::from_global(layout, x),
                None => DistVec::zeros(layout),
            };
            let res = pcg(
                &mut self.sim,
                self.mg.fine_op(),
                &self.mg,
                &db,
                &mut dx,
                PcgOptions {
                    rtol,
                    max_iters: self.opts.max_iters,
                    ..Default::default()
                },
            );
            (dx.to_global(), res)
        });
        self.pool = pool;
        out
    }

    /// Replace the operator (new Newton tangent on the same mesh): re-runs
    /// only the matrix-setup phase, keeping the grid hierarchy.
    pub fn update_matrix(&mut self, a: &CsrMatrix) {
        let _t = pmg_telemetry::scope("setup");
        let pool = self.pool.take();
        on_pool(&pool, || self.mg.update_operator(&mut self.sim, a));
        self.pool = pool;
    }

    /// Grid sizes, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.mg.level_sizes()
    }

    /// Consume the solver and return the per-phase machine statistics.
    pub fn finish(self) -> BTreeMap<String, PhaseStats> {
        self.sim.finish()
    }

    /// Snapshot the process-global telemetry and bridge this solver's BSP
    /// machine-model phases (`"mesh setup"`, `"matrix setup"`, `"solve"`)
    /// into the same [`pmg_telemetry::Report`], so wall-clock scopes and
    /// modeled times land in one artifact. Unlike [`Prometheus::finish`]
    /// this does not consume the solver (the in-progress sim phase's wall
    /// time is not yet closed out).
    pub fn report(&self) -> pmg_telemetry::Report {
        // Publish the thread pool's cumulative scheduling stats as
        // `pool/*` gauges so they ride along in the snapshot (gauges, not
        // counters, so repeated report() calls don't double-count).
        let stats = match &self.pool {
            Some(p) => p.stats(),
            None => rayon::current_pool_stats(),
        };
        pmg_telemetry::gauge_set("pool/threads", stats.threads as f64);
        pmg_telemetry::gauge_set("pool/batches", stats.batches as f64);
        pmg_telemetry::gauge_set("pool/tasks", stats.tasks as f64);
        pmg_telemetry::gauge_set("pool/stolen_tasks", stats.stolen_tasks as f64);
        let mut report = pmg_telemetry::snapshot();
        let names: Vec<String> = self.sim.phase_names().map(str::to_string).collect();
        for name in names {
            let stats = self.sim.stats(&name).expect("listed phase exists");
            report.add_sim_phase(sim_phase_record(&name, stats));
        }
        report
    }
}

/// Convert one BSP-sim phase into the telemetry report's bridged form.
pub fn sim_phase_record(name: &str, stats: &PhaseStats) -> pmg_telemetry::SimPhaseRecord {
    pmg_telemetry::SimPhaseRecord {
        name: name.to_string(),
        modeled_s: stats.modeled_time,
        modeled_comm_s: stats.modeled_comm_time,
        wall_s: stats.wall_time,
        total_flops: stats.total_flops(),
        max_flops: stats.max_flops(),
        total_msgs: stats.ranks.iter().map(|r| r.msgs).sum(),
        total_bytes: stats.ranks.iter().map(|r| r.bytes).sum(),
        supersteps: stats.supersteps,
        load_balance: stats.load_balance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_fem::{FemProblem, LinearElastic};
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;
    use std::sync::Arc;

    /// A small elasticity problem with Dirichlet conditions applied.
    fn elasticity_system(n: usize) -> (Mesh, CsrMatrix, Vec<f64>) {
        let mesh = block(n, n, n, Vec3::splat(1.0), |_| 0);
        let ndof = mesh.num_dof();
        let mut fem = FemProblem::new(
            mesh.clone(),
            vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))],
        );
        let (k, _) = fem.assemble(&vec![0.0; ndof]);
        // Clamp the z=0 face, pull the top face in z.
        let mut fixed = Vec::new();
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.z == 0.0 {
                for c in 0..3 {
                    fixed.push((3 * v as u32 + c, 0.0));
                }
            }
        }
        let mut f = vec![0.0; ndof];
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.z == 1.0 {
                f[3 * v + 2] = 0.01;
            }
        }
        let (kc, rhs) = pmg_fem::bc::constrain_system(&k, &f, &fixed);
        // rhs = -f; we want to solve K u = f, so negate.
        let b: Vec<f64> = rhs.iter().map(|v| -v).collect();
        (mesh, kc, b)
    }

    #[test]
    fn solves_3d_elasticity_with_mg() {
        let (mesh, k, b) = elasticity_system(6); // 1029 dof
        let opts = PrometheusOptions {
            nranks: 2,
            mg: MgOptions {
                coarse_dof_threshold: 200,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut solver = Prometheus::from_mesh(&mesh, &k, opts);
        assert!(solver.level_sizes().len() >= 2);
        let (x, res) = solver.solve(&b, None, 1e-8);
        assert!(res.converged, "{res:?}");
        assert!(res.iterations < 60, "{} iterations", res.iterations);
        let mut ax = vec![0.0; b.len()];
        k.spmv(&x, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&b)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-6 * bn);
        // Phase stats exist.
        let phases = solver.finish();
        assert!(phases.contains_key("solve"));
        assert!(phases.contains_key("matrix setup"));
        assert!(phases["solve"].total_flops() > 0);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (mesh, k, b) = elasticity_system(5);
        let opts = PrometheusOptions {
            mg: MgOptions {
                coarse_dof_threshold: 150,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut solver = Prometheus::from_mesh(&mesh, &k, opts);
        let (x, _) = solver.solve(&b, None, 1e-10);
        let (_, res2) = solver.solve(&b, Some(&x), 1e-10);
        assert_eq!(res2.iterations, 0, "warm start from the answer");
    }
}
