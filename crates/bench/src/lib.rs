//! Shared harness for reproducing the paper's evaluation (§7).
//!
//! [`paper`] computes every table and figure; the `reproduce` binary prints
//! them and writes them into `EXPERIMENTS.md`, and `tests/paper_tables.rs`
//! gates their exact columns at k = 1. Common setup (the spheres ladder,
//! its first constrained linear system, the rank schedule matching the
//! paper's processor counts) lives here, next to the transport-parity
//! problem the consistency tests, `spheres_rank` and the daemon share.

use pmg_fem::bc::constrain_system;
use pmg_fem::SpheresProblem;
use pmg_mesh::{Mesh, SpheresParams};
use pmg_sparse::CsrMatrix;

pub mod paper;
pub mod table;

/// The paper's processor ladder (Table 2): problem `k` ran on `P` CPUs.
pub const PAPER_RANKS: [usize; 8] = [2, 15, 50, 120, 240, 400, 640, 960];

/// Paper Table 2: MG-preconditioned PCG iterations in the first linear
/// solve per ladder point.
pub const PAPER_FIRST_SOLVE_ITERS: [usize; 8] = [29, 27, 22, 20, 20, 20, 20, 21];

/// Virtual ranks for ladder point `k` (1-based; the tiny `k = 0` runs on
/// the first point's two).
pub fn ranks_for(k: usize) -> usize {
    PAPER_RANKS[k.clamp(1, PAPER_RANKS.len()) - 1]
}

/// The ladder's solver options: ladder point `k` on the paper's processor
/// count, with a Krylov cap the first solve never reaches.
pub fn paper_options(k: usize) -> prometheus::PrometheusOptions {
    prometheus::PrometheusOptions {
        nranks: ranks_for(k),
        max_iters: 400,
        ..Default::default()
    }
}

/// Configure process-global telemetry for the daemon from the
/// environment: collection is switched on exactly when `PMG_TELEMETRY`
/// selects a real sink (`table` or `json`; see
/// [`pmg_telemetry::sink_from_env`]), and the matching sink is returned
/// ([`pmg_telemetry::NoopSink`] otherwise, keeping the hot paths free).
pub fn telemetry_from_env() -> Box<dyn pmg_telemetry::Sink> {
    let on = matches!(
        std::env::var("PMG_TELEMETRY").as_deref(),
        Ok("table") | Ok("json")
    );
    pmg_telemetry::set_enabled(on);
    pmg_telemetry::sink_from_env().expect("telemetry sink from PMG_TELEMETRY/PMG_TELEMETRY_FILE")
}

/// The spheres problem with its first-step constrained linear system
/// (tangent at zero displacement, first crush increment applied).
pub struct FirstSolveSystem {
    pub mesh: Mesh,
    pub matrix: CsrMatrix,
    pub rhs: Vec<f64>,
    pub problem: SpheresProblem,
    /// Constrained dofs (the Dirichlet rows of `matrix`).
    pub fixed: Vec<u32>,
    /// Diagonal scale `constrain_system` placed on those rows.
    pub scale: f64,
}

impl FirstSolveSystem {
    /// The element-loop operator equivalent to `matrix`: same Dirichlet
    /// rows, same tangent (at zero displacement), no assembled rows.
    pub fn matrix_free(&self) -> pmg_fem::MatFreeOperator {
        let zeros = vec![0.0; self.mesh.num_dof()];
        pmg_fem::MatFreeOperator::new(&self.problem.fem, &zeros, &self.fixed, self.scale)
    }
}

/// Build ladder point `k`'s first-solve system (`k = 0` selects the tiny
/// test configuration).
pub fn spheres_first_solve(k: usize) -> FirstSolveSystem {
    spheres_first_solve_of(&if k == 0 {
        SpheresParams::tiny()
    } else {
        SpheresParams::ladder(k)
    })
}

/// [`spheres_first_solve`] for any spheres mesh — the benchmark's `cold10k`
/// is ladder point 1 with a coarser surface grid.
pub fn spheres_first_solve_of(params: &SpheresParams) -> FirstSolveSystem {
    let mut problem = pmg_fem::spheres_problem(params);
    let mesh = problem.fem.mesh.clone();
    let ndof = mesh.num_dof();
    let (kmat, r) = problem.fem.assemble(&vec![0.0; ndof]);
    let bcs = problem.bcs_for_step(1, 10);
    let fixed_pairs: Vec<(u32, f64)> = bcs.iter().map(|b| (b.dof, b.value)).collect();
    let (matrix, rhs) = constrain_system(&kmat, &r, &fixed_pairs);
    let scale = pmg_fem::bc::constraint_scale(&kmat, &fixed_pairs);
    FirstSolveSystem {
        mesh,
        matrix,
        rhs,
        problem,
        fixed: fixed_pairs.iter().map(|&(d, _)| d).collect(),
        scale,
    }
}

/// Operator complexity of a built hierarchy: Σ level nnz / fine nnz.
pub fn operator_complexity(solver: &prometheus::Prometheus) -> f64 {
    let nnz = solver.mg.levels.iter().map(|l| l.a.nnz());
    nnz.sum::<usize>() as f64 / solver.mg.levels[0].a.nnz() as f64
}

/// Relative tolerance used by the transport-parity runs.
pub const PARITY_RTOL: f64 = 1e-6;

/// Options for the transport-parity runs (the consistency tests, the
/// `spheres_rank` worker, and the daemon's spec entries): the
/// tiny spheres problem over `nranks` ranks with a coarse threshold low
/// enough to give a multi-level hierarchy. Every transport must reproduce
/// the simulated solve bitwise under these options, so both the test and
/// the worker binary must build from this one definition.
pub fn parity_options(nranks: usize) -> prometheus::PrometheusOptions {
    prometheus::PrometheusOptions {
        nranks,
        mg: prometheus::MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The parity problem's ingest plan over `nranks` ranks: classified,
/// partitioned and planned the way `Prometheus::from_mesh` lays it out
/// under [`parity_options`], so a hierarchy built from it by
/// `build_from_shards` solves bit for bit like the simulated solver. The
/// `spheres_rank` worker's rank 0 plans with it; in-process callers build
/// through [`parity_setups`].
pub fn parity_plan(sys: &FirstSolveSystem, nranks: usize) -> prometheus::IngestPlan {
    let (mesh, opts) = (&sys.mesh, parity_options(nranks));
    let graph = mesh.vertex_graph();
    let classes = prometheus::classify_mesh_parallel(mesh, opts.face_tol, nranks);
    let part = pmg_partition::recursive_coordinate_bisection(&mesh.coords, nranks);
    let elem_counts: Vec<u32> = pmg_mesh::shard_mesh(mesh, &part, nranks)
        .iter()
        .map(|s| s.mesh.num_elements() as u32)
        .collect();
    prometheus::plan_ingest_with_part(
        &mesh.coords,
        &graph,
        &classes,
        &elem_counts,
        part,
        nranks,
        &opts.mg,
    )
}

/// The parity problem's sharded hierarchy over `nranks` rank threads
/// ([`parity_plan`], each rank taking its owned rows of `sys.matrix`), in
/// rank order for `prometheus::solve_threads`.
pub fn parity_setups(
    sys: &FirstSolveSystem,
    nranks: usize,
) -> Result<Vec<prometheus::DistributedSetup>, pmg_comm::CommError> {
    let plan = parity_plan(sys, nranks);
    let opts = parity_options(nranks).mg;
    let vlayout = pmg_parallel::Layout::from_part(plan.part().to_vec(), nranks);
    let layout = pmg_parallel::Layout::expand_dofs(&vlayout, opts.dofs_per_vertex);
    prometheus::build_threads(
        &plan,
        |rank| sys.matrix.extract_rows(layout.owned(rank)),
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_solve_system_builds() {
        let sys = spheres_first_solve(0);
        assert_eq!(sys.matrix.nrows(), sys.mesh.num_dof());
        assert_eq!(sys.rhs.len(), sys.mesh.num_dof());
        assert!(sys.matrix.is_symmetric(1e-10));
        // The crush increment shows up in the rhs.
        assert!(sys.rhs.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn rank_ladder() {
        assert_eq!(ranks_for(0), 2);
        assert_eq!(ranks_for(1), 2);
        assert_eq!(ranks_for(5), 240);
        assert_eq!(ranks_for(99), 960);
    }
}
