//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7); `DESIGN.md` maps each to its paper artifact and
//! `EXPERIMENTS.md` records paper-vs-measured. Common setup (the spheres
//! ladder, its first constrained linear system, the rank schedule matching
//! the paper's processor counts) lives here.

use pmg_fem::bc::constrain_system;
use pmg_fem::SpheresProblem;
use pmg_mesh::{Mesh, SpheresParams};
use pmg_parallel::MachineModel;
use pmg_sparse::CsrMatrix;

/// The paper's processor ladder (Table 2): problem `k` ran on `P` CPUs.
pub const PAPER_RANKS: [usize; 8] = [2, 15, 50, 120, 240, 400, 640, 960];

/// Paper Table 2: MG-preconditioned PCG iterations in the first linear
/// solve per ladder point.
pub const PAPER_FIRST_SOLVE_ITERS: [usize; 8] = [29, 27, 22, 20, 20, 20, 20, 21];

/// Virtual ranks for ladder point `k` (1-based).
pub fn ranks_for(k: usize) -> usize {
    PAPER_RANKS[(k - 1).min(PAPER_RANKS.len() - 1)]
}

/// Ladder depth from the environment (`PMG_MAX_K`), with a default chosen
/// for the binary's runtime.
pub fn env_max_k(default: usize) -> usize {
    env_depth("PMG_MAX_K", default)
}

/// A ladder depth read from variable `name`: unset or empty is `default`.
///
/// # Panics
/// On anything but a non-negative integer — a mistyped depth must not
/// silently run the default ladder.
pub fn env_depth(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_depth(name, value.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

fn parse_depth(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None | Some("") => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v}: expected a non-negative integer")),
    }
}

/// The machine model used throughout (the paper's PowerPC cluster numbers).
pub fn machine() -> MachineModel {
    MachineModel::default()
}

/// Configure process-global telemetry for a bench binary from the
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

/// A built hierarchy's shape as an indented table under `label`:
/// per-level vertices, operator nonzeros and vertex reduction to the next
/// grid, then the operator complexity (Σ level nnz / fine nnz).
pub fn hierarchy_shape(label: &str, solver: &prometheus::Prometheus) -> String {
    use std::fmt::Write;
    let levels = &solver.mg.levels;
    let mut out = format!(
        "  {label}:\n    {:>5} {:>9} {:>10} {:>10}\n",
        "level", "vertices", "nnz", "reduction"
    );
    for (i, level) in levels.iter().enumerate() {
        let reduction = levels.get(i + 1).map_or("-".into(), |next| {
            format!(
                "{:.2}",
                level.num_vertices as f64 / next.num_vertices as f64
            )
        });
        let (nv, nnz) = (level.num_vertices, level.a.nnz());
        writeln!(out, "    {i:>5} {nv:>9} {nnz:>10} {reduction:>10}").unwrap();
    }
    let complexity = operator_complexity(solver);
    writeln!(out, "    operator complexity {complexity:.2}").unwrap();
    out
}

/// Relative tolerance used by the transport-parity runs.
pub const PARITY_RTOL: f64 = 1e-6;

/// Options for the transport-parity runs (the consistency tests, the
/// `spheres_rank` worker, and the daemon smoke client): the
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

/// Build the parity solver on whichever fine-operator backend
/// `PMG_FINE_OP` selects. The consistency tests and the `spheres_rank`
/// worker both construct through here, so a matrix run with
/// `PMG_FINE_OP=matrixfree` exercises the element-loop fine apply across
/// every transport without touching the callers.
pub fn parity_solver(
    sys: &FirstSolveSystem,
    opts: prometheus::PrometheusOptions,
) -> prometheus::Prometheus {
    match prometheus::FineOperator::from_env() {
        prometheus::FineOperator::MatrixFree => {
            let mut opts = opts;
            opts.mg.fine_operator = prometheus::FineOperator::MatrixFree;
            let mf = sys.matrix_free();
            prometheus::Prometheus::from_mesh_matrix_free(&sys.mesh, &sys.matrix, opts, &mf)
        }
        prometheus::FineOperator::Assembled => {
            prometheus::Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_switches_reject_anything_but_an_integer() {
        assert_eq!(parse_depth("PMG_MAX_K", None, 2), Ok(2));
        assert_eq!(parse_depth("PMG_MAX_K", Some(""), 2), Ok(2));
        assert_eq!(parse_depth("PMG_NONLINEAR_MAX_K", Some("0"), 2), Ok(0));
        let err = parse_depth("PMG_NONLINEAR_MAX_K", Some("x"), 2).unwrap_err();
        assert!(err.contains("PMG_NONLINEAR_MAX_K=x") && err.contains("integer"));
    }

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
        assert_eq!(ranks_for(1), 2);
        assert_eq!(ranks_for(5), 240);
        assert_eq!(ranks_for(99), 960);
    }
}
