//! The 3x3-blocked (BSR3) solve path against the scalar CSR reference.
//!
//! The blocked product accumulates in the same per-row order as the scalar
//! one, so routing the level operators through `Bsr3Matrix` must not change
//! a single bit of the solve: identical PCG iteration counts, identical
//! residual histories, identical solutions.

use pmg_bench::spheres_first_solve;
use pmg_parallel::DistMatrix;
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn opts() -> PrometheusOptions {
    PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Redistribute every level operator of `solver` through the scalar
/// `DistMatrix::from_global`: the same values on the same layouts, with no
/// blocked copy.
fn unblock(solver: &mut Prometheus) {
    for level in &mut solver.mg.levels {
        let l = level.a.row_layout().clone();
        level.a = DistMatrix::from_global(&level.a.to_global(), l.clone(), l);
    }
}

#[test]
fn bsr3_routed_pcg_is_bitwise_identical_to_csr() {
    let sys = spheres_first_solve(0);

    let mut blocked = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts());
    let mut scalar = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts());
    unblock(&mut scalar);

    // The spheres problem is 3 dofs/vertex with vertex-aligned layouts:
    // every level operator must actually take the blocked path.
    for (lvl, level) in blocked.mg.levels.iter().enumerate() {
        assert!(level.a.bsr3_routed(), "level {lvl} not BSR3-routed");
    }
    for (lvl, level) in scalar.mg.levels.iter().enumerate() {
        assert!(!level.a.bsr3_routed(), "level {lvl} routed after unblock");
    }

    let (xb, rb) = blocked.solve(&sys.rhs, None, 1e-8);
    let (xs, rs) = scalar.solve(&sys.rhs, None, 1e-8);

    assert!(rb.converged && rs.converged, "{rb:?} / {rs:?}");
    assert_eq!(rb.iterations, rs.iterations, "iteration counts diverged");
    assert_eq!(rb.residuals, rs.residuals, "residual histories diverged");
    assert_eq!(xb, xs, "solutions diverged");
}

#[test]
fn bsr3_smoother_sweep_is_bitwise_identical() {
    use pmg_parallel::DistVec;

    let sys = spheres_first_solve(0);
    let blocked = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts());
    let mut scalar = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts());
    unblock(&mut scalar);

    let run = |solver: &Prometheus| -> (Vec<f64>, Vec<f64>) {
        let mut sim = pmg_parallel::Sim::new(2, pmg_parallel::MachineModel::default());
        let level = &solver.mg.levels[0];
        let layout = level.a.row_layout().clone();
        let b = DistVec::from_global(layout.clone(), &sys.rhs);
        let mut x = DistVec::zeros(layout.clone());
        level.smoother.smooth(&mut sim, &level.a, &b, &mut x, 3);
        // One extra raw product through the routed operator.
        let mut y = DistVec::zeros(layout);
        level.a.spmv(&mut sim, &x, &mut y);
        (x.to_global(), y.to_global())
    };
    let (xb, yb) = run(&blocked);
    let (xs, ys) = run(&scalar);
    assert_eq!(xb, xs, "smoother sweeps diverged");
    assert_eq!(yb, ys, "spmv results diverged");
}
