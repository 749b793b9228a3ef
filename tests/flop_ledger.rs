//! The simulated machine's flop ledger charges a set-up phase only the
//! work that phase did. The kernels count into one process-global
//! counter, so this binary holds one test: `cargo test` would run a
//! second one on a parallel thread, adding its flops mid-measurement.

use prometheus::{Prometheus, PrometheusOptions};

fn phase_flops(solver: &Prometheus, phase: &str) -> u64 {
    solver.sim.stats(phase).map_or(0, |s| s.total_flops())
}

/// The flops `update_matrix` charges to "matrix setup".
fn resetup_flops(solver: &mut Prometheus, a: &pmg_sparse::CsrMatrix) -> u64 {
    let before = phase_flops(solver, "matrix setup");
    solver.update_matrix(a);
    phase_flops(solver, "matrix setup") - before
}

#[test]
fn setup_phases_are_charged_only_their_own_flops() {
    // Assembling the system leaves its flops on the counter.
    let sys = pmg_bench::spheres_first_solve(0);
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, PrometheusOptions::default());
    let mesh_setup = phase_flops(&solver, "mesh setup");
    let cold = resetup_flops(&mut solver, &sys.matrix);
    let (_, res) = solver.solve(&sys.rhs, None, 1e-6);
    assert!(res.converged);
    let after_solve = resetup_flops(&mut solver, &sys.matrix);
    println!("mesh setup {mesh_setup}, re-setup {cold} cold / {after_solve} after a solve");
    // Coarsening counts no kernel flops, so a fresh build's "mesh setup"
    // holds none of the caller's assembly.
    assert_eq!(mesh_setup, 0);
    // A Newton re-setup costs the same whether or not a solve ran first.
    assert_eq!(cold, 14_501_845);
    assert_eq!(after_solve, cold);
}
