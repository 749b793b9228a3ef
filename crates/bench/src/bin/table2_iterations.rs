//! Table 2: "Number of iterations for first linear solve and total
//! nonlinear solve" across the weak-scaling ladder.
//!
//! Columns reproduced: equations, processors, MG-preconditioned PCG
//! iterations in the first linear solve (rtol 1e-4), total PCG iterations
//! in the nonlinear solve, total Newton iterations, average PCG per linear
//! solve, and the modeled aggregate Mflop/s in the MG iterations.
//!
//! All solver-side numbers come from the telemetry report
//! ([`Prometheus::report`]): `pcg/iterations`, the `pcg/residuals` series,
//! and the bridged `"solve"` sim phase. Set `PMG_TELEMETRY=json` or
//! `=table` to also emit one full per-ladder-point report through the
//! configured sink.
//!
//! Usage: `table2_iterations` — scales with `PMG_MAX_K` (default 2; the
//! paper's ladder has 8 points) and `PMG_NONLINEAR_MAX_K=0` to skip the
//! ten-step Newton study.

use pmg_bench::{
    env_depth, env_max_k, machine, ranks_for, spheres_first_solve, telemetry_from_env,
    PAPER_FIRST_SOLVE_ITERS,
};
use pmg_fem::{NewtonDriver, NewtonOptions};
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn main() {
    let mut sink = telemetry_from_env();
    let max_k = env_max_k(2);
    // The ten-step Newton study multiplies cost ~50x; cap its ladder depth
    // separately (PMG_NONLINEAR_MAX_K, default 2; 0 disables it).
    let nonlinear_max_k = env_depth("PMG_NONLINEAR_MAX_K", 2);
    let nsteps = 10;

    println!("# Table 2 reproduction (paper values in parentheses where applicable)");
    println!(
        "{:>10} {:>5} {:>18} {:>12} {:>8} {:>10} {:>14}",
        "equations", "P", "1st-solve iters", "total PCG", "Newton", "avg PCG", "Mflop/s (mdl)"
    );

    for k in 1..=max_k {
        pmg_telemetry::reset();
        pmg_telemetry::label("bench", "table2_iterations");
        pmg_telemetry::label("ladder_k", &k.to_string());
        let p = ranks_for(k);
        let sys = spheres_first_solve(k);
        let ndof = sys.mesh.num_dof();
        let opts = PrometheusOptions {
            nranks: p,
            model: machine(),
            mg: MgOptions {
                coarse_dof_threshold: 600,
                ..Default::default()
            },
            max_iters: 400,
            ..Default::default()
        };

        // First linear solve at the paper's rtol = 1e-4.
        let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
        let (_, res) = solver.solve(&sys.rhs, None, 1e-4);
        let first_iters = res.iterations;
        let paper_iters = PAPER_FIRST_SOLVE_ITERS.get(k - 1).copied();

        let (total_pcg, total_newton) = if k <= nonlinear_max_k {
            let mut problem = sys.problem;
            let mut u = vec![0.0; ndof];
            let driver = NewtonDriver::new(NewtonOptions::default());
            let mut total_pcg = 0usize;
            let mut total_newton = 0usize;
            for step in 1..=nsteps {
                let bcs = problem.bcs_for_step(step, nsteps);
                let stats = {
                    let mut solve = |kc: &pmg_sparse::CsrMatrix, rhs: &[f64], rtol: f64| {
                        // Matrix setup phase: reuse the grids, re-Galerkin.
                        solver.update_matrix(kc);
                        let (x, r) = solver.solve(rhs, None, rtol);
                        (x, r.iterations)
                    };
                    driver.solve_step(&mut problem.fem, &mut u, &bcs, &mut solve)
                };
                total_pcg += stats.linear_iters.iter().sum::<usize>();
                total_newton += stats.newton_iters;
            }
            (Some(total_pcg), Some(total_newton))
        } else {
            (None, None)
        };

        let report = solver.report();
        // Total PCG iterations of this ladder point are also in the
        // report's counter (first solve + all Newton solves); the table's
        // nonlinear columns come from the Newton driver's statistics.
        let solve_phase = report
            .sim_phases
            .iter()
            .find(|s| s.name == "solve")
            .cloned()
            .unwrap_or_default();
        let mflops = if solve_phase.modeled_s > 0.0 {
            solve_phase.total_flops as f64 / solve_phase.modeled_s / 1e6
        } else {
            0.0
        };
        sink.emit(&report).expect("emit telemetry report");
        let avg = match (total_pcg, total_newton) {
            (Some(p_), Some(n_)) if n_ > 0 => format!("{:.0}", p_ as f64 / n_ as f64),
            _ => "-".into(),
        };
        println!(
            "{:>10} {:>5} {:>11} {:>6} {:>12} {:>8} {:>10} {:>14.0}",
            ndof,
            p,
            first_iters,
            paper_iters.map(|v| format!("({v})")).unwrap_or_default(),
            total_pcg.map(|v| v.to_string()).unwrap_or("-".into()),
            total_newton.map(|v| v.to_string()).unwrap_or("-".into()),
            avg,
            mflops,
        );
    }
    println!(
        "\npaper row (39.2M dof, P=960): first solve 21, total PCG 3215, Newton 70, 19253 Mflop/s"
    );
}
