//! Ablation: the paper's block-Jacobi smoother vs Chebyshev polynomial
//! smoothing inside the same multigrid hierarchy, on the spheres first
//! solve. Chebyshev needs no factorizations (cheaper matrix setup) and no
//! inner products (cheaper at scale); block Jacobi usually wins on
//! iteration count for rough coefficients.
//!
//! Besides the modelled flops it prints wall-clock seconds, medians of
//! `REPS` runs: a cold `from_mesh` set-up, its solve and their sum, and a
//! warm `update_matrix` + solve on the built hierarchy (a Newton
//! iteration's linear work).
//!
//! Usage: `smoother_ablation [k]` — ladder point `k` (default 1) on the
//! paper's rank schedule at rtol 1e-4, or `10k` for the benchmark's
//! `cold10k` configuration (ladder point 1 with a 6-facet surface grid,
//! default options, rtol 1e-6). Pin `PMG_THREADS` for comparable seconds.

use pmg_bench::{machine, ranks_for, spheres_first_solve, spheres_first_solve_of};
use pmg_mesh::SpheresParams;
use prometheus::{mg::SmootherType, MgOptions, Prometheus, PrometheusOptions};
use std::time::Instant;

/// Timed repetitions per smoother (after one untimed build that supplies
/// the flop columns).
const REPS: usize = 7;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let arg = std::env::args().nth(1);
    let (sys, base, rtol) = if arg.as_deref() == Some("10k") {
        let params = SpheresParams {
            n_surf: 6,
            ..SpheresParams::ladder(1)
        };
        (
            spheres_first_solve_of(&params),
            PrometheusOptions::default(),
            1e-6,
        )
    } else {
        let k: usize = arg.and_then(|s| s.parse().ok()).unwrap_or(1);
        let opts = PrometheusOptions {
            nranks: if k == 0 { 2 } else { ranks_for(k) },
            model: machine(),
            mg: MgOptions {
                coarse_dof_threshold: 600,
                ..Default::default()
            },
            max_iters: 400,
            ..Default::default()
        };
        (spheres_first_solve(k), opts, 1e-4)
    };
    println!(
        "# smoother ablation on the {} dof spheres first solve (rtol {rtol:.0e}, {} ranks; wall s: medians of {REPS})",
        sys.mesh.num_dof(),
        base.nranks
    );
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "smoother",
        "iters",
        "setup Gflop",
        "solve Gflop",
        "mdl solve s",
        "setup s",
        "solve s",
        "cold s",
        "warm upd+sol"
    );
    for (label, smoother) in [
        ("block Jacobi (paper)", SmootherType::BlockJacobi),
        ("Chebyshev deg 2", SmootherType::Chebyshev { degree: 2 }),
        ("Chebyshev deg 4", SmootherType::Chebyshev { degree: 4 }),
    ] {
        let opts = PrometheusOptions {
            mg: MgOptions {
                smoother,
                ..base.mg
            },
            ..base
        };
        let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
        let (_, res) = solver.solve(&sys.rhs, None, rtol);
        let phases = solver.finish();

        let (mut setup, mut solve, mut cold, mut warm) = (vec![], vec![], vec![], vec![]);
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
            let t1 = Instant::now();
            solver.solve(&sys.rhs, None, rtol);
            let t2 = Instant::now();
            solver.update_matrix(&sys.matrix);
            solver.solve(&sys.rhs, None, rtol);
            let t3 = Instant::now();
            setup.push((t1 - t0).as_secs_f64());
            solve.push((t2 - t1).as_secs_f64());
            cold.push((t2 - t0).as_secs_f64());
            warm.push((t3 - t2).as_secs_f64());
        }
        println!(
            "{:<22} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>10.4} {:>10.4} {:>10.4} {:>12.4}",
            label,
            if res.converged {
                res.iterations.to_string()
            } else {
                format!(">{}", res.iterations)
            },
            phases["matrix setup"].total_flops() as f64 / 1e9,
            phases["solve"].total_flops() as f64 / 1e9,
            phases["solve"].modeled_time,
            median(setup),
            median(solve),
            median(cold),
            median(warm),
        );
    }
    println!("\n(block Jacobi pays block factorizations in matrix setup; Chebyshev");
    println!(" pays extra SpMVs per smoothing step instead)");
}
