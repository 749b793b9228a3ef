//! Ablation: the coarsest-grid direct-solve threshold.
//!
//! §5: "All components of multigrid can scale reasonably well (except for
//! the coarsest grids, whose size remains constant as the problem size
//! increases and is thus not a hindrance to scalability)". The threshold
//! trades hierarchy depth against coarse direct-solve cost: too small and
//! the hierarchy grows deep (more latency-bound levels); too large and the
//! gathered dense factorization dominates.
//!
//! Usage: `coarse_size_study [k]` (ladder point, default 1).

use pmg_bench::{hierarchy_shape, machine, operator_complexity, ranks_for, spheres_first_solve};
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let p = if k == 0 { 2 } else { ranks_for(k) };
    let sys = spheres_first_solve(k);
    println!(
        "# coarse-grid threshold study on the {} dof spheres first solve (rtol 1e-4)",
        sys.mesh.num_dof()
    );
    println!(
        "{:>10} {:>7} {:>6} {:>8} {:>13} {:>13} | hierarchy",
        "threshold", "levels", "iters", "op cx", "setup mdl s", "solve mdl s"
    );
    let mut at_default = String::new();
    for threshold in [100, 300, 600, 1500, 4000] {
        let opts = PrometheusOptions {
            nranks: p,
            model: machine(),
            mg: MgOptions {
                coarse_dof_threshold: threshold,
                ..Default::default()
            },
            max_iters: 400,
            ..Default::default()
        };
        let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
        let sizes = solver.level_sizes();
        let complexity = operator_complexity(&solver);
        let (_, res) = solver.solve(&sys.rhs, None, 1e-4);
        if threshold == MgOptions::default().coarse_dof_threshold {
            at_default = hierarchy_shape("at the default threshold", &solver);
        }
        let phases = solver.finish();
        println!(
            "{:>10} {:>7} {:>6} {:>8.2} {:>13.3} {:>13.3} | {:?}",
            threshold,
            sizes.len(),
            if res.converged {
                res.iterations.to_string()
            } else {
                format!(">{}", res.iterations)
            },
            complexity,
            phases["matrix setup"].modeled_time,
            phases["solve"].modeled_time,
            sizes,
        );
    }
    print!("{at_default}");
    println!("\n(deep hierarchies pay per-level latency; shallow ones pay the dense");
    println!(" coarse factorization and its gather — the sweet spot is in between)");
}
