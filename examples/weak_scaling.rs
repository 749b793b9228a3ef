//! A miniature of the paper's weak-scaling study (§7.1): solve the first
//! linear system of the spheres problem on the refinement ladder, with the
//! virtual-rank count growing with the problem, and report the quantities
//! of Table 2 / Figures 10-11: iteration counts, per-phase times, flop
//! rates and efficiencies.
//!
//! Run with:
//! `cargo run --release --example weak_scaling [max_k] [--transport sim|threads]`
//! (`max_k` = 2 by default; 3 adds a ~420k dof point and a few minutes).
//!
//! `--transport sim` (default) runs only the orchestrated single-address-
//! space solve, whose comm columns are *modeled* BSP quantities.
//! `--transport threads` additionally re-runs each set-up and solve with
//! every rank as a real OS thread that builds its own share of the
//! hierarchy and exchanges messages over the in-process transport, and
//! prints the *measured* solve traffic (messages, bytes, per-phase wait
//! time) under the modeled row — the solution is verified bitwise
//! identical to the sim path. Note each ladder point spawns P real
//! threads, so this mode is only sensible for the small ladder points.
//!
//! The full study with all series lives in `crates/bench/src/bin/`.

use prometheus_repro::fem::bc::constrain_system;
use prometheus_repro::krylov::PcgOptions;
use prometheus_repro::mesh::SpheresParams;
use prometheus_repro::parallel::Layout;
use prometheus_repro::solver::{
    build_threads, classify_mesh_parallel, plan_ingest, solve_threads, MgOptions, Prometheus,
    PrometheusOptions,
};
use std::time::Instant;

/// Rank ladder mirroring the paper's processor counts at ~8.5k dof/rank.
fn ranks_for(k: usize) -> usize {
    [2, 15, 50, 120, 240, 400, 640, 960][k - 1]
}

fn main() {
    let mut max_k = 2usize;
    let mut threads_mode = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--transport" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("sim") => threads_mode = false,
                    Some("threads") => threads_mode = true,
                    other => {
                        eprintln!("--transport must be 'sim' or 'threads', got {other:?}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            s => {
                match s.parse() {
                    Ok(k) => max_k = k,
                    Err(_) => {
                        eprintln!("unknown argument {s}");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
        }
    }

    println!(
        "{:>2} {:>5} {:>10} {:>6} {:>8} {:>10} {:>12} {:>10} {:>8}",
        "k", "P", "dof", "iters", "levels", "wall(s)", "Mflop/s(mdl)", "e_c", "balance"
    );

    let mut base_rate_per_rank: Option<f64> = None;
    for k in 1..=max_k {
        let p = ranks_for(k);
        let params = SpheresParams::ladder(k);
        let mut problem = prometheus_repro::fem::spheres_problem(&params);
        let mesh = problem.fem.mesh.clone();
        let ndof = mesh.num_dof();

        let u = vec![0.0; ndof];
        let (kmat, r) = problem.fem.assemble(&u);
        let bcs = problem.bcs_for_step(1, 10);
        let fixed: Vec<(u32, f64)> = bcs.iter().map(|b| (b.dof, b.value)).collect();
        let (kc, rhs) = constrain_system(&kmat, &r, &fixed);

        let wall = Instant::now();
        let opts = PrometheusOptions {
            nranks: p,
            mg: MgOptions {
                coarse_dof_threshold: 600,
                ..Default::default()
            },
            max_iters: 300,
            ..Default::default()
        };
        let mut solver = Prometheus::from_mesh(&mesh, &kc, opts);
        let levels = solver.level_sizes().len();
        // The paper's first linear solve: rtol = 1e-4.
        let (x_sim, res) = solver.solve(&rhs, None, 1e-4);
        let wall = wall.elapsed().as_secs_f64();

        // The threaded ranks plan the problem the way `from_mesh` lays it
        // out, then build their own shares and solve.
        let spmd = threads_mode.then(|| {
            let t0 = Instant::now();
            let graph = mesh.vertex_graph();
            let classes = classify_mesh_parallel(&mesh, opts.face_tol, p);
            let plan = plan_ingest(&mesh.coords, &graph, &classes, &[], p, &opts.mg);
            let vlayout = Layout::from_part(plan.part().to_vec(), p);
            let layout = Layout::expand_dofs(&vlayout, opts.mg.dofs_per_vertex);
            let setups = build_threads(&plan, |r| kc.extract_rows(layout.owned(r)), opts.mg)
                .expect("threaded-rank set-up");
            let outcome = solve_threads(
                &setups,
                &rhs,
                PcgOptions {
                    rtol: 1e-4,
                    max_iters: 300,
                    ..Default::default()
                },
            )
            .expect("threaded-rank solve");
            (outcome, t0.elapsed().as_secs_f64())
        });

        let phases = solver.finish();
        let solve = &phases["solve"];
        let rate = solve.modeled_flop_rate();
        let per_rank = rate / p as f64;
        let e_c = match base_rate_per_rank {
            None => {
                base_rate_per_rank = Some(per_rank);
                1.0
            }
            Some(base) => per_rank / base,
        };
        println!(
            "{:>2} {:>5} {:>10} {:>6} {:>8} {:>10.2} {:>12.1} {:>10.2} {:>8.2}",
            k,
            p,
            ndof,
            res.iterations,
            levels,
            wall,
            rate / 1e6,
            e_c,
            solve.load_balance()
        );

        if let Some((spmd, thr_wall)) = spmd {
            // Same solve, but every rank is a real thread over the
            // in-process transport: measured traffic, not the BSP model.
            let bitwise = spmd.result.iterations == res.iterations
                && spmd
                    .x
                    .iter()
                    .zip(&x_sim)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            let msgs: u64 = spmd.stats.iter().map(|s| s.msgs).sum();
            let bytes: u64 = spmd.stats.iter().map(|s| s.bytes).sum();
            let allreduces = spmd.stats.first().map(|s| s.allreduces).unwrap_or(0);
            let wait_max = spmd.stats.iter().map(|s| s.wait_s).fold(0.0_f64, f64::max);
            let w0 = spmd.waits[0];
            println!(
                "   threads({p}): wall {thr_wall:.2}s  msgs {msgs}  bytes {bytes}  \
                 allreduces {allreduces}  max wait {wait_max:.3}s"
            );
            println!(
                "                rank-0 wait: halo {:.3}s  allreduce {:.3}s  coarse {:.3}s  \
                 [{}]",
                w0.halo_s,
                w0.allreduce_s,
                w0.coarse_s,
                if bitwise {
                    "bitwise == sim"
                } else {
                    "MISMATCH vs sim"
                }
            );
            assert!(bitwise, "threaded solve diverged from the sim solve");
        }
    }
    println!("\n(e_c = modeled per-rank flop rate relative to the first ladder point;");
    println!(" compare with the paper's ~29 -> 21 iterations and ~60% solve efficiency at P=960)");
}
