//! One SPMD rank of the multi-process spheres parity solve.
//!
//! Spawned `n` at a time by `pmg-launch` (which sets `PMG_COMM_RANK`,
//! `PMG_COMM_SIZE`, and `PMG_COMM_DIR`), each process builds the tiny
//! spheres first-solve system deterministically, grows its share of the
//! multigrid hierarchy by partition-at-ingest (rank 0 plans and scatters
//! per-rank seeds; every rank then runs `RankHierarchy::build_from_shards`
//! over the Unix-domain-socket transport — transport MIS, face-ID merge,
//! per-rank Galerkin rows, ghost-list collectives), and solves SPMD.
//! Rank 0 gathers the solution and, when `--out PATH` is given, writes
//! the iteration count, convergence flag, and the solution /
//! residual-history bit patterns for the parity test to compare against the
//! simulated solve.
//!
//! Exits 0 iff the solve converged.

use pmg_comm::{LeReader, LeWriter, SocketTransport, Transport};
use pmg_solver::PcgOptions;
use prometheus::{spmd_pcg, RankHierarchy};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out_path = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).cloned();
                i += 2;
            }
            other => {
                eprintln!("spheres_rank: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut t = SocketTransport::connect_from_env()
        .expect("PMG_COMM_RANK/SIZE/DIR must be set (run under pmg-launch)");

    let sys = pmg_bench::spheres_first_solve(0);
    let opts = pmg_bench::parity_options(t.size());
    let nranks = t.size();
    let rank = t.rank();

    // Partition-at-ingest: rank 0 plans the seeds (RCB partition, owned
    // level-0 restriction rows, replicated coarse geometry) and scatters
    // each rank its share. Every process still *builds* the global spheres
    // system here (this harness checks parity, not footprint — the
    // counting-allocator test owns the memory claim), but the setup
    // consumes only this rank's owned rows of it.
    let plan = (rank == 0).then(|| pmg_bench::parity_plan(&sys, nranks));
    let seed = prometheus::scatter_seeds(&mut t, plan.as_ref()).expect("seed scatter");
    let vlayout = pmg_parallel::Layout::from_part(seed.part.clone(), nranks);
    let layout = pmg_parallel::Layout::expand_dofs(&vlayout, opts.mg.dofs_per_vertex);
    let a_owned = sys.matrix.extract_rows(layout.owned(rank));
    let setup = RankHierarchy::build_from_shards(&mut t, &seed, &a_owned, opts.mg)
        .expect("sharded setup over sockets");
    let h = setup.rank_hierarchy();

    let bl: Vec<f64> = layout
        .owned(rank)
        .iter()
        .map(|&g| sys.rhs[g as usize])
        .collect();
    let mut xl = vec![0.0; bl.len()];
    let solve_opts = PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    let solve_start = std::time::Instant::now();
    let (res, waits) =
        spmd_pcg(&mut t, &h, &bl, &mut xl, solve_opts).expect("SPMD solve over sockets");
    let solve_s = solve_start.elapsed().as_secs_f64();
    let stats = t.stats(); // snapshot before the result gather adds traffic

    let mut part = LeWriter::with_capacity(8 * xl.len());
    part.f64s(xl.iter().copied());
    let gathered = pmg_comm::gather(&mut t, part.as_bytes()).expect("gather solution");
    if let Some(parts) = gathered {
        let mut x = vec![0.0; layout.num_global()];
        for (rk, blob) in parts.iter().enumerate() {
            let owned = layout.owned(rk);
            let vals = LeReader::all_f64s(blob, owned.len()).expect("rank's owned values");
            for (&g, v) in owned.iter().zip(vals) {
                x[g as usize] = v;
            }
        }
        if let Some(path) = &out_path {
            let mut f = std::fs::File::create(path).expect("create --out file");
            writeln!(f, "iterations {}", res.iterations).unwrap();
            writeln!(f, "converged {}", u8::from(res.converged)).unwrap();
            writeln!(f, "solve_s {solve_s:.9}").unwrap();
            writeln!(
                f,
                "stats {} {} {:.9} {}",
                stats.msgs, stats.bytes, stats.wait_s, stats.allreduces
            )
            .unwrap();
            writeln!(
                f,
                "waits {:.9} {:.9} {:.9}",
                waits.halo_s, waits.allreduce_s, waits.coarse_s
            )
            .unwrap();
            for v in &x {
                writeln!(f, "x {:016x}", v.to_bits()).unwrap();
            }
            for v in &res.residuals {
                writeln!(f, "res {:016x}", v.to_bits()).unwrap();
            }
        } else {
            println!(
                "spheres_rank: {} ranks, {} iterations, converged={}, rel_residual={:.3e}",
                t.size(),
                res.iterations,
                res.converged,
                res.rel_residual
            );
        }
    }

    if res.converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
