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
//! `PMG_OVERLAP=0` selects the blocking halo schedule for A/B wait-time
//! measurements (`1`, unset or empty: overlapped; anything else is refused
//! before the rendezvous); the solve — bits, messages, allreduces — is
//! identical either way. The rank-0 artifact records the overlap accounting on an
//! `overlap <interior_rows> <boundary_rows> <hidden_s>` line.
//!
//! Exits 0 iff the solve converged.

use pmg_comm::{LeReader, LeWriter, SocketTransport, Transport};
use pmg_solver::PcgOptions;
use prometheus::{spmd_pcg, RankHierarchy};
use std::io::Write;
use std::process::ExitCode;

/// `PMG_OVERLAP`: `0` for the blocking halo schedule, `1` (or unset, or
/// empty) for the overlapped one.
fn parse_overlap(value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("") | Some("1") => Ok(true),
        Some("0") => Ok(false),
        Some(v) => Err(format!("PMG_OVERLAP={v}: expected 0|1")),
    }
}

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

    let overlap = {
        let value = std::env::var_os("PMG_OVERLAP").map(|v| v.to_string_lossy().into_owned());
        match parse_overlap(value.as_deref()) {
            Ok(overlap) => overlap,
            Err(e) => {
                eprintln!("spheres_rank: {e}");
                return ExitCode::from(2);
            }
        }
    };

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
    let mut h = setup.rank_hierarchy();
    h.overlap = overlap;

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
            writeln!(
                f,
                "overlap {} {} {:.9}",
                waits.interior_rows, waits.boundary_rows, waits.halo_hidden_s
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

#[cfg(test)]
mod tests {
    use super::parse_overlap;

    #[test]
    fn overlap_switch_rejects_anything_but_0_or_1() {
        assert_eq!(parse_overlap(None), Ok(true));
        assert_eq!(parse_overlap(Some("")), Ok(true));
        assert_eq!(parse_overlap(Some("1")), Ok(true));
        assert_eq!(parse_overlap(Some("0")), Ok(false));
        for bad in ["false", "off", "2", "no"] {
            let err = parse_overlap(Some(bad)).unwrap_err();
            assert!(err.contains("PMG_OVERLAP") && err.contains("0|1"));
        }
    }
}
