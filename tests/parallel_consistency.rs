//! The virtual-rank runtime must be numerically transparent: every
//! distributed operation reproduces its serial counterpart bit-for-bit or
//! to rounding, for any rank count and any ownership pattern.

use pmg_fem::{FemProblem, LinearElastic};
use pmg_geometry::Vec3;
use pmg_mesh::generators::block;
use pmg_parallel::{DistMatrix, DistVec, Layout, MachineModel, Sim};
use pmg_partition::recursive_coordinate_bisection;
use pmg_solver::{pcg, BlockJacobi, IdentityPrecond, PcgOptions};
use std::sync::Arc;

fn elasticity_matrix() -> (pmg_sparse::CsrMatrix, Vec<Vec3>) {
    let mesh = block(4, 4, 4, Vec3::splat(1.0), |_| 0);
    let ndof = mesh.num_dof();
    let mut fem = FemProblem::new(
        mesh.clone(),
        vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))],
    );
    let (k, _) = fem.assemble(&vec![0.0; ndof]);
    let mut fixed = Vec::new();
    for (v, p) in mesh.coords.iter().enumerate() {
        if p.z == 0.0 {
            for c in 0..3 {
                fixed.push((3 * v as u32 + c, 0.0));
            }
        }
    }
    let (kc, _) = pmg_fem::bc::constrain_system(&k, &vec![0.0; ndof], &fixed);
    (kc, mesh.coords.clone())
}

#[test]
fn distributed_spmv_exact_for_rcb_layouts() {
    let (a, coords) = elasticity_matrix();
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
    let mut y_serial = vec![0.0; n];
    a.spmv(&x, &mut y_serial);
    for p in [1, 2, 5, 16] {
        let part = recursive_coordinate_bisection(&coords, p);
        let layout = Layout::expand_dofs(&Layout::from_part(part, p), 3);
        let mut sim = Sim::new(p, MachineModel::default());
        let da = DistMatrix::from_global(&a, layout.clone(), layout.clone());
        let dx = DistVec::from_global(layout.clone(), &x);
        let mut dy = DistVec::zeros(layout);
        da.spmv(&mut sim, &dx, &mut dy);
        let yg = dy.to_global();
        for (u, v) in yg.iter().zip(&y_serial) {
            assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0), "p={p}");
        }
    }
}

#[test]
fn pcg_iteration_counts_independent_of_ranks_with_identity_precond() {
    // With M = I the PCG recurrence is rank-count independent up to
    // rounding, so iteration counts must match exactly across P.
    let (a, _) = elasticity_matrix();
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).sin()).collect();
    let mut iters = Vec::new();
    for p in [1, 3, 8] {
        let layout = Layout::block(n, p);
        let mut sim = Sim::new(p, MachineModel::default());
        let da = DistMatrix::from_global(&a, layout.clone(), layout.clone());
        let db = DistVec::from_global(layout.clone(), &b);
        let mut x = DistVec::zeros(layout);
        let res = pcg(
            &mut sim,
            &da,
            &IdentityPrecond,
            &db,
            &mut x,
            PcgOptions {
                rtol: 1e-6,
                max_iters: 2000,
                ..Default::default()
            },
        );
        assert!(res.converged, "p={p}");
        iters.push(res.iterations);
    }
    assert!(
        iters
            .iter()
            .all(|&i| (i as i64 - iters[0] as i64).abs() <= 1),
        "iteration counts diverged across ranks: {iters:?}"
    );
}

#[test]
fn total_flops_are_rank_invariant_for_spmv() {
    // Work efficiency e_w = 1 (§6): the distributed SpMV performs exactly
    // the serial flops, just partitioned.
    let (a, coords) = elasticity_matrix();
    let n = a.nrows();
    let x = vec![1.0; n];
    let mut totals = Vec::new();
    for p in [1, 4, 9] {
        let part = recursive_coordinate_bisection(&coords, p);
        let layout = Layout::expand_dofs(&Layout::from_part(part, p), 3);
        let mut sim = Sim::new(p, MachineModel::default());
        let da = DistMatrix::from_global(&a, layout.clone(), layout.clone());
        let dx = DistVec::from_global(layout.clone(), &x);
        let mut dy = DistVec::zeros(layout);
        da.spmv(&mut sim, &dx, &mut dy);
        let phases = sim.finish();
        totals.push(phases["default"].total_flops());
    }
    assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
}

#[test]
fn block_jacobi_blocks_scale_with_local_size() {
    // 6 blocks per 1000 local unknowns (§7.2): rank-local block counts
    // follow the layout.
    let (a, coords) = elasticity_matrix();
    let p = 3;
    let part = recursive_coordinate_bisection(&coords, p);
    let layout = Layout::expand_dofs(&Layout::from_part(part, p), 3);
    let da = DistMatrix::from_global(&a, layout.clone(), layout);
    let bj = BlockJacobi::new(&da, 6.0, 0.6);
    for r in 0..p {
        let local = da.local_block(r).nrows();
        let expect = ((6.0 * local as f64 / 1000.0).round() as usize).clamp(1, local);
        assert_eq!(bj.num_blocks(r), expect, "rank {r} with {local} dofs");
    }
}

/// Parse the `spheres_rank --out` artifact: iteration count, convergence
/// flag, solution / residual-history bit patterns, and the interior-row
/// count from the overlap accounting line.
fn parse_rank_out(text: &str) -> (usize, bool, Vec<u64>, Vec<u64>, u64) {
    let mut iterations = 0usize;
    let mut converged = false;
    let mut x = Vec::new();
    let mut res = Vec::new();
    let mut interior = 0u64;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some("iterations"), Some(v)) => iterations = v.parse().unwrap(),
            (Some("converged"), Some(v)) => converged = v == "1",
            (Some("x"), Some(v)) => x.push(u64::from_str_radix(v, 16).unwrap()),
            (Some("res"), Some(v)) => res.push(u64::from_str_radix(v, 16).unwrap()),
            (Some("overlap"), Some(v)) => interior = v.parse().unwrap(),
            // Timing/traffic lines are for the bench snapshot, not parity.
            (Some("solve_s" | "stats" | "waits"), _) => {}
            _ => panic!("unexpected line in rank output: {line}"),
        }
    }
    (iterations, converged, x, res, interior)
}

#[test]
fn spheres_solve_bitwise_identical_across_transports() {
    // The PR's acceptance bar: the full setup + solve on the spheres
    // problem produces a bitwise-identical solution and residual history
    // whether the ranks are simulated (counting instead of sending),
    // threads over an in-process transport, or separate processes over
    // Unix-domain sockets.
    let sys = pmg_bench::spheres_first_solve(0);
    let pcg_opts = pmg_solver::PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    let mut two_rank_reference = None;
    for p in [1usize, 2, 4] {
        let opts = pmg_bench::parity_options(p);
        // Route through the PMG_FINE_OP-aware constructor: the spawned
        // worker ranks inherit that env var, so the in-process reference
        // must run on the same fine-operator backend to compare bitwise.
        let mut solver = pmg_bench::parity_solver(&sys, opts);
        let (x_sim, res_sim) = solver.solve(&sys.rhs, None, pmg_bench::PARITY_RTOL);
        assert!(res_sim.converged, "p={p}: {res_sim:?}");

        let spmd = prometheus::solve_threads(&solver.mg, &sys.rhs, pcg_opts, true).unwrap();
        assert_eq!(spmd.result.iterations, res_sim.iterations, "p={p}");
        for (a, b) in spmd.result.residuals.iter().zip(&res_sim.residuals) {
            assert_eq!(a.to_bits(), b.to_bits(), "p={p} residual history");
        }
        for (a, b) in spmd.x.iter().zip(&x_sim) {
            assert_eq!(a.to_bits(), b.to_bits(), "p={p} solution");
        }
        if p > 1 {
            // Real messages flowed (this was not a degenerate exchange).
            assert!(spmd.stats.iter().map(|s| s.msgs).sum::<u64>() > 0, "p={p}");
        }
        if p == 2 {
            two_rank_reference = Some((res_sim.iterations, x_sim, res_sim.residuals));
        }
    }

    // Multi-process: launch 2 ranks of the worker binary over sockets,
    // once with the comm/compute overlap on (the default) and once forced
    // off — both must reproduce the 2-rank simulated solve bitwise, and
    // the overlapped run must actually have classified interior rows.
    let (ref_iters, ref_x, ref_res) = two_rank_reference.unwrap();
    let dir = std::env::temp_dir().join(format!("pmg-parity-{}", std::process::id()));
    for overlap in [true, false] {
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("rank0.out");
        let exits = pmg_comm::launch::launch_with_env(
            2,
            std::path::Path::new(env!("CARGO_BIN_EXE_spheres_rank")),
            &["--out", out.to_str().unwrap()],
            None,
            &[("PMG_OVERLAP", if overlap { "1" } else { "0" })],
        )
        .expect("launch 2 socket ranks");
        assert!(
            exits.iter().all(|e| e.status.success()),
            "socket ranks failed (overlap={overlap}): {exits:?}"
        );
        let (iters, converged, x_bits, res_bits, interior) =
            parse_rank_out(&std::fs::read_to_string(&out).unwrap());
        std::fs::remove_dir_all(&dir).ok();
        assert!(converged);
        assert_eq!(
            iters, ref_iters,
            "socket iteration count (overlap={overlap})"
        );
        assert_eq!(x_bits.len(), ref_x.len());
        for (got, want) in x_bits.iter().zip(&ref_x) {
            assert_eq!(
                *got,
                want.to_bits(),
                "socket solution bits (overlap={overlap})"
            );
        }
        assert_eq!(res_bits.len(), ref_res.len());
        for (got, want) in res_bits.iter().zip(&ref_res) {
            assert_eq!(
                *got,
                want.to_bits(),
                "socket residual bits (overlap={overlap})"
            );
        }
        if overlap {
            assert!(interior > 0, "overlapped run classified no interior rows");
        } else {
            assert_eq!(interior, 0, "blocking run must report no overlap work");
        }
    }
}

#[test]
fn overlap_flag_changes_only_the_halo_schedule() {
    // `RankHierarchy::overlap` picks `spmv_overlapped` over `spmv` and
    // nothing else: on the spheres solve both settings give the same
    // result bits *and* the same traffic on every rank. (Until PR 13 the
    // flag also fused r·r with r·z behind a speculative preconditioner
    // application: 28 vs 41 allreduces here, and one extra FMG cycle.)
    let sys = pmg_bench::spheres_first_solve(0);
    let pcg_opts = pmg_solver::PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    for p in [1usize, 2, 4] {
        let solver = pmg_bench::parity_solver(&sys, pmg_bench::parity_options(p));
        let over = prometheus::solve_threads(&solver.mg, &sys.rhs, pcg_opts, true).unwrap();
        let block = prometheus::solve_threads(&solver.mg, &sys.rhs, pcg_opts, false).unwrap();
        let (ro, rb) = (&over.result, &block.result);
        assert!(ro.converged, "p={p}: {ro:?}");
        assert_eq!(
            (ro.iterations, ro.converged, ro.breakdown),
            (rb.iterations, rb.converged, rb.breakdown),
            "p={p}"
        );
        assert_eq!(
            ro.rel_residual.to_bits(),
            rb.rel_residual.to_bits(),
            "p={p}"
        );
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&ro.residuals),
            bits(&rb.residuals),
            "p={p} residual history"
        );
        assert_eq!(bits(&over.x), bits(&block.x), "p={p} solution");
        for (rank, (o, b)) in over.stats.iter().zip(&block.stats).enumerate() {
            assert_eq!(
                (o.msgs, o.bytes, o.allreduces),
                (b.msgs, b.bytes, b.allreduces),
                "p={p} rank={rank}: (msgs, bytes, allreduces)"
            );
        }
        // Textbook PCG: ‖b‖/‖r‖ fused, the first r·z, then p·w, r·r, r·z per
        // iteration — the last iteration stops before its r·z.
        assert_eq!(
            over.stats[0].allreduces,
            3 * ro.iterations as u64 + 1,
            "p={p}"
        );
    }
}

#[test]
fn solve_messages_follow_the_cycle_schedule() {
    // Message counts derived from the schedule, not pinned as numbers: a
    // V-cycle visit to a non-coarsest level starts from the zero guess, so
    // its first pre-sweep needs no `A x` and sends no halo — one exchange
    // fewer per such visit than a schedule that smooths `x = 0` like any
    // other iterate. The BSP model charges the same messages the
    // transport sends.
    use prometheus::CycleType;
    let sys = pmg_bench::spheres_first_solve(0);
    let pcg_opts = pmg_solver::PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    for p in [2usize, 4] {
        let solver = pmg_bench::parity_solver(&sys, pmg_bench::parity_options(p));
        let mg = &solver.mg;
        assert_eq!(mg.opts.cycle, CycleType::Fmg);
        let coarsest = mg.num_levels() - 1;
        assert!(coarsest >= 1, "the parity problem is multi-level");
        // Messages of one halo exchange (over all ranks), per operator.
        let halo = |m: &pmg_parallel::DistMatrix| -> u64 {
            let plan = m.halo_plan();
            plan.ranks.iter().map(|r| r.send.len() as u64).sum()
        };
        // Tree collectives: every non-root rank sends once on the way up
        // and receives once on the way down.
        let collective = 2 * (p as u64 - 1);

        // One FMG application: each non-coarsest level `l` restricts,
        // prolongates and takes one residual on the FMG frame, and is
        // visited by the correcting V-cycles of levels 0..=l; the coarsest
        // level solves once on the frame and once per V-cycle.
        let (pre, post) = (mg.opts.pre_smooth as u64, mg.opts.post_smooth as u64);
        assert!(pre >= 1, "the zero-guess sweep is the first pre-sweep");
        let visit_products_like_any_iterate = pre + 1 + post;
        let visit_products = visit_products_like_any_iterate - 1;
        let mut application = (coarsest as u64 + 1) * collective;
        for (l, level) in mg.levels[..coarsest].iter().enumerate() {
            let visits = l as u64 + 1;
            let transfers = halo(level.r.as_ref().unwrap()) + halo(level.p.as_ref().unwrap());
            application += (1 + visits) * transfers;
            application += (1 + visits * visit_products) * halo(&level.a);
        }

        // The model: one application charged to a fresh machine.
        let layout = mg.levels[0].a.row_layout().clone();
        let mut sim = Sim::new(p, MachineModel::default());
        let r = DistVec::from_global(layout.clone(), &sys.rhs);
        let mut z = DistVec::zeros(layout);
        pmg_solver::Precond::apply(mg, &mut sim, &r, &mut z);
        let modeled: u64 = sim.finish()["default"].ranks.iter().map(|c| c.msgs).sum();
        assert_eq!(modeled, application, "p={p}: modeled messages per cycle");

        // The transport: n iterations are n applications, n + 1 fine
        // products and 3 n + 1 allreduces.
        let spmd = prometheus::solve_threads(mg, &sys.rhs, pcg_opts, true).unwrap();
        let n = spmd.result.iterations as u64;
        assert_eq!(spmd.stats[0].allreduces, 3 * n + 1, "p={p}");
        let sent: u64 = spmd.stats.iter().map(|s| s.msgs).sum();
        assert_eq!(
            sent,
            n * application + (n + 1) * halo(&mg.levels[0].a) + (3 * n + 1) * collective,
            "p={p}: messages of a {n}-iteration solve"
        );
    }
}

#[test]
fn non_finite_rhs_is_a_reported_breakdown_on_both_runtimes() {
    // A NaN in the right-hand side used to end as `converged: false`,
    // indistinguishable from running out of iterations, and an infinity as
    // `converged: true` with `x = 0` (`∞ ≤ rtol · ∞`). Both runtimes —
    // virtual ranks and rank threads — now say what happened.
    let sys = pmg_bench::spheres_first_solve(0);
    let mut solver = pmg_bench::parity_solver(&sys, pmg_bench::parity_options(2));
    let pcg_opts = pmg_solver::PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut rhs = sys.rhs.clone();
        rhs[sys.rhs.len() / 2] = poison;
        let (_, res_sim) = solver.solve(&rhs, None, pmg_bench::PARITY_RTOL);
        assert!(res_sim.breakdown && !res_sim.converged, "{res_sim:?}");
        let spmd = prometheus::solve_threads(&solver.mg, &rhs, pcg_opts, true).unwrap();
        let res = &spmd.result;
        assert!(res.breakdown && !res.converged, "{poison}: {res:?}");
        assert_eq!(res.iterations, res_sim.iterations, "{poison}");
    }
    // And a clean solve on the same hierarchy reports none.
    let (_, clean) = solver.solve(&sys.rhs, None, pmg_bench::PARITY_RTOL);
    assert!(clean.converged && !clean.breakdown, "{clean:?}");
}

#[test]
fn spheres_sharded_ingest_bitwise_identical_over_sockets() {
    // PR 10's acceptance bar: on the assembled fine operator the workers
    // run partition-at-ingest — rank 0 plans and scatters per-rank
    // seeds, each rank assembles only its owned fine rows, the Galerkin
    // rows come from p2p-fetched A rows with no coarse value allgather,
    // and the coarsest factor lives on rank 0 alone. The resulting 2- and
    // 4-process solves must reproduce the in-process replicated-setup
    // solve bitwise.
    let sys = pmg_bench::spheres_first_solve(0);
    for p in [2usize, 4] {
        let opts = pmg_bench::parity_options(p);
        let mut solver = prometheus::Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
        let (x_ref, res_ref) = solver.solve(&sys.rhs, None, pmg_bench::PARITY_RTOL);
        assert!(res_ref.converged, "p={p}: {res_ref:?}");

        let dir = std::env::temp_dir().join(format!("pmg-shard-ingest-{p}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("rank0.out");
        let exits = pmg_comm::launch::launch_with_env(
            p,
            std::path::Path::new(env!("CARGO_BIN_EXE_spheres_rank")),
            &["--out", out.to_str().unwrap()],
            None,
            &[("PMG_FINE_OP", "assembled")],
        )
        .expect("launch socket ranks with sharded ingest");
        assert!(
            exits.iter().all(|e| e.status.success()),
            "sharded-ingest socket ranks failed (p={p}): {exits:?}"
        );
        let (iters, converged, x_bits, res_bits, _) =
            parse_rank_out(&std::fs::read_to_string(&out).unwrap());
        std::fs::remove_dir_all(&dir).ok();
        assert!(converged);
        assert_eq!(
            iters, res_ref.iterations,
            "sharded-ingest iterations (p={p})"
        );
        assert_eq!(x_bits.len(), x_ref.len());
        for (got, want) in x_bits.iter().zip(&x_ref) {
            assert_eq!(*got, want.to_bits(), "sharded-ingest solution bits (p={p})");
        }
        assert_eq!(res_bits.len(), res_ref.residuals.len());
        for (got, want) in res_bits.iter().zip(&res_ref.residuals) {
            assert_eq!(*got, want.to_bits(), "sharded-ingest residual bits (p={p})");
        }
    }
}

#[test]
fn machine_model_latency_dominates_small_messages() {
    // Sanity of the BSP model: for tiny payloads the modeled comm time is
    // ~latency * messages; for large payloads bandwidth dominates.
    let model = MachineModel {
        latency: 1e-3,
        inv_bandwidth: 1e-9,
        flop_rate: 1e9,
    };
    let mut sim = Sim::new(2, model);
    sim.exchange(&[(1, 8), (1, 8)]);
    let small = sim.finish()["default"].modeled_comm_time;
    assert!((small - (1e-3 + 8e-9)).abs() < 1e-12);
    let mut sim = Sim::new(2, model);
    sim.exchange(&[(1, 100_000_000), (0, 0)]);
    let big = sim.finish()["default"].modeled_comm_time;
    assert!(big > 0.1);
}
