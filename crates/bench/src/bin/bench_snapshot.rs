//! One-shot perf snapshot of the hot kernels.
//!
//! Times the PR-2 symbolic/numeric split — the Galerkin triple product
//! (cold vs planned), element assembly (cold vs pattern-reuse), and SpMV
//! (scalar CSR vs 3x3-blocked) — plus the PR-3 thread-pool scaling of
//! {parallel SpMV, block-Jacobi smoothing, warm assembly} at 1 thread vs
//! the configured pool size, then drives two Newton-style operator update
//! rounds through a full MG hierarchy with telemetry on and records the
//! plan/pattern build-vs-reuse counters, and the PR-4 comm section: the
//! same spheres solve run over simulated ranks, threaded ranks
//! (in-process transport), and — when the `spheres_rank` worker binary is
//! built alongside — 2-process Unix-socket ranks, with *real* (measured,
//! not modeled) message counts and per-phase wait times; and the PR-5
//! overlap section: the threaded and socket solves run A/B with the
//! communication/computation overlap off vs on (`PMG_OVERLAP`), recording
//! the blocked halo wait, the hidden-behind-compute window, the
//! interior/boundary row split, and the allreduce count (equal on both
//! sides: the flag selects only the halo schedule) so the wait-time
//! reduction is visible in one file; and the
//! PR-6 fine-operator section: the assembled fine-grid operator (scalar
//! CSR plus its BSR3 promotion, both resident in the promoted form) vs
//! the element-loop matrix-free operator A/B — bytes held by each
//! backend, the memory ratio (assembled/matrix-free, the headline number:
//! the matrix-free path drops the fine-grid values arrays entirely), and
//! the per-apply wall times of all three; and the PR-7 multi-vector
//! section: `apply_multi` (SpMM on interleaved storage) at k = 1, 4, 8
//! for CSR, BSR3, and the batched matrix-free kernels, with per-vector
//! speedups over the single apply, plus the `apply_ratio` headline
//! (matrix-free apply time / BSR3 apply time) of the batched element-loop
//! rewrite; and the PR-8 setup weak-scaling section:
//! `plan_ingest` → `RankHierarchy::build_from_shards` over 1/2/4 threaded
//! ranks at a fixed
//! ~40k dofs per rank, with per-phase scope times (MIS, Delaunay,
//! restriction, classification, RAP, distribution, smoother) and
//! wall-clock / per-phase weak-scaling efficiencies relative to the
//! 1-rank point.
//! Everything lands in a hand-rolled JSON file (default `BENCH_PR8.json`,
//! override with `PMG_BENCH_OUT`) whose `meta` block records the pool
//! size, git SHA, and host core count so BENCH_*.json files are comparable
//! across PRs and machines. On a single-core host the thread-scaling and
//! setup weak-scaling sections are marked `"degenerate": true` and make no
//! speedup claims.
//!
//! Knobs: `PMG_THREADS` pool size for the scaling section, `PMG_BENCH_K`
//! ladder point (default 0 = tiny spheres), `PMG_BENCH_SETUP_DOF` target
//! dofs per rank in the setup weak-scaling section (default 40000),
//! `PMG_BENCH_MS` per-measurement
//! budget in milliseconds (default 200), `PMG_BENCH_ASSERT=1` exits
//! nonzero unless planned RAP and pattern-reuse assembly are both >= 1.5x
//! their cold baselines, the matrix-free fine operator holds >= 2x less
//! memory than the assembled fine operator's resident storage, its apply
//! lands within 2x of the BSR3 apply, and the batched matrix-free SpMM at
//! k = 4 is >= 1.3x faster per vector than its single apply.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use pmg_bench::spheres_first_solve;
use pmg_fem::bc::constrain_system;
use pmg_sparse::Operator;
use prometheus::{
    classify_mesh, coarsen_level, CoarsenOptions, MgOptions, Prometheus, PrometheusOptions,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Best-of-N wall time (seconds) for one call of `f`, spending roughly
/// `budget` on repetitions after a warmup call.
fn time_min<F: FnMut()>(budget: Duration, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        reps += 1;
    }
    best
}

/// One 2-process socket-transport data point parsed from the
/// `spheres_rank --out` artifact.
#[derive(Default)]
struct SocketPoint {
    iterations: usize,
    solve_s: f64,
    msgs: u64,
    bytes: u64,
    wait_s: f64,
    retries: u64,
    allreduces: u64,
    halo_s: f64,
    allreduce_s: f64,
    coarse_s: f64,
    interior_rows: u64,
    boundary_rows: u64,
    halo_hidden_s: f64,
    /// Raw `x`/`res` bit-pattern lines, kept verbatim so the blocking and
    /// overlapped socket runs can be compared bitwise without re-parsing.
    bits: Vec<String>,
}

fn parse_worker_out(text: &str) -> Option<SocketPoint> {
    let mut p = SocketPoint::default();
    for line in text.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        match t.first().copied() {
            Some("iterations") => p.iterations = t.get(1)?.parse().ok()?,
            Some("solve_s") => p.solve_s = t.get(1)?.parse().ok()?,
            Some("stats") => {
                p.msgs = t.get(1)?.parse().ok()?;
                p.bytes = t.get(2)?.parse().ok()?;
                p.wait_s = t.get(3)?.parse().ok()?;
                p.retries = t.get(4)?.parse().ok()?;
                p.allreduces = t.get(5)?.parse().ok()?;
            }
            Some("waits") => {
                p.halo_s = t.get(1)?.parse().ok()?;
                p.allreduce_s = t.get(2)?.parse().ok()?;
                p.coarse_s = t.get(3)?.parse().ok()?;
            }
            Some("overlap") => {
                p.interior_rows = t.get(1)?.parse().ok()?;
                p.boundary_rows = t.get(2)?.parse().ok()?;
                p.halo_hidden_s = t.get(3)?.parse().ok()?;
            }
            Some("x" | "res") => p.bits.push(line.to_string()),
            _ => {}
        }
    }
    Some(p)
}

/// Launch 2 ranks of the sibling `spheres_rank` binary over Unix-domain
/// sockets — with the comm/compute overlap on or off via `PMG_OVERLAP` —
/// and parse the rank-0 artifact. `None` when the binary is not built
/// alongside (e.g. `cargo run -p pmg-bench` without the workspace bins)
/// or the launch fails — the snapshot then records a skip marker instead
/// of dying.
fn socket_point(overlap: bool) -> Option<SocketPoint> {
    let bin = std::env::current_exe().ok()?.parent()?.join("spheres_rank");
    if !bin.exists() {
        return None;
    }
    let dir = std::env::temp_dir().join(format!(
        "pmg-bench-comm-{}-{}",
        std::process::id(),
        u8::from(overlap)
    ));
    std::fs::create_dir_all(&dir).ok()?;
    let out = dir.join("rank0.out");
    let exits = pmg_comm::launch::launch_with_env(
        2,
        &bin,
        &["--out", out.to_str()?],
        None,
        &[("PMG_OVERLAP", if overlap { "1" } else { "0" })],
    )
    .ok()?;
    let text = if exits.iter().all(|e| e.status.success()) {
        std::fs::read_to_string(&out).ok()
    } else {
        None
    };
    std::fs::remove_dir_all(&dir).ok();
    parse_worker_out(&text?)
}

/// Short git SHA of the working tree, or "unknown" outside a checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let k = env_usize("PMG_BENCH_K", 0);
    let budget = Duration::from_millis(env_usize("PMG_BENCH_MS", 200) as u64);
    let out_path = std::env::var("PMG_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    let threads = rayon::current_num_threads();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sha = git_sha();

    let sys = spheres_first_solve(k);
    let ndof = sys.mesh.num_dof();
    let nnz = sys.matrix.nnz();
    eprintln!(
        "spheres k={k}: {ndof} dof, {nnz} nnz; budget {budget:?}/measurement; \
         pool {threads} thread(s) on {host_cores}-core host ({sha})"
    );

    // --- SpMV: scalar CSR vs 3x3-blocked --------------------------------
    let bsr = pmg_sparse::Bsr3Matrix::from_csr(&sys.matrix);
    let x: Vec<f64> = (0..ndof).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut y = vec![0.0; ndof];
    let spmv_csr = time_min(budget, || sys.matrix.spmv(black_box(&x), &mut y));
    let spmv_bsr = time_min(budget, || bsr.spmv(black_box(&x), &mut y));

    // --- Fine operator A/B: assembled vs matrix-free --------------------
    // The serial element-loop operator equivalent to the fine-grid matrix
    // (same tangent, same Dirichlet rows). Memory is the headline, and the
    // comparison is against what the assembled fine-grid operator actually
    // keeps resident: the BSR3 promotion stores the blocked tiles *and*
    // keeps the scalar CSR alongside (block-Jacobi factors the scalar
    // diagonal — see `DistMatrix::try_block3`), so the assembled apply
    // representation is csr + bsr3 bytes. The matrix-free mode skips the
    // promotion and replaces all of it with cached per-element geometry,
    // Gauss-point tangents, and scatter maps — no values array at all.
    // (Both modes retain the unpromoted scalar CSR one level up for the
    // Galerkin RAP, so that term cancels out of the A/B.) The ratio is
    // asserted under PMG_BENCH_ASSERT. Apply times are recorded honestly
    // but never asserted — on-the-fly element products trade flops for
    // bytes and lose on small single-core problems.
    let mf = sys.matrix_free();
    let apply_mf = time_min(budget, || mf.apply(black_box(&x), &mut y));
    let csr_bytes = sys.matrix.memory_bytes();
    let bsr3_bytes = bsr.memory_bytes();
    let assembled_resident = csr_bytes + bsr3_bytes;
    let mf_bytes = mf.memory_bytes();
    let memory_ratio = assembled_resident as f64 / mf_bytes as f64;
    let apply_ratio = apply_mf / spmv_bsr;

    // --- Multi-vector apply (SpMM): k = 1, 4, 8 -------------------------
    // Interleaved storage (`x[i*k+c]` is column c); each backend's
    // apply_multi is bitwise-per-column equal to k single applies (pinned
    // by tests), so the per-vector speedup is pure operator-reuse: one
    // read of the rows / element data serves all k columns.
    let multi_ks = [1usize, 4, 8];
    let time_multi = |op: &dyn Operator| -> Vec<f64> {
        multi_ks
            .iter()
            .map(|&kk| {
                let xm: Vec<f64> = (0..ndof * kk).map(|i| (i as f64 * 0.07).sin()).collect();
                let mut ym = vec![0.0; ndof * kk];
                time_min(budget, || op.apply_multi(black_box(&xm), &mut ym, kk))
            })
            .collect()
    };
    let multi_csr = time_multi(&sys.matrix);
    let multi_bsr = time_multi(&bsr);
    let multi_mf = time_multi(&mf);
    // Per-vector speedup at k=4 vs the backend's own single apply.
    let per_vec4 = |single: f64, multi: &[f64]| single / (multi[1] / 4.0);
    let csr_k4_speedup = per_vec4(spmv_csr, &multi_csr);
    let bsr_k4_speedup = per_vec4(spmv_bsr, &multi_bsr);
    let mf_k4_speedup = per_vec4(apply_mf, &multi_mf);

    // --- RAP: cold symbolic+numeric vs planned numeric-only -------------
    let graph = sys.mesh.vertex_graph();
    let classes = classify_mesh(&sys.mesh, 0.7);
    let lvl = coarsen_level(
        &sys.mesh.coords,
        &graph,
        &classes,
        &CoarsenOptions::default(),
    );
    let r = prometheus::mg::expand_restriction(&lvl.restriction, 3);
    let rap_cold = time_min(budget, || {
        black_box(sys.matrix.rap(black_box(&r)));
    });
    let mut plan = pmg_sparse::RapPlan::new(&sys.matrix, &r);
    let rap_planned = time_min(budget, || {
        black_box(plan.execute(black_box(&sys.matrix)));
    });

    // --- Assembly: cold pattern+scatter+values vs value-only refill -----
    let mats = pmg_fem::table1_materials();
    let u = vec![0.0; ndof];
    let asm_cold = time_min(budget, || {
        let fem = pmg_fem::FemProblem::new(sys.mesh.clone(), mats.clone());
        black_box(black_box(fem).assemble(&u));
    });
    let mut fem = pmg_fem::FemProblem::new(sys.mesh.clone(), mats.clone());
    fem.assemble(&u);
    let asm_warm = time_min(budget, || {
        black_box(fem.assemble(black_box(&u)));
    });

    // --- Thread scaling: 1 thread vs the configured pool ----------------
    // Same kernels, dedicated pools; outputs are bitwise identical by the
    // determinism contract, which the spmv cross-check below enforces.
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let pool_n = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let layout = pmg_parallel::Layout::block(ndof, 2);
    let dist_a = pmg_parallel::DistMatrix::from_global(&sys.matrix, layout.clone(), layout.clone());
    let smoother = pmg_solver::BlockJacobi::new(&dist_a, 6.0, 0.6);
    let db = pmg_parallel::DistVec::from_global(layout.clone(), &sys.rhs);
    let time_pair = |f: &mut dyn FnMut()| {
        let t1 = pool1.install(|| time_min(budget, &mut *f));
        let tn = pool_n.install(|| time_min(budget, &mut *f));
        (t1, tn)
    };
    let (spmv_par_1, spmv_par_n) = time_pair(&mut || bsr.spmv_par(black_box(&x), &mut y));
    let (smooth_1, smooth_n) = {
        let mut run = || {
            let mut sim = pmg_parallel::Sim::new(2, pmg_parallel::MachineModel::default());
            let mut dx = pmg_parallel::DistVec::zeros(layout.clone());
            smoother.smooth(&mut sim, &dist_a, &db, &mut dx, 1);
            black_box(dx.part(0)[0]);
        };
        time_pair(&mut run)
    };
    let (asm_1, asm_n) = time_pair(&mut || {
        black_box(fem.assemble(black_box(&u)));
    });
    // Determinism cross-check: pool size must not change a single bit.
    {
        let mut y1 = vec![0.0; ndof];
        let mut yn = vec![0.0; ndof];
        pool1.install(|| bsr.spmv_par(&x, &mut y1));
        pool_n.install(|| bsr.spmv_par(&x, &mut yn));
        assert!(
            y1.iter().zip(&yn).all(|(a, b)| a.to_bits() == b.to_bits()),
            "spmv_par differs between 1 and {threads} threads"
        );
    }

    // --- Counters: two operator-update rounds through the hierarchy -----
    // Rebuilt from scratch inside the telemetry window so the symbolic
    // builds (pattern, scatter, RAP plans) are accounted alongside reuses.
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    let mut sys = spheres_first_solve(k);
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
    let fixed: Vec<(u32, f64)> = sys
        .problem
        .bcs_for_step(1, 10)
        .iter()
        .map(|b| (b.dof, b.value))
        .collect();
    for amplitude in [1e-4, 2e-4] {
        let u: Vec<f64> = (0..ndof)
            .map(|i| amplitude * ((i * 7 % 13) as f64 / 13.0 - 0.5))
            .collect();
        let (kmat, rhs) = sys.problem.fem.assemble(&u);
        let (kc, _) = constrain_system(&kmat, &rhs, &fixed);
        solver.update_matrix(&kc);
    }
    let report = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);

    // --- Comm: simulated vs threaded ranks vs sockets -------------------
    // The same tiny spheres solve three ways: Sim (counts instead of
    // sending), 2 threaded ranks over the in-process transport, and 2
    // separate processes over Unix-domain sockets. The thread/socket
    // numbers are real measured wall times and message counts, not the
    // BSP model; the bitwise cross-check below is the parity contract.
    // Always k=0 so the section matches what the `spheres_rank` worker
    // builds regardless of PMG_BENCH_K.
    let csys = spheres_first_solve(0);
    let mut psolver = Prometheus::from_mesh(&csys.mesh, &csys.matrix, pmg_bench::parity_options(2));
    let sim_start = Instant::now();
    let (x_sim, res_sim) = psolver.solve(&csys.rhs, None, pmg_bench::PARITY_RTOL);
    let sim_solve_s = sim_start.elapsed().as_secs_f64();
    assert!(res_sim.converged, "comm-section sim solve diverged");

    let popts = pmg_solver::PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    let crhs = std::slice::from_ref(&csys.rhs);
    // A: overlap off (blocking halo exchange).
    let thr_start = Instant::now();
    let spmd_block = prometheus::solve_threads(&psolver.mg, crhs, popts, false)
        .expect("threaded-rank blocking solve");
    let threads_blocking_s = thr_start.elapsed().as_secs_f64();
    // B: overlap on (interior rows hidden behind the halo). Same messages
    // and allreduces as A — the flag selects only the halo schedule.
    let thr_start = Instant::now();
    let spmd =
        prometheus::solve_threads(&psolver.mg, crhs, popts, true).expect("threaded-rank solve");
    let threads_solve_s = thr_start.elapsed().as_secs_f64();
    assert!(
        spmd.xs[0]
            .iter()
            .zip(&x_sim)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "threaded-rank solution differs from sim bitwise"
    );
    assert!(
        spmd_block.xs[0]
            .iter()
            .zip(&spmd.xs[0])
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "blocking threaded-rank solution differs from overlapped bitwise"
    );
    let thr_msgs: u64 = spmd.stats.iter().map(|s| s.msgs).sum();
    let thr_bytes: u64 = spmd.stats.iter().map(|s| s.bytes).sum();
    let thr_wait_max = spmd.stats.iter().map(|s| s.wait_s).fold(0.0_f64, f64::max);
    let thr_w0 = spmd.waits[0];
    let thr_w0_block = spmd_block.waits[0];

    let socket_block = socket_point(false);
    let socket = socket_point(true);
    if let Some(sp) = &socket {
        assert_eq!(
            sp.iterations, res_sim.iterations,
            "socket-rank iteration count differs from sim"
        );
        assert!(
            sp.interior_rows > 0,
            "overlapped socket run classified no interior rows"
        );
        if let Some(sb) = &socket_block {
            assert_eq!(
                sb.bits, sp.bits,
                "blocking socket solution/residuals differ from overlapped bitwise"
            );
        }
    }

    // --- PR-8: distributed-setup weak scaling ---------------------------
    // `plan_ingest` → `RankHierarchy::build_from_shards` over 1/2/4 threaded
    // ranks with ~`PMG_BENCH_SETUP_DOF` dofs per rank (default 40k): a block
    // elasticity bar that grows along x with the rank count, so the
    // per-rank share stays fixed. Per-phase seconds are telemetry scope
    // sums over *all* rank threads, so with perfect weak scaling the sum
    // grows linearly with p: the recorded cpu-time efficiency is
    // p * phase_s(1) / phase_s(p), and the wall-clock efficiency is
    // wall_s(1) / wall_s(p). On a 1-core host the rank threads share one
    // core and both numbers measure scheduling, not scaling — the section
    // carries the same `degenerate` flag as thread_scaling.
    let setup_phase_names = [
        "coarsen",
        "mis",
        "delaunay",
        "restriction",
        "classify",
        "rap",
        "distribute",
        "smoother",
        "coarse_direct",
    ];
    let setup_phase_paths = [
        "setup/coarsen",
        "setup/coarsen/mis",
        "setup/coarsen/delaunay",
        "setup/coarsen/restriction",
        "setup/coarsen/classify",
        "setup/rap",
        "setup/distribute",
        "setup/smoother",
        "setup/coarse_direct",
    ];
    struct SetupPoint {
        ranks: usize,
        ndof: usize,
        levels: usize,
        wall_s: f64,
        setup_msgs: u64,
        setup_bytes: u64,
        phase_s: Vec<f64>,
    }
    let setup_dof = env_usize("PMG_BENCH_SETUP_DOF", 40_000);
    // Vertices per edge of one rank's cube share.
    let side = ((setup_dof as f64 / 3.0).cbrt().round() as usize).max(3);
    let setup_points: Vec<SetupPoint> = [1usize, 2, 4]
        .iter()
        .map(|&p| {
            let mesh = pmg_mesh::generators::block(
                side * p - 1,
                side - 1,
                side - 1,
                pmg_geometry::Vec3::new(p as f64, 1.0, 1.0),
                |_| 0,
            );
            let sndof = mesh.num_dof();
            let mut fem = pmg_fem::FemProblem::new(
                mesh.clone(),
                vec![std::sync::Arc::new(pmg_fem::LinearElastic::from_e_nu(1.0, 0.3)) as _],
            );
            let (kmat, _) = fem.assemble(&vec![0.0; sndof]);
            let mut fixed = Vec::new();
            for (v, pt) in mesh.coords.iter().enumerate() {
                if pt.z == 0.0 {
                    for c in 0..3 {
                        fixed.push((3 * v as u32 + c, 0.0));
                    }
                }
            }
            let (a, _) = constrain_system(&kmat, &vec![0.0; sndof], &fixed);
            let graph = mesh.vertex_graph();
            let classes = prometheus::classify_mesh_parallel(&mesh, 0.7, p);
            let mg_opts = MgOptions::default();
            // The loader's share (partition, level-0 coarsening, seeds, the
            // owned-row cut) stays outside the timed per-rank build.
            let plan = prometheus::plan_ingest(&mesh.coords, &graph, &classes, &[], p, &mg_opts);
            let vlayout = pmg_parallel::Layout::from_part(plan.part().to_vec(), p);
            let layout = pmg_parallel::Layout::expand_dofs(&vlayout, mg_opts.dofs_per_vertex);
            let owned: Vec<_> = (0..p).map(|r| a.extract_rows(layout.owned(r))).collect();

            pmg_telemetry::reset();
            pmg_telemetry::set_enabled(true);
            let wall = Instant::now();
            let levels = pmg_comm::LocalTransport::run_ranks(p, |mut t| {
                let rank = pmg_comm::Transport::rank(&t);
                prometheus::RankHierarchy::build_from_shards(
                    &mut t,
                    &plan.seeds[rank],
                    &owned[rank],
                    mg_opts,
                )
                .expect("sharded setup over threaded ranks")
                .num_levels()
            });
            let wall_s = wall.elapsed().as_secs_f64();
            let report = pmg_telemetry::snapshot();
            pmg_telemetry::set_enabled(false);
            assert!(levels.iter().all(|&l| l == levels[0]));
            let phase_s = setup_phase_paths
                .iter()
                .map(|path| report.phase(path).map(|r| r.total_s).unwrap_or(0.0))
                .collect();
            let cnt = |name: &str| report.counters.get(name).copied().unwrap_or(0);
            eprintln!(
                "setup scaling p={p}: {sndof} dof, {} levels, {wall_s:.3}s wall",
                levels[0]
            );
            SetupPoint {
                ranks: p,
                ndof: sndof,
                levels: levels[0],
                wall_s,
                setup_msgs: cnt("comm/setup_msgs"),
                setup_bytes: cnt("comm/setup_bytes"),
                phase_s,
            }
        })
        .collect();

    let rap_speedup = rap_cold / rap_planned;
    let asm_speedup = asm_cold / asm_warm;
    let spmv_speedup = spmv_csr / spmv_bsr;

    let mut json = String::new();
    let j = &mut json;
    writeln!(j, "{{").unwrap();
    writeln!(j, "  \"meta\": {{").unwrap();
    writeln!(j, "    \"k\": {k},").unwrap();
    writeln!(j, "    \"ndof\": {ndof},").unwrap();
    writeln!(j, "    \"nnz\": {nnz},").unwrap();
    writeln!(j, "    \"budget_ms\": {},", budget.as_millis()).unwrap();
    writeln!(j, "    \"threads\": {threads},").unwrap();
    writeln!(j, "    \"host_cores\": {host_cores},").unwrap();
    writeln!(j, "    \"git_sha\": \"{sha}\"").unwrap();
    writeln!(j, "  }},").unwrap();
    writeln!(j, "  \"spmv\": {{").unwrap();
    writeln!(j, "    \"csr_s\": {spmv_csr:.9},").unwrap();
    writeln!(j, "    \"bsr3_s\": {spmv_bsr:.9},").unwrap();
    writeln!(j, "    \"bsr3_speedup\": {spmv_speedup:.3},").unwrap();
    writeln!(j, "    \"multi\": {{").unwrap();
    let mut write_multi = |name: &str, times: &[f64], k4: f64, last: bool| {
        writeln!(j, "      \"{name}\": {{").unwrap();
        writeln!(j, "        \"k1_s\": {:.9},", times[0]).unwrap();
        writeln!(j, "        \"k4_s\": {:.9},", times[1]).unwrap();
        writeln!(j, "        \"k8_s\": {:.9},", times[2]).unwrap();
        writeln!(j, "        \"k4_per_vector_speedup\": {k4:.3}").unwrap();
        writeln!(j, "      }}{}", if last { "" } else { "," }).unwrap();
    };
    write_multi("csr", &multi_csr, csr_k4_speedup, false);
    write_multi("bsr3", &multi_bsr, bsr_k4_speedup, false);
    write_multi("matrixfree", &multi_mf, mf_k4_speedup, true);
    writeln!(j, "    }}").unwrap();
    writeln!(j, "  }},").unwrap();
    writeln!(j, "  \"fine_operator\": {{").unwrap();
    writeln!(j, "    \"assembled_csr_bytes\": {csr_bytes},").unwrap();
    writeln!(j, "    \"assembled_bsr3_bytes\": {bsr3_bytes},").unwrap();
    writeln!(j, "    \"assembled_resident_bytes\": {assembled_resident},").unwrap();
    writeln!(j, "    \"matrixfree_bytes\": {mf_bytes},").unwrap();
    writeln!(j, "    \"memory_ratio\": {memory_ratio:.3},").unwrap();
    writeln!(j, "    \"apply_csr_s\": {spmv_csr:.9},").unwrap();
    writeln!(j, "    \"apply_bsr3_s\": {spmv_bsr:.9},").unwrap();
    writeln!(j, "    \"apply_matrixfree_s\": {apply_mf:.9},").unwrap();
    writeln!(j, "    \"apply_ratio\": {apply_ratio:.3}").unwrap();
    writeln!(j, "  }},").unwrap();
    writeln!(j, "  \"rap\": {{").unwrap();
    writeln!(j, "    \"cold_s\": {rap_cold:.9},").unwrap();
    writeln!(j, "    \"planned_s\": {rap_planned:.9},").unwrap();
    writeln!(j, "    \"planned_speedup\": {rap_speedup:.3}").unwrap();
    writeln!(j, "  }},").unwrap();
    writeln!(j, "  \"assemble\": {{").unwrap();
    writeln!(j, "    \"cold_s\": {asm_cold:.9},").unwrap();
    writeln!(j, "    \"pattern_reuse_s\": {asm_warm:.9},").unwrap();
    writeln!(j, "    \"pattern_reuse_speedup\": {asm_speedup:.3}").unwrap();
    writeln!(j, "  }},").unwrap();
    // A 1-core host cannot exhibit thread speedup — pool-vs-pool numbers
    // there measure scheduling noise, so mark the section degenerate and
    // record raw times only, no speedup claims.
    let degenerate = host_cores == 1;
    writeln!(j, "  \"thread_scaling\": {{").unwrap();
    writeln!(j, "    \"threads\": {threads},").unwrap();
    writeln!(j, "    \"degenerate\": {degenerate},").unwrap();
    writeln!(j, "    \"spmv_par_1t_s\": {spmv_par_1:.9},").unwrap();
    writeln!(j, "    \"spmv_par_nt_s\": {spmv_par_n:.9},").unwrap();
    writeln!(j, "    \"smoother_1t_s\": {smooth_1:.9},").unwrap();
    writeln!(j, "    \"smoother_nt_s\": {smooth_n:.9},").unwrap();
    writeln!(j, "    \"assemble_warm_1t_s\": {asm_1:.9},").unwrap();
    if degenerate {
        writeln!(j, "    \"assemble_warm_nt_s\": {asm_n:.9}").unwrap();
    } else {
        writeln!(j, "    \"assemble_warm_nt_s\": {asm_n:.9},").unwrap();
        writeln!(
            j,
            "    \"spmv_par_speedup\": {:.3},",
            spmv_par_1 / spmv_par_n
        )
        .unwrap();
        writeln!(j, "    \"smoother_speedup\": {:.3},", smooth_1 / smooth_n).unwrap();
        writeln!(j, "    \"assemble_warm_speedup\": {:.3}", asm_1 / asm_n).unwrap();
    }
    writeln!(j, "  }},").unwrap();
    writeln!(j, "  \"counters\": {{").unwrap();
    writeln!(j, "    \"rap_plan_build\": {},", counter("rap/plan_build")).unwrap();
    writeln!(j, "    \"rap_plan_reuse\": {},", counter("rap/plan_reuse")).unwrap();
    writeln!(
        j,
        "    \"assembly_pattern_build\": {},",
        counter("assembly/pattern_build")
    )
    .unwrap();
    writeln!(
        j,
        "    \"assembly_pattern_reuse\": {},",
        counter("assembly/pattern_reuse")
    )
    .unwrap();
    writeln!(
        j,
        "    \"spmv_bsr3_promoted\": {},",
        counter("spmv/bsr3_promoted")
    )
    .unwrap();
    writeln!(
        j,
        "    \"halo_plan_build\": {},",
        counter("comm/plan_build")
    )
    .unwrap();
    writeln!(j, "    \"halo_plan_reuse\": {}", counter("comm/plan_reuse")).unwrap();
    writeln!(j, "  }},").unwrap();
    writeln!(j, "  \"comm\": {{").unwrap();
    writeln!(j, "    \"ranks\": 2,").unwrap();
    writeln!(j, "    \"iterations\": {},", res_sim.iterations).unwrap();
    writeln!(j, "    \"sim_solve_s\": {sim_solve_s:.9},").unwrap();
    writeln!(j, "    \"threads\": {{").unwrap();
    writeln!(j, "      \"solve_s\": {threads_solve_s:.9},").unwrap();
    writeln!(j, "      \"msgs\": {thr_msgs},").unwrap();
    writeln!(j, "      \"bytes\": {thr_bytes},").unwrap();
    writeln!(j, "      \"wait_s_max\": {thr_wait_max:.9},").unwrap();
    writeln!(j, "      \"wait_halo_s\": {:.9},", thr_w0.halo_s).unwrap();
    writeln!(j, "      \"wait_allreduce_s\": {:.9},", thr_w0.allreduce_s).unwrap();
    writeln!(j, "      \"wait_coarse_s\": {:.9}", thr_w0.coarse_s).unwrap();
    writeln!(j, "    }},").unwrap();
    match &socket {
        Some(sp) => {
            writeln!(j, "    \"socket\": {{").unwrap();
            writeln!(j, "      \"solve_s\": {:.9},", sp.solve_s).unwrap();
            writeln!(j, "      \"msgs\": {},", sp.msgs).unwrap();
            writeln!(j, "      \"bytes\": {},", sp.bytes).unwrap();
            writeln!(j, "      \"wait_s_max\": {:.9},", sp.wait_s).unwrap();
            writeln!(j, "      \"retries\": {},", sp.retries).unwrap();
            writeln!(j, "      \"allreduces\": {},", sp.allreduces).unwrap();
            writeln!(j, "      \"wait_halo_s\": {:.9},", sp.halo_s).unwrap();
            writeln!(j, "      \"wait_allreduce_s\": {:.9},", sp.allreduce_s).unwrap();
            writeln!(j, "      \"wait_coarse_s\": {:.9}", sp.coarse_s).unwrap();
            writeln!(j, "    }}").unwrap();
        }
        None => {
            writeln!(j, "    \"socket\": {{ \"skipped\": true }}").unwrap();
        }
    }
    writeln!(j, "  }},").unwrap();

    // --- Overlap A/B: blocking vs overlapped halo exchange --------------
    // `wait_halo_s` is the *blocked* remainder after finish(); the hidden
    // window rides in `halo_hidden_s`. Reduction is relative to the
    // blocking run of the same transport in this same snapshot.
    let reduction = |blocking: f64, overlapped: f64| {
        if blocking > 0.0 {
            (blocking - overlapped) / blocking
        } else {
            0.0
        }
    };
    let thr_reduction = reduction(thr_w0_block.halo_s, thr_w0.halo_s);
    writeln!(j, "  \"overlap\": {{").unwrap();
    writeln!(j, "    \"threads\": {{").unwrap();
    writeln!(j, "      \"blocking\": {{").unwrap();
    writeln!(j, "        \"solve_s\": {threads_blocking_s:.9},").unwrap();
    writeln!(j, "        \"wait_halo_s\": {:.9},", thr_w0_block.halo_s).unwrap();
    writeln!(
        j,
        "        \"allreduces\": {}",
        spmd_block.stats[0].allreduces
    )
    .unwrap();
    writeln!(j, "      }},").unwrap();
    writeln!(j, "      \"overlapped\": {{").unwrap();
    writeln!(j, "        \"solve_s\": {threads_solve_s:.9},").unwrap();
    writeln!(j, "        \"wait_halo_s\": {:.9},", thr_w0.halo_s).unwrap();
    writeln!(j, "        \"halo_hidden_s\": {:.9},", thr_w0.halo_hidden_s).unwrap();
    writeln!(j, "        \"interior_rows\": {},", thr_w0.interior_rows).unwrap();
    writeln!(j, "        \"boundary_rows\": {},", thr_w0.boundary_rows).unwrap();
    writeln!(j, "        \"allreduces\": {}", spmd.stats[0].allreduces).unwrap();
    writeln!(j, "      }},").unwrap();
    writeln!(j, "      \"wait_halo_reduction\": {thr_reduction:.3}").unwrap();
    writeln!(j, "    }},").unwrap();
    match (&socket_block, &socket) {
        (Some(sb), Some(sp)) => {
            let sock_reduction = reduction(sb.halo_s, sp.halo_s);
            writeln!(j, "    \"socket\": {{").unwrap();
            writeln!(j, "      \"blocking\": {{").unwrap();
            writeln!(j, "        \"solve_s\": {:.9},", sb.solve_s).unwrap();
            writeln!(j, "        \"wait_halo_s\": {:.9},", sb.halo_s).unwrap();
            writeln!(j, "        \"allreduces\": {}", sb.allreduces).unwrap();
            writeln!(j, "      }},").unwrap();
            writeln!(j, "      \"overlapped\": {{").unwrap();
            writeln!(j, "        \"solve_s\": {:.9},", sp.solve_s).unwrap();
            writeln!(j, "        \"wait_halo_s\": {:.9},", sp.halo_s).unwrap();
            writeln!(j, "        \"halo_hidden_s\": {:.9},", sp.halo_hidden_s).unwrap();
            writeln!(j, "        \"interior_rows\": {},", sp.interior_rows).unwrap();
            writeln!(j, "        \"boundary_rows\": {},", sp.boundary_rows).unwrap();
            writeln!(j, "        \"allreduces\": {}", sp.allreduces).unwrap();
            writeln!(j, "      }},").unwrap();
            writeln!(j, "      \"wait_halo_reduction\": {sock_reduction:.3}").unwrap();
            writeln!(j, "    }}").unwrap();
        }
        _ => {
            writeln!(j, "    \"socket\": {{ \"skipped\": true }}").unwrap();
        }
    }
    writeln!(j, "  }},").unwrap();

    // --- Setup weak scaling -> JSON --------------------------------------
    // Efficiencies are relative to the p=1 point: wall_efficiency is
    // wall(1)/wall(p) (ideal 1.0 — same wall time, p times the problem),
    // phase_efficiency is p*phase(1)/phase(p) on the thread-summed scope
    // times (ideal 1.0 — each rank spends what the single rank spent).
    writeln!(j, "  \"setup_scaling\": {{").unwrap();
    writeln!(j, "    \"dof_per_rank_target\": {setup_dof},").unwrap();
    writeln!(j, "    \"degenerate\": {degenerate},").unwrap();
    writeln!(j, "    \"points\": [").unwrap();
    let base = &setup_points[0];
    for (i, pt) in setup_points.iter().enumerate() {
        writeln!(j, "      {{").unwrap();
        writeln!(j, "        \"ranks\": {},", pt.ranks).unwrap();
        writeln!(j, "        \"ndof\": {},", pt.ndof).unwrap();
        writeln!(j, "        \"levels\": {},", pt.levels).unwrap();
        writeln!(j, "        \"wall_s\": {:.9},", pt.wall_s).unwrap();
        writeln!(j, "        \"setup_msgs\": {},", pt.setup_msgs).unwrap();
        writeln!(j, "        \"setup_bytes\": {},", pt.setup_bytes).unwrap();
        writeln!(
            j,
            "        \"wall_efficiency\": {:.3},",
            if pt.wall_s > 0.0 {
                base.wall_s / pt.wall_s
            } else {
                0.0
            }
        )
        .unwrap();
        writeln!(j, "        \"phases_s\": {{").unwrap();
        for (n, (name, s)) in setup_phase_names.iter().zip(&pt.phase_s).enumerate() {
            let comma = if n + 1 < setup_phase_names.len() {
                ","
            } else {
                ""
            };
            writeln!(j, "          \"{name}\": {s:.9}{comma}").unwrap();
        }
        writeln!(j, "        }},").unwrap();
        writeln!(j, "        \"phase_efficiency\": {{").unwrap();
        for (n, (name, s)) in setup_phase_names.iter().zip(&pt.phase_s).enumerate() {
            let eff = if *s > 0.0 && base.phase_s[n] > 0.0 {
                pt.ranks as f64 * base.phase_s[n] / s
            } else {
                0.0
            };
            let comma = if n + 1 < setup_phase_names.len() {
                ","
            } else {
                ""
            };
            writeln!(j, "          \"{name}\": {eff:.3}{comma}").unwrap();
        }
        writeln!(j, "        }}").unwrap();
        writeln!(
            j,
            "      }}{}",
            if i + 1 < setup_points.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(j, "    ]").unwrap();
    writeln!(j, "  }}").unwrap();
    writeln!(j, "}}").unwrap();
    std::fs::write(&out_path, &json).expect("write bench snapshot");

    println!("spmv      csr {spmv_csr:.3e}s  bsr3 {spmv_bsr:.3e}s  ({spmv_speedup:.2}x)");
    println!(
        "spmm k=4  csr {:.3e}s ({csr_k4_speedup:.2}x/vec)  bsr3 {:.3e}s ({bsr_k4_speedup:.2}x/vec)  \
         matrix-free {:.3e}s ({mf_k4_speedup:.2}x/vec)",
        multi_csr[1], multi_bsr[1], multi_mf[1]
    );
    println!(
        "fine op   assembled {assembled_resident} B (csr {csr_bytes} + bsr3 {bsr3_bytes})  \
         matrix-free {mf_bytes} B ({memory_ratio:.2}x less memory; apply {apply_mf:.3e}s, \
         {apply_ratio:.2}x bsr3)"
    );
    println!("rap       cold {rap_cold:.3e}s  planned {rap_planned:.3e}s  ({rap_speedup:.2}x)");
    println!("assemble  cold {asm_cold:.3e}s  reuse {asm_warm:.3e}s  ({asm_speedup:.2}x)");
    if degenerate {
        println!("threads   1-core host: scaling section degenerate, no speedup claims");
    } else {
        println!(
            "threads   1 vs {threads}: spmv_par {:.2}x  smoother {:.2}x  warm assembly {:.2}x",
            spmv_par_1 / spmv_par_n,
            smooth_1 / smooth_n,
            asm_1 / asm_n
        );
    }
    println!(
        "counters  plan build/reuse {}/{}  pattern build/reuse {}/{}  bsr3 promoted {}  halo plan build/reuse {}/{}",
        counter("rap/plan_build"),
        counter("rap/plan_reuse"),
        counter("assembly/pattern_build"),
        counter("assembly/pattern_reuse"),
        counter("spmv/bsr3_promoted"),
        counter("comm/plan_build"),
        counter("comm/plan_reuse")
    );
    println!(
        "comm      sim {sim_solve_s:.3e}s  threads(2) {threads_solve_s:.3e}s \
         ({thr_msgs} msgs, {thr_bytes} B, max wait {thr_wait_max:.3e}s)"
    );
    match &socket {
        Some(sp) => println!(
            "          sockets(2) {:.3e}s ({} msgs, {} B, wait {:.3e}s, {} retries)",
            sp.solve_s, sp.msgs, sp.bytes, sp.wait_s, sp.retries
        ),
        None => println!("          sockets(2) skipped (spheres_rank binary not built alongside)"),
    }
    println!(
        "overlap   threads wait_halo {:.3e}s -> {:.3e}s ({:.0}% hidden behind {} interior rows), \
         allreduces {} -> {}",
        thr_w0_block.halo_s,
        thr_w0.halo_s,
        100.0 * thr_reduction,
        thr_w0.interior_rows,
        spmd_block.stats[0].allreduces,
        spmd.stats[0].allreduces
    );
    if let (Some(sb), Some(sp)) = (&socket_block, &socket) {
        println!(
            "          sockets wait_halo {:.3e}s -> {:.3e}s ({:.0}%), allreduces {} -> {}",
            sb.halo_s,
            sp.halo_s,
            100.0 * reduction(sb.halo_s, sp.halo_s),
            sb.allreduces,
            sp.allreduces
        );
    }
    for pt in &setup_points {
        println!(
            "setup     p={} {} dof, {} levels: wall {:.3e}s (eff {:.2}){}",
            pt.ranks,
            pt.ndof,
            pt.levels,
            pt.wall_s,
            base.wall_s / pt.wall_s,
            if degenerate { " [degenerate host]" } else { "" }
        );
    }
    println!("wrote {out_path}");

    if std::env::var("PMG_BENCH_ASSERT").as_deref() == Ok("1") {
        assert!(
            rap_speedup >= 1.5,
            "planned RAP only {rap_speedup:.2}x vs cold (need >= 1.5x)"
        );
        assert!(
            asm_speedup >= 1.5,
            "pattern-reuse assembly only {asm_speedup:.2}x vs cold (need >= 1.5x)"
        );
        assert!(
            memory_ratio >= 2.0,
            "matrix-free fine operator only {memory_ratio:.2}x smaller than the \
             assembled matrix (need >= 2x)"
        );
        assert!(
            apply_ratio <= 2.0,
            "matrix-free apply is {apply_ratio:.2}x the BSR3 apply (need <= 2x)"
        );
        assert!(
            mf_k4_speedup >= 1.3,
            "batched matrix-free SpMM at k=4 only {mf_k4_speedup:.2}x per vector \
             vs single apply (need >= 1.3x)"
        );
    }
}
