//! Criterion microbenchmarks of the solver's kernels: SpMV, the Galerkin
//! triple product, element assembly (serial, and one rank's cold context
//! build and owned rows),
//! MIS, face identification, Delaunay tetrahedralization
//! (random points, and the benchmark's first coarse grid with its
//! double-word and exact-diff `insphere` stages on their own), the
//! block-Jacobi application,
//! factorisation and block partition, a level operator's cold distribution
//! against its value-only refresh, one rank's promoted share built from
//! its owned rows, one Newton re-setup and its parts level by level, the
//! sharded Galerkin product of one rank, the matrix-free
//! operator's apply, and one V-cycle/FMG cycle.
//!
//! The first row printed is a fixed reference: the CSR SpMV of the 9.8k-dof
//! spheres operator, min of 30. Every hand-timed row carries its time over
//! that reference beside it (`x ref`), so two runs in different processes
//! compare by the ratio, which the host's drift between them moves less than
//! the absolute time.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pmg_bench::{spheres_first_solve, spheres_first_solve_of, FirstSolveSystem};
use pmg_geometry::{Delaunay, Predicates, StageCounts, Vec3};
use pmg_mesh::{boundary_facets, facet_adjacency};
use pmg_parallel::{DistMatrix, DistVec, Layout, MachineModel, RankMatrix, Sim};
use pmg_partition::{partition_graph, Graph, TwinQuotient};
use pmg_solver::RankJacobi;
use pmg_sparse::dense::{Cholesky, DenseMatrix};
use pmg_sparse::{Bsr3Matrix, CsrMatrix, Operator, PatternFingerprint, RapPlan};
use prometheus::mg::Smoother;
use prometheus::{
    classify_mesh, coarsen_level, greedy_mis, identify_faces, CoarsenOptions, MgHierarchy,
    MgOptions, MisOrdering, Prometheus, PrometheusOptions,
};
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn bench_spmv(c: &mut Criterion) {
    let sys = spheres_first_solve(1);
    let n = sys.matrix.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut y = vec![0.0; n];
    let mut g = c.benchmark_group("spmv");
    g.bench_function("serial", |b| b.iter(|| sys.matrix.spmv(&x, &mut y)));
    g.finish();
}

/// First-solve system of the 9.8k-dof spheres (ladder point 1 on a 6-cell
/// surface grid): the benchmark's `cold10k` / `newton10k` problem.
fn newton10k_system() -> FirstSolveSystem {
    spheres_first_solve_of(&pmg_mesh::SpheresParams {
        n_surf: 6,
        ..pmg_mesh::SpheresParams::ladder(1)
    })
}

/// The reference time: the CSR SpMV of the 9.8k-dof spheres operator, min
/// of 30, measured once per process.
fn reference_s() -> f64 {
    static REFERENCE: OnceLock<f64> = OnceLock::new();
    *REFERENCE.get_or_init(|| {
        let a = newton10k_system().matrix;
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut y = vec![0.0; a.nrows()];
        sorted_times(30, || a.spmv(black_box(&x), &mut y))[0]
    })
}

/// `t` over the reference time, as printed beside a hand-timed row.
fn vs_ref(t: f64) -> String {
    format!("{:>7.2}x ref", t / reference_s())
}

/// The reference row, printed before every other.
fn bench_reference(_c: &mut Criterion) {
    println!(
        "reference/csr_spmv_9.8k min {:>8.3} ms",
        reference_s() * 1e3
    );
}

/// CSR against the 3x3-blocked product on what the benchmark's `newton10k`
/// reads: the 9.8k-dof fine operator and its level-1 Galerkin operator.
/// Every row prints ns per stored tile and GB/s over the resident bytes,
/// to be read against the floor of 76 B per tile at the host's L3 rate.
fn bench_bsr(_c: &mut Criterion) {
    let sys = newton10k_system();
    let solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, PrometheusOptions::default());
    let level1 = solver.mg.levels[1].a.to_global();
    println!("# group: spmv_blocked");
    for (level, a) in [("fine", &sys.matrix), ("level1", &level1)] {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut y = vec![0.0; n];
        let bsr = Bsr3Matrix::from_csr(a);

        // Bytes one product reads and writes: the operator plus `x` and `y`.
        let report = |name: &str, tiles: usize, bytes: u64, times: Vec<f64>| {
            let t = times[times.len() / 2];
            println!(
                "spmv_blocked/{:<22} median {:>8.1} us {:>6.2} ns/tile {:>6.2} GB/s   min {}",
                format!("{level}/{name}"),
                t * 1e6,
                t * 1e9 / tiles as f64,
                bytes as f64 / t / 1e9,
                vs_ref(times[0])
            );
        };
        let (tiles, vectors) = (bsr.num_blocks(), 16 * n as u64);
        let t = sorted_times(200, || a.spmv(black_box(&x), &mut y));
        report("csr", tiles, a.memory_bytes() + vectors, t);
        let t = sorted_times(200, || bsr.spmv(black_box(&x), &mut y));
        report("bsr3", tiles, bsr.memory_bytes() + vectors, t);
    }
}

fn bench_rap(c: &mut Criterion) {
    // Cold symbolic+numeric triple product vs numeric-only re-execution of a
    // cached `RapPlan` — the Newton-loop path after the first assembly.
    let sys = spheres_first_solve(1);
    let mesh = &sys.mesh;
    let graph = mesh.vertex_graph();
    let classes = classify_mesh(mesh, 0.7);
    let lvl = coarsen_level(&mesh.coords, &graph, &classes, &CoarsenOptions::default());
    let r = prometheus::mg::expand_restriction(&lvl.restriction, 3);
    let mut plan = pmg_sparse::RapPlan::new(&sys.matrix, &r);
    let mut g = c.benchmark_group("rap");
    g.bench_function("cold", |b| b.iter(|| sys.matrix.rap(&r)));
    g.bench_function("planned", |b| b.iter(|| plan.execute(&sys.matrix)));
    g.finish();
}

fn bench_assembly(c: &mut Criterion) {
    // Cold = vertex pattern + scatter positions + values; pattern_reuse =
    // the value-only refill every Newton iteration after the first takes.
    // What the problem keeps between assemblies prints beside them.
    let params = pmg_mesh::SpheresParams::tiny();
    let mesh = pmg_mesh::sphere_in_cube(&params);
    let mats = pmg_fem::table1_materials();
    let u = vec![0.0; mesh.num_dof()];
    let mut g = c.benchmark_group("assemble");
    g.bench_function("cold", |b| {
        b.iter_batched(
            || (mesh.clone(), mats.clone()),
            |(m, mt)| pmg_fem::FemProblem::new(m, mt).assemble(&u),
            BatchSize::SmallInput,
        )
    });
    let mut fem = pmg_fem::FemProblem::new(mesh.clone(), mats.clone());
    fem.assemble(&u);
    println!(
        "assemble/cold, pattern_reuse: memory_bytes {} B ({} dof)",
        fem.memory_bytes(),
        fem.ndof()
    );
    g.bench_function("pattern_reuse", |b| b.iter(|| fem.assemble(&u)));

    // One rank's context on the benchmark's `spmd2_17k` block (18^3
    // vertices, rank 1 of 2): its cold build (owned-row vertex pattern and
    // scatter positions, geometry, history), then its warm assembly of the
    // owned rows (the element kernel over the shard, rows in global
    // columns as assembled).
    let block = pmg_mesh::generators::block(17, 17, 17, Vec3::splat(1.0), |_| 0);
    let part = pmg_partition::recursive_coordinate_bisection(&block.coords, 2);
    let shard = &pmg_mesh::shard_mesh(&block, &part, 2)[1];
    let elastic: Vec<std::sync::Arc<dyn pmg_fem::Material>> = vec![std::sync::Arc::new(
        pmg_fem::LinearElastic::from_e_nu(1.0, 0.3),
    )];
    g.bench_function("rank_from_shard", |b| {
        b.iter(|| pmg_fem::RankAssembly::from_shard(shard, &elastic))
    });
    let mut rank = pmg_fem::RankAssembly::from_shard(shard, &elastic);
    let u_local = vec![0.0; rank.num_local_dof()];
    g.bench_function("rank_assemble_owned", |b| {
        b.iter(|| rank.assemble_owned_local(&u_local, block.num_dof()))
    });
    g.finish();
}

fn bench_mis(c: &mut Criterion) {
    let mesh = pmg_mesh::generators::cube(20);
    let g = mesh.vertex_graph();
    let n = mesh.num_vertices();
    let rank = vec![0u8; n];
    let mut grp = c.benchmark_group("mis");
    for (name, ord) in [
        ("natural", MisOrdering::Natural),
        ("random", MisOrdering::Random(5)),
    ] {
        let order = ord.order(&g, &rank);
        grp.bench_function(name, |b| b.iter(|| greedy_mis(&g, &order)));
    }
    grp.finish();
}

fn bench_face_identification(c: &mut Criterion) {
    let mesh = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams::ladder(1));
    let facets = boundary_facets(&mesh);
    let adj = facet_adjacency(&facets);
    c.bench_function("face_identification", |b| {
        b.iter(|| identify_faces(&facets, &adj, 0.7))
    });
}

fn bench_delaunay(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let pts: Vec<Vec3> = (0..2000)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    c.bench_function("delaunay_2k_points", |b| {
        b.iter_batched(|| pts.clone(), |p| Delaunay::new(&p), BatchSize::SmallInput)
    });
}

fn bench_cycles(c: &mut Criterion) {
    let sys = spheres_first_solve(1);
    let mesh = &sys.mesh;
    let graph = mesh.vertex_graph();
    let classes = classify_mesh(mesh, 0.7);
    let mut sim = Sim::new(2, MachineModel::default());
    let mg = MgHierarchy::build(
        &mut sim,
        &sys.matrix,
        &mesh.coords,
        &graph,
        &classes,
        MgOptions {
            coarse_dof_threshold: 600,
            ..Default::default()
        },
    );
    let layout = mg.levels[0].a.row_layout().clone();
    let r = DistVec::from_global(layout, &sys.rhs);
    let mut grp = c.benchmark_group("mg_cycle");
    grp.sample_size(20);
    grp.bench_function("vcycle", |b| b.iter(|| mg.vcycle(&mut sim, 0, &r)));
    grp.bench_function("fmg", |b| b.iter(|| mg.fmg(&mut sim, &r)));
    grp.finish();
}

fn bench_smoother(c: &mut Criterion) {
    let sys = spheres_first_solve(1);
    let mesh = &sys.mesh;
    let graph = mesh.vertex_graph();
    let classes = classify_mesh(mesh, 0.7);
    let mut sim = Sim::new(2, MachineModel::default());
    let mg = MgHierarchy::build(
        &mut sim,
        &sys.matrix,
        &mesh.coords,
        &graph,
        &classes,
        MgOptions {
            coarse_dof_threshold: 600,
            ..Default::default()
        },
    );
    let level = &mg.levels[0];
    let layout = level.a.row_layout().clone();
    let b0 = DistVec::from_global(layout.clone(), &sys.rhs);
    let mut x = DistVec::zeros(layout);
    c.bench_function("block_jacobi_sweep", |b| {
        b.iter(|| level.smoother.smooth(&mut sim, &level.a, &b0, &mut x, 1))
    });
}

/// The fine-grid smoother's block solves at the paper's density on the
/// 9.8k-dof spheres: 59 packed 166-dof Cholesky factors (6.5 MB, past L2)
/// solved one after the other, next to a pure read of the same bytes — the
/// floor a solve that streams each factor once from memory can reach.
fn bench_block_solve(_c: &mut Criterion) {
    const BLOCKS: usize = 59;
    const N: usize = 166;
    let factors: Vec<Cholesky> = (0..BLOCKS)
        .map(|b| {
            let spd = DenseMatrix::from_fn(N, N, |i, j| {
                let off = 1.0 / (1.0 + (i as f64 - j as f64).abs() + b as f64 * 0.01);
                if i == j {
                    N as f64
                } else {
                    off
                }
            });
            Cholesky::factor(&spd).expect("diagonally dominant")
        })
        .collect();
    let stream: Vec<Vec<f64>> = vec![vec![1.0; N * (N + 1) / 2]; BLOCKS];
    let bytes = (BLOCKS * N * (N + 1) / 2 * 8) as f64;
    let mut rhs = vec![0.0; N];

    // Fastest of a fixed number of passes: the floor is what is compared.
    let fastest = |f: &mut dyn FnMut()| -> f64 {
        f(); // warm-up
        (0..200)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let solve = fastest(&mut || {
        for f in &factors {
            rhs.iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = 1.0 + (i % 5) as f64);
            f.solve_in_place(black_box(&mut rhs));
        }
    });
    let read = fastest(&mut || {
        for v in &stream {
            // Integer xor reassociates freely, so the read vectorizes.
            black_box(black_box(v).iter().fold(0u64, |a, x| a ^ x.to_bits()));
        }
    });
    println!(
        "# group: block_solve_166 ({BLOCKS} blocks, {:.1} MB of factors)",
        bytes / 1e6
    );
    for (name, t) in [("solve", solve), ("stream", read)] {
        println!(
            "block_solve_166/{name:<24} min {:>9.3} ms   {:>6.2} GB/s   {}",
            t * 1e3,
            bytes / t / 1e9,
            vs_ref(t)
        );
    }
}

/// Sorted wall times of `runs` calls of `f` after one warm-up call.
fn sorted_times(runs: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut times: Vec<f64> = (0..=runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .skip(1)
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Sorted wall times of `runs` calls of `f`, each on a new input that
/// `input` makes outside the timer, after one warm-up call.
fn sorted_times_on<T>(runs: usize, mut input: impl FnMut() -> T, mut f: impl FnMut(T)) -> Vec<f64> {
    let mut times: Vec<f64> = (0..=runs)
        .map(|_| {
            let x = input();
            let t = std::time::Instant::now();
            f(x);
            t.elapsed().as_secs_f64()
        })
        .skip(1)
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// One Newton re-setup on the 9.8k-dof spheres at one rank — the call
/// `newton10k`'s `setup_s` times — and its parts level by level: level 0's
/// value refresh from the caller's operator (the only level refreshed from
/// a CSR: every coarser one is written in place by the product above it),
/// each level's Galerkin product into the next level's share, and each
/// level's smoother refactor. Every call that takes the caller's operator
/// gets a new one built with `CsrMatrix::from_parts` outside the timer, so
/// it carries no fingerprint and the call pays the one hash a caller's
/// fresh assembly costs. The products and refactors read the shares only,
/// which carry their fingerprints for their lifetime.
fn bench_newton_update(_c: &mut Criterion) {
    let sys = newton10k_system();
    let a = &sys.matrix;
    let fresh = || {
        let (rows, cols) = (a.row_ptr().to_vec(), a.col_idx().to_vec());
        CsrMatrix::from_parts(a.nrows(), a.ncols(), rows, cols, a.vals().to_vec())
    };
    let mut solver = Prometheus::from_mesh(&sys.mesh, a, PrometheusOptions::default());
    let mut rows = vec![(
        "update_matrix".to_string(),
        sorted_times_on(30, fresh, |m| solver.update_matrix(&m)),
    )];
    rows.push((
        "lvl0/refresh".into(),
        sorted_times_on(30, fresh, |m| {
            assert!(solver.mg.levels[0].a.refresh_from_global(&m));
        }),
    ));
    let levels = &mut solver.mg.levels;
    for lvl in 0..levels.len() {
        let (upper, lower) = levels.split_at_mut(lvl + 1);
        let level = &mut upper[lvl];
        if let (Some(next), Some(plan)) = (lower.first_mut(), level.rap_plan.as_ref()) {
            let product = sorted_times(30, || level.a.galerkin_into(plan, &mut next.a));
            rows.push((format!("lvl{lvl}/product"), product));
        }
        let Smoother::BlockJacobi(bj) = &mut level.smoother else {
            panic!("the default smoother is block Jacobi")
        };
        rows.push((
            format!("lvl{lvl}/refactor"),
            sorted_times(30, || bj.refactor(&level.a)),
        ));
    }
    println!(
        "# group: newton_update ({} dof, {} nnz, levels {:?}, one rank)",
        a.nrows(),
        a.nnz(),
        solver.level_sizes()
    );
    for (name, times) in rows {
        println!(
            "newton_update/{name:<14} min {:>8.3} ms   median {:>8.3} ms   {}",
            times[0] * 1e3,
            times[times.len() / 2] * 1e3,
            vs_ref(times[0])
        );
    }
}

/// One rank's promoted level-0 share built from its owned rows, as the
/// sharded set-up builds it: rank 0 of the 9.8k-dof spheres split in two by
/// coordinate bisection (vertex-aligned, so the owned block is tiled and
/// the ghost columns go to the scalar `off` block).
fn bench_rank_share(_c: &mut Criterion) {
    let sys = newton10k_system();
    let part = pmg_partition::recursive_coordinate_bisection(&sys.mesh.coords, 2);
    let layout = Layout::expand_dofs(&Layout::from_part(part, 2), 3);
    let a_local = sys.matrix.extract_rows(layout.owned(0));
    PatternFingerprint::of(&a_local);
    let build = || RankMatrix::from_local_rows_blocked(&a_local, layout.clone(), layout.clone(), 0);
    assert!(build().bsr3_routed());
    let times = sorted_times(30, || drop(black_box(build())));
    println!(
        "# group: rank_share ({} owned rows of {}, {} nnz, two ranks)",
        a_local.nrows(),
        sys.matrix.nrows(),
        a_local.nnz()
    );
    println!(
        "rank_share/p2_lvl0_rank0 min {:>8.3} ms   median {:>8.3} ms   {}",
        times[0] * 1e3,
        times[times.len() / 2] * 1e3,
        vs_ref(times[0])
    );
}

/// The sharded Galerkin product as one rank runs it, on the 9.8k-dof
/// spheres with the level-0 restriction of `coarsen_level`: this rank owns
/// every vertex and holds the whole operator as one source.
/// `plan_tile_execute` is what a rank's set-up runs — a held-rows plan
/// built with its rows tiled in the same pass, executed and dropped;
/// `plan_new_execute` is
/// the simulator's route to the same rows, `RapPlan::new` + `execute`;
/// `warm_tile_execute` re-tiles and executes a built held-rows plan, what a
/// rank-side Newton update that kept its plan would pay for this product
/// (beside `newton_update/lvl0/product`). All three outputs are checked
/// bit for bit before anything is timed.
fn bench_held_rows(_c: &mut Criterion) {
    let sys = newton10k_system();
    let (a, mesh) = (&sys.matrix, &sys.mesh);
    let classes = classify_mesh(mesh, 0.7);
    let opts = CoarsenOptions::default();
    let r_v = coarsen_level(&mesh.coords, &mesh.vertex_graph(), &classes, &opts).restriction;
    let (rt_v, r) = (r_v.transpose(), prometheus::mg::expand_restriction(&r_v, 3));
    let all: Vec<u32> = (0..r_v.ncols() as u32).collect();
    let held = [(&all[..], a)];
    let plan = || RapPlan::over_held(3, &r_v, &held, &all, &rt_v);
    let cold = || {
        let (mut plan, tiles) = plan();
        plan.execute_tiles_csr(&tiles)
    };
    let planned = || RapPlan::new(a, &r).execute(a);
    let mut kept = plan().0;
    let mut warm = || {
        let tiles = kept
            .tile_held(&held)
            .expect("the rows the plan was built over");
        kept.execute_tiles_csr(&tiles)
    };
    let want = planned();
    for mine in [cold(), warm()] {
        assert_eq!(mine.col_idx(), want.col_idx());
        assert!(mine
            .vals()
            .iter()
            .zip(want.vals())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    println!(
        "# group: held_rows ({} dof, {} nnz -> {} coarse rows, {} nnz, one rank)",
        a.nrows(),
        a.nnz(),
        want.nrows(),
        want.nnz()
    );
    for (name, times) in [
        (
            "plan_tile_execute",
            sorted_times(30, || drop(black_box(cold()))),
        ),
        (
            "plan_new_execute",
            sorted_times(30, || drop(black_box(planned()))),
        ),
        (
            "warm_tile_execute",
            sorted_times(30, || drop(black_box(warm()))),
        ),
    ] {
        println!(
            "held_rows/{name:<17} min {:>8.3} ms   median {:>8.3} ms   {}",
            times[0] * 1e3,
            times[times.len() / 2] * 1e3,
            vs_ref(times[0])
        );
    }
}

/// The matrix-free fine operator's apply on the 9.8k-dof spheres at its
/// two linearisations: at rest (every Gauss point isotropic, so aligned
/// runs of eight elements take the lane kernel) and strained (every
/// Neo-Hookean point general-class, the 81-component kernel). The
/// benchmark reads only the first, as the per-layer row
/// `fem.matfree_apply_s` of a traced `cold10k` run.
fn bench_matfree(_c: &mut Criterion) {
    let sys = newton10k_system();
    let n = sys.mesh.num_dof();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let strained: Vec<f64> = (0..n)
        .map(|i| 1e-3 * ((i * 7 % 11) as f64 / 11.0 - 0.5))
        .collect();
    let mut y = vec![0.0; n];
    println!(
        "# group: matfree ({n} dof, {} elements)",
        sys.mesh.num_elements()
    );
    for (name, u) in [("apply_rest", vec![0.0; n]), ("apply_strained", strained)] {
        let op = pmg_fem::MatFreeOperator::new(&sys.problem.fem, &u, &sys.fixed, sys.scale);
        let times = sorted_times(200, || op.apply(black_box(&x), black_box(&mut y)));
        println!(
            "matfree/{name:<14} min {:>8.3} ms   median {:>8.3} ms   {}",
            times[0] * 1e3,
            times[times.len() / 2] * 1e3,
            vs_ref(times[0])
        );
    }
}

/// The numeric half of the fine-grid smoother set-up at the same size: 59
/// SPD 166-dof blocks factored one after the other (`n³/3` flops each).
fn bench_block_factor(_c: &mut Criterion) {
    const BLOCKS: usize = 59;
    const N: usize = 166;
    let mut rng = rand::rngs::StdRng::seed_from_u64(166);
    let blocks: Vec<DenseMatrix> = (0..BLOCKS)
        .map(|_| {
            let m: Vec<f64> = (0..N * N).map(|_| rng.gen_range(-1.0..1.0)).collect();
            DenseMatrix::from_fn(N, N, |i, j| {
                let (ri, rj) = (&m[i * N..][..N], &m[j * N..][..N]);
                let dot: f64 = ri.iter().zip(rj).map(|(a, b)| a * b).sum();
                dot + if i == j { 1.0 } else { 0.0 }
            })
        })
        .collect();
    let times = sorted_times(40, || {
        for a in &blocks {
            black_box(Cholesky::factor(black_box(a)).expect("SPD"));
        }
    });
    let flops = (BLOCKS * N * N * N) as f64 / 3.0;
    println!("# group: cholesky_factor_166 ({BLOCKS} blocks)");
    for (name, t) in [("min", times[0]), ("median", times[times.len() / 2])] {
        println!(
            "cholesky_factor_166/{name:<21} {:>9.3} ms   {:>6.2} Gflop/s   {}",
            t * 1e3,
            flops / t / 1e9,
            vs_ref(t)
        );
    }
}

/// The smoother's numeric half and its block solves on the real fine-level
/// share: one `RankJacobi` of the 9.8k-dof spheres operator at the paper's
/// density (59 blocks, the `cold10k` / `newton10k` level 0 at one rank),
/// reading the share's rows through its tiles as the hierarchy does,
/// refactored in place as a Newton re-setup does and swept once from zero,
/// beside the bytes its envelope factors hold and the bytes dense packed
/// triangles of the same blocks would. `block_solve_166` and
/// `cholesky_factor_166` time synthetic dense blocks, whose profile no
/// smoother block has.
fn bench_rank_jacobi(_c: &mut Criterion) {
    let a = newton10k_system().matrix;
    let opts = MgOptions::default();
    let layout = Layout::serial(a.nrows());
    let share = DistMatrix::from_global_blocked(&a, layout.clone(), layout);
    let local = share.local_block(0);
    assert!(local.tiles().is_some(), "the level-0 share is tiled");
    let mut rj = RankJacobi::new(local, opts.blocks_per_1000, opts.omega);
    let dense: u64 = rj.block_sizes().map(|n| 4 * (n * (n + 1)) as u64).sum();
    let refactor = sorted_times(40, || rj.refactor(black_box(local)));
    let r: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut x = vec![0.0; a.nrows()];
    let sweep = sorted_times(300, || rj.solve_from_zero(black_box(&r), &mut x));
    println!(
        "# group: block_jacobi_lvl0 ({} blocks, {:.2} MB resident, {:.2} MB as dense packed factors)",
        rj.num_blocks(),
        rj.memory_bytes() as f64 / 1e6,
        dense as f64 / 1e6
    );
    for (name, times) in [("refactor", refactor), ("solve_from_zero", sweep)] {
        println!(
            "block_jacobi_lvl0/{name:<16} min {:>8.3} ms   median {:>8.3} ms   {}",
            times[0] * 1e3,
            times[times.len() / 2] * 1e3,
            vs_ref(times[0])
        );
    }
}

/// The smoother's symbolic half at the same size: the 9.8k-dof spheres
/// operator's pattern cut into 6 blocks per 1000 dofs, as one rank's block
/// is. `partition_graph` partitions the dof graph (`from_pattern`) through
/// its twin quotient, as the benchmark's `partition.blocks_s` does;
/// `refine_kl` is the quotient's refinement, 4 passes from index runs of
/// the regions' size; `smoother_symbolic_lvl{0,1}` is `RankJacobi::new`
/// less its numeric half (the fastest `refactor`) on the `cold10k`
/// hierarchy's level-0 and level-1 shares, read through their tiles as the
/// hierarchy reads them — quotient, growth, refinement, index maps and
/// envelopes, and the factors' first allocation.
fn bench_block_partition(_c: &mut Criterion) {
    let sys = newton10k_system();
    let a = &sys.matrix;
    let n = a.nrows();
    let opts = MgOptions::default();
    let nblocks = ((opts.blocks_per_1000 * n as f64 / 1000.0).round() as usize).clamp(1, n);
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let g = Graph::from_pattern(row_ptr, col_idx);
    let q = TwinQuotient::of_graph(&g);
    let runs: Vec<u32> = (0..n).map(|v| (v / n.div_ceil(nblocks)) as u32).collect();
    let from_pattern = sorted_times(40, || {
        black_box(Graph::from_pattern(black_box(row_ptr), col_idx));
    });
    let partition = sorted_times(40, || {
        black_box(partition_graph(black_box(&g), nblocks));
    });
    let refine = sorted_times(40, || {
        let mut part = runs.clone();
        q.refine_kl(black_box(&mut part), nblocks, 4);
        black_box(part);
    });
    let mut rows = vec![
        ("from_pattern".to_string(), from_pattern),
        ("partition_graph".to_string(), partition),
        ("refine_kl".to_string(), refine),
    ];
    let solver = Prometheus::from_mesh(&sys.mesh, a, PrometheusOptions::default());
    for lvl in 0..2 {
        let local = solver.mg.levels[lvl].a.local_block(0);
        assert!(local.tiles().is_some(), "the level-{lvl} share is tiled");
        let build = || RankJacobi::new(black_box(local), opts.blocks_per_1000, opts.omega);
        let new = sorted_times(20, || _ = black_box(build()));
        let mut rj = build();
        let numeric = sorted_times(20, || rj.refactor(black_box(local)));
        let symbolic = new.iter().map(|t| t - numeric[0]).collect();
        rows.push((format!("smoother_symbolic_lvl{lvl}"), symbolic));
    }
    println!(
        "# group: block_partition (n = {n}, nnz = {}, {nblocks} blocks, {} twin classes)",
        col_idx.len(),
        q.num_classes()
    );
    for (name, times) in rows {
        println!(
            "block_partition/{name:<23} min {:>8.3} ms   median {:>8.3} ms   {}",
            times[0] * 1e3,
            times[times.len() / 2] * 1e3,
            vs_ref(times[0])
        );
    }
}

/// The remesh layer at the benchmark's size: the first coarse grid of the
/// 9.8k-dof spheres (`cold10k`'s mesh; 1250 points on concentric shells,
/// so coarse cells have cospherical corners and 7 % of the predicate calls
/// defeat the f64 filter), and the two `insphere` stages those calls land
/// in, each on a fixed set of quintuples it resolves: the double-word stage
/// on near-cospherical ones, the exact-diff stage on the exact zeros the
/// double-word stage cannot sign.
fn bench_remesh(_c: &mut Criterion) {
    let mesh = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams {
        n_surf: 6,
        ..pmg_mesh::SpheresParams::ladder(1)
    });
    let classes = classify_mesh(&mesh, 0.7);
    let lvl = coarsen_level(
        &mesh.coords,
        &mesh.vertex_graph(),
        &classes,
        &CoarsenOptions::default(),
    );
    let pts = lvl.coords;
    let counts = Delaunay::new(&pts)
        .expect("triangulation")
        .predicate_counts();
    let times = sorted_times(20, || {
        black_box(Delaunay::new(black_box(&pts)));
    });
    println!(
        "# group: delaunay_spheres_{} ({} predicate calls: {} filter, {} double-word, {} exact-diff, {} full-exact)",
        pts.len(),
        counts.total(),
        counts.filter,
        counts.double_word,
        counts.exact_diff,
        counts.full_exact
    );
    for (name, t) in [("min", times[0]), ("median", times[times.len() / 2])] {
        println!(
            "delaunay_spheres_{}/{name:<19} {:>9.3} ms   {:>6.2} us/point   {}",
            pts.len(),
            t * 1e3,
            t * 1e6 / pts.len() as f64,
            vs_ref(t)
        );
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(5208);
    // Rounded onto a common sphere and a 2^-24 lattice: every coordinate
    // difference is exact, and most quintuples defeat the filter.
    let near_sphere = |rng: &mut rand::rngs::StdRng| loop {
        let v = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        if v.norm2() > 0.01 && v.norm2() <= 1.0 {
            let p = Vec3::new(1.5, -0.25, 2.0) + 5.0 / v.norm() * v;
            let q = |x: f64| (x * 16_777_216.0).round() / 16_777_216.0;
            return Vec3::new(q(p.x), q(p.y), q(p.z));
        }
    };
    // Exactly on a common sphere: integer points of norm 3 about an integer
    // centre, so every quintuple is an exact zero.
    let on_sphere = |rng: &mut rand::rngs::StdRng| {
        let mut v = if rng.gen::<bool>() {
            [3.0, 0.0, 0.0]
        } else {
            [1.0, 2.0, 2.0]
        };
        v.rotate_left(rng.gen_range(0..3usize));
        let mut s = || if rng.gen::<bool>() { 1.0 } else { -1.0 };
        Vec3::new(2.0 + s() * v[0], -1.0 + s() * v[1], 4.0 + s() * v[2])
    };
    // The first 1000 quintuples drawn from `point` that `stage` resolves.
    let mut resolved_by =
        |stage: fn(StageCounts) -> u64, point: &dyn Fn(&mut rand::rngs::StdRng) -> Vec3| {
            let mut predicates = Predicates::new();
            let mut set: Vec<[Vec3; 5]> = Vec::new();
            while set.len() < 1000 {
                let q = [(); 5].map(|_| point(&mut rng));
                let before = stage(predicates.counts());
                predicates.insphere(q[0], q[1], q[2], q[3], q[4]);
                if stage(predicates.counts()) > before {
                    set.push(q);
                }
            }
            set
        };
    let rows = [
        (
            "insphere_double_word",
            "near-cospherical quintuples",
            resolved_by(|c| c.double_word, &near_sphere),
        ),
        (
            "insphere_exact_diff",
            "exactly cospherical quintuples",
            resolved_by(|c| c.exact_diff, &on_sphere),
        ),
    ];
    let mut predicates = Predicates::new();
    for (group, what, set) in rows {
        let times = sorted_times(40, || {
            for q in &set {
                black_box(predicates.insphere(q[0], q[1], q[2], q[3], black_box(q[4])));
            }
        });
        println!("# group: {group} ({} {what})", set.len());
        for (name, t) in [("min", times[0]), ("median", times[times.len() / 2])] {
            println!(
                "{:<41} {:>9.3} us/call   {}",
                format!("{group}/{name}"),
                t * 1e6 / set.len() as f64,
                vs_ref(t)
            );
        }
    }
}

/// A level operator distributed from scratch against the value-only
/// refresh a Newton iteration takes on an unchanged pattern: the fine
/// operator of the 9.8k-dof spheres (ladder point 1 on a 6-cell surface
/// grid, the benchmark's `newton10k` problem), one rank, BSR3 storage.
fn bench_distribute(c: &mut Criterion) {
    let a = newton10k_system().matrix;
    let l = Layout::serial(a.nrows());
    let cold = || DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
    let mut warm = cold();
    assert!(warm.bsr3_routed());
    c.bench_function("distribute_cold", |b| b.iter(cold));
    c.bench_function("distribute_refresh", |b| {
        b.iter(|| warm.refresh_from_global(&a))
    });
}

criterion_group!(
    benches,
    bench_reference,
    bench_spmv,
    bench_bsr,
    bench_rap,
    bench_assembly,
    bench_mis,
    bench_face_identification,
    bench_delaunay,
    bench_remesh,
    bench_cycles,
    bench_smoother,
    bench_block_solve,
    bench_block_factor,
    bench_rank_jacobi,
    bench_block_partition,
    bench_distribute,
    bench_newton_update,
    bench_rank_share,
    bench_held_rows,
    bench_matfree
);
criterion_main!(benches);
