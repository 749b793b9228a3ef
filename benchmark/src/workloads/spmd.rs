//! `spmd2_17k`: the message-passing engine. An elastic block of 18^3
//! vertices is partitioned at ingest and set up and solved by two ranks
//! that exchange real messages (`LocalTransport` threads): halo waits,
//! allreduces, owned-row coarse levels and row fetches happen only here,
//! while the virtual-rank stack that carries the spheres workloads idles.

use super::{Samples, Workload};
use crate::check::{bits_hash, rel_diff, rel_residual, Verdict};
use crate::inputs::{self, Rng};
use crate::layers::Opaque;
use crate::spec::Layers;
use crate::trace::Tracer;
use pmg_comm::{CommStats, LocalTransport, Transport};
use pmg_fem::{LinearElastic, Material, RankAssembly};
use pmg_geometry::Vec3;
use pmg_mesh::Mesh;
use pmg_parallel::Layout;
use pmg_solver::{PcgOptions, PcgResult};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{
    spmd_pcg, DistributedSetup, MgOptions, PhaseWaits, Prometheus, PrometheusOptions, RankHierarchy,
};
use std::sync::Arc;
use std::time::Instant;

pub const RANKS: usize = 2;
pub const RTOL: f64 = 1e-6;
const ELEMS: usize = 17;
const SOLVES: usize = 4;
const MAX_ITERS: usize = 200;
/// How close the two-rank answer has to be to a one-rank solve of the same
/// system by the other engine (measured: 7.4e-9).
const ORACLE_TOL: f64 = 1e-6;

fn materials() -> Vec<Arc<dyn Material>> {
    vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))]
}

/// Clamp rows and columns of the constrained dofs in a rank's owned rows
/// (`rows[i]` is row `i`'s global dof): a constrained row keeps `scale` on
/// its diagonal, a free row drops its constrained columns. All prescribed
/// values are zero, so the right-hand side is untouched.
/// (`pmg_fem::bc::constrain_system` needs the square global matrix, which
/// no rank holds on this path.)
fn clamp_owned(k: &CsrMatrix, rows: &[u32], fixed: &[bool], scale: f64) -> CsrMatrix {
    let mut b = CooBuilder::new(k.nrows(), k.ncols());
    for (i, &g) in rows.iter().enumerate() {
        if fixed[g as usize] {
            b.push(i, g as usize, scale);
            continue;
        }
        let (cols, vals) = k.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if !fixed[j] {
                b.push(i, j, v);
            }
        }
    }
    b.build()
}

struct Input {
    bytes: Vec<u8>,
    side: f64,
    /// Seeded amplitudes of the four right-hand sides.
    amplitudes: [f64; SOLVES],
}

impl Input {
    fn generate(seed: u64) -> Input {
        let mut rng = Rng::new(seed, 3);
        let k = inputs::unit_exponent(&mut rng);
        let side = 2f64.powi(k);
        let mesh = pmg_mesh::generators::block(ELEMS, ELEMS, ELEMS, Vec3::splat(side), |_| 0);
        Input {
            bytes: pmg_mesh::write_flat_bytes(&mesh),
            side,
            amplitudes: std::array::from_fn(|_| rng.range(0.75, 1.25)),
        }
    }

    /// Dofs of the clamped bottom face.
    fn fixed(&self, mesh: &Mesh) -> Vec<bool> {
        let mut fixed = vec![false; mesh.num_dof()];
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.z == 0.0 {
                fixed[3 * v..3 * v + 3].fill(true);
            }
        }
        fixed
    }

    /// Load `j`: the top face pressed down and sheared, scaled by the
    /// seeded amplitude.
    fn load(&self, mesh: &Mesh, j: usize) -> Vec<f64> {
        let mut b = vec![0.0; mesh.num_dof()];
        for (v, p) in mesh.coords.iter().enumerate() {
            if p.z == self.side {
                b[3 * v] = 0.3 * self.amplitudes[j];
                b[3 * v + 2] = -self.amplitudes[j];
            }
        }
        b
    }

    /// Diagonal of the clamped rows: the stiffness scale `E h`.
    fn scale(&self) -> f64 {
        self.side / ELEMS as f64
    }
}

/// One rank's share of set-up, with its own clock.
struct RankBuild {
    setup: DistributedSetup,
    a_owned: CsrMatrix,
    assemble_s: f64,
    build_s: f64,
    stats: CommStats,
}

/// Mesh to ready hierarchies: partition, shard, plan on the loading side;
/// assemble and build per rank. `tr` records the loading side's calls.
fn setup(input: &Input, mesh: &Mesh, tr: &mut Tracer) -> Vec<RankBuild> {
    let opts = MgOptions::default();
    let graph = tr.span("mesh.vertex_graph", |_| mesh.vertex_graph());
    let classes = tr.span("core.classify", |_| {
        prometheus::classify_mesh_parallel(mesh, 0.7, RANKS)
    });
    let part = tr.span("partition.rcb", |_| {
        pmg_partition::recursive_coordinate_bisection(&mesh.coords, RANKS)
    });
    let shards = tr.span("mesh.shard", |_| pmg_mesh::shard_mesh(mesh, &part, RANKS));
    let elem_counts: Vec<u32> = shards
        .iter()
        .map(|s| s.mesh.num_elements() as u32)
        .collect();
    let plan = tr.span("core.ingest.plan", |_| {
        prometheus::plan_ingest_with_part(
            &mesh.coords,
            &graph,
            &classes,
            &elem_counts,
            part,
            RANKS,
            &opts,
        )
    });
    let fixed = input.fixed(mesh);
    let ndof = mesh.num_dof();
    let mats = materials();
    let scale = input.scale();
    LocalTransport::run_ranks(RANKS, |mut t| {
        let rank = t.rank();
        let t0 = Instant::now();
        let mut assembly = RankAssembly::from_shard(&shards[rank], &mats);
        let u_local = vec![0.0; assembly.num_local_dof()];
        let (k_owned, _) = assembly.assemble_owned_local(&u_local, ndof);
        let a_owned = clamp_owned(&k_owned, &assembly.owned_rows(), &fixed, scale);
        let t1 = Instant::now();
        let setup = RankHierarchy::build_from_shards(&mut t, &plan.seeds[rank], &a_owned, opts)
            .expect("in-process transport set-up");
        RankBuild {
            setup,
            a_owned,
            assemble_s: (t1 - t0).as_secs_f64(),
            build_s: t1.elapsed().as_secs_f64(),
            stats: t.stats(),
        }
    })
}

/// One rank's share of a solve, with its own clock.
struct RankSolve {
    x_local: Vec<f64>,
    result: PcgResult,
    waits: PhaseWaits,
    stats: CommStats,
    solve_s: f64,
}

fn solve(builds: &[RankBuild], b: &[f64], overlap: bool) -> (Vec<f64>, Vec<RankSolve>) {
    let opts = PcgOptions {
        rtol: RTOL,
        max_iters: MAX_ITERS,
        ..Default::default()
    };
    let parts = LocalTransport::run_ranks(builds.len(), |mut t| {
        let setup = &builds[t.rank()].setup;
        let mut h = setup.rank_hierarchy();
        h.overlap = overlap;
        let bl: Vec<f64> = setup
            .fine_layout()
            .owned(t.rank())
            .iter()
            .map(|&g| b[g as usize])
            .collect();
        let mut x_local = vec![0.0; bl.len()];
        let t0 = Instant::now();
        let (result, waits) =
            spmd_pcg(&mut t, &h, &bl, &mut x_local, opts).expect("in-process transport solve");
        RankSolve {
            x_local,
            result,
            waits,
            stats: t.stats(),
            solve_s: t0.elapsed().as_secs_f64(),
        }
    });
    let layout: &Layout = builds[0].setup.fine_layout();
    let mut x = vec![0.0; layout.num_global()];
    for (rank, part) in parts.iter().enumerate() {
        for (&g, &v) in layout.owned(rank).iter().zip(&part.x_local) {
            x[g as usize] = v;
        }
    }
    (x, parts)
}

/// The rank shares stacked back into the global operator (rows in global
/// order), for the benchmark's own residual check.
fn global_matrix(builds: &[RankBuild]) -> CsrMatrix {
    let layout = builds[0].setup.fine_layout();
    let n = layout.num_global();
    let mut b = CooBuilder::new(n, n);
    for (rank, build) in builds.iter().enumerate() {
        for (i, &g) in layout.owned(rank).iter().enumerate() {
            let (cols, vals) = build.a_owned.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                b.push(g as usize, j, v);
            }
        }
    }
    b.build()
}

/// The same four systems solved by one rank of the other engine.
fn one_rank_solutions(input: &Input) -> Vec<Vec<f64>> {
    let mesh = pmg_mesh::read_flat_bytes(&input.bytes).expect("generated mesh bytes parse");
    let mut fem = pmg_fem::FemProblem::new(mesh, materials());
    let (k, _) = fem.assemble(&vec![0.0; fem.ndof()]);
    let mesh = &fem.mesh;
    let rows: Vec<u32> = (0..mesh.num_dof() as u32).collect();
    let a = clamp_owned(&k, &rows, &input.fixed(mesh), input.scale());
    let mut solver = Prometheus::from_mesh(mesh, &a, PrometheusOptions::default());
    (0..SOLVES)
        .map(|j| solver.solve(&input.load(mesh, j), None, RTOL).0)
        .collect()
}

pub struct Spmd {
    input: Input,
    /// One-rank solutions of the four systems, from the virtual-rank stack
    /// (`None` in the one-shot child, which only measures memory).
    oracle: Option<Vec<Vec<f64>>>,
    first_bits: [Option<u64>; SOLVES],
    facts: String,
}

impl Spmd {
    pub fn prepare(seed: u64, oracle: bool) -> Spmd {
        let input = Input::generate(seed);
        Spmd {
            oracle: oracle.then(|| one_rank_solutions(&input)),
            input,
            first_bits: [None; SOLVES],
            facts: String::new(),
        }
    }
}

impl Workload for Spmd {
    fn unit(&mut self, out: &mut Samples) -> Verdict {
        let t0 = Instant::now();
        let mesh = pmg_mesh::read_flat_bytes(&self.input.bytes).expect("mesh bytes parse");
        let t1 = Instant::now();
        let builds = setup(&self.input, &mesh, &mut Tracer::new());
        let t2 = Instant::now();
        out.setup.push((t2 - t1).as_secs_f64());
        let mut answers = Vec::with_capacity(SOLVES);
        for j in 0..SOLVES {
            let b = self.input.load(&mesh, j);
            let ts = Instant::now();
            let (x, parts) = solve(&builds, &b, true);
            let dt = ts.elapsed().as_secs_f64();
            out.solve.push(dt);
            if j == 0 {
                out.tts.push((t2 - t0).as_secs_f64() + dt);
            }
            answers.push((b, x, parts));
        }

        let mut v = Verdict::default();
        let a = global_matrix(&builds);
        for (j, (b, x, parts)) in answers.iter().enumerate() {
            let res = &parts[0].result;
            v.require(res.converged, || format!("solve {j} did not converge"));
            let rr = rel_residual(&a, x, b);
            v.require(rr <= 10.0 * RTOL, || {
                format!("solve {j}: true residual {rr:.3e} above 10 x rtol")
            });
            let bits = bits_hash(x);
            let first = *self.first_bits[j].get_or_insert(bits);
            v.require(bits == first, || {
                format!("solve {j}: solution bits differ from the first unit")
            });
            if let Some(oracle) = &self.oracle {
                let d = rel_diff(x, &oracle[j]);
                v.require(d <= ORACLE_TOL, || {
                    format!("solve {j}: differs from the one-rank solve by {d:.3e}")
                });
            }
        }
        if self.facts.is_empty() {
            let s = &builds[0].setup;
            let levels: Vec<usize> = (0..s.num_levels()).map(|l| s.level_rows(l)).collect();
            self.facts = format!(
                "{} dof, {} nnz over {RANKS} ranks, level rows {:?}, {} iterations to rtol {RTOL:.0e}",
                a.nrows(),
                a.nnz(),
                levels,
                answers[0].2[0].result.iterations
            );
        }
        v
    }

    fn describe(&self) -> String {
        self.facts.clone()
    }
}

fn max_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

pub fn traced(seed: u64, units: usize, tr: &mut Tracer, layers: &mut Layers) -> (usize, usize) {
    let mut w = Spmd::prepare(seed, true);
    let mut failed = 0;
    let mut opaque = Opaque::default();
    let mut traced_unit = Vec::new();
    let mut last = None;
    layers.set("mesh.bytes", w.input.bytes.len() as f64);

    for unit in 0..units {
        // The opaque unit starts as the traced one does, with the previous
        // unit's hierarchies freed: otherwise its set-up faults in fresh
        // pages where the traced one reuses them, and runs 10 % longer.
        drop(last.take());
        let mut samples = Samples::default();
        let v = w.unit(&mut samples);
        if !v.ok() {
            eprintln!("spmd2_17k plain unit {unit}: {}", v.problems.join("; "));
            failed += 1;
        }
        // Set-up and the four solves; the checks run off the clock.
        opaque.setup.push(samples.setup[0]);
        opaque.solve.push(samples.solve.iter().sum());

        tr.set_unit(unit);
        pmg_telemetry::reset();
        pmg_telemetry::set_enabled(true);
        let unit_id = tr.enter("unit");
        let mesh = tr.span("mesh.read_flat", |_| {
            pmg_mesh::read_flat_bytes(&w.input.bytes).expect("mesh bytes parse")
        });
        let setup_id = tr.enter("setup");
        let (builds, setup_bytes, setup_calls) =
            crate::alloc::counted(|| setup(&w.input, &mesh, tr));
        // Rank threads run side by side: the slowest one is the span.
        let ranks_id = tr.import(
            setup_id,
            "core.spmd.rank_setup",
            max_of(builds.iter().map(|b| b.assemble_s + b.build_s)),
        );
        tr.import(
            ranks_id,
            "fem.rank_assemble",
            max_of(builds.iter().map(|b| b.assemble_s)),
        );
        tr.import(
            ranks_id,
            "core.spmd.build",
            max_of(builds.iter().map(|b| b.build_s)),
        );
        tr.exit(setup_id);
        let rss_after_setup = crate::host::rss_mb();
        let solve_id = tr.enter("solve");
        let mut solves = Vec::with_capacity(SOLVES);
        let mut solve_bytes = 0;
        let mut solve_calls = 0;
        for j in 0..SOLVES {
            let b = w.input.load(&mesh, j);
            let one = tr.enter("core.spmd.solve");
            let ((x, parts), bytes, calls) = crate::alloc::counted(|| solve(&builds, &b, true));
            solve_bytes = bytes;
            solve_calls = calls;
            let slowest = parts
                .iter()
                .max_by(|a, b| a.solve_s.total_cmp(&b.solve_s))
                .expect("two ranks");
            let rank_id = tr.import(one, "core.spmd.rank_solve", slowest.solve_s);
            tr.import(rank_id, "comm.wait_halo", slowest.waits.halo_s);
            tr.import(rank_id, "comm.wait_allreduce", slowest.waits.allreduce_s);
            tr.import(rank_id, "comm.wait_coarse", slowest.waits.coarse_s);
            tr.exit(one);
            let bits = bits_hash(&x);
            if Some(bits) != w.first_bits[j] {
                eprintln!("spmd2_17k traced unit {unit}: solve {j} changed bits under tracing");
                failed += 1;
            }
            solves.push(parts);
        }
        tr.exit(solve_id);
        traced_unit.push(tr.spans[setup_id].dur() + tr.spans[solve_id].dur());
        tr.exit(unit_id);
        pmg_telemetry::set_enabled(false);
        let report = pmg_telemetry::snapshot();
        last = Some((
            builds,
            solves,
            report,
            (setup_bytes, setup_calls, solve_bytes, solve_calls),
            rss_after_setup,
            mesh,
        ));
    }

    let (builds, solves, report, allocs, rss_after_setup, mesh) =
        last.expect("at least one traced unit");
    crate::layers::span_rows(layers, tr, units, &opaque);
    layers.set(
        "fem.rank_assemble_max_s",
        crate::layers::per_unit(tr, "fem.rank_assemble", units),
    );
    let build_max = max_of(builds.iter().map(|b| b.build_s));
    let build_mean = builds.iter().map(|b| b.build_s).sum::<f64>() / RANKS as f64;
    layers.set(
        "core.spmd.build_max_s",
        crate::layers::per_unit(tr, "core.spmd.build", units),
    );
    layers.set("core.spmd.build_mean_s", build_mean);
    layers.set("core.spmd.build_imbalance", build_max / build_mean);
    layers.set(
        "core.spmd.solve_max_s",
        crate::layers::per_unit(tr, "core.spmd.rank_solve", units) / SOLVES as f64,
    );
    // The program's own scopes of the last unit: the first coarsening runs
    // once on the loading side (inside `plan_ingest`, at the root of the
    // telemetry tree); the `setup/...` scopes are summed over both ranks.
    let root = |p: &str| report.phase(p).map_or(0.0, |r| r.total_s);
    let phase = |p: &str| root(p) / RANKS as f64;
    layers.set("geometry.delaunay_lvl0_s", root("delaunay"));
    layers.set("core.mis_lvl0_s", root("mis"));
    layers.set(
        "core.coarsen_lvl0_s",
        root("mis") + root("delaunay") + root("restriction"),
    );
    layers.set("core.coarsen_coarse_s", phase("setup/coarsen"));
    layers.set("sparse.rap_numeric_s", phase("setup/rap"));
    layers.set("solver.smoother_setup_all_s", phase("setup/smoother"));
    layers.set("parallel.distribute_s", phase("setup/distribute"));
    layers.set(
        "solver.coarse_factor_s",
        report
            .phases
            .iter()
            .filter(|p| p.path.ends_with("coarse_direct"))
            .map(|p| p.total_s)
            .sum(),
    );

    let s0 = &builds[0].setup;
    layers.set("core.levels", s0.num_levels() as f64);
    let nnz = |l: usize| -> f64 {
        builds
            .iter()
            .map(|b| b.setup.level_nnz_local(l) as f64)
            .sum()
    };
    layers.set(
        "core.operator_complexity",
        (0..s0.num_levels()).map(nnz).sum::<f64>() / nnz(0),
    );
    layers.set(
        "core.reduction_lvl0",
        s0.level_rows(0) as f64 / s0.level_rows(1) as f64,
    );
    let rows: Vec<f64> = builds
        .iter()
        .map(|b| b.setup.level_rows_local(0) as f64)
        .collect();
    let imbalance = max_of(rows.iter().copied()) * RANKS as f64 / rows.iter().sum::<f64>();
    layers.set("partition.imbalance", imbalance);
    layers.set(
        "mem.hierarchy_bytes",
        builds
            .iter()
            .map(|b| {
                (0..b.setup.num_levels())
                    .map(|l| b.setup.level_operator_bytes(l) as f64)
                    .sum::<f64>()
            })
            .sum(),
    );
    layers.set(
        "mem.fine_operator_bytes",
        builds
            .iter()
            .map(|b| b.setup.level_operator_bytes(0) as f64)
            .sum(),
    );
    let part = pmg_partition::recursive_coordinate_bisection(&mesh.coords, RANKS);
    layers.set(
        "mesh.shard_bytes",
        pmg_mesh::shard_mesh(&mesh, &part, RANKS)
            .iter()
            .map(|s| s.encode().len() as f64)
            .sum(),
    );
    layers.set("mem.alloc_bytes_setup", allocs.0 as f64);
    layers.set("mem.alloc_calls_setup", allocs.1 as f64);
    layers.set("mem.alloc_bytes_solve", allocs.2 as f64);
    layers.set("mem.alloc_calls_solve", allocs.3 as f64);
    layers.set("mem.rss_after_setup_mb", rss_after_setup);
    layers.set("solver.iterations", solves[0][0].result.iterations as f64);

    // Messages are counted per rank by the transport itself; sums over
    // ranks, for one set-up and for one solve.
    layers.set(
        "comm.setup_msgs",
        builds.iter().map(|b| b.stats.msgs as f64).sum(),
    );
    layers.set(
        "comm.setup_bytes",
        builds.iter().map(|b| b.stats.bytes as f64).sum(),
    );
    layers.set(
        "comm.setup_wait_max_s",
        max_of(builds.iter().map(|b| b.stats.wait_s)),
    );
    let first = &solves[0];
    layers.set(
        "comm.solve_msgs",
        first.iter().map(|p| p.stats.msgs as f64).sum(),
    );
    layers.set(
        "comm.solve_bytes",
        first.iter().map(|p| p.stats.bytes as f64).sum(),
    );
    layers.set("comm.allreduces", first[0].stats.allreduces as f64);
    let over = |f: fn(&PhaseWaits) -> f64| -> Vec<f64> {
        solves
            .iter()
            .map(|parts| max_of(parts.iter().map(|p| f(&p.waits))))
            .collect()
    };
    let lh = crate::stats::lower_half_mean;
    layers.set("comm.wait_halo_max_s", lh(&over(|w| w.halo_s)));
    layers.set("comm.wait_allreduce_max_s", lh(&over(|w| w.allreduce_s)));
    layers.set("comm.wait_coarse_max_s", lh(&over(|w| w.coarse_s)));
    layers.set("comm.halo_hidden_s", lh(&over(|w| w.halo_hidden_s)));
    let halo_mean: Vec<f64> = solves
        .iter()
        .map(|parts| parts.iter().map(|p| p.waits.halo_s).sum::<f64>() / RANKS as f64)
        .collect();
    layers.set("comm.wait_halo_mean_s", lh(&halo_mean));

    // Blocking against overlapped schedule, interleaved, same system.
    let b = w.input.load(&mesh, 0);
    let (mut blocking, mut overlapped) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (overlap, samples) in [(false, &mut blocking), (true, &mut overlapped)] {
            let t = Instant::now();
            let (x, _) = solve(&builds, &b, overlap);
            samples.push(t.elapsed().as_secs_f64());
            if Some(bits_hash(&x)) != w.first_bits[0] {
                eprintln!("spmd2_17k: overlap={overlap} changed the solution bits");
                failed += 1;
            }
        }
    }
    layers.set(
        "comm.overlap_gain_frac",
        lh(&blocking) / lh(&overlapped) - 1.0,
    );

    // Latency of one allreduce between the two rank threads.
    let lat = LocalTransport::run_ranks(RANKS, |mut t| {
        let reps = 2000;
        pmg_comm::barrier(&mut t).expect("barrier");
        let t0 = Instant::now();
        for i in 0..reps {
            pmg_comm::allreduce_scalar(&mut t, i as f64).expect("allreduce");
        }
        t0.elapsed().as_secs_f64() / reps as f64
    });
    layers.set("comm.allreduce_latency_s", max_of(lat.into_iter()));

    let a = global_matrix(&builds);
    crate::layers::sparse_kernel_probes(layers, &a);
    let plain_unit: Vec<f64> = (0..units)
        .map(|u| opaque.setup[u] + opaque.solve[u])
        .collect();
    layers.set(
        "trace.overhead_frac",
        lh(&traced_unit) / lh(&plain_unit) - 1.0,
    );
    (units * (1 + SOLVES), failed)
}
