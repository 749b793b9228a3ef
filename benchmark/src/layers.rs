//! Per-layer rows of the traced pass: reductions of the recorded spans,
//! imports of the telemetry scopes the program already records, and the
//! kernel probes (fixed work, timed in isolation) behind the roofline rows.

use crate::inputs::CrushProblem;
use crate::spec::Layers;
use crate::stats::lower_half_mean;
use crate::trace::{self, Tracer};
use crate::workloads::Samples;
use pmg_parallel::{DistVec, MachineModel, Sim};
use pmg_sparse::{Bsr3Matrix, CsrMatrix, Operator};
use pmg_telemetry::Report;
use prometheus::mg::Smoother;
use prometheus::{MgHierarchy, MgOptions, Prometheus, PrometheusOptions};
use std::hint::black_box;
use std::time::Instant;

/// Seconds a telemetry phase accumulated (0 when it never opened).
fn phase_s(report: &Report, path: &str) -> f64 {
    report.phase(path).map_or(0.0, |p| p.total_s)
}

/// Seconds of every phase whose path matches `keep`.
fn phases_s(report: &Report, keep: impl Fn(&str) -> bool) -> f64 {
    report
        .phases
        .iter()
        .filter(|p| keep(&p.path))
        .map(|p| p.total_s)
        .sum()
}

/// Index of the last span called `name`.
fn last_span(tr: &Tracer, name: &str) -> Option<usize> {
    tr.spans.iter().rposition(|s| s.name == name)
}

/// Hang the MIS and Delaunay scopes `coarsen_level` records (under the
/// `coarsen{lvl}` telemetry scope the replay opens) below the level-0
/// coarsening span of the unit just traced.
pub fn import_coarsen_scopes(tr: &mut Tracer, report: &Report) {
    if let Some(parent) = last_span(tr, "core.coarsen_lvl0") {
        tr.import(parent, "core.mis_lvl0", phase_s(report, "coarsen0/mis"));
        tr.import(
            parent,
            "geometry.delaunay_lvl0",
            phase_s(report, "coarsen0/delaunay"),
        );
        tr.import(
            parent,
            "core.restriction_lvl0",
            phase_s(report, "coarsen0/restriction"),
        );
    }
}

/// Hang the Krylov loop and the multigrid cycle's per-level scopes below
/// the solve span `solve_id`. `pcg` is the telemetry path of the PCG scope
/// (`pcg` when the replay called it, `solve/pcg` under `Prometheus::solve`).
pub fn import_solve_scopes(tr: &mut Tracer, solve_id: usize, report: &Report, pcg: &str) {
    let pcg_id = tr.import(solve_id, "solver.pcg", phase_s(report, pcg));
    let precond = format!("{pcg}/precond");
    let fmg_id = tr.import(pcg_id, "core.mg.fmg", phase_s(report, &precond));
    let level_part = |p: &str, lvl0: bool, part: &str| {
        p.strip_prefix(precond.as_str())
            .is_some_and(|rest| rest.ends_with(part) && (rest.starts_with("/level0/") == lvl0))
    };
    let smooth0 = phases_s(report, |p| level_part(p, true, "/smooth"));
    let smooth_c = phases_s(report, |p| level_part(p, false, "/smooth"));
    let part = |name: &str| {
        phases_s(report, |p| {
            level_part(p, true, name) || level_part(p, false, name)
        })
    };
    tr.import(fmg_id, "core.mg.smooth_lvl0", smooth0);
    tr.import(fmg_id, "core.mg.smooth_coarse", smooth_c);
    tr.import(fmg_id, "core.mg.restrict", part("/restrict"));
    tr.import(fmg_id, "core.mg.prolong", part("/prolong"));
    tr.import(fmg_id, "core.mg.coarse_solve", part("/coarse"));
}

/// Lower-half mean over the traced units of the time all spans called
/// `name` took within one unit.
pub fn per_unit(tr: &Tracer, name: &str, units: usize) -> f64 {
    lower_half_mean(&trace::totals_per_unit(&tr.spans, name, units))
}

/// Lower-half mean over the units of the first span called `name` in each.
fn first_per_unit(tr: &Tracer, name: &str, units: usize) -> f64 {
    let firsts: Vec<f64> = (0..units)
        .filter_map(|u| tr.spans.iter().find(|s| s.name == name && s.unit == u))
        .map(trace::Span::dur)
        .collect();
    if firsts.is_empty() {
        0.0
    } else {
        lower_half_mean(&firsts)
    }
}

/// What the opaque calls took in the traced units, one entry per unit and
/// stage (empty where the workload has no such stage): the plain path's
/// own timings, which the traced parts are held against.
#[derive(Default)]
pub struct Opaque {
    pub ingest: Vec<f64>,
    pub setup: Vec<f64>,
    pub solve: Vec<f64>,
}

impl Opaque {
    /// A unit of one ingest, one set-up and one solve: the ingest is what
    /// the unit took beyond the other two.
    pub fn of_single_solves(s: &Samples) -> Opaque {
        Opaque {
            ingest: (0..s.tts.len())
                .map(|i| s.tts[i] - s.setup[i] - s.solve[i])
                .collect(),
            setup: s.setup.clone(),
            solve: s.solve.clone(),
        }
    }
}

/// Span-derived rows a workload shares with the others: a row is the
/// per-unit time of the spans of that name, whatever workload recorded
/// them (0 when none did). Coverage is the traced stage's named parts (the
/// direct children of its span) over the longer of that span and the
/// opaque call of the stage in the same unit, so the parts have to account
/// for both; the best of the units is reported, because one unit's opaque
/// and traced halves differ by up to 20 % on a shared host and only a gap
/// that shows in every unit is the replay's.
pub fn span_rows(layers: &mut Layers, tr: &Tracer, units: usize, opaque: &Opaque) {
    for (metric, span) in [
        ("mesh.read_flat_s", "mesh.read_flat"),
        ("mesh.vertex_graph_s", "mesh.vertex_graph"),
        ("mesh.shard_s", "mesh.shard"),
        ("partition.rcb_s", "partition.rcb"),
        ("geometry.delaunay_lvl0_s", "geometry.delaunay_lvl0"),
        ("fem.problem_build_s", "fem.problem_build"),
        ("fem.assemble_cold_s", "fem.assemble_cold"),
        ("fem.assemble_warm_s", "fem.assemble_warm"),
        ("fem.constrain_s", "fem.constrain"),
        ("sparse.rap_symbolic_s", "sparse.rap_symbolic"),
        ("sparse.rap_numeric_s", "sparse.rap_numeric"),
        ("solver.smoother_setup_all_s", "solver.smoother_setup"),
        ("solver.coarse_factor_s", "solver.coarse_factor"),
        ("solver.pcg_other_s", "solver.pcg_other"),
        ("core.classify_s", "core.classify"),
        ("core.mis_lvl0_s", "core.mis_lvl0"),
        ("core.coarsen_lvl0_s", "core.coarsen_lvl0"),
        ("core.coarsen_coarse_s", "core.coarsen_coarse"),
        ("core.update_matrix_s", "core.update_matrix"),
        ("core.ingest.plan_s", "core.ingest.plan"),
        ("core.mg.fmg_s", "core.mg.fmg"),
        ("core.mg.smooth_lvl0_s", "core.mg.smooth_lvl0"),
        ("core.mg.smooth_coarse_s", "core.mg.smooth_coarse"),
        ("core.mg.restrict_s", "core.mg.restrict"),
        ("core.mg.prolong_s", "core.mg.prolong"),
        ("core.mg.coarse_solve_s", "core.mg.coarse_solve"),
        ("parallel.distribute_s", "parallel.distribute"),
    ] {
        layers.set(metric, per_unit(tr, span, units));
    }
    layers.set(
        "solver.smoother_setup_lvl0_s",
        first_per_unit(tr, "solver.smoother_setup", units),
    );
    for (metric, stage, opaque) in [
        ("trace.ingest_coverage", "ingest", &opaque.ingest),
        ("trace.setup_coverage", "setup", &opaque.setup),
        ("trace.solve_coverage", "solve", &opaque.solve),
    ] {
        let parts = trace::children_per_unit(&tr.spans, stage, units);
        let walls = trace::totals_per_unit(&tr.spans, stage, units);
        let best = (0..opaque.len())
            .map(|u| parts[u] / walls[u].max(opaque[u]))
            .fold(0.0, f64::max);
        layers.set(metric, best);
    }
}

/// Record the Krylov loop's self time (BLAS-1 and the fine-grid product:
/// the PCG scope minus the preconditioner) as its own span per unit.
pub fn add_pcg_other(tr: &mut Tracer) {
    let own = trace::self_times(&tr.spans);
    let pcg: Vec<usize> = (0..tr.spans.len())
        .filter(|&i| tr.spans[i].name == "solver.pcg")
        .collect();
    for i in pcg {
        tr.import(i, "solver.pcg_other", own[i]);
    }
}

/// Shape of a single-rank hierarchy.
pub fn hierarchy_rows(layers: &mut Layers, mg: &MgHierarchy) {
    let fine = &mg.levels[0].a;
    let total_nnz: usize = mg.levels.iter().map(|l| l.a.nnz()).sum();
    layers.set("core.levels", mg.levels.len() as f64);
    layers.set(
        "core.operator_complexity",
        total_nnz as f64 / fine.nnz() as f64,
    );
    if mg.levels.len() > 1 {
        layers.set(
            "core.reduction_lvl0",
            mg.levels[0].num_vertices as f64 / mg.levels[1].num_vertices as f64,
        );
    }
    if let Smoother::BlockJacobi(bj) = &mg.levels[0].smoother {
        layers.set("solver.blocks_lvl0", bj.num_blocks(0) as f64);
    }
    layers.set(
        "mem.fine_operator_bytes",
        fine.local_block(0).memory_bytes() as f64,
    );
    let layout = fine.row_layout();
    let nranks = layout.num_ranks();
    let mean = layout.num_global() as f64 / nranks as f64;
    layers.set("partition.imbalance", layout.max_local() as f64 / mean);
}

/// Lower-half mean of `reps` timings of `f`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    lower_half_mean(&samples)
}

/// Sparse kernel rows on the workload's fine operator `a` (3 dofs per
/// vertex): fixed work, timed in isolation, with computed bytes and flops
/// against the triad measured in the same run.
pub fn sparse_kernel_probes(layers: &mut Layers, a: &CsrMatrix) {
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y = vec![0.0; n];
    let vectors = 16.0 * n as f64; // x read + y written

    let t = time_reps(40, || {
        a.spmv(black_box(&x), &mut y);
        black_box(&mut y);
    });
    layers.set("sparse.spmv_csr_s", t);
    layers.set(
        "sparse.spmv_csr_gbs",
        (a.memory_bytes() as f64 + vectors) / t / 1e9,
    );

    let b3 = Bsr3Matrix::from_csr(a);
    let t = time_reps(40, || {
        b3.spmv(black_box(&x), &mut y);
        black_box(&mut y);
    });
    let gbs = (b3.memory_bytes() as f64 + vectors) / t / 1e9;
    layers.set("sparse.spmv_bsr3_s", t);
    layers.set("sparse.spmv_bsr3_gbs", gbs);
    layers.set(
        "sparse.spmv_bsr3_bw_frac",
        gbs / layers.get("host.triad_gbs"),
    );
    let x4: Vec<f64> = (0..4 * n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
    let mut y4 = vec![0.0; 4 * n];
    let t = time_reps(20, || {
        b3.spmm(black_box(&x4), &mut y4, 4);
        black_box(&mut y4);
    });
    layers.set("sparse.spmm4_bsr3_s", t);

    // Dense Cholesky at the paper's block size (6 blocks per 1000 unknowns).
    let m = 166;
    let spd = pmg_sparse::dense::DenseMatrix::from_fn(m, m, |i, j| {
        if i == j {
            m as f64
        } else {
            1.0 / (1 + i.abs_diff(j)) as f64
        }
    });
    let t = time_reps(30, || {
        black_box(pmg_sparse::dense::Cholesky::factor(black_box(&spd)));
    });
    layers.set(
        "sparse.cholesky166_gflops",
        (m * m * m) as f64 / 3.0 / t / 1e9,
    );
}

/// [`sparse_kernel_probes`] plus the rows that need a single-rank
/// hierarchy: the fine level's Galerkin product, smoother sweep, coarse
/// solve, block partition, and the virtual-rank product's overhead.
pub fn kernel_probes(layers: &mut Layers, a: &CsrMatrix, mg: &mut MgHierarchy) {
    sparse_kernel_probes(layers, a);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();

    // Numeric Galerkin product of the fine level, flops as the crate counts them.
    let fine = mg.levels[0].a.to_global();
    if let Some(plan) = mg.levels[0].rap_plan.as_mut() {
        let mut flops = 0;
        let t = time_reps(6, || {
            let (ac, f) = pmg_sparse::flops::measure(|| plan.execute(&fine));
            flops = f;
            black_box(ac);
        });
        layers.set("sparse.rap_numeric_gflops", flops as f64 / t / 1e9);
    }
    if let Some(r) = mg.levels[0].r_global.as_ref() {
        let (plan, _, _, net) = crate::alloc::counted_net(|| pmg_sparse::RapPlan::new(&fine, r));
        layers.set("sparse.rap_plan_bytes", net as f64);
        drop(plan);
    }
    pmg_sparse::flops::reset();

    // One fine-grid smoothing sweep, and the virtual-rank product against
    // the raw kernel it wraps.
    let mut sim = Sim::new(1, MachineModel::default());
    let layout = mg.levels[0].a.row_layout().clone();
    let db = DistVec::from_global(layout.clone(), &x);
    let mut dx = DistVec::zeros(layout.clone());
    let t = time_reps(10, || {
        dx.set_zero();
        mg.levels[0]
            .smoother
            .smooth(&mut sim, mg.level_op(0), &db, &mut dx, 1);
    });
    layers.set("solver.smoother_apply_lvl0_s", t);
    let t_dist = time_reps(40, || mg.levels[0].a.spmv(&mut sim, &db, &mut dx));
    layers.set(
        "parallel.sim_overhead_frac",
        t_dist / layers.get("sparse.spmv_bsr3_s") - 1.0,
    );
    let coarse = mg.levels.last().and_then(|l| l.coarse.as_ref());
    if let Some(direct) = coarse {
        let rc = vec![1.0; direct.dim()];
        let t = time_reps(50, || {
            black_box(direct.solve_global(black_box(&rc)));
        });
        layers.set("solver.coarse_solve_s", t);
    }

    // The smoother's block partition: the graph partitioner on the fine
    // operator's adjacency at the paper's block density.
    let mut edges = Vec::new();
    for i in 0..n {
        for &j in a.row(i).0 {
            if j != i {
                edges.push((i as u32, j as u32));
            }
        }
    }
    let graph = pmg_partition::Graph::from_edges(n, edges);
    let nblocks = (mg.opts.blocks_per_1000 * n as f64 / 1000.0).round() as usize;
    let t = time_reps(3, || {
        black_box(pmg_partition::partition_graph(&graph, nblocks.max(1)));
    });
    layers.set("partition.blocks_s", t);
}

/// The matrix-free fine operator at the first-step tangent: build and apply.
pub fn matfree_probe(layers: &mut Layers, problem: &mut CrushProblem, amplitude: f64) {
    let u0 = vec![0.0; problem.fem.ndof()];
    let (k, _) = problem.fem.assemble(&u0);
    let fixed = problem.increments(1, amplitude, &u0);
    let scale = pmg_fem::bc::constraint_scale(&k, &fixed);
    let dofs: Vec<u32> = fixed.iter().map(|&(d, _)| d).collect();
    let mut op = None;
    let t = time_reps(3, || {
        op = Some(pmg_fem::MatFreeOperator::new(
            &problem.fem,
            &u0,
            &dofs,
            scale,
        ));
    });
    layers.set("fem.matfree_setup_s", t);
    let op = op.expect("built above");
    let x: Vec<f64> = (0..u0.len()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y = vec![0.0; x.len()];
    let t = time_reps(10, || {
        op.apply(black_box(&x), &mut y);
        black_box(&mut y);
    });
    layers.set("fem.matfree_apply_s", t);
}

fn build_and_solve(
    mesh: &pmg_mesh::Mesh,
    a: &CsrMatrix,
    b: &[f64],
    rtol: f64,
    threads: usize,
) -> (f64, f64) {
    let opts = PrometheusOptions {
        mg: MgOptions {
            threads: Some(threads),
            ..Default::default()
        },
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut solver = Prometheus::from_mesh(mesh, a, opts);
    let t1 = Instant::now();
    black_box(solver.solve(b, None, rtol));
    ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
}

/// Two pools and two telemetry states on the same system: the 2-thread
/// pool against the single-thread baseline (set-up and solve), and a solve
/// with telemetry collecting against one with it off.
pub fn pool_and_telemetry_probes(
    layers: &mut Layers,
    mesh: &pmg_mesh::Mesh,
    a: &CsrMatrix,
    b: &[f64],
    rtol: f64,
) {
    let (setup1, solve1) = build_and_solve(mesh, a, b, rtol, 1);
    let (setup2, solve2) = build_and_solve(mesh, a, b, rtol, 2);
    layers.set("pool.setup_speedup_2t", setup1 / setup2);
    layers.set("pool.solve_speedup_2t", solve1 / solve2);

    let mut solver = Prometheus::from_mesh(mesh, a, PrometheusOptions::default());
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..3 {
        for (enabled, samples) in [(false, &mut off), (true, &mut on)] {
            pmg_telemetry::set_enabled(enabled);
            let t = Instant::now();
            black_box(solver.solve(b, None, rtol));
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    pmg_telemetry::set_enabled(false);
    layers.set(
        "telemetry.overhead_frac",
        lower_half_mean(&on) / lower_half_mean(&off) - 1.0,
    );
}
