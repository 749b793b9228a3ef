//! The paper's evaluation (§7) and the ablations beside it: one function
//! per `reproduce` artifact, each returning its tables. Cells that do not
//! depend on the host are [`Cell::Exact`];
//! `tests/paper_tables.rs` compares them at k = 1 with `expected_k1.json`.
//!
//! Seconds come only from telemetry scopes and from the machine-model
//! phases `Prometheus::report` bridges, so callers that want wall-time
//! cells switch telemetry on (`reproduce` does).

use crate::table::{n, t, wall, x, Cell, Table};
use crate::{operator_complexity, paper_options, ranks_for, spheres_first_solve};
use crate::{FirstSolveSystem, PAPER_FIRST_SOLVE_ITERS};
use pmg_fem::{FemProblem, J2Plasticity, LinearElastic, NeoHookean, NewtonDriver};
use pmg_mesh::{generators, SpheresParams};
use pmg_telemetry::{Report, SimPhaseRecord, Sink};
use prometheus::mg::SmootherType;
use prometheus::{CoarsenOptions, MgOptions, MisOrdering, Prometheus, PrometheusOptions};

/// Paper Fig. 9: dof of each ladder point.
const PAPER_DOF: [usize; 8] = [
    79_679, 622_815, 2_085_599, 4_924_223, 9_594_879, 16_553_759, 26_257_055, 39_160_959,
];

/// Paper Table 2's nonlinear columns at the first two ladder points.
const PAPER_NONLINEAR: [&str; 2] = ["3108 / 62 / 63", "4121 / 63 / 421"];

/// The machine-model phase `name` of `report` (zeros if it never ran).
fn sim(report: &Report, name: &str) -> SimPhaseRecord {
    let found = report.sim_phases.iter().find(|s| s.name == name);
    found.cloned().unwrap_or_default()
}

/// Seconds recorded under telemetry scope `path` (0 if telemetry is off).
fn scope_s(report: &Report, path: &str) -> f64 {
    report.phase(path).map_or(0.0, |p| p.total_s)
}

/// `list[k - 1]` as text, `-` past its end.
fn paper<T: ToString>(list: &[T], k: usize) -> Cell {
    t(list.get(k - 1).map_or("-".into(), T::to_string))
}

/// A solve's iterations, marked `>` when it hit the cap.
fn iters(converged: bool, iterations: usize) -> Cell {
    match converged {
        true => n(iterations),
        false => t(format!(">{iterations}")),
    }
}

/// Build `opts`' hierarchy for `sys` and solve it once to `rtol`.
fn first_solve(sys: &FirstSolveSystem, opts: PrometheusOptions, rtol: f64) -> (Prometheus, Cell) {
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
    let (_, res) = solver.solve(&sys.rhs, None, rtol);
    (solver, iters(res.converged, res.iterations))
}

/// Table 1: the materials, printed from the live material objects.
pub fn table1() -> Table {
    let soft = NeoHookean::from_e_nu(1e-4, 0.49);
    let hard = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3);
    let header = "material | E | nu | deformation | yield | hardening | lambda | mu";
    let mut table = Table::new("table1", header);
    let lame = |l: f64, m: f64| format!("{l:.4e} | {m:.4e}");
    let (soft, y) = (lame(soft.lambda, soft.mu), hard.sigma_y);
    let row = format!("soft (Neo-Hookean) | 1e-4 | 0.49 | large | - | - | {soft}");
    table.row(row.split(" | ").map(t));
    let hard = lame(hard.lambda, hard.mu);
    let row = format!("hard (J2, kinematic) | 1 | 0.3 | large | {y} | 0.002 E | {hard}");
    table.row(row.split(" | ").map(t));
    table
}

/// Fig. 9: the spheres ladder up to point `max_k` (mesh generation only).
pub fn fig9(max_k: usize) -> Table {
    let header = "k | P | vertices | hexes | dof | dof/rank | hard elems | paper dof";
    let mut table = Table::new("fig9", header);
    for k in 1..=max_k {
        let mesh = pmg_mesh::sphere_in_cube(&SpheresParams::ladder(k));
        assert!(mesh.validate_volumes().is_ok(), "ladder mesh {k}");
        let (p, dof, materials) = (ranks_for(k), mesh.num_dof(), mesh.materials.iter());
        let hard = n(materials.filter(|&&m| m == pmg_mesh::spheres::HARD).count());
        let [v, e, d, per] = [mesh.num_vertices(), mesh.num_elements(), dof, dof / p].map(n);
        let paper_dof = paper(&PAPER_DOF, k);
        table.row([n(k), n(p), v, e, d, per, hard, paper_dof]);
    }
    table
}

/// A built hierarchy's shape: per level the vertices, operator nonzeros
/// and vertex reduction to the next grid, then the operator complexity
/// (Σ level nnz / fine nnz) and the iterations of its solve.
fn hierarchy(name: String, solver: &Prometheus, iterations: Cell) -> Table {
    let levels = &solver.mg.levels;
    let mut table = Table::new(name, "level | vertices | nnz | reduction");
    for (i, level) in levels.iter().enumerate() {
        let nv = level.num_vertices;
        let reduction = levels.get(i + 1);
        let reduction = reduction.map_or(t("-"), |c| x(nv as f64 / c.num_vertices as f64, 2));
        table.row([n(i), n(nv), n(level.a.nnz()), reduction]);
    }
    let complexity = x(operator_complexity(solver), 2);
    table.row([t("operator complexity"), complexity, t(""), t("")]);
    table.row([t("iterations"), iterations, t(""), t("")]);
    table
}

/// Fig. 7 at ladder point `k`: the coarsening ladder run to exhaustion
/// (per grid vertices, elements, lost vertices and I/S/E/C classes), and
/// the hierarchy one rank builds of it with its first solve (rtol 1e-4).
/// Also returns the OBJ model of each coarse grid, finest first.
pub fn fig7(k: usize) -> (Vec<Table>, Vec<String>) {
    let sys = spheres_first_solve(k);
    let levels = prometheus::classify_mesh_levels(&sys.mesh, &CoarsenOptions::default(), 6);
    let header = "grid | vertices | elements | lost | I | S | E | C";
    let mut grids = Table::new(format!("fig7-k{k}-grids"), header);
    for (i, l) in levels.iter().enumerate() {
        let counts = [
            l.vertices, l.elements, l.lost, l.interior, l.surface, l.edge,
        ];
        grids.row([i].into_iter().chain(counts).chain([l.corner]).map(n));
    }
    let objs = levels.iter().filter_map(|l| l.obj.clone()).collect();
    let (solver, iters) = first_solve(&sys, PrometheusOptions::default(), 1e-4);
    let solved = hierarchy(format!("fig7-k{k}-solver"), &solver, iters);
    (vec![grids, solved], objs)
}

/// One ladder point after its first solve (rtol 1e-4).
struct LadderPoint {
    k: usize,
    p: usize,
    ndof: usize,
    iterations: usize,
    /// The `fine_grid` scope, the solver's scopes and the bridged
    /// machine-model phases.
    report: Report,
}

/// Ladder points `1..=max_k`, each built under [`paper_options`] and
/// solved once: Table 2's first-solve column, Figs. 10–12 and the
/// machine-model phases behind them. With `crush` each point's solver
/// then runs the ten-step crush: Table 2's nonlinear columns and Fig. 13
/// per point. Every point's telemetry report, and every crush's, goes
/// to `sink`.
pub fn ladder(max_k: usize, crush: bool, sink: &mut dyn Sink) -> (Vec<Table>, Vec<Table>) {
    let header = "equations | P | total PCG | Newton | avg PCG | Mflop/s (mdl)";
    let header = format!("{header} | paper PCG / Newton / Mflop/s");
    let (mut points, mut crushes) = (Vec::new(), vec![Table::new("table2-crush", &header)]);
    for k in 1..=max_k {
        pmg_telemetry::reset();
        pmg_telemetry::label("bench", "reproduce");
        pmg_telemetry::label("ladder_k", &k.to_string());
        let sys = {
            let _t = pmg_telemetry::scope("fine_grid");
            spheres_first_solve(k)
        };
        let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, paper_options(k));
        let (_, res) = solver.solve(&sys.rhs, None, 1e-4);
        assert!(res.converged, "ladder point {k}: the first solve diverged");
        let point = LadderPoint {
            k,
            p: ranks_for(k),
            ndof: sys.mesh.num_dof(),
            iterations: res.iterations,
            report: solver.report(),
        };
        sink.emit(&point.report).expect("emit telemetry report");
        if crush {
            let (fig13, row) = crush_point(&point, sys, solver, sink);
            crushes[0].row(row);
            crushes.push(fig13);
        }
        points.push(point);
    }
    (ladder_tables(&points), crushes)
}

/// Table 2's first-solve column and Figs. 10–12 over ladder `points` (the
/// first is the efficiencies' base), and the machine-model phases they
/// are computed from.
fn ladder_tables(points: &[LadderPoint]) -> Vec<Table> {
    let mut table2 = Table::new("table2-first", "equations | P | first-solve iters | paper");
    let header = "k | P | dof | partition | fine grid | mesh setup | matrix setup | solve";
    let header = format!("{header} | matrix setup (mdl) | solve (mdl)");
    let mut fig10 = Table::new("fig10", &header);
    let header = "P | dof | iters | e_s^F avg | e_s^F max | e_c avg | e_c max | balance";
    let mut fig11 = Table::new("fig11", header);
    let header = "P | dof | solve | matrix setup | mesh setup | fine grid";
    let mut fig12 = Table::new("fig12", header);
    let header = "k phase | modelled s | flops | max flops | messages | bytes";
    let mut phases = Table::new("sim-phases", header);

    let base = &points[0];
    let (b, br) = (sim(&base.report, "solve"), &base.report);
    for pt in points {
        let r = &pt.report;
        let [mesh, matrix, solve] = ["mesh setup", "matrix setup", "solve"].map(|s| sim(r, s));
        let first_iters = paper(&PAPER_FIRST_SOLVE_ITERS, pt.k);
        table2.row([n(pt.ndof), n(pt.p), n(pt.iterations), first_iters]);
        let [part, fine, solve_w] =
            ["setup/partition", "fine_grid", "solve"].map(|s| scope_s(r, s));
        let walls = [part, fine, mesh.wall_s, matrix.wall_s, solve_w].map(wall);
        let modelled = [matrix.modeled_s, solve.modeled_s].map(|s| x(s, 3));
        let [k, p, dof] = [pt.k, pt.p, pt.ndof].map(n);
        fig10.row([k, p, dof].into_iter().chain(walls).chain(modelled));

        // Fig. 11: flops per iteration per unknown against the base
        // (inverted, so > 1 is superlinear), and flop rate per rank; the
        // max columns take the most loaded rank's flops times P.
        let per_unknown = |q: &LadderPoint, f: u64| f as f64 / q.iterations as f64 / q.ndof as f64;
        let rate =
            |q: &LadderPoint, s: &SimPhaseRecord, f: u64| f as f64 / q.p as f64 / s.modeled_s;
        let es = |f0, f1| x(per_unknown(base, f0) / per_unknown(pt, f1), 2);
        let ec = |f0, f1| x(rate(pt, &solve, f1) / rate(base, &b, f0), 2);
        let (avg, max) = (solve.total_flops, solve.max_flops * pt.p as u64);
        let (b_avg, b_max) = (b.total_flops, b.max_flops * base.p as u64);
        let (es_avg, es_max) = (es(b_avg, avg), es(b_max, max));
        let (ec_avg, ec_max) = (ec(b_avg, avg), ec(b_max, max));
        let balance = x(avg as f64 / max as f64, 2);
        let (p, dof, it) = (n(pt.p), n(pt.ndof), n(pt.iterations));
        fig11.row([p, dof, it, es_avg, es_max, ec_avg, ec_max, balance]);

        // Scaled efficiency (P_base/P)·(T_base/T)·(N/N_base) of the
        // modelled phases; the wall-measured ones run serially on this
        // host, so their flat quantity is time per unknown.
        let scale = pt.ndof as f64 / base.ndof as f64;
        let modelled = |t0: f64, t1: f64| x(base.p as f64 / pt.p as f64 * t0 / t1 * scale, 2);
        let serial = |t0: f64, t1: f64| t(format!("{:.2}", t0 / t1 * scale));
        let solve_e = modelled(b.modeled_s, solve.modeled_s);
        let matrix_e = modelled(sim(br, "matrix setup").modeled_s, matrix.modeled_s);
        let mesh_e = serial(sim(br, "mesh setup").wall_s, mesh.wall_s);
        let fine_e = serial(scope_s(br, "fine_grid"), scope_s(r, "fine_grid"));
        fig12.row([n(pt.p), n(pt.ndof), solve_e, matrix_e, mesh_e, fine_e]);
        for s in [&mesh, &matrix, &solve] {
            let counts = [s.total_flops, s.max_flops, s.total_msgs, s.total_bytes];
            let label = [t(format!("{} {}", pt.k, s.name)), x(s.modeled_s, 3)];
            phases.row(label.into_iter().chain(counts.map(|c| n(c as usize))));
        }
    }
    vec![table2, fig10, fig11, fig12, phases]
}

/// Crush ladder `point` by 3.6/12.5 in ten displacement steps with full
/// Newton, re-running only matrix setup on `solver`'s hierarchy per
/// Newton iteration: Fig. 13 and the point's nonlinear Table 2 row, whose
/// Mflop/s cover the first solve and every Newton solve.
fn crush_point(
    point: &LadderPoint,
    sys: FirstSolveSystem,
    mut solver: Prometheus,
    sink: &mut dyn Sink,
) -> (Table, [Cell; 7]) {
    let nsteps = 10;
    let (mut problem, mut u) = (sys.problem, vec![0.0; point.ndof]);
    let driver = NewtonDriver::new(Default::default());
    let header = "step | % plastic | Newton | linear | linear per Newton iteration";
    let mut fig13 = Table::new(format!("fig13-k{}", point.k), header);
    let (mut newton, mut pcg) = (0, 0);
    for step in 1..=nsteps {
        let bcs = problem.bcs_for_step(step, nsteps);
        let mut solve = |kc: &pmg_sparse::CsrMatrix, rhs: &[f64], rtol: f64| {
            solver.update_matrix(kc);
            let (du, r) = solver.solve(rhs, None, rtol);
            (du, r.iterations)
        };
        let stats = driver.solve_step(&mut problem.fem, &mut u, &bcs, &mut solve);
        let linear: usize = stats.linear_iters.iter().sum();
        let bars: Vec<String> = stats.linear_iters.iter().map(usize::to_string).collect();
        let cap = if stats.converged { "" } else { " (Newton cap)" };
        let plastic = x(100.0 * problem.hard_yielded_fraction(), 1);
        let bars = t(bars.join(" ") + cap);
        fig13.row([n(step), plastic, n(stats.newton_iters), n(linear), bars]);
        (newton, pcg) = (newton + stats.newton_iters, pcg + linear);
    }
    let report = solver.report();
    sink.emit(&report).expect("emit telemetry report");
    let solve = sim(&report, "solve");
    let avg = x(pcg as f64 / newton as f64, 0);
    let mflops = x(solve.total_flops as f64 / solve.modeled_s / 1e6, 0);
    let paper = paper(&PAPER_NONLINEAR, point.k);
    let (dof, p) = (n(point.ndof), n(point.p));
    (fig13, [dof, p, n(pcg), n(newton), avg, mflops, paper])
}

/// §4.6: the modified MIS graph on a 14×14×1 thin plate — coarse-grid
/// cover with and without it, and FMG-PCG (rtol 1e-8) on each hierarchy.
pub fn thin_body() -> Vec<Table> {
    let mesh = generators::thin_plate(14, 14.0, 0.35);
    let g = mesh.vertex_graph();
    let classes = prometheus::classify_mesh(&mesh, 0.7);
    let header = "graph | coarse vertices | top surface | bottom surface | lost fine vertices";
    let mut out = vec![Table::new("thin-body-cover", header)];

    // A plate clamped at x = 0 under a load on its top surface.
    let ndof = mesh.num_dof();
    let elastic = std::sync::Arc::new(LinearElastic::from_e_nu(1.0, 0.3));
    let (k, _) = FemProblem::new(mesh.clone(), vec![elastic]).assemble(&vec![0.0; ndof]);
    let (mut fixed, mut f) = (Vec::new(), vec![0.0; ndof]);
    for (v, p) in mesh.coords.iter().enumerate() {
        if p.x == 0.0 {
            fixed.extend((0..3).map(|c| (3 * v as u32 + c, 0.0)));
        }
        if p.z > 0.2 {
            f[3 * v + 2] = -0.01;
        }
    }
    let (kc, rhs) = pmg_fem::bc::constrain_system(&k, &f, &fixed);
    let b: Vec<f64> = rhs.iter().map(|v| -v).collect();

    for (label, modify_graph) in [("modified", true), ("unmodified", false)] {
        let mut opts = PrometheusOptions::default();
        (opts.nranks, opts.max_iters, opts.mg.coarse_dof_threshold) = (2, 400, 300);
        opts.mg.coarsen.modify_graph = modify_graph;
        let lvl = prometheus::coarsen_level(&mesh.coords, &g, &classes, &opts.mg.coarsen);
        let top = lvl.coords.iter().filter(|p| p.z > 0.2).count();
        let [nc, top, bottom] = [lvl.coords.len(), top, lvl.coords.len() - top].map(n);
        out[0].row([t(label), nc, top, bottom, n(lvl.lost_vertices)]);
        let mut solver = Prometheus::from_mesh(&mesh, &kc, opts);
        let (_, res) = solver.solve(&b, None, 1e-8);
        let iterations = iters(res.converged, res.iterations);
        out.push(hierarchy(format!("thin-body-{label}"), &solver, iterations));
    }
    out
}

/// §4.7: MIS density under natural and random vertex orderings on n³ hex
/// blocks (26-neighbour graph), then each ordering heuristic's hierarchy,
/// iterations and modelled solve flops on ladder point `k`.
pub fn ordering(k: usize) -> Vec<Table> {
    let header = "n | vertices | natural MIS | natural 1/ratio | random MIS | random 1/ratio";
    let mut mis = Table::new("mis-ordering", header);
    for size in [8, 12, 16, 20] {
        let mesh = generators::cube(size);
        let (g, nv) = (mesh.vertex_graph(), mesh.num_vertices());
        let run = |ordering: MisOrdering| {
            let order = ordering.order(&g, &vec![0; nv]);
            let mis = prometheus::greedy_mis(&g, &order);
            mis.iter().filter(|&&s| s).count()
        };
        let (nat, rnd) = (run(MisOrdering::Natural), run(MisOrdering::Random(12345)));
        let ratio = |c: usize| x(nv as f64 / c as f64, 1);
        mis.row([n(size), n(nv), n(nat), ratio(nat), n(rnd), ratio(rnd)]);
    }

    let sys = spheres_first_solve(k);
    let header = "ordering | iters | levels | solve Gflop | level sizes";
    let mut ablation = Table::new(format!("ordering-k{k}"), header);
    for (label, ordering) in [
        ("natural", MisOrdering::Natural),
        ("random", MisOrdering::Random(0x5eed)),
        (
            "natural-ext/random-int",
            MisOrdering::NaturalExteriorRandomInterior(0x5eed),
        ),
    ] {
        let mut opts = paper_options(k);
        opts.mg.coarsen.ordering = ordering;
        let (solver, iters) = first_solve(&sys, opts, 1e-4);
        let (sizes, solve) = (solver.level_sizes(), sim(&solver.report(), "solve"));
        let [levels, list] = [n(sizes.len()), t(format!("{sizes:?}"))];
        let gflop = x(solve.total_flops as f64 / 1e9, 3);
        ablation.row([t(label), iters, levels, gflop, list]);
    }
    vec![mis, ablation]
}

/// Block Jacobi against Chebyshev(2/4) on ladder point `k` (rtol 1e-4):
/// modelled flops, and wall seconds as medians of seven runs of a cold
/// set-up + solve and of a warm `update_matrix` + solve.
pub fn smoother(k: usize) -> Table {
    let sys = spheres_first_solve(k);
    smoother_table(&format!("smoother-k{k}"), &sys, paper_options(k), 1e-4)
}

/// [`smoother`] on the benchmark's `cold10k` configuration: ladder point
/// 1 with a 6-facet surface grid, default options, rtol 1e-6.
pub fn smoother_10k() -> Table {
    let mut params = SpheresParams::ladder(1);
    params.n_surf = 6;
    let sys = crate::spheres_first_solve_of(&params);
    smoother_table("smoother-10k", &sys, PrometheusOptions::default(), 1e-6)
}

fn smoother_table(name: &str, sys: &FirstSolveSystem, base: PrometheusOptions, rtol: f64) -> Table {
    let header = "smoother | iters | setup Gflop | solve Gflop | mdl solve s | setup s | solve s";
    let mut table = Table::new(name, &format!("{header} | cold s | warm s"));
    for (label, smoother) in [
        ("block Jacobi (paper)", SmootherType::BlockJacobi),
        ("Chebyshev deg 2", SmootherType::Chebyshev { degree: 2 }),
        ("Chebyshev deg 4", SmootherType::Chebyshev { degree: 4 }),
    ] {
        let mut opts = base;
        opts.mg.smoother = smoother;
        let (solver, iters) = first_solve(sys, opts, rtol);
        let report = solver.report();
        let [setup, solve] = ["matrix setup", "solve"].map(|s| sim(&report, s));
        let [setup_g, solve_g] = [&setup, &solve].map(|s| x(s.total_flops as f64 / 1e9, 3));
        let modelled = [t(label), iters, setup_g, solve_g, x(solve.modeled_s, 3)];

        // Seven runs of: cold set-up, cold solve, warm update + solve.
        let mut runs: Vec<[f64; 3]> = (0..7)
            .map(|_| {
                pmg_telemetry::reset();
                let (mut solver, _) = first_solve(sys, opts, rtol);
                let cold = pmg_telemetry::snapshot();
                pmg_telemetry::reset();
                solver.update_matrix(&sys.matrix);
                solver.solve(&sys.rhs, None, rtol);
                let warm = pmg_telemetry::snapshot();
                let warm = scope_s(&warm, "setup") + scope_s(&warm, "solve");
                [scope_s(&cold, "setup"), scope_s(&cold, "solve"), warm]
            })
            .collect();
        let mut median = |f: fn(&[f64; 3]) -> f64| {
            runs.sort_by(|a, b| f(a).total_cmp(&f(b)));
            wall(f(&runs[runs.len() / 2]))
        };
        let [setup_s, solve_s] = [median(|r| r[0]), median(|r| r[1])];
        let [cold_s, warm_s] = [median(|r| r[0] + r[1]), median(|r| r[2])];
        let walls = [setup_s, solve_s, cold_s, warm_s];
        table.row(modelled.into_iter().chain(walls));
    }
    table
}

/// The face-identification tolerance (`TOL`, Fig. 3) swept on ladder
/// point `k` over two ranks: faces, vertex classes, iterations, levels.
pub fn face_tol(k: usize) -> Table {
    use prometheus::VertexClass::*;
    let sys = spheres_first_solve(k);
    let facets = pmg_mesh::boundary_facets(&sys.mesh);
    let adj = pmg_mesh::facet_adjacency(&facets);
    let header = "TOL | faces | I | S | E | C | iters | levels";
    let mut table = Table::new(format!("face-tol-k{k}"), header);
    for tol in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
        let mut ids = prometheus::identify_faces(&facets, &adj, tol);
        let classes = prometheus::classify_vertices(sys.mesh.num_vertices(), &facets, &ids);
        ids.sort_unstable();
        ids.dedup();
        let [i, s, e, c] = [Interior, Surface, Edge, Corner].map(|c| n(classes.count(c)));
        let mut opts = paper_options(k);
        (opts.nranks, opts.face_tol, opts.mg.coarsen.face_tol) = (2, tol, tol);
        let (solver, iters) = first_solve(&sys, opts, 1e-4);
        let levels = n(solver.level_sizes().len());
        table.row([x(tol, 2), n(ids.len()), i, s, e, c, iters, levels]);
    }
    table
}

/// The coarsest-grid direct-solve threshold swept on ladder point `k`:
/// depth, iterations, operator complexity and modelled seconds, then the
/// hierarchy at the default threshold.
pub fn coarse_size(k: usize) -> Vec<Table> {
    let sys = spheres_first_solve(k);
    let header = "threshold | levels | iters | op cx | setup mdl s | solve mdl s | level sizes";
    let mut out = vec![Table::new(format!("coarse-size-k{k}"), header)];
    for threshold in [100, 300, 600, 1500, 4000] {
        let mut opts = paper_options(k);
        opts.mg.coarse_dof_threshold = threshold;
        let (solver, iters) = first_solve(&sys, opts, 1e-4);
        let (sizes, report) = (solver.level_sizes(), solver.report());
        let [setup, solve] = ["matrix setup", "solve"].map(|s| x(sim(&report, s).modeled_s, 3));
        let [levels, list] = [n(sizes.len()), t(format!("{sizes:?}"))];
        let complexity = x(operator_complexity(&solver), 2);
        let it = iters.clone();
        out[0].row([n(threshold), levels, it, complexity, setup, solve, list]);
        if threshold == MgOptions::default().coarse_dof_threshold {
            let name = format!("coarse-size-k{k}-default");
            out.push(hierarchy(name, &solver, iters));
        }
    }
    out
}
