//! Deterministic end-to-end telemetry regression: solve the tiny
//! concentric-spheres problem (fixed MIS seed, fixed machine model) with
//! collection enabled and check that
//!
//! - the CG iteration count stays inside its recorded band,
//! - the report carries every expected setup phase (classify, MIS,
//!   Delaunay remesh, restriction, `R A Rᵀ`, smoother, coarse direct) and
//!   per-level solve phase (smooth / restrict / prolong / coarse) with
//!   nonzero time,
//! - iteration count and residual history land in the report,
//! - the whole artifact round-trips through one JSON-lines document, and
//! - the message-passing runtime records the cycle's per-level scopes as
//!   often as the simulator does.
//!
//! Telemetry is process-global, so these tests live alone in their own
//! integration-test binary and take turns under [`TELEMETRY`].

use pmg_bench::{spheres_first_solve, FirstSolveSystem};
use pmg_solver::PcgOptions;
use pmg_telemetry::{JsonLinesSink, Report, Sink};
use prometheus::{solve_threads, MgOptions, Prometheus, PrometheusOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serialises the tests that reset and read the process-global registry.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// The tiny spheres system and its two-rank solver, built with whatever
/// telemetry setting is current.
fn tiny_spheres() -> (FirstSolveSystem, Prometheus) {
    let sys = spheres_first_solve(0);
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        max_iters: 200,
        ..Default::default()
    };
    let solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
    (sys, solver)
}

/// Recorded band for the tiny spheres first solve at rtol 1e-6 (measured:
/// 13 iterations). The problem, seed, and machine model are fixed, so a
/// drift outside this band means the solver or coarsening changed.
const ITER_BAND: std::ops::RangeInclusive<usize> = 8..=25;

#[test]
fn spheres_solve_emits_full_telemetry_report() {
    let _turn = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    pmg_telemetry::label("problem", "spheres-tiny");

    let (sys, mut solver) = tiny_spheres();
    let ndof = sys.mesh.num_dof();
    let (x, res) = solver.solve(&sys.rhs, None, 1e-6);
    let report = solver.report();
    pmg_telemetry::set_enabled(false);

    // The solve itself: converged, inside the recorded iteration band, and
    // actually solving the system.
    assert!(res.converged, "{res:?}");
    assert!(
        ITER_BAND.contains(&res.iterations),
        "iteration count {} left the recorded band {ITER_BAND:?}",
        res.iterations
    );
    let mut ax = vec![0.0; ndof];
    sys.matrix.spmv(&x, &mut ax);
    let err: f64 = ax
        .iter()
        .zip(&sys.rhs)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(err < 1e-4 * bn);

    // Every setup phase of the paper's pipeline, with nonzero time.
    for path in [
        "setup",
        "setup/classify",
        "setup/coarsen",
        "setup/coarsen/mis",
        "setup/coarsen/delaunay",
        "setup/coarsen/delaunay/triangulate",
        "setup/coarsen/restriction",
        "setup/rap",
        "setup/smoother",
        "setup/coarse_direct",
        "solve",
        "solve/pcg",
        "solve/pcg/precond",
    ] {
        let p = report
            .phase(path)
            .unwrap_or_else(|| panic!("missing phase {path}"));
        assert!(p.total_s > 0.0, "phase {path} has zero time");
        assert!(p.count > 0, "phase {path} has zero count");
    }

    // Per-level solve phases: smooth/restrict/prolong on every grid that
    // cycles, coarse on the bottom grid.
    let nlevels = solver.level_sizes().len();
    assert!(
        nlevels >= 2,
        "hierarchy too shallow: {:?}",
        solver.level_sizes()
    );
    for lvl in 0..nlevels - 1 {
        for op in ["smooth", "restrict", "prolong"] {
            let path = format!("solve/pcg/precond/level{lvl}/{op}");
            let p = report
                .phase(&path)
                .unwrap_or_else(|| panic!("missing phase {path}"));
            assert!(p.total_s > 0.0, "phase {path} has zero time");
        }
    }
    let coarse = format!("solve/pcg/precond/level{}/coarse", nlevels - 1);
    assert!(report.phase(&coarse).is_some(), "missing {coarse}");

    // Iteration count, residual history, per-level gauges, labels.
    assert_eq!(report.counters["pcg/iterations"], res.iterations as u64);
    assert_eq!(report.series["pcg/residuals"], res.residuals);
    assert_eq!(report.gauges["mg/levels"], nlevels as f64);
    assert_eq!(report.gauges["mg/level0/rows"], ndof as f64);
    assert!(report.gauges["mg/operator_complexity"] > 1.0);
    // Which classification rule fired, and what each step bought: grid 1
    // of the spheres inherits 224 corners among 249 vertices, so it is
    // reclassified unasked — once; the later steps are told to.
    assert_eq!(report.counters["coarsen/reclassified_crowded"], 1);
    let rows: Vec<f64> = (0..nlevels)
        .map(|lvl| report.gauges[&format!("mg/level{lvl}/rows")])
        .collect();
    for w in rows.windows(2) {
        assert!(w[0] >= 2.0 * w[1], "{rows:?}");
    }
    assert_eq!(report.labels["problem"], "spheres-tiny");

    // The bridged machine-model phases arrive in the same artifact.
    for name in ["mesh setup", "matrix setup", "solve"] {
        let s = report
            .sim_phases
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sim phase {name}"));
        assert!(s.total_flops > 0, "sim phase {name} has zero flops");
    }

    // One JSON-lines document round-trips the entire report.
    let mut buf = Vec::new();
    JsonLinesSink(&mut buf).emit(&report).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed = Report::from_json_lines(&text).unwrap();
    assert_eq!(parsed, report);
}

/// Enter counts of the cycle's scopes in `report`, keyed from `precond`
/// down (the simulator records them under `solve/pcg/`, a rank thread at
/// its root).
fn cycle_scopes(report: &Report) -> BTreeMap<String, u64> {
    let scopes = report.phases.iter().filter_map(|p| {
        let at = p.path.find("precond")?;
        Some((p.path[at..].to_string(), p.count))
    });
    scopes.collect()
}

/// One cycle, two runtimes: the same system solved by the simulator and by
/// two message-passing rank threads (on shares they built themselves)
/// enters `precond` and every
/// `precond/level{N}/{smooth,restrict,prolong,coarse}` scope equally often —
/// rank 0 records, rank 1 does not double it.
#[test]
fn spmd_per_level_scopes_match_the_simulator() {
    let _turn = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let (sys, mut solver) = tiny_spheres();
    let setups = pmg_bench::parity_setups(&sys, 2).unwrap();
    let opts = PcgOptions {
        rtol: 1e-6,
        max_iters: 200,
        ..Default::default()
    };

    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    let (_, sim_res) = solver.solve(&sys.rhs, None, opts.rtol);
    let sim_scopes = cycle_scopes(&pmg_telemetry::snapshot());

    pmg_telemetry::reset();
    let spmd = solve_threads(&setups, &sys.rhs, opts).unwrap();
    let spmd_scopes = cycle_scopes(&pmg_telemetry::snapshot());
    pmg_telemetry::set_enabled(false);

    assert_eq!(spmd.result.iterations, sim_res.iterations);
    let nlevels = solver.level_sizes().len();
    // precond + three scopes per level above the bottom + the bottom's.
    assert_eq!(sim_scopes.len(), 3 * nlevels - 1, "{sim_scopes:?}");
    // One application starts the recurrence, every iteration but the
    // converging one ends with another.
    assert_eq!(sim_scopes["precond"], sim_res.iterations as u64);
    assert_eq!(spmd_scopes, sim_scopes);
}

/// One coarsening step over two rank threads counts its crowded
/// reclassification once, like the in-process step: every rank takes the
/// decision, rank 0 records it.
#[test]
fn rank_threads_count_a_crowded_reclassification_once() {
    use pmg_comm::LocalTransport;
    use prometheus::{classify_mesh_parallel, coarsen_level_transport, CoarsenOptions};

    let _turn = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = spheres_first_solve(0).mesh;
    let (graph, classes) = (mesh.vertex_graph(), classify_mesh_parallel(&mesh, 0.7, 2));
    let opts = CoarsenOptions {
        nproc: 2,
        ..Default::default()
    };
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    let (coords, graph, classes) = (&mesh.coords, &graph, &classes);
    LocalTransport::run_ranks(2, move |mut t| {
        coarsen_level_transport(&mut t, coords, graph, classes, &opts).map(|_| ())
    })
    .into_iter()
    .for_each(|coarsened| coarsened.unwrap());
    let report = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    assert_eq!(report.counters["coarsen/reclassified_crowded"], 1);
}

/// The in-process set-up runs the §4 message-passing programs (MIS rounds,
/// face-ID merge) on a one-rank endpoint, so it puts nothing on a wire.
#[test]
fn in_process_setup_sends_nothing() {
    let _turn = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    tiny_spheres();
    let report = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    assert!(report.counters["mis/rounds"] > 0);
    assert_eq!(report.counters["coarsen/reclassified_crowded"], 1);
    for name in ["comm/msgs", "comm/bytes"] {
        assert_eq!(report.counters.get(name).copied().unwrap_or(0), 0, "{name}");
    }
}

/// Scrape the counter/gauge names emitted by `src` into `out`. Handles
/// multi-line call sites and `&format!(...)` names; `format!` placeholders
/// are normalised to `{N}` to match the docs spelling
/// (`mg/level{lvl_index}/rows` -> `mg/level{N}/rows`).
fn scrape_emitted_names(src: &str, out: &mut BTreeSet<String>) {
    for needle in ["counter_add(", "gauge_set("] {
        let mut at = 0;
        while let Some(pos) = src[at..].find(needle) {
            at += pos + needle.len();
            let mut rest = src[at..].trim_start();
            if let Some(stripped) = rest.strip_prefix("&format!(") {
                rest = stripped.trim_start();
            }
            // Skip non-literal names (function definitions, name variables).
            let Some(body) = rest.strip_prefix('"') else {
                continue;
            };
            let Some(end) = body.find('"') else { continue };
            let mut name = String::new();
            let mut chars = body[..end].chars();
            while let Some(c) = chars.next() {
                if c == '{' {
                    for d in chars.by_ref() {
                        if d == '}' {
                            break;
                        }
                    }
                    name.push_str("{N}");
                } else {
                    name.push(c);
                }
            }
            out.insert(name);
        }
    }
}

/// Counter and gauge names are stable API: every name production code can
/// emit must have a row in `docs/telemetry.md`. Scrapes all
/// `counter_add`/`gauge_set` call sites in the workspace sources —
/// excluding test/bench trees and the telemetry crate itself, whose unit
/// tests use throwaway names — and looks each name up in the docs text.
#[test]
fn emitted_counter_and_gauge_names_are_documented() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let docs = std::fs::read_to_string(root.join("docs/telemetry.md")).unwrap();

    let mut names = BTreeSet::new();
    let mut stack = vec![root.join("crates"), root.join("src")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let base = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if base == "tests" || base == "benches" || base == "telemetry" || base == "shims" {
                    continue;
                }
                stack.push(path);
            } else if base.ends_with(".rs") {
                scrape_emitted_names(&std::fs::read_to_string(&path).unwrap(), &mut names);
            }
        }
    }

    // Sanity: the scraper actually sees the stack's emissions (a silent
    // zero-name pass would make the documentation assert vacuous).
    for expected in ["pcg/iterations", "comm/setup_msgs", "mg/level{N}/imbalance"] {
        assert!(
            names.contains(expected),
            "scraper lost a known name {expected}; scraped: {names:?}"
        );
    }

    let undocumented: Vec<&String> = names
        .iter()
        .filter(|n| !docs.contains(n.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "telemetry names emitted in code but missing from docs/telemetry.md: {undocumented:?}"
    );
}
