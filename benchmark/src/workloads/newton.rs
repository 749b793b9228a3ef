//! `newton10k`: one Newton iteration per unit on a hierarchy built once —
//! the paper's actual workload (§6: mesh set-up is amortised, every Newton
//! iteration pays the matrix set-up and a solve). It runs the same sparse,
//! solver and fem layers as `cold10k` the other way round: plan re-execution
//! instead of plan build, warm pattern-reuse assembly instead of cold.
//!
//! Units alternate between two states of the crush so the operator values
//! change every unit: `A`, the displacement after the first Newton
//! iteration of load step 1, and `B = A + du/2`, the point a backtracking
//! line search would try next. Both take the same number of Krylov
//! iterations, so every unit does the same work (the report prints both
//! counts; the traced run's `NewtonDriver` pass gives the real sequence).

use super::cold::{check_solve, ingest, SpheresInput};
use super::{Samples, Workload};
use crate::check::Verdict;
use crate::inputs::CrushProblem;
use crate::layers::Opaque;
use crate::spec::Layers;
use crate::trace::Tracer;
use pmg_fem::bc::constrain_system;
use pmg_parallel::DistMatrix;
use pmg_solver::{BlockJacobi, CoarseDirect};
use pmg_sparse::CsrMatrix;
use prometheus::mg::Smoother;
use prometheus::{Prometheus, PrometheusOptions};
use std::time::Instant;

/// The paper's linear tolerance inside Newton.
pub const RTOL: f64 = 1e-4;

pub struct Newton {
    problem: CrushProblem,
    solver: Prometheus,
    states: [Vec<f64>; 2],
    first_bits: [Option<u64>; 2],
    iterations: [usize; 2],
    units: usize,
    /// Bytes the hierarchy kept when it was built (counting allocator, net).
    hierarchy_bytes: u64,
    facts: String,
}

/// Warm assembly and constraint at displacement `u` (load step 1).
fn linearize(problem: &mut CrushProblem, u: &[f64]) -> (CsrMatrix, Vec<f64>) {
    let (k, r) = problem.fem.assemble(u);
    constrain_system(&k, &r, &problem.increments(1, 1.0, u))
}

impl Newton {
    pub fn prepare(seed: u64) -> Newton {
        let input = SpheresInput {
            amplitude: 1.0, // the crush is physics here, not a scale factor
            ..SpheresInput::generate(seed, 2)
        };
        let ing = ingest(&input);
        let (mut solver, _, _, hierarchy_bytes) = crate::alloc::counted_net(|| {
            Prometheus::from_mesh(
                &ing.problem.fem.mesh,
                &ing.matrix,
                PrometheusOptions::default(),
            )
        });
        let (a, _) = solver.solve(&ing.rhs, None, super::cold::RTOL);
        let facts = format!(
            "{} dof, {} nnz, levels {:?}",
            ing.matrix.nrows(),
            ing.matrix.nnz(),
            solver.level_sizes()
        );
        Newton {
            problem: ing.problem,
            solver,
            // `B` is half the first unit's Newton step beyond `A`.
            states: [a, Vec::new()],
            first_bits: [None, None],
            iterations: [0, 0],
            units: 0,
            hierarchy_bytes,
            facts,
        }
    }
}

impl Workload for Newton {
    fn unit(&mut self, out: &mut Samples) -> Verdict {
        let which = self.units % 2;
        self.units += 1;
        let t0 = Instant::now();
        let (kc, rhs) = linearize(&mut self.problem, &self.states[which]);
        let t1 = Instant::now();
        self.solver.update_matrix(&kc);
        let t2 = Instant::now();
        let (x, res) = self.solver.solve(&rhs, None, RTOL);
        let t3 = Instant::now();
        out.setup.push((t2 - t1).as_secs_f64());
        out.solve.push((t3 - t2).as_secs_f64());
        out.tts.push((t3 - t0).as_secs_f64());

        self.iterations[which] = res.iterations;
        if self.states[1].is_empty() {
            self.states[1] = self.states[0]
                .iter()
                .zip(&x)
                .map(|(a, du)| a + 0.5 * du)
                .collect();
        }
        let mut v = Verdict::default();
        check_solve(
            &mut v,
            &kc,
            &x,
            &rhs,
            RTOL,
            res.converged,
            &mut self.first_bits[which],
        );
        v
    }

    fn describe(&self) -> String {
        format!(
            "{}, {} / {} iterations to rtol {RTOL:.0e} at states A / B",
            self.facts, self.iterations[0], self.iterations[1]
        )
    }
}

/// What `MgHierarchy::update_operator` does, call by call, on the solver's
/// own hierarchy (its fields are public): redistribute, refactor the
/// smoother, re-execute the cached Galerkin plan, refactor the coarse
/// solve — no coarsening, no symbolic product.
fn replay_update(tr: &mut Tracer, solver: &mut Prometheus, a_fine: &CsrMatrix) {
    let (sim, mg) = (&mut solver.sim, &mut solver.mg);
    sim.phase("matrix setup");
    mg.fine_mf = None;
    let opts = mg.opts;
    let mut cur = a_fine.clone();
    for lvl in 0..mg.levels.len() {
        let layout = mg.levels[lvl].a.row_layout().clone();
        let da = tr.span("parallel.distribute", |_| {
            DistMatrix::from_global_blocked(&cur, layout.clone(), layout)
        });
        let smoother = tr.span("solver.smoother_setup", |_| {
            Smoother::BlockJacobi(BlockJacobi::new(&da, opts.blocks_per_1000, opts.omega))
        });
        let level = &mut mg.levels[lvl];
        let next = level.rap_plan.as_mut().map(|plan| {
            assert!(plan.matches(&cur), "Newton keeps the sparsity pattern");
            tr.span("sparse.rap_numeric", |_| plan.execute(&cur))
        });
        if level.coarse.is_some() {
            level.coarse = Some(tr.span("solver.coarse_factor", |_| CoarseDirect::new(&da)));
        }
        level.a = da;
        level.smoother = smoother;
        match next {
            Some(ac) => cur = ac,
            None => break,
        }
    }
    let total = pmg_sparse::flops::total();
    pmg_sparse::flops::reset();
    sim.compute(&[total]);
}

pub fn traced(seed: u64, units: usize, tr: &mut Tracer, layers: &mut Layers) -> (usize, usize) {
    let mut w = Newton::prepare(seed);
    let mut failed = 0;
    let mut plain = Samples::default();
    let mut traced_unit = Vec::new();
    let mut last = None;

    // Per traced unit one opaque iteration, then the same state traced.
    for unit in 0..units {
        let which = w.units % 2;
        let v = w.unit(&mut plain);
        if !v.ok() {
            eprintln!("newton10k plain unit {unit}: {}", v.problems.join("; "));
            failed += 1;
        }

        tr.set_unit(unit);
        pmg_telemetry::reset();
        pmg_telemetry::set_enabled(true);
        let unit_id = tr.enter("unit");
        let ingest_id = tr.enter("ingest");
        let u = &w.states[which];
        let (k, r) = tr.span("fem.assemble_warm", |_| w.problem.fem.assemble(u));
        let (kc, rhs) = tr.span("fem.constrain", |_| {
            constrain_system(&k, &r, &w.problem.increments(1, 1.0, u))
        });
        drop((k, r));
        tr.exit(ingest_id);
        let setup_id = tr.enter("setup");
        let ((), setup_bytes, setup_calls) =
            crate::alloc::counted(|| replay_update(tr, &mut w.solver, &kc));
        tr.exit(setup_id);
        let rss_after_setup = crate::host::rss_mb();
        let solve_id = tr.enter("solve");
        let ((x, res), solve_bytes, solve_calls) =
            crate::alloc::counted(|| w.solver.solve(&rhs, None, RTOL));
        tr.exit(solve_id);
        traced_unit.push(tr.exit(unit_id));
        pmg_telemetry::set_enabled(false);
        let report = pmg_telemetry::snapshot();
        crate::layers::import_solve_scopes(tr, solve_id, &report, "solve/pcg");

        let mut v = Verdict::default();
        check_solve(
            &mut v,
            &kc,
            &x,
            &rhs,
            RTOL,
            res.converged,
            &mut w.first_bits[which],
        );
        if !v.ok() {
            eprintln!("newton10k traced unit {unit}: {}", v.problems.join("; "));
            failed += 1;
        }
        layers.set("mem.alloc_bytes_setup", setup_bytes as f64);
        layers.set("mem.alloc_calls_setup", setup_calls as f64);
        layers.set("mem.alloc_bytes_solve", solve_bytes as f64);
        layers.set("mem.alloc_calls_solve", solve_calls as f64);
        layers.set("mem.rss_after_setup_mb", rss_after_setup);
        layers.set("solver.iterations", res.iterations as f64);
        last = Some(kc);
    }

    crate::layers::add_pcg_other(tr);
    crate::layers::span_rows(layers, tr, units, &Opaque::of_single_solves(&plain));
    layers.set(
        "core.update_matrix_s",
        crate::layers::per_unit(tr, "setup", units),
    );
    crate::layers::hierarchy_rows(layers, &w.solver.mg);
    let kc = last.expect("at least one traced unit");
    layers.set("mem.hierarchy_bytes", w.hierarchy_bytes as f64);
    crate::layers::kernel_probes(layers, &kc, &mut w.solver.mg);
    layers.set(
        "trace.overhead_frac",
        crate::stats::lower_half_mean(&traced_unit) / crate::stats::lower_half_mean(&plain.tts)
            - 1.0,
    );

    // The real sequence: load steps 1-2 under the Newton driver, on the
    // same problem and hierarchy (the units above are done with them).
    let driver = pmg_fem::NewtonDriver::new(pmg_fem::NewtonOptions::default());
    let mut u = vec![0.0; w.problem.fem.ndof()];
    let (mut newton_iters, mut linear_iters) = (0, 0);
    for step in 1..=2 {
        let bcs = w.problem.bcs(step);
        let solver = &mut w.solver;
        let mut solve = |kc: &CsrMatrix, rhs: &[f64], rtol: f64| {
            solver.update_matrix(kc);
            let (x, r) = solver.solve(rhs, None, rtol);
            (x, r.iterations)
        };
        let stats = driver.solve_step(&mut w.problem.fem, &mut u, &bcs, &mut solve);
        if !stats.converged {
            eprintln!("newton10k: load step {step} did not converge");
            failed += 1;
        }
        newton_iters += stats.newton_iters;
        linear_iters += stats.linear_iters.iter().sum::<usize>();
    }
    layers.set("fem.newton_iters", newton_iters as f64);
    layers.set("fem.newton_linear_iters", linear_iters as f64);
    (2 * units + 2, failed)
}
