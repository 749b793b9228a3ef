//! `cold10k`: the paper's "first solve". Every unit starts from flat-file
//! bytes and builds everything: mesh, FE problem, operator, hierarchy,
//! solution. Set-up is most of it, so set-up work shows here first.

use super::{Samples, Workload};
use crate::check::{bits_hash, rel_residual, Verdict};
use crate::inputs::{self, CrushProblem, Rng};
use crate::layers::Opaque;
use crate::spec::Layers;
use crate::trace::Tracer;
use pmg_fem::bc::constrain_system;
use pmg_mesh::Mesh;
use pmg_parallel::{DistMatrix, DistVec, Layout, Sim};
use pmg_partition::recursive_coordinate_bisection;
use pmg_solver::{pcg, BlockJacobi, CoarseDirect, PcgOptions};
use pmg_sparse::{CsrMatrix, RapPlan};
use prometheus::mg::{expand_restriction, MgLevel, Smoother};
use prometheus::{coarsen_level, MgHierarchy, Prometheus, PrometheusOptions};
use std::sync::Arc;
use std::time::Instant;

pub const RTOL: f64 = 1e-6;

/// The generated inputs of the two spheres workloads.
pub struct SpheresInput {
    /// The mesh as flat-file bytes, in the seeded length unit.
    pub bytes: Vec<u8>,
    /// Octant cube side in that unit.
    pub side: f64,
    /// Seeded scale of the crush increment (scales the right-hand side).
    pub amplitude: f64,
}

impl SpheresInput {
    pub fn generate(seed: u64, stream: u64) -> SpheresInput {
        let mut rng = Rng::new(seed, stream);
        let k = inputs::unit_exponent(&mut rng);
        let params = inputs::spheres10k_params();
        let mesh = inputs::scaled(&pmg_mesh::spheres::sphere_in_cube(&params), k);
        SpheresInput {
            bytes: pmg_mesh::write_flat_bytes(&mesh),
            side: params.cube_side * 2f64.powi(k),
            amplitude: rng.range(0.75, 1.25),
        }
    }
}

/// Bytes to constrained first-step system: the part of a unit before the
/// solver is involved.
pub struct Ingested {
    pub problem: CrushProblem,
    pub matrix: CsrMatrix,
    pub rhs: Vec<f64>,
}

pub fn ingest(input: &SpheresInput) -> Ingested {
    let mesh = pmg_mesh::read_flat_bytes(&input.bytes).expect("generated mesh bytes parse");
    let mut problem = CrushProblem::new(mesh, input.side);
    let u0 = vec![0.0; problem.fem.ndof()];
    let (k, r) = problem.fem.assemble(&u0);
    let (matrix, rhs) = constrain_system(&k, &r, &problem.increments(1, input.amplitude, &u0));
    Ingested {
        problem,
        matrix,
        rhs,
    }
}

pub struct Cold {
    input: SpheresInput,
    /// Solution bits of the first unit; every later unit must match.
    first_bits: Option<u64>,
    facts: String,
}

impl Cold {
    pub fn prepare(seed: u64) -> Cold {
        Cold {
            input: SpheresInput::generate(seed, 1),
            first_bits: None,
            facts: String::new(),
        }
    }
}

/// Checks shared by every single-rank solve: converged, true residual
/// within ten times the tolerance, same bits as the first unit.
pub fn check_solve(
    v: &mut Verdict,
    a: &CsrMatrix,
    x: &[f64],
    b: &[f64],
    rtol: f64,
    converged: bool,
    first_bits: &mut Option<u64>,
) {
    v.require(converged, || "PCG did not converge".into());
    let res = rel_residual(a, x, b);
    v.require(res <= 10.0 * rtol, || {
        format!("true residual {res:.3e} above 10 x rtol {rtol:.0e}")
    });
    let bits = bits_hash(x);
    let first = *first_bits.get_or_insert(bits);
    v.require(bits == first, || {
        "solution bits differ from the first unit".into()
    });
}

impl Workload for Cold {
    fn unit(&mut self, out: &mut Samples) -> Verdict {
        let t0 = Instant::now();
        let ing = ingest(&self.input);
        let t1 = Instant::now();
        let mut solver = Prometheus::from_mesh(
            &ing.problem.fem.mesh,
            &ing.matrix,
            PrometheusOptions::default(),
        );
        let t2 = Instant::now();
        let (x, res) = solver.solve(&ing.rhs, None, RTOL);
        let t3 = Instant::now();
        out.setup.push((t2 - t1).as_secs_f64());
        out.solve.push((t3 - t2).as_secs_f64());
        out.tts.push((t3 - t0).as_secs_f64());

        let mut v = Verdict::default();
        check_solve(
            &mut v,
            &ing.matrix,
            &x,
            &ing.rhs,
            RTOL,
            res.converged,
            &mut self.first_bits,
        );
        if self.facts.is_empty() {
            self.facts = format!(
                "{} dof, {} nnz, {} mesh bytes, levels {:?}, {} iterations to rtol {RTOL:.0e}",
                ing.matrix.nrows(),
                ing.matrix.nnz(),
                self.input.bytes.len(),
                solver.level_sizes(),
                res.iterations
            );
        }
        v
    }

    fn describe(&self) -> String {
        self.facts.clone()
    }
}

/// What `MgHierarchy::build` does for one rank, call by call through the
/// crates' public functions, with a span around each call. The hierarchy
/// it returns is the one `Prometheus::from_mesh` builds (the traced pass
/// checks the solutions agree bit for bit); the count is the tetrahedra of
/// the first coarse grid's Delaunay remesh.
pub fn replay_build(
    tr: &mut Tracer,
    mesh: &Mesh,
    a_fine: &CsrMatrix,
    opts: PrometheusOptions,
) -> (Sim, MgHierarchy, usize) {
    let mg_opts = opts.mg;
    let dofs = mg_opts.dofs_per_vertex;
    let nranks = opts.nranks;
    let mut sim = Sim::new(nranks, opts.model);
    sim.phase("mesh setup");
    let graph = tr.span("mesh.vertex_graph", |_| mesh.vertex_graph());
    let classes = tr.span("core.classify", |_| {
        prometheus::classify_mesh_parallel(mesh, opts.face_tol, nranks)
    });

    let make_layout = |tr: &mut Tracer, coords: &[pmg_geometry::Vec3]| -> Arc<Layout> {
        tr.span("partition.rcb", |_| {
            let part = recursive_coordinate_bisection(coords, nranks);
            Layout::expand_dofs(&Layout::from_part(part, nranks), dofs)
        })
    };
    let distribute = |tr: &mut Tracer, a: &CsrMatrix, l: &Arc<Layout>| -> DistMatrix {
        tr.span("parallel.distribute", |_| {
            DistMatrix::from_global_blocked(a, l.clone(), l.clone())
        })
    };
    let smoother = |tr: &mut Tracer, da: &DistMatrix| -> Smoother {
        tr.span("solver.smoother_setup", |_| {
            Smoother::BlockJacobi(BlockJacobi::new(da, mg_opts.blocks_per_1000, mg_opts.omega))
        })
    };
    // `MgHierarchy::build` moves the globally counted set-up flops into
    // the machine model after every stage; they do not touch the result.
    let charge = |sim: &mut Sim| {
        let total = pmg_sparse::flops::total();
        pmg_sparse::flops::reset();
        sim.compute(&vec![total / nranks as u64; nranks]);
    };

    let mut levels: Vec<MgLevel> = Vec::new();
    let mut coarsen_info = Vec::new();
    let mut tets_lvl0 = 0;
    let mut cur_a = a_fine.clone();
    let mut cur_coords = mesh.coords.clone();
    let mut cur_graph = graph;
    let mut cur_classes = classes;
    let mut cur_layout = make_layout(tr, &cur_coords);

    loop {
        let lvl = levels.len();
        let n = cur_a.nrows();
        let mut bottom = n <= mg_opts.coarse_dof_threshold
            || lvl + 1 >= mg_opts.max_levels
            || cur_coords.len() < 24;
        let mut coarse_level = None;
        if !bottom {
            sim.phase("mesh setup");
            let mut copts = mg_opts.coarsen;
            copts.nproc = nranks;
            copts.reclassify = lvl >= 1;
            let id = tr.enter(if lvl == 0 {
                "core.coarsen_lvl0"
            } else {
                "core.coarsen_coarse"
            });
            let cl = {
                // Named so the MIS / Delaunay scopes inside land per level.
                let _t = pmg_telemetry::scoped!("coarsen{lvl}");
                coarsen_level(&cur_coords, &cur_graph, &cur_classes, &copts)
            };
            tr.exit(id);
            if lvl == 0 {
                tets_lvl0 = cl.tets.len();
            }
            coarsen_info.push((cl.selected.len(), cl.lost_vertices));
            charge(&mut sim);
            let nc = cl.selected.len();
            // Coarsening stalled: finish with a direct solve here.
            bottom = nc * 100 >= cur_coords.len() * 95 || nc < 4;
            coarse_level = Some(cl);
        }
        sim.phase("matrix setup");
        if bottom {
            let da = distribute(tr, &cur_a, &cur_layout);
            let sm = smoother(tr, &da);
            let coarse = tr.span("solver.coarse_factor", |_| CoarseDirect::new(&da));
            charge(&mut sim);
            levels.push(MgLevel {
                a: da,
                smoother: sm,
                r: None,
                p: None,
                coarse: Some(coarse),
                num_vertices: cur_coords.len(),
                r_global: None,
                rap_plan: None,
            });
            break;
        }
        let cl = coarse_level.expect("a level that is not the bottom was coarsened");
        let r_dof = tr.span("core.expand_restriction", |_| {
            expand_restriction(&cl.restriction, dofs)
        });
        let mut plan = tr.span("sparse.rap_symbolic", |_| RapPlan::new(&cur_a, &r_dof));
        let a_coarse = tr.span("sparse.rap_numeric", |_| plan.execute(&cur_a));
        let coarse_layout = make_layout(tr, &cl.coords);
        let id = tr.enter("parallel.distribute");
        let da = DistMatrix::from_global_blocked(&cur_a, cur_layout.clone(), cur_layout.clone());
        let dr = DistMatrix::from_global(&r_dof, coarse_layout.clone(), cur_layout.clone());
        let dp = DistMatrix::from_global(
            &r_dof.transpose(),
            cur_layout.clone(),
            coarse_layout.clone(),
        );
        tr.exit(id);
        let sm = smoother(tr, &da);
        charge(&mut sim);
        levels.push(MgLevel {
            a: da,
            smoother: sm,
            r: Some(dr),
            p: Some(dp),
            coarse: None,
            num_vertices: cur_coords.len(),
            r_global: Some(r_dof),
            rap_plan: Some(plan),
        });
        cur_a = a_coarse;
        cur_coords = cl.coords;
        cur_graph = cl.graph;
        cur_classes = cl.classes;
        cur_layout = coarse_layout;
    }
    let mg = MgHierarchy {
        levels,
        opts: mg_opts,
        coarsen_info,
        fine_mf: None,
    };
    (sim, mg, tets_lvl0)
}

/// What `Prometheus::solve` does: FMG-preconditioned CG on the hierarchy.
pub fn replay_solve(
    sim: &mut Sim,
    mg: &MgHierarchy,
    b: &[f64],
    rtol: f64,
    max_iters: usize,
) -> (Vec<f64>, pmg_solver::PcgResult) {
    let layout = mg.levels[0].a.row_layout().clone();
    sim.phase("solve");
    let db = DistVec::from_global(layout.clone(), b);
    let mut dx = DistVec::zeros(layout);
    let res = pcg(
        sim,
        mg.fine_op(),
        mg,
        &db,
        &mut dx,
        PcgOptions {
            rtol,
            max_iters,
            ..Default::default()
        },
    );
    (dx.to_global(), res)
}

/// The traced pass: per unit one opaque run (the reference answer) and one
/// replay with a span per layer call and telemetry on.
pub fn traced(seed: u64, units: usize, tr: &mut Tracer, layers: &mut Layers) -> (usize, usize) {
    let mut w = Cold::prepare(seed);
    let opts = PrometheusOptions::default();
    layers.set("mesh.bytes", w.input.bytes.len() as f64);
    let mut failed = 0;
    let mut plain = Samples::default();
    let mut traced_unit = Vec::new();
    let mut keep = None;

    for unit in 0..units {
        // Opaque unit, exactly the plain run's.
        let v = w.unit(&mut plain);
        if !v.ok() {
            eprintln!("cold10k plain unit {unit}: {}", v.problems.join("; "));
            failed += 1;
        }
        let input = &w.input;

        tr.set_unit(unit);
        pmg_telemetry::reset();
        pmg_telemetry::set_enabled(true);
        let unit_id = tr.enter("unit");
        let ingest_id = tr.enter("ingest");
        let mesh = tr.span("mesh.read_flat", |_| {
            pmg_mesh::read_flat_bytes(&input.bytes).expect("generated mesh bytes parse")
        });
        let mut problem = tr.span("fem.problem_build", |_| CrushProblem::new(mesh, input.side));
        let u0 = vec![0.0; problem.fem.ndof()];
        let (k, r) = tr.span("fem.assemble_cold", |_| problem.fem.assemble(&u0));
        let (matrix, rhs) = tr.span("fem.constrain", |_| {
            constrain_system(&k, &r, &problem.increments(1, input.amplitude, &u0))
        });
        drop((k, r));
        tr.exit(ingest_id);

        let setup_id = tr.enter("setup");
        let ((mut sim, mg, tets), setup_bytes, setup_calls, setup_net) =
            crate::alloc::counted_net(|| replay_build(tr, &problem.fem.mesh, &matrix, opts));
        tr.exit(setup_id);
        let rss_after_setup = crate::host::rss_mb();
        let setup_report = pmg_telemetry::snapshot();

        let solve_id = tr.enter("solve");
        let ((x, res), solve_bytes, solve_calls) =
            crate::alloc::counted(|| replay_solve(&mut sim, &mg, &rhs, RTOL, opts.max_iters));
        tr.exit(solve_id);
        tr.exit(unit_id);
        pmg_telemetry::set_enabled(false);
        let report = pmg_telemetry::snapshot();
        traced_unit.push(tr.spans[unit_id].dur());
        crate::layers::import_coarsen_scopes(tr, &setup_report);
        crate::layers::import_solve_scopes(tr, solve_id, &report, "pcg");

        // The first bits are the opaque unit's: the replayed pipeline has
        // to return what `Prometheus::from_mesh` + `solve` returned.
        let mut v = Verdict::default();
        check_solve(
            &mut v,
            &matrix,
            &x,
            &rhs,
            RTOL,
            res.converged,
            &mut w.first_bits,
        );
        if !v.ok() {
            eprintln!("cold10k traced unit {unit}: {}", v.problems.join("; "));
            failed += 1;
        }
        if unit + 1 == units {
            layers.set("mem.alloc_bytes_setup", setup_bytes as f64);
            layers.set("mem.alloc_calls_setup", setup_calls as f64);
            layers.set("mem.alloc_bytes_solve", solve_bytes as f64);
            layers.set("mem.alloc_calls_solve", solve_calls as f64);
            layers.set("mem.rss_after_setup_mb", rss_after_setup);
            layers.set("solver.iterations", res.iterations as f64);
            layers.set("mem.hierarchy_bytes", setup_net as f64);
            layers.set("geometry.delaunay_tets", tets as f64);
            keep = Some((problem, matrix, rhs, mg));
        }
    }

    let (mut problem, matrix, rhs, mut mg) = keep.expect("at least one traced unit");
    crate::layers::add_pcg_other(tr);
    crate::layers::span_rows(layers, tr, units, &Opaque::of_single_solves(&plain));
    crate::layers::hierarchy_rows(layers, &mg);
    crate::layers::kernel_probes(layers, &matrix, &mut mg);
    crate::layers::matfree_probe(layers, &mut problem, w.input.amplitude);
    crate::layers::pool_and_telemetry_probes(layers, &problem.fem.mesh, &matrix, &rhs, RTOL);
    layers.set(
        "trace.overhead_frac",
        crate::stats::lower_half_mean(&traced_unit) / crate::stats::lower_half_mean(&plain.tts)
            - 1.0,
    );
    (2 * units, failed)
}
