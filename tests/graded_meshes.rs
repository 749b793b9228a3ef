//! Three mesh families, one table (ROADMAP item 2b): the hierarchy is
//! judged on the concentric spheres (faceted shells — the geometry whose
//! second grid is crowded with inherited corners), on a thin plate (the
//! §4.6 cover) and on a re-entrant bracket graded geometrically toward its
//! edge, because unstructured geometric coarsening fails where spacing
//! varies fastest (Brune–Knepley–Scott, arXiv 1104.0261) and every other
//! iteration count in this repository comes from a quasi-uniform mesh.
//!
//! On every family: each coarsening step at least halves the vertex count,
//! FMG-PCG converges to 1e-6, and the iteration count stays inside the
//! bound the measured table sets. Run with `--nocapture` for the table.

use pmg_fem::bc::constrain_system;
use pmg_fem::{FemProblem, LinearElastic};
use pmg_geometry::Vec3;
use pmg_mesh::generators::{graded_bracket, thin_plate};
use pmg_mesh::{Mesh, SpheresParams};
use pmg_sparse::CsrMatrix;
use prometheus::{classify_mesh_levels, LevelInfo, Prometheus, PrometheusOptions};
use std::sync::Arc;

/// A unit-modulus elastic body clamped where `clamp` holds and loaded
/// with the nodal force `load` returns.
fn elastic(
    mesh: &Mesh,
    clamp: impl Fn(Vec3) -> bool,
    load: impl Fn(Vec3) -> Vec3,
) -> (CsrMatrix, Vec<f64>) {
    let ndof = mesh.num_dof();
    let material = Arc::new(LinearElastic::from_e_nu(1.0, 0.3));
    let (k, _) = FemProblem::new(mesh.clone(), vec![material]).assemble(&vec![0.0; ndof]);
    let mut fixed = Vec::new();
    let mut f = vec![0.0; ndof];
    for (v, &p) in mesh.coords.iter().enumerate() {
        if clamp(p) {
            fixed.extend((0..3).map(|c| (3 * v as u32 + c, 0.0)));
        }
        f[3 * v..3 * v + 3].copy_from_slice(&load(p).to_array());
    }
    let (kc, rhs) = constrain_system(&k, &f, &fixed);
    (kc, rhs.iter().map(|v| -v).collect())
}

/// Build the default one-rank solver on `mesh`, solve to 1e-6, print the
/// per-level table and return the grids with the iteration count. Elements,
/// classes and coordinates come from the inspection ladder, which runs the
/// solver's own level schedule and must reproduce its vertex counts.
fn measure(name: &str, mesh: &Mesh, matrix: &CsrMatrix, rhs: &[f64]) -> (Vec<LevelInfo>, usize) {
    let opts = PrometheusOptions::default();
    let mut solver = Prometheus::from_mesh(mesh, matrix, opts);
    let (_, res) = solver.solve(rhs, None, 1e-6);
    assert!(res.converged, "{name}: {res:?}");
    let levels = &solver.mg.levels;
    let grids = classify_mesh_levels(mesh, &opts.mg.coarsen, levels.len());
    assert_eq!(grids.len(), levels.len(), "{name}");

    println!(
        "{name}: {} iterations, operator complexity {:.2}",
        res.iterations,
        pmg_bench::operator_complexity(&solver)
    );
    println!("  level vertices   rows     nnz elems |    I    S    E    C | reduction");
    for (lvl, (g, level)) in grids.iter().zip(levels).enumerate() {
        assert_eq!(g.vertices, level.num_vertices, "{name}: level {lvl}");
        let reduction = grids.get(lvl + 1).map_or("-".into(), |next| {
            format!("{:.2}", g.vertices as f64 / next.vertices as f64)
        });
        println!(
            "  {lvl:>5} {:>8} {:>6} {:>7} {:>5} | {:>4} {:>4} {:>4} {:>4} | {reduction:>9}",
            g.vertices,
            level.a.num_global_rows(),
            level.a.nnz(),
            g.elements,
            g.interior,
            g.surface,
            g.edge,
            g.corner,
        );
    }
    for (lvl, w) in grids.windows(2).enumerate() {
        let (fine, coarse) = (w[0].vertices, w[1].vertices);
        assert!(
            2 * coarse <= fine,
            "{name}: level {lvl} keeps {coarse} of {fine} vertices"
        );
    }
    (grids, res.iterations)
}

#[test]
fn spheres_coarsen_at_every_level() {
    let sys = pmg_bench::spheres_first_solve_of(&SpheresParams {
        n_surf: 6,
        ..SpheresParams::ladder(1)
    });
    let (_, iterations) = measure("spheres, 9.8k dof", &sys.mesh, &sys.matrix, &sys.rhs);
    // Measured 23 (21 on the five-level hierarchy this one replaced); the
    // bound leaves a tenth of headroom.
    assert!(iterations <= 26, "{iterations} iterations");
}

#[test]
fn thin_plate_coarsens_and_keeps_its_cover() {
    let mesh = thin_plate(20, 10.0, 0.3);
    let (matrix, rhs) = elastic(
        &mesh,
        |p| p.x == 0.0,
        |p| Vec3::new(0.0, 0.0, if p.z > 0.2 { -0.01 } else { 0.0 }),
    );
    // A cantilevered 33 : 1 plate of one trilinear element through the
    // thickness is a bending problem: measured 109 iterations, and
    // `measure` holds it to the solver's default cap of 200.
    let (grids, _) = measure("thin_plate(20, 10.0, 0.3)", &mesh, &matrix, &rhs);
    // §4.6: neither surface decimates the other, on any grid.
    for (lvl, g) in grids.iter().enumerate() {
        let top = g.coords.iter().filter(|p| p.z > 0.2).count();
        let bottom = g.coords.len() - top;
        assert!(
            top >= 4 && bottom >= 4,
            "level {lvl}: top {top}, bottom {bottom}"
        );
    }
}

#[test]
fn graded_bracket_iterations_stay_bounded_as_the_grading_steepens() {
    let mut counts = Vec::new();
    for ratio in [1.0, 2.0, 4.0, 8.0] {
        let mesh = graded_bracket(12, ratio);
        let (matrix, rhs) = elastic(
            &mesh,
            |p| p.z == 0.0,
            |p| Vec3::new(if p.z == 1.0 { 0.01 } else { 0.0 }, 0.0, 0.0),
        );
        let name = format!("graded_bracket(12, {ratio})");
        counts.push(measure(&name, &mesh, &matrix, &rhs).1);
    }
    println!("graded bracket, iterations at ratio 1 / 2 / 4 / 8: {counts:?}");
    // Measured 10 / 11 / 13 / 16: the MIS is topological, so the grids keep
    // their sizes and the grading costs iterations only. A quarter of
    // headroom at ratio 8.
    assert!(counts[3] <= 20, "{counts:?}");
}
