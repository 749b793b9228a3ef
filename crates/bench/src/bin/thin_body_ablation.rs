//! §4.6 ablation: the modified MIS graph on a thin body.
//!
//! The paper's Figure 4-6 story: on a thin region the plain MIS lets one
//! surface decimate the other, destroying the coarse grid's cover of the
//! fine vertices and hurting convergence. The modified graph removes
//! edges between exterior vertices that share no face, so both surfaces
//! keep vertices. We coarsen a thin plate both ways and solve a thin-plate
//! elasticity problem with each hierarchy.
//!
//! Usage: `thin_body_ablation [n]` (plate is n x n x 1 elements, default 14).

use pmg_bench::hierarchy_shape;
use pmg_fem::bc::constrain_system;
use pmg_fem::{FemProblem, LinearElastic};
use pmg_mesh::generators::thin_plate;
use prometheus::{
    classify_mesh, coarsen_level, CoarsenOptions, MgOptions, Prometheus, PrometheusOptions,
};
use std::sync::Arc;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let mesh = thin_plate(n, n as f64, 0.35);
    println!(
        "# §4.6 thin-body ablation: {}x{}x1 plate, {} vertices",
        n,
        n,
        mesh.num_vertices()
    );

    // Coarse-grid cover comparison.
    let g = mesh.vertex_graph();
    let classes = classify_mesh(&mesh, 0.7);
    for (label, modify) in [
        ("modified graph (paper §4.6)", true),
        ("unmodified graph", false),
    ] {
        let opts = CoarsenOptions {
            modify_graph: modify,
            ..Default::default()
        };
        let lvl = coarsen_level(&mesh.coords, &g, &classes, &opts);
        let top = lvl.coords.iter().filter(|p| p.z > 0.2).count();
        let bottom = lvl.coords.iter().filter(|p| p.z <= 0.2).count();
        println!(
            "  {label}: {} coarse vertices (top surface {}, bottom {}), {} lost fine vertices",
            lvl.selected.len(),
            top,
            bottom,
            lvl.lost_vertices
        );
    }

    // Solver comparison on a clamped plate under surface load.
    let ndof = mesh.num_dof();
    let mut fem = FemProblem::new(
        mesh.clone(),
        vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))],
    );
    let (k, _) = fem.assemble(&vec![0.0; ndof]);
    let mut fixed = Vec::new();
    let mut f = vec![0.0; ndof];
    for (v, p) in mesh.coords.iter().enumerate() {
        if p.x == 0.0 {
            for c in 0..3 {
                fixed.push((3 * v as u32 + c, 0.0));
            }
        }
        if p.z > 0.2 {
            f[3 * v + 2] = -0.01; // press the top surface
        }
    }
    let (kc, rhs) = constrain_system(&k, &f, &fixed);
    let b: Vec<f64> = rhs.iter().map(|v| -v).collect();

    println!("\n  solver comparison (FMG-PCG, rtol 1e-8):");
    for (label, modify) in [("modified", true), ("unmodified", false)] {
        let opts = PrometheusOptions {
            nranks: 2,
            mg: MgOptions {
                coarse_dof_threshold: 300,
                coarsen: CoarsenOptions {
                    modify_graph: modify,
                    ..Default::default()
                },
                ..Default::default()
            },
            max_iters: 400,
            ..Default::default()
        };
        let mut solver = Prometheus::from_mesh(&mesh, &kc, opts);
        let (_, res) = solver.solve(&b, None, 1e-8);
        let title = format!(
            "{label} graph: {} iterations (converged: {})",
            res.iterations, res.converged
        );
        print!("{}", hierarchy_shape(&title, &solver));
    }
    println!("\n(the unmodified variant loses one plate surface on the coarse grids; the");
    println!(" paper's fix keeps both and with it the multigrid convergence rate)");
}
