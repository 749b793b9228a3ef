//! The integration story the paper leads with: "scalable algorithms ...
//! that can be easily integrated with existing finite element codes (ie,
//! requiring only data that is easily available in most finite element
//! applications)". This example plays the existing FE code: it writes a
//! mesh to the flat input file, then the solver side reads it back,
//! assembles, solves on 4 virtual ranks, and exports VTK.
//!
//! Run with: `cargo run --release --example external_mesh`

use prometheus_repro::fem::{bc::constrain_system, FemProblem, LinearElastic};
use prometheus_repro::mesh::generators::l_bracket;
use prometheus_repro::mesh::{read_flat, to_vtk, write_flat};
use prometheus_repro::solver::{MgOptions, Prometheus, PrometheusOptions};
use std::sync::Arc;

fn main() {
    // --- The "application" side: some FE code produces a mesh file. ---
    let mesh_out = l_bracket(10);
    let path = std::env::temp_dir().join("external_bracket.mesh");
    write_flat(&mesh_out, &path).expect("write mesh file");
    println!(
        "application wrote {} ({} vertices, {} hexes)",
        path.display(),
        mesh_out.num_vertices(),
        mesh_out.num_elements()
    );

    // --- The solver side: read, assemble, solve. ---
    let mesh = read_flat(&path).expect("read mesh file");
    std::fs::remove_file(&path).ok();

    let ndof = mesh.num_dof();
    let mut fem = FemProblem::new(
        mesh.clone(),
        vec![Arc::new(LinearElastic::from_e_nu(70.0, 0.33))],
    );
    let (k, _) = fem.assemble(&vec![0.0; ndof]);
    let mut fixed = Vec::new();
    let mut f = vec![0.0; ndof];
    for (v, p) in mesh.coords.iter().enumerate() {
        if p.z == 0.0 {
            for c in 0..3 {
                fixed.push((3 * v as u32 + c, 0.0));
            }
        }
        if (p.z - 1.0).abs() < 1e-12 {
            f[3 * v] = 0.05; // shear the standing leg's top
        }
    }
    let (kc, rhs) = constrain_system(&k, &f, &fixed);
    let b: Vec<f64> = rhs.iter().map(|v| -v).collect();

    let opts = PrometheusOptions {
        nranks: 4,
        mg: MgOptions {
            coarse_dof_threshold: 400,
            ..Default::default()
        },
        max_iters: 300,
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(&mesh, &kc, opts);
    println!("hierarchy: {:?}", solver.level_sizes());
    let (x, res) = solver.solve(&b, None, 1e-8);
    println!(
        "solved in {} iterations (converged: {})",
        res.iterations, res.converged
    );

    let vtk_path = "target/external_bracket.vtk";
    std::fs::create_dir_all("target").ok();
    std::fs::write(vtk_path, to_vtk(&mesh, Some(("displacement", &x)))).expect("write vtk");
    println!("wrote {vtk_path} (open in ParaView, warp by displacement)");
}
