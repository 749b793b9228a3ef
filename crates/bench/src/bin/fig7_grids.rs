//! Figure 7: "Fine (input) grid and coarse grids for problem in 3D
//! elasticity" — the grid hierarchy the coarsener builds, with per-level
//! statistics and an OBJ export of each coarse tetrahedral mesh for visual
//! inspection.
//!
//! Usage: `fig7_grids [k]` (ladder point, default 1; writes
//! `target/fig7_level<i>.obj`).

use pmg_bench::{hierarchy_shape, spheres_first_solve};
use prometheus::{classify_mesh_levels, CoarsenOptions, Prometheus, PrometheusOptions};

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let sys = spheres_first_solve(k);
    let mesh = &sys.mesh;
    println!(
        "# Figure 7 reproduction: grid hierarchy of the {} dof spheres problem",
        mesh.num_dof()
    );
    let levels = classify_mesh_levels(mesh, &CoarsenOptions::default(), 6);
    println!(
        "{:>5} {:>10} {:>10} {:>7} | {:>9} {:>9} {:>7} {:>7}",
        "level", "vertices", "elements", "lost", "interior", "surface", "edge", "corner"
    );
    for (i, info) in levels.iter().enumerate() {
        println!(
            "{:>5} {:>10} {:>10} {:>7} | {:>9} {:>9} {:>7} {:>7}",
            i,
            info.vertices,
            info.elements,
            if i == 0 {
                "-".to_string()
            } else {
                info.lost.to_string()
            },
            info.interior,
            info.surface,
            info.edge,
            info.corner
        );
        if i > 0 {
            if let Some(obj) = &info.obj {
                let path = format!("target/fig7_level{i}.obj");
                if std::fs::write(&path, obj).is_ok() {
                    println!("      wrote {path}");
                }
            }
        }
    }
    // What the solver builds of that ladder (it stops at 600 dof), and
    // what the first solve costs on it.
    let mut solver = Prometheus::from_mesh(mesh, &sys.matrix, PrometheusOptions::default());
    let (_, res) = solver.solve(&sys.rhs, None, 1e-4);
    print!("{}", hierarchy_shape("solver hierarchy", &solver));
    println!("    first solve (rtol 1e-4): {} iterations", res.iterations);
    println!("\n(paper's Figure 7 shows the fine hex grid and three automatically");
    println!(" generated tetrahedral coarse grids; load the OBJ files in any viewer)");
}
