//! Operators CG is not defined for, handed to the solver as a caller
//! could: indefinite, unsymmetric, exactly singular and NaN-valued. None
//! may panic. Every set-up builds, and every solve stops as a typed
//! `breakdown` with `x` untouched, at the same iteration on the simulator
//! and on rank threads — whether the operator is the one-level hierarchy's
//! coarse grid, factored directly, or the fine grid of a deeper one.
//!
//! What breaks down is an operator that is not numerically positive
//! definite: a Cholesky pivot that rounds to zero or below, a non-finite
//! entry, or an unsymmetric coarse grid. The singular case meets that only
//! because one of its pivots rounds to zero or below. A positive
//! semidefinite operator whose last pivot rounds to a tiny positive value
//! still factors, and its solves are finite and huge; no test here covers
//! it.

use pmg_mesh::Mesh;
use pmg_parallel::Layout;
use pmg_solver::{PcgOptions, PcgResult};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

const NRANKS: usize = 2;
const RTOL: f64 = 1e-8;

/// The four operators on `mesh`'s vertex graph, each one edit away from
/// the SPD graph Laplacian `diag(degree + 1) − adjacency`.
fn hostile_operators(mesh: &Mesh) -> Vec<(&'static str, CsrMatrix)> {
    let g = mesh.vertex_graph();
    let nv = mesh.num_vertices();
    let mid = nv / 2;
    let neighbour = g.neighbors(mid)[0] as usize;
    // `diag(degree + shift) − adjacency`, plus `extra` (duplicates sum).
    let laplacian = |shift: f64, extra: &[(usize, usize, f64)]| {
        let mut b = CooBuilder::new(nv, nv);
        for v in 0..nv {
            b.push(v, v, g.degree(v) as f64 + shift);
            for &w in g.neighbors(v) {
                b.push(v, w as usize, -1.0);
            }
        }
        extra.iter().for_each(|&(i, j, v)| b.push(i, j, v));
        b.build()
    };
    vec![
        ("indefinite", laplacian(-2.0, &[])),
        // One coupling −1 → −0.5.
        ("unsymmetric", laplacian(1.0, &[(mid, neighbour, 0.5)])),
        // Pure Neumann: the constants are its null space.
        ("singular", laplacian(0.0, &[])),
        ("NaN", laplacian(1.0, &[(mid, mid, f64::NAN)])),
    ]
}

fn assert_breakdown(res: &PcgResult, x: &[f64], what: &str) {
    assert!(res.breakdown && !res.converged, "{what}: {res:?}");
    assert!(x.iter().all(|&v| v == 0.0), "{what}: x was touched");
}

#[test]
fn hostile_operators_end_in_a_breakdown_on_both_runtimes() {
    let mesh = pmg_mesh::generators::cube(4);
    let nv = mesh.num_vertices();
    let b: Vec<f64> = (0..nv).map(|i| 1.0 + (i as f64 * 0.23).sin()).collect();
    for (op, a) in hostile_operators(&mesh) {
        // The operator as the coarse grid itself, and under a hierarchy.
        for coarse_dof_threshold in [nv, 16] {
            let opts = PrometheusOptions {
                nranks: NRANKS,
                mg: MgOptions {
                    dofs_per_vertex: 1,
                    coarse_dof_threshold,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut solver = Prometheus::from_mesh(&mesh, &a, opts);
            let levels = solver.mg.num_levels();
            let what = format!("{op}, {levels} levels");
            assert_eq!(levels == 1, coarse_dof_threshold == nv, "{what}");
            let (x, sim) = solver.solve(&b, None, RTOL);
            assert_breakdown(&sim, &x, &format!("{what}, simulator"));

            // The same problem laid out as `from_mesh` lays it out, on
            // rank threads.
            let classes = prometheus::classify_mesh_parallel(&mesh, opts.face_tol, NRANKS);
            let graph = mesh.vertex_graph();
            let plan =
                prometheus::plan_ingest(&mesh.coords, &graph, &classes, &[], NRANKS, &opts.mg);
            let layout = Layout::from_part(plan.part().to_vec(), NRANKS);
            let setups =
                prometheus::build_threads(&plan, |r| a.extract_rows(layout.owned(r)), opts.mg)
                    .unwrap();
            assert_eq!(setups[0].num_levels(), levels, "{what}");
            let pcg = PcgOptions {
                rtol: RTOL,
                max_iters: opts.max_iters,
                ..Default::default()
            };
            let out = prometheus::solve_threads(&setups, &b, pcg).unwrap();
            assert_breakdown(&out.result, &out.x, &format!("{what}, threads"));
            assert_eq!(out.result.iterations, sim.iterations, "{what}");
        }
    }
}
