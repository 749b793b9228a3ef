//! Solver robustness across the regimes the paper highlights: large
//! material jumps, near-incompressibility, and thin bodies.

use pmg_fem::{FemProblem, LinearElastic, NeoHookean};
use pmg_geometry::Vec3;
use pmg_mesh::generators::block;
use prometheus::{CycleType, MgOptions, Prometheus, PrometheusOptions};
use std::sync::Arc;

fn constrained_system(
    mesh: &pmg_mesh::Mesh,
    materials: Vec<Arc<dyn pmg_fem::Material>>,
) -> (pmg_sparse::CsrMatrix, Vec<f64>) {
    let ndof = mesh.num_dof();
    let mut fem = FemProblem::new(mesh.clone(), materials);
    let (k, _) = fem.assemble(&vec![0.0; ndof]);
    let mut fixed = Vec::new();
    let mut f = vec![0.0; ndof];
    for (v, p) in mesh.coords.iter().enumerate() {
        if p.z == 0.0 {
            for c in 0..3 {
                fixed.push((3 * v as u32 + c, 0.0));
            }
        }
        if p.z == 1.0 {
            f[3 * v + 2] = -0.001;
        }
    }
    let (kc, rhs) = pmg_fem::bc::constrain_system(&k, &f, &fixed);
    (kc, rhs.iter().map(|v| -v).collect())
}

fn solve_iters(
    mesh: &pmg_mesh::Mesh,
    k: &pmg_sparse::CsrMatrix,
    b: &[f64],
    cycle: CycleType,
) -> usize {
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 300,
            cycle,
            ..Default::default()
        },
        max_iters: 300,
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(mesh, k, opts);
    let (_, res) = solver.solve(b, None, 1e-8);
    assert!(res.converged, "cycle {cycle:?} did not converge");
    res.iterations
}

#[test]
fn material_jump_1e4_stays_bounded() {
    // Alternating stiff/soft slabs (two elements through each slab, like
    // the paper's resolved shells): the Galerkin coarse operators see the
    // jump; MG-PCG must stay in a few dozen iterations.
    let mesh = block(6, 6, 6, Vec3::splat(1.0), |c| {
        if ((c.z * 3.0) as usize).is_multiple_of(2) {
            0
        } else {
            1
        }
    });
    let mats: Vec<Arc<dyn pmg_fem::Material>> = vec![
        Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
        Arc::new(LinearElastic::from_e_nu(1e-4, 0.3)),
    ];
    let (k, b) = constrained_system(&mesh, mats);
    let iters = solve_iters(&mesh, &k, &b, CycleType::Fmg);
    assert!(
        iters <= 60,
        "material jump blew up the iteration count: {iters}"
    );
}

#[test]
fn one_element_thick_jump_slabs_still_converge() {
    // The degenerate variant: slabs one element thick, so no coarse grid
    // can resolve the layering. Convergence degrades (the coarse space
    // cannot represent per-slab kinematics) but must not stall.
    let mesh = block(6, 6, 6, Vec3::splat(1.0), |c| {
        if ((c.z * 6.0) as usize).is_multiple_of(2) {
            0
        } else {
            1
        }
    });
    let mats: Vec<Arc<dyn pmg_fem::Material>> = vec![
        Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
        Arc::new(LinearElastic::from_e_nu(1e-4, 0.3)),
    ];
    let (k, b) = constrained_system(&mesh, mats);
    let iters = solve_iters(&mesh, &k, &b, CycleType::Fmg);
    assert!(iters <= 250, "unresolvable layering stalled: {iters}");
}

#[test]
fn near_incompressible_converges() {
    let mesh = block(5, 5, 5, Vec3::splat(1.0), |_| 0);
    let mats: Vec<Arc<dyn pmg_fem::Material>> = vec![Arc::new(NeoHookean::from_e_nu(1e-4, 0.49))];
    let (k, b) = constrained_system(&mesh, mats);
    let iters = solve_iters(&mesh, &k, &b, CycleType::Fmg);
    assert!(iters <= 120, "nu=0.49 iteration count: {iters}");
}

#[test]
fn v_w_and_fmg_cycles_all_work() {
    let mesh = block(6, 6, 6, Vec3::splat(1.0), |_| 0);
    let mats: Vec<Arc<dyn pmg_fem::Material>> = vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))];
    let (k, b) = constrained_system(&mesh, mats);
    let v = solve_iters(&mesh, &k, &b, CycleType::V);
    let w = solve_iters(&mesh, &k, &b, CycleType::W);
    let f = solve_iters(&mesh, &k, &b, CycleType::Fmg);
    assert!(v <= 60 && w <= 60 && f <= 60, "V: {v}, W: {w}, FMG: {f}");
    // The W-cycle is at least as strong per application as the V-cycle.
    assert!(w <= v + 2, "W {w} should not trail V {v}");
}

#[test]
fn one_level_baseline_is_worse_than_mg() {
    use pmg_parallel::{DistMatrix, DistVec, Layout, MachineModel, Sim};
    use pmg_solver::{pcg, BlockJacobi, PcgOptions};

    let mesh = block(7, 7, 7, Vec3::splat(1.0), |_| 0);
    let mats: Vec<Arc<dyn pmg_fem::Material>> = vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))];
    let (k, b) = constrained_system(&mesh, mats);
    let mg_iters = solve_iters(&mesh, &k, &b, CycleType::Fmg);

    let layout = Layout::block(k.nrows(), 2);
    let mut sim = Sim::new(2, MachineModel::default());
    let da = DistMatrix::from_global(&k, layout.clone(), layout.clone());
    let bj = BlockJacobi::new(&da, 6.0, 1.0);
    let db = DistVec::from_global(layout.clone(), &b);
    let mut x = DistVec::zeros(layout);
    let res = pcg(
        &mut sim,
        &da,
        &bj,
        &db,
        &mut x,
        PcgOptions {
            rtol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        },
    );
    assert!(
        res.iterations > 2 * mg_iters,
        "one-level {} vs MG {}",
        res.iterations,
        mg_iters
    );
}
