//! §3's two coarse-operator construction routes, compared: the Galerkin
//! product `R A Rᵀ` (the paper's choice) versus re-assembling a finite
//! element problem on the solver-generated coarse tet grid. Both must be
//! SPD, spectrally comparable, and both must work inside a two-grid
//! preconditioner.

use pmg_fem::{FemProblem, LinearElastic, Material};
use pmg_geometry::Vec3;
use pmg_mesh::generators::cube;
use pmg_mesh::{ElementKind, Mesh};
use pmg_parallel::{DistMatrix, DistVec, Layout, MachineModel, Sim};
use pmg_solver::{pcg, BlockJacobi, CoarseDirect, PcgOptions, Precond};
use pmg_sparse::CsrMatrix;
use prometheus::{classify_mesh, coarsen_level, mg::expand_restriction, CoarsenOptions};
use std::sync::Arc;

/// The rediscretized route: assemble a fresh single-material finite
/// element problem on a tetrahedral grid (as produced by the multigrid
/// coarsener; tets positive-volume oriented).
fn assemble_tet_operator(
    coords: &[Vec3],
    tets: &[[u32; 4]],
    material: Arc<dyn Material>,
) -> CsrMatrix {
    let flat: Vec<u32> = tets.iter().flatten().copied().collect();
    let mesh = Mesh::new(
        coords.to_vec(),
        ElementKind::Tet4,
        flat,
        vec![0; tets.len()],
    );
    let ndof = mesh.num_dof();
    FemProblem::new(mesh, vec![material])
        .assemble(&vec![0.0; ndof])
        .0
}

#[test]
fn tet_operator_annihilates_rigid_translation() {
    let coords = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ];
    let k = assemble_tet_operator(
        &coords,
        &[[0, 1, 2, 3]],
        Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
    );
    assert_eq!(k.nrows(), 12);
    assert!(k.is_symmetric(1e-12));
    let mut t = vec![0.0; 12];
    for a in 0..4 {
        t[3 * a + 1] = 1.0;
    }
    let mut kt = vec![0.0; 12];
    k.spmv(&t, &mut kt);
    assert!(kt.iter().all(|v| v.abs() < 1e-12), "{kt:?}");
}

#[test]
fn tet_grid_volume_consistency() {
    // Two tets filling a prism: stiffness scales linearly with E.
    let coords = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::new(1.0, 1.0, 1.0),
    ];
    // Orient each tet to positive volume; flip if needed.
    let v = |t: &[u32; 4]| {
        let p: Vec<Vec3> = t.iter().map(|&i| coords[i as usize]).collect();
        (p[1] - p[0]).cross(p[2] - p[0]).dot(p[3] - p[0])
    };
    let tets: Vec<[u32; 4]> = [[0u32, 1, 2, 3], [1, 2, 3, 4]]
        .iter()
        .map(|t| {
            if v(t) > 0.0 {
                *t
            } else {
                [t[1], t[0], t[2], t[3]]
            }
        })
        .collect();
    let k1 = assemble_tet_operator(&coords, &tets, Arc::new(LinearElastic::from_e_nu(1.0, 0.3)));
    let k2 = assemble_tet_operator(&coords, &tets, Arc::new(LinearElastic::from_e_nu(2.0, 0.3)));
    assert_eq!(k1.nnz(), k2.nnz());
    for (a, b) in k1.iter().zip(k2.iter()) {
        assert_eq!((a.0, a.1), (b.0, b.1));
        assert!((2.0 * a.2 - b.2).abs() < 1e-12);
    }
}

fn fine_system() -> (pmg_mesh::Mesh, CsrMatrix) {
    let mesh = cube(5);
    let ndof = mesh.num_dof();
    let mut fem = FemProblem::new(
        mesh.clone(),
        vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))],
    );
    let (k, _) = fem.assemble(&vec![0.0; ndof]);
    let mut fixed = Vec::new();
    for (v, p) in mesh.coords.iter().enumerate() {
        if p.z == 0.0 {
            for c in 0..3 {
                fixed.push((3 * v as u32 + c, 0.0));
            }
        }
    }
    let (kc, _) = pmg_fem::bc::constrain_system(&k, &vec![0.0; ndof], &fixed);
    (mesh, kc)
}

/// A two-grid preconditioner parameterized by the coarse operator.
struct TwoGrid {
    a: DistMatrix,
    smoother: BlockJacobi,
    r: DistMatrix,
    p: DistMatrix,
    coarse: CoarseDirect,
}

impl TwoGrid {
    fn new(afine: &CsrMatrix, r_dof: &CsrMatrix, acoarse: &CsrMatrix) -> (TwoGrid, Sim) {
        let sim = Sim::new(1, MachineModel::default());
        let lf = Layout::serial(afine.nrows());
        let lc = Layout::serial(acoarse.nrows());
        let a = DistMatrix::from_global(afine, lf.clone(), lf.clone());
        let smoother = BlockJacobi::new(&a, 12.0, 0.6);
        let r = DistMatrix::from_global(r_dof, lc.clone(), lf.clone());
        let p = DistMatrix::from_global(&r_dof.transpose(), lf, lc.clone());
        let ac = DistMatrix::from_global(acoarse, lc.clone(), lc);
        let coarse = CoarseDirect::new(&ac);
        (
            TwoGrid {
                a,
                smoother,
                r,
                p,
                coarse,
            },
            sim,
        )
    }
}

impl Precond for TwoGrid {
    fn apply(&self, sim: &mut Sim, rhs: &DistVec, z: &mut DistVec) {
        let mut x = DistVec::zeros(rhs.layout().clone());
        self.smoother.smooth(sim, &self.a, rhs, &mut x, 1);
        let mut res = DistVec::zeros(rhs.layout().clone());
        self.a.spmv(sim, &x, &mut res);
        res.aypx(sim, -1.0, rhs);
        let mut rc = DistVec::zeros(self.r.row_layout().clone());
        self.r.spmv(sim, &res, &mut rc);
        let mut xc = DistVec::zeros(rc.layout().clone());
        self.coarse.apply(sim, &rc, &mut xc);
        let mut corr = DistVec::zeros(rhs.layout().clone());
        self.p.spmv(sim, &xc, &mut corr);
        x.axpy(sim, 1.0, &corr);
        self.smoother.smooth(sim, &self.a, rhs, &mut x, 1);
        z.copy_from(&x);
    }
}

#[test]
fn galerkin_and_rediscretized_operators_agree_spectrally() {
    let (mesh, kc) = fine_system();
    let g = mesh.vertex_graph();
    let classes = classify_mesh(&mesh, 0.7);
    let lvl = coarsen_level(&mesh.coords, &g, &classes, &CoarsenOptions::default());
    let r_dof = expand_restriction(&lvl.restriction, 3);
    let galerkin = kc.rap(&r_dof);
    let redisc = assemble_tet_operator(
        &lvl.coords,
        &lvl.tets,
        Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
    );
    assert_eq!(galerkin.nrows(), redisc.nrows());
    assert!(galerkin.is_symmetric(1e-9));
    assert!(redisc.is_symmetric(1e-9));
    // Spectral comparability on random vectors: Rayleigh quotients within
    // a moderate factor (they discretize the same operator on the same
    // grid; the Galerkin one additionally carries the fine-grid BCs, so
    // only compare on vectors vanishing at constrained coarse vertices).
    let n = galerkin.nrows();
    let constrained: Vec<bool> = (0..n)
        .map(|d| {
            let v = d / 3;
            lvl.coords[v].z == 0.0
        })
        .collect();
    let mut ratios = Vec::new();
    for seed in 0..10u64 {
        let x: Vec<f64> = (0..n)
            .map(|i| {
                if constrained[i] {
                    0.0
                } else {
                    (((i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed * 0x9e37))
                        % 1000) as f64
                        / 500.0
                        - 1.0
                }
            })
            .collect();
        let mut ga = vec![0.0; n];
        galerkin.spmv(&x, &mut ga);
        let mut ra = vec![0.0; n];
        redisc.spmv(&x, &mut ra);
        let qg: f64 = ga.iter().zip(&x).map(|(a, b)| a * b).sum();
        let qr: f64 = ra.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!(qg > 0.0 && qr > 0.0, "lost definiteness: {qg} {qr}");
        ratios.push(qg / qr);
    }
    for r in &ratios {
        assert!(
            (0.05..20.0).contains(r),
            "operators not spectrally comparable: ratios {ratios:?}"
        );
    }
}

#[test]
fn both_coarse_operators_precondition_two_grid() {
    let (mesh, kc) = fine_system();
    let g = mesh.vertex_graph();
    let classes = classify_mesh(&mesh, 0.7);
    let lvl = coarsen_level(&mesh.coords, &g, &classes, &CoarsenOptions::default());
    let r_dof = expand_restriction(&lvl.restriction, 3);
    let galerkin = kc.rap(&r_dof);
    // Rediscretized operator needs a diagonal shift where the fine BCs
    // would act (its own grid has no BCs, so it is singular): regularize
    // with a small multiple of its diagonal-average on constrained coarse
    // vertices.
    let mut redisc = assemble_tet_operator(
        &lvl.coords,
        &lvl.tets,
        Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
    );
    {
        let davg = redisc.diag().iter().sum::<f64>() / redisc.nrows() as f64;
        let nloc = redisc.nrows();
        for d in 0..nloc {
            let v = d / 3;
            if lvl.coords[v].z == 0.0 {
                redisc.add_to(d, d, davg);
            }
        }
    }

    let n = kc.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).sin()).collect();
    let mut iters = Vec::new();
    for ac in [&galerkin, &redisc] {
        let (tg, mut sim) = TwoGrid::new(&kc, &r_dof, ac);
        let layout = tg.a.row_layout().clone();
        let db = DistVec::from_global(layout.clone(), &b);
        let mut x = DistVec::zeros(layout);
        let res = pcg(
            &mut sim,
            &tg.a,
            &tg,
            &db,
            &mut x,
            PcgOptions {
                rtol: 1e-8,
                max_iters: 300,
                ..Default::default()
            },
        );
        assert!(res.converged);
        iters.push(res.iterations);
    }
    // Galerkin carries the fine BCs exactly and is at least as good; the
    // rediscretized operator must stay in the same ballpark (the paper's
    // point: both are viable, Galerkin is more robust and more modular).
    assert!(iters[1] <= 6 * iters[0].max(4), "{iters:?}");
}
