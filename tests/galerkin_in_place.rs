//! A Newton update writes every coarse level's operator in place: each
//! level's planned Galerkin product reads the level's shares and writes the
//! next level's, at any rank count and in any storage. What it leaves must
//! be, bit for bit, what the CSR route leaves — the product as a global CSR
//! (`RapPlan::execute` of a fresh plan), distributed from scratch — in the
//! shares (field for field: tiles, masks, the scalar ghost block `off`, its
//! ghost list and row classes), in each rank's local block read as scalar
//! rows, and in the refactored smoother's application.

use pmg_bench::spheres_first_solve;
use pmg_fem::bc::constrain_system;
use pmg_parallel::{DistMatrix, DistVec, MachineModel, Sim};
use pmg_solver::{BlockJacobi, Precond};
use pmg_sparse::{CsrMatrix, RapPlan};
use prometheus::mg::Smoother;
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `D A D` for a positive diagonal `D` that varies from dof to dof (same
/// pattern, values changed non-uniformly, still SPD), with the stored pair
/// `(i, j)`, `(j, i)` set to `-0.0`; as a caller's fresh assembly, with no
/// fingerprint.
fn new_values(a: &CsrMatrix, (i, j): (usize, usize)) -> CsrMatrix {
    let d = |i: usize| 1.0 + 0.3 * (i as f64 * 0.7).sin();
    let mut vals = Vec::with_capacity(a.nnz());
    for r in 0..a.nrows() {
        let (cols, vs) = a.row(r);
        for (&c, &v) in cols.iter().zip(vs) {
            let zero = (r, c) == (i, j) || (r, c) == (j, i);
            vals.push(if zero { -0.0 } else { d(r) * v * d(c) });
        }
    }
    CsrMatrix::from_parts(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        vals,
    )
}

/// The first stored off-vertex coupling `(i, j)`, `i < j`, of two dofs
/// that are not Dirichlet rows.
fn coupling(a: &CsrMatrix) -> (usize, usize) {
    let free = |i: usize| a.row(i).0.len() > 1;
    (0..a.nrows())
        .filter(|&i| free(i))
        .find_map(|i| {
            let j = a
                .row(i)
                .0
                .iter()
                .copied()
                .find(|&j| j / 3 > i / 3 && free(j))?;
            Some((i, j))
        })
        .expect("a coupled pair")
}

/// Level by level down the CSR route from `fine`: every level of the
/// updated hierarchy is bitwise the fresh distribution of that level's
/// Galerkin operator, and its smoother the fresh one's.
fn assert_levels_are_the_csr_route(solver: &Prometheus, fine: &CsrMatrix) {
    let opts = solver.mg.opts;
    let nranks = solver.sim.num_ranks();
    let mut sim = Sim::new(nranks, MachineModel::default());
    let mut cur = fine.clone();
    for (lvl, level) in solver.mg.levels.iter().enumerate() {
        let layout = level.a.row_layout().clone();
        let cold = match level.a.bsr3_routed() {
            true => DistMatrix::from_global_blocked(&cur, layout.clone(), layout.clone()),
            false => DistMatrix::from_global(&cur, layout.clone(), layout.clone()),
        };
        let what = format!("{nranks} ranks, level {lvl}");
        assert_eq!(format!("{:?}", level.a), format!("{cold:?}"), "{what}");
        for r in 0..nranks {
            let (kept, fresh) = (
                level.a.local_block(r).to_csr(),
                cold.local_block(r).to_csr(),
            );
            assert_eq!(kept.row_ptr(), fresh.row_ptr(), "{what}, rank {r}");
            assert_eq!(kept.col_idx(), fresh.col_idx(), "{what}, rank {r}");
            assert_eq!(bits(kept.vals()), bits(fresh.vals()), "{what}, rank {r}");
        }
        let global = level.a.to_global();
        assert_eq!(global.col_idx(), cur.col_idx(), "{what}");
        assert_eq!(bits(global.vals()), bits(cur.vals()), "{what}");

        let Smoother::BlockJacobi(kept) = &level.smoother else {
            panic!("the default smoother is block Jacobi");
        };
        let fresh = BlockJacobi::new(&cold, opts.blocks_per_1000, opts.omega);
        let rg: Vec<f64> = (0..cur.nrows()).map(|i| (i as f64 * 0.37).cos()).collect();
        let r = DistVec::from_global(layout.clone(), &rg);
        let (mut z_kept, mut z_fresh) = (DistVec::zeros(layout.clone()), DistVec::zeros(layout));
        kept.apply(&mut sim, &r, &mut z_kept);
        fresh.apply(&mut sim, &r, &mut z_fresh);
        assert_eq!(
            bits(&z_kept.to_global()),
            bits(&z_fresh.to_global()),
            "{what}"
        );

        match &level.r_global {
            Some(r) => cur = RapPlan::new(&cur, r).execute(&cur),
            None => break,
        }
    }
}

fn options(nranks: usize) -> PrometheusOptions {
    PrometheusOptions {
        nranks,
        mg: MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn in_place_updates_are_the_csr_route_at_one_two_and_three_ranks() {
    // The tiny spheres with their Dirichlet rows plus one more dof fixed
    // on every 17th vertex: level 0 has partial Dirichlet tiles.
    let mut sys = spheres_first_solve(0);
    let ndof = sys.mesh.num_dof();
    let (k, r) = sys.problem.fem.assemble(&vec![0.0; ndof]);
    let mut fixed: Vec<(u32, f64)> = (sys.problem.bcs_for_step(1, 10).iter())
        .map(|b| (b.dof, b.value))
        .collect();
    let extra = (0..ndof as u32 / 3).step_by(17).map(|v| (3 * v + 1, 0.0));
    fixed.extend(
        extra
            .filter(|(d, _)| fixed.iter().all(|(f, _)| f != d))
            .collect::<Vec<_>>(),
    );
    let (a0, _) = constrain_system(&k, &r, &fixed);
    let partial = (0..ndof / 3).any(|v| {
        let dirichlet = (0..3).filter(|&c| a0.row(3 * v + c).0.len() == 1).count();
        (1..3).contains(&dirichlet)
    });
    assert!(partial, "no vertex has a partial Dirichlet tile");
    let a1 = new_values(&a0, coupling(&a0));

    for nranks in [1, 2, 3] {
        let mut solver = Prometheus::from_mesh(&sys.mesh, &a0, options(nranks));
        assert!(solver.mg.num_levels() >= 3, "need a real hierarchy");
        for a in [&a1, &a0, &a1] {
            solver.update_matrix(a);
        }
        assert_levels_are_the_csr_route(&solver, &a1);
    }
}

#[test]
fn a_matrix_free_fine_level_is_read_through_its_scalar_share() {
    // The matrix-free hierarchy keeps level 0 as an unpromoted scalar
    // share: the product reads it through a transient tile array.
    let sys = spheres_first_solve(0);
    let a1 = new_values(&sys.matrix, coupling(&sys.matrix));
    let op = Box::new(sys.matrix_free());
    let mut solver = Prometheus::from_mesh_matrix_free(&sys.mesh, &sys.matrix, options(1), op);
    assert!(!solver.mg.levels[0].a.bsr3_routed());
    solver.update_matrix(&a1);
    assert_levels_are_the_csr_route(&solver, &a1);
}
