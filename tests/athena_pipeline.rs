//! Figure 8 of the paper, end to end on the route production takes: flat
//! input file → read → partition (RCB standing in for ParMetis) → per-rank
//! shards with a one-element ghost layer, shipped as bytes → per-rank
//! assembly of owned rows → Prometheus multigrid solve. The distributed
//! pipeline must reproduce the serial system bit for bit and solve it.

use pmg_fem::{table1_materials, RankAssembly};
use pmg_mesh::{read_flat, shard_mesh, sphere_in_cube, write_flat, MeshShard, SpheresParams};
use pmg_partition::recursive_coordinate_bisection;
use pmg_sparse::CooBuilder;
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

#[test]
fn flat_file_to_solution() {
    let nranks = 4;
    let params = SpheresParams::tiny();
    let mesh = sphere_in_cube(&params);

    // 1. Write the flat input file and read it back.
    let path = std::env::temp_dir().join(format!("pmg_athena_{}.mesh", std::process::id()));
    write_flat(&mesh, &path).unwrap();
    let mesh_read = read_flat(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(mesh_read.coords, mesh.coords);
    assert_eq!(mesh_read.elem_verts, mesh.elem_verts);

    // 2. Partition and carve the per-rank shards; each crosses the wire
    //    as bytes before its rank assembles the owned rows of the tangent
    //    at zero displacement.
    let ndof = mesh_read.num_dof();
    let part = recursive_coordinate_bisection(&mesh_read.coords, nranks);
    let mut gathered = CooBuilder::new(ndof, ndof);
    let mut r = vec![0.0; ndof];
    for shard in shard_mesh(&mesh_read, &part, nranks) {
        let shard = MeshShard::decode(&shard.encode()).unwrap();
        let mut rank = RankAssembly::from_shard(&shard, &table1_materials());
        let u_local = vec![0.0; rank.num_local_dof()];
        let (k_owned, r_owned) = rank.assemble_owned_local(&u_local, ndof);
        for (li, &gi) in rank.owned_rows().iter().enumerate() {
            let (cols, vals) = k_owned.row(li);
            for (&j, &v) in cols.iter().zip(vals) {
                gathered.push(gi as usize, j, v);
            }
            r[gi as usize] = r_owned[li];
        }
    }
    let k = gathered.build();

    // 3. The gathered system is the serial one, bit for bit.
    let mut problem = pmg_fem::spheres_problem(&params);
    let bcs = problem.bcs_for_step(1, 10);
    let fixed: Vec<(u32, f64)> = bcs.iter().map(|b| (b.dof, b.value)).collect();
    let (kc, rhs) = pmg_fem::bc::constrain_system(&k, &r, &fixed);
    let (k_serial, r_serial) = problem.fem.assemble(&vec![0.0; ndof]);
    let (kc_serial, rhs_serial) = pmg_fem::bc::constrain_system(&k_serial, &r_serial, &fixed);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for i in 0..ndof {
        let (c1, v1) = kc.row(i);
        let (c2, v2) = kc_serial.row(i);
        assert_eq!(c1, c2, "row {i} pattern");
        assert_eq!(bits(v1), bits(v2), "row {i} values");
    }
    assert_eq!(bits(&rhs), bits(&rhs_serial));

    // 4. Solve with the automatic multigrid; the answer satisfies the
    //    serial system.
    let opts = PrometheusOptions {
        nranks,
        mg: MgOptions {
            coarse_dof_threshold: 400,
            ..Default::default()
        },
        max_iters: 300,
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(&mesh_read, &kc, opts);
    let (x, res) = solver.solve(&rhs, None, 1e-6);
    assert!(res.converged, "{res:?}");
    let mut ax = vec![0.0; ndof];
    kc_serial.spmv(&x, &mut ax);
    let err: f64 = ax
        .iter()
        .zip(&rhs_serial)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = rhs_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(err < 2e-6 * bn, "residual {err:.3e} vs {bn:.3e}");
}

/// The owned rows of `k_local` (the first `3 * num_owned` local rows) in
/// global columns, built the way the rank assembly once did: every entry
/// pushed through a `CooBuilder` and sorted. The bitwise reference for the
/// row merge.
fn coo_owned_rows(
    k_local: &pmg_sparse::CsrMatrix,
    global_vertices: &[u32],
    num_owned: usize,
    ndof: usize,
) -> pmg_sparse::CsrMatrix {
    let mut b = CooBuilder::new(3 * num_owned, ndof);
    for li in 0..3 * num_owned {
        let (cols, vals) = k_local.row(li);
        for (&lj, &v) in cols.iter().zip(vals) {
            b.push(li, 3 * global_vertices[lj / 3] as usize + lj % 3, v);
        }
    }
    b.build()
}

#[test]
fn owned_rows_equal_coo_reference() {
    let mesh = sphere_in_cube(&SpheresParams::tiny());
    let ndof = mesh.num_dof();
    let u: Vec<f64> = mesh
        .coords
        .iter()
        .flat_map(|p| [2e-3 * p.y, -1e-3 * p.x, -4e-3 * p.z])
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for nranks in [1usize, 2, 3, 5] {
        let part = recursive_coordinate_bisection(&mesh.coords, nranks);
        for shard in shard_mesh(&mesh, &part, nranks) {
            let u_local: Vec<f64> = (shard.global_vertices.iter())
                .flat_map(|&g| &u[3 * g as usize..3 * g as usize + 3])
                .copied()
                .collect();
            let mats = table1_materials();
            let (k_local, _) =
                pmg_fem::FemProblem::new(shard.mesh.clone(), mats.clone()).assemble(&u_local);
            let want = coo_owned_rows(&k_local, &shard.global_vertices, shard.num_owned(), ndof);
            let (got, _) =
                RankAssembly::from_shard(&shard, &mats).assemble_owned_local(&u_local, ndof);
            let at = format!("rank {} of {nranks}", shard.rank);
            assert_eq!(got.row_ptr(), want.row_ptr(), "{at}: row pointers");
            assert_eq!(got.col_idx(), want.col_idx(), "{at}: columns");
            assert_eq!(bits(got.vals()), bits(want.vals()), "{at}: value bits");
        }
    }
}

/// The paper's redundant work: ghost-layer elements are evaluated on every
/// rank that owns one of their vertices. Summed shard element counts over
/// the global element count grow with the rank count but stay bounded.
#[test]
fn athena_redundancy_grows_with_ranks_but_stays_bounded() {
    let mesh = sphere_in_cube(&SpheresParams::tiny());
    let mut prev = 1.0;
    for nranks in [1usize, 2, 4, 8, 16] {
        let part = recursive_coordinate_bisection(&mesh.coords, nranks);
        let shards = shard_mesh(&mesh, &part, nranks);
        let evaluated: usize = shards.iter().map(|s| s.mesh.num_elements()).sum();
        let rf = evaluated as f64 / shards[0].num_global_elements as f64;
        if nranks == 1 {
            assert_eq!(rf, 1.0);
        }
        assert!(rf >= prev, "redundancy should not shrink: {prev} -> {rf}");
        assert!(rf < 2.5, "redundancy exploded at P={nranks}: {rf}");
        prev = rf;
    }
}
