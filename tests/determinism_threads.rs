//! Cross-thread-count determinism: the whole setup+solve pipeline must
//! produce **bitwise identical** solutions and residual histories for any
//! pool size. This is the contract the thread pool layer guarantees (task
//! decomposition is a function of input length only; reductions use a
//! fixed-shape pairwise tree; MIS rounds are bulk-synchronous with a
//! conflict-free merge) — this test enforces it end to end on the paper's
//! tiny spheres problem with dedicated pools of 1, 2, and 4 threads.

use prometheus::{MgOptions, Prometheus, PrometheusOptions};

/// Local duplicate of the bench harness setup (tests are independent of
/// the bench crate).
mod tiny {
    use pmg_fem::bc::constrain_system;
    use pmg_mesh::{Mesh, SpheresParams};
    use pmg_sparse::CsrMatrix;

    pub struct System {
        pub mesh: Mesh,
        pub matrix: CsrMatrix,
        pub rhs: Vec<f64>,
    }

    pub fn build() -> System {
        let params = SpheresParams::tiny();
        let mut problem = pmg_fem::spheres_problem(&params);
        let mesh = problem.fem.mesh.clone();
        let ndof = mesh.num_dof();
        let (k, r) = problem.fem.assemble(&vec![0.0; ndof]);
        let bcs = problem.bcs_for_step(1, 10);
        let fixed: Vec<(u32, f64)> = bcs.iter().map(|b| (b.dof, b.value)).collect();
        let (matrix, rhs) = constrain_system(&k, &r, &fixed);
        System { mesh, matrix, rhs }
    }
}

fn solve_with_threads(sys: &tiny::System, threads: usize) -> (Vec<f64>, Vec<f64>) {
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 400,
            threads: Some(threads),
            ..Default::default()
        },
        max_iters: 200,
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
    let (x, res) = solver.solve(&sys.rhs, None, 1e-8);
    assert!(res.converged, "threads={threads}: {res:?}");
    (x, res.residuals)
}

#[test]
fn solution_and_residuals_bitwise_identical_across_thread_counts() {
    let sys = tiny::build();
    let (x1, r1) = solve_with_threads(&sys, 1);
    for threads in [2usize, 4] {
        let (xt, rt) = solve_with_threads(&sys, threads);
        assert_eq!(x1.len(), xt.len());
        for (i, (a, b)) in x1.iter().zip(&xt).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads}: solution differs at dof {i}: {a:e} vs {b:e}"
            );
        }
        assert_eq!(
            r1.len(),
            rt.len(),
            "threads={threads}: iteration counts differ"
        );
        for (k, (a, b)) in r1.iter().zip(&rt).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads}: residual differs at iter {k}: {a:e} vs {b:e}"
            );
        }
    }
}

#[test]
fn assembly_deterministic_across_thread_counts() {
    // The FE assembly path (pattern-reuse chunks + scatter) must also be
    // exact across pool sizes — it feeds the fingerprint caches.
    let build_vals = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let sys = tiny::build();
            sys.matrix.vals().to_vec()
        })
    };
    let v1 = build_vals(1);
    for threads in [2usize, 4] {
        let vt = build_vals(threads);
        assert_eq!(v1.len(), vt.len());
        assert!(
            v1.iter().zip(&vt).all(|(a, b)| a.to_bits() == b.to_bits()),
            "threads={threads}: assembled matrix differs"
        );
    }
}

#[test]
fn planned_galerkin_product_deterministic_across_thread_counts() {
    // `RapPlan::execute` hands one coarse vertex row to each task; every
    // output entry is summed inside one task in the plan's fixed order, so
    // the coarse operator's bits must not depend on the pool size.
    let sys = tiny::build();
    let classes = prometheus::classify_mesh(&sys.mesh, 0.7);
    let level = prometheus::coarsen_level(
        &sys.mesh.coords,
        &sys.mesh.vertex_graph(),
        &classes,
        &prometheus::CoarsenOptions::default(),
    );
    let r = prometheus::mg::expand_restriction(&level.restriction, 3);
    let coarse_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut plan = pmg_sparse::RapPlan::new(&sys.matrix, &r);
            assert_eq!(plan.block_size(), 3);
            plan.execute(&sys.matrix)
        })
    };
    let c1 = coarse_with(1);
    for threads in [2usize, 4] {
        let ct = coarse_with(threads);
        assert_eq!(c1.row_ptr(), ct.row_ptr(), "threads={threads}");
        assert_eq!(c1.col_idx(), ct.col_idx(), "threads={threads}");
        assert!(
            c1.vals()
                .iter()
                .zip(ct.vals())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "threads={threads}: coarse operator differs"
        );
    }
}
