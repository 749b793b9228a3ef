//! End-to-end integration: the paper's spheres problem through the whole
//! stack — mesh generation, FE assembly, automatic coarsening, FMG-PCG —
//! including parallel-vs-serial consistency and a short Newton run.

use pmg_fem::{spheres_problem, NewtonDriver, NewtonOptions};
use pmg_mesh::SpheresParams;
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn tiny_system() -> pmg_bench_free::System {
    pmg_bench_free::build(&SpheresParams::tiny())
}

/// Local duplicate of the bench harness setup (tests are independent of
/// the bench crate).
mod pmg_bench_free {
    use pmg_fem::bc::{constrain_system, constraint_scale};
    use pmg_fem::FemProblem;
    use pmg_mesh::{Mesh, SpheresParams};
    use pmg_sparse::CsrMatrix;

    pub struct System {
        pub mesh: Mesh,
        pub matrix: CsrMatrix,
        pub rhs: Vec<f64>,
        /// The FE problem after assembly at `u = 0` (element geometry
        /// cached) plus the Dirichlet data, so tests can build the
        /// matrix-free operator for the same constrained system.
        pub fem: FemProblem,
        pub fixed: Vec<u32>,
        pub scale: f64,
    }

    impl System {
        /// The element-loop operator equivalent to `matrix`.
        pub fn matrix_free(&self) -> pmg_fem::MatFreeOperator {
            let zeros = vec![0.0; self.mesh.num_dof()];
            pmg_fem::MatFreeOperator::new(&self.fem, &zeros, &self.fixed, self.scale)
        }
    }

    pub fn build(params: &SpheresParams) -> System {
        let mut problem = pmg_fem::spheres_problem(params);
        let mesh = problem.fem.mesh.clone();
        let ndof = mesh.num_dof();
        let (k, r) = problem.fem.assemble(&vec![0.0; ndof]);
        let bcs = problem.bcs_for_step(1, 10);
        let fixed_pairs: Vec<(u32, f64)> = bcs.iter().map(|b| (b.dof, b.value)).collect();
        let (matrix, rhs) = constrain_system(&k, &r, &fixed_pairs);
        let scale = constraint_scale(&k, &fixed_pairs);
        let fixed: Vec<u32> = fixed_pairs.iter().map(|&(d, _)| d).collect();
        System {
            mesh,
            matrix,
            rhs,
            fem: problem.fem,
            fixed,
            scale,
        }
    }
}

/// Build the solver with the matrix-free fine operator or without it.
fn solver_for(sys: &pmg_bench_free::System, opts: PrometheusOptions, matfree: bool) -> Prometheus {
    if matfree {
        let mf = Box::new(sys.matrix_free());
        Prometheus::from_mesh_matrix_free(&sys.mesh, &sys.matrix, opts, mf)
    } else {
        Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts)
    }
}

/// Without and with the matrix-free fine operator.
const BACKENDS: [bool; 2] = [false, true];

#[test]
fn first_linear_solve_converges_quickly() {
    let sys = tiny_system();
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 400,
            ..Default::default()
        },
        max_iters: 200,
        ..Default::default()
    };
    for matfree in BACKENDS {
        let mut solver = solver_for(&sys, opts, matfree);
        assert!(solver.level_sizes().len() >= 2);
        let (x, res) = solver.solve(&sys.rhs, None, 1e-6);
        assert!(res.converged, "matfree={matfree}: {res:?}");
        assert!(
            res.iterations <= 60,
            "MG-PCG should converge fast on the spheres problem: matfree={matfree}, {} iters",
            res.iterations
        );
        // True residual check against the original operator.
        let mut ax = vec![0.0; x.len()];
        sys.matrix.spmv(&x, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&sys.rhs)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            err <= 2e-6 * bn,
            "matfree={matfree}: true residual {err:.3e} vs b {bn:.3e}"
        );
    }
}

/// FNV-1a over the iteration count and the solution's bit patterns.
fn solution_hash(iterations: usize, x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in std::iter::once(iterations as u64).chain(x.iter().map(|v| v.to_bits())) {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn spheres10k_first_solve_is_pinned_bit_for_bit() {
    // The benchmark's `cold10k` mesh (9792 dof), its first-step system and
    // the default solver: every kernel of the set-up and of FMG-PCG is on
    // this path, the smoother's block factors and solves included. One
    // rank pins the shares' diagonal products; two ranks add the ghost
    // products of every promoted level.
    // The one-rank hash was recorded before the block factors moved into
    // their envelope, the two-rank one before the ghost block lost its
    // padded BSR3 copy; a change to any kernel's arithmetic order must
    // re-pin them on purpose.
    let sys = pmg_bench_free::build(&SpheresParams {
        n_surf: 6,
        ..SpheresParams::ladder(1)
    });
    for (nranks, iterations, hash) in [
        (1, 23, 0x81cb_6af9_cbaa_ef11u64),
        (2, 23, 0x7560_73b5_b9c4_3720),
    ] {
        let opts = PrometheusOptions {
            nranks,
            ..Default::default()
        };
        let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
        let (x, res) = solver.solve(&sys.rhs, None, 1e-6);
        assert!(res.converged, "nranks={nranks}: {res:?}");
        assert_eq!(
            (x.len(), res.iterations),
            (9792, iterations),
            "nranks={nranks}"
        );
        assert_eq!(solution_hash(res.iterations, &x), hash, "nranks={nranks}");
    }
}

#[test]
fn parallel_ranks_agree_with_serial() {
    let sys = tiny_system();
    let solve_with = |p: usize, matfree: bool| {
        let opts = PrometheusOptions {
            nranks: p,
            mg: MgOptions {
                coarse_dof_threshold: 400,
                ..Default::default()
            },
            max_iters: 200,
            ..Default::default()
        };
        let mut solver = solver_for(&sys, opts, matfree);
        let (x, res) = solver.solve(&sys.rhs, None, 1e-10);
        assert!(res.converged, "p={p} matfree={matfree}");
        x
    };
    let x1 = solve_with(1, false);
    for (p, matfree) in [2, 4, 7].into_iter().flat_map(|p| BACKENDS.map(|f| (p, f))) {
        let xp = solve_with(p, matfree);
        // Same linear system solved to 1e-10: solutions agree to solver
        // tolerance (the hierarchy may differ slightly via the rank-based
        // MIS, but the answer may not).
        let num: f64 = x1
            .iter()
            .zip(&xp)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = x1.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        assert!(
            num / den < 1e-6,
            "p={p} matfree={matfree}: relative diff {}",
            num / den
        );
    }
}

#[test]
fn two_newton_steps_with_multigrid() {
    let params = SpheresParams {
        n_surf: 3,
        n_layers: 3,
        elems_per_layer: 1,
        n_core_zone: 1,
        n_outer_zone: 1,
        ..SpheresParams::tiny()
    };
    let mut problem = spheres_problem(&params);
    let mesh = problem.fem.mesh.clone();
    let ndof = mesh.num_dof();
    let mut u = vec![0.0; ndof];
    let driver = NewtonDriver::new(NewtonOptions::default());
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 300,
            ..Default::default()
        },
        max_iters: 300,
        ..Default::default()
    };
    let mut solver: Option<Prometheus> = None;
    for step in 1..=2 {
        let bcs = problem.bcs_for_step(step, 10);
        let stats = {
            let mut solve = |k: &pmg_sparse::CsrMatrix, rhs: &[f64], rtol: f64| {
                match solver.as_mut() {
                    None => solver = Some(Prometheus::from_mesh(&mesh, k, opts)),
                    Some(s) => s.update_matrix(k),
                }
                let (x, r) = solver.as_mut().unwrap().solve(rhs, None, rtol);
                assert!(r.converged, "linear solve failed at rtol {rtol}");
                (x, r.iterations)
            };
            driver.solve_step(&mut problem.fem, &mut u, &bcs, &mut solve)
        };
        assert!(stats.converged, "Newton step {step} failed: {stats:?}");
        assert!(stats.newton_iters <= 12);
    }
    // The top surface moved by the prescribed amount.
    let target = -problem.total_crush * 2.0 / 10.0;
    for &d in &problem.top_dofs {
        assert!((u[d as usize] - target).abs() < 1e-9);
    }
}

/// Golden parity: PCG + FMG with the matrix-free fine operator must walk
/// the same Krylov trajectory as the assembled solve — same iteration
/// count and a residual history that tracks it to floating-point
/// reassociation (the element-loop apply sums the same numbers in a
/// different order, so bitwise equality is not expected — staying on the
/// same iteration path is the contract).
#[test]
fn matrix_free_solve_reproduces_assembled_history() {
    let sys = tiny_system();
    let base = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 400,
            ..Default::default()
        },
        max_iters: 200,
        ..Default::default()
    };

    let mut assembled = Prometheus::from_mesh(&sys.mesh, &sys.matrix, base);
    let (xa, ra) = assembled.solve(&sys.rhs, None, 1e-6);

    use pmg_sparse::Operator;
    let mf_bytes = sys.matrix_free().memory_bytes();
    let mut matfree = solver_for(&sys, base, true);
    let (xm, rm) = matfree.solve(&sys.rhs, None, 1e-6);

    assert!(ra.converged && rm.converged, "{ra:?} vs {rm:?}");
    assert_eq!(
        rm.iterations, ra.iterations,
        "matrix-free iteration count diverged from assembled"
    );
    assert_eq!(rm.residuals.len(), ra.residuals.len());
    for (it, (m, a)) in rm.residuals.iter().zip(&ra.residuals).enumerate() {
        assert!(
            (m - a).abs() <= 1e-6 * a.abs(),
            "iter {it}: residual {m:e} vs assembled {a:e}"
        );
    }
    let num: f64 = xm
        .iter()
        .zip(&xa)
        .map(|(m, a)| (m - a) * (m - a))
        .sum::<f64>()
        .sqrt();
    let den: f64 = xa.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
    assert!(num / den < 1e-8, "solution drift {}", num / den);

    // The memory story the matrix-free path exists for: the assembled fine
    // operator is the caller's scalar CSR plus the level-0 share's BSR3
    // tiles; the element kernel replaces both and must be at least 2x
    // smaller — deterministic byte counts.
    let assembled =
        sys.matrix.memory_bytes() + pmg_sparse::Bsr3Matrix::from_csr(&sys.matrix).memory_bytes();
    assert!(
        assembled as f64 >= 2.0 * mf_bytes as f64,
        "matrix-free {mf_bytes} bytes vs assembled resident {assembled}"
    );
}
