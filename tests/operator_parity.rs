//! The operator-parity contract pinning the matrix-free fine-grid path.
//!
//! One apply, four witnesses: the element-loop operator must (1) match the
//! assembled CSR and BSR3 matrices to rounding on free rows and *bitwise*
//! on Dirichlet rows, (2) produce bit-identical results on any thread
//! pool, (3) drive the SPMD solve to the same bits as the simulated solve
//! on every transport and schedule, and (4) hold all of that across real
//! OS processes over sockets. Anything that reassociates the element sums
//! or mishandles a constrained row breaks one of these four immediately.

use pmg_sparse::{Bsr3Matrix, Operator};

/// |got − want| ≤ tol·‖scale‖ elementwise, with context in the message.
fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol * scale,
            "{what}: row {i}: {g:e} vs {w:e} (scale {scale:e})"
        );
    }
}

/// A deterministic, non-degenerate test vector (varied signs/magnitudes so
/// no cancellation hides a wrong entry).
fn probe(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 41 % 29) as f64 - 14.0) * 0.1)
        .collect()
}

#[test]
fn matrix_free_apply_matches_assembled_csr_and_bsr3() {
    let sys = pmg_bench::spheres_first_solve(0);
    let n = sys.matrix.nrows();
    let mf = sys.matrix_free();
    assert_eq!(mf.nrows(), n);
    assert_eq!(mf.ncols(), n);

    let x = probe(n);
    let mut y_csr = vec![0.0; n];
    let mut y_bsr = vec![0.0; n];
    let mut y_mf = vec![0.0; n];
    sys.matrix.apply(&x, &mut y_csr);
    Bsr3Matrix::from_csr(&sys.matrix).apply(&x, &mut y_bsr);
    mf.apply(&x, &mut y_mf);

    assert_close(&y_mf, &y_csr, 1e-13, "matrix-free vs CSR");
    assert_close(&y_mf, &y_bsr, 1e-13, "matrix-free vs BSR3");

    // Dirichlet rows are exact, not approximate: both paths compute the
    // single product scale·x[row], so the bits must agree.
    assert!(!sys.fixed.is_empty(), "spheres system has constrained rows");
    for &d in &sys.fixed {
        let d = d as usize;
        assert_eq!(
            y_mf[d].to_bits(),
            y_csr[d].to_bits(),
            "Dirichlet row {d} must be bitwise"
        );
        assert_eq!(y_mf[d].to_bits(), (sys.scale * x[d]).to_bits());
    }

    // Diagonals agree too (the smoother's fallback path reads them).
    assert_close(&mf.diag(), &sys.matrix.diag(), 1e-13, "diag");
}

#[test]
fn matrix_free_apply_bitwise_across_thread_pools() {
    let sys = pmg_bench::spheres_first_solve(0);
    let n = sys.matrix.nrows();
    let mf = sys.matrix_free();
    let x = probe(n);

    let apply_on = |threads: usize| -> Vec<f64> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut y = vec![0.0; n];
        pool.install(|| mf.apply(&x, &mut y));
        y
    };

    let y1 = apply_on(1);
    for threads in [2, 4, 7] {
        let yt = apply_on(threads);
        for (i, (a, b)) in yt.iter().zip(&y1).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {i} differs between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn matrix_free_spmd_solve_bitwise_across_transports_and_schedules() {
    let sys = pmg_bench::spheres_first_solve(0);
    let mf = sys.matrix_free();
    let pcg_opts = pmg_solver::PcgOptions {
        rtol: pmg_bench::PARITY_RTOL,
        max_iters: 200,
        ..Default::default()
    };
    for p in [1usize, 2, 4] {
        let mut opts = pmg_bench::parity_options(p);
        opts.mg.fine_operator = prometheus::FineOperator::MatrixFree;
        let mut solver =
            prometheus::Prometheus::from_mesh_matrix_free(&sys.mesh, &sys.matrix, opts, &mf);
        assert!(solver.mg.fine_mf.is_some(), "p={p}: kernels installed");
        let (x_sim, res_sim) = solver.solve(&sys.rhs, None, pmg_bench::PARITY_RTOL);
        assert!(res_sim.converged, "p={p}: {res_sim:?}");

        // Threaded SPMD, overlapped and blocking: all three executions
        // must agree bit for bit — solution and residual history.
        for overlap in [true, false] {
            let spmd = prometheus::solve_threads(&solver.mg, &sys.rhs, pcg_opts, overlap).unwrap();
            assert_eq!(
                spmd.result.iterations, res_sim.iterations,
                "p={p} overlap={overlap}"
            );
            for (a, b) in spmd.result.residuals.iter().zip(&res_sim.residuals) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "p={p} overlap={overlap} residual history"
                );
            }
            for (a, b) in spmd.x.iter().zip(&x_sim) {
                assert_eq!(a.to_bits(), b.to_bits(), "p={p} overlap={overlap} solution");
            }
            if overlap && p > 1 {
                let w0 = spmd.waits[0];
                assert!(
                    w0.interior_rows + w0.boundary_rows > 0,
                    "p={p}: overlap accounting must tick on the matrix-free path"
                );
            }
        }
    }
}

#[test]
fn matrix_free_socket_ranks_match_simulated_solve() {
    // Two real OS processes over Unix-domain sockets, fine grid on the
    // element-loop kernels (PMG_FINE_OP=matrixfree), must reproduce the
    // in-process 2-rank matrix-free solve bitwise.
    let sys = pmg_bench::spheres_first_solve(0);
    let mf = sys.matrix_free();
    let mut opts = pmg_bench::parity_options(2);
    opts.mg.fine_operator = prometheus::FineOperator::MatrixFree;
    let mut solver =
        prometheus::Prometheus::from_mesh_matrix_free(&sys.mesh, &sys.matrix, opts, &mf);
    let (x_ref, res_ref) = solver.solve(&sys.rhs, None, pmg_bench::PARITY_RTOL);
    assert!(res_ref.converged, "{res_ref:?}");

    let dir = std::env::temp_dir().join(format!("pmg-mf-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("rank0.out");
    let exits = pmg_comm::launch::launch_with_env(
        2,
        std::path::Path::new(env!("CARGO_BIN_EXE_spheres_rank")),
        &["--out", out.to_str().unwrap()],
        None,
        &[("PMG_FINE_OP", "matrixfree")],
    )
    .expect("launch 2 socket ranks");
    assert!(
        exits.iter().all(|e| e.status.success()),
        "matrix-free socket ranks failed: {exits:?}"
    );
    let text = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let mut iters = 0usize;
    let mut x_bits = Vec::new();
    let mut res_bits = Vec::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some("iterations"), Some(v)) => iters = v.parse().unwrap(),
            (Some("x"), Some(v)) => x_bits.push(u64::from_str_radix(v, 16).unwrap()),
            (Some("res"), Some(v)) => res_bits.push(u64::from_str_radix(v, 16).unwrap()),
            _ => {}
        }
    }
    assert_eq!(iters, res_ref.iterations, "socket iteration count");
    assert_eq!(x_bits.len(), x_ref.len());
    for (got, want) in x_bits.iter().zip(&x_ref) {
        assert_eq!(*got, want.to_bits(), "socket solution bits");
    }
    assert_eq!(res_bits.len(), res_ref.residuals.len());
    for (got, want) in res_bits.iter().zip(&res_ref.residuals) {
        assert_eq!(*got, want.to_bits(), "socket residual bits");
    }
}
