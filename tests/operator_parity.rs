//! The operator-parity contract pinning the matrix-free fine-grid path.
//!
//! One apply, two witnesses: the element-loop operator must (1) match
//! the assembled CSR and BSR3 matrices to rounding on free rows and
//! *bitwise* on Dirichlet rows, and (2) reproduce pinned hashes of its
//! output at rest and at a strained linearisation. Anything that reassociates the element
//! sums or mishandles a constrained row breaks one of them immediately.
//! The operator runs on the simulator only; message-passing ranks
//! assemble their fine rows.

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

/// FNV-1a over the little-endian bytes of every value's bits.
fn hash_bits(y: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in y {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn matrix_free_apply_bits_are_pinned_at_rest_and_strained() {
    // At rest every Gauss point is isotropic (the lane kernel and its
    // one-element form); the strained displacement makes the Neo-Hookean
    // points general-class. A kernel change that moves a bit must re-pin
    // these on purpose.
    let sys = pmg_bench::spheres_first_solve(0);
    let n = sys.mesh.num_dof();
    let x = probe(n);
    let strained: Vec<f64> = (0..n)
        .map(|i| 1e-3 * ((i * 7 % 11) as f64 / 11.0 - 0.5))
        .collect();
    let mut flops = Vec::new();
    for (u, want) in [
        (vec![0.0; n], 0x331d_9325_a82a_d106u64),
        (strained, 0x81ca_3fa2_9f22_7174),
    ] {
        let mf = pmg_fem::MatFreeOperator::new(&sys.problem.fem, &u, &sys.fixed, sys.scale);
        let mut y = vec![0.0; n];
        mf.apply(&x, &mut y);
        assert_eq!(hash_bits(&y), want, "apply bits moved");
        flops.push(mf.flops_per_apply());
    }
    assert!(
        flops[1] > flops[0],
        "the strained state has general-class points"
    );
}
