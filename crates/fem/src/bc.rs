//! Dirichlet boundary conditions by symmetric elimination.
//!
//! The spheres problem is displacement driven: symmetry planes fix one
//! displacement component each and the top surface is crushed by a
//! prescribed uniform displacement. Constraints are imposed by symmetric
//! elimination — constrained rows/columns are removed from the operator
//! (their coupling moved to the right-hand side) and replaced by a scaled
//! identity, which keeps the operator SPD for CG.

use pmg_sparse::CsrMatrix;

/// One prescribed degree of freedom: `u[dof] = value` (total displacement).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirichletBc {
    pub dof: u32,
    pub value: f64,
}

/// Build the constrained Newton system. Given the tangent `k`, the internal
/// force `r`, and per-constrained-dof *increments* `delta` for this solve,
/// returns `(K̂, rhs)` such that `K̂ Δu = rhs` yields `Δu[dof] = delta` on
/// constrained dofs and the correct free-dof equations elsewhere.
pub fn constrain_system(k: &CsrMatrix, r: &[f64], fixed: &[(u32, f64)]) -> (CsrMatrix, Vec<f64>) {
    let n = k.nrows();
    assert_eq!(r.len(), n);
    let mut is_fixed = vec![false; n];
    let mut delta = vec![0.0; n];
    for &(d, v) in fixed {
        is_fixed[d as usize] = true;
        delta[d as usize] = v;
    }

    // Newton right-hand side is -r for free dofs.
    let mut rhs: Vec<f64> = r.iter().map(|v| -v).collect();

    // Diagonal scale for the identity rows (conditioning).
    let scale = constraint_scale(k, fixed);

    // Direct CSR construction (column order within a row is preserved by
    // filtering; fixed rows become a single diagonal entry).
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(k.nnz());
    let mut vals = Vec::with_capacity(k.nnz());
    for i in 0..n {
        if is_fixed[i] {
            col_idx.push(i);
            vals.push(scale);
            rhs[i] = scale * delta[i];
        } else {
            let (cols, v) = k.row(i);
            for (&j, &kv) in cols.iter().zip(v) {
                if is_fixed[j] {
                    rhs[i] -= kv * delta[j];
                } else {
                    col_idx.push(j);
                    vals.push(kv);
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    (CsrMatrix::from_parts(n, n, row_ptr, col_idx, vals), rhs)
}

/// The diagonal scale [`constrain_system`] puts on constrained rows: the
/// mean `|diag|` over free dofs with a nonzero diagonal (1.0 if none).
/// Exposed so alternative operator representations (e.g. the matrix-free
/// apply) can treat Dirichlet rows *bitwise* identically to the assembled
/// path.
pub fn constraint_scale(k: &CsrMatrix, fixed: &[(u32, f64)]) -> f64 {
    let n = k.nrows();
    let mut is_fixed = vec![false; n];
    for &(d, _) in fixed {
        is_fixed[d as usize] = true;
    }
    let diag = k.diag();
    let mut scale = 0.0;
    let mut cnt = 0usize;
    for (i, &d) in diag.iter().enumerate() {
        if !is_fixed[i] && d != 0.0 {
            scale += d.abs();
            cnt += 1;
        }
    }
    if cnt > 0 {
        scale / cnt as f64
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_sparse::CooBuilder;

    fn spd3() -> CsrMatrix {
        let mut b = CooBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 4.0);
        }
        b.push(0, 1, -1.0);
        b.push(1, 0, -1.0);
        b.push(1, 2, -1.0);
        b.push(2, 1, -1.0);
        b.build()
    }

    #[test]
    fn constrained_system_solves_to_delta() {
        let k = spd3();
        let r = vec![0.5, -0.25, 0.0];
        let (kc, rhs) = constrain_system(&k, &r, &[(0, 0.1)]);
        // Solve densely and verify the constrained dof and free equations.
        let ch = pmg_sparse::dense::Cholesky::factor(&kc.to_dense()).unwrap();
        let x = ch.solve(&rhs);
        assert!((x[0] - 0.1).abs() < 1e-12);
        // Free equations: K_ff x_f = -r_f - K_fc * delta.
        // Row 1: 4 x1 - 1 x2 = 0.25 - (-1)(0.1) = 0.35.
        assert!((4.0 * x[1] - x[2] - 0.35).abs() < 1e-12);
        // Row 2: -x1 + 4 x2 = 0.
        assert!((-x[1] + 4.0 * x[2]).abs() < 1e-12);
    }

    #[test]
    fn symmetry_preserved() {
        let k = spd3();
        let (kc, _) = constrain_system(&k, &[0.0; 3], &[(1, 2.0)]);
        assert!(kc.is_symmetric(1e-14));
        // Constrained row is decoupled.
        assert_eq!(kc.get(1, 0), 0.0);
        assert_eq!(kc.get(0, 1), 0.0);
        assert!(kc.get(1, 1) > 0.0);
    }

    #[test]
    fn no_constraints_is_negated_residual() {
        let k = spd3();
        let r = vec![1.0, 2.0, 3.0];
        let (kc, rhs) = constrain_system(&k, &r, &[]);
        assert_eq!(kc, k);
        assert_eq!(rhs, vec![-1.0, -2.0, -3.0]);
    }
}
