//! Correctness checks on every answer, computed with the benchmark's own
//! loops so a bug in the solver's kernels cannot vouch for itself.

use pmg_sparse::CsrMatrix;

/// True relative residual `|b - A x| / |b|`, by a plain CSR loop over the
/// matrix's raw arrays.
pub fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.vals());
    let mut rr = 0.0;
    let mut bb = 0.0;
    for i in 0..a.nrows() {
        let mut ax = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            ax += vals[k] * x[col_idx[k]];
        }
        let r = b[i] - ax;
        rr += r * r;
        bb += b[i] * b[i];
    }
    (rr / bb).sqrt()
}

/// FNV-1a over the bit patterns: two solutions are "the same bits" iff
/// their hashes and lengths agree.
pub fn bits_hash(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h ^ x.len() as u64
}

/// `|x - y| / |y|`.
pub fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let num: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = y.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

/// Outcome of one work unit's checks; a unit with any message failed.
#[derive(Default)]
pub struct Verdict {
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_sparse::CooBuilder;

    #[test]
    fn residual_of_exact_and_wrong_solutions() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, 3.0);
        let a = b.build();
        let rhs = [3.0, 4.0];
        assert_eq!(rel_residual(&a, &[1.0, 1.0], &rhs), 0.0);
        // x = 0 leaves the whole right-hand side as residual.
        assert_eq!(rel_residual(&a, &[0.0, 0.0], &rhs), 1.0);
    }

    #[test]
    fn bits_hash_sees_one_ulp_and_length() {
        let x = [1.0, 2.0, 3.0];
        let mut y = x;
        assert_eq!(bits_hash(&x), bits_hash(&y));
        y[1] = f64::from_bits(y[1].to_bits() + 1);
        assert_ne!(bits_hash(&x), bits_hash(&y));
        assert_ne!(bits_hash(&x), bits_hash(&x[..2]));
        assert_ne!(bits_hash(&[0.0]), bits_hash(&[-0.0]));
    }
}
