//! Operator abstraction: assembled and matrix-free representations behind
//! one interface.
//!
//! The solver only ever needs four things from an operator: its shape, the
//! product `y = A x`, its diagonal, and (for planning/benchmarks) what the
//! representation costs in memory and flops. [`Operator`] captures exactly
//! that, and is implemented by the assembled representations
//! ([`CsrMatrix`], [`Bsr3Matrix`]) as well as by matrix-free element-loop
//! backends (see `pmg-fem`'s `MatFreeOperator`).
//!
//! # Determinism contract
//!
//! Implementations must be bitwise deterministic: the same `(x, operator)`
//! input produces the same bits regardless of `PMG_THREADS`.

use crate::bsr::Bsr3Matrix;
use crate::csr::CsrMatrix;

/// A square (or rectangular) linear operator: the minimal interface the
/// solve path needs, independent of representation.
pub trait Operator: Send + Sync {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;
    /// Number of columns of the operator.
    fn ncols(&self) -> usize;
    /// `y = A x` (overwrites `y`). Must be bitwise deterministic across
    /// thread counts.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// The main diagonal (missing entries are `0.0`).
    fn diag(&self) -> Vec<f64>;
    /// Bytes the representation holds resident to support [`Operator::apply`]
    /// (matrix values + index metadata, or cached geometry + maps for
    /// matrix-free backends).
    fn memory_bytes(&self) -> u64;
    /// Flops one [`Operator::apply`] costs under this representation.
    fn flops_per_apply(&self) -> u64;
}

impl Operator for CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn diag(&self) -> Vec<f64> {
        CsrMatrix::diag(self)
    }

    fn memory_bytes(&self) -> u64 {
        // vals + col_idx (8 B each) per nonzero, plus the row pointers.
        (self.nnz() * 16 + (CsrMatrix::nrows(self) + 1) * 8) as u64
    }

    fn flops_per_apply(&self) -> u64 {
        2 * self.nnz() as u64
    }
}

impl Operator for Bsr3Matrix {
    fn nrows(&self) -> usize {
        Bsr3Matrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        Bsr3Matrix::ncols(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn diag(&self) -> Vec<f64> {
        // Blocks are column-sorted within each block row; pick the diagonal
        // block's diagonal entries.
        self.to_csr().diag()
    }

    fn memory_bytes(&self) -> u64 {
        Bsr3Matrix::memory_bytes(self)
    }

    fn flops_per_apply(&self) -> u64 {
        2 * self.nnz_stored() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;

    #[test]
    fn csr_and_bsr_agree_through_the_trait() {
        let mut b = CooBuilder::new(6, 6);
        for i in 0..6 {
            b.push(i, i, 2.0 + i as f64);
            if i + 1 < 6 {
                b.push(i, i + 1, -1.0);
            }
        }
        let a = b.build();
        let bsr = Bsr3Matrix::from_csr(&a);
        let x: Vec<f64> = (0..6).map(|i| (i as f64 * 0.4).cos()).collect();
        let mut y1 = vec![0.0; 6];
        let mut y2 = vec![0.0; 6];
        Operator::apply(&a, &x, &mut y1);
        Operator::apply(&bsr, &x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(Operator::diag(&a), Operator::diag(&bsr));
        assert!(a.memory_bytes() > 0 && bsr.memory_bytes() > 0);
        assert_eq!(a.flops_per_apply(), 2 * a.nnz() as u64);
    }
}
