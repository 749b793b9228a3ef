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
//! # The distributed / overlapped split
//!
//! In distributed runs the product is applied rank-by-rank against gathered
//! ghost values, and the communication/computation overlap of the SPMD path
//! needs the work split into a part that can run *before* the halo arrives
//! and a part that needs it. [`MatrixFreeKernel`] is that per-rank,
//! two-phase form: `apply_interior` consumes only owned values,
//! `apply_boundary` additionally consumes the gathered ghost values, and
//! one full product is always `apply_interior` followed by
//! `apply_boundary` — in that fixed order, so the blocking and overlapped
//! schedules of `pmg-parallel` produce bitwise-identical results. The
//! distributed wrapper (`pmg_parallel::DistMatFree`) supplies the halo
//! exchange; this crate only defines the kernel contract so that `pmg-fem`
//! (which provides kernels) and `pmg-parallel` (which drives them) need
//! not depend on each other.
//!
//! # Determinism contract
//!
//! Implementations must be bitwise deterministic: the same `(x, kernel)`
//! input produces the same bits regardless of `PMG_THREADS`, and the
//! two-phase application equals the unsplit one because the phases never
//! touch the same accumulation in a different order.

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

/// Per-rank, two-phase matrix-free product kernel.
///
/// A rank owns `local_rows()` rows (in its layout's owned order) and reads
/// the ghost columns listed by [`MatrixFreeKernel::ghosts`] (ascending
/// global ids — the same canonical order `pmg-parallel`'s halo plans use).
/// One full product over the owned rows is:
///
/// ```text
/// apply_interior(x_owned, y);            // overwrites y
/// apply_boundary(x_owned, x_ghost, y);   // accumulates into y
/// ```
///
/// `apply_interior` computes every contribution that involves no ghost
/// value (for element-loop kernels: the elements whose dofs are all local,
/// plus Dirichlet rows, which are purely local by construction);
/// `apply_boundary` adds the contributions of ghost-touching elements.
/// Unlike the assembled row-split, a row may receive contributions from
/// *both* phases — correctness only requires that within each phase the
/// accumulation order is fixed, so the blocking schedule (finish the halo,
/// then run both phases) and the overlapped schedule (run `apply_interior`
/// inside the halo window) are bitwise identical.
pub trait MatrixFreeKernel: Send + Sync {
    /// Rows owned by this rank.
    fn local_rows(&self) -> usize;
    /// Ghost columns this rank gathers, as ascending global ids.
    fn ghosts(&self) -> &[u32];
    /// Phase 1: overwrite `y` with all contributions that need no ghost
    /// values. `x_owned` holds the owned values in layout order.
    fn apply_interior(&self, x_owned: &[f64], y: &mut [f64]);
    /// Phase 2: accumulate the ghost-dependent contributions. `x_ghost`
    /// holds the gathered values in [`MatrixFreeKernel::ghosts`] order.
    fn apply_boundary(&self, x_owned: &[f64], x_ghost: &[f64], y: &mut [f64]);
    /// Owned rows finalized entirely by `apply_interior` (touched by no
    /// ghost-dependent contribution) — the overlap accounting analogue of
    /// the assembled path's interior row class.
    fn interior_rows(&self) -> u64;
    /// Owned rows that receive at least one phase-2 contribution.
    fn boundary_rows(&self) -> u64;
    /// Diagonal of the owned rows (layout order).
    fn diag_local(&self) -> &[f64];
    /// Flops one full (both-phase) product costs on this rank.
    fn flops_per_apply(&self) -> u64;
    /// Resident bytes backing this rank's kernel (shared caches counted
    /// once per rank that holds a reference).
    fn memory_bytes(&self) -> u64;
}

/// Builds the per-rank kernels of a matrix-free operator for a given row
/// ownership, decoupling whoever defines the physics (e.g. `pmg-fem`) from
/// whoever defines the partition (e.g. the multigrid setup in `prometheus`,
/// which only knows the ownership lists after recursive bisection).
pub trait MatrixFreeFactory: Send + Sync {
    /// `owned[r]` lists the global row ids owned by rank `r`, in the order
    /// the rank stores them. Returns one kernel per rank.
    fn build_kernels(&self, owned: &[&[u32]]) -> Vec<Box<dyn MatrixFreeKernel>>;
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
