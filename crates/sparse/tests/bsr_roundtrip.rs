//! Property tests for the 3x3 block CSR storage: random *block* patterns —
//! including partially-populated 3x3 blocks, the shape Dirichlet column
//! elimination leaves behind — must round-trip through `Bsr3Matrix` and
//! multiply exactly like the scalar CSR reference.

use pmg_sparse::{Bsr3Matrix, CooBuilder, CsrMatrix};
use proptest::prelude::*;
use std::collections::BTreeSet;

const NB: usize = 6; // block dimension: 18x18 scalar

/// Assemble a scalar CSR matrix from block descriptors: block row/col, a
/// 9-bit occupancy mask (which of the block's scalar entries exist), and
/// the 9 candidate values.
fn build(blocks: &[(usize, usize, usize, Vec<f64>)]) -> CsrMatrix {
    let mut b = CooBuilder::new(3 * NB, 3 * NB);
    for (br, bc, mask, vals) in blocks {
        for (e, &v) in vals.iter().enumerate() {
            if mask & (1 << e) != 0 {
                b.push(3 * br + e / 3, 3 * bc + e % 3, v);
            }
        }
    }
    b.build()
}

proptest! {
    #[test]
    fn prop_roundtrip_preserves_scalar_matrix(
        blocks in proptest::collection::vec(
            (0usize..NB, 0usize..NB, 1usize..512,
             proptest::collection::vec(-4.0f64..4.0, 9)),
            0..20),
    ) {
        let a = build(&blocks);
        let bsr = Bsr3Matrix::from_csr(&a);
        // Every touched block is stored exactly once, fully materialized.
        let distinct: BTreeSet<(usize, usize)> = blocks
            .iter()
            .filter(|(_, _, mask, _)| *mask != 0)
            .map(|&(br, bc, _, _)| (br, bc))
            .collect();
        prop_assert_eq!(bsr.num_blocks(), distinct.len());
        prop_assert_eq!(bsr.nnz_stored(), 9 * distinct.len());
        prop_assert_eq!(bsr.to_csr(), a);
    }

    #[test]
    fn prop_spmv_bitwise_matches_csr(
        blocks in proptest::collection::vec(
            (0usize..NB, 0usize..NB, 1usize..512,
             proptest::collection::vec(-4.0f64..4.0, 9)),
            0..20),
        x in proptest::collection::vec(-3.0f64..3.0, 3 * NB),
    ) {
        let a = build(&blocks);
        let bsr = Bsr3Matrix::from_csr(&a);
        let mut y_csr = vec![0.0; 3 * NB];
        let mut y_bsr = vec![0.0; 3 * NB];
        let mut y_rows = vec![0.0; 3 * NB];
        a.spmv(&x, &mut y_csr);
        bsr.spmv(&x, &mut y_bsr);
        // Odd block rows first, then even: a partition in two calls.
        let (odd, even): (Vec<u32>, Vec<u32>) = (0..NB as u32).partition(|br| br % 2 == 1);
        bsr.spmv_block_rows(&x, &mut y_rows, &odd);
        bsr.spmv_block_rows(&x, &mut y_rows, &even);
        // The blocked kernels accumulate in the scalar kernel's per-row
        // column order, so equality is exact — not approximate.
        prop_assert_eq!(&y_csr, &y_bsr);
        prop_assert_eq!(&y_csr, &y_rows);
    }
}
