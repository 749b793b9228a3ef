//! Property tests for the 3x3 block CSR storage: random *block* patterns —
//! including partially-populated 3x3 blocks, the shape Dirichlet column
//! elimination leaves behind — must round-trip through `Bsr3Matrix` and
//! multiply exactly like the scalar CSR reference, and read back through
//! `MaskedBsr3`'s masks as the very rows they were tiled from.

use pmg_sparse::{Bsr3Matrix, CooBuilder, CsrMatrix, MaskedBsr3};
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
        a.spmv(&x, &mut y_csr);
        bsr.spmv(&x, &mut y_bsr);
        // The blocked kernel accumulates in the scalar kernel's per-row
        // column order, so equality is exact — not approximate.
        prop_assert_eq!(&y_csr, &y_bsr);
    }

    /// Scalar rows read through the tiles and their masks are the source
    /// rows bit for bit — row pointers, columns and value bits — with
    /// partial (Dirichlet-trimmed) tiles, stored `+0.0` and `-0.0` among
    /// the values, and on any block shape. The diagonal, the stored count
    /// and a value refresh row by row agree too.
    #[test]
    fn prop_masked_rows_are_the_source_rows_bitwise(
        shape in (1usize..NB, 1usize..NB),
        blocks in proptest::collection::vec(
            (0usize..NB, 0usize..NB, 1usize..512,
             proptest::collection::vec((0usize..4, -4.0f64..4.0), 9)),
            0..20),
        scale in -2.0f64..2.0,
    ) {
        let (nbr, nbc) = shape;
        let value = |kind: usize, v: f64| match kind {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        };
        let mut coo = CooBuilder::new(3 * nbr, 3 * nbc);
        let mut entries = std::collections::BTreeMap::new();
        for (br, bc, mask, vals) in &blocks {
            for (e, &(kind, v)) in vals.iter().enumerate() {
                if mask & (1 << e) != 0 {
                    // One push per position, so no sum turns -0.0 into +0.0.
                    entries.insert((3 * (br % nbr) + e / 3, 3 * (bc % nbc) + e % 3), value(kind, v));
                }
            }
        }
        for (&(i, j), &v) in &entries {
            coo.push(i, j, v);
        }
        let a = coo.build();
        let m = MaskedBsr3::from_csr(&a);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let back = m.to_csr();
        prop_assert_eq!(back.row_ptr(), a.row_ptr());
        prop_assert_eq!(back.col_idx(), a.col_idx());
        prop_assert_eq!(bits(back.vals()), bits(a.vals()));
        prop_assert_eq!(m.nnz(), a.nnz());
        prop_assert_eq!(bits(&m.diag()), bits(&a.diag()));
        prop_assert_eq!(m.tiles(), &Bsr3Matrix::from_csr(&a));
        // Internal iteration (`fold`, whole tile rows at once) yields what
        // `next` does, from a row's start and from inside one of its tiles.
        for i in 0..a.nrows() {
            let by_next: Vec<(usize, f64)> = m.row(i).collect();
            let by_fold = m.row(i).fold(Vec::new(), |mut v, e| {
                v.push(e);
                v
            });
            prop_assert_eq!(&by_fold, &by_next);
            let mut rest = m.row(i);
            let first = rest.next();
            let tail = rest.fold(Vec::new(), |mut v, e| {
                v.push(e);
                v
            });
            prop_assert_eq!(first.into_iter().chain(tail).collect::<Vec<_>>(), by_next);
        }

        // New values on the same pattern, row by row, are a fresh tiling.
        let mut b = CooBuilder::new(3 * nbr, 3 * nbc);
        for (&(i, j), &v) in &entries {
            b.push(i, j, if v == 0.0 { -v } else { v * scale });
        }
        let a2 = b.build();
        let mut refreshed = m.clone();
        for i in 0..a2.nrows() {
            let vals = a2.row(i).1;
            prop_assert_eq!(refreshed.set_row(i, vals.iter().copied()), vals.len());
        }
        prop_assert_eq!(bits(refreshed.to_csr().vals()), bits(a2.vals()));
        prop_assert_eq!(refreshed, MaskedBsr3::from_csr(&a2));
    }
}
