//! Property tests of the virtual-rank runtime: layouts, distributed
//! vectors, and the ghost-exchange SpMV against arbitrary ownership maps —
//! including the overlapped (interior/boundary row-split) SpMV, which must
//! be bitwise identical to the blocking path for every ownership map.

use pmg_comm::{LocalTransport, Transport};
use pmg_parallel::{DistMatrix, DistVec, HaloPlan, Layout, MachineModel, Sim};
use pmg_sparse::{CooBuilder, CsrMatrix};
use proptest::prelude::*;
use std::sync::Arc;

/// Run both the blocking and the overlapped SpMV of every rank's share of
/// `da` on rank threads, inside one lockstep `run_ranks` call, and return,
/// per rank, the two local products plus the overlap accounting.
fn run_both_spmvs(
    da: &DistMatrix,
    x: &[f64],
) -> Vec<(Vec<f64>, Vec<f64>, pmg_parallel::OverlapInfo)> {
    let l = da.row_layout();
    LocalTransport::run_ranks(l.num_ranks(), move |mut t| {
        let r = t.rank();
        let share = da.share(r);
        let xl: Vec<f64> = l.owned(r).iter().map(|&g| x[g as usize]).collect();
        let mut y1 = vec![0.0; xl.len()];
        share.spmv(&mut t, 11, &xl, &mut y1).unwrap();
        let mut y2 = vec![0.0; xl.len()];
        let info = share.spmv_overlapped(&mut t, 11, &xl, &mut y2).unwrap();
        (y1, y2, info)
    })
}

/// `a` distributed over `l` in scalar CSR.
fn scalar(a: &CsrMatrix, l: &Arc<Layout>) -> DistMatrix {
    DistMatrix::from_global(a, l.clone(), l.clone())
}

proptest! {
    #[test]
    fn layout_roundtrip(owner in proptest::collection::vec(0u32..5, 1..60)) {
        let n = owner.len();
        let l = Layout::from_part(owner.clone(), 5);
        prop_assert_eq!(l.num_global(), n);
        // Every global index appears exactly once across ranks.
        let mut seen = vec![false; n];
        for r in 0..5 {
            for &g in l.owned(r) {
                prop_assert!(!seen[g as usize]);
                seen[g as usize] = true;
                prop_assert_eq!(l.owner(g as usize), r as u32);
                prop_assert_eq!(l.owned(r)[l.local_index(g as usize) as usize], g);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn layout_with_empty_ranks_roundtrip(owner in proptest::collection::vec(0u32..3, 1..50)) {
        // Map owners onto the even ranks of a 6-rank layout, so ranks 1, 3,
        // and 5 are always empty — owner/local_index/owned must still
        // round-trip, and halo plans must build (with nothing to exchange
        // for the empty ranks).
        let owner: Vec<u32> = owner.into_iter().map(|r| 2 * r).collect();
        let n = owner.len();
        let l = Layout::from_part(owner.clone(), 6);
        prop_assert_eq!(l.num_global(), n);
        let mut seen = 0usize;
        for r in 0..6 {
            if r % 2 == 1 {
                prop_assert_eq!(l.local_len(r), 0);
                prop_assert!(l.owned(r).is_empty());
            }
            for (li, &g) in l.owned(r).iter().enumerate() {
                seen += 1;
                prop_assert_eq!(l.owner(g as usize), r as u32);
                prop_assert_eq!(l.local_index(g as usize) as usize, li);
                prop_assert_eq!(owner[g as usize], r as u32);
            }
        }
        prop_assert_eq!(seen, n);
        let plan = HaloPlan::build(&l, &vec![Vec::new(); 6]);
        for rh in &plan.ranks {
            prop_assert!(rh.recv.is_empty() && rh.send.is_empty());
        }
    }

    #[test]
    fn scatter_gather_identity(
        owner in proptest::collection::vec(0u32..4, 1..50),
        vals in proptest::collection::vec(-100.0f64..100.0, 50),
    ) {
        let n = owner.len();
        let l = Layout::from_part(owner, 4);
        let g: Vec<f64> = vals[..n].to_vec();
        let d = DistVec::from_global(l, &g);
        prop_assert_eq!(d.to_global(), g);
    }

    #[test]
    fn spmv_any_ownership_matches_serial(
        owner in proptest::collection::vec(0u32..4, 10..40),
        entries in proptest::collection::vec((0usize..10, 0usize..10, -5.0f64..5.0), 0..80),
    ) {
        let n = owner.len();
        let mut b = CooBuilder::new(n, n);
        for (i, j, v) in entries {
            if i < n && j < n {
                b.push(i, j, v);
            }
        }
        let a = b.build();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_serial = vec![0.0; n];
        a.spmv(&x, &mut y_serial);

        let l = Layout::from_part(owner, 4);
        let mut sim = Sim::new(4, MachineModel::default());
        let da = DistMatrix::from_global(&a, l.clone(), l.clone());
        let dx = DistVec::from_global(l.clone(), &x);
        let mut dy = DistVec::zeros(l);
        da.spmv(&mut sim, &dx, &mut dy);
        let yg = dy.to_global();
        for (u, v) in yg.iter().zip(&y_serial) {
            prop_assert!((u - v).abs() < 1e-10);
        }
        // Reassembly fidelity.
        prop_assert_eq!(da.to_global(), a);
    }

    #[test]
    fn dot_and_axpy_match_serial(
        owner in proptest::collection::vec(0u32..3, 1..40),
        alpha in -3.0f64..3.0,
    ) {
        let n = owner.len();
        let xg: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let yg: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).sin()).collect();
        let l = Layout::from_part(owner, 3);
        let mut sim = Sim::new(3, MachineModel::default());
        let x = DistVec::from_global(l.clone(), &xg);
        let mut y = DistVec::from_global(l, &yg);
        y.axpy(&mut sim, alpha, &x);
        let expect: Vec<f64> = xg.iter().zip(&yg).map(|(a, b)| b + alpha * a).collect();
        let got = y.to_global();
        for (u, v) in got.iter().zip(&expect) {
            prop_assert!((u - v).abs() < 1e-12);
        }
        let d = y.dot(&mut sim, &x);
        let expect_dot: f64 = expect.iter().zip(&xg).map(|(a, b)| a * b).sum();
        prop_assert!((d - expect_dot).abs() < 1e-9 * (1.0 + expect_dot.abs()));
    }

    #[test]
    fn overlapped_spmv_matches_blocking_any_ownership(
        owner in proptest::collection::vec(0u32..4, 10..40),
        entries in proptest::collection::vec((0usize..10, 0usize..10, -5.0f64..5.0), 0..80),
    ) {
        let n = owner.len();
        let mut b = CooBuilder::new(n, n);
        for (i, j, v) in entries {
            if i < n && j < n {
                b.push(i, j, v);
            }
        }
        let a = b.build();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
        let l = Layout::from_part(owner, 4);
        for (y1, y2, info) in run_both_spmvs(&scalar(&a, &l), &x).iter() {
            prop_assert_eq!(
                info.interior_rows + info.boundary_rows,
                y1.len() as u64
            );
            for (u, v) in y1.iter().zip(y2) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn overlapped_spmv_matches_blocking_with_empty_ranks(
        owner in proptest::collection::vec(0u32..3, 5..30),
        entries in proptest::collection::vec((0usize..8, 0usize..8, -5.0f64..5.0), 0..60),
    ) {
        // Odd ranks of a 6-rank layout own nothing: the overlapped path
        // must handle zero-row ranks (empty interior and boundary classes)
        // without deadlocking the lockstep exchange.
        let owner: Vec<u32> = owner.into_iter().map(|r| 2 * r).collect();
        let n = owner.len();
        let mut b = CooBuilder::new(n, n);
        for (i, j, v) in entries {
            if i < n && j < n {
                b.push(i, j, v);
            }
        }
        let a = b.build();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let l = Layout::from_part(owner, 6);
        for (r, (y1, y2, info)) in run_both_spmvs(&scalar(&a, &l), &x).iter().enumerate() {
            if r % 2 == 1 {
                prop_assert_eq!(info.interior_rows + info.boundary_rows, 0u64);
                prop_assert!(y1.is_empty());
            }
            for (u, v) in y1.iter().zip(y2) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn overlapped_spmv_matches_blocking_all_boundary(
        k in 1usize..12,
        diag in 1.0f64..5.0,
    ) {
        // Alternating ownership of a cyclic bidiagonal matrix (n even):
        // every row references a column on the other rank, so the interior
        // class is empty everywhere and the whole product runs after
        // finish() — the degenerate worst case for overlap.
        let n = 2 * k;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, diag);
            b.push(i, (i + 1) % n, -1.0);
        }
        let a = b.build();
        let owner: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin()).collect();
        let l = Layout::from_part(owner, 2);
        for (y1, y2, info) in run_both_spmvs(&scalar(&a, &l), &x).iter() {
            prop_assert_eq!(info.interior_rows, 0u64);
            prop_assert_eq!(info.boundary_rows, y1.len() as u64);
            for (u, v) in y1.iter().zip(y2) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn overlapped_spmv_matches_blocking_promoted_any_ownership(
        vowner in proptest::collection::vec(0u32..4, 2..14),
        entries in proptest::collection::vec(
            (0usize..14, 0usize..14, 0usize..9, -5.0f64..5.0), 0..80),
        dropped in proptest::collection::vec(0u8..2, 42),
    ) {
        // A 3-dof operator over the dof layout of an arbitrary vertex
        // ownership, promoted to 3x3 blocks. Every vertex couples to the
        // next one through one scalar column only, and the dropped columns
        // lose their off-diagonal entries (as Dirichlet elimination does),
        // so ghost blocks are partial.
        let nv = vowner.len();
        let n = 3 * nv;
        let mut b = CooBuilder::new(n, n);
        for v in 0..nv {
            for i in 0..3 {
                b.push(3 * v + i, 3 * v + i, 4.0 + i as f64);
                b.push(3 * v + i, 3 * ((v + 1) % nv) + 1, -0.5);
            }
        }
        for (vi, vj, e, val) in entries {
            let (row, col) = (3 * vi + e / 3, 3 * vj + e % 3);
            if vi < nv && vj < nv && (vi == vj || dropped[col] == 0) {
                b.push(row, col, val);
            }
        }
        let a = b.build();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).cos()).collect();
        let l = Layout::expand_dofs(&Layout::from_part(vowner, 4), 3);
        let da = DistMatrix::from_global_blocked(&a, l.clone(), l.clone());
        prop_assert!(da.bsr3_routed());
        // The simulated product of the promoted operator, which the scalar
        // one computes too.
        let mut sim = Sim::new(4, MachineModel::default());
        let dx = DistVec::from_global(l.clone(), &x);
        let (mut yb, mut ys) = (DistVec::zeros(l.clone()), DistVec::zeros(l.clone()));
        da.spmv(&mut sim, &dx, &mut yb);
        scalar(&a, &l).spmv(&mut sim, &dx, &mut ys);
        let (yb, ys) = (yb.to_global(), ys.to_global());
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&yb), bits(&ys));
        for (r, (y1, y2, info)) in run_both_spmvs(&da, &x).iter().enumerate() {
            prop_assert_eq!(
                info.interior_rows + info.boundary_rows,
                y1.len() as u64
            );
            prop_assert_eq!(bits(y1), bits(y2));
            let expect: Vec<f64> = l.owned(r).iter().map(|&g| yb[g as usize]).collect();
            prop_assert_eq!(bits(y1), bits(&expect));
        }
    }

    #[test]
    fn bsr3_spmm_bitwise_per_column(
        entries in proptest::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 1..100),
        nb in 2usize..5,
        k in 1usize..6,
    ) {
        // Arbitrary sparsity: spmm on interleaved storage must be bitwise,
        // column for column, what k single spmvs produce.
        let n = 3 * nb;
        let mut b = CooBuilder::new(n, n);
        for (i, j, v) in entries {
            if i < n && j < n {
                b.push(i, j, v);
            }
        }
        let bsr = pmg_sparse::Bsr3Matrix::from_csr(&b.build());
        let x: Vec<f64> = (0..n * k).map(|i| ((i * 11 % 17) as f64 - 8.0) * 0.23).collect();
        let mut ym = vec![0.0; n * k];
        bsr.spmm(&x, &mut ym, k);
        for c in 0..k {
            let xc: Vec<f64> = (0..n).map(|i| x[i * k + c]).collect();
            let mut yc = vec![0.0; n];
            bsr.spmv(&xc, &mut yc);
            for (s, v) in yc.iter().enumerate() {
                prop_assert_eq!(ym[s * k + c].to_bits(), v.to_bits());
            }
        }
    }
}
