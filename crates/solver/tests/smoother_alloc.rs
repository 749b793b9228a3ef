//! Steady-state smoothing must not allocate: the smoother runs on every
//! level of every V-cycle. Chebyshev keeps its scratch (`r`, `d`, the flop
//! charge vectors) in a workspace the first `smooth` on a layout builds;
//! block Jacobi keeps its residual and per-rank gather buffers from
//! construction. Every later sweep must be allocation-free — and so must
//! the numeric half of a Newton re-setup: a value-only
//! `DistMatrix::refresh_from_global` and the `BlockJacobi::refactor` that
//! follows it on an unchanged pattern.
//!
//! Asserted with a counting global allocator, so this lives in its own
//! integration-test binary (the `#[global_allocator]` must not leak into
//! other tests). The operator under smooth is a diagonal `SimOperator`
//! whose `spmv` writes parts in place — what `DistMatrix::spmv` allocates
//! for its ghost values is its own business, not what these tests pin.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pmg_parallel::{DistVec, Layout, MachineModel, Sim, SimOperator};
use pmg_solver::{BlockJacobi, Chebyshev};
use pmg_sparse::CooBuilder;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is process-global: one test at a time, so that one test's
/// set-up is never charged to the other's measured sweeps.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over a few trials of `f`. The counter is
/// process-global, so a concurrent harness thread can charge unrelated
/// allocations to one trial; a hot path that really allocates does so in
/// *every* trial, so the minimum still catches regressions.
fn min_allocations_during(mut f: impl FnMut()) -> u64 {
    (0..5).map(|_| allocations_during(&mut f)).min().unwrap()
}

/// Diagonal operator with allocation-free `spmv`: `y[i] = d[i] * x[i]`
/// written straight into the output parts, flop charge precomputed.
struct DiagOp {
    layout: Arc<Layout>,
    diag: Vec<Vec<f64>>,
    flops: Vec<u64>,
}

impl DiagOp {
    fn new(layout: Arc<Layout>, global_diag: &[f64]) -> DiagOp {
        let nranks = layout.num_ranks();
        let mut diag = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let d: Vec<f64> = layout
                .owned(r)
                .iter()
                .map(|&g| global_diag[g as usize])
                .collect();
            diag.push(d);
        }
        let flops = diag.iter().map(|d| d.len() as u64).collect();
        DiagOp {
            layout,
            diag,
            flops,
        }
    }
}

impl SimOperator for DiagOp {
    fn row_layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    fn spmv(&self, sim: &mut Sim, x: &DistVec, y: &mut DistVec) {
        for (r, d) in self.diag.iter().enumerate() {
            for ((yo, xi), di) in y.part_mut(r).iter_mut().zip(x.part(r)).zip(d) {
                *yo = xi * di;
            }
        }
        sim.compute(&self.flops);
    }
}

#[test]
fn steady_state_smooth_allocates_nothing() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 64;
    let nranks = 2;
    let l = Layout::block(n, nranks);
    let mut sim = Sim::new(nranks, MachineModel::default());

    // The Chebyshev setup (diagonal extraction, spectrum estimate) runs on
    // a DistMatrix; the smoothing under test runs on the no-alloc DiagOp
    // with the same diagonal.
    let mut b = CooBuilder::new(n, n);
    let dg: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    for (i, &v) in dg.iter().enumerate() {
        b.push(i, i, v);
    }
    let a = b.build();
    let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
    let cheb = Chebyshev::new(&mut sim, &da, 3, 20.0);
    let op = DiagOp::new(l.clone(), &dg);

    let bg: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
    let rhs = DistVec::from_global(l.clone(), &bg);
    let mut x = DistVec::zeros(l.clone());

    // Warm up: the first smooth on this layout builds the workspace (r, d,
    // flop charges) — that one may allocate.
    cheb.smooth(&mut sim, &op, &rhs, &mut x, 1);

    let n_alloc = min_allocations_during(|| {
        cheb.smooth(&mut sim, &op, &rhs, &mut x, 2);
    });
    assert_eq!(
        n_alloc, 0,
        "steady-state Chebyshev smoothing allocated {n_alloc} times"
    );
}

#[test]
fn block_jacobi_sweeps_allocate_nothing() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 96;
    let nranks = 2;
    let l = Layout::block(n, nranks);
    let mut sim = Sim::new(nranks, MachineModel::default());

    // Tridiagonal blocks for the factors (three sub-domains a rank), the
    // no-alloc DiagOp with the same diagonal for the residual refresh.
    let mut b = CooBuilder::new(n, n);
    let dg: Vec<f64> = (0..n).map(|i| 3.0 + (i % 7) as f64 * 0.25).collect();
    for (i, &v) in dg.iter().enumerate() {
        b.push(i, i, v);
        if i + 1 < n {
            b.push(i, i + 1, -1.0);
            b.push(i + 1, i, -1.0);
        }
    }
    let da = pmg_parallel::DistMatrix::from_global(&b.build(), l.clone(), l.clone());
    let bj = BlockJacobi::new(&da, 60.0, 0.6);
    assert_eq!(bj.num_blocks(0), 3);
    let op = DiagOp::new(l.clone(), &dg);

    let bg: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
    let rhs = DistVec::from_global(l.clone(), &bg);
    let mut x = DistVec::zeros(l.clone());

    // The one sweep that may allocate is the first.
    bj.smooth(&mut sim, &op, &rhs, &mut x, 1);

    let n_alloc = min_allocations_during(|| {
        bj.smooth_from_zero(&mut sim, &op, &rhs, &mut x, 2);
        bj.smooth(&mut sim, &op, &rhs, &mut x, 1);
    });
    assert_eq!(
        n_alloc, 0,
        "steady-state block-Jacobi smoothing allocated {n_alloc} times"
    );
}

#[test]
fn same_pattern_refresh_and_refactor_allocate_nothing() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 32 vertices of 3 dofs in a chain, dense 3x3 couplings: two ranks,
    // blocked storage, ghosts on both, two sub-domains a rank.
    let nb = 32;
    let operator = |shift: f64| {
        let mut b = CooBuilder::new(3 * nb, 3 * nb);
        for v in 0..nb {
            for i in 0..3 {
                for w in v.saturating_sub(1)..(v + 2).min(nb) {
                    for j in 0..3 {
                        let d = if (v, i) == (w, j) { 8.0 + shift } else { -0.5 };
                        b.push(3 * v + i, 3 * w + j, d);
                    }
                }
            }
        }
        b.build()
    };
    let l = Layout::block(3 * nb, 2);
    let mut da = pmg_parallel::DistMatrix::from_global_blocked(&operator(0.0), l.clone(), l);
    assert!(da.bsr3_routed());
    let mut bj = BlockJacobi::new(&da, 40.0, 0.6);
    assert_eq!(bj.num_blocks(0), 2);

    let states = [operator(1.0), operator(2.0)];
    let mut round = 0;
    let n_alloc = min_allocations_during(|| {
        assert!(da.refresh_from_global(&states[round % 2]));
        bj.refactor(&da);
        round += 1;
    });
    assert_eq!(
        n_alloc, 0,
        "a value-only operator refresh + smoother refactor allocated {n_alloc} times"
    );
}
