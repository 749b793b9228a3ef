//! A Newton re-setup on an unchanged pattern allocates next to nothing:
//! level 0 takes the caller's values in place, each level's planned
//! Galerkin product reads that level's tiles and writes the next level's
//! in place, the smoothers refactor their planned blocks, and the coarsest
//! level's direct solve gathers into the matrix it kept from the first
//! update. Two updates are measured: a symmetric one, as a Newton tangent
//! is, whose coarsest factor is refactored in its own Cholesky storage,
//! and an unsymmetric one, whose coarsest operator fails the factor's
//! symmetry guard, so the next solve is a breakdown. What is left is row
//! scratch and small per-level bookkeeping.
//!
//! Asserted with a counting global allocator, so this lives in its own
//! integration-test binary (the `#[global_allocator]` must not leak into
//! other tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pmg_bench::spheres_first_solve_of;
use pmg_sparse::CsrMatrix;
use prometheus::{Prometheus, PrometheusOptions};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn one_rank_update_allocates_under_a_megabyte() {
    // The 9.8k-dof spheres of the `newton10k` benchmark, at one rank.
    let sys = spheres_first_solve_of(&pmg_mesh::SpheresParams {
        n_surf: 6,
        ..pmg_mesh::SpheresParams::ladder(1)
    });
    let a = &sys.matrix;
    let mut solver = Prometheus::from_mesh(&sys.mesh, a, PrometheusOptions::default());
    assert!(solver.mg.num_levels() >= 3, "need a real hierarchy");
    // A caller's fresh assembly: new values on the same pattern, built
    // outside the measurement. `scale(i, j, q)` scales entry `(i, j)`,
    // stored at position `q`.
    let reassembled = |scale: &dyn Fn(usize, usize, usize) -> f64| {
        let rows = (a.row_ptr().windows(2).enumerate())
            .flat_map(|(i, w)| std::iter::repeat_n(i, w[1] - w[0]));
        let mut vals = a.vals().to_vec();
        for (q, ((v, &j), i)) in vals.iter_mut().zip(a.col_idx()).zip(rows).enumerate() {
            *v *= scale(i, j, q);
        }
        CsrMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            vals,
        )
    };
    let symmetric = reassembled(&|i, j, _| 1.0 + 1e-3 * ((i + j) % 7) as f64);
    let unsymmetric = reassembled(&|_, _, q| 1.0 + 1e-3 * (q % 7) as f64);
    // The first update may size the smoothers' scratch and the coarse
    // solve's gather matrix.
    solver.update_matrix(a);

    let mut measured = |next: &CsrMatrix, what: &str| {
        let before = BYTES.load(Ordering::Relaxed);
        LARGEST.store(0, Ordering::Relaxed);
        solver.update_matrix(next);
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        let largest = LARGEST.load(Ordering::Relaxed);
        println!("{what} update_matrix: {bytes} B allocated, largest allocation {largest} B");
        (bytes, largest)
    };

    // The Cholesky factor of the coarsest level is refactored in place:
    // 60 448 B, largest piece 21 888 B, none as large as a tenth of that
    // level's 171² dense matrix.
    let (bytes, largest) = measured(&symmetric, "symmetric");
    assert!(bytes <= 66_500, "a symmetric update allocated {bytes} B");
    assert!(
        largest < 23_392,
        "a symmetric update allocated {largest} B at once"
    );

    // The coarsest operator is not symmetric, so it has no factor and the
    // next solve stops as a breakdown: 56 336 B, largest piece 21 888 B.
    let (bytes, largest) = measured(&unsymmetric, "unsymmetric");
    assert!(bytes <= 65_000, "a value-only update allocated {bytes} B");
    assert!(
        largest < 23_392,
        "a value-only update allocated {largest} B at once"
    );
    let b = vec![1.0; a.nrows()];
    let (x, res) = solver.solve(&b, None, 1e-8);
    assert!(res.breakdown && !res.converged, "{res:?}");
    assert!(x.iter().all(|&v| v == 0.0), "x untouched");
}
