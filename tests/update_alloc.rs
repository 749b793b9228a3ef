//! A Newton re-setup on an unchanged pattern allocates next to nothing:
//! level 0 takes the caller's values in place, each level's planned
//! Galerkin product reads that level's tiles and writes the next level's
//! in place, the smoothers refactor their planned blocks, and the coarsest
//! level's direct solve gathers into the matrix it kept from the first
//! update (here its Cholesky factor falls back to an LU in that matrix:
//! this update's values are not symmetric). What is left is per-thread
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
    // outside the measurement.
    let mut vals = a.vals().to_vec();
    vals.iter_mut()
        .enumerate()
        .for_each(|(q, v)| *v *= 1.0 + 1e-3 * (q % 7) as f64);
    let next = CsrMatrix::from_parts(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        vals,
    );
    // The first update may size the smoothers' scratch and the coarse
    // solve's gather matrix.
    solver.update_matrix(a);

    // A one-thread pool, as the benchmark runs: a larger pool allocates
    // its own bookkeeping per parallel region, and each thread in flight
    // its own row scratch.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let before = BYTES.load(Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    pool.install(|| solver.update_matrix(&next));
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    let largest = LARGEST.load(Ordering::Relaxed);
    println!("update_matrix: {bytes} B allocated, largest allocation {largest} B");
    // 58 808 B, largest piece 21 888 B; 526 680 B and 233 928 B (the
    // coarsest level's 171² dense gather, then its LU copy) before the
    // coarse factor was refactored in place.
    assert!(bytes <= 65_000, "a value-only update allocated {bytes} B");
    assert!(
        largest < 233_928,
        "a value-only update allocated {largest} B at once"
    );
}
