//! What an assembly context keeps and what a warm rank assembly allocates.
//!
//! `FemProblem` stores its symbolic data at vertex granularity (a value-free
//! vertex pattern and one scatter position per element vertex pair), so
//! on the 9.8k-dof spheres it keeps about 10 MB, almost all of it the
//! geometry cache and the two history buffers. A rank's context holds only
//! its owned rows, so a warm `assemble_owned_local` allocates the rows it
//! returns, the force vector and the element chunk buffers, and nothing
//! else.
//!
//! Measured with a counting global allocator that counts only on a thread
//! that has switched it on, so this lives in its own integration-test
//! binary (the `#[global_allocator]` must not leak into other tests) and
//! the harness's own threads do not disturb a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pmg_fem::{FemProblem, LinearElastic, Material, RankAssembly};
use pmg_geometry::Vec3;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn count(cell: &'static std::thread::LocalKey<Cell<u64>>, size: usize) {
    if COUNTING.with(Cell::get) {
        cell.with(|c| c.set(c.get() + size as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREED, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&FREED, layout.size());
        count(&ALLOCATED, new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns its result,
/// the bytes allocated and the bytes still live at its end.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let start = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let allocated = ALLOCATED.with(Cell::get) - start.0;
    let freed = FREED.with(Cell::get) - start.1;
    (out, allocated, allocated as i64 - freed as i64)
}

/// Elements per assembly chunk in `FemProblem` (its private `CHUNK`).
const CHUNK: usize = 2048;

#[test]
fn spheres_problem_keeps_its_vertex_pattern_and_history_only() {
    // The 9.8k-dof spheres of the `cold10k` benchmark.
    let mesh = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams {
        n_surf: 6,
        ..pmg_mesh::SpheresParams::ladder(1)
    });
    assert_eq!(mesh.num_dof(), 9792);
    let mats = pmg_fem::table1_materials();
    // The mesh and the material table are moved in, so what stays live
    // after `new` is what the problem built.
    let (fem, _, kept) = measured(|| FemProblem::new(mesh, mats));
    let bytes = fem.memory_bytes();
    println!("FemProblem::new keeps {kept} B; memory_bytes {bytes} B");
    assert!(bytes <= 11_000_000, "the problem keeps {bytes} B");
    // Besides the counted buffers, only the quadrature rule and the
    // geometry cache's `Arc` header stay.
    let untracked = kept - bytes as i64;
    assert!(
        (0..=1024).contains(&untracked),
        "new keeps {kept} B against memory_bytes {bytes} B"
    );
}

#[test]
fn warm_rank_assembly_allocates_only_what_it_returns() {
    // Rank 0 of the `spmd2_17k` block: 18³ vertices, RCB over two ranks.
    let block = pmg_mesh::generators::block(17, 17, 17, Vec3::splat(1.0), |_| 0);
    let part = pmg_partition::recursive_coordinate_bisection(&block.coords, 2);
    let shard = &pmg_mesh::shard_mesh(&block, &part, 2)[0];
    let elastic: Vec<Arc<dyn Material>> = vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))];
    let mut rank = RankAssembly::from_shard(shard, &elastic);
    let u_local = vec![0.0; rank.num_local_dof()];
    let _ = rank.assemble_owned_local(&u_local, block.num_dof());

    let ((k, f), allocated, _) = measured(|| rank.assemble_owned_local(&u_local, block.num_dof()));
    assert_eq!(k.nrows(), 3 * shard.num_owned());
    assert_eq!(f.len(), k.nrows());
    let rows = size_of_val(k.row_ptr()) + size_of_val(k.col_idx()) + size_of_val(k.vals());
    let edof = 3 * shard.mesh.kind.nodes();
    let chunk = CHUNK.min(shard.mesh.num_elements());
    let buffers = chunk * (edof * edof + edof) * size_of::<f64>();
    let expected = (rows + size_of_val(&f[..]) + buffers) as u64;
    println!(
        "warm assemble_owned_local allocated {allocated} B; rows {rows} B, buffers {buffers} B"
    );
    assert!(
        allocated <= expected,
        "a warm rank assembly allocated {allocated} B, more than the {expected} B it returns and uses"
    );
}
