//! Memory-footprint contract of the partition-at-ingest setup path.
//!
//! A counting `#[global_allocator]` tracks every allocation of 16 KiB or
//! more made by a rank's thread while its hierarchy builds. A pure size
//! threshold cannot *semantically* tell an owned share from a global
//! array, so the assertions are comparative, which a threshold can check
//! honestly:
//!
//! * per-rank setup allocation **shrinks with the rank count** at a fixed
//!   problem (a path that materialized the global mesh/matrix/vectors on
//!   every rank would stay flat),
//! * no single tracked allocation on any rank at p = 4 reaches the global
//!   fine matrix's smallest component array — the direct "no rank ever
//!   held the fine CSR" witness.
//!
//! Tracking is per-thread: rank work on `LocalTransport` threads is
//! counted, anything a kernel offloads to the shared rayon pool is not —
//! identically at every rank count, so the comparisons stay fair.

use pmg_comm::{CommError, LocalTransport, Transport};
use pmg_parallel::Layout;
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{classify_mesh, plan_ingest, MgOptions, RankHierarchy};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

const TRACK_THRESHOLD: usize = 16 * 1024;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static TOTAL: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        if size < TRACK_THRESHOLD || !TRACKING.get() {
            return;
        }
        TOTAL.set(TOTAL.get() + size as u64);
        LARGEST.set(LARGEST.get().max(size as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: AllocLayout) -> *mut u8 {
        Self::record(l.size());
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: AllocLayout) -> *mut u8 {
        Self::record(l.size());
        System.alloc_zeroed(l)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, l: AllocLayout) {
        System.dealloc(ptr, l)
    }

    unsafe fn realloc(&self, ptr: *mut u8, l: AllocLayout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, l, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with this thread's large-allocation tracking on; returns
/// (result, total tracked bytes, largest single tracked allocation).
fn tracked<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    TOTAL.set(0);
    LARGEST.set(0);
    TRACKING.set(true);
    let r = f();
    TRACKING.set(false);
    (r, TOTAL.get(), LARGEST.get())
}

fn fine_problem(n: usize) -> (CsrMatrix, pmg_mesh::Mesh, pmg_partition::Graph) {
    let m = pmg_mesh::generators::cube(n);
    let g = m.vertex_graph();
    let nv = m.num_vertices();
    let mut b = CooBuilder::new(nv, nv);
    for v in 0..nv {
        b.push(v, v, g.degree(v) as f64 + 1.0);
        for &w in g.neighbors(v) {
            b.push(v, w as usize, -1.0);
        }
    }
    (b.build(), m, g)
}

/// Build the hierarchy on `p` ranks and return each rank's (total tracked
/// bytes, largest tracked allocation) for the build window alone — the
/// owned-rows input is assembled before tracking starts — and the bytes of
/// the coarse-level (levels >= 1) operator rows the rank keeps, at CSR cost
/// (12 B per stored entry, 32 B per row).
fn build_footprint(
    a: &CsrMatrix,
    mesh: &pmg_mesh::Mesh,
    g: &pmg_partition::Graph,
    p: usize,
    opts: MgOptions,
) -> Vec<(u64, u64, usize)> {
    let classes = classify_mesh(mesh, 0.7);
    let plan = plan_ingest(&mesh.coords, g, &classes, &[], p, &opts);
    let layout = Layout::from_part(plan.part().to_vec(), p);
    let (a_ref, plan_ref, layout_ref) = (a, &plan, &layout);
    LocalTransport::run_ranks(p, move |mut t| {
        let rank = t.rank();
        let a_owned = a_ref.extract_rows(layout_ref.owned(rank));
        let (setup, total, largest) = tracked(|| {
            RankHierarchy::build_from_shards(&mut t, &plan_ref.seeds[rank], &a_owned, opts).unwrap()
        });
        assert!(setup.num_levels() >= 2, "hierarchy must coarsen");
        let coarse = (1..setup.num_levels())
            .map(|l| setup.level_nnz_local(l) * 12 + setup.level_rows_local(l) * 32)
            .sum();
        Ok::<_, CommError>((total, largest, coarse))
    })
    .into_iter()
    .map(|r| r.unwrap())
    .collect()
}

#[test]
fn sharded_setup_allocation_shrinks_with_ranks() {
    let (a, mesh, g) = fine_problem(20); // 8000 vertices, scalar
    let opts = MgOptions {
        dofs_per_vertex: 1,
        coarse_dof_threshold: 400,
        ..Default::default()
    };

    let p1 = build_footprint(&a, &mesh, &g, 1, opts);
    let p4 = build_footprint(&a, &mesh, &g, 4, opts);
    let p1_total = p1[0].0;
    let p4_worst = p4.iter().map(|&(t, _, _)| t).max().unwrap();
    assert!(
        p4_worst as f64 <= 0.6 * p1_total as f64,
        "per-rank setup allocation must shrink with ranks: \
         p=1 rank total {p1_total} B, p=4 worst rank {p4_worst} B"
    );

    // Coarse levels are owned shares, not replicas: the worst rank at p = 4
    // keeps at most 0.6x of what the single rank (every coarse row) keeps.
    let (replicated, p4_coarse) = (p1[0].2, p4.iter().map(|f| f.2).max().unwrap());
    assert!(
        p4_coarse as f64 <= 0.6 * replicated as f64,
        "owned coarse share at p=4 is {p4_coarse} B of {replicated} B replicated"
    );

    // Direct witness at p = 4: nothing as large as even the global fine
    // matrix's column-index array was ever allocated on a rank.
    let global_cols_bytes = (a.nnz() * std::mem::size_of::<usize>()) as u64;
    for (rank, &(_, largest, _)) in p4.iter().enumerate() {
        assert!(
            largest < global_cols_bytes,
            "rank {rank} allocated {largest} B in one block — \
             global fine col_idx is {global_cols_bytes} B"
        );
    }
}
