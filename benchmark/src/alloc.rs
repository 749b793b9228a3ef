//! A counting global allocator for the `mem.alloc_*` rows.
//!
//! Counting is off outside [`counted`], where each allocation costs one
//! relaxed load on top of the system allocator, so plain runs are not
//! taxed. Counts cover every thread of the process; on the single-rank
//! workloads they repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

#[inline]
fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        record(l.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        record(l.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, l: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            FREED.fetch_add(l.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, l) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        if COUNTING.load(Ordering::Relaxed) {
            FREED.fetch_add(l.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { System.realloc(ptr, l, new_size) }
    }
}

/// Run `f` with counting on: `(result, bytes requested, allocation calls)`.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (r, bytes, calls, _) = counted_net(f);
    (r, bytes, calls)
}

/// [`counted`], plus the bytes still allocated when `f` returns (requested
/// minus freed inside `f`): the resident size of what `f` built, provided
/// `f` frees nothing it did not allocate.
pub fn counted_net<R>(f: impl FnOnce() -> R) -> (R, u64, u64, u64) {
    BYTES.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    FREED.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::Relaxed);
    (
        r,
        bytes,
        CALLS.load(Ordering::Relaxed),
        bytes.saturating_sub(FREED.load(Ordering::Relaxed)),
    )
}
