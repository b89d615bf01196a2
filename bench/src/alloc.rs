//! The bench binary's counting allocator: live heap bytes and the number
//! of allocations, process-wide. The driver thread is blocked while an
//! engine call runs, so the allocation count taken around a call is the
//! engine's alone (coordinator and shard workers together).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts. Install it in a binary
/// with `#[global_allocator]`; without that the counters stay at zero.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics and
// guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // and `new_size` is the caller's, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) made so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}
