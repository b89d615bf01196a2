//! Counting-allocator pin for the pipelined front-end: once capacities
//! have warmed up, a steady-state batch through the 4-shard / 4-worker
//! [`ShardedServer::handle_sequenced_updates_parallel_into`] path performs
//! **zero** heap allocations — across *every* thread, coordinator and
//! shard workers alike.
//!
//! Unlike `alloc_steady.rs` (whose counters are thread-local so parallel
//! test threads cannot pollute a measurement), this pin must observe the
//! worker threads, so its counter is a process-wide atomic. That is why it
//! lives in its own test binary with a single `#[test]`: cargo runs test
//! *binaries* sequentially, so nothing else allocates while the batches
//! are measured.

use srb_core::{
    FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ShardedServer, TableProvider,
    UpdateResponse,
};
use srb_geom::{Point, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Process-wide allocation count: workers allocate on their own threads,
/// so a thread-local counter would miss exactly the path under test.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; only bumps an atomic
// counter on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const N_OBJECTS: usize = 16;
const WARMUP_BATCHES: u64 = 48;
const MEASURED_BATCHES: u64 = 32;

/// Home position of object `i`: the center of a distinct grid cell
/// (`grid_m = 50` means 0.02-wide cells with centers at `0.01 + 0.02 k`),
/// so the ±0.003 jitter never crosses a cell boundary.
fn home(i: usize) -> Point {
    Point::new(0.01 + 0.02 * (2 * i) as f64, 0.01 + 0.02 * (2 * i + 1) as f64)
}

/// Position of object `i` in batch `b`: alternating jitter around home.
fn pos_at(i: usize, b: u64) -> Point {
    let h = home(i);
    let d = if b & 1 == 0 { 0.003 } else { -0.003 };
    Point::new(h.x + d, h.y - d)
}

fn batch(b: u64) -> Vec<SequencedUpdate> {
    (0..N_OBJECTS)
        .map(|i| SequencedUpdate { id: ObjectId(i as u32), pos: pos_at(i, b), seq: b + 1 })
        .collect()
}

#[test]
fn pipelined_steady_state_batches_do_not_allocate() {
    let mut server = ShardedServer::new(ServerConfig::default(), 4).with_threads(4);
    {
        let mut provider = FnProvider(|id: ObjectId| home(id.index()));
        for i in 0..N_OBJECTS {
            server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
        }
        // A query far from every object: present (so the query plane is
        // exercised) but never affected by the jitter.
        let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
        server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);
    }

    // The coordinator copies this table once per batch into the one
    // allocation every worker reads, so the pin also covers that refill
    // (clear + extend into warmed capacity).
    let positions: Vec<Point> = (0..N_OBJECTS).map(home).collect();
    let provider = TableProvider(&positions);

    let mut out: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    // Warmup spawns the worker pool, resolves every metric slot, and
    // grows the position table and each job's partition and response
    // buffers to their steady-state capacities.
    for b in 0..WARMUP_BATCHES {
        out.clear();
        server.handle_sequenced_updates_parallel_into(&batch(b), &provider, b as f64, &mut out);
        assert_eq!(out.len(), N_OBJECTS, "every updater gets a response");
    }

    let before = allocs();
    for b in WARMUP_BATCHES..WARMUP_BATCHES + MEASURED_BATCHES {
        let updates = batch(b);
        let baseline = allocs();
        out.clear();
        server.handle_sequenced_updates_parallel_into(&updates, &provider, b as f64, &mut out);
        assert_eq!(allocs(), baseline, "batch {b} allocated on the pipelined steady-state path");
        assert_eq!(out.len(), N_OBJECTS);
    }
    // `batch()` itself allocates the update vector; everything else —
    // submission, worker processing, chunk streaming, merge — must not.
    let extra = allocs() - before - MEASURED_BATCHES;
    assert_eq!(extra, 0, "steady-state pipelined batch must be allocation-free");
}
