//! Counting-allocator pin for the bench's threaded entry: once capacities
//! have warmed up, a batch through
//! [`ShardedServer::handle_sequenced_updates_parallel_into`] allocates
//! nothing on *any* thread — asked for four threads, for two and for one —
//! whatever the batch size. One
//! thread computes every safe region, so the batch forks no helper, and no
//! batch leaves a thread behind. The entry is the ledger's; this pin goes
//! with it (ROADMAP 3(a), after 2(a)), and `alloc_steady.rs` pins `ingest`.
//!
//! Unlike `alloc_steady.rs` (whose counters are thread-local so parallel
//! test threads cannot pollute a measurement), this pin must see an
//! allocation made on any thread — a helper the engine started would be
//! invisible to a thread-local counter — so its counter is a process-wide
//! atomic. That is why it lives in its own test binary with a single
//! `#[test]`: cargo runs test *binaries* sequentially, so nothing else
//! allocates — or starts a thread — while the batches are measured.

use srb_core::{
    FnProvider, ObjectId, QuerySpec, RStarTree, SequencedUpdate, ServerConfig, ShardedServer,
    TableProvider, UpdateResponse,
};
use srb_geom::{Point, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Process-wide allocation count: an allocation on any thread counts.
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
/// (`grid_m = 50` means 0.02-wide cells with centers at `0.01 + 0.02 k`;
/// every other cell of every other row), so the ±0.003 jitter never
/// crosses a cell boundary.
fn home(i: usize) -> Point {
    Point::new(0.01 + 0.02 * (2 * (i % 24)) as f64, 0.01 + 0.02 * (2 * (i / 24) + 1) as f64)
}

/// Position of object `i` in batch `b`: alternating jitter around home.
fn pos_at(i: usize, b: u64) -> Point {
    let h = home(i);
    let d = if b & 1 == 0 { 0.003 } else { -0.003 };
    Point::new(h.x + d, h.y - d)
}

fn batch(n: usize, b: u64) -> Vec<SequencedUpdate> {
    (0..n)
        .map(|i| SequencedUpdate { id: ObjectId(i as u32), pos: pos_at(i, b), seq: b + 1 })
        .collect()
}

/// Heap allocations of each of `MEASURED_BATCHES` warmed-up batches of `n`
/// reports through an engine asked for `threads`.
fn measured(n: usize, threads: usize) -> Vec<u64> {
    let config = ServerConfig::default();
    let mut server = ShardedServer::<RStarTree>::with_backend(config, 1).with_threads(threads);
    {
        let mut provider = FnProvider(|id: ObjectId| home(id.index()));
        for i in 0..n {
            server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
        }
        // A query far from every object: present (so the query plane is
        // exercised) but never affected by the jitter.
        let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
        server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);
    }
    let positions: Vec<Point> = (0..n).map(home).collect();
    let provider = TableProvider(&positions);

    let mut out: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    // Warmup resolves every metric slot and grows the scratch, response and
    // record buffers to their steady-state capacities.
    for b in 0..WARMUP_BATCHES {
        out.clear();
        server.handle_sequenced_updates_parallel_into(&batch(n, b), &provider, b as f64, &mut out);
        assert_eq!(out.len(), n, "every updater gets a response");
    }
    (WARMUP_BATCHES..WARMUP_BATCHES + MEASURED_BATCHES)
        .map(|b| {
            let updates = batch(n, b);
            out.clear();
            let before = allocs();
            server.handle_sequenced_updates_parallel_into(&updates, &provider, b as f64, &mut out);
            let spent = allocs() - before;
            assert_eq!(out.len(), n);
            spent
        })
        .collect()
}

/// Threads of this process (Linux; elsewhere the check is skipped).
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(Iterator::count)
}

#[test]
fn threaded_steady_state_batches_allocate_only_their_spawns() {
    let threads_before = live_threads();

    for (n, threads) in [
        (N_OBJECTS, 4),
        (4 * N_OBJECTS, 4),
        (4 * N_OBJECTS, 2),
        (16 * N_OBJECTS, 2),
        (N_OBJECTS, 1),
        (4 * N_OBJECTS, 1),
        (16 * N_OBJECTS, 1),
    ] {
        let spent = measured(n, threads);
        let what = format!("{threads} threads asked, {n} reports");
        assert!(spent.iter().all(|&a| a == 0), "{what}: the batch spawns nothing: {spent:?}");
    }

    assert_eq!(live_threads(), threads_before, "a batch left a thread behind");
}
