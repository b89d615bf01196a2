//! Counting-allocator pin for the threaded batch path: once capacities
//! have warmed up, a batch through the 4-shard / 4-thread
//! [`ShardedServer::handle_sequenced_updates_parallel_into`] path allocates
//! what forking its three helper threads costs and nothing else — across
//! *every* thread — whatever the batch size, and so does a one-shard,
//! two-thread batch of several chunks with its one helper; the same fleets
//! at one thread allocate nothing. And an engine at rest owns no thread.
//!
//! Unlike `alloc_steady.rs` (whose counters are thread-local so parallel
//! test threads cannot pollute a measurement), this pin must observe the
//! helper threads, so its counter is a process-wide atomic. That is why it
//! lives in its own test binary with a single `#[test]`: cargo runs test
//! *binaries* sequentially, so nothing else allocates — or starts a thread
//! — while the batches are measured.

use srb_core::{
    FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ShardedServer, TableProvider,
    UpdateResponse,
};
use srb_geom::{Point, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Process-wide allocation count: helpers allocate on their own threads,
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

/// Heap allocations of `std::thread::scope` itself (its shared scope
/// state) and of each `Builder::spawn_scoped`: thread handle, result packet
/// and boxed closure, plus two that libtest's output capture adds to every
/// thread a captured test spawns. Read off this test on Rust 1.95 / Linux:
/// a 4-shard batch allocated 6 at two threads and 16 at four (4 and 10
/// under `--nocapture`), 32 batches out of 32. The assertion is an upper
/// bound, so a run without capture, or a standard library that spawns more
/// cheaply, passes.
const SCOPE_ALLOCS: u64 = 1;
const SPAWN_ALLOCS: u64 = 5;

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
/// reports through an engine of `shards` shards at `threads`, every shard
/// busy.
fn measured(n: usize, shards: usize, threads: usize) -> Vec<u64> {
    let mut server = ShardedServer::new(ServerConfig::default(), shards).with_threads(threads);
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
    assert!(server.shards().iter().all(|s| s.object_count() > 0), "every shard has objects");
    let positions: Vec<Point> = (0..n).map(home).collect();
    let provider = TableProvider(&positions);

    let mut out: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    // Warmup resolves every metric slot and grows the chunk, per-thread,
    // response and record buffers to their steady-state capacities.
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

    let small = measured(N_OBJECTS, 4, 4);
    let large = measured(4 * N_OBJECTS, 4, 4);
    assert!(small[0] <= SCOPE_ALLOCS + 3 * SPAWN_ALLOCS, "{} allocations per batch", small[0]);
    assert!(small[0] > 0, "four shards' chunks at four threads fork helpers");
    assert!(small.iter().all(|&a| a == small[0]), "steady state: {small:?}");
    assert_eq!(large, small, "the count must not depend on the batch size");

    // Two chunks of one shard and eight: one helper either way.
    let two = measured(4 * N_OBJECTS, 1, 2);
    let eight = measured(16 * N_OBJECTS, 1, 2);
    assert!(two[0] <= SCOPE_ALLOCS + SPAWN_ALLOCS, "{} allocations per batch", two[0]);
    assert!(two[0] > 0, "a one-shard round of several chunks forks a helper");
    assert!(two.iter().all(|&a| a == two[0]), "steady state: {two:?}");
    assert_eq!(eight, two, "the count must not depend on the batch size");

    // A joined helper may still be on its way out of the kernel's table
    // for a moment; a standing worker would never leave it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while live_threads() != threads_before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(live_threads(), threads_before, "a threaded batch left a thread behind");

    for (n, shards) in [(N_OBJECTS, 4), (4 * N_OBJECTS, 4), (16 * N_OBJECTS, 1)] {
        let caller_only = measured(n, shards, 1);
        let what = format!("one thread, {shards} shards, {n} reports");
        assert!(caller_only.iter().all(|&a| a == 0), "{what}: {caller_only:?}");
    }
}
