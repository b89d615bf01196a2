//! Counting-allocator pin for the memory plane: once capacities have warmed
//! up, a steady-state sequenced-update batch performs **zero** heap
//! allocations — on the R\*-tree, through the ledger's entry point too,
//! beside range rectangles (the §5.3 staircase) and inside an
//! order-sensitive kNN query's rings (the §4.3 patch) included.
//!
//! The allocator counters are thread-local (const-initialized `Cell`s, so
//! reading them never allocates and other test threads cannot pollute a
//! measurement). Beside the allocation count, a live-bytes counter pins the
//! engine's per-object footprint: the bytes a populated server frees when
//! it is dropped. The workload keeps objects jittering around fixed homes in
//! the interiors of distinct grid cells, with the only query far away: after
//! warmup every batch reuses the scratch arenas, the R*-tree updates stay on
//! the in-place path, and the response buffers retain their capacity.

use srb_core::{
    FnProvider, ObjectId, QuerySpec, SequencedUpdate, Server, ServerConfig, UpdateResponse,
};
use srb_geom::{Point, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    LIVE.with(|c| c.set(c.get() + bytes as i64));
}

fn shrink(bytes: usize) {
    LIVE.with(|c| c.set(c.get() - bytes as i64));
}

// SAFETY: delegates every operation to `System`; only bumps thread-local
// counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn live_bytes() -> i64 {
    LIVE.with(|c| c.get())
}

const N_OBJECTS: usize = 12;
const WARMUP_BATCHES: u64 = 32;
const MEASURED_BATCHES: u64 = 32;

/// Home position of object `i`: the center of a distinct grid cell
/// (`grid_m = 50` means 0.02-wide cells with centers at `0.01 + 0.02 k`),
/// so the ±0.003 jitter never crosses a cell boundary.
fn home(i: usize) -> Point {
    Point::new(0.01 + 0.02 * (3 * i) as f64, 0.01 + 0.02 * (2 * i + 1) as f64)
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

/// Runs the workload through `step` (one call per batch, appending into the
/// reused response buffer) and returns the number of heap allocations made
/// by the measured batches.
fn measure(mut step: impl FnMut(&[SequencedUpdate], &mut Vec<(ObjectId, UpdateResponse)>)) -> u64 {
    let mut out: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    for b in 0..WARMUP_BATCHES {
        out.clear();
        step(&batch(b), &mut out);
        assert_eq!(out.len(), N_OBJECTS, "every updater gets a response");
    }
    let before = allocs();
    for b in WARMUP_BATCHES..WARMUP_BATCHES + MEASURED_BATCHES {
        let updates = batch(b);
        let baseline = allocs();
        out.clear();
        step(&updates, &mut out);
        assert_eq!(allocs(), baseline, "batch {b} allocated on the steady-state path");
        assert_eq!(out.len(), N_OBJECTS);
    }
    // `batch()` itself allocates the update vector; everything else must not.
    allocs() - before - MEASURED_BATCHES
}

#[test]
fn one_shard_steady_state_batches_do_not_allocate() {
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server = Server::new(ServerConfig::default());
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    // A query far from every object: present (so the query plane is
    // exercised) but never affected by the jitter.
    let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
    server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);

    let extra = measure(|updates, out| {
        server.ingest(updates, &mut provider, 1.0, out);
    });
    assert_eq!(extra, 0, "steady-state batch must be allocation-free");
}

/// The ledger's entry point.
#[test]
fn sharded_steady_state_batches_do_not_allocate() {
    // The entry ROADMAP 3(a) deletes, built as `bench/` builds it:
    // `with_backend`, `with_threads` and
    // `handle_sequenced_updates_parallel_into` over a `TableProvider`.
    use srb_core::{RStarTree, ShardedServer, TableProvider};
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server =
        ShardedServer::<RStarTree>::with_backend(ServerConfig::default(), 1).with_threads(2);
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
    server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);
    let homes: Vec<Point> = (0..N_OBJECTS).map(home).collect();
    let table = TableProvider(&homes);
    let extra = measure(|updates, out| {
        server.handle_sequenced_updates_parallel_into(updates, &table, 1.0, out);
    });
    assert_eq!(extra, 0, "steady-state batch through the ledger's entry must be allocation-free");
}

/// Range-query-dense: four range rectangles sit in the corners of every
/// object's cell, none holding the object, so every region is cut by the
/// §5.3 staircase over four blocks — on the thread's reused working memory.
#[test]
fn range_dense_steady_state_batches_do_not_allocate() {
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server = Server::new(ServerConfig::default());
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
        for (dx, dy) in [(0.007, 0.007), (0.007, -0.007), (-0.007, -0.007), (-0.007, 0.007)] {
            let corner = Point::new(home(i).x + dx, home(i).y + dy);
            let rect = Rect::centered(corner, 0.002, 0.002);
            server.register_query(QuerySpec::Range { rect }, &mut provider, 0.0);
        }
    }
    let extra = measure(|updates, out| {
        server.ingest(updates, &mut provider, 1.0, out);
        let cut = |(_, r): &(ObjectId, UpdateResponse)| r.safe_region.width() < 0.015;
        assert!(out.iter().all(cut), "every region is cut by its cell's rectangles");
    });
    assert_eq!(extra, 0, "steady-state staircase batch must be allocation-free");
}

/// Ordered kNN: three of one query's five results jitter in the same batch
/// without changing the order, between two results that stay put — three
/// stayers merged into a base sequence, no probe, no result change.
#[test]
fn ordered_knn_steady_state_batches_do_not_allocate() {
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server = Server::new(ServerConfig::default());
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    // The homes lie 0.07 apart along one line away from the origin, so the
    // ±0.003 jitter never brings two of them near the same distance.
    let q = server.register_query(QuerySpec::knn(Point::new(0.0, 0.0), 5), &mut provider, 0.0).id;
    let movers = |b: u64| -> Vec<SequencedUpdate> {
        let report =
            |i: usize| SequencedUpdate { id: ObjectId(i as u32), pos: pos_at(i, b), seq: b + 1 };
        [0, 2, 4].into_iter().map(report).collect()
    };
    let mut out: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    for b in 0..WARMUP_BATCHES + MEASURED_BATCHES {
        let updates = movers(b);
        let (before, probes) = (allocs(), server.costs().probes);
        out.clear();
        server.ingest(&updates, &mut provider, 1.0, &mut out);
        if b >= WARMUP_BATCHES {
            assert_eq!(allocs(), before, "batch {b} allocated on the steady-state path");
            assert_eq!(server.costs().probes, probes, "a stayer between its neighbours");
        }
        assert_eq!(out.len(), 3);
        assert!(out[0].1.changes.is_empty(), "the order stands");
    }
    let want: Vec<ObjectId> = (0..5).map(ObjectId).collect();
    assert_eq!(server.results(q), Some(&want[..]));
    assert_eq!(server.work().ordering_fallbacks, 0);
}

/// The engine's memory per object: a server over 4 096 objects with dense
/// ids and a few range and kNN queries frees, when dropped, at most
/// `MAX_BYTES_PER_OBJECT` bytes per object. It frees 148: the object
/// table's 64-byte slots and occupancy bits, the R\*-tree's 4-byte
/// id→leaf slots, its leaves' entry buffers and nodes, and the rest of the
/// engine's per-object state. The bound is that value plus under 5 %, so a
/// structure that grows per object fails it.
#[test]
fn per_object_footprint_is_pinned() {
    const N: u32 = 4_096;
    const MAX_BYTES_PER_OBJECT: i64 = 155;
    let mut rng = srb_cases::Rng(0x5eed_2005);
    let homes: Vec<Point> = (0..N).map(|_| Point::new(rng.unit(), rng.unit())).collect();
    let mut provider = FnProvider(|id: ObjectId| homes[id.index()]);
    let mut server = Server::new(ServerConfig::default());
    for (i, &p) in homes.iter().enumerate() {
        server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
    }
    for _ in 0..4 {
        let c = Point::new(rng.unit(), rng.unit());
        let rect = Rect::centered(c, 0.05, 0.05);
        server.register_query(QuerySpec::Range { rect }, &mut provider, 0.0);
        let center = Point::new(rng.unit(), rng.unit());
        server.register_query(QuerySpec::knn(center, 8), &mut provider, 0.0);
    }

    let before = live_bytes();
    drop(server);
    let per_object = (before - live_bytes()) / i64::from(N);
    println!("a server frees {per_object} bytes per object");
    assert!(
        per_object <= MAX_BYTES_PER_OBJECT,
        "{per_object} bytes per object, over the pinned {MAX_BYTES_PER_OBJECT}"
    );
}
