//! Counting-allocator pin for the memory plane: once capacities have warmed
//! up, a steady-state sequenced-update batch performs **zero** heap
//! allocations — at one shard (R\*-tree and runtime-dispatched backend)
//! and on the sequential 2-shard path alike, beside range rectangles (the
//! §5.3 staircase) and inside an order-sensitive kNN query's rings (the
//! §4.3 patch) included.
//!
//! The allocator counters are thread-local (const-initialized `Cell`s, so
//! reading them never allocates and other test threads cannot pollute a
//! measurement). The workload keeps objects jittering around fixed homes in
//! the interiors of distinct grid cells, with the only query far away: after
//! warmup every batch reuses the scratch arenas, the R*-tree updates stay on
//! the in-place path, and the response buffers retain their capacity.

use srb_core::{
    FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ShardedServer, UpdateResponse,
};
use srb_geom::{Point, Rect};
use srb_index::{NearestScratch, SpatialBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; only bumps a thread-local
// counter on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
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
    let mut server = ShardedServer::new(ServerConfig::default(), 1);
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    // A query far from every object: present (so the query plane is
    // exercised) but never affected by the jitter.
    let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
    server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);

    let extra = measure(|updates, out| {
        server.handle_sequenced_updates_into(updates, &mut provider, 1.0, out);
    });
    assert_eq!(extra, 0, "steady-state one-shard batch must be allocation-free");
}

/// The enum-dispatched backend must hit the same zero: `DynBackend`'s
/// per-op `match` adds branch cost, never heap traffic, so the dispatch
/// seam stays invisible to the memory plane.
#[test]
fn dyn_one_shard_steady_state_batches_do_not_allocate() {
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server =
        ShardedServer::<srb_core::DynBackend>::with_backend(ServerConfig::default(), 1);
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
    server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);

    let extra = measure(|updates, out| {
        server.handle_sequenced_updates_into(updates, &mut provider, 1.0, out);
    });
    assert_eq!(extra, 0, "steady-state DynBackend batch must be allocation-free");
}

#[test]
fn sharded_steady_state_batches_do_not_allocate() {
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server = ShardedServer::new(ServerConfig::default(), 2);
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
    server.register_query(QuerySpec::Range { rect: far }, &mut provider, 0.0);

    let extra = measure(|updates, out| {
        server.handle_sequenced_updates_into(updates, &mut provider, 1.0, out);
    });
    assert_eq!(extra, 0, "steady-state sharded batch must be allocation-free");
}

/// Range-query-dense: four range rectangles sit in the corners of every
/// object's cell, none holding the object, so every region is cut by the
/// §5.3 staircase over four blocks — on the lane's reused working memory.
#[test]
fn range_dense_steady_state_batches_do_not_allocate() {
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    let mut server = ShardedServer::new(ServerConfig::default(), 1);
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
        for (dx, dy) in [(0.007, 0.007), (0.007, -0.007), (-0.007, -0.007), (-0.007, 0.007)] {
            let corner = Point::new(home(i).x + dx, home(i).y + dy);
            let rect = Rect::centered(corner, 0.002, 0.002);
            server.register_query(QuerySpec::Range { rect }, &mut provider, 0.0);
        }
    }
    let extra = measure(|updates, out| {
        server.handle_sequenced_updates_into(updates, &mut provider, 1.0, out);
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
    let mut server = ShardedServer::new(ServerConfig::default(), 1);
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
        server.handle_sequenced_updates_into(&updates, &mut provider, 1.0, &mut out);
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

/// The kNN leg of the allocation-free story: once the scratch frontier has
/// warmed up, a full best-first browse through `nearest_iter_with` performs
/// zero heap allocations, on both spatial backends.
#[test]
fn nearest_iter_with_steady_state_does_not_allocate() {
    fn check<B: SpatialBackend>(backend: &mut B, label: &str) {
        for i in 0..64u64 {
            let p = Point::new(0.013 * (i % 8) as f64 + 0.05, 0.011 * (i / 8) as f64 + 0.05);
            backend.insert(i, Rect::point(p));
        }
        let mut scratch = NearestScratch::new();
        let q = Point::new(0.4, 0.6);
        // Warmup: grows the frontier buffer (and any per-browse telemetry
        // buffers) to steady-state capacity.
        for _ in 0..4 {
            assert_eq!(backend.nearest_iter_with(q, &mut scratch).count(), 64);
        }
        let before = allocs();
        let mut n = 0u64;
        let mut last = 0.0f64;
        for nb in backend.nearest_iter_with(q, &mut scratch) {
            assert!(nb.dist >= last);
            last = nb.dist;
            n += 1;
        }
        assert_eq!(n, 64);
        assert_eq!(allocs(), before, "steady-state {label} kNN browse must be allocation-free");
    }
    check(&mut srb_core::RStarTree::new(srb_core::TreeConfig::default()), "rstar");
    check(&mut srb_core::UniformGrid::new(srb_core::GridConfig::default(), Rect::UNIT), "grid");
    // And through the enum dispatch seam, on both inner structures.
    check(
        &mut srb_core::DynBackend::build(
            &srb_core::BackendConfig::RStar(srb_core::TreeConfig::default()),
            Rect::UNIT,
        ),
        "dyn-rstar",
    );
    check(
        &mut srb_core::DynBackend::build(
            &srb_core::BackendConfig::Grid(srb_core::GridConfig::default()),
            Rect::UNIT,
        ),
        "dyn-grid",
    );
}
