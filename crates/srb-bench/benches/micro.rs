//! Micro-benchmarks for the core data structures and the framework's hot
//! paths: R*-tree operations, Ir-lp constructions, grid lookups, and
//! server-side update handling. One [`time_row`] row each.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srb_bench::time_row;
use srb_core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, Server, ServerConfig};
use srb_geom::{
    irlp_circle, irlp_circle_complement, irlp_rect_complement_batch, irlp_ring, Circle,
    ClearanceObjective, OrdinaryPerimeter, Point, Rect, Ring,
};
use srb_index::{bulk_load, LeafEntry, RStarTree, TreeConfig};
use std::hint::black_box;

fn rng_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

fn bench_rtree() {
    let pts = rng_points(10_000, 1);
    time_row(
        "rtree/insert_10k",
        || pts.clone(),
        |pts| {
            let mut t = RStarTree::default();
            for (i, p) in pts.iter().enumerate() {
                t.insert(i as u64, Rect::point(*p));
            }
            t
        },
    );

    let entries: Vec<LeafEntry> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| LeafEntry { id: i as u64, rect: Rect::point(*p) })
        .collect();
    time_row(
        "rtree/bulk_load_10k",
        || (),
        |()| bulk_load(black_box(entries.clone()), TreeConfig::default()),
    );

    let mut tree = RStarTree::default();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(i as u64, Rect::centered(*p, 0.002, 0.002));
    }
    let q = Rect::centered(Point::new(0.5, 0.5), 0.05, 0.05);
    time_row("rtree/range_search", || (), |()| tree.search_vec(black_box(&q)));
    let q = Point::new(0.37, 0.61);
    time_row("rtree/knn_10", || (), |()| tree.nearest_iter(black_box(q)).take(10).count());
    let mut i = 0u64;
    time_row(
        "rtree/bottom_up_update",
        || (),
        |()| {
            let id = i % 10_000;
            let p = pts[id as usize];
            tree.update(id, Rect::centered(p, 0.0021, 0.0019));
            i += 1;
        },
    );
}

fn bench_irlp() {
    let cell = Rect::new(Point::new(0.4, 0.4), Point::new(0.42, 0.42));
    let p = Point::new(0.411, 0.413);

    let circle = Circle::new(Point::new(0.405, 0.405), 0.012);
    time_row(
        "irlp/circle",
        || (),
        |()| irlp_circle(black_box(&circle), p, &cell, &OrdinaryPerimeter),
    );
    let circle = Circle::new(Point::new(0.39, 0.39), 0.02);
    time_row(
        "irlp/circle_complement",
        || (),
        |()| irlp_circle_complement(black_box(&circle), p, &cell, &OrdinaryPerimeter),
    );
    let ring = Ring::new(Point::new(0.39, 0.39), 0.02, 0.04);
    time_row("irlp/ring", || (), |()| irlp_ring(black_box(&ring), p, &cell, &OrdinaryPerimeter));
    // What the engine runs: every region is scored under the clearance
    // objective (5 % of the cell), so each candidate family is a full
    // θ-search unless its envelope bound prunes it. Result objects of
    // order-sensitive kNN queries sit in rings a fraction of a percent to a
    // few percent of the cell thick; non-results beside a large quarantine
    // circle have a slab candidate for the arc search to beat.
    let clearance = ClearanceObjective::new(OrdinaryPerimeter, p, 0.05 * cell.width());
    let q = Point::new(0.37, 0.38);
    let d = q.dist(p);
    for (name, thickness) in
        [("irlp/ring_clr_thin_0.1pct", 2e-5), ("irlp/ring_clr_thin_5pct", 1e-3)]
    {
        let ring = Ring::new(q, d - 0.4 * thickness, d + 0.6 * thickness);
        time_row(name, || (), |()| irlp_ring(black_box(&ring), p, &cell, &clearance));
    }
    let ring = Ring::new(Point::new(0.39, 0.39), 0.02, 0.04);
    time_row("irlp/ring_clr_thick", || (), |()| irlp_ring(black_box(&ring), p, &cell, &clearance));
    // p is past the circle's top: slab ① spans the cell above it.
    let circle = Circle::new(Point::new(0.409, 0.35), 0.055);
    time_row(
        "irlp/complement_clr_slab",
        || (),
        |()| irlp_circle_complement(black_box(&circle), p, &cell, &clearance),
    );
    let circle = Circle::new(Point::new(0.39, 0.39), 0.02);
    time_row(
        "irlp/complement_clr_arc",
        || (),
        |()| irlp_circle_complement(black_box(&circle), p, &cell, &clearance),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let blocks: Vec<Rect> = (0..8)
        .map(|_| {
            let c = Point::new(0.4 + rng.gen::<f64>() * 0.02, 0.4 + rng.gen::<f64>() * 0.02);
            Rect::centered(c, 0.002, 0.002)
        })
        .filter(|r| !r.contains_point(p))
        .collect();
    time_row(
        "irlp/staircase_8_blocks",
        || (),
        |()| irlp_rect_complement_batch(black_box(&blocks), p, &cell, &OrdinaryPerimeter),
    );
}

fn bench_server() {
    let pts = rng_points(5_000, 3);

    let mut server = Server::new(ServerConfig::default());
    {
        let ps = pts.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        for (i, p) in pts.iter().enumerate() {
            server.add_object(ObjectId(i as u32), *p, &mut provider, 0.0).expect("fresh id");
        }
    }
    let mut rng = StdRng::seed_from_u64(5);
    time_row(
        "server/register_knn_query",
        || (),
        |()| {
            let ps = pts.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            let center = Point::new(rng.gen(), rng.gen());
            let resp = server.register_query(QuerySpec::knn(center, 5), &mut provider, 0.0);
            server.deregister_query(resp.id);
        },
    );

    let mut server = Server::new(ServerConfig::default());
    let mut world = pts.clone();
    {
        let ps = world.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        for (i, p) in world.iter().enumerate() {
            server.add_object(ObjectId(i as u32), *p, &mut provider, 0.0).expect("fresh id");
        }
        for i in 0..50 {
            let center = Point::new((i as f64 * 0.619) % 1.0, (i as f64 * 0.383) % 1.0);
            server.register_query(QuerySpec::knn(center, 5), &mut provider, 0.0);
        }
    }
    let mut rng = StdRng::seed_from_u64(11);
    let (mut now, mut seq, mut out) = (1.0, 0u64, Vec::new());
    time_row(
        "server/location_update",
        || (),
        |()| {
            now += 0.001;
            seq += 1;
            let i = rng.gen_range(0..world.len());
            let p = world[i];
            world[i] = Point::new(
                (p.x + rng.gen::<f64>() * 0.01 - 0.005).clamp(0.0, 1.0),
                (p.y + rng.gen::<f64>() * 0.01 - 0.005).clamp(0.0, 1.0),
            );
            let ps = world.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            let report = SequencedUpdate { id: ObjectId(i as u32), pos: world[i], seq };
            out.clear();
            server.ingest(&[report], &mut provider, now, &mut out);
        },
    );
}

fn main() {
    bench_rtree();
    bench_irlp();
    bench_server();
}
