//! Criterion micro-benchmarks for the core data structures and the
//! framework's hot paths: R*-tree operations, Ir-lp constructions, grid
//! lookups, and server-side update handling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

fn bench_rtree(c: &mut Criterion) {
    let pts = rng_points(10_000, 1);
    let mut g = c.benchmark_group("rtree");

    g.bench_function("insert_10k", |b| {
        b.iter_batched(
            || pts.clone(),
            |pts| {
                let mut t = RStarTree::default();
                for (i, p) in pts.iter().enumerate() {
                    t.insert(i as u64, Rect::point(*p));
                }
                t
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("bulk_load_10k", |b| {
        let entries: Vec<LeafEntry> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| LeafEntry { id: i as u64, rect: Rect::point(*p) })
            .collect();
        b.iter(|| bulk_load(black_box(entries.clone()), TreeConfig::default()))
    });

    let mut tree = RStarTree::default();
    for (i, p) in pts.iter().enumerate() {
        tree.insert(i as u64, Rect::centered(*p, 0.002, 0.002));
    }
    g.bench_function("range_search", |b| {
        let q = Rect::centered(Point::new(0.5, 0.5), 0.05, 0.05);
        b.iter(|| tree.search_vec(black_box(&q)))
    });
    g.bench_function("knn_10", |b| {
        let q = Point::new(0.37, 0.61);
        b.iter(|| tree.nearest_iter(black_box(q)).take(10).count())
    });
    g.bench_function("bottom_up_update", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let id = i % 10_000;
            let p = pts[id as usize];
            tree.update(id, Rect::centered(p, 0.0021, 0.0019));
            i += 1;
        })
    });
    g.finish();
}

fn bench_irlp(c: &mut Criterion) {
    let mut g = c.benchmark_group("irlp");
    let cell = Rect::new(Point::new(0.4, 0.4), Point::new(0.42, 0.42));
    let p = Point::new(0.411, 0.413);

    g.bench_function("circle", |b| {
        let circle = Circle::new(Point::new(0.405, 0.405), 0.012);
        b.iter(|| irlp_circle(black_box(&circle), p, &cell, &OrdinaryPerimeter))
    });
    g.bench_function("circle_complement", |b| {
        let circle = Circle::new(Point::new(0.39, 0.39), 0.02);
        b.iter(|| irlp_circle_complement(black_box(&circle), p, &cell, &OrdinaryPerimeter))
    });
    g.bench_function("ring", |b| {
        let ring = Ring::new(Point::new(0.39, 0.39), 0.02, 0.04);
        b.iter(|| irlp_ring(black_box(&ring), p, &cell, &OrdinaryPerimeter))
    });
    // What the engine runs: every region is scored under the clearance
    // objective (5 % of the cell), so each candidate family is a full
    // θ-search unless its envelope bound prunes it. Result objects of
    // order-sensitive kNN queries sit in rings a fraction of a percent to a
    // few percent of the cell thick; non-results beside a large quarantine
    // circle have a slab candidate for the arc search to beat.
    let clearance = ClearanceObjective::new(OrdinaryPerimeter, p, 0.05 * cell.width());
    let q = Point::new(0.37, 0.38);
    let d = q.dist(p);
    for (name, thickness) in [("ring_clr_thin_0.1pct", 2e-5), ("ring_clr_thin_5pct", 1e-3)] {
        g.bench_function(name, |b| {
            let ring = Ring::new(q, d - 0.4 * thickness, d + 0.6 * thickness);
            b.iter(|| irlp_ring(black_box(&ring), p, &cell, &clearance))
        });
    }
    g.bench_function("ring_clr_thick", |b| {
        let ring = Ring::new(Point::new(0.39, 0.39), 0.02, 0.04);
        b.iter(|| irlp_ring(black_box(&ring), p, &cell, &clearance))
    });
    g.bench_function("complement_clr_slab", |b| {
        // p is past the circle's top: slab ① spans the cell above it.
        let circle = Circle::new(Point::new(0.409, 0.35), 0.055);
        b.iter(|| irlp_circle_complement(black_box(&circle), p, &cell, &clearance))
    });
    g.bench_function("complement_clr_arc", |b| {
        let circle = Circle::new(Point::new(0.39, 0.39), 0.02);
        b.iter(|| irlp_circle_complement(black_box(&circle), p, &cell, &clearance))
    });
    g.bench_function("staircase_8_blocks", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let blocks: Vec<Rect> = (0..8)
            .map(|_| {
                let c = Point::new(0.4 + rng.gen::<f64>() * 0.02, 0.4 + rng.gen::<f64>() * 0.02);
                Rect::centered(c, 0.002, 0.002)
            })
            .filter(|r| !r.contains_point(p))
            .collect();
        b.iter(|| irlp_rect_complement_batch(black_box(&blocks), p, &cell, &OrdinaryPerimeter))
    });
    g.finish();
}

fn bench_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    g.sample_size(20);
    let pts = rng_points(5_000, 3);

    g.bench_function("register_knn_query", |b| {
        let mut server = Server::new(ServerConfig::default());
        {
            let ps = pts.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            for (i, p) in pts.iter().enumerate() {
                server.add_object(ObjectId(i as u32), *p, &mut provider, 0.0).expect("fresh id");
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let ps = pts.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            let center = Point::new(rng.gen(), rng.gen());
            let resp = server.register_query(QuerySpec::knn(center, 5), &mut provider, 0.0);
            server.deregister_query(resp.id);
        })
    });

    g.bench_function("location_update", |b| {
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
        b.iter(|| {
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
        })
    });
    g.finish();
}

criterion_group!(benches, bench_rtree, bench_irlp, bench_server);
criterion_main!(benches);
