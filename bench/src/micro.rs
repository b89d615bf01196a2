//! Outside-timed replays of small seeded op streams into the public
//! functions of single layers: `srb-index` backends, `srb-geom` Ir-lp
//! constructions, `srb-core::QueryProcessor` candidate lookup, and the
//! `srb-durable` log writer. They move when that layer's code changes and
//! only then; the traced run reports them beside the span self-times.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use srb_core::{
    AdaptiveConfig, BackendConfig, DynBackend, GridConfig, ObjectId, Quarantine, QueryProcessor,
    QuerySpec, QueryState, RStarTree, SpatialBackend, TreeConfig, UniformGrid,
};
use srb_geom::{
    irlp_circle, irlp_circle_complement, irlp_rect_complement_batch, irlp_ring, Circle,
    OrdinaryPerimeter, Point, Rect, Ring,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Entries in the replayed index, and half-extent of their rectangles
/// (the size of a typical safe region under the M = 50 query grid).
const INDEX_ENTRIES: usize = 8_000;
const ENTRY_HALF: f64 = 0.002;
const REPEATS: usize = 5;

/// Median over [`REPEATS`] of the mean nanoseconds `op` takes in a pass of
/// `ops` calls; `op` gets the call's index.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let passes: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::median(&passes)
}

fn points(n: usize, rng: &mut ChaCha8Rng) -> Vec<Point> {
    (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

/// `(update_ns, search_ns, nearest_ns)` of backend `B` built from `config`.
fn index_ops<B: SpatialBackend>(config: &BackendConfig, seed: u64) -> (f64, f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut at = points(INDEX_ENTRIES, &mut rng);
    let mut index = B::build(config, Rect::UNIT);
    for (i, p) in at.iter().enumerate() {
        index.insert(i as u64, Rect::centered(*p, ENTRY_HALF, ENTRY_HALF));
    }
    // Mostly sub-region moves with a cell-crossing jump now and then, as
    // reporting objects make.
    let steps: Vec<Point> = (0..INDEX_ENTRIES)
        .map(|_| {
            let reach = if rng.gen::<f64>() < 0.1 { 0.02 } else { 0.002 };
            Point::new((rng.gen::<f64>() - 0.5) * reach, (rng.gen::<f64>() - 0.5) * reach)
        })
        .collect();
    let update = ns_per_op(INDEX_ENTRIES, |i| {
        let p = at[i] + steps[i];
        at[i] = Point::new(p.x.clamp(0.0, 1.0), p.y.clamp(0.0, 1.0));
        black_box(index.update(i as u64, Rect::centered(at[i], ENTRY_HALF, ENTRY_HALF)));
    });
    let probes = points(2_000, &mut rng);
    let search = ns_per_op(probes.len(), |i| {
        let mut hits = 0u32;
        index.search(&Rect::centered(probes[i], 0.0025, 0.0025), &mut |_| hits += 1);
        black_box(hits);
    });
    let nearest = ns_per_op(probes.len(), |i| {
        black_box(index.nearest_iter(probes[i]).take(10).count());
    });
    (update, search, nearest)
}

/// Runs every replay; returns `(metric name, value)` pairs. `scratch` is a
/// directory the log-writer replay may create files in.
pub fn run(seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let (u, s, n) = index_ops::<RStarTree>(&BackendConfig::RStar(TreeConfig::default()), seed);
    out.extend([("index.rstar.update_ns", u), ("index.rstar.search_ns", s)]);
    out.push(("index.rstar.nearest_ns", n));
    let (u, s, n) = index_ops::<UniformGrid>(&BackendConfig::Grid(GridConfig::default()), seed);
    out.extend([("index.grid.update_ns", u), ("index.grid.search_ns", s)]);
    out.push(("index.grid.nearest_ns", n));
    // The runtime-dispatched seam on its initial (R*-tree) kind: the gap to
    // `index.rstar.*` is the dispatch tax.
    let (u, s, _) =
        index_ops::<DynBackend>(&BackendConfig::Adaptive(AdaptiveConfig::default()), seed);
    out.extend([("index.dyn.update_ns", u), ("index.dyn.search_ns", s)]);

    // Ir-lp constructions inside one grid cell, as a safe-region
    // computation issues them.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6972_6c70); // "irlp"
    let cell = Rect::new(Point::new(0.4, 0.4), Point::new(0.42, 0.42));
    let inside: Vec<Point> = (0..1_000)
        .map(|_| Point::new(0.405 + 0.01 * rng.gen::<f64>(), 0.405 + 0.01 * rng.gen::<f64>()))
        .collect();
    let circle = Circle::new(Point::new(0.41, 0.41), 0.012);
    out.push((
        "geom.irlp_circle_ns",
        ns_per_op(inside.len(), |i| {
            black_box(irlp_circle(black_box(&circle), inside[i], &cell, &OrdinaryPerimeter));
        }),
    ));
    let ring = Ring::new(Point::new(0.39, 0.39), 0.02, 0.045);
    out.push((
        "geom.irlp_ring_ns",
        ns_per_op(inside.len(), |i| {
            black_box(irlp_ring(black_box(&ring), inside[i], &cell, &OrdinaryPerimeter));
        }),
    ));
    let far = Circle::new(Point::new(0.39, 0.39), 0.02);
    out.push((
        "geom.irlp_circle_complement_ns",
        ns_per_op(inside.len(), |i| {
            black_box(irlp_circle_complement(
                black_box(&far),
                inside[i],
                &cell,
                &OrdinaryPerimeter,
            ));
        }),
    ));
    let blocks: Vec<Rect> = (0..8)
        .map(|_| {
            let c = Point::new(0.4 + 0.02 * rng.gen::<f64>(), 0.4 + 0.003 * rng.gen::<f64>());
            Rect::centered(c, 0.001, 0.001)
        })
        .collect();
    out.push((
        "geom.staircase_ns",
        ns_per_op(inside.len(), |i| {
            black_box(irlp_rect_complement_batch(
                black_box(&blocks),
                inside[i],
                &cell,
                &OrdinaryPerimeter,
            ));
        }),
    ));

    // Affected-query lookup over a query table of the `churn` density.
    let mut processor = QueryProcessor::new(Rect::UNIT, 50);
    for centre in points(400, &mut rng) {
        let id = processor.alloc_id();
        let quarantine = Quarantine::Circle(Circle::new(centre, 0.01 + 0.02 * rng.gen::<f64>()));
        let state =
            QueryState { spec: QuerySpec::knn(centre, 4), results: vec![ObjectId(0)], quarantine };
        processor.install(id, state);
    }
    let moves = points(4_000, &mut rng);
    let mut candidates = Vec::new();
    out.push((
        "processor.candidates_ns",
        ns_per_op(moves.len() - 1, |i| {
            processor.candidates_into(moves[i], moves[i + 1], &mut candidates);
            black_box(candidates.len());
        }),
    ));

    // The log writer: buffered appends, then append + fsync.
    let log_path = scratch.join("micro-log");
    let payload = [0x5au8; 64];
    let mut log = srb_durable::log::LogWriter::create(&log_path, 0, 0)
        .expect("the scratch directory is writable");
    let append = ns_per_op(4_000, |_| {
        log.append(&payload).expect("append buffers in memory");
    });
    let fsync = ns_per_op(20, |_| {
        log.append(&payload).expect("append buffers in memory");
        log.sync().expect("the scratch directory is writable");
    });
    out.extend([("durable.append_ns", append), ("durable.fsync_us", fsync / 1e3)]);
    drop(log);
    let _ = std::fs::remove_file(&log_path);
    out
}
