//! End-to-end correctness of the SRB framework against a brute-force oracle.
//!
//! This is the paper's central claim (§1): *as long as every client reports
//! when it leaves its safe region, every registered query's monitored result
//! is exact at all times*. We simulate clients faithfully (report exactly
//! when outside the safe region, answer probes with true positions) and
//! compare the server's result sets against brute-force recomputation after
//! every step.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srb_core::{
    FnProvider, ObjectId, Quarantine, QueryId, QuerySpec, SequencedUpdate, ServerConfig,
    ShardedServer,
};
use srb_geom::{Point, Rect};

struct World {
    positions: Vec<Point>,
}

impl World {
    fn brute_range(&self, rect: &Rect) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = (0..self.positions.len() as u32)
            .map(ObjectId)
            .filter(|o| rect.contains_point(self.positions[o.index()]))
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_knn(&self, q: Point, k: usize) -> Vec<ObjectId> {
        let mut v: Vec<(f64, ObjectId)> = self
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| (p.dist(q), ObjectId(i as u32)))
            .collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        v.into_iter().take(k).map(|(_, o)| o).collect()
    }
}

struct Workload {
    ranges: Vec<(QueryId, Rect)>,
    knns: Vec<(QueryId, Point, usize, bool)>, // (id, center, k, order_sensitive)
}

fn setup(seed: u64, n: usize, config: ServerConfig) -> (World, ShardedServer, Workload, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World { positions: Vec::new() };
    for _ in 0..n {
        world.positions.push(Point::new(rng.gen::<f64>(), rng.gen::<f64>()));
    }
    let mut server = ShardedServer::new(config, 1);
    {
        let positions = world.positions.clone();
        let mut provider = FnProvider(move |id: ObjectId| positions[id.index()]);
        for i in 0..n {
            server
                .add_object(ObjectId(i as u32), world.positions[i], &mut provider, 0.0)
                .expect("fresh id");
        }
    }
    let mut ranges = Vec::new();
    let mut knns = Vec::new();
    {
        let positions = world.positions.clone();
        let mut provider = FnProvider(move |id: ObjectId| positions[id.index()]);
        for i in 0..6 {
            let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            let half = 0.02 + 0.05 * rng.gen::<f64>();
            let rect = Rect::centered(c, half, half).intersection(&Rect::UNIT).unwrap();
            let resp = server.register_query(QuerySpec::range(rect), &mut provider, 0.0);
            ranges.push((resp.id, rect));
            let qp = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            let k = 1 + (i % 5);
            let order_sensitive = i % 2 == 0;
            let spec = if order_sensitive {
                QuerySpec::knn(qp, k)
            } else {
                QuerySpec::knn_unordered(qp, k)
            };
            let resp = server.register_query(spec, &mut provider, 0.0);
            knns.push((resp.id, qp, k, order_sensitive));
        }
    }
    (world, server, Workload { ranges, knns }, rng)
}

fn check_all(world: &World, server: &ShardedServer, wl: &Workload, step: usize) {
    for &(qid, rect) in &wl.ranges {
        let mut got = server.results(qid).unwrap().to_vec();
        got.sort_unstable();
        let want = world.brute_range(&rect);
        assert_eq!(got, want, "range {qid} wrong at step {step}");
    }
    for &(qid, center, k, order_sensitive) in &wl.knns {
        let got = server.results(qid).unwrap().to_vec();
        let want = world.brute_knn(center, k);
        if order_sensitive {
            assert_eq!(got, want, "ordered kNN {qid} wrong at step {step}");
        } else {
            let mut g = got.clone();
            let mut w = want.clone();
            g.sort_unstable();
            w.sort_unstable();
            assert_eq!(g, w, "unordered kNN {qid} wrong at step {step}");
        }
        // Quarantine invariants: results inside, non-results outside.
        if let Some(Quarantine::Circle(c)) = server.quarantine(qid) {
            for (i, p) in world.positions.iter().enumerate() {
                let oid = ObjectId(i as u32);
                let inside = c.contains(*p);
                let is_result = got.contains(&oid);
                if is_result {
                    assert!(inside, "result {oid} outside quarantine of {qid} at step {step}");
                } else {
                    assert!(
                        !inside || !order_sensitive,
                        "non-result {oid} inside quarantine of {qid} at step {step}"
                    );
                }
            }
        }
    }
}

fn run_protocol(seed: u64, config: ServerConfig, steps: usize, max_step: f64) {
    let n = 120;
    let (mut world, mut server, wl, mut rng) = setup(seed, n, config);
    check_all(&world, &server, &wl, 0);
    for step in 1..=steps {
        // Move objects one at a time at strictly increasing micro-instants
        // and let each report immediately when it finds itself outside its
        // safe region. This respects the paper's §3 sequential-processing
        // assumption, and the micro-times keep the discrete jumps honest
        // with respect to the configured maximum speed (an object's jump of
        // up to `max_step` happens over 1/n of a time unit, so callers must
        // configure `max_speed >= n * max_step`).
        for i in 0..n {
            let now = (step - 1) as f64 + (i + 1) as f64 / n as f64;
            // Fire deferred probes that came due before this instant.
            {
                let positions = world.positions.clone();
                let mut provider = FnProvider(move |id: ObjectId| positions[id.index()]);
                server.process_deferred(&mut provider, now);
            }
            let dx = (rng.gen::<f64>() - 0.5) * 2.0 * max_step / 2f64.sqrt();
            let dy = (rng.gen::<f64>() - 0.5) * 2.0 * max_step / 2f64.sqrt();
            let p = world.positions[i];
            world.positions[i] = Point::new((p.x + dx).clamp(0.0, 1.0), (p.y + dy).clamp(0.0, 1.0));
            let oid = ObjectId(i as u32);
            let sr = server.safe_region(oid).unwrap();
            let pos = world.positions[i];
            if !sr.contains_point(pos) {
                let positions = world.positions.clone();
                let mut provider = FnProvider(move |id: ObjectId| positions[id.index()]);
                let report = SequencedUpdate { id: oid, pos, seq: step as u64 };
                let mut grants = Vec::new();
                server.handle_sequenced_updates_into(&[report], &mut provider, now, &mut grants);
                assert!(
                    grants[0].0 == oid && grants[0].1.safe_region.contains_point(pos),
                    "new safe region excludes the reporter at step {step}"
                );
            }
        }
        check_all(&world, &server, &wl, step);
        if step % 25 == 0 {
            server.check_invariants();
        }
    }
    // The protocol must actually exercise the machinery.
    let costs = server.costs();
    assert!(costs.source_updates > 0, "no source updates happened");
}

#[test]
fn oracle_default_config() {
    run_protocol(42, ServerConfig::default(), 150, 0.02);
}

#[test]
fn oracle_with_reachability() {
    // V must truly bound the jump speed: max_step over 1/n of a time unit.
    let cfg = ServerConfig { max_speed: Some(0.02 * 121.0), ..Default::default() };
    run_protocol(7, cfg, 150, 0.02);
}

#[test]
fn oracle_with_weighted_perimeter() {
    let cfg = ServerConfig { steadiness: Some(0.5), ..Default::default() };
    run_protocol(13, cfg, 150, 0.02);
}

#[test]
fn oracle_with_both_enhancements() {
    let cfg = ServerConfig::enhanced(0.05 * 121.0, 0.8);
    run_protocol(99, cfg, 120, 0.05);
}

#[test]
fn oracle_coarse_grid() {
    let cfg = ServerConfig { grid_m: 5, ..Default::default() };
    run_protocol(5, cfg, 100, 0.03);
}

#[test]
fn oracle_fine_grid() {
    let cfg = ServerConfig { grid_m: 100, ..Default::default() };
    run_protocol(11, cfg, 80, 0.02);
}

#[test]
fn oracle_large_steps() {
    // Objects teleport far each step — stresses reinsertion paths and
    // cross-cell updates.
    run_protocol(3, ServerConfig::default(), 60, 0.3);
}

#[test]
fn deregistered_query_stops_constraining() {
    let (world, mut server, wl, _rng) = setup(21, 50, ServerConfig::default());
    let (qid, _, _, _) = wl.knns[0];
    assert!(server.deregister_query(qid));
    assert!(!server.deregister_query(qid), "double deregister must fail");
    assert!(server.results(qid).is_none());
    // Remaining queries still fine.
    for &(rid, rect) in &wl.ranges {
        let mut got = server.results(rid).unwrap().to_vec();
        got.sort_unstable();
        assert_eq!(got, world.brute_range(&rect));
    }
}

#[test]
fn probes_are_lazy_far_objects_never_probed() {
    // Objects strung out along a line, one per grid cell. A 2NN query at the
    // left end must only ever probe objects near the decision boundary —
    // the lazy-probe discipline of §4.2 guarantees the tail is untouched.
    use std::cell::RefCell;
    let mut server = ShardedServer::with_defaults();
    let positions: Vec<Point> =
        (0..18).map(|i| Point::new(0.05 + 0.05 * (i as f64), 0.51)).collect();
    let probed: RefCell<Vec<u32>> = RefCell::new(Vec::new());
    {
        let ps = positions.clone();
        let pr = &probed;
        let mut provider = FnProvider(move |id: ObjectId| {
            pr.borrow_mut().push(id.0);
            ps[id.index()]
        });
        for i in 0..18u32 {
            server
                .add_object(ObjectId(i), positions[i as usize], &mut provider, 0.0)
                .expect("fresh id");
        }
        probed.borrow_mut().clear();
        let resp =
            server.register_query(QuerySpec::knn(Point::new(0.0, 0.51), 2), &mut provider, 0.0);
        assert_eq!(resp.results, vec![ObjectId(0), ObjectId(1)]);
    }
    let probed = probed.into_inner();
    assert!(
        probed.iter().all(|&id| id <= 3),
        "lazy probing must not touch far objects, probed: {probed:?}"
    );
}

#[test]
fn object_churn() {
    // Adding and removing objects keeps results correct (extension).
    let (mut world, mut server, wl, mut rng) = setup(77, 60, ServerConfig::default());
    for step in 1..=30 {
        let now = step as f64;
        // Add one object.
        let id = ObjectId(world.positions.len() as u32);
        let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
        world.positions.push(p);
        {
            let ps = world.positions.clone();
            let mut provider = FnProvider(move |i: ObjectId| ps[i.index()]);
            server.add_object(id, p, &mut provider, now).expect("fresh id");
        }
        check_all(&world, &server, &wl, step);
    }
    server.check_invariants();
}
