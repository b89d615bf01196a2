//! Property-based end-to-end tests: random query mixes, random motion, exact
//! monitoring. A lighter-weight companion to `server_oracle.rs` that lets
//! proptest explore query geometry and k values adversarially — one report
//! at a time, and in batches whose reports arrive in any order.

use proptest::prelude::*;
use srb_core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ShardedServer};
use srb_geom::{Point, Rect};

#[derive(Clone, Debug)]
enum Q {
    Range { cx: f64, cy: f64, half: f64 },
    Knn { cx: f64, cy: f64, k: usize, ordered: bool },
}

fn arb_query() -> impl Strategy<Value = Q> {
    prop_oneof![
        (0.0f64..1.0, 0.0f64..1.0, 0.005f64..0.2).prop_map(|(cx, cy, half)| Q::Range {
            cx,
            cy,
            half
        }),
        (0.0f64..1.0, 0.0f64..1.0, 1usize..6, any::<bool>())
            .prop_map(|(cx, cy, k, ordered)| Q::Knn { cx, cy, k, ordered }),
    ]
}

fn spec_of(q: &Q) -> QuerySpec {
    match *q {
        Q::Range { cx, cy, half } => QuerySpec::range(
            Rect::centered(Point::new(cx, cy), half, half)
                .intersection(&Rect::UNIT)
                .unwrap_or(Rect::point(Point::new(cx.clamp(0.0, 1.0), cy.clamp(0.0, 1.0)))),
        ),
        Q::Knn { cx, cy, k, ordered: true } => QuerySpec::knn(Point::new(cx, cy), k),
        Q::Knn { cx, cy, k, ordered: false } => QuerySpec::knn_unordered(Point::new(cx, cy), k),
    }
}

/// A result list as its query defines it: in rank order for an
/// order-sensitive kNN query, as a set (ascending ids) otherwise.
fn canonical(spec: &QuerySpec, results: &[ObjectId]) -> Vec<ObjectId> {
    let mut results = results.to_vec();
    if !matches!(spec, QuerySpec::Knn { order_sensitive: true, .. }) {
        results.sort_unstable();
    }
    results
}

/// SplitMix64's finaliser.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batch is a set of reports: whatever order they arrive in, the
    /// engine ends with the same results, quarantine areas, granted safe
    /// regions, uplinks, probes and work — and the results are exact.
    #[test]
    fn any_permutation_of_a_batch_reads_the_same(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 20..40),
        queries in prop::collection::vec(arb_query(), 1..8),
        batches in prop::collection::vec(
            prop::collection::vec((0usize..40, -0.08f64..0.08, -0.08f64..0.08), 2..14),
            1..10,
        ),
        shuffle in 0u64..u64::MAX,
        grid_m in prop::sample::select(vec![5usize, 20, 50]),
    ) {
        let mut positions: Vec<Point> =
            seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n = positions.len();
        let cfg = ServerConfig { grid_m, ..Default::default() };
        let mut engines = [ShardedServer::new(cfg, 1), ShardedServer::new(cfg, 1)];
        let specs: Vec<QuerySpec> = queries.iter().map(spec_of).collect();
        for engine in &mut engines {
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            for (i, &p) in positions.iter().enumerate() {
                engine.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
            }
            for &spec in &specs {
                engine.register_query(spec, &mut provider, 0.0);
            }
        }

        let mut seqs = vec![0u64; n];
        for (b, moves) in batches.iter().enumerate() {
            // Objects move only by reporting, each at most once a batch.
            let mut batch: Vec<SequencedUpdate> = Vec::new();
            for &(raw_i, dx, dy) in moves {
                let (i, id) = (raw_i % n, ObjectId((raw_i % n) as u32));
                if batch.iter().any(|u| u.id == id) {
                    continue;
                }
                let p = positions[i];
                positions[i] = Point::new((p.x + dx).clamp(0.0, 1.0), (p.y + dy).clamp(0.0, 1.0));
                seqs[i] += 1;
                batch.push(SequencedUpdate { id, pos: positions[i], seq: seqs[i] });
            }
            let mut permuted = batch.clone();
            permuted.sort_by_key(|u| mix(shuffle ^ mix(b as u64) ^ u.id.0 as u64));
            let now = 0.1 * (b + 1) as f64;
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let [as_sent, shuffled] = &mut engines;
            as_sent.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
            shuffled.handle_sequenced_updates_into(&permuted, &mut provider, now, &mut Vec::new());

            for (qi, spec) in specs.iter().enumerate() {
                let qid = srb_core::QueryId(qi as u32);
                let got = canonical(spec, as_sent.results(qid).expect("registered"));
                prop_assert_eq!(&got, &canonical(spec, shuffled.results(qid).expect("registered")));
                prop_assert_eq!(as_sent.quarantine(qid), shuffled.quarantine(qid));
                match *spec {
                    QuerySpec::Range { rect } => {
                        let inside = |o: &ObjectId| rect.contains_point(positions[o.index()]);
                        let want: Vec<ObjectId> = (0..n as u32).map(ObjectId).filter(inside).collect();
                        prop_assert_eq!(got, want, "range {:?}", rect);
                    }
                    QuerySpec::Knn { center, k, .. } => {
                        // Distances, not ids: equidistant objects tie.
                        let mut want: Vec<f64> = positions.iter().map(|p| p.dist(center)).collect();
                        want.sort_by(f64::total_cmp);
                        want.truncate(k);
                        let mut got: Vec<f64> =
                            got.iter().map(|o| positions[o.index()].dist(center)).collect();
                        got.sort_by(f64::total_cmp);
                        prop_assert_eq!(got, want, "knn at {:?}", center);
                    }
                }
            }
            for i in 0..n as u32 {
                prop_assert_eq!(as_sent.safe_region(ObjectId(i)), shuffled.safe_region(ObjectId(i)));
            }
            prop_assert_eq!(as_sent.costs(), shuffled.costs());
            prop_assert_eq!(as_sent.work(), shuffled.work());
        }
        engines.iter().for_each(ShardedServer::check_invariants);
    }

    #[test]
    fn random_queries_random_motion_exact_monitoring(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 20..60),
        queries in prop::collection::vec(arb_query(), 1..8),
        moves in prop::collection::vec((0usize..60, -0.08f64..0.08, -0.08f64..0.08), 0..150),
        grid_m in prop::sample::select(vec![5usize, 20, 50]),
        // Moves are up to ±0.08 per axis per 0.1 time units, i.e. speeds up
        // to ~1.14; V must be a true upper bound for §6.1 to be sound.
        max_speed in prop::option::of(Just(1.2f64)),
    ) {
        let mut positions: Vec<Point> =
            seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n = positions.len();
        let cfg = ServerConfig { grid_m, max_speed, ..Default::default() };
        let mut server = ShardedServer::new(cfg, 1);
        {
            let ps = positions.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            for (i, &p) in positions.iter().enumerate() {
                server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
            }
        }
        let mut qids = Vec::new();
        {
            let ps = positions.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            for q in &queries {
                let spec = spec_of(q);
                qids.push((server.register_query(spec, &mut provider, 0.0).id, spec));
            }
        }

        let mut now = 0.0;
        let mut seqs = vec![0u64; n];
        for &(raw_i, dx, dy) in &moves {
            now += 0.1;
            {
                let ps = positions.clone();
                let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
                server.process_deferred(&mut provider, now);
            }
            let i = raw_i % n;
            let p = positions[i];
            positions[i] = Point::new((p.x + dx).clamp(0.0, 1.0), (p.y + dy).clamp(0.0, 1.0));
            let oid = ObjectId(i as u32);
            let sr = server.safe_region(oid).unwrap();
            if !sr.contains_point(positions[i]) {
                let ps = positions.clone();
                let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
                seqs[i] += 1;
                let report = SequencedUpdate { id: oid, pos: positions[i], seq: seqs[i] };
                server.handle_sequenced_updates_into(&[report], &mut provider, now, &mut Vec::new());
            }
            // Verify every query against brute force.
            for &(qid, spec) in &qids {
                let got = server.results(qid).unwrap().to_vec();
                match spec {
                    QuerySpec::Range { rect } => {
                        let mut g = got.clone();
                        g.sort_unstable();
                        let mut want: Vec<ObjectId> = (0..n as u32)
                            .map(ObjectId)
                            .filter(|o| rect.contains_point(positions[o.index()]))
                            .collect();
                        want.sort_unstable();
                        prop_assert_eq!(g, want, "range {:?}", rect);
                    }
                    QuerySpec::Knn { center, k, .. } => {
                        // Equidistant objects make the id-level answer
                        // ambiguous; compare the distance sequences, which
                        // are unique.
                        let mut all: Vec<f64> =
                            positions.iter().map(|p| p.dist(center)).collect();
                        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        let want: Vec<f64> = all.into_iter().take(k).collect();
                        let mut got_d: Vec<f64> = got
                            .iter()
                            .map(|o| positions[o.index()].dist(center))
                            .collect();
                        got_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        prop_assert_eq!(got_d.len(), want.len(), "knn at {:?}", center);
                        for (g, w) in got_d.iter().zip(want.iter()) {
                            prop_assert!((g - w).abs() < 1e-9, "knn at {:?}: {} vs {}", center, g, w);
                        }
                    }
                }
            }
        }
        server.check_invariants();
    }
}
