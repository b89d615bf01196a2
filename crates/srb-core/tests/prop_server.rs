//! Property-based end-to-end test: random query mixes, random motion, exact
//! monitoring. A lighter-weight companion to `server_oracle.rs` that lets
//! proptest explore query geometry and k values adversarially.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
                let spec = match *q {
                    Q::Range { cx, cy, half } => QuerySpec::range(
                        Rect::centered(Point::new(cx, cy), half, half)
                            .intersection(&Rect::UNIT)
                            .unwrap_or(Rect::point(Point::new(cx.clamp(0.0,1.0), cy.clamp(0.0,1.0)))),
                    ),
                    Q::Knn { cx, cy, k, ordered } => {
                        let c = Point::new(cx, cy);
                        if ordered { QuerySpec::knn(c, k) } else { QuerySpec::knn_unordered(c, k) }
                    }
                };
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
