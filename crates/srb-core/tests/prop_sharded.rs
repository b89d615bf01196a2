//! Property-based shard tests, two harnesses.
//!
//! **Oracle** ([`drive_oracle`]): a `ShardedServer` with 1, 2, 4 or 8
//! shards on each backend (R\*-tree, grid, runtime-dispatched) monitors a
//! world whose clients behave — every object moves every round and reports
//! when it left its safe region — while queries are registered and
//! deregistered and objects added and removed mid-stream. After every
//! batch and every churn operation every query's result must equal the
//! brute-force answer over the true positions: the fleet evaluates each
//! query once over the union of its shard indexes, so it is exact at every
//! shard count, not nearly so. A fixed workload must read the same
//! uplinks, probes and results at every shard count on every backend.
//!
//! **Twin** ([`drive`]): a fleet is driven through the same random
//! sequenced-update stream as the one-shard engine (same duplicates,
//! replays, and unknown stragglers the fault suite uses) and must agree
//! with it on everything the protocol shows — query results (both held to
//! brute force), safe regions, last-known state, uplinks, probes and drop
//! counters — for any workload at any shard count: the partition is
//! invisible.

use proptest::prelude::*;
use srb_core::{
    AdaptiveConfig, BackendConfig, CostTracker, DynBackend, FnProvider, GridConfig, ObjectId,
    QueryId, QuerySpec, RStarTree, SequencedUpdate, ServerConfig, ShardedServer, SpatialBackend,
    TreeConfig, UniformGrid,
};
use srb_geom::{Point, Rect};

const N_OBJECTS: usize = 25;

#[derive(Clone, Debug)]
enum Q {
    Range { cx: f64, cy: f64, half: f64 },
    Knn { cx: f64, cy: f64, k: usize, ordered: bool },
}

impl Q {
    fn spec(&self) -> QuerySpec {
        match *self {
            Q::Range { cx, cy, half } => QuerySpec::range(
                Rect::centered(Point::new(cx, cy), half, half)
                    .intersection(&Rect::UNIT)
                    .unwrap_or(Rect::point(Point::new(cx.clamp(0.0, 1.0), cy.clamp(0.0, 1.0)))),
            ),
            Q::Knn { cx, cy, k, ordered } => {
                let c = Point::new(cx, cy);
                if ordered {
                    QuerySpec::knn(c, k)
                } else {
                    QuerySpec::knn_unordered(c, k)
                }
            }
        }
    }
}

fn arb_range() -> impl Strategy<Value = Q> {
    (0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.25).prop_map(|(cx, cy, half)| Q::Range { cx, cy, half })
}

fn arb_query() -> impl Strategy<Value = Q> {
    prop_oneof![
        arb_range(),
        (0.0f64..1.0, 0.0f64..1.0, 1usize..5, any::<bool>())
            .prop_map(|(cx, cy, k, ordered)| Q::Knn { cx, cy, k, ordered }),
    ]
}

/// One client-side event in the update stream. `Fresh` advances the
/// object's sequence number; the fault variants replay old numbers or come
/// from an object the server never registered.
#[derive(Clone, Debug)]
enum Ev {
    Fresh { obj: usize, dx: f64, dy: f64 },
    Replay { obj: usize },
    Unknown { obj: usize },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    // kind 0..6: fresh report; 6: replayed (stale) report; 7: straggler
    // from an object the server never registered.
    (0u8..8, 0usize..N_OBJECTS, -0.15f64..0.15, -0.15f64..0.15).prop_map(|(kind, obj, dx, dy)| {
        match kind {
            6 => Ev::Replay { obj },
            7 => Ev::Unknown { obj },
            _ => Ev::Fresh { obj, dx, dy },
        }
    })
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

/// The harness: registers the same objects and queries on the one-shard
/// engine and an `n_shards` fleet, replays the same sequenced batches into
/// both, and holds the fleet to the one shard and both to brute force. An
/// object moves only by reporting, so the true positions are the reported
/// ones.
fn drive(n_shards: usize, seed_pts: &[(f64, f64)], queries: &[Q], batches: &[Vec<Ev>]) {
    let mut positions: Vec<Point> = (0..N_OBJECTS)
        .map(|i| {
            let (x, y) = seed_pts[i % seed_pts.len()];
            Point::new((x + i as f64 * 0.013).fract(), (y + i as f64 * 0.029).fract())
        })
        .collect();
    let cfg = ServerConfig { grid_m: 10, ..Default::default() };
    let mut one = ShardedServer::new(cfg, 1);
    let mut fleet = ShardedServer::new(cfg, n_shards);
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            one.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            fleet.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        for q in queries {
            let a = one.register_query(q.spec(), &mut provider, 0.0);
            let b = fleet.register_query(q.spec(), &mut provider, 0.0);
            assert_eq!(a.id, b.id, "query allocators in lockstep");
        }
    }

    let mut seqs = [0u64; N_OBJECTS];
    let mut now = 0.0;
    for batch_events in batches {
        now += 0.1;
        // Materialize the event batch into one sequenced-update batch both
        // engines see verbatim (same duplicates, same stragglers).
        let mut batch: Vec<SequencedUpdate> = Vec::new();
        for ev in batch_events {
            match *ev {
                Ev::Fresh { obj, dx, dy } => {
                    let p = &mut positions[obj];
                    p.x = (p.x + dx).clamp(0.0, 1.0);
                    p.y = (p.y + dy).clamp(0.0, 1.0);
                    seqs[obj] += 1;
                    batch.push(SequencedUpdate {
                        id: ObjectId(obj as u32),
                        pos: *p,
                        seq: seqs[obj],
                    });
                }
                Ev::Replay { obj } => batch.push(SequencedUpdate {
                    id: ObjectId(obj as u32),
                    pos: positions[obj],
                    seq: seqs[obj], // stale: last accepted (or 0 = pre-registration)
                }),
                Ev::Unknown { obj } => batch.push(SequencedUpdate {
                    id: ObjectId((N_OBJECTS + obj) as u32),
                    pos: positions[obj],
                    seq: 1,
                }),
            }
        }
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index() % N_OBJECTS]);
        one.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        fleet.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        one.check_invariants_deep();
        fleet.check_invariants_deep();

        let world: Vec<Option<Point>> = positions.iter().copied().map(Some).collect();
        let what = || {
            format!(
                "at t={now} with {n_shards} shards\nqueries: {queries:?}\nbatches: {batches:?}\nseed_pts: {seed_pts:?}"
            )
        };
        for (qi, q) in queries.iter().enumerate() {
            let qid = QueryId(qi as u32);
            let a = canonical(&q.spec(), one.results(qid).expect("registered"));
            let b = canonical(&q.spec(), fleet.results(qid).expect("registered"));
            assert_eq!(a, b, "query {qid} ({:?}) diverged {}", q.spec(), what());
            assert_exact(&fleet, &[(qid, q.spec())], &world, &what);
        }
        for i in 0..N_OBJECTS {
            let id = ObjectId(i as u32);
            assert_eq!(one.safe_region(id), fleet.safe_region(id), "safe region {id} {}", what());
            assert_eq!(one.last_known(id), fleet.last_known(id), "last known {id}");
        }
        assert_eq!(one.costs(), fleet.costs(), "uplink/probe costs {}", what());
        assert_eq!(one.work(), fleet.work(), "work and drop counters {}", what());
    }
}

// ---------------------------------------------------------------------
// The oracle harness
// ---------------------------------------------------------------------

/// What happens between two rounds of movement.
#[derive(Clone, Debug)]
enum Churn {
    Register(Q),
    /// Deregisters the `n`-th live query (modulo their number).
    Deregister(usize),
    /// Adds a fresh object at the given position.
    Add(f64, f64),
    /// Removes the `n`-th live object (modulo their number).
    Remove(usize),
}

fn arb_churn() -> impl Strategy<Value = Option<Churn>> {
    // kind 0..3: a quiet round; 3..7: one operation of each kind.
    (0u8..7, arb_query(), 0usize..N_OBJECTS, 0.0f64..1.0, 0.0f64..1.0).prop_map(
        |(kind, q, n, x, y)| match kind {
            3 => Some(Churn::Register(q)),
            4 => Some(Churn::Deregister(n)),
            5 => Some(Churn::Add(x, y)),
            6 => Some(Churn::Remove(n)),
            _ => None,
        },
    )
}

/// The brute-force answer over the true positions (`None` = no such
/// object): ids in ascending order for a range query, nearest first for a
/// kNN query.
fn brute_force(spec: &QuerySpec, world: &[Option<Point>]) -> Vec<ObjectId> {
    let live = world.iter().enumerate().filter_map(|(i, p)| Some((ObjectId(i as u32), (*p)?)));
    match *spec {
        QuerySpec::Range { rect } => {
            live.filter(|&(_, p)| rect.contains_point(p)).map(|(o, _)| o).collect()
        }
        QuerySpec::Knn { center, k, .. } => {
            let mut ranked: Vec<(f64, ObjectId)> = live.map(|(o, p)| (p.dist(center), o)).collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            ranked.into_iter().take(k).map(|(_, o)| o).collect()
        }
    }
}

/// Holds every live query's monitored result to [`brute_force`].
fn assert_exact<B: SpatialBackend>(
    engine: &ShardedServer<B>,
    live: &[(QueryId, QuerySpec)],
    world: &[Option<Point>],
    what: &dyn Fn() -> String,
) {
    for (qid, spec) in live {
        let got = canonical(spec, engine.results(*qid).expect("registered"));
        let want = canonical(spec, &brute_force(spec, world));
        assert_eq!(got, want, "{qid} ({spec:?}) is not exact {}", what());
    }
}

/// A uniform draw in `[-1, 1)` from `(a, b)` (SplitMix64 finaliser).
fn jitter(a: u64, b: u64) -> f64 {
    let mut z = (a ^ (b << 32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Drives a `shards`-shard engine on backend `B` through `rounds` rounds:
/// in each, every object moves up to `step` per axis and the ones that
/// left their safe region report as one batch; then the round's churn
/// operation runs. Results are held to the brute-force oracle after each.
/// Returns what the protocol shows of the run: uplinks and probes, and the
/// results of every query live at its end.
fn drive_oracle<B: SpatialBackend>(
    backend: BackendConfig,
    shards: usize,
    seed_pts: &[(f64, f64)],
    queries: &[Q],
    rounds: &[Option<Churn>],
    step: f64,
) -> (CostTracker, Vec<Vec<ObjectId>>) {
    let cfg = ServerConfig { grid_m: 10, backend, ..Default::default() };
    let mut engine = ShardedServer::<B>::with_backend(cfg, shards);
    let mut world: Vec<Option<Point>> = (0..seed_pts.len())
        .map(|i| {
            let (x, y) = seed_pts[i];
            Some(Point::new((x + i as f64 * 0.013).fract(), (y + i as f64 * 0.029).fract()))
        })
        .collect();
    let mut seqs: Vec<u64> = vec![0; world.len()];
    let mut live: Vec<(QueryId, QuerySpec)> = Vec::new();
    let at = |world: &[Option<Point>], id: ObjectId| world[id.index()].expect("a live object");
    {
        let mut provider = FnProvider(|id: ObjectId| at(&world, id));
        for i in 0..world.len() {
            let id = ObjectId(i as u32);
            engine.add_object(id, at(&world, id), &mut provider, 0.0).unwrap();
        }
        for q in queries {
            live.push((engine.register_query(q.spec(), &mut provider, 0.0).id, q.spec()));
        }
    }
    let what = |round: usize| format!("at {shards} shards on {}, round {round}", B::label());
    assert_exact(&engine, &live, &world, &|| what(0));

    for (round, churn) in rounds.iter().enumerate() {
        let now = (round + 1) as f64 * 0.1;
        let mut batch = Vec::new();
        for (i, slot) in world.iter_mut().enumerate() {
            let Some(p) = slot else { continue };
            p.x = (p.x + step * jitter(i as u64, 2 * round as u64)).clamp(0.0, 1.0);
            p.y = (p.y + step * jitter(i as u64, 2 * round as u64 + 1)).clamp(0.0, 1.0);
            let id = ObjectId(i as u32);
            if !engine.safe_region(id).expect("registered").contains_point(*p) {
                seqs[i] += 1;
                batch.push(SequencedUpdate { id, pos: *p, seq: seqs[i] });
            }
        }
        let mut provider = FnProvider(|id: ObjectId| at(&world, id));
        engine.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        engine.check_invariants_deep();
        assert_exact(&engine, &live, &world, &|| what(round + 1));

        // Every object has just checked its region, so a churn probe
        // finds none outside the region the engine holds for it.
        match churn {
            None => continue,
            Some(Churn::Register(q)) => {
                let mut provider = FnProvider(|id: ObjectId| at(&world, id));
                live.push((engine.register_query(q.spec(), &mut provider, now).id, q.spec()));
            }
            Some(Churn::Deregister(n)) if !live.is_empty() => {
                let (qid, _) = live.remove(n % live.len());
                assert!(engine.deregister_query(qid));
                assert!(engine.results(qid).is_none());
            }
            Some(Churn::Add(x, y)) => {
                let id = ObjectId(world.len() as u32);
                world.push(Some(Point::new(*x, *y)));
                seqs.push(0);
                let mut provider = FnProvider(|id: ObjectId| at(&world, id));
                let sr = engine.add_object(id, at(&world, id), &mut provider, now).unwrap();
                assert!(sr.contains_point(at(&world, id)));
            }
            Some(Churn::Remove(n)) => {
                let alive: Vec<usize> = (0..world.len()).filter(|&i| world[i].is_some()).collect();
                if alive.len() > 1 {
                    let gone = alive[n % alive.len()];
                    world[gone] = None;
                    let mut provider = FnProvider(|id: ObjectId| at(&world, id));
                    let removed = engine.remove_object(ObjectId(gone as u32), &mut provider, now);
                    assert!(removed.is_some());
                }
            }
            Some(Churn::Deregister(_)) => {}
        }
        engine.check_invariants_deep();
        assert_exact(&engine, &live, &world, &|| format!("{} after {churn:?}", what(round + 1)));
    }
    assert_eq!(engine.object_count(), world.iter().flatten().count());
    let results =
        |(qid, spec): &(QueryId, QuerySpec)| canonical(spec, engine.results(*qid).expect("live"));
    (engine.costs(), live.iter().map(results).collect())
}

/// [`drive_oracle`] at `shards` on each of the three backends.
fn drive_oracle_on_every_backend(
    shards: usize,
    seed_pts: &[(f64, f64)],
    queries: &[Q],
    rounds: &[Option<Churn>],
) {
    let rstar = BackendConfig::RStar(TreeConfig::default());
    drive_oracle::<RStarTree>(rstar, shards, seed_pts, queries, rounds, 0.06);
    let grid = BackendConfig::Grid(GridConfig::default());
    drive_oracle::<UniformGrid>(grid, shards, seed_pts, queries, rounds, 0.06);
    let adaptive = BackendConfig::Adaptive(AdaptiveConfig::default());
    drive_oracle::<DynBackend>(adaptive, shards, seed_pts, queries, rounds, 0.06);
}

/// The shard count is invisible: on a fixed workload (300 objects, 16
/// mixed queries, 60 rounds with churn every fourth) the uplinks, the
/// probes and every query's results are the same at 1, 2, 4 and 8 shards on
/// every backend.
#[test]
fn communication_cost_does_not_grow_with_the_shard_count() {
    let seed_pts: Vec<(f64, f64)> =
        (0..300u64).map(|i| (0.5 + 0.5 * jitter(i, 901), 0.5 + 0.5 * jitter(i, 902))).collect();
    let unit = |i: u64, salt: u64| 0.5 + 0.5 * jitter(i, salt);
    let query = |i: u64| match i % 4 {
        0 => Q::Range { cx: unit(i, 903), cy: unit(i, 904), half: 0.04 + 0.08 * unit(i, 905) },
        n => {
            Q::Knn { cx: unit(i, 903), cy: unit(i, 904), k: 1 + (i % 5) as usize, ordered: n != 3 }
        }
    };
    let queries: Vec<Q> = (0..16).map(query).collect();
    let rounds: Vec<Option<Churn>> = (0..60u64)
        .map(|r| match r % 16 {
            3 => Some(Churn::Register(query(100 + r))),
            7 => Some(Churn::Deregister(r as usize)),
            11 => Some(Churn::Add(unit(r, 906), unit(r, 907))),
            15 => Some(Churn::Remove(r as usize)),
            _ => None,
        })
        .collect();
    let rstar = BackendConfig::RStar(TreeConfig::default());
    let one = drive_oracle::<RStarTree>(rstar, 1, &seed_pts, &queries, &rounds, 0.02);
    println!("one shard, rstar: {:?}", one.0);
    assert!(one.0.probes > 0 && one.1.iter().any(|r| !r.is_empty()), "a workload that probes");
    for shards in [1, 2, 4, 8] {
        let grid = BackendConfig::Grid(GridConfig::default());
        let adaptive = BackendConfig::Adaptive(AdaptiveConfig::default());
        let runs = [
            drive_oracle::<RStarTree>(rstar, shards, &seed_pts, &queries, &rounds, 0.02),
            drive_oracle::<UniformGrid>(grid, shards, &seed_pts, &queries, &rounds, 0.02),
            drive_oracle::<DynBackend>(adaptive, shards, &seed_pts, &queries, &rounds, 0.02),
        ];
        for (run, backend) in runs.iter().zip(["rstar", "grid", "dyn"]) {
            assert_eq!(run, &one, "{shards} shards on {backend} differ from one shard on rstar");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Range-only workloads: per-object decisions never depend on other
    /// objects.
    #[test]
    fn range_only_workloads_agree_exactly_at_any_shard_count(
        n_shards in 1usize..=8,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        queries in prop::collection::vec(arb_range(), 1..5),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..10), 1..12),
    ) {
        drive(n_shards, &seed_pts, &queries, &batches);
    }

    /// Mixed workloads (kNN included) agree with the one-shard engine at
    /// any shard count, fault events included.
    #[test]
    fn mixed_workloads_agree_on_results_at_any_shard_count(
        n_shards in 2usize..=8,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        queries in prop::collection::vec(arb_query(), 1..6),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..10), 1..12),
    ) {
        drive(n_shards, &seed_pts, &queries, &batches);
    }

    /// Exact at every shard count on every backend, against brute force,
    /// with registration, deregistration and object churn mid-stream.
    #[test]
    fn every_result_matches_brute_force_at_every_shard_count(
        shards in prop::sample::select(vec![1usize, 2, 4, 8]),
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), N_OBJECTS..=N_OBJECTS),
        queries in prop::collection::vec(arb_query(), 1..6),
        rounds in prop::collection::vec(arb_churn(), 4..16),
    ) {
        drive_oracle_on_every_backend(shards, &seed_pts, &queries, &rounds);
    }
}
