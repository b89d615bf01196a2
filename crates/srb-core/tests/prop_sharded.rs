//! Property-based shard-equivalence tests: a `ShardedServer` with 1..=8
//! shards is driven through the same random sequenced-update stream as a
//! plain `Server` (same duplicates, replays, and unknown stragglers the
//! fault suite uses) and must agree with it.
//!
//! Agreement levels (see `DESIGN.md`, Architecture & sharding):
//!
//! - any shard count, range-only workload: *exact* equivalence — results,
//!   safe regions, last-known state, uplink/probe costs, and drop counters
//!   all match, because per-object decisions never depend on other objects;
//! - 1 shard, any workload: exact equivalence (pure delegation);
//! - many shards, kNN workloads: result equivalence (sequences for
//!   order-sensitive queries, sets otherwise); the coordinator may pay
//!   *extra* probes to separate cross-shard candidates, never fewer.

use proptest::prelude::*;
use srb_core::{
    FnProvider, ObjectId, QueryId, QuerySpec, SequencedUpdate, Server, ServerConfig, ShardedServer,
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

/// The harness: registers the same objects and queries on a plain `Server`
/// and an `n_shards` `ShardedServer`, replays the same sequenced batches
/// into both, and checks the agreement level requested via `exact_costs`.
fn drive(
    n_shards: usize,
    seed_pts: &[(f64, f64)],
    queries: &[Q],
    batches: &[Vec<Ev>],
    exact_costs: bool,
) {
    let mut positions: Vec<Point> = (0..N_OBJECTS)
        .map(|i| {
            let (x, y) = seed_pts[i % seed_pts.len()];
            Point::new((x + i as f64 * 0.013).fract(), (y + i as f64 * 0.029).fract())
        })
        .collect();
    let cfg = ServerConfig { grid_m: 10, ..Default::default() };
    let mut plain = Server::new(cfg);
    let mut sharded = ShardedServer::new(cfg, n_shards);
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            plain.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        for q in queries {
            let a = plain.register_query(q.spec(), &mut provider, 0.0);
            let b = sharded.register_query(q.spec(), &mut provider, 0.0);
            assert_eq!(a.id, b.id, "query allocators in lockstep");
        }
    }

    let mut seqs = [0u64; N_OBJECTS];
    let mut now = 0.0;
    for batch_events in batches {
        now += 0.1;
        // Materialize the event batch into one sequenced-update batch both
        // servers see verbatim (same duplicates, same stragglers).
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
        plain.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        sharded.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        plain.check_invariants_deep();
        sharded.check_invariants_deep();

        for (qi, q) in queries.iter().enumerate() {
            let qid = QueryId(qi as u32);
            let mut a = plain.results(qid).expect("registered").to_vec();
            let mut b = sharded.results(qid).expect("registered").to_vec();
            if !matches!(q.spec(), QuerySpec::Knn { order_sensitive: true, .. }) {
                a.sort_unstable();
                b.sort_unstable();
            }
            assert_eq!(
                a, b,
                "query {qid} ({:?}) diverged at t={now} with {n_shards} shards\nqueries: {queries:?}\nbatches: {batches:?}\nseed_pts: {seed_pts:?}",
                q.spec()
            );
        }
        if exact_costs {
            for i in 0..N_OBJECTS {
                let id = ObjectId(i as u32);
                assert_eq!(plain.safe_region(id), sharded.safe_region(id), "safe region {id}");
                assert_eq!(plain.last_known(id), sharded.last_known(id), "last known {id}");
            }
            assert_eq!(plain.costs(), sharded.costs(), "uplink/probe costs");
            let (pw, sw) = (plain.work(), sharded.work());
            assert_eq!(pw.stale_seq_drops, sw.stale_seq_drops, "stale drops");
            assert_eq!(pw.unknown_object_drops, sw.unknown_object_drops, "unknown drops");
            assert_eq!(pw.regrants, sw.regrants, "regrants");
        } else {
            // Uplinks are routed to exactly one shard, never duplicated,
            // and acceptance is a per-object sequence decision — so the
            // charged source updates (and fault counters) stay identical
            // even when coordinator kNN probes differ.
            assert_eq!(plain.costs().source_updates, sharded.costs().source_updates);
            let (pw, sw) = (plain.work(), sharded.work());
            assert_eq!(pw.stale_seq_drops, sw.stale_seq_drops, "stale drops");
            assert_eq!(pw.unknown_object_drops, sw.unknown_object_drops, "unknown drops");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Range-only workloads are *exactly* equivalent at any shard count:
    /// results, safe regions, costs, and fault counters all match.
    #[test]
    fn range_only_workloads_agree_exactly_at_any_shard_count(
        n_shards in 1usize..=8,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        queries in prop::collection::vec(arb_range(), 1..5),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..10), 1..12),
    ) {
        drive(n_shards, &seed_pts, &queries, &batches, true);
    }

    /// One shard is pure delegation: exact equivalence for *any* workload,
    /// kNN included.
    #[test]
    fn one_shard_is_exactly_equivalent_for_mixed_workloads(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        queries in prop::collection::vec(arb_query(), 1..6),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..10), 1..12),
    ) {
        drive(1, &seed_pts, &queries, &batches, true);
    }

    /// Mixed workloads (kNN included) agree on every query result at any
    /// shard count; the coordinator may pay extra probes, never wrong
    /// answers.
    #[test]
    fn mixed_workloads_agree_on_results_at_any_shard_count(
        n_shards in 2usize..=8,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        queries in prop::collection::vec(arb_query(), 1..6),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..10), 1..12),
    ) {
        drive(n_shards, &seed_pts, &queries, &batches, false);
    }
}
