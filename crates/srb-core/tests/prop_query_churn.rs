//! Property-based query-churn test for the generational query slots:
//! `register_query` / `deregister_query` interleaved with sequenced update
//! batches on a [`ShardedServer`] fleet (mirrored against the one-shard
//! engine).
//!
//! The point under test is slot reuse. Deregistering a query frees its
//! dense slot and a later registration may claim the same [`QueryId`]; the
//! slot's generation bumps on every free (pinned where it happens, by
//! `processor::tests::deregistration_bumps_slot_generation`) so that
//!
//! - a dead query's results are gone the moment it is deregistered and
//!   never reappear after later batches (no resurrection through a reused
//!   slot), and
//! - a query that *reuses* the slot answers exactly its own (range)
//!   predicate — checked against a brute-force oracle over the true
//!   positions, which every moved object reports at batch end.

use proptest::prelude::*;
use srb_core::{
    DurabilityConfig, FnProvider, ObjectId, QueryId, QuerySpec, SequencedUpdate, ServerConfig,
    ShardedServer, SyncPolicy, TableProvider,
};
use srb_geom::{Point, Rect};

const N_OBJECTS: usize = 16;

#[derive(Clone, Debug)]
enum Ev {
    /// Register a fresh range query (clamped to the unit square).
    Register { cx: f64, cy: f64, half: f64 },
    /// Deregister the `pick % live`-th live query (no-op when none are).
    Deregister { pick: usize },
    /// Move an object and have it report in this batch's sequenced updates.
    Move { obj: usize, dx: f64, dy: f64 },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    // kind 0..2: register; 2..4: deregister; 4..8: move+report.
    (0u8..8, 0.0f64..1.0, 0.0f64..1.0, 0.02f64..0.3, 0usize..64).prop_map(
        |(kind, cx, cy, half, pick)| match kind {
            0 | 1 => Ev::Register { cx, cy, half },
            2 | 3 => Ev::Deregister { pick },
            _ => Ev::Move { obj: pick % N_OBJECTS, dx: (cx - 0.5) * 0.4, dy: (cy - 0.5) * 0.4 },
        },
    )
}

fn range_rect(cx: f64, cy: f64, half: f64) -> Rect {
    Rect::centered(Point::new(cx, cy), half, half)
        .intersection(&Rect::UNIT)
        .unwrap_or(Rect::point(Point::new(cx.clamp(0.0, 1.0), cy.clamp(0.0, 1.0))))
}

/// Drives the churn stream through the one-shard engine and a sharded one.
/// `pipelined` routes the sharded batches through the threaded batch path
/// (`handle_sequenced_updates_parallel_into` at 4 threads) instead of the
/// sequential path; every oracle below must hold identically.
fn drive(n_shards: usize, pipelined: bool, seed_pts: &[(f64, f64)], batches: &[Vec<Ev>]) {
    let mut positions: Vec<Point> = (0..N_OBJECTS)
        .map(|i| {
            let (x, y) = seed_pts[i % seed_pts.len()];
            Point::new((x + i as f64 * 0.013).fract(), (y + i as f64 * 0.029).fract())
        })
        .collect();
    let cfg = ServerConfig { grid_m: 10, ..Default::default() };
    let mut plain = ShardedServer::new(cfg, 1);
    let mut sharded = ShardedServer::new(cfg, n_shards).with_threads(if pipelined { 4 } else { 1 });
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            plain.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
    }

    let mut live: Vec<(QueryId, Rect)> = Vec::new();
    let mut dead: Vec<QueryId> = Vec::new();
    let mut seqs = [0u64; N_OBJECTS];
    let mut now = 0.0;
    let mut out = Vec::new();
    for batch_events in batches {
        now += 0.1;
        let mut batch: Vec<SequencedUpdate> = Vec::new();
        for ev in batch_events {
            match *ev {
                Ev::Register { cx, cy, half } => {
                    let rect = range_rect(cx, cy, half);
                    let snapshot = positions.clone();
                    let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
                    let a = plain.register_query(QuerySpec::range(rect), &mut provider, now);
                    let b = sharded.register_query(QuerySpec::range(rect), &mut provider, now);
                    assert_eq!(a.id, b.id, "query allocators in lockstep under churn");
                    dead.retain(|&d| d != a.id);
                    live.push((a.id, rect));
                }
                Ev::Deregister { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (qid, _) = live.remove(pick % live.len());
                    assert!(plain.deregister_query(qid), "was registered");
                    assert!(sharded.deregister_query(qid), "was registered");
                    // Results vanish immediately, on both engines.
                    assert!(plain.results(qid).is_none(), "dead query {qid} still answers");
                    assert!(sharded.results(qid).is_none(), "dead query {qid} still answers");
                    dead.push(qid);
                }
                Ev::Move { obj, dx, dy } => {
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
            }
        }
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        plain.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        if pipelined {
            out.clear();
            sharded.handle_sequenced_updates_parallel_into(
                &batch,
                &TableProvider(&snapshot),
                now,
                &mut out,
            );
        } else {
            sharded.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        }
        plain.check_invariants();
        sharded.check_invariants();

        // Dead queries stay dead: a reused slot must never resurrect them.
        for &qid in &dead {
            assert!(plain.results(qid).is_none(), "dead query {qid} resurrected");
            assert!(sharded.results(qid).is_none(), "dead query {qid} resurrected");
        }
        // Live queries answer exactly their own predicate: every object that
        // moved also reported, so the servers' known positions equal the
        // true ones and the brute-force oracle is exact.
        for &(qid, rect) in &live {
            let expected: Vec<ObjectId> = (0..N_OBJECTS)
                .map(|i| ObjectId(i as u32))
                .filter(|o| rect.contains_point(positions[o.index()]))
                .collect();
            let sort = |rs: &[ObjectId]| {
                let mut v = rs.to_vec();
                v.sort_unstable();
                v
            };
            let a = sort(plain.results(qid).expect("live query answers"));
            let b = sort(sharded.results(qid).expect("live query answers"));
            assert_eq!(a, expected, "plain results for {qid} diverged from oracle at t={now}");
            assert_eq!(b, expected, "sharded results for {qid} diverged from oracle at t={now}");
        }
    }
}

/// The same churn stream on a *durable* sharded server, with a restart in
/// the middle: log everything, drop the server cold, recover, and prove
/// the generational slot keys survive — the recovered state is
/// bit-identical, dead queries stay dead across the restart, and live
/// ones still answer exactly their predicate.
///
/// With `pipelined`, batches run through the threaded batch path (its
/// region lanes on whichever thread takes them, its one record appended
/// by the calling thread) and a
/// non-durable *synchronous twin* consumes the identical event stream
/// through the sequential path; their state digests must agree after
/// every batch — the threaded WAL transcript and the restart are only
/// correct if the completed-operation prefix is the synchronous one.
fn drive_durable(pipelined: bool, seed_pts: &[(f64, f64)], batches: &[Vec<Ev>]) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir: &'static str = Box::leak(
        std::env::temp_dir()
            .join(format!("srb-churn-{}-{}", std::process::id(), N.fetch_add(1, Ordering::Relaxed)))
            .to_string_lossy()
            .into_owned()
            .into_boxed_str(),
    );
    let cfg = ServerConfig {
        grid_m: 10,
        durability: DurabilityConfig {
            dir: Some(dir),
            policy: SyncPolicy::GroupCommit,
            group_ops: 3,
            checkpoint_ops: 11,
        },
        ..Default::default()
    };

    let mut positions: Vec<Point> = (0..N_OBJECTS)
        .map(|i| {
            let (x, y) = seed_pts[i % seed_pts.len()];
            Point::new((x + i as f64 * 0.013).fract(), (y + i as f64 * 0.029).fract())
        })
        .collect();
    let mut server = ShardedServer::new(cfg, 2).with_threads(if pipelined { 4 } else { 1 });
    // The synchronous twin: same shard count, no WAL, sequential batches.
    let twin_cfg = ServerConfig { durability: DurabilityConfig::default(), ..cfg };
    let mut twin = pipelined.then(|| ShardedServer::new(twin_cfg, 2));
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            if let Some(t) = twin.as_mut() {
                t.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            }
        }
    }

    let mut live: Vec<(QueryId, Rect)> = Vec::new();
    let mut dead: Vec<QueryId> = Vec::new();
    let mut seqs = [0u64; N_OBJECTS];
    let mut now = 0.0;
    let mut out = Vec::new();
    // The restart splits the stream roughly in half; every batch before it
    // is replayed from the log, every batch after it runs on the
    // recovered server.
    let restart_after = batches.len() / 2;
    for (bi, batch_events) in batches.iter().enumerate() {
        now += 0.1;
        let mut batch: Vec<SequencedUpdate> = Vec::new();
        for ev in batch_events {
            match *ev {
                Ev::Register { cx, cy, half } => {
                    let rect = range_rect(cx, cy, half);
                    let snapshot = positions.clone();
                    let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
                    let r = server.register_query(QuerySpec::range(rect), &mut provider, now);
                    if let Some(t) = twin.as_mut() {
                        t.register_query(QuerySpec::range(rect), &mut provider, now);
                    }
                    dead.retain(|&d| d != r.id);
                    live.push((r.id, rect));
                }
                Ev::Deregister { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (qid, _) = live.remove(pick % live.len());
                    assert!(server.deregister_query(qid), "was registered");
                    if let Some(t) = twin.as_mut() {
                        assert!(t.deregister_query(qid), "twin in lockstep");
                    }
                    dead.push(qid);
                }
                Ev::Move { obj, dx, dy } => {
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
            }
        }
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        if pipelined {
            out.clear();
            server.handle_sequenced_updates_parallel_into(
                &batch,
                &TableProvider(&snapshot),
                now,
                &mut out,
            );
        } else {
            server.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        }
        if let Some(t) = twin.as_mut() {
            t.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        }
        // Updates may defer probes (the Slack scheme), leaving results
        // provisional until the deferral fires; drain them so the oracle
        // below compares against *exact* results. Time stays monotonic:
        // `now` only ever moves forward to the due times.
        for _ in 0..16 {
            let Some(due) = server.next_deferred_due() else { break };
            now = now.max(due);
            server.process_deferred(&mut provider, now);
        }
        if let Some(t) = twin.as_mut() {
            // In lockstep the twin's deferrals are the server's, so this
            // drain never advances `now` further.
            for _ in 0..16 {
                let Some(due) = t.next_deferred_due() else { break };
                now = now.max(due);
                t.process_deferred(&mut provider, now);
            }
        }

        if bi == restart_after {
            let before = server.state_digest();
            server.sync_wal();
            drop(server);
            let (recovered, _replayed) =
                ShardedServer::recover(cfg, 2).expect("recovery of a cleanly synced log");
            // A recovered engine takes its thread count from the
            // environment; ask again so post-restart batches stay threaded.
            server = if pipelined { recovered.with_threads(4) } else { recovered };
            assert_eq!(
                server.state_digest(),
                before,
                "recovered state diverged from the pre-restart server"
            );
        }

        server.check_invariants();
        if let Some(t) = twin.as_ref() {
            // After every batch (and across the mid-stream restart) the
            // threaded server's completed-operation prefix is exactly the
            // synchronous twin's state.
            assert_eq!(
                server.state_digest(),
                t.state_digest(),
                "pipelined state diverged from the synchronous twin at t={now}"
            );
        }
        // Dead queries stay dead — including across the restart, where a
        // naive slot decoder could resurrect a freed slot's last occupant.
        for &qid in &dead {
            assert!(server.results(qid).is_none(), "dead query {qid} resurrected");
        }
        for &(qid, rect) in &live {
            let expected: Vec<ObjectId> = (0..N_OBJECTS)
                .map(|i| ObjectId(i as u32))
                .filter(|o| rect.contains_point(positions[o.index()]))
                .collect();
            let mut got = server.results(qid).expect("live query answers").to_vec();
            got.sort_unstable();
            assert_eq!(got, expected, "results for {qid} diverged from oracle at t={now}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Query churn on a multi-shard server: slot reuse keeps dead queries
    /// dead and reused slots answer only their own predicate.
    #[test]
    fn sharded_query_churn_never_resurrects_dead_queries(
        n_shards in 2usize..=6,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 1..10),
    ) {
        drive(n_shards, false, &seed_pts, &batches);
    }

    /// The same churn stream through the single-shard delegation path.
    #[test]
    fn single_shard_query_churn_never_resurrects_dead_queries(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 1..10),
    ) {
        drive(1, false, &seed_pts, &batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn through the *threaded* batch path — lanes on scoped helper
    /// threads beside the caller — under the same oracles. Query
    /// registration mutates the processors between batches, so every batch
    /// hands its helpers shard state the previous batch's never saw.
    #[test]
    fn pipelined_query_churn_never_resurrects_dead_queries(
        n_shards in 2usize..=6,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 1..10),
    ) {
        drive(n_shards, true, &seed_pts, &batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Churn + crash-recovery: generational slot keys never resurrect a
    /// dead query across a restart, and the recovered state is
    /// bit-identical to the server that went down.
    #[test]
    fn query_churn_survives_recovery(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 2..8),
    ) {
        drive_durable(false, &seed_pts, &batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Churn + mid-stream restart between threaded batches: region lanes
    /// run on whichever thread takes them, the server
    /// is dropped cold, and recovery must land on the completed-operation
    /// prefix — checked after every batch against a synchronous twin's
    /// digest.
    #[test]
    fn pipelined_query_churn_survives_recovery(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 2..8),
    ) {
        drive_durable(true, &seed_pts, &batches);
    }
}

/// Regression: a probe during a *later* query's registration reveals an
/// object's new position before the object's own report arrives. The
/// revelation must maintain the object's membership in *existing* queries
/// — otherwise the subsequent report is a no-move no-op (the probe already
/// advanced the known position past the old cell) and the stale result
/// sticks forever.
#[test]
fn registration_probe_maintains_existing_queries() {
    let cfg = ServerConfig { grid_m: 10, ..Default::default() };
    let mut s = ShardedServer::new(cfg, 1);
    let pos0 = Point::new(0.6627, 0.2982);
    let pos1 = Point::new(0.7167, 0.3095);
    let mut p0 = FnProvider(|_id: ObjectId| pos0);
    s.add_object(ObjectId(0), pos0, &mut p0, 0.0).unwrap();
    // rect2 ~ [0.378,0.666]x[0.263,0.552]: contains pos0, not pos1.
    let rect2 = Rect::centered(
        Point::new(0.5220289215726522, 0.4077979850184952),
        0.14440198725406778,
        0.14440198725406778,
    );
    let q2 = s.register_query(QuerySpec::range(rect2), &mut p0, 0.4).id;
    assert_eq!(s.results(q2), Some(&[ObjectId(0)][..]));

    // The world moves; the report is still in flight when q3 registers and
    // its evaluation probes the object at the new position.
    let mut p1 = FnProvider(|_id: ObjectId| pos1);
    let rect3 = Rect::centered(
        Point::new(0.35197929094822367, 0.473441441763935),
        0.25322598081137027,
        0.25322598081137027,
    );
    let r3 = s.register_query(QuerySpec::range(rect3), &mut p1, 0.4);
    assert!(
        r3.changes.iter().any(|c| c.query == q2),
        "the revelation must surface q2's result change in the response"
    );
    assert_eq!(s.results(q2).map(<[ObjectId]>::to_vec), Some(vec![]), "q2 drops the mover");

    // The (now redundant) report must stay a no-op, not resurrect anything.
    s.handle_sequenced_updates_into(
        &[SequencedUpdate { id: ObjectId(0), pos: pos1, seq: 1 }],
        &mut p1,
        0.4,
        &mut Vec::new(),
    );
    assert_eq!(s.results(q2).map(<[ObjectId]>::to_vec), Some(vec![]));
    assert_eq!(s.results(r3.id).map(<[ObjectId]>::to_vec), Some(vec![]));
    s.check_invariants();
}
