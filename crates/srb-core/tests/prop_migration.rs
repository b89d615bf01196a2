//! Live-migration equivalence suite for the adaptive backend plane.
//!
//! A [`ShardedServer`] over [`DynBackend`] has its shards *explicitly
//! migrated between the R\*-tree and the uniform grid mid-stream* — under
//! the sequential path, the threaded batch path, and across a durable
//! crash/recover boundary — while a never-migrated static twin consumes
//! the identical event stream. Migration swaps the cost structure of one
//! shard's object index and nothing else, so every registered query's
//! result set must stay identical to the twin's (and to a brute-force
//! oracle) after every batch.
//!
//! The deterministic tests at the bottom cover the *controller*: a
//! 4-shard adaptive engine with hand-placed mixed backends must trigger
//! at least one telemetry-driven migration and still answer bit-identically
//! to a static single-backend run, and a recovery replay must re-make the
//! controller's decisions at exactly the same batch boundaries
//! (state-digest equality across a mid-stream restart).

use proptest::prelude::*;
use srb_core::{
    AdaptiveConfig, BackendConfig, BackendKind, DurabilityConfig, DynBackend, FnProvider,
    GridConfig, ObjectId, QueryId, QuerySpec, RStarTree, RecoveryError, SequencedUpdate,
    ServerConfig, ShardedServer, SyncPolicy, TableProvider, TreeConfig,
};
use srb_geom::{Point, Rect};

const N_OBJECTS: usize = 16;

#[derive(Clone, Debug)]
enum Ev {
    /// Register a fresh range query (clamped to the unit square).
    Register { cx: f64, cy: f64, half: f64 },
    /// Move an object and have it report in this batch's sequenced updates.
    Move { obj: usize, dx: f64, dy: f64 },
    /// Explicitly live-migrate one shard of the dyn fleet.
    Flip { shard: usize, to_grid: bool, m: usize },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    // kind 0..2: register; 2..5: flip; 5..10: move+report.
    (0u8..10, 0.0f64..1.0, 0.0f64..1.0, 0.02f64..0.3, 0usize..64, 4usize..32).prop_map(
        |(kind, cx, cy, half, pick, m)| match kind {
            0 | 1 => Ev::Register { cx, cy, half },
            2..=4 => Ev::Flip { shard: pick, to_grid: m % 2 == 0, m },
            _ => Ev::Move { obj: pick % N_OBJECTS, dx: (cx - 0.5) * 0.4, dy: (cy - 0.5) * 0.4 },
        },
    )
}

fn range_rect(cx: f64, cy: f64, half: f64) -> Rect {
    Rect::centered(Point::new(cx, cy), half, half)
        .intersection(&Rect::UNIT)
        .unwrap_or(Rect::point(Point::new(cx.clamp(0.0, 1.0), cy.clamp(0.0, 1.0))))
}

fn flip_target(to_grid: bool, m: usize) -> BackendConfig {
    if to_grid {
        BackendConfig::Grid(GridConfig { m })
    } else {
        BackendConfig::RStar(TreeConfig::default())
    }
}

fn seed_positions(seed_pts: &[(f64, f64)]) -> Vec<Point> {
    (0..N_OBJECTS)
        .map(|i| {
            let (x, y) = seed_pts[i % seed_pts.len()];
            Point::new((x + i as f64 * 0.013).fract(), (y + i as f64 * 0.029).fract())
        })
        .collect()
}

/// Drives the stream through a migrating `DynBackend` fleet and a static
/// R\*-tree twin. `pipelined` routes the dyn fleet's batches through the
/// threaded batch path; the twin always takes the sequential path, so this
/// also pins "migration between threaded batches" against "no migration,
/// no threads".
fn drive(n_shards: usize, pipelined: bool, seed_pts: &[(f64, f64)], batches: &[Vec<Ev>]) {
    let mut positions = seed_positions(seed_pts);
    let cfg = ServerConfig { grid_m: 10, ..Default::default() };
    let mut dyn_fleet = ShardedServer::<DynBackend>::with_backend(cfg, n_shards)
        .with_threads(if pipelined { 4 } else { 1 });
    let mut twin = ShardedServer::new(cfg, n_shards);
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            dyn_fleet.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            twin.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
    }

    let mut live: Vec<(QueryId, Rect)> = Vec::new();
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
                    let a = dyn_fleet.register_query(QuerySpec::range(rect), &mut provider, now);
                    let b = twin.register_query(QuerySpec::range(rect), &mut provider, now);
                    assert_eq!(a.id, b.id, "query allocators in lockstep");
                    live.push((a.id, rect));
                }
                Ev::Flip { shard, to_grid, m } => {
                    // Migration between server calls is always legal: a
                    // batch's helper threads are joined before it returns.
                    assert!(
                        dyn_fleet.migrate_shard(shard % n_shards, &flip_target(to_grid, m)),
                        "explicit migration on a DynBackend shard must succeed"
                    );
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
            dyn_fleet.handle_sequenced_updates_parallel_into(
                &batch,
                &TableProvider(&snapshot),
                now,
                &mut out,
            );
        } else {
            dyn_fleet.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        }
        twin.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        dyn_fleet.check_invariants();
        twin.check_invariants();

        // Every live query answers identically on the migrating fleet, the
        // never-migrated twin, and the brute-force oracle.
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
            let a = sort(dyn_fleet.results(qid).expect("live query answers"));
            let b = sort(twin.results(qid).expect("live query answers"));
            assert_eq!(a, expected, "migrating fleet diverged from oracle for {qid} at t={now}");
            assert_eq!(b, expected, "static twin diverged from oracle for {qid} at t={now}");
        }
    }
}

/// The same migrating stream on a *durable* dyn fleet with a restart in
/// the middle. Explicit migrations are not log records — they force a
/// checkpoint — so the recovered state must be bit-identical (state
/// digest) no matter how many flips preceded the crash.
fn drive_durable(pipelined: bool, seed_pts: &[(f64, f64)], batches: &[Vec<Ev>]) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir: &'static str = Box::leak(
        std::env::temp_dir()
            .join(format!(
                "srb-migrate-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ))
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

    let mut positions = seed_positions(seed_pts);
    let mut server = ShardedServer::<DynBackend>::with_backend(cfg, 2).with_threads(if pipelined {
        4
    } else {
        1
    });
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
    }

    let mut live: Vec<(QueryId, Rect)> = Vec::new();
    let mut seqs = [0u64; N_OBJECTS];
    let mut now = 0.0;
    let mut out = Vec::new();
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
                    live.push((r.id, rect));
                }
                Ev::Flip { shard, to_grid, m } => {
                    assert!(server.migrate_shard(shard % 2, &flip_target(to_grid, m)));
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
        for _ in 0..16 {
            let Some(due) = server.next_deferred_due() else { break };
            now = now.max(due);
            server.process_deferred(&mut provider, now);
        }

        if bi == restart_after {
            let before = server.state_digest();
            server.sync_wal();
            drop(server);
            let (recovered, _replayed) = ShardedServer::<DynBackend>::recover(cfg, 2)
                .expect("recovery of a cleanly synced log");
            server = if pipelined { recovered.with_threads(4) } else { recovered };
            assert_eq!(
                server.state_digest(),
                before,
                "recovered state diverged from the migrated pre-restart server"
            );
        }

        server.check_invariants();
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Explicit mid-stream shard migrations never change any query result
    /// (sequential batches, 2–5 shards).
    #[test]
    fn migrating_fleet_matches_static_twin(
        n_shards in 2usize..=5,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 1..10),
    ) {
        drive(n_shards, false, &seed_pts, &batches);
    }

    /// The same stream through the single-shard delegation path.
    #[test]
    fn single_shard_migration_is_transparent(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 1..10),
    ) {
        drive(1, false, &seed_pts, &batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Migration under the *threaded* batch path: shards flip backends
    /// between batches whose lanes run on helper threads.
    #[test]
    fn pipelined_migrating_fleet_matches_static_twin(
        n_shards in 2usize..=5,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 1..10),
    ) {
        drive(n_shards, true, &seed_pts, &batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Migration + crash/recovery: checkpoints forced by explicit
    /// migrations land the recovered fleet on a bit-identical state.
    #[test]
    fn migration_survives_recovery(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 2..8),
    ) {
        drive_durable(false, &seed_pts, &batches);
    }

    /// Migration + mid-stream restart between threaded batches.
    #[test]
    fn pipelined_migration_survives_recovery(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..12),
        batches in prop::collection::vec(prop::collection::vec(arb_event(), 1..8), 2..8),
    ) {
        drive_durable(true, &seed_pts, &batches);
    }
}

// ---------------------------------------------------------------------
// Deterministic controller tests
// ---------------------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// An aggressive controller: decide every batch, confirm on the first
/// vote, and treat anything above 12 objects as "dense". With 64 objects
/// on 4 shards every shard crosses the density threshold, so the
/// controller must migrate the tree shards to the grid on the very first
/// decision boundary.
fn aggressive() -> AdaptiveConfig {
    AdaptiveConfig {
        decision_every: 1,
        dense_above: 12,
        sparse_below: 2,
        confirm: 1,
        ..Default::default()
    }
}

/// The headline acceptance scenario: a 4-shard adaptive fleet with
/// hand-placed *mixed* per-shard backends (shards 1 and 3 start on the
/// grid, 0 and 2 on the tree) and at least one controller-triggered live
/// migration answers every query bit-identically to a static
/// single-backend run and to a brute-force oracle.
#[test]
fn mixed_backend_adaptive_fleet_matches_static_run() {
    const N: usize = 64;
    let mut rng = 0x5eed_u64;
    let mut positions: Vec<Point> =
        (0..N).map(|_| Point::new(unit(&mut rng), unit(&mut rng))).collect();

    let adaptive_cfg = ServerConfig {
        grid_m: 10,
        backend: BackendConfig::Adaptive(aggressive()),
        ..Default::default()
    };
    let static_cfg = ServerConfig { grid_m: 10, ..Default::default() };
    let mut fleet = ShardedServer::<DynBackend>::with_backend(adaptive_cfg, 4);
    let mut twin = ShardedServer::new(static_cfg, 4);
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            fleet.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            twin.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
    }
    // Hand-place mixed backends: the controller starts every shard on the
    // tree; flip two of the four to the grid before any batch runs.
    for shard in [1usize, 3] {
        assert!(fleet.migrate_shard(shard, &BackendConfig::Grid(GridConfig::default())));
    }

    // A 3x3 lattice of range queries plus two kNN queries.
    let mut queries: Vec<(QueryId, Option<Rect>)> = Vec::new();
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for gx in 0..3 {
            for gy in 0..3 {
                let rect = range_rect(0.17 + gx as f64 * 0.33, 0.17 + gy as f64 * 0.33, 0.16);
                let a = fleet.register_query(QuerySpec::range(rect), &mut provider, 0.0);
                let b = twin.register_query(QuerySpec::range(rect), &mut provider, 0.0);
                assert_eq!(a.id, b.id);
                assert_eq!(a.results, b.results, "registration results diverged");
                queries.push((a.id, Some(rect)));
            }
        }
        for &(x, y, k) in &[(0.2, 0.8, 3usize), (0.7, 0.3, 5)] {
            let spec = QuerySpec::knn(Point::new(x, y), k);
            let a = fleet.register_query(spec, &mut provider, 0.0);
            let b = twin.register_query(spec, &mut provider, 0.0);
            assert_eq!(a.id, b.id);
            assert_eq!(a.results, b.results, "kNN registration results diverged");
            queries.push((a.id, None));
        }
    }

    let mut seqs = vec![0u64; N];
    let mut now = 0.0;
    for _batch in 0..12 {
        now += 0.1;
        let mut batch: Vec<SequencedUpdate> = Vec::new();
        for obj in 0..N {
            if splitmix64(&mut rng).is_multiple_of(3) {
                let p = &mut positions[obj];
                p.x = (p.x + (unit(&mut rng) - 0.5) * 0.2).clamp(0.0, 1.0);
                p.y = (p.y + (unit(&mut rng) - 0.5) * 0.2).clamp(0.0, 1.0);
                seqs[obj] += 1;
                batch.push(SequencedUpdate { id: ObjectId(obj as u32), pos: *p, seq: seqs[obj] });
            }
        }
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        fleet.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        twin.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        fleet.check_invariants();
        twin.check_invariants();

        for &(qid, rect) in &queries {
            let sort = |rs: &[ObjectId]| {
                let mut v = rs.to_vec();
                v.sort_unstable();
                v
            };
            let a = sort(fleet.results(qid).expect("live query answers"));
            let b = sort(twin.results(qid).expect("live query answers"));
            assert_eq!(a, b, "adaptive fleet diverged from the static twin for {qid} at t={now}");
            if let Some(rect) = rect {
                let expected: Vec<ObjectId> = (0..N)
                    .map(|i| ObjectId(i as u32))
                    .filter(|o| rect.contains_point(positions[o.index()]))
                    .collect();
                assert_eq!(a, expected, "range results diverged from the oracle for {qid}");
            }
        }
    }

    // Every shard holds ~16 > 12 objects, so the two tree shards must have
    // been migrated to the grid by the controller (the two hand-placed
    // grid shards need no migration — their density agrees with their
    // structure, which also exercises the "desired == current" hold path).
    assert!(
        fleet.adaptive_migrations() >= 1,
        "the controller never migrated a shard (got {})",
        fleet.adaptive_migrations()
    );
    // The hand-placed grids came up at the default resolution (64), far
    // from the density-ideal one for ~16 objects, so the controller must
    // also have retuned at least one grid.
    assert!(
        fleet.adaptive_retunes() >= 1,
        "the controller never retuned a grid (got {})",
        fleet.adaptive_retunes()
    );
}

/// Controller decisions must *replay*: the controller runs inside the
/// logged batch (before its record is appended), so a
/// recovery that re-drives the log re-makes every migrate/retune decision
/// at the same batch boundary — the recovered digest is bit-identical
/// even though migrations themselves are never logged.
#[test]
fn adaptive_controller_decisions_replay_identically() {
    let dir: &'static str = Box::leak(
        std::env::temp_dir()
            .join(format!("srb-adaptive-replay-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
            .into_boxed_str(),
    );
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        grid_m: 10,
        backend: BackendConfig::Adaptive(aggressive()),
        durability: DurabilityConfig {
            dir: Some(dir),
            policy: SyncPolicy::GroupCommit,
            group_ops: 3,
            checkpoint_ops: 7,
        },
        ..Default::default()
    };

    const N: usize = 48;
    let mut rng = 0xfeed_u64;
    let mut positions: Vec<Point> =
        (0..N).map(|_| Point::new(unit(&mut rng), unit(&mut rng))).collect();
    let cfg = ServerConfig {
        // Hash sharding splits 48 objects unevenly; drop the density
        // threshold so even the lightest shard crosses it and all three
        // must migrate.
        backend: BackendConfig::Adaptive(AdaptiveConfig { dense_above: 4, ..aggressive() }),
        ..cfg
    };
    let mut server = ShardedServer::<DynBackend>::with_backend(cfg, 3);
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        let rect = range_rect(0.5, 0.5, 0.25);
        server.register_query(QuerySpec::range(rect), &mut provider, 0.0);
    }

    let mut seqs = vec![0u64; N];
    let mut now = 0.0;
    for batch_i in 0..8 {
        now += 0.1;
        let mut batch: Vec<SequencedUpdate> = Vec::new();
        for obj in 0..N {
            if splitmix64(&mut rng).is_multiple_of(2) {
                let p = &mut positions[obj];
                p.x = (p.x + (unit(&mut rng) - 0.5) * 0.15).clamp(0.0, 1.0);
                p.y = (p.y + (unit(&mut rng) - 0.5) * 0.15).clamp(0.0, 1.0);
                seqs[obj] += 1;
                batch.push(SequencedUpdate { id: ObjectId(obj as u32), pos: *p, seq: seqs[obj] });
            }
        }
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        server.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());

        if batch_i == 4 {
            // By now the controller has migrated all three shards (density
            // 16 > 12 from batch one) and retuned their grids at least
            // once; the restart must land on the identical state.
            let migrations = server.adaptive_migrations();
            let retunes = server.adaptive_retunes();
            assert!(migrations >= 3, "expected all shards migrated, got {migrations}");
            assert!(retunes >= 1, "expected at least one retune, got {retunes}");
            let before = server.state_digest();
            server.sync_wal();
            drop(server);
            let (recovered, _replayed) = ShardedServer::<DynBackend>::recover(cfg, 3)
                .expect("recovery of a cleanly synced adaptive log");
            server = recovered;
            assert_eq!(
                server.state_digest(),
                before,
                "controller decisions did not replay identically"
            );
            assert_eq!(server.adaptive_migrations(), migrations, "migration count lost");
            assert_eq!(server.adaptive_retunes(), retunes, "retune count lost");
        }
    }
    server.check_invariants();
    let _ = std::fs::remove_dir_all(dir);
}

/// Recovery refuses a checkpoint whose per-shard backend kind the
/// recovering engine cannot hold — and the `DynBackend` +
/// `migrate_shard` path is the sanctioned way out.
#[test]
fn recovery_refuses_backend_kind_mismatch() {
    let dir: &'static str = Box::leak(
        std::env::temp_dir()
            .join(format!("srb-kind-mismatch-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
            .into_boxed_str(),
    );
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        grid_m: 10,
        durability: DurabilityConfig {
            dir: Some(dir),
            policy: SyncPolicy::Always,
            group_ops: 1,
            checkpoint_ops: 0,
        },
        ..Default::default()
    };

    let mut rng = 0xabcd_u64;
    let positions: Vec<Point> =
        (0..8).map(|_| Point::new(unit(&mut rng), unit(&mut rng))).collect();
    {
        let mut server = ShardedServer::<DynBackend>::with_backend(cfg, 2);
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        // Shard 0 goes to the grid; the forced checkpoint stamps its kind.
        assert!(server.migrate_shard(0, &BackendConfig::Grid(GridConfig::default())));
        server.sync_wal();
    }

    // A monomorphized R*-tree engine must refuse the grid shard...
    let err = ShardedServer::<RStarTree>::recover(cfg, 2)
        .err()
        .expect("an R*-tree engine must refuse a grid checkpoint");
    match err {
        RecoveryError::BackendMismatch { found, recovering } => {
            assert_eq!(found, "grid");
            assert_eq!(recovering, "rstar");
        }
        other => panic!("expected BackendMismatch, got {other:?}"),
    }
    // ...while the dyn engine holds any kind and can migrate explicitly
    // after recovery (the sanctioned mismatch escape hatch).
    let (mut server, _) =
        ShardedServer::<DynBackend>::recover(cfg, 2).expect("dyn engine accepts every kind");
    assert_eq!(server.object_count(), 8);
    assert!(server.migrate_shard(0, &BackendConfig::RStar(TreeConfig::default())));
    server.check_invariants();
    let _ = std::fs::remove_dir_all(dir);
}

/// `BackendKind` labels and tags round-trip — the mismatch error message
/// depends on them.
#[test]
fn backend_kind_round_trips() {
    for kind in [BackendKind::RStar, BackendKind::Grid] {
        assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
    }
    assert_eq!(BackendKind::from_tag(9), None);
}
