//! Crash-injection harness: proves recovery is bit-identical at every
//! fsync/rename boundary of the durability plane.
//!
//! The method is a golden-digest prefix table. One uninterrupted run with
//! durability OFF records the state digest after every logged operation
//! of a deterministic script. Each crash run arms one [`CrashPoint`] (the
//! `nth` time it is reached), drives the same script until the WAL
//! poisons, drops the server cold (losing every unsynced buffer, exactly
//! like a power cut), recovers from disk, and locates the recovered
//! digest in the golden table — recovery must land on *some* completed
//! prefix of the script, never a torn intermediate state. The remaining
//! operations are then re-driven and the final digest must equal the
//! golden run's, operation for operation and bit for bit.
//!
//! The same matrix runs on the durable single node — a 1-shard
//! [`ShardedServer`] — and on 2 shards (one log per generation either way,
//! a batch one record in it however many shards own its reports), each
//! with the region lanes of a batch on the caller alone and forked over two
//! threads (`handle_sequenced_updates_parallel_into`): same batch body, same
//! WAL bytes, and only the calling thread writes the log, so both thread
//! counts are held to the one golden table and the thread-local crash plan
//! reaches every boundary. Plus a grid-backend round trip and a corruption fuzzer
//! that bit-flips and truncates every file in the store — recovery may
//! refuse (an error is a fine answer to a mangled disk) but must never
//! panic.

use srb_core::{
    BackendConfig, CrashPoint, DurabilityConfig, FnProvider, GridConfig, ObjectId, QueryId,
    QuerySpec, RStarTree, RecoveryError, SequencedUpdate, ServerConfig, ShardedServer, SyncPolicy,
    TableProvider, UniformGrid,
};
use srb_durable::crash;
use srb_geom::{Point, Rect};
use srb_index::SpatialBackend;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Objects seeded by the script's opening rounds.
const N_OBJ: u64 = 16;
/// Rounds in the script (each round expands to 1–2 primitive ops).
const N_ROUNDS: u64 = 64;

fn scratch(tag: &str) -> &'static str {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "srb-crash-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    Box::leak(d.to_string_lossy().into_owned().into_boxed_str())
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn frac(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The whole world is this pure function: where object `id` is at round
/// `r`. Golden run, crash run, and post-recovery resume all agree on it.
fn pos_at(id: u64, r: u64) -> Point {
    let h = splitmix(id.wrapping_mul(0x0100_0000_01B3).wrapping_add(r));
    Point::new(frac(h), frac(splitmix(h)))
}

fn spec_at(r: u64) -> QuerySpec {
    let cx = frac(splitmix(r.wrapping_mul(3).wrapping_add(1))) * 0.8 + 0.1;
    let cy = frac(splitmix(r.wrapping_mul(3).wrapping_add(2))) * 0.8 + 0.1;
    let c = Point::new(cx, cy);
    match r % 4 {
        0 | 2 => QuerySpec::range(
            Rect::centered(c, 0.07, 0.07).intersection(&Rect::UNIT).unwrap_or(Rect::point(c)),
        ),
        1 => QuerySpec::knn(c, 1 + (splitmix(r) % 4) as usize),
        _ => QuerySpec::knn_unordered(c, 1 + (splitmix(r) % 4) as usize),
    }
}

/// One primitive operation — one log record, the two ingest calls
/// `Single` and `Batch` included, except `NextDue`, a read that logs
/// nothing and leaves the digest where it was. The golden prefix table is
/// indexed at this granularity: a crash can land between any two of these,
/// but never inside one.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add(u64),
    Remove(u64),
    Register(u64),
    Deregister(u32),
    Single(u64),
    Batch,
    NextDue,
    Deferred,
}

/// The deterministic script: object lifecycle, query churn, one-report
/// and many-report batches, the deferred-probe timer, and (via the lease in
/// [`base_config`]) lease regrants inside `process_deferred`.
fn script() -> Vec<(u64, Op)> {
    let mut s = Vec::new();
    for r in 0..N_ROUNDS {
        if r < N_OBJ {
            s.push((r, Op::Add(r)));
            if r % 4 == 3 {
                s.push((r, Op::Register(r)));
            }
            continue;
        }
        match r % 8 {
            0 => s.push((r, Op::Add(1000 + r))),
            1 => s.push((r, Op::Remove(1000 + r - 1))),
            2 => s.push((r, Op::Register(r))),
            3 => s.push((r, Op::Deregister((r % 6) as u32))),
            4 => {
                s.push((r, Op::NextDue));
                s.push((r, Op::Single(r % N_OBJ)));
            }
            5 => s.push((r, Op::Deferred)),
            _ => s.push((r, Op::Batch)),
        }
    }
    s
}

/// Object ids stay below this (the script adds `1000 + r`).
const ID_SPACE: u64 = 1000 + N_ROUNDS;

/// Applies one operation. `threads` is the engine's thread count: above
/// one, the ingest calls go through the threaded entry point.
fn apply<B: SpatialBackend>(e: &mut ShardedServer<B>, threads: usize, r: u64, op: Op) {
    let now = 0.05 + r as f64 * 0.1;
    let mut p = FnProvider(move |id: ObjectId| pos_at(id.0 as u64, r));
    // An object reports in at most one operation per round, so the round is
    // the client's sequence number — and `apply` stays a pure function.
    let report = |o: u64| SequencedUpdate { id: ObjectId(o as u32), pos: pos_at(o, r), seq: r };
    match op {
        Op::Add(id) => {
            let _ = e.add_object(ObjectId(id as u32), pos_at(id, r), &mut p, now);
        }
        Op::Remove(id) => {
            let _ = e.remove_object(ObjectId(id as u32), &mut p, now);
        }
        Op::Register(seed) => {
            let _ = e.register_query(spec_at(seed), &mut p, now);
        }
        Op::Deregister(q) => {
            let _ = e.deregister_query(QueryId(q));
        }
        Op::Single(_) | Op::Batch => {
            let ups: Vec<SequencedUpdate> = match op {
                Op::Single(o) => vec![report(o)],
                _ => (0..N_OBJ).filter(|o| (o + r).is_multiple_of(3)).map(report).collect(),
            };
            if threads > 1 {
                let table: Vec<Point> = (0..ID_SPACE).map(|o| pos_at(o, r)).collect();
                let table = TableProvider(&table);
                e.handle_sequenced_updates_parallel_into(&ups, &table, now, &mut Vec::new());
            } else {
                e.handle_sequenced_updates_into(&ups, &mut p, now, &mut Vec::new());
            }
        }
        Op::NextDue => {
            let _ = e.next_deferred_due();
        }
        Op::Deferred => {
            let _ = e.process_deferred(&mut p, now);
        }
    }
}

fn deep_check<B: SpatialBackend>(e: &ShardedServer<B>) {
    e.check_invariants_deep();
    e.check_invariants();
}

fn base_config() -> ServerConfig {
    ServerConfig { grid_m: 16, max_speed: Some(0.05), lease: Some(0.3), ..ServerConfig::default() }
}

/// [`base_config`] with the uniform-grid object index swapped in.
fn grid_config() -> ServerConfig {
    let mut cfg = base_config();
    cfg.backend = BackendConfig::Grid(GridConfig::default());
    cfg
}

fn durable_config(base: ServerConfig, dir: &'static str) -> ServerConfig {
    let mut cfg = base;
    // Tight cadences so every crash point is reached many times inside
    // the script: a group commit every 2 ops, a checkpoint rotation
    // every 7.
    cfg.durability = DurabilityConfig {
        dir: Some(dir),
        policy: SyncPolicy::GroupCommit,
        group_ops: 2,
        checkpoint_ops: 7,
    };
    cfg
}

/// Digest-after-every-op table from an uninterrupted, durability-OFF,
/// single-threaded run. `golden[j]` is the state after the first `j`
/// primitive operations.
fn golden_digests<B: SpatialBackend>(
    config: ServerConfig,
    shards: usize,
    script: &[(u64, Op)],
) -> Vec<u64> {
    let mut e = ShardedServer::<B>::with_backend(config, shards);
    let mut digests = vec![e.state_digest()];
    for &(r, op) in script {
        apply(&mut e, 1, r, op);
        digests.push(e.state_digest());
    }
    digests
}

/// Arms `point`/`nth`, drives the script into the crash, recovers, and
/// proves the recovered state is a completed prefix whose resumption
/// reproduces the golden final state bit for bit. Returns whether the
/// point actually fired (a too-large `nth` legitimately never does).
#[allow(clippy::too_many_arguments)]
fn crash_run<B: SpatialBackend>(
    base: ServerConfig,
    shards: usize,
    threads: usize,
    point: CrashPoint,
    nth: u32,
    script: &[(u64, Op)],
    golden: &[u64],
    tag: &str,
) -> bool {
    let cfg = durable_config(base, scratch(tag));
    let mut e = ShardedServer::<B>::with_backend(cfg, shards).with_threads(threads);
    crash::arm(point, nth);
    for &(r, op) in script {
        apply(&mut e, threads, r, op);
        if e.wal_poisoned() {
            break;
        }
    }
    crash::disarm();
    let injected = crash::fired();
    // A cold drop: group-commit buffers and unsynced tails are lost, like
    // the page cache in a power cut.
    drop(e);

    let (rec, _replayed) = ShardedServer::<B>::recover(cfg, shards)
        .unwrap_or_else(|err| panic!("recovery after {point:?} #{nth} failed: {err:?}"));
    // A recovered engine takes its thread count from the environment.
    let mut rec = rec.with_threads(threads);
    deep_check(&rec);
    let d = rec.state_digest();
    let j = golden.iter().position(|&g| g == d).unwrap_or_else(|| {
        panic!("state recovered after {point:?} #{nth} matches no completed prefix of the script")
    });
    for &(r, op) in &script[j..] {
        apply(&mut rec, threads, r, op);
    }
    assert_eq!(
        rec.state_digest(),
        *golden.last().unwrap(),
        "resume after {point:?} #{nth} diverged from the uninterrupted golden run"
    );
    deep_check(&rec);
    injected
}

fn crash_matrix<B: SpatialBackend>(base: ServerConfig, shards: usize, tag: &str) {
    let script = script();
    let golden = golden_digests::<B>(base, shards, &script);
    for threads in [1, 2] {
        for &point in CrashPoint::ALL.iter() {
            for nth in [0u32, 1, 3] {
                let fired =
                    crash_run::<B>(base, shards, threads, point, nth, &script, &golden, tag);
                assert!(
                    fired || nth > 0,
                    "{point:?} never fired at nth=0 — the script misses that boundary"
                );
            }
        }
    }
}

#[test]
fn crash_matrix_one_shard() {
    crash_matrix::<RStarTree>(base_config(), 1, "one-shard");
}

#[test]
fn crash_matrix_two_shards() {
    crash_matrix::<RStarTree>(base_config(), 2, "two-shards");
}

/// The full crash matrix on the uniform-grid backend. Gated behind
/// `SRB_BACKEND=grid` (CI's backend-agnostic recovery smoke) so the
/// default suite pays for it once, not twice; every default run still
/// covers grid recovery via [`grid_backend_recovers_bit_identical`].
#[test]
fn crash_matrix_grid_backend() {
    if !matches!(BackendConfig::from_env(), BackendConfig::Grid(_)) {
        return;
    }
    for shards in [1, 2] {
        crash_matrix::<UniformGrid>(grid_config(), shards, "grid-matrix");
    }
}

/// With no crash injected, a durable run must shadow the golden run
/// exactly, at either shard and thread count: the WAL hooks, the recording
/// provider and the forked lanes may not perturb a single decision.
#[test]
fn durable_run_matches_golden_per_op() {
    let script = script();
    for shards in [1, 2] {
        let golden = golden_digests::<RStarTree>(base_config(), shards, &script);
        for threads in [1, 2] {
            let cfg = durable_config(base_config(), scratch("shadow"));
            let mut e = ShardedServer::new(cfg, shards).with_threads(threads);
            for (j, &(r, op)) in script.iter().enumerate() {
                apply(&mut e, threads, r, op);
                let what = format!("{shards} shard(s), {threads} thread(s), op {j} ({op:?})");
                assert_eq!(e.state_digest(), golden[j + 1], "durable run diverged: {what}");
            }
        }
    }
}

/// The grid backend round-trips through log + checkpoint + recovery too:
/// the durability plane is backend-generic.
#[test]
fn grid_backend_recovers_bit_identical() {
    let script = script();
    let golden = golden_digests::<UniformGrid>(grid_config(), 1, &script);

    let cfg = durable_config(grid_config(), scratch("grid"));
    let mut e = ShardedServer::<UniformGrid>::with_backend(cfg, 1);
    for &(r, op) in &script {
        apply(&mut e, 1, r, op);
    }
    e.sync_wal();
    drop(e);
    let (rec, _) = ShardedServer::<UniformGrid>::recover(cfg, 1).expect("grid recovery");
    assert_eq!(rec.state_digest(), *golden.last().unwrap(), "grid backend recovery diverged");
}

/// Recovering with a different configuration must be refused, not
/// silently misinterpreted: the checkpoint carries a config fingerprint.
#[test]
fn recovery_rejects_config_mismatch() {
    let script = script();
    let cfg = durable_config(base_config(), scratch("mismatch"));
    let mut e = ShardedServer::new(cfg, 1);
    for &(r, op) in &script[..8] {
        apply(&mut e, 1, r, op);
    }
    e.sync_wal();
    drop(e);
    let mut other = cfg;
    other.grid_m = 32;
    match ShardedServer::<RStarTree>::recover(other, 1) {
        Err(RecoveryError::ConfigMismatch) => {}
        other => panic!("expected ConfigMismatch, got {other:?}", other = other.map(|_| ())),
    }
}

/// Bit-flips and truncations over every file of a populated store:
/// recovery may report an error, but it must never panic, and whatever
/// state it does accept must satisfy the deep invariants.
#[test]
fn corruption_fuzz_never_panics() {
    let script = script();
    let src = scratch("fuzz-src");
    let cfg = durable_config(base_config(), src);
    let mut e = ShardedServer::new(cfg, 2);
    for &(r, op) in &script {
        apply(&mut e, 1, r, op);
    }
    e.sync_wal();
    drop(e);

    let files: Vec<PathBuf> = std::fs::read_dir(src)
        .expect("store directory")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    assert!(files.len() >= 4, "expected a multi-file store, found {files:?}");

    let mut cases = 0u32;
    for victim in &files {
        for mode in 0..5u64 {
            let dst = scratch("fuzz");
            std::fs::create_dir_all(dst).unwrap();
            for f in &files {
                std::fs::copy(f, PathBuf::from(dst).join(f.file_name().unwrap())).unwrap();
            }
            let target = PathBuf::from(dst).join(victim.file_name().unwrap());
            let mut data = std::fs::read(&target).unwrap();
            let len = data.len();
            match mode {
                // Torn tail: half the file survives.
                0 => data.truncate(len / 2),
                // Torn tail: the last few bytes vanish.
                1 => data.truncate(len.saturating_sub(3)),
                // A flipped bit mid-file (CRC territory).
                2 if len > 0 => data[len / 3] ^= 0x40,
                // A flipped bit in the header.
                3 if len > 7 => data[7] ^= 0x01,
                // A burst of garbage near the end.
                _ => {
                    let at = len.saturating_sub(len / 3).min(len);
                    for b in &mut data[at..] {
                        *b = 0xAA;
                    }
                }
            }
            std::fs::write(&target, &data).unwrap();

            let mut fcfg = cfg;
            fcfg.durability.dir = Some(dst);
            // Err is acceptable (the disk is genuinely mangled); a panic
            // is not. An Ok state must still be internally consistent.
            if let Ok((rec, _)) = ShardedServer::<RStarTree>::recover(fcfg, 2) {
                deep_check(&rec);
            }
            cases += 1;
        }
    }
    assert!(cases >= 20, "fuzzer barely ran: {cases} cases");
}
