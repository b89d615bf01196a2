//! Crash-injection matrix for the *threaded* batch path: the sharded
//! server forking scoped helper threads for the region step of every
//! batch. Only the calling thread touches the WAL — partition records
//! first, the marker with the coordinator's one probe transcript last —
//! so what this matrix adds to `crash.rs` is the entry point: a crash at
//! any fsync/rename boundary of a run driven through
//! `handle_sequenced_updates_parallel_into` recovers exactly where the
//! sequential engine would.
//!
//! The method is the same golden-digest prefix table as `crash.rs`: an
//! uninterrupted durability-OFF run records the digest after every op;
//! each crash run arms a [`CrashPoint`], drives the same script until the
//! WAL poisons, drops the server cold mid-stream (no thread outlives a
//! batch, so there is nothing to drain), recovers, and the recovered state
//! must be a completed-operation prefix whose resumption reproduces the
//! golden final digest bit for bit.
//!
//! The matrix arms the process-wide shared plan ([`crash::arm_shared`],
//! which trips on whichever thread reaches the boundary), so it lives in
//! its own test binary: run next to the thread-local matrix it would steal
//! those countdowns. Cargo runs test binaries sequentially, and the
//! in-file mutex serializes the tests within this one.

use srb_core::{
    CrashPoint, DurabilityConfig, FnProvider, ObjectId, QueryId, QuerySpec, SequencedUpdate,
    ServerConfig, ShardedServer, SyncPolicy, TableProvider,
};
use srb_durable::crash;
use srb_geom::{Point, Rect};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tests in this binary share the one process-global crash plan.
static PLAN: Mutex<()> = Mutex::new(());

const N_OBJ: u64 = 12;
const N_ROUNDS: u64 = 48;
const SHARDS: usize = 2;
const WORKERS: usize = 4;

fn scratch(tag: &str) -> &'static str {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "srb-pipecrash-{tag}-{}-{}",
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
/// `r`. Golden run, crash run, and post-recovery resume all agree on it,
/// so the probe answers a lane reads on a helper thread are reproducible
/// too.
fn pos_at(id: u64, r: u64) -> Point {
    let h = splitmix(id.wrapping_mul(0x0100_0000_01B3).wrapping_add(r));
    Point::new(frac(h), frac(splitmix(h)))
}

fn spec_at(r: u64) -> QuerySpec {
    let cx = frac(splitmix(r.wrapping_mul(3).wrapping_add(1))) * 0.8 + 0.1;
    let cy = frac(splitmix(r.wrapping_mul(3).wrapping_add(2))) * 0.8 + 0.1;
    let c = Point::new(cx, cy);
    match r % 3 {
        0 => QuerySpec::range(
            Rect::centered(c, 0.09, 0.09).intersection(&Rect::UNIT).unwrap_or(Rect::point(c)),
        ),
        1 => QuerySpec::knn(c, 1 + (splitmix(r) % 3) as usize),
        _ => QuerySpec::knn_unordered(c, 1 + (splitmix(r) % 3) as usize),
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Add(u64),
    Register(u64),
    Deregister(u32),
    /// A sequenced batch through `handle_sequenced_updates_parallel_into`:
    /// its lanes processed and WAL-logged by the caller and its helpers.
    Batch,
    Deferred,
}

/// The deterministic script: object setup, query churn, threaded batches
/// every other round, and the deferred-probe timer.
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
        match r % 6 {
            0 => s.push((r, Op::Register(r))),
            1 => s.push((r, Op::Deregister((r % 5) as u32))),
            2 => s.push((r, Op::Deferred)),
            _ => s.push((r, Op::Batch)),
        }
    }
    s
}

fn build(cfg: ServerConfig) -> ShardedServer {
    ShardedServer::new(cfg, SHARDS).with_threads(WORKERS)
}

fn apply(e: &mut ShardedServer, r: u64, op: Op) {
    let now = 0.05 + r as f64 * 0.1;
    let sync = move |id: ObjectId| pos_at(id.0 as u64, r);
    match op {
        Op::Add(id) => {
            let mut p = FnProvider(sync);
            let _ = e.add_object(ObjectId(id as u32), pos_at(id, r), &mut p, now);
        }
        Op::Register(seed) => {
            let mut p = FnProvider(sync);
            let _ = e.register_query(spec_at(seed), &mut p, now);
        }
        Op::Deregister(q) => {
            let _ = e.deregister_query(QueryId(q));
        }
        Op::Batch => {
            // Every object reports at most once per round, and rounds only
            // move forward, so `seq = r + 1` is fresh for every reporter —
            // including across a crash/recovery boundary.
            let ups: Vec<SequencedUpdate> = (0..N_OBJ)
                .filter(|o| (o + r).is_multiple_of(3))
                .map(|o| SequencedUpdate { id: ObjectId(o as u32), pos: pos_at(o, r), seq: r + 1 })
                .collect();
            let table: Vec<Point> = (0..N_OBJ).map(|o| pos_at(o, r)).collect();
            let mut out = Vec::new();
            e.handle_sequenced_updates_parallel_into(&ups, &TableProvider(&table), now, &mut out);
        }
        Op::Deferred => {
            let mut p = FnProvider(sync);
            let _ = e.process_deferred(&mut p, now);
        }
    }
}

fn base_config() -> ServerConfig {
    ServerConfig { grid_m: 16, max_speed: Some(0.05), lease: Some(0.3), ..ServerConfig::default() }
}

fn durable_config(dir: &'static str) -> ServerConfig {
    let mut cfg = base_config();
    // Tight cadences so every crash point is reached many times inside
    // the script.
    cfg.durability = DurabilityConfig {
        dir: Some(dir),
        policy: SyncPolicy::GroupCommit,
        group_ops: 2,
        checkpoint_ops: 7,
    };
    cfg
}

/// Digest-after-every-op table from an uninterrupted, durability-OFF,
/// fully threaded run.
fn golden_digests(script: &[(u64, Op)]) -> Vec<u64> {
    let mut e = build(base_config());
    let mut digests = vec![e.state_digest()];
    for &(r, op) in script {
        apply(&mut e, r, op);
        digests.push(e.state_digest());
    }
    digests
}

/// Arms `point` process-wide, drives the script into the crash (the point
/// may fire on a helper thread mid-batch), recovers, and proves the
/// recovered state is a completed-operation prefix whose resumption
/// reproduces the golden final state. Returns whether the point fired.
fn crash_run(point: CrashPoint, nth: u32, script: &[(u64, Op)], golden: &[u64]) -> bool {
    let cfg = durable_config(scratch("mx"));
    let mut e = build(cfg);
    crash::arm_shared(point, nth);
    for &(r, op) in script {
        apply(&mut e, r, op);
        if e.wal_poisoned() {
            break;
        }
    }
    crash::disarm();
    let injected = crash::fired_shared();
    // A cold drop mid-stream: group-commit buffers and unsynced tails are
    // lost, like the page cache in a power cut.
    drop(e);

    let (rec, _replayed) = ShardedServer::recover(cfg, SHARDS)
        .unwrap_or_else(|err| panic!("recovery after {point:?} #{nth} failed: {err:?}"));
    let mut rec = rec.with_threads(WORKERS);
    rec.check_invariants_deep();
    rec.check_invariants();
    let d = rec.state_digest();
    let j = golden.iter().position(|&g| g == d).unwrap_or_else(|| {
        panic!("state recovered after {point:?} #{nth} matches no completed prefix of the script")
    });
    for &(r, op) in &script[j..] {
        apply(&mut rec, r, op);
    }
    assert_eq!(
        rec.state_digest(),
        *golden.last().unwrap(),
        "resume after {point:?} #{nth} diverged from the uninterrupted golden run"
    );
    rec.check_invariants_deep();
    injected
}

#[test]
fn crash_matrix_pipelined_sharded_server() {
    let _guard = PLAN.lock().unwrap();
    let script = script();
    let golden = golden_digests(&script);
    for &point in CrashPoint::ALL.iter() {
        for nth in [0u32, 1, 3] {
            let fired = crash_run(point, nth, &script, &golden);
            assert!(
                fired || nth > 0,
                "{point:?} never fired at nth=0 — the script misses that boundary"
            );
        }
    }
}

/// With no crash injected, the durable threaded run must shadow the
/// golden (non-durable, equally threaded) run digest for digest: WAL
/// appends from the lanes' threads may not perturb a single decision.
#[test]
fn durable_pipelined_run_matches_golden_per_op() {
    let _guard = PLAN.lock().unwrap();
    let script = script();
    let golden = golden_digests(&script);
    let mut e = build(durable_config(scratch("shadow")));
    for (j, &(r, op)) in script.iter().enumerate() {
        apply(&mut e, r, op);
        assert_eq!(e.state_digest(), golden[j + 1], "durable run diverged at op {j} ({op:?})");
    }
}
