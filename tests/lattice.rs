//! The configuration lattice: the points the differential harness
//! (`common`) runs, and the few tests that do not fit it.
//!
//! `lattice_cross_section` runs from the tier-1 command: a fixed list of
//! points and seeds in which every axis value appears at least once.
//! `lattice_full` (`--ignored`, in release) runs the regressions first, then
//! the enumerated lattice — every shard count on every backend, with and
//! without a WAL, restarts, the whole crash matrix, every §6 setting, the
//! grid resolutions, both delivery shapes — and then random points whose
//! seeds come from the clock.

mod common;

use common::Backend::{self, *};
use common::Delivery::{self, *};
use common::Durability::*;
use common::Enhancement::{self, *};
use common::{check, point, populate, Config, Rng, Store};
use srb::core::CrashPoint::{self, *};
use srb::core::{
    BackendConfig, DynBackend, FnProvider, GridConfig, ObjectId, QuerySpec, RStarTree,
    RecoveryError, SequencedUpdate, ServerConfig, ShardedServer, UniformGrid,
};
use srb::geom::{Point, Rect};
use srb_cases::{cases, Seeds};
use std::path::PathBuf;

/// Points and seeds that once failed, as the failure printed them.
/// `lattice_full` replays them first.
const REGRESSIONS: &[(Config, u64)] = &[];

const P: Config = Config {
    shards: 1,
    backend: RStar,
    durability: Off,
    enhancement: Plain,
    grid_m: 10,
    delivery: Batch,
};

/// Every axis value at least once.
const CROSS_SECTION: &[(Config, u64)] = &[
    (P, 1),
    (Config { shards: 2, delivery: PerCall, ..P }, 2),
    (Config { shards: 4, backend: Grid, grid_m: 5, ..P }, 3),
    (Config { shards: 8, backend: Dyn, grid_m: 100, ..P }, 4),
    (Config { shards: 2, backend: Dyn, grid_m: 50, ..P }, 5),
    (Config { shards: 4, durability: Restart, ..P }, 6),
    (Config { shards: 2, durability: Restart, delivery: PerCall, ..P }, 7),
    (Config { shards: 8, backend: Dyn, durability: Restart, ..P }, 8),
    (Config { shards: 2, durability: Crash(LogPreSync, 0), ..P }, 9),
    (Config { backend: Grid, durability: Crash(CkptPostRename, 1), ..P }, 10),
    (Config { shards: 2, backend: Dyn, durability: Crash(CkptPrune, 3), ..P }, 11),
    (Config { enhancement: Lease, durability: Crash(CkptLogUnsynced, 0), ..P }, 12),
    (Config { shards: 2, enhancement: Reachability, ..P }, 13),
    (Config { shards: 4, enhancement: Reachability, delivery: PerCall, ..P }, 14),
    (Config { shards: 4, enhancement: Steadiness, delivery: PerCall, ..P }, 15),
    (Config { backend: Grid, enhancement: Steadiness, grid_m: 50, ..P }, 16),
    (Config { shards: 2, enhancement: Lease, durability: Restart, ..P }, 17),
    (Config { shards: 8, backend: Dyn, enhancement: Lease, delivery: PerCall, ..P }, 18),
];

#[test]
fn lattice_cross_section() {
    for &(p, seed) in CROSS_SECTION {
        check(p, seed);
    }
}

const BACKENDS: [Backend; 3] = [RStar, Grid, Dyn];
const ENHANCEMENTS: [Enhancement; 4] = [Plain, Reachability, Steadiness, Lease];
const DELIVERIES: [Delivery; 2] = [Batch, PerCall];

/// What the six hand-rolled suites enumerated, as lattice points.
fn enumerated() -> Vec<Config> {
    let mut points = Vec::new();
    for shards in [1, 2, 4, 8] {
        for backend in BACKENDS {
            for delivery in DELIVERIES {
                points.push(Config { shards, backend, delivery, ..P });
            }
        }
    }
    for shards in [2, 4, 8] {
        for backend in BACKENDS {
            points.push(Config { shards, backend, durability: Restart, ..P });
        }
    }
    // Lease timers and reachability's slack timers both cross every crash
    // boundary.
    for enhancement in [Lease, Reachability] {
        for backend in [RStar, Grid] {
            for shards in [1, 2] {
                for point in CrashPoint::ALL {
                    for nth in [0, 1, 3] {
                        let durability = Crash(point, nth);
                        points.push(Config { shards, backend, durability, enhancement, ..P });
                    }
                }
            }
        }
    }
    for enhancement in ENHANCEMENTS {
        for shards in [1, 2, 8] {
            for delivery in DELIVERIES {
                points.push(Config { shards, enhancement, delivery, ..P });
            }
        }
    }
    for grid_m in [5, 50, 100] {
        for shards in [1, 4] {
            points.push(Config { shards, grid_m, ..P });
        }
    }
    points
}

#[test]
#[ignore = "the whole lattice: run in release, `--ignored`"]
fn lattice_full() {
    for &(p, seed) in REGRESSIONS {
        check(p, seed);
    }
    for (p, seed) in enumerated().into_iter().zip(0x1a77_1ce0..) {
        check(p, seed);
    }
    // A failure prints the point's typed line above the runner's bare seed;
    // the typed line is the one `REGRESSIONS` takes.
    cases(&[], Seeds::Clock, 300, |rng| check(Config::random(rng), rng.next()));
}

// ---------------------------------------------------------------------
// What the lattice does not cover
// ---------------------------------------------------------------------

/// Recovery under a backend type that cannot build the configured backend
/// is a typed refusal, not a panic: a store a grid engine wrote, recovered
/// as an R\*-tree engine. A `DynBackend` engine builds every backend, and
/// the store recovers into it.
#[test]
fn recovery_refuses_backend_kind_mismatch() {
    let store = Store::new();
    let grid = BackendConfig::Grid(GridConfig::default());
    let cfg = store.config(ServerConfig { grid_m: 10, backend: grid, ..Default::default() });
    let mut rng = Rng(0xabcd);
    let at: Vec<Point> = (0..8).map(|_| point(&mut rng)).collect();
    let digest = {
        let mut e = ShardedServer::<UniformGrid>::with_backend(cfg, 2);
        let mut probe = FnProvider(|id: ObjectId| at[id.index()]);
        for (i, &p) in at.iter().enumerate() {
            e.add_object(ObjectId(i as u32), p, &mut probe, 0.0).expect("a fresh id");
        }
        e.sync_wal();
        e.state_digest()
    };
    match ShardedServer::<RStarTree>::recover(cfg, 2).map(|_| ()) {
        Err(RecoveryError::BackendMismatch { configured: "grid", recovering: "rstar" }) => {}
        other => panic!("expected BackendMismatch, got {other:?}"),
    }
    let (e, _) = ShardedServer::<DynBackend>::recover(cfg, 2).expect("dyn builds every backend");
    assert_eq!(e.object_count(), 8);
    assert_eq!(e.state_digest(), digest);
    e.check_invariants_deep();
}

/// A store recovered under another configuration is refused: the
/// checkpoint carries the configuration's fingerprint.
#[test]
fn recovery_rejects_config_mismatch() {
    let store = Store::new();
    let cfg = populate(Config { shards: 2, ..P }, 21, &store);
    match ShardedServer::<RStarTree>::recover(ServerConfig { grid_m: 32, ..cfg }, 2).map(|_| ()) {
        Err(RecoveryError::ConfigMismatch) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

/// Bit flips and truncations in every file of a store populated under
/// leases, so that its checkpoints carry timers: recovery may refuse, never
/// panic, and a state it accepts passes the deep invariants.
#[test]
fn corruption_fuzz_never_panics() {
    let src = Store::new();
    let cfg = populate(Config { shards: 2, enhancement: Lease, ..P }, 22, &src);
    let (e, _) = ShardedServer::<RStarTree>::recover(cfg, 2).expect("an intact store recovers");
    assert!(e.next_deferred_due().is_some(), "the store holds lease timers");
    drop(e);
    let files: Vec<PathBuf> =
        std::fs::read_dir(src.0).expect("a store").map(|f| f.expect("an entry").path()).collect();
    assert!(files.len() >= 4, "two generations of a checkpoint and a log: {files:?}");
    for victim in &files {
        for mode in 0..5 {
            let dst = Store::new();
            std::fs::create_dir_all(dst.0).expect("a fresh directory");
            for f in &files {
                std::fs::copy(f, PathBuf::from(dst.0).join(f.file_name().expect("a name")))
                    .expect("copy");
            }
            let target = PathBuf::from(dst.0).join(victim.file_name().expect("a name"));
            let mut data = std::fs::read(&target).expect("a file");
            let len = data.len();
            match mode {
                0 => data.truncate(len / 2),
                1 => data.truncate(len.saturating_sub(3)),
                2 if len > 0 => data[len / 3] ^= 0x40,
                3 if len > 7 => data[7] ^= 0x01,
                _ => data[len - len / 3..].fill(0xAA),
            }
            std::fs::write(&target, &data).expect("write");
            let durability = srb::core::DurabilityConfig { dir: Some(dst.0), ..cfg.durability };
            if let Ok((e, _)) =
                ShardedServer::<RStarTree>::recover(ServerConfig { durability, ..cfg }, 2)
            {
                e.check_invariants_deep();
            }
        }
    }
}

/// Objects strung out along a line, one per grid cell: a 2NN query at the
/// left end probes only objects near its decision boundary (§4.2's lazy
/// probes), never the tail.
#[test]
fn probes_are_lazy_far_objects_never_probed() {
    let mut e = ShardedServer::with_defaults();
    let at: Vec<Point> = (0..18).map(|i| Point::new(0.05 + 0.05 * i as f64, 0.51)).collect();
    let probed = std::cell::RefCell::new(Vec::new());
    let mut probe = FnProvider(|id: ObjectId| {
        probed.borrow_mut().push(id.0);
        at[id.index()]
    });
    for (i, &p) in at.iter().enumerate() {
        e.add_object(ObjectId(i as u32), p, &mut probe, 0.0).expect("a fresh id");
    }
    probed.borrow_mut().clear();
    let reg = e.register_query(QuerySpec::knn(Point::new(0.0, 0.51), 2), &mut probe, 0.0);
    assert_eq!(reg.results, vec![ObjectId(0), ObjectId(1)]);
    let probed = probed.into_inner();
    assert!(probed.iter().all(|&id| id <= 3), "far objects probed: {probed:?}");
}

/// A probe during a later query's registration reveals an object's new
/// position before the object's own report arrives. The revelation must
/// update the object's membership in the existing queries: the report that
/// follows moves nothing (the probe already advanced the known position),
/// so an unfolded revelation would stick forever.
#[test]
fn registration_probe_maintains_existing_queries() {
    let mut e = ShardedServer::new(ServerConfig { grid_m: 10, ..Default::default() }, 1);
    let (pos0, pos1) = (Point::new(0.6627, 0.2982), Point::new(0.7167, 0.3095));
    let mut before = FnProvider(|_: ObjectId| pos0);
    e.add_object(ObjectId(0), pos0, &mut before, 0.0).expect("a fresh id");
    // Holds pos0, not pos1.
    let (c, half) = (Point::new(0.5220289215726522, 0.4077979850184952), 0.14440198725406778);
    let q2 = e.register_query(QuerySpec::range(Rect::centered(c, half, half)), &mut before, 0.4).id;
    assert_eq!(e.results(q2), Some(&[ObjectId(0)][..]));

    let mut after = FnProvider(|_: ObjectId| pos1);
    let (c, half) = (Point::new(0.35197929094822367, 0.473441441763935), 0.25322598081137027);
    let rect = Rect::centered(c, half, half);
    let r3 = e.register_query(QuerySpec::range(rect), &mut after, 0.4);
    assert!(r3.changes.iter().any(|c| c.query == q2), "the response carries q2's change");
    assert_eq!(e.results(q2), Some(&[][..]), "q2 drops the mover");

    let report = SequencedUpdate { id: ObjectId(0), pos: pos1, seq: 1 };
    e.handle_sequenced_updates_into(&[report], &mut after, 0.4, &mut Vec::new());
    assert_eq!(e.results(q2), Some(&[][..]));
    assert_eq!(e.results(r3.id), Some(&[][..]));
    e.check_invariants_deep();
}
