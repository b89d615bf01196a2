//! The differential harness: one generator and one checker over the
//! configuration lattice (DESIGN.md "Test lattice").
//!
//! A lattice point ([`Config`]) names one value per axis. [`check`] draws a
//! world from `(point, seed)` and runs it on the **shadow** — the point's
//! shards and backend, no WAL — which decides who reports and records the
//! run as a list of engine calls, each with the state digest that follows
//! it. The **reference** — the point's `ServerConfig` at one shard, no WAL,
//! on the R\*-tree, fed each batch in id order — takes the same calls
//! beside it and is observed at every check instant. Then the point's own
//! engine (its WAL, its crash point) replays the list. After every call it
//! must pass the deep invariants and
//! read the shadow's digest; a crashed engine must recover onto a digest of
//! the list and resume to its end. At every check instant its results are
//! held to brute force over the true positions and to the reference.

#![allow(dead_code)] // each test binary uses its own share of the harness

use srb::core::{
    AdaptiveConfig, BackendConfig, CostTracker, CrashPoint, DurabilityConfig, DynBackend,
    FnProvider, GridConfig, ObjectId, Quarantine, QueryId, QuerySpec, RStarTree, SequencedUpdate,
    ServerConfig, ShardedServer, SpatialBackend, SyncPolicy, UniformGrid, WorkStats,
};
use srb::geom::{Point, Rect};
pub use srb_cases::{mix, Rng};
use srb_durable::crash;
use std::fmt::Display;

/// A uniform draw in `[0, 1)` from `(i, salt)`, for worlds laid out by index.
pub fn unit(i: u64, salt: u64) -> f64 {
    (mix(i ^ (salt << 32)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform point of the unit square.
pub fn point(rng: &mut Rng) -> Point {
    Point::new(rng.unit(), rng.unit())
}

/// A durability store of one test: removed when the test passes, kept with
/// its path printed when it fails.
pub struct Store(pub &'static str);

impl Store {
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("srb-lattice-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store(Box::leak(dir.to_string_lossy().into_owned().into_boxed_str()))
    }

    /// `base` logging into this store, with cadences tight enough that a
    /// run reaches every crash point: a group commit every 2 operations, a
    /// checkpoint every 7.
    pub fn config(&self, base: ServerConfig) -> ServerConfig {
        let durability = DurabilityConfig {
            dir: Some(self.0),
            policy: SyncPolicy::GroupCommit,
            group_ops: 2,
            checkpoint_ops: 7,
        };
        ServerConfig { durability, ..base }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("store kept at {}", self.0);
        } else {
            let _ = std::fs::remove_dir_all(self.0);
        }
    }
}

/// A random query: a range clipped to the unit square, or an ordered or
/// unordered kNN query with k in 1..=5.
pub fn random_spec(rng: &mut Rng) -> QuerySpec {
    let c = point(rng);
    match rng.below(3) {
        0 => {
            let (hx, hy) = (0.02 + 0.2 * rng.unit(), 0.02 + 0.2 * rng.unit());
            QuerySpec::range(Rect::centered(c, hx, hy).intersection(&Rect::UNIT).expect("c inside"))
        }
        1 => QuerySpec::knn(c, 1 + rng.below(5)),
        _ => QuerySpec::knn_unordered(c, 1 + rng.below(5)),
    }
}

/// A result list as its query defines it: in rank order for an
/// order-sensitive kNN query, as a set (ascending ids) otherwise.
pub fn canonical(spec: &QuerySpec, results: &[ObjectId]) -> Vec<ObjectId> {
    let mut results = results.to_vec();
    if !matches!(spec, QuerySpec::Knn { order_sensitive: true, .. }) {
        results.sort_unstable();
    }
    results
}

/// Holds `got`, a query's monitored result, to brute force over the objects
/// `live` names at the positions `at`: ids for a range query, distances for
/// kNN — in rank order when the query is order-sensitive — so that
/// equidistant objects may trade places.
pub fn assert_exact(
    spec: &QuerySpec,
    got: &[ObjectId],
    at: &[Point],
    live: &dyn Fn(usize) -> bool,
    what: &dyn Display,
) {
    assert!(got.iter().all(|o| live(o.index())), "{what}: {spec:?} holds a dead object: {got:?}");
    let live = || (0..at.len()).filter(|&i| live(i));
    match *spec {
        QuerySpec::Range { rect } => {
            let want: Vec<ObjectId> = live()
                .filter(|&i| rect.contains_point(at[i]))
                .map(|i| ObjectId(i as u32))
                .collect();
            assert_eq!(canonical(spec, got), want, "{what}: range {rect:?}");
        }
        QuerySpec::Knn { center, k, order_sensitive } => {
            let mut want: Vec<f64> = live().map(|i| at[i].dist(center)).collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            let mut got: Vec<f64> = got.iter().map(|o| at[o.index()].dist(center)).collect();
            if !order_sensitive {
                got.sort_by(f64::total_cmp);
            }
            assert_eq!(got, want, "{what}: kNN at {center:?}, distances");
        }
    }
}

// ---------------------------------------------------------------------
// The lattice
// ---------------------------------------------------------------------

/// The object index under each shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    RStar,
    Grid,
    /// `DynBackend` under `BackendConfig::Adaptive(AdaptiveConfig::default())`:
    /// the R\*-tree behind the runtime dispatch.
    Dyn,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Durability {
    Off,
    /// A WAL, and restarts (sync, drop, recover) in the stream.
    Restart,
    /// A WAL with `CrashPoint` armed to fire the `nth` (0-based) time it is
    /// reached; the crashed engine recovers and resumes.
    Crash(CrashPoint, u32),
}

/// The §6 enhancement switched on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Enhancement {
    Plain,
    Reachability,
    Steadiness,
    Lease,
}

/// How reports reach the engine. Either way, replays and unknown ids are
/// mixed in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Delivery {
    /// One batch per step, in a permuted order.
    Batch,
    /// One report per call.
    PerCall,
}

/// A lattice point: one value per axis. Its `Debug` form, with the axis
/// variants in scope, is the Rust that rebuilds it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    pub shards: usize,
    pub backend: Backend,
    pub durability: Durability,
    pub enhancement: Enhancement,
    pub grid_m: usize,
    pub delivery: Delivery,
}

impl Config {
    /// A point drawn uniformly from every axis.
    pub fn random(rng: &mut Rng) -> Config {
        use Backend::*;
        use Enhancement::*;
        let durability = match rng.below(3) {
            0 => Durability::Off,
            1 => Durability::Restart,
            _ => Durability::Crash(rng.pick(&CrashPoint::ALL), rng.pick(&[0, 1, 3])),
        };
        Config {
            shards: rng.pick(&[1, 2, 4, 8]),
            backend: rng.pick(&[RStar, Grid, Dyn]),
            durability,
            enhancement: rng.pick(&[Plain, Reachability, Steadiness, Lease]),
            grid_m: rng.pick(&[5, 10, 50, 100]),
            delivery: rng.pick(&[Delivery::Batch, Delivery::PerCall]),
        }
    }

    /// The point's engine configuration, WAL aside. `v` bounds the speed of
    /// every object, as §6.1 requires.
    fn server_config(&self, v: f64) -> ServerConfig {
        ServerConfig {
            grid_m: self.grid_m,
            backend: match self.backend {
                Backend::RStar => BackendConfig::default(),
                Backend::Grid => BackendConfig::Grid(GridConfig::default()),
                Backend::Dyn => BackendConfig::Adaptive(AdaptiveConfig::default()),
            },
            max_speed: (self.enhancement == Enhancement::Reachability).then_some(v),
            steadiness: (self.enhancement == Enhancement::Steadiness).then_some(0.5),
            lease: (self.enhancement == Enhancement::Lease).then_some(0.25),
            ..Default::default()
        }
    }
}

/// Prints, when the check it guards fails, the line that replays it.
struct ReplayLine(Config, u64);

impl Drop for ReplayLine {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("add to REGRESSIONS: ({:?}, {:#x}),", self.0, self.1);
        }
    }
}

/// Runs the lattice point `p` on the world `seed` draws, through the
/// generator and the checker.
pub fn check(p: Config, seed: u64) {
    let _line = ReplayLine(p, seed);
    fn run<B: SpatialBackend>(p: &Config, seed: u64) {
        replay::<B>(p, &generate::<B>(p, seed));
    }
    match p.backend {
        Backend::RStar => run::<RStarTree>(&p, seed),
        Backend::Grid => run::<UniformGrid>(&p, seed),
        Backend::Dyn => run::<DynBackend>(&p, seed),
    }
}

/// Replays the run `(p, seed)` draws into a durable engine logging into
/// `store` at the point's shard count, syncs and drops it cold. Returns
/// the configuration that recovers it.
pub fn populate(p: Config, seed: u64, store: &Store) -> ServerConfig {
    let script = generate::<RStarTree>(&p, seed);
    let cfg = store.config(script.config);
    let mut e = ShardedServer::new(cfg, p.shards);
    for step in &script.steps {
        apply(&mut e, &step.call, &script.worlds[step.world], step.now);
    }
    e.sync_wal();
    cfg
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

const OBJECTS: usize = 24;
const QUERIES: usize = 6;
const STEPS: usize = 16;
/// Time between two steps.
const DT: f64 = 0.1;
/// Ids from here on are never registered.
const UNKNOWN: u32 = 1 << 20;

/// The slots of a step: one report per call gives every object its own.
fn slots(delivery: Delivery) -> usize {
    match delivery {
        Delivery::Batch => 1,
        Delivery::PerCall => OBJECTS + STEPS + 1,
    }
}

/// One engine call.
#[derive(Clone, Debug)]
enum Call {
    Add(ObjectId),
    Remove(ObjectId),
    Register(QuerySpec),
    Deregister(QueryId),
    Ingest(Vec<SequencedUpdate>),
    Deferred,
    /// Sync, drop, recover; a no-op without a WAL.
    Restart,
}

struct Step {
    call: Call,
    /// The position table probes read.
    world: usize,
    now: f64,
}

/// What a check instant holds an engine to.
struct Instant {
    /// The number of calls before it.
    after: usize,
    world: usize,
    alive: Vec<bool>,
    live: Vec<(QueryId, QuerySpec)>,
    /// Deregistered ids not reused since.
    dead: Vec<QueryId>,
    reference: Observed,
}

/// A run, as the shadow recorded it.
struct Script {
    config: ServerConfig,
    steps: Vec<Step>,
    /// `digests[j]`: the shadow's state after the first `j` calls.
    digests: Vec<u64>,
    worlds: Vec<Vec<Point>>,
    instants: Vec<Instant>,
}

/// What the reference comparison reads off an engine.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Vec<ObjectId>>,
    costs: CostTracker,
    quarantines: Vec<Option<Quarantine>>,
    regions: Vec<Option<Rect>>,
    known: Vec<Option<(Point, f64)>>,
    work: WorkStats,
}

fn observe<B: SpatialBackend>(
    e: &ShardedServer<B>,
    live: &[(QueryId, QuerySpec)],
    ids: usize,
) -> Observed {
    let result = |&(q, spec): &(QueryId, QuerySpec)| canonical(&spec, e.results(q).expect("live"));
    Observed {
        results: live.iter().map(result).collect(),
        costs: e.costs(),
        quarantines: live.iter().map(|&(q, _)| e.quarantine(q)).collect(),
        regions: (0..ids as u32).map(|i| e.safe_region(ObjectId(i))).collect(),
        known: (0..ids as u32).map(|i| e.last_known(ObjectId(i))).collect(),
        work: e.work(),
    }
}

/// Runs `call` on `e`, probing the position table `at`. Returns the id a
/// registration got.
fn apply<B: SpatialBackend>(
    e: &mut ShardedServer<B>,
    call: &Call,
    at: &[Point],
    now: f64,
) -> Option<QueryId> {
    let mut probe = FnProvider(|id: ObjectId| at[id.index()]);
    match call {
        Call::Add(id) => {
            e.add_object(*id, at[id.index()], &mut probe, now).expect("a fresh id");
        }
        Call::Remove(id) => {
            e.remove_object(*id, &mut probe, now).expect("a live object");
        }
        Call::Register(spec) => return Some(e.register_query(*spec, &mut probe, now).id),
        Call::Deregister(q) => assert!(e.deregister_query(*q), "{q} is live"),
        Call::Ingest(batch) => {
            e.handle_sequenced_updates_into(batch, &mut probe, now, &mut Vec::new())
        }
        Call::Deferred => {
            e.process_deferred(&mut probe, now);
        }
        Call::Restart => {}
    }
    None
}

/// The generator's state: the shadow and the reference in lockstep, the
/// true world, and the script so far.
struct Gen<B: SpatialBackend> {
    shadow: ShardedServer<B>,
    reference: ShardedServer,
    rng: Rng,
    script: Script,
    at: Vec<Point>,
    alive: Vec<bool>,
    seqs: Vec<u64>,
    live: Vec<(QueryId, QuerySpec)>,
    dead: Vec<QueryId>,
    now: f64,
    stride: f64,
}

impl<B: SpatialBackend> Gen<B> {
    fn call(&mut self, call: Call) -> Option<QueryId> {
        let world = self.script.worlds.len() - 1;
        let at = &self.script.worlds[world];
        let id = apply(&mut self.shadow, &call, at, self.now);
        let in_id_order = match &call {
            Call::Ingest(batch) => {
                let mut batch = batch.clone();
                batch.sort_by_key(|u| u.id);
                Call::Ingest(batch)
            }
            other => other.clone(),
        };
        let ref_id = apply(&mut self.reference, &in_id_order, at, self.now);
        assert_eq!(id, ref_id, "query ids are allocated alike");
        self.script.digests.push(self.shadow.state_digest());
        self.script.steps.push(Step { call, world, now: self.now });
        id
    }

    fn register(&mut self) {
        let spec = random_spec(&mut self.rng);
        let id = self.call(Call::Register(spec)).expect("an id");
        self.dead.retain(|&d| d != id);
        self.live.push((id, spec));
    }

    fn new_world(&mut self) {
        self.script.worlds.push(self.at.clone());
    }

    fn outside(&self, i: usize) -> bool {
        let sr = self.shadow.safe_region(ObjectId(i as u32)).expect("live");
        !sr.contains_point(self.at[i])
    }

    fn report(&mut self, i: usize) -> SequencedUpdate {
        self.seqs[i] += 1;
        SequencedUpdate { id: ObjectId(i as u32), pos: self.at[i], seq: self.seqs[i] }
    }

    /// A replayed report of a live object (its last sequence number) or a
    /// report from an id the engine never registered.
    fn noise(&mut self) -> SequencedUpdate {
        let alive: Vec<usize> = (0..self.at.len()).filter(|&i| self.alive[i]).collect();
        let i = self.rng.pick(&alive);
        match self.rng.below(2) {
            0 => SequencedUpdate { id: ObjectId(i as u32), pos: self.at[i], seq: self.seqs[i] },
            _ => {
                let id = ObjectId(UNKNOWN + self.rng.below(8) as u32);
                SequencedUpdate { id, pos: self.at[i], seq: 1 }
            }
        }
    }

    /// Moves object `i` by a random walk step, reflected off the border: at
    /// most `stride` along each axis.
    fn walk(&mut self, i: usize) {
        let reflect = |v: f64| {
            if v < 0.0 {
                -v
            } else if v > 1.0 {
                2.0 - v
            } else {
                v
            }
        };
        let (dx, dy) = (2.0 * self.rng.unit() - 1.0, 2.0 * self.rng.unit() - 1.0);
        let p = self.at[i];
        self.at[i] = Point::new(reflect(p.x + self.stride * dx), reflect(p.y + self.stride * dy));
    }

    /// Objects move and every object outside its safe region reports: in a
    /// batch, all at once at the end of the step; one report per call, each
    /// object in its own slot of the step, reporting before the next moves.
    /// Before an object moves, the timers due half a slot earlier fire.
    fn move_and_report(&mut self, delivery: Delivery) {
        let mut order: Vec<usize> = (0..self.at.len()).filter(|&i| self.alive[i]).collect();
        order.sort_by_cached_key(|_| self.rng.next());
        let (start, slot) = (self.now, DT / slots(delivery) as f64);
        match delivery {
            Delivery::Batch => {
                self.now = start + slot / 2.0;
                self.drain();
                self.now = start + slot;
                order.iter().for_each(|&i| self.walk(i));
                self.new_world();
                order.retain(|&i| self.outside(i));
                let mut batch: Vec<SequencedUpdate> =
                    order.into_iter().map(|i| self.report(i)).collect();
                for _ in 0..self.rng.below(3) {
                    let noise = self.noise();
                    let at = self.rng.below(batch.len() + 1);
                    batch.insert(at, noise);
                }
                if !batch.is_empty() {
                    self.call(Call::Ingest(batch));
                }
            }
            Delivery::PerCall => {
                for (j, i) in order.into_iter().enumerate() {
                    self.now = start + (j as f64 + 0.5) * slot;
                    self.drain();
                    self.now = start + (j + 1) as f64 * slot;
                    self.walk(i);
                    self.new_world();
                    if self.rng.below(8) == 0 {
                        let noise = self.noise();
                        self.call(Call::Ingest(vec![noise]));
                    }
                    if self.outside(i) {
                        let report = self.report(i);
                        self.call(Call::Ingest(vec![report]));
                    }
                }
            }
        }
        self.now = start + DT;
    }

    /// Fires the timers due by now.
    fn drain(&mut self) {
        for _ in 0..4 {
            if self.shadow.next_deferred_due().is_none_or(|due| due > self.now) {
                break;
            }
            self.call(Call::Deferred);
        }
    }

    fn instant(&mut self) {
        let reference = observe(&self.reference, &self.live, self.at.len());
        self.script.instants.push(Instant {
            after: self.script.steps.len(),
            world: self.script.worlds.len() - 1,
            alive: self.alive.clone(),
            live: self.live.clone(),
            dead: self.dead.clone(),
            reference,
        });
    }
}

/// Draws the run of `(p, seed)` on the shadow, with the reference beside
/// it.
///
/// The engine is exact today only where no probe meets a silent mover, an
/// object outside its safe region that has not reported yet (ROADMAP item
/// 1): a revealed mover's new region can cross an ordered-kNN quarantine,
/// and a query can miss it. So a step is the paper's sequential model
/// (§3): timers due before a move fire before it; a report reaches the
/// engine before anything else probes; and registration, deregistration,
/// object churn, flips and restarts all run at check instants, where every
/// object is inside its safe region.
fn generate<B: SpatialBackend>(p: &Config, seed: u64) -> Script {
    let mut rng = Rng(seed);
    let stride = rng.pick(&[0.02, 0.05, 0.2]);
    // An object moves at most `stride`·√2 per step, at an instant of its
    // own: within the half slot before it at speed `v`, so §6.1's bound
    // holds for the timers fired half a slot early.
    let config = p.server_config(3.0 * stride * slots(p.delivery) as f64 / DT);
    let reference = ServerConfig { backend: BackendConfig::default(), ..config };
    let mut g = Gen {
        shadow: ShardedServer::<B>::with_backend(config, p.shards),
        reference: ShardedServer::new(reference, 1),
        script: Script {
            config,
            steps: Vec::new(),
            digests: Vec::new(),
            worlds: Vec::new(),
            instants: Vec::new(),
        },
        at: (0..OBJECTS).map(|_| point(&mut rng)).collect(),
        alive: vec![true; OBJECTS],
        seqs: vec![0; OBJECTS],
        live: Vec::new(),
        dead: Vec::new(),
        now: 0.0,
        stride,
        rng,
    };
    g.script.digests.push(g.shadow.state_digest());
    g.new_world();
    for i in 0..OBJECTS {
        g.call(Call::Add(ObjectId(i as u32)));
    }
    for _ in 0..QUERIES {
        g.register();
    }
    g.instant();
    for step in 1..=STEPS {
        g.now = (step - 1) as f64 * DT;
        g.move_and_report(p.delivery);
        g.drain();
        g.instant();
        match g.rng.below(4) {
            0 => g.register(),
            1 if !g.live.is_empty() => {
                let (q, _) = g.live.remove(g.rng.below(g.live.len()));
                g.call(Call::Deregister(q));
                g.dead.push(q);
            }
            _ => {}
        }
        match g.rng.below(6) {
            0 => {
                let id = ObjectId(g.at.len() as u32);
                let p = point(&mut g.rng);
                g.at.push(p);
                g.alive.push(true);
                g.seqs.push(0);
                g.new_world();
                g.call(Call::Add(id));
            }
            1 if g.alive.iter().filter(|&&a| a).count() > OBJECTS / 2 => {
                let alive: Vec<usize> = (0..g.at.len()).filter(|&i| g.alive[i]).collect();
                let i = g.rng.pick(&alive);
                g.alive[i] = false;
                g.call(Call::Remove(ObjectId(i as u32)));
            }
            3 if p.durability == Durability::Restart => {
                g.call(Call::Restart);
            }
            _ => {}
        }
    }
    g.instant();
    g.script
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

/// Replays `script` on the point's own engine and checks it after every
/// call and at every check instant.
fn replay<B: SpatialBackend>(p: &Config, script: &Script) {
    let store = (p.durability != Durability::Off).then(Store::new);
    let cfg = store.as_ref().map_or(script.config, |s| s.config(script.config));
    let recover = || {
        let (e, _) = ShardedServer::<B>::recover(cfg, p.shards)
            .unwrap_or_else(|err| panic!("recovery failed: {err:?}"));
        e
    };
    let mut e = ShardedServer::<B>::with_backend(cfg, p.shards);
    if let Durability::Crash(point, nth) = p.durability {
        crash::arm(point, nth);
    }
    let mut j = 0;
    while let Some(step) = script.steps.get(j) {
        if matches!(step.call, Call::Restart) && store.is_some() {
            e.sync_wal();
            if !e.wal_poisoned() {
                drop(e);
                e = recover();
            }
        } else {
            apply(&mut e, &step.call, &script.worlds[step.world], step.now);
        }
        j += 1;
        if e.wal_poisoned() {
            // The crash: a cold drop loses every unsynced buffer, like a
            // power cut. Recovery must land on a completed prefix.
            crash::disarm();
            drop(e);
            e = recover();
            let digest = e.state_digest();
            j = script.digests.iter().position(|&d| d == digest).unwrap_or_else(|| {
                panic!("the state recovered at call {j} matches no prefix of the run")
            });
        }
        e.check_invariants_deep();
        assert_eq!(
            e.state_digest(),
            script.digests[j],
            "digest after call {j} ({step:?})",
            step = step.call
        );
        for instant in script.instants.iter().filter(|i| i.after == j) {
            check_instant(p, &e, instant, &script.worlds[instant.world]);
        }
    }
    crash::disarm();
    if let Durability::Crash(point, 0) = p.durability {
        assert!(crash::fired(), "{point:?} never fired: the run misses that boundary");
    }
}

fn check_instant<B: SpatialBackend>(p: &Config, e: &ShardedServer<B>, i: &Instant, at: &[Point]) {
    let what = format!("check instant after call {}", i.after);
    let alive = |o: usize| i.alive[o];
    for &(q, spec) in &i.live {
        let got = e.results(q).expect("a live query answers");
        assert_exact(&spec, got, at, &alive, &format_args!("{what}, {q}"));
        if let (Some(Quarantine::Circle(c)), QuerySpec::Knn { order_sensitive, .. }) =
            (e.quarantine(q), spec)
        {
            for o in (0..at.len()).filter(|&o| alive(o)) {
                let (inside, result) = (c.contains(at[o]), got.contains(&ObjectId(o as u32)));
                assert!(inside || !result, "{what}: result {o} of {q} outside its quarantine");
                assert!(!inside || result || !order_sensitive, "{what}: non-result {o} inside {q}");
            }
        }
    }
    for &q in &i.dead {
        assert!(e.results(q).is_none(), "{what}: deregistered {q} answers");
    }
    let got = observe(e, &i.live, at.len());
    let want = &i.reference;
    assert_eq!(got.results, want.results, "{what}: results against the reference");
    assert_eq!(got.costs, want.costs, "{what}: costs against the reference");
    // `Dyn` runs the R*-tree too: the dispatch must not show.
    if p.backend != Backend::Grid {
        assert_eq!(&got, want, "{what}: against the reference");
    }
}
