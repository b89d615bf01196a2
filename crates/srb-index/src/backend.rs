//! The pluggable object-index seam: [`SpatialBackend`] is the interface the
//! SRB framework's object index (paper Figure 3.1) is written against, so
//! the index structure under the monitoring stack can be swapped without
//! touching the query-processing layers.
//!
//! Two backends ship in this crate:
//!
//! - [`RStarTree`](crate::RStarTree) — the paper's §7.1 choice: an R\*-tree
//!   with the bottom-up update fast path of Lee et al. (VLDB 2003);
//! - [`UniformGrid`](crate::UniformGrid) — the cell-bucketed index the
//!   update-heavy moving-object literature favors (e.g. the distributed
//!   range-query systems in PAPERS.md): O(1) relocation inside a cell, at
//!   the price of scan-based search.
//!
//! Both expose identical semantics (verified by the backend-equivalence
//! proptest in `tests/prop_backend.rs`): rectangles keyed by [`EntryId`],
//! closed-interval intersection search, and incremental best-first
//! nearest-neighbor browsing through the [`NearestStream`] interface the
//! paper's Algorithm 2 consumes.

use crate::node::NodeId;
use crate::{ConfigError, GridConfig};
use crate::{EntryId, LeafEntry, Neighbor, RStarTree, TreeConfig, UpdateOutcome};
use srb_geom::{Point, Rect};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A backend's work-unit counter. One thread at a time browses or searches
/// a backend, but a fleet's shard indexes are read by reference from every
/// thread that computes safe regions, so the counter behind `&self` has to
/// be `Sync`: a relaxed load and a relaxed store — what a `Cell` costs.
#[derive(Debug, Default)]
pub(crate) struct Visits(AtomicU64);

impl Visits {
    pub(crate) fn new(v: u64) -> Self {
        Visits(AtomicU64::new(v))
    }

    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// The concrete index structure a backend instance is running right now.
///
/// [`BackendConfig`] selects a *policy* (which may be adaptive);
/// `BackendKind` names the *mechanism* currently holding the entries. The
/// durable checkpoint header records it so recovery can refuse a silent
/// backend mismatch, and the adaptive controller uses it as the migration
/// state variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// An [`RStarTree`](crate::RStarTree).
    RStar,
    /// A [`UniformGrid`](crate::UniformGrid).
    Grid,
}

impl BackendKind {
    /// Short label for logs, errors, and JSON rows.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::RStar => "rstar",
            BackendKind::Grid => "grid",
        }
    }

    /// One-byte wire tag for checkpoint headers.
    pub fn tag(self) -> u8 {
        match self {
            BackendKind::RStar => 0,
            BackendKind::Grid => 1,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(BackendKind::RStar),
            1 => Some(BackendKind::Grid),
            _ => None,
        }
    }
}

/// Parameters of the adaptive backend plane: the per-kind build configs a
/// [`DynBackend`](crate::DynBackend) migrates between, and the thresholds
/// the `AdaptiveController` (srb-core) applies at batch boundaries.
///
/// The whole struct feeds the durable config fingerprint via its `Debug`
/// form, so changing any threshold invalidates old checkpoints — which is
/// required for determinism: controller decisions replay from the log, and
/// must be made under the thresholds that produced the log.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Build parameters used whenever a shard runs (or migrates to) the
    /// R\*-tree.
    pub rstar: TreeConfig,
    /// Build parameters used whenever a shard runs (or migrates to) the
    /// grid; `grid.m` is only the *initial* resolution — the controller
    /// retunes it from live density.
    pub grid: GridConfig,
    /// The kind every shard starts on.
    pub initial: BackendKind,
    /// Controller cadence: examine counters every this many batches
    /// (per coordinator, not per shard). Must be ≥ 1.
    pub decision_every: u32,
    /// A shard holding more objects than this votes for the grid (dense
    /// populations amortize cell scans; see BENCH_backend.json).
    pub dense_above: usize,
    /// A shard holding fewer objects than this votes for the tree (sparse
    /// populations make ring scans touch mostly empty cells).
    pub sparse_below: usize,
    /// Hysteresis: a shard must vote for the *same* other kind this many
    /// consecutive decisions before the controller migrates it.
    pub confirm: u32,
    /// Grid retune target: ideal resolution is chosen so the average
    /// occupied cell holds about this many objects.
    pub target_per_cell: f64,
    /// Grid retune deadband: only resize when the ideal resolution differs
    /// from the current one by more than this fraction of the current.
    pub retune_ratio: f64,
    /// Work-mix signal: when a decision window spends more than this many
    /// index visits per operation, the shard is search-bound and votes for
    /// the grid even below `dense_above`.
    pub hot_visits_per_op: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            rstar: TreeConfig::default(),
            grid: GridConfig::default(),
            initial: BackendKind::RStar,
            decision_every: 8,
            dense_above: 6000,
            sparse_below: 1500,
            confirm: 2,
            target_per_cell: 4.0,
            retune_ratio: 0.5,
            hot_visits_per_op: 64.0,
        }
    }
}

impl AdaptiveConfig {
    /// The [`BackendConfig`] that builds a backend of `kind` under this
    /// adaptive policy's per-kind parameters.
    pub fn config_for(&self, kind: BackendKind) -> BackendConfig {
        match kind {
            BackendKind::RStar => BackendConfig::RStar(self.rstar),
            BackendKind::Grid => BackendConfig::Grid(self.grid),
        }
    }
}

/// Selects and parameterizes the object-index backend.
///
/// Lives on `ServerConfig`/`SimConfig` so the whole monitoring stack — the
/// single-stack server, every shard of the sharded engine, and the
/// simulator — builds its index through one switch.
#[derive(Clone, Copy, Debug)]
pub enum BackendConfig {
    /// The R\*-tree reference backend (paper §7.1).
    RStar(TreeConfig),
    /// The uniform-grid backend (cell-bucketed safe regions).
    Grid(GridConfig),
    /// The runtime-dispatched adaptive plane: each shard holds a
    /// [`DynBackend`](crate::DynBackend) and the controller may migrate it
    /// between kinds or retune the grid resolution at batch boundaries.
    Adaptive(AdaptiveConfig),
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig::RStar(TreeConfig::default())
    }
}

impl BackendConfig {
    /// Short label for logs, benches, and JSON rows.
    pub fn label(&self) -> &'static str {
        match self {
            BackendConfig::RStar(_) => "rstar",
            BackendConfig::Grid(_) => "grid",
            BackendConfig::Adaptive(_) => "adaptive",
        }
    }

    /// Reads the backend from the `SRB_BACKEND` environment variable:
    /// `grid` selects [`UniformGrid`](crate::UniformGrid) defaults,
    /// `adaptive` the runtime-dispatched adaptive plane, `rstar` (or
    /// unset) the R\*-tree defaults. Any other value is a typed
    /// [`ConfigError::UnknownBackend`] — a typo must not silently run the
    /// wrong experiment.
    pub fn try_from_env() -> Result<Self, ConfigError> {
        match std::env::var("SRB_BACKEND") {
            Err(_) => Ok(BackendConfig::default()),
            Ok(v) if v.eq_ignore_ascii_case("grid") => {
                Ok(BackendConfig::Grid(GridConfig::default()))
            }
            Ok(v) if v.eq_ignore_ascii_case("adaptive") => {
                Ok(BackendConfig::Adaptive(AdaptiveConfig::default()))
            }
            Ok(v) if v.eq_ignore_ascii_case("rstar") || v.is_empty() => {
                Ok(BackendConfig::default())
            }
            // `ConfigError` is `Copy`, so the offending value is leaked
            // into a `'static` str. This path runs at most once per
            // process (env parsing at startup), so the leak is bounded.
            Ok(v) => Err(ConfigError::UnknownBackend { value: Box::leak(v.into_boxed_str()) }),
        }
    }

    /// Like [`try_from_env`](Self::try_from_env) but panics on an unknown
    /// value — the startup-path convenience the simulator uses.
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Structural snapshot of a backend, for logs and bench rows. The fields
/// generalize over tree- and grid-shaped indexes.
#[derive(Clone, Copy, Debug)]
pub struct BackendStats {
    /// Backend label (matches [`BackendConfig::label`]).
    pub backend: &'static str,
    /// Number of entries stored.
    pub len: usize,
    /// Structure depth: tree height, or 1 for a flat grid.
    pub depth: usize,
    /// Occupied structural units: live tree nodes, or non-empty grid cells.
    pub nodes: usize,
    /// Current value of the deterministic work-unit (visit) counter.
    pub visits: u64,
}

/// Incremental best-first nearest-neighbor browsing: entries come out in
/// non-decreasing `δ(q, rect)` order, and [`peek_dist`](Self::peek_dist)
/// exposes the next key without consuming it so callers can interleave the
/// browse with externally probed exact locations (the paper's Algorithm 2).
pub trait NearestStream: Iterator<Item = Neighbor> {
    /// The `δ` key of the next entry/structural unit, or `None` when the
    /// browse is exhausted.
    fn peek_dist(&self) -> Option<f64>;
}

/// A spatial index over `EntryId`-keyed rectangles, as the object index of
/// the SRB framework requires (paper §3.2): frequent-update support with a
/// bottom-up fast path, closed-interval rectangle search, and best-first
/// nearest-neighbor browsing.
///
/// Implementations must agree on *semantics* (same result sets for the same
/// contents); they are free to differ in enumeration order, cost profile,
/// and the [`UpdateOutcome`] fast-path classification. Backends are `Sync`:
/// the sharded engine reads every shard's index by reference while its
/// threads compute safe regions.
pub trait SpatialBackend: Sync {
    /// The backend's best-first browse iterator (a GAT so backends can
    /// borrow internal structures without boxing).
    type Nearest<'a>: NearestStream + 'a
    where
        Self: 'a;

    /// Builds an empty backend over `space` from the matching
    /// [`BackendConfig`] variant. Panics on a mismatched variant: silently
    /// running an experiment against the wrong backend parameters would be
    /// worse than failing.
    fn build(config: &BackendConfig, space: Rect) -> Self
    where
        Self: Sized;

    /// Backend label (matches [`BackendConfig::label`]).
    fn label() -> &'static str
    where
        Self: Sized;

    /// The concrete index structure currently holding the entries. For the
    /// monomorphized backends this is a constant; for
    /// [`DynBackend`](crate::DynBackend) it changes across migrations.
    fn kind(&self) -> BackendKind;

    /// Whether a checkpoint recorded under `kind` can be decoded into this
    /// backend type. Recovery checks this *before* touching backend bytes,
    /// so a type/checkpoint mismatch yields a typed refusal instead of a
    /// codec error.
    fn accepts_kind(kind: BackendKind) -> bool
    where
        Self: Sized;

    /// Rebuilds the index in place under a new [`BackendConfig`] (a *live
    /// migration*), preserving every entry. Returns `false` when the
    /// backend cannot represent the requested config — the monomorphized
    /// backends refuse everything; only [`DynBackend`](crate::DynBackend)
    /// migrates.
    fn migrate(&mut self, config: &BackendConfig) -> bool {
        let _ = config;
        false
    }

    /// The current grid resolution `m`, when the live structure is a grid.
    /// The adaptive controller reads this to decide retunes.
    fn grid_resolution(&self) -> Option<usize> {
        None
    }

    /// Number of entries stored.
    fn len(&self) -> usize;

    /// True when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry; `id` must not already be present.
    fn insert(&mut self, id: EntryId, rect: Rect);

    /// Removes an entry, returning its stored rectangle.
    fn remove(&mut self, id: EntryId) -> Option<Rect>;

    /// Moves an existing entry to `new_rect`, preferring the backend's
    /// cheap relocation path; inserts fresh when `id` was not present.
    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome;

    /// The stored rectangle of `id`, if present.
    fn get(&self, id: EntryId) -> Option<Rect>;

    /// Visits every entry whose rectangle intersects `query` (closed test).
    /// Enumeration order is backend-specific but deterministic.
    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry));

    /// Collects every entry intersecting `query` into a vector.
    fn search_vec(&self, query: &Rect) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        self.search(query, &mut |e| out.push(*e));
        out
    }

    /// Visits every stored entry (backend-specific order) without touching
    /// the visit counter. This is the migration sweep: unlike a
    /// whole-space `search`, it also reaches entries whose rectangles lie
    /// outside the indexed space (the grid clamps those into edge cells).
    fn for_each_entry(&self, f: &mut dyn FnMut(EntryId, Rect));

    /// Starts a best-first browse from `q`, allocating a fresh frontier.
    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_>;

    /// Starts a best-first browse from `q` reusing `scratch`'s frontier
    /// storage: after warmup, repeated browses perform no heap allocation.
    fn nearest_iter_with<'a>(
        &'a self,
        q: Point,
        scratch: &'a mut NearestScratch,
    ) -> Self::Nearest<'a>;

    /// The deterministic work-unit counter: structural units (tree nodes or
    /// grid cells) visited by searches and browses since the last
    /// [`reset_visits`](Self::reset_visits).
    fn visits(&self) -> u64;

    /// Resets the work-unit counter.
    fn reset_visits(&self);

    /// Exhaustively verifies structural invariants; panics on violation.
    fn check_invariants(&self);

    /// Structural snapshot for logs and bench rows.
    fn stats(&self) -> BackendStats;

    /// Serializes the backend's full structure bit-exactly for a
    /// durability checkpoint: arenas, free lists, bucket orders, and the
    /// visit counter all round-trip verbatim, so a recovered backend
    /// enumerates, allocates, and counts identically to one that never
    /// restarted.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Rebuilds a backend from [`encode_state`](Self::encode_state)
    /// bytes. Total: structural corruption yields a typed error, never a
    /// panic.
    fn decode_state(dec: &mut srb_durable::Dec<'_>) -> Result<Self, srb_durable::DurableError>
    where
        Self: Sized;
}

// ---------------------------------------------------------------------------
// Shared best-first frontier
// ---------------------------------------------------------------------------

/// One frontier element of a best-first browse: a structural unit (tree
/// node or grid cell) or a concrete entry, keyed by min-distance.
pub(crate) struct HeapItem {
    pub(crate) dist: f64,
    pub(crate) kind: HeapKind,
}

/// What a [`HeapItem`] refers to. `Node` doubles as the grid's cell index —
/// both backends fit their structural ids in a `u32`.
#[derive(Clone, Copy)]
pub(crate) enum HeapKind {
    Node(NodeId),
    Entry(EntryId, Rect),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist)
    }
}

/// Reusable frontier storage for [`SpatialBackend::nearest_iter_with`]:
/// holds the best-first binary heap's buffer between browses so
/// steady-state nearest-neighbor search allocates nothing (the kNN leg of
/// the allocation-free hot path, pinned by `alloc_steady.rs`).
#[derive(Default)]
pub struct NearestScratch {
    buf: Vec<Reverse<HeapItem>>,
}

impl NearestScratch {
    /// Creates an empty scratch; capacity grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retained frontier capacity, in elements (diagnostic).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Hands the (empty, capacity-retaining) buffer to a starting browse.
    pub(crate) fn take(&mut self) -> BinaryHeap<Reverse<HeapItem>> {
        BinaryHeap::from(std::mem::take(&mut self.buf))
    }

    /// Takes the finished browse's buffer back, keeping its capacity.
    pub(crate) fn put(&mut self, heap: BinaryHeap<Reverse<HeapItem>>) {
        let mut buf = heap.into_vec();
        buf.clear();
        self.buf = buf;
    }
}

// ---------------------------------------------------------------------------
// Reference implementation: the R*-tree
// ---------------------------------------------------------------------------

impl SpatialBackend for RStarTree {
    type Nearest<'a> = crate::NearestIter<'a>;

    fn build(config: &BackendConfig, _space: Rect) -> Self {
        match config {
            BackendConfig::RStar(cfg) => RStarTree::new(*cfg),
            other => panic!("BackendConfig::{other:?} cannot build an RStarTree"),
        }
    }

    fn label() -> &'static str {
        "rstar"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::RStar
    }

    fn accepts_kind(kind: BackendKind) -> bool {
        kind == BackendKind::RStar
    }

    fn len(&self) -> usize {
        RStarTree::len(self)
    }

    fn insert(&mut self, id: EntryId, rect: Rect) {
        RStarTree::insert(self, id, rect);
    }

    fn remove(&mut self, id: EntryId) -> Option<Rect> {
        RStarTree::remove(self, id)
    }

    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        RStarTree::update(self, id, new_rect)
    }

    fn get(&self, id: EntryId) -> Option<Rect> {
        RStarTree::get(self, id)
    }

    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry)) {
        RStarTree::search(self, query, |e| f(e));
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(EntryId, Rect)) {
        for e in RStarTree::iter(self) {
            f(e.id, e.rect);
        }
    }

    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_> {
        RStarTree::nearest_iter(self, q)
    }

    fn nearest_iter_with<'a>(
        &'a self,
        q: Point,
        scratch: &'a mut NearestScratch,
    ) -> Self::Nearest<'a> {
        RStarTree::nearest_iter_with(self, q, scratch)
    }

    fn visits(&self) -> u64 {
        RStarTree::visits(self)
    }

    fn reset_visits(&self) {
        RStarTree::reset_visits(self);
    }

    fn check_invariants(&self) {
        RStarTree::check_invariants(self);
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            backend: "rstar",
            len: self.len(),
            depth: self.height(),
            nodes: self.live_nodes(),
            visits: self.visits(),
        }
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        RStarTree::encode_state(self, out);
    }

    fn decode_state(dec: &mut srb_durable::Dec<'_>) -> Result<Self, srb_durable::DurableError> {
        RStarTree::decode_state(dec)
    }
}
