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
//! property test in `tests/prop_backend.rs`): rectangles keyed by [`EntryId`],
//! closed-interval intersection search, and incremental best-first
//! nearest-neighbor browsing in one total order, `(δ(q, rect), id)`, which
//! the paper's Algorithm 2 consumes.

use crate::node::NodeId;
use crate::{ConfigError, GridConfig};
use crate::{EntryId, LeafEntry, Neighbor, RStarTree, TreeConfig, UpdateOutcome};
use srb_geom::{Point, Rect};

/// An index structure: what [`AdaptiveConfig::initial`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// An [`RStarTree`](crate::RStarTree).
    RStar,
    /// A [`UniformGrid`](crate::UniformGrid).
    Grid,
}

/// The build parameters of a [`DynBackend`](crate::DynBackend): the
/// structure it starts as and the parameters of either structure.
///
/// The whole struct feeds the durable config fingerprint via its `Debug`
/// form, so a recovery under other parameters is refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Build parameters when `initial` is the R\*-tree.
    pub rstar: TreeConfig,
    /// Build parameters when `initial` is the grid.
    pub grid: GridConfig,
    /// The structure the index is built as.
    pub initial: BackendKind,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            rstar: TreeConfig::default(),
            grid: GridConfig::default(),
            initial: BackendKind::RStar,
        }
    }
}

/// Selects and parameterizes the object-index backend.
///
/// Lives on `ServerConfig`/`SimConfig` so the whole monitoring stack — the
/// server and the simulator — builds its index through one switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackendConfig {
    /// The R\*-tree reference backend (paper §7.1).
    RStar(TreeConfig),
    /// The uniform-grid backend (cell-bucketed safe regions).
    Grid(GridConfig),
    /// A [`DynBackend`](crate::DynBackend) built as
    /// [`AdaptiveConfig::initial`]: the structure is a runtime value, not a
    /// type parameter.
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
    /// `grid` selects [`UniformGrid`](crate::UniformGrid) defaults, `rstar`
    /// (or unset) the R\*-tree defaults. Any other value is a typed
    /// [`ConfigError::UnknownBackend`] — a typo must not silently run the
    /// wrong experiment.
    pub(crate) fn try_from_env() -> Result<Self, ConfigError> {
        match std::env::var("SRB_BACKEND") {
            Err(_) => Ok(BackendConfig::default()),
            Ok(v) if v.eq_ignore_ascii_case("grid") => {
                Ok(BackendConfig::Grid(GridConfig::default()))
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

    /// Like `try_from_env` but panics on an unknown
    /// value — the startup-path convenience the simulator uses.
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }
}

/// A spatial index over `EntryId`-keyed rectangles, as the object index of
/// the SRB framework requires (paper §3.2): frequent-update support with a
/// bottom-up fast path, closed-interval rectangle search, and best-first
/// nearest-neighbor browsing.
///
/// Implementations must agree on *semantics*: the same result sets for the
/// same contents, and one browse order — ascending `(δ(q, rect), id)` — so
/// which of several equidistant entries comes first never depends on the
/// backend. They are free to differ in cost profile, in the order `search`
/// visits its hits, and in the [`UpdateOutcome`] fast-path classification.
pub trait SpatialBackend {
    /// The backend's best-first browse iterator (a GAT so backends can
    /// borrow internal structures without boxing): every entry once, in
    /// ascending `(δ(q, rect), id)`.
    type Nearest<'a>: Iterator<Item = Neighbor> + 'a
    where
        Self: 'a;

    /// Builds an empty backend over `space` from the matching
    /// [`BackendConfig`] variant. Panics on a variant
    /// [`builds`](Self::builds) refuses: silently running an experiment
    /// against the wrong backend parameters would be worse than failing.
    fn build(config: &BackendConfig, space: Rect) -> Self
    where
        Self: Sized;

    /// Whether [`build`](Self::build) accepts `config`'s variant. Recovery
    /// asks this before it builds anything, so a backend type that cannot
    /// run the configured backend gets a typed refusal, not a panic.
    fn builds(config: &BackendConfig) -> bool
    where
        Self: Sized;

    /// Backend label (matches [`BackendConfig::label`]).
    fn label() -> &'static str
    where
        Self: Sized;

    /// Builds a backend from `config` over `space` holding `entries`,
    /// inserted in ascending id order: the way recovery rebuilds an index,
    /// so the result is a function of the entry *set* and never of the
    /// history that produced it.
    fn build_from(config: &BackendConfig, space: Rect, mut entries: Vec<(EntryId, Rect)>) -> Self
    where
        Self: Sized,
    {
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut fresh = Self::build(config, space);
        for (id, rect) in entries {
            fresh.insert(id, rect);
        }
        fresh
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

    /// Starts a best-first browse from `q`, allocating a fresh frontier.
    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_>;

    /// The deterministic work-unit counter: structural units (tree nodes or
    /// grid cells) visited by searches and browses since the last
    /// [`reset_visits`](Self::reset_visits).
    fn visits(&self) -> u64;

    /// Resets the work-unit counter.
    fn reset_visits(&self);

    /// Exhaustively verifies structural invariants; panics on violation.
    fn check_invariants(&self);
}

// ---------------------------------------------------------------------------
// Shared best-first frontier
// ---------------------------------------------------------------------------

/// One frontier element of a best-first browse: a structural unit (tree
/// node or grid cell) or a concrete entry, ordered by `(dist, units before
/// entries, id)`. A unit's key never exceeds the key of an entry below it,
/// and at an equal key it is expanded first, so every entry at a key is on
/// the frontier before the first of them pops: entries come out in
/// ascending `(δ, id)` whatever the structure's layout.
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

impl HeapItem {
    /// The tie-break after `dist`: units first, then by id.
    fn rank(&self) -> (bool, u64) {
        match self.kind {
            HeapKind::Node(n) => (false, u64::from(n)),
            HeapKind::Entry(id, _) => (true, id),
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
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
        self.dist.total_cmp(&other.dist).then_with(|| self.rank().cmp(&other.rank()))
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

    fn builds(config: &BackendConfig) -> bool {
        matches!(config, BackendConfig::RStar(_))
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

    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_> {
        RStarTree::nearest_iter(self, q)
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
}
