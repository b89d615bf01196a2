//! # srb-index
//!
//! The *object-index layer* of the SRB monitoring framework (paper §3.2,
//! Figure 3.1): spatial indexes over the current safe region of every
//! moving object, behind the pluggable [`SpatialBackend`] trait. Every
//! backend supports
//!
//! - **frequent updates** via a cheap-relocation fast path classified by
//!   [`UpdateOutcome`] (for the R\*-tree, the bottom-up technique of Lee et
//!   al., VLDB 2003 — what the paper adopts in §7.1),
//! - **range search** over rectangles ([`SpatialBackend::search`]), and
//! - **incremental best-first nearest-neighbor browsing**
//!   ([`SpatialBackend::nearest_iter`]; Hjaltason & Samet distance
//!   browsing, the paradigm of the paper's Algorithm 2), with a reusable
//!   [`NearestScratch`] frontier for allocation-free steady-state kNN.
//!
//! Two backends ship here: [`RStarTree`], the from-scratch R\*-tree
//! (Beckmann et al., SIGMOD 1990) this file implements, and
//! [`UniformGrid`], a cell-bucketed grid index. [`bulk_load`] (STR) serves
//! the PRD baseline, which rebuilds its index from exact positions every
//! period. Backends are selected through [`BackendConfig`] (see
//! `DESIGN.md` §13 for the tradeoff).
//!
//! Everything is arena- or bucket-allocated, entirely safe Rust, and
//! instrumented with a deterministic visit counter so experiments can
//! report work units alongside wall-clock time. When the `obs` feature is
//! on (default), the backends additionally publish per-search visit
//! histograms (`index.search.visits`, `index.nn.visits`), update-path
//! counters (`index.update.*`, `index.splits`, `index.forced_reinserts`),
//! and grid counters (`index.grid.cell_visits`, `index.grid.bucket_scans`,
//! `index.grid.relocations`) through the `srb-obs` registry; telemetry only
//! observes and never alters index behavior.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod backend;
mod bulk;
mod dyn_backend;
mod grid;
mod node;
mod persist;
mod split;

pub use backend::{
    AdaptiveConfig, BackendConfig, BackendKind, BackendStats, NearestScratch, NearestStream,
    SpatialBackend,
};
pub use bulk::bulk_load;
pub use dyn_backend::{DynBackend, DynNearest};
pub use grid::{GridConfig, GridNearest, UniformGrid};
pub use node::{EntryId, LeafEntry};

use backend::{HeapItem, HeapKind, Visits};
use node::{Node, NodeId, NodeKind, NO_NODE};
use split::{mbr_of, rstar_split};
use srb_geom::{Point, Rect};
use srb_hash::FastMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Node capacity configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`), at most `max_entries / 2`.
    pub min_entries: usize,
    /// Number of entries evicted on the first overflow of a level
    /// (R\* forced reinsertion; ~30% of `M` in the original paper).
    pub reinsert_count: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_entries: 32, min_entries: 12, reinsert_count: 9 }
    }
}

impl TreeConfig {
    /// Validates the configuration, returning a typed error for any value
    /// that would corrupt splits or forced reinsertion: `max_entries < 4`,
    /// `min_entries` outside `[2, max_entries / 2]`, or a `reinsert_count`
    /// outside `[1, max_entries + 1 - 2 * min_entries]` (evicting more
    /// would leave an overflowing node unable to split into two legal
    /// halves).
    pub fn try_validated(self) -> Result<Self, ConfigError> {
        if self.max_entries < 4 {
            return Err(ConfigError::MaxEntriesTooSmall { max_entries: self.max_entries });
        }
        if self.min_entries < 2 || self.min_entries > self.max_entries / 2 {
            return Err(ConfigError::BadMinEntries {
                min_entries: self.min_entries,
                max_entries: self.max_entries,
            });
        }
        let limit = self.max_entries + 1 - 2 * self.min_entries;
        if self.reinsert_count < 1 || self.reinsert_count > limit {
            return Err(ConfigError::BadReinsertCount {
                reinsert_count: self.reinsert_count,
                limit,
            });
        }
        Ok(self)
    }

    /// Panicking form of [`try_validated`](Self::try_validated) — invalid
    /// configurations fail loudly at construction instead of silently
    /// corrupting the tree later.
    pub fn validated(self) -> Self {
        match self.try_validated() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid TreeConfig: {e}"),
        }
    }
}

/// A structurally invalid index configuration, reported at construction
/// time by [`TreeConfig::try_validated`] / [`GridConfig::try_validated`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_entries` below the minimum of 4 a split requires.
    MaxEntriesTooSmall {
        /// The offending node capacity.
        max_entries: usize,
    },
    /// `min_entries` outside `[2, max_entries / 2]` — a split could not
    /// give both halves a legal fill.
    BadMinEntries {
        /// The offending minimum fill.
        min_entries: usize,
        /// The capacity it was checked against.
        max_entries: usize,
    },
    /// `reinsert_count` outside `[1, max_entries + 1 - 2 * min_entries]`.
    BadReinsertCount {
        /// The offending eviction count.
        reinsert_count: usize,
        /// The largest legal eviction count for this configuration.
        limit: usize,
    },
    /// Grid resolution of zero, or large enough to overflow cell ids.
    BadGridResolution {
        /// The offending per-axis resolution.
        m: usize,
    },
    /// `SRB_BACKEND` named a backend that does not exist.
    UnknownBackend {
        /// The unrecognized value (leaked to `'static` so the error stays
        /// `Copy`; env parsing runs once per process).
        value: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MaxEntriesTooSmall { max_entries } => {
                write!(f, "max_entries must be at least 4, got {max_entries}")
            }
            ConfigError::BadMinEntries { min_entries, max_entries } => write!(
                f,
                "min_entries must lie in [2, max_entries / 2 = {}], got {min_entries}",
                max_entries / 2
            ),
            ConfigError::BadReinsertCount { reinsert_count, limit } => write!(
                f,
                "reinsert_count must lie in [1, max_entries + 1 - 2 * min_entries = {limit}], \
                 got {reinsert_count}"
            ),
            ConfigError::BadGridResolution { m } => {
                write!(f, "grid resolution must lie in [1, 32768], got {m}")
            }
            ConfigError::UnknownBackend { value } => write!(
                f,
                "SRB_BACKEND={value:?} is not a known backend \
                 (use \"rstar\", \"grid\", or \"adaptive\")"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Outcome of [`RStarTree::update`], distinguishing the bottom-up fast paths
/// from the slow delete+reinsert path (reported by the ablation benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The new rectangle stayed within the leaf MBR — pure in-place update.
    InPlace,
    /// The leaf MBR grew but its parent still covered it — local expansion.
    LocalExpand,
    /// Full delete + reinsert.
    Reinserted,
}

/// An entry yielded by [`RStarTree::nearest_iter`]: the object, its stored
/// rectangle, and the *minimum* distance `δ(q, rect)` used as the ordering
/// key.
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// The entry id.
    pub id: EntryId,
    /// The stored rectangle (safe region or degenerate point).
    pub rect: Rect,
    /// `δ(q, rect)` — minimum distance to the query point.
    pub dist: f64,
}

/// The R\*-tree.
pub struct RStarTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) len: usize,
    pub(crate) leaf_of: FastMap<EntryId, NodeId>,
    pub(crate) config: TreeConfig,
    pub(crate) visits: Visits,
    /// Bulk-loaded trees may have trailing nodes below `min_entries`; the
    /// invariant checker relaxes the fill-factor assertion for them.
    pub(crate) relaxed_min: bool,
}

impl Default for RStarTree {
    fn default() -> Self {
        Self::new(TreeConfig::default())
    }
}

impl RStarTree {
    /// Creates an empty tree with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        let config = config.validated();
        let mut tree = RStarTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NO_NODE,
            len: 0,
            leaf_of: FastMap::default(),
            config,
            visits: Visits::new(0),
            relaxed_min: false,
        };
        tree.root = tree.alloc(Node::new_leaf());
        tree
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// Height of the tree (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.node(self.root).level as usize + 1
    }

    /// Total node visits performed by searches since the last
    /// [`reset_visits`](Self::reset_visits) — the deterministic work-unit
    /// counter used by the experiment harness.
    pub fn visits(&self) -> u64 {
        self.visits.get()
    }

    /// Resets the node-visit counter.
    pub fn reset_visits(&self) {
        self.visits.set(0);
    }

    // ------------------------------------------------------------------
    // Arena plumbing
    // ------------------------------------------------------------------

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len() as NodeId;
            self.nodes.push(node);
            id
        }
    }

    fn release(&mut self, id: NodeId) {
        self.free.push(id);
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts an entry. `id` must not already be present (checked in debug
    /// builds; use [`update`](Self::update) to move an existing entry).
    pub fn insert(&mut self, id: EntryId, rect: Rect) {
        debug_assert!(!self.leaf_of.contains_key(&id), "duplicate insert of id {id}");
        let mut reinserted = 0u64;
        self.insert_entry(LeafEntry { id, rect }, &mut reinserted);
        self.len += 1;
    }

    fn insert_entry(&mut self, entry: LeafEntry, reinserted: &mut u64) {
        let leaf = self.choose_subtree(entry.rect, 0);
        self.leaf_of.insert(entry.id, leaf);
        let node = self.node_mut(leaf);
        if node.len() == 0 {
            node.rect = entry.rect;
        } else {
            node.rect = node.rect.union(&entry.rect);
        }
        node.leaf_entries_mut().push(entry);
        self.expand_upward(leaf, entry.rect);
        if self.node(leaf).len() > self.config.max_entries {
            self.overflow(leaf, reinserted);
        }
    }

    fn insert_subtree(&mut self, child: NodeId, reinserted: &mut u64) {
        let child_level = self.node(child).level;
        let child_rect = self.node(child).rect;
        let target = self.choose_subtree(child_rect, child_level + 1);
        self.node_mut(child).parent = target;
        let node = self.node_mut(target);
        if node.len() == 0 {
            node.rect = child_rect;
        } else {
            node.rect = node.rect.union(&child_rect);
        }
        node.children_mut(target).push(child);
        self.expand_upward(target, child_rect);
        if self.node(target).len() > self.config.max_entries {
            self.overflow(target, reinserted);
        }
    }

    /// Expands MBRs on the path from `from`'s parent to the root.
    fn expand_upward(&mut self, from: NodeId, rect: Rect) {
        let mut cur = self.node(from).parent;
        while cur != NO_NODE {
            let n = self.node_mut(cur);
            let grown = n.rect.union(&rect);
            if grown == n.rect {
                break;
            }
            n.rect = grown;
            cur = n.parent;
        }
    }

    /// Descends from the root to a node at `target_level`, using the R\*
    /// subtree-choice heuristics.
    fn choose_subtree(&self, rect: Rect, target_level: u16) -> NodeId {
        let mut cur = self.root;
        debug_assert!(self.node(cur).level >= target_level, "tree too short");
        while self.node(cur).level > target_level {
            let node = self.node(cur);
            let children = node.children(cur);
            let leaf_children = node.level == 1;
            let mut best: Option<(f64, f64, f64, NodeId)> = None;
            for &c in children {
                let crect = self.node(c).rect;
                let area_enl = crect.area_enlargement(&rect);
                let overlap_enl = if leaf_children {
                    // Overlap enlargement against siblings (the R* heuristic
                    // for the level just above the leaves).
                    let grown = crect.union(&rect);
                    let mut delta = 0.0;
                    for &o in children {
                        if o != c {
                            let or = self.node(o).rect;
                            delta += grown.overlap_area(&or) - crect.overlap_area(&or);
                        }
                    }
                    delta
                } else {
                    0.0
                };
                let key = (overlap_enl, area_enl, crect.area());
                if best.is_none_or(|(o, a, ar, _)| key < (o, a, ar)) {
                    best = Some((key.0, key.1, key.2, c));
                }
            }
            cur = best.expect("internal node has children").3;
        }
        cur
    }

    fn overflow(&mut self, node_id: NodeId, reinserted: &mut u64) {
        let level = self.node(node_id).level;
        let is_root = node_id == self.root;
        let bit = 1u64 << level.min(63);
        if !is_root && *reinserted & bit == 0 {
            *reinserted |= bit;
            srb_obs::counter!("index.forced_reinserts").inc();
            self.forced_reinsert(node_id, reinserted);
        } else {
            srb_obs::counter!("index.splits").inc();
            self.split_node(node_id, reinserted);
        }
    }

    fn forced_reinsert(&mut self, node_id: NodeId, reinserted: &mut u64) {
        let center = self.node(node_id).rect.center();
        let p = self.config.reinsert_count;
        if self.node(node_id).is_leaf() {
            let entries = self.node_mut(node_id).leaf_entries_mut();
            entries.sort_by(|a, b| {
                let da = a.rect.center().dist_sq(center);
                let db = b.rect.center().dist_sq(center);
                da.partial_cmp(&db).unwrap()
            });
            let at = entries.len() - p;
            let evicted: Vec<LeafEntry> = entries.split_off(at);
            self.recompute_mbr(node_id);
            self.shrink_upward(node_id);
            // Reinsert closest-first.
            for e in evicted.into_iter().rev() {
                self.insert_entry(e, reinserted);
            }
        } else {
            let kids = self.node(node_id).children(node_id).to_vec();
            let mut order: Vec<usize> = (0..kids.len()).collect();
            order.sort_by(|&a, &b| {
                let da = self.node(kids[a]).rect.center().dist_sq(center);
                let db = self.node(kids[b]).rect.center().dist_sq(center);
                da.partial_cmp(&db).unwrap()
            });
            let keep: Vec<NodeId> = order[..kids.len() - p].iter().map(|&i| kids[i]).collect();
            let evict: Vec<NodeId> = order[kids.len() - p..].iter().map(|&i| kids[i]).collect();
            *self.node_mut(node_id).children_mut(node_id) = keep;
            self.recompute_mbr(node_id);
            self.shrink_upward(node_id);
            for c in evict.into_iter().rev() {
                self.insert_subtree(c, reinserted);
            }
        }
    }

    fn split_node(&mut self, node_id: NodeId, reinserted: &mut u64) {
        let level = self.node(node_id).level;
        let min = self.config.min_entries;
        let (sib_id, node_rect, sib_rect) = if self.node(node_id).is_leaf() {
            let items = std::mem::take(self.node_mut(node_id).leaf_entries_mut());
            let rects: Vec<Rect> = items.iter().map(|e| e.rect).collect();
            let split = rstar_split(&rects, min);
            let node_rect = mbr_of(&rects, &split.first);
            let sib_rect = mbr_of(&rects, &split.second);
            let first: Vec<LeafEntry> = split.first.iter().map(|&i| items[i]).collect();
            let second: Vec<LeafEntry> = split.second.iter().map(|&i| items[i]).collect();
            *self.node_mut(node_id).leaf_entries_mut() = first;
            let mut sib = Node::new_leaf();
            sib.kind = NodeKind::Leaf(second);
            let sib_id = self.alloc(sib);
            let moved: Vec<EntryId> =
                self.node(sib_id).leaf_entries().iter().map(|e| e.id).collect();
            for id in moved {
                self.leaf_of.insert(id, sib_id);
            }
            (sib_id, node_rect, sib_rect)
        } else {
            let items = std::mem::take(self.node_mut(node_id).children_mut(node_id));
            let rects: Vec<Rect> = items.iter().map(|&c| self.node(c).rect).collect();
            let split = rstar_split(&rects, min);
            let node_rect = mbr_of(&rects, &split.first);
            let sib_rect = mbr_of(&rects, &split.second);
            let first: Vec<NodeId> = split.first.iter().map(|&i| items[i]).collect();
            let second: Vec<NodeId> = split.second.iter().map(|&i| items[i]).collect();
            *self.node_mut(node_id).children_mut(node_id) = first;
            let mut sib = Node::new_internal(level);
            sib.kind = NodeKind::Internal(second.clone());
            let sib_id = self.alloc(sib);
            for c in second {
                self.node_mut(c).parent = sib_id;
            }
            (sib_id, node_rect, sib_rect)
        };
        self.node_mut(node_id).rect = node_rect;
        self.node_mut(sib_id).rect = sib_rect;
        self.node_mut(sib_id).level = level;

        if node_id == self.root {
            let mut new_root = Node::new_internal(level + 1);
            new_root.rect = node_rect.union(&sib_rect);
            new_root.kind = NodeKind::Internal(vec![node_id, sib_id]);
            let root_id = self.alloc(new_root);
            self.node_mut(node_id).parent = root_id;
            self.node_mut(sib_id).parent = root_id;
            self.root = root_id;
        } else {
            let parent = self.node(node_id).parent;
            self.node_mut(sib_id).parent = parent;
            self.node_mut(parent).children_mut(parent).push(sib_id);
            self.shrink_upward(node_id);
            if self.node(parent).len() > self.config.max_entries {
                self.overflow(parent, reinserted);
            }
        }
    }

    fn recompute_mbr(&mut self, node_id: NodeId) {
        let rect = match &self.node(node_id).kind {
            NodeKind::Leaf(entries) => {
                let mut it = entries.iter();
                match it.next() {
                    None => Rect::point(Point::ORIGIN),
                    Some(first) => it.fold(first.rect, |acc, e| acc.union(&e.rect)),
                }
            }
            NodeKind::Internal(children) => {
                let mut it = children.iter();
                let first = *it.next().expect("internal node non-empty");
                let start = self.node(first).rect;
                it.fold(start, |acc, &c| acc.union(&self.node(c).rect))
            }
        };
        self.node_mut(node_id).rect = rect;
    }

    /// Recomputes exact MBRs from `from`'s parent up to the root.
    fn shrink_upward(&mut self, from: NodeId) {
        let mut cur = self.node(from).parent;
        while cur != NO_NODE {
            let old = self.node(cur).rect;
            self.recompute_mbr(cur);
            if self.node(cur).rect == old {
                break;
            }
            cur = self.node(cur).parent;
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes an entry, returning its stored rectangle.
    pub fn remove(&mut self, id: EntryId) -> Option<Rect> {
        let leaf = self.leaf_of.remove(&id)?;
        let entries = self.node_mut(leaf).leaf_entries_mut();
        let pos = entries.iter().position(|e| e.id == id)?;
        let rect = entries.swap_remove(pos).rect;
        self.len -= 1;
        self.condense(leaf);
        Some(rect)
    }

    fn condense(&mut self, start: NodeId) {
        let min = self.config.min_entries;
        let mut orphans: Vec<LeafEntry> = Vec::new();
        let mut cur = start;
        while cur != self.root && self.node(cur).len() < min {
            let parent = self.node(cur).parent;
            // Detach from the parent and flatten the subtree into entries.
            let kids = self.node_mut(parent).children_mut(parent);
            let pos = kids.iter().position(|&c| c == cur).expect("child link");
            kids.swap_remove(pos);
            self.flatten_into(cur, &mut orphans);
            cur = parent;
        }
        self.recompute_mbr(cur);
        self.shrink_upward(cur);
        // Collapse root chains left behind by condensation.
        while !self.node(self.root).is_leaf() && self.node(self.root).len() == 1 {
            let old_root = self.root;
            let child = self.node(old_root).children(old_root)[0];
            self.node_mut(child).parent = NO_NODE;
            self.root = child;
            self.release(old_root);
        }
        if !self.node(self.root).is_leaf() && self.node(self.root).len() == 0 {
            let old_root = self.root;
            self.root = self.alloc(Node::new_leaf());
            self.release(old_root);
        }
        // Reinsert orphaned entries.
        let mut reinserted = 0u64;
        for e in orphans {
            self.insert_entry(e, &mut reinserted);
        }
    }

    fn flatten_into(&mut self, node_id: NodeId, out: &mut Vec<LeafEntry>) {
        match std::mem::replace(&mut self.node_mut(node_id).kind, NodeKind::Leaf(Vec::new())) {
            NodeKind::Leaf(entries) => out.extend(entries),
            NodeKind::Internal(children) => {
                for c in children {
                    self.flatten_into(c, out);
                }
            }
        }
        self.release(node_id);
    }

    // ------------------------------------------------------------------
    // Update (bottom-up fast path)
    // ------------------------------------------------------------------

    /// Moves an existing entry to `new_rect`, preferring the bottom-up fast
    /// paths of Lee et al. (VLDB 2003): in-place when the leaf MBR still
    /// covers the new rectangle, local leaf-MBR expansion when the parent
    /// covers it, and a full delete + reinsert otherwise.
    ///
    /// Inserts the entry fresh when `id` was not present.
    pub fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        let Some(&leaf) = self.leaf_of.get(&id) else {
            self.insert(id, new_rect);
            srb_obs::counter!("index.update.reinsert").inc();
            return UpdateOutcome::Reinserted;
        };
        let leaf_rect = self.node(leaf).rect;
        if leaf_rect.contains_rect(&new_rect) {
            let entries = self.node_mut(leaf).leaf_entries_mut();
            let e = entries.iter_mut().find(|e| e.id == id).expect("leaf_of consistent");
            e.rect = new_rect;
            // Tighten cheaply (O(M)) so repeated in-place updates do not
            // degrade search performance.
            self.recompute_mbr(leaf);
            self.shrink_upward(leaf);
            srb_obs::counter!("index.update.in_place").inc();
            return UpdateOutcome::InPlace;
        }
        let parent = self.node(leaf).parent;
        if parent != NO_NODE && self.node(parent).rect.contains_rect(&new_rect) {
            let entries = self.node_mut(leaf).leaf_entries_mut();
            let e = entries.iter_mut().find(|e| e.id == id).expect("leaf_of consistent");
            e.rect = new_rect;
            self.recompute_mbr(leaf);
            srb_obs::counter!("index.update.local_expand").inc();
            return UpdateOutcome::LocalExpand;
        }
        self.remove(id).expect("entry present");
        self.insert(id, new_rect);
        srb_obs::counter!("index.update.reinsert").inc();
        UpdateOutcome::Reinserted
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The stored rectangle of `id`, if present.
    pub fn get(&self, id: EntryId) -> Option<Rect> {
        let leaf = *self.leaf_of.get(&id)?;
        self.node(leaf).leaf_entries().iter().find(|e| e.id == id).map(|e| e.rect)
    }

    /// Visits every entry whose rectangle intersects `query` (closed test).
    pub fn search(&self, query: &Rect, mut f: impl FnMut(&LeafEntry)) {
        if self.len == 0 {
            return;
        }
        // Visits accumulate locally and flush once at the end: one histogram
        // sample per search instead of an atomic per node.
        let mut visited = 0u64;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            self.visits.set(self.visits.get() + 1);
            visited += 1;
            let node = self.node(id);
            if !node.rect.intersects(query) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        if e.rect.intersects(query) {
                            f(e);
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
        srb_obs::histogram!("index.search.visits").record(visited);
    }

    /// Collects every entry intersecting `query` into a vector.
    pub fn search_vec(&self, query: &Rect) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        self.search(query, |e| out.push(*e));
        out
    }

    /// Iterates over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = LeafEntry> + '_ {
        AllEntries::new(self)
    }

    /// Incremental best-first browsing of entries by increasing
    /// `δ(q, rect)` (Hjaltason & Samet) — the traversal underlying the
    /// paper's Algorithm 2.
    pub fn nearest_iter(&self, q: Point) -> NearestIter<'_> {
        self.nearest_impl(q, BinaryHeap::new(), None)
    }

    /// [`nearest_iter`](Self::nearest_iter) reusing `scratch`'s frontier
    /// storage: the browse's binary heap is taken from (and on drop handed
    /// back to) the scratch, so steady-state kNN search performs no heap
    /// allocation after warmup.
    pub fn nearest_iter_with<'a>(
        &'a self,
        q: Point,
        scratch: &'a mut NearestScratch,
    ) -> NearestIter<'a> {
        let heap = scratch.take();
        self.nearest_impl(q, heap, Some(scratch))
    }

    fn nearest_impl<'a>(
        &'a self,
        q: Point,
        mut heap: BinaryHeap<Reverse<HeapItem>>,
        scratch: Option<&'a mut NearestScratch>,
    ) -> NearestIter<'a> {
        if self.len > 0 {
            heap.push(Reverse(HeapItem {
                dist: self.node(self.root).rect.min_dist(q),
                kind: HeapKind::Node(self.root),
            }));
        }
        NearestIter { tree: self, q, heap, scratch, visited: 0 }
    }

    /// Number of live (allocated, non-freed) nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    // ------------------------------------------------------------------
    // Invariant checking (used by tests; cheap enough to expose)
    // ------------------------------------------------------------------

    /// Exhaustively verifies structural invariants; panics on violation.
    /// Intended for tests and debugging.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        self.check_node(self.root, None);
        for (&id, &leaf) in &self.leaf_of {
            let node = self.node(leaf);
            assert!(node.is_leaf(), "leaf_of[{id}] points at internal node");
            assert!(
                node.leaf_entries().iter().any(|e| e.id == id),
                "leaf_of[{id}] points at a leaf missing the entry"
            );
            seen += 1;
        }
        assert_eq!(seen, self.len, "len does not match leaf_of size");
        assert_eq!(self.node(self.root).parent, NO_NODE, "root has a parent");
    }

    fn check_node(&self, id: NodeId, expected_parent: Option<NodeId>) {
        let node = self.node(id);
        if let Some(p) = expected_parent {
            assert_eq!(node.parent, p, "bad parent link at node {id}");
            let within = self.node(p).rect.contains_rect(&node.rect);
            assert!(within, "child MBR escapes parent at node {id}");
            assert_eq!(node.level + 1, self.node(p).level, "bad level at node {id}");
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                assert_eq!(node.level, 0, "leaf at non-zero level");
                for e in entries {
                    assert!(node.rect.contains_rect(&e.rect), "entry escapes leaf MBR");
                    assert_eq!(self.leaf_of.get(&e.id), Some(&id), "stale leaf_of for {}", e.id);
                }
                if id != self.root && !self.relaxed_min {
                    assert!(entries.len() >= self.config.min_entries, "leaf underflow");
                }
                if id != self.root {
                    assert!(!entries.is_empty(), "empty non-root leaf");
                }
                assert!(entries.len() <= self.config.max_entries, "leaf overflow");
            }
            NodeKind::Internal(children) => {
                assert!(!children.is_empty(), "empty internal node");
                if id != self.root && !self.relaxed_min {
                    assert!(children.len() >= self.config.min_entries, "node underflow");
                }
                assert!(children.len() <= self.config.max_entries, "node overflow");
                for &c in children {
                    self.check_node(c, Some(id));
                }
            }
        }
    }

    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        root: NodeId,
        len: usize,
        leaf_of: FastMap<EntryId, NodeId>,
        config: TreeConfig,
    ) -> Self {
        RStarTree {
            nodes,
            free: Vec::new(),
            root,
            len,
            leaf_of,
            config,
            visits: Visits::new(0),
            relaxed_min: true,
        }
    }
}

struct AllEntries<'a> {
    tree: &'a RStarTree,
    stack: Vec<NodeId>,
    buf: Vec<LeafEntry>,
}

impl<'a> AllEntries<'a> {
    fn new(tree: &'a RStarTree) -> Self {
        let stack = if tree.len > 0 { vec![tree.root] } else { Vec::new() };
        AllEntries { tree, stack, buf: Vec::new() }
    }
}

impl Iterator for AllEntries<'_> {
    type Item = LeafEntry;

    fn next(&mut self) -> Option<LeafEntry> {
        loop {
            if let Some(e) = self.buf.pop() {
                return Some(e);
            }
            let id = self.stack.pop()?;
            match &self.tree.node(id).kind {
                NodeKind::Leaf(entries) => self.buf.extend_from_slice(entries),
                NodeKind::Internal(children) => self.stack.extend_from_slice(children),
            }
        }
    }
}

/// Iterator of [`RStarTree::nearest_iter`]: yields entries in
/// non-decreasing `δ(q, rect)` order.
pub struct NearestIter<'a> {
    tree: &'a RStarTree,
    q: Point,
    heap: BinaryHeap<Reverse<HeapItem>>,
    /// When the browse was started with a [`NearestScratch`], the heap's
    /// buffer is handed back to it on drop.
    scratch: Option<&'a mut NearestScratch>,
    /// Node pops this browse performed; published as one histogram sample
    /// when the iterator is dropped.
    visited: u64,
}

impl Drop for NearestIter<'_> {
    fn drop(&mut self) {
        if self.visited > 0 {
            srb_obs::histogram!("index.nn.visits").record(self.visited);
        }
        if let Some(scratch) = self.scratch.take() {
            scratch.put(std::mem::take(&mut self.heap));
        }
    }
}

impl NearestIter<'_> {
    /// The `δ` key of the next entry/node without consuming it. Useful to
    /// interleave with externally-probed exact locations, as the paper's
    /// Algorithm 2 requires.
    pub fn peek_dist(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(item)| item.dist)
    }
}

impl NearestStream for NearestIter<'_> {
    fn peek_dist(&self) -> Option<f64> {
        NearestIter::peek_dist(self)
    }
}

impl Iterator for NearestIter<'_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        while let Some(Reverse(item)) = self.heap.pop() {
            match item.kind {
                HeapKind::Entry(id, rect) => {
                    return Some(Neighbor { id, rect, dist: item.dist });
                }
                HeapKind::Node(nid) => {
                    self.tree.visits.set(self.tree.visits.get() + 1);
                    self.visited += 1;
                    match &self.tree.node(nid).kind {
                        NodeKind::Leaf(entries) => {
                            for e in entries {
                                self.heap.push(Reverse(HeapItem {
                                    dist: e.rect.min_dist(self.q),
                                    kind: HeapKind::Entry(e.id, e.rect),
                                }));
                            }
                        }
                        NodeKind::Internal(children) => {
                            for &c in children {
                                self.heap.push(Reverse(HeapItem {
                                    dist: self.tree.node(c).rect.min_dist(self.q),
                                    kind: HeapKind::Node(c),
                                }));
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt_rect(x: f64, y: f64) -> Rect {
        Rect::point(Point::new(x, y))
    }

    #[test]
    fn insert_and_get() {
        let mut t = RStarTree::default();
        t.insert(1, pt_rect(0.1, 0.1));
        t.insert(2, pt_rect(0.9, 0.9));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), Some(pt_rect(0.1, 0.1)));
        assert_eq!(t.get(3), None);
        t.check_invariants();
    }

    #[test]
    fn search_finds_intersecting() {
        let mut t = RStarTree::default();
        for i in 0..100u64 {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            t.insert(i, Rect::centered(Point::new(x, y), 0.01, 0.01));
        }
        let q = Rect::new(Point::new(0.0, 0.0), Point::new(0.35, 0.35));
        let hits = t.search_vec(&q);
        let expected: Vec<u64> = (0..100u64)
            .filter(|i| {
                let x = (i % 10) as f64 / 10.0;
                let y = (i / 10) as f64 / 10.0;
                Rect::centered(Point::new(x, y), 0.01, 0.01).intersects(&q)
            })
            .collect();
        let mut got: Vec<u64> = hits.iter().map(|e| e.id).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        t.check_invariants();
    }

    #[test]
    fn many_inserts_keep_invariants() {
        let mut t =
            RStarTree::new(TreeConfig { max_entries: 8, min_entries: 3, reinsert_count: 2 });
        for i in 0..500u64 {
            let x = ((i * 37) % 101) as f64 / 101.0;
            let y = ((i * 61) % 97) as f64 / 97.0;
            t.insert(i, Rect::centered(Point::new(x, y), 0.002, 0.002));
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() > 1);
        t.check_invariants();
    }

    #[test]
    fn remove_everything() {
        let mut t =
            RStarTree::new(TreeConfig { max_entries: 8, min_entries: 3, reinsert_count: 2 });
        for i in 0..200u64 {
            let x = ((i * 37) % 101) as f64 / 101.0;
            let y = ((i * 61) % 97) as f64 / 97.0;
            t.insert(i, pt_rect(x, y));
        }
        for i in 0..200u64 {
            assert!(t.remove(i).is_some(), "missing {i}");
            if i % 17 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.remove(0), None);
        t.check_invariants();
    }

    #[test]
    fn nearest_iter_orders_by_min_dist() {
        let mut t = RStarTree::default();
        for i in 0..50u64 {
            let x = ((i * 37) % 101) as f64 / 101.0;
            let y = ((i * 61) % 97) as f64 / 97.0;
            t.insert(i, pt_rect(x, y));
        }
        let q = Point::new(0.5, 0.5);
        let dists: Vec<f64> = t.nearest_iter(q).map(|n| n.dist).collect();
        assert_eq!(dists.len(), 50);
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "out of order: {w:?}");
        }
    }

    #[test]
    fn nearest_iter_matches_brute_force_first() {
        let mut t = RStarTree::default();
        let mut pts = Vec::new();
        for i in 0..200u64 {
            let x = ((i * 137) % 211) as f64 / 211.0;
            let y = ((i * 211) % 137) as f64 / 137.0;
            pts.push((i, Point::new(x, y)));
            t.insert(i, pt_rect(x, y));
        }
        let q = Point::new(0.31, 0.77);
        let nn = t.nearest_iter(q).next().unwrap();
        let brute =
            pts.iter().min_by(|a, b| a.1.dist(q).partial_cmp(&b.1.dist(q)).unwrap()).unwrap();
        assert_eq!(nn.id, brute.0);
    }

    #[test]
    fn update_outcomes() {
        let mut t =
            RStarTree::new(TreeConfig { max_entries: 8, min_entries: 3, reinsert_count: 2 });
        for i in 0..64u64 {
            let x = (i % 8) as f64 / 8.0;
            let y = (i / 8) as f64 / 8.0;
            t.insert(i, Rect::centered(Point::new(x, y), 0.01, 0.01));
        }
        // Tiny wiggle: stays within the leaf MBR most of the time.
        let r0 = t.get(0).unwrap();
        let out = t.update(0, Rect::centered(r0.center(), 0.009, 0.009));
        assert_ne!(out, UpdateOutcome::Reinserted);
        // Move across the space: must reinsert.
        let out = t.update(0, Rect::centered(Point::new(0.95, 0.95), 0.01, 0.01));
        assert_eq!(out, UpdateOutcome::Reinserted);
        t.check_invariants();
        // Update of a missing id inserts it.
        let out = t.update(1000, pt_rect(0.5, 0.5));
        assert_eq!(out, UpdateOutcome::Reinserted);
        assert_eq!(t.len(), 65);
        t.check_invariants();
    }

    #[test]
    fn visits_counter_moves() {
        let mut t = RStarTree::default();
        for i in 0..100u64 {
            t.insert(i, pt_rect((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0));
        }
        t.reset_visits();
        assert_eq!(t.visits(), 0);
        let _ = t.search_vec(&Rect::UNIT);
        assert!(t.visits() > 0);
    }

    #[test]
    fn iter_yields_all() {
        let mut t = RStarTree::default();
        for i in 0..123u64 {
            t.insert(i, pt_rect((i % 11) as f64 / 11.0, (i / 11) as f64 / 11.0));
        }
        let mut ids: Vec<u64> = t.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..123).collect::<Vec<_>>());
    }

    #[test]
    fn empty_tree_queries() {
        let t = RStarTree::default();
        assert!(t.search_vec(&Rect::UNIT).is_empty());
        assert!(t.nearest_iter(Point::new(0.5, 0.5)).next().is_none());
        assert_eq!(t.get(0), None);
        t.check_invariants();
    }

    #[test]
    fn config_validation_rejects_corrupting_values() {
        assert!(TreeConfig::default().try_validated().is_ok());
        assert_eq!(
            TreeConfig { max_entries: 3, ..TreeConfig::default() }.try_validated(),
            Err(ConfigError::MaxEntriesTooSmall { max_entries: 3 })
        );
        // min_entries > max_entries / 2 would make splits impossible.
        assert_eq!(
            TreeConfig { max_entries: 8, min_entries: 5, reinsert_count: 1 }.try_validated(),
            Err(ConfigError::BadMinEntries { min_entries: 5, max_entries: 8 })
        );
        assert_eq!(
            TreeConfig { max_entries: 8, min_entries: 1, reinsert_count: 1 }.try_validated(),
            Err(ConfigError::BadMinEntries { min_entries: 1, max_entries: 8 })
        );
        // Evicting too much would leave a split without two legal halves.
        assert_eq!(
            TreeConfig { max_entries: 8, min_entries: 4, reinsert_count: 2 }.try_validated(),
            Err(ConfigError::BadReinsertCount { reinsert_count: 2, limit: 1 })
        );
        assert_eq!(
            TreeConfig { max_entries: 8, min_entries: 3, reinsert_count: 0 }.try_validated(),
            Err(ConfigError::BadReinsertCount { reinsert_count: 0, limit: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "invalid TreeConfig")]
    fn invalid_config_fails_loudly_at_construction() {
        let _ = RStarTree::new(TreeConfig { max_entries: 8, min_entries: 7, reinsert_count: 1 });
    }

    #[test]
    fn nearest_iter_with_reuses_scratch_capacity() {
        let mut t = RStarTree::default();
        for i in 0..200u64 {
            t.insert(i, pt_rect(((i * 37) % 101) as f64 / 101.0, ((i * 61) % 97) as f64 / 97.0));
        }
        let q = Point::new(0.4, 0.6);
        let plain: Vec<u64> = t.nearest_iter(q).map(|n| n.id).collect();
        let mut scratch = NearestScratch::new();
        let first: Vec<u64> = t.nearest_iter_with(q, &mut scratch).map(|n| n.id).collect();
        assert_eq!(plain, first);
        let cap = scratch.capacity();
        assert!(cap > 0, "finished browse must hand its buffer back");
        // An abandoned (partially consumed) browse must also hand it back.
        {
            let mut it = t.nearest_iter_with(q, &mut scratch);
            assert_eq!(it.next().map(|n| n.id), plain.first().copied());
            assert!(NearestStream::peek_dist(&it).is_some());
        }
        assert!(scratch.capacity() > 0);
        let again: Vec<u64> = t.nearest_iter_with(q, &mut scratch).map(|n| n.id).collect();
        assert_eq!(plain, again);
        assert_eq!(scratch.capacity(), cap);
    }
}
