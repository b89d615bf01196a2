//! The names `bench/` still compiles against, and nothing else: the generic
//! engine `ShardedServer<B>`, its shard-count constructor and recovery, the
//! thread-count setter, the two old ingest entry points, the `&self`
//! provider over a position table, the index trait with its one
//! implementor, the aliases of [`RStarTree`] and [`TreeConfig`], the
//! three-spelling [`BackendConfig`] and the one-value [`SyncPolicy`]. Each
//! is written against the public API of [`Server`] and [`RStarTree`] alone.
//! ROADMAP 2(a) moves `bench/` onto `Server`; its follow-up deletes this
//! file and its tests whole and makes `ServerConfig::backend` a
//! [`TreeConfig`] (ROADMAP 3(a), 3(b)).

use crate::{
    FnProvider, LocationProvider, ObjectId, RecoveryError, SequencedUpdate, Server, ServerConfig,
    UpdateResponse,
};
use srb_geom::{Point, Rect};
use srb_index::{LeafEntry, NearestIter, RStarTree, TreeConfig, UpdateOutcome};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// [`RStarTree`] under the name of the runtime-dispatched index.
pub type DynBackend = RStarTree;

/// [`RStarTree`] under the name of the uniform grid that stood beside it.
pub type UniformGrid = RStarTree;

/// [`TreeConfig`] under the name `BackendConfig::Adaptive` carries.
pub type AdaptiveConfig = TreeConfig;

/// [`TreeConfig`] under the name `BackendConfig::Grid` carries.
pub type GridConfig = TreeConfig;

/// The object index's parameters: every variant is the R\*-tree's
/// [`TreeConfig`]. `ServerConfig::backend` holds it, and the recovery
/// fingerprint hashes its `Debug` form, so a variant's name stays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackendConfig {
    /// The R\*-tree (paper §7.1).
    RStar(TreeConfig),
    /// A second spelling of [`RStar`](Self::RStar).
    Grid(GridConfig),
    /// A third spelling of [`RStar`](Self::RStar).
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

    /// The tree parameters, whichever variant spells them.
    pub(crate) fn tree(&self) -> TreeConfig {
        let (BackendConfig::RStar(tree)
        | BackendConfig::Grid(tree)
        | BackendConfig::Adaptive(tree)) = *self;
        tree
    }
}

/// When appended log records reach stable storage: group commit, the one
/// policy (`DurabilityConfig::group_ops` sets the group). Nothing reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Fsync once every `group_ops` operations.
    #[default]
    GroupCommit,
}

/// The calls `bench/` makes on an object index, with [`RStarTree`] their
/// one implementor: each forwards to the tree's inherent method.
pub trait SpatialBackend {
    /// An empty index built from `config`; `space` is ignored.
    fn build(config: &BackendConfig, space: Rect) -> Self;

    /// [`RStarTree::insert`].
    fn insert(&mut self, id: u64, rect: Rect);

    /// [`RStarTree::update`].
    fn update(&mut self, id: u64, new_rect: Rect) -> UpdateOutcome;

    /// [`RStarTree::search`].
    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry));

    /// [`RStarTree::nearest_iter`].
    fn nearest_iter(&self, q: Point) -> NearestIter<'_>;
}

impl SpatialBackend for RStarTree {
    fn build(config: &BackendConfig, _space: Rect) -> Self {
        RStarTree::new(config.tree())
    }

    fn insert(&mut self, id: u64, rect: Rect) {
        RStarTree::insert(self, id, rect);
    }

    fn update(&mut self, id: u64, new_rect: Rect) -> UpdateOutcome {
        RStarTree::update(self, id, new_rect)
    }

    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry)) {
        RStarTree::search(self, query, |e| f(e));
    }

    fn nearest_iter(&self, q: Point) -> NearestIter<'_> {
        RStarTree::nearest_iter(self, q)
    }
}

/// [`Server`] under the generic name `bench/` writes. Every `B` is the
/// R\*-tree, because [`SpatialBackend`] has one implementor, so the
/// parameter is a zero-sized marker. It dereferences to the [`Server`] it
/// wraps: every entry point but the forwards below is `Server`'s own.
pub struct ShardedServer<B: SpatialBackend = RStarTree>(Server, PhantomData<fn() -> B>);

impl<B: SpatialBackend> ShardedServer<B> {
    /// [`Server::new`]; the shard count must be at least one and is
    /// otherwise ignored.
    pub fn with_backend(config: ServerConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedServer(Server::new(config), PhantomData)
    }

    /// [`Server::reopen`]; the shard count is ignored.
    pub fn recover(config: ServerConfig, _shards: usize) -> Result<(Self, usize), RecoveryError> {
        let (server, replayed) = Server::reopen(config)?;
        Ok((ShardedServer(server, PhantomData), replayed))
    }

    /// Does nothing: every region is computed on the calling thread.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// [`Server::ingest`] under its old name.
    pub fn handle_sequenced_updates_into(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        self.0.ingest(updates, provider, now, out);
    }

    /// [`Server::ingest`] over a [`SyncProvider`].
    pub fn handle_sequenced_updates_parallel_into<P: SyncProvider>(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &P,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        self.0.ingest(updates, &mut FnProvider(|id| provider.probe(id)), now, out);
    }
}

impl<B: SpatialBackend> Deref for ShardedServer<B> {
    type Target = Server;

    fn deref(&self) -> &Server {
        &self.0
    }
}

impl<B: SpatialBackend> DerefMut for ShardedServer<B> {
    fn deref_mut(&mut self) -> &mut Server {
        &mut self.0
    }
}

/// A location provider probed through `&self`, for
/// [`ShardedServer::handle_sequenced_updates_parallel_into`]. Probe through
/// [`LocationProvider`] instead (a position table through an
/// [`FnProvider`] over it).
pub trait SyncProvider {
    /// Returns the exact current location of `id`.
    fn probe(&self, id: ObjectId) -> Point;
}

/// The [`SyncProvider`] over a borrowed dense position table (index =
/// object id): probing is an array read. The table must cover every id a
/// batch may probe — a probe past its end panics before any safe region
/// of the batch is installed: nothing is committed and the WAL is
/// poisoned.
pub struct TableProvider<'a>(pub &'a [Point]);

impl SyncProvider for TableProvider<'_> {
    fn probe(&self, id: ObjectId) -> Point {
        self.0[id.index()]
    }
}

#[cfg(test)]
mod tests;
