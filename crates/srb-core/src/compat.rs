//! The names `bench/` still compiles against, and nothing else: the generic
//! engine `ShardedServer<B>`, its shard-count constructor and recovery, the
//! thread-count setter, the two old ingest entry points and the `&self`
//! provider over a position table. Each is written against [`Server`]'s
//! public API alone. ROADMAP 2(a) moves `bench/` onto `Server`; its
//! follow-up deletes this file and its tests whole (ROADMAP 3(a)).

use crate::{
    FnProvider, LocationProvider, ObjectId, RecoveryError, SequencedUpdate, Server, ServerConfig,
    UpdateResponse,
};
use srb_geom::Point;
use srb_index::{RStarTree, SpatialBackend};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

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
