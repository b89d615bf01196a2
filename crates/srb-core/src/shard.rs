//! A shard: one spatial index over its part of the moving objects.
//!
//! A [`Shard`] is the pluggable [`SpatialBackend`] over the safe regions of
//! the objects registered on it, and nothing else: each object's state
//! lives once, in the coordinator's object table, and the queries and the
//! timers live once too, in the coordinator of
//! [`ShardedServer`](crate::ShardedServer), which wires every operation to
//! the shards itself (`index.rs` keeps a backend entry and the table's
//! copy of its rectangle in lockstep).

use srb_index::{RStarTree, SpatialBackend};

/// One shard of a [`ShardedServer`](crate::ShardedServer). Generic in the
/// object-index backend `B`, defaulted to the paper's R\*-tree.
pub struct Shard<B: SpatialBackend = RStarTree> {
    // Mutated only through the coordinator's object index.
    pub(crate) backend: B,
}

impl<B: SpatialBackend> Shard<B> {
    /// Number of objects on this shard.
    pub fn object_count(&self) -> usize {
        self.backend.len()
    }
}
