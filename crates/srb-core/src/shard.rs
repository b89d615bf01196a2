//! A shard: what the engine keeps per moving object.
//!
//! A [`Shard`] holds its slice of the Figure-3.1 object side — the
//! [`ObjectIndex`] (a pluggable [`SpatialBackend`] over safe regions plus
//! the object state table, sequence numbers included) — and counts the
//! uplinks it admits. It holds no query, no timer and never probes: the
//! queries and the timers live once, in the coordinator of
//! [`ShardedServer`](crate::ShardedServer), which wires every operation to
//! the shards itself.

use crate::error::RecoveryError;
use crate::ids::ObjectId;
use crate::index::ObjectIndex;
use crate::provider::{CostTracker, WorkStats};
use crate::sharded::SequencedUpdate;
use srb_geom::{Point, Rect};
use srb_index::{BackendConfig, BackendKind, RStarTree, SpatialBackend};

/// One shard of a [`ShardedServer`](crate::ShardedServer). Generic in the
/// object-index backend `B`, defaulted to the paper's R\*-tree.
pub struct Shard<B: SpatialBackend = RStarTree> {
    // Open to the coordinator, which pins and installs here.
    pub(crate) index: ObjectIndex<B>,
    pub(crate) costs: CostTracker,
    pub(crate) work: WorkStats,
}

impl<B: SpatialBackend> Shard<B> {
    /// An empty shard whose object index uses the backend `B`, built from
    /// `backend` over `space`. Panics when the variant does not match `B`.
    pub(crate) fn new(backend: &BackendConfig, space: Rect) -> Self {
        Shard {
            index: ObjectIndex::with_backend(backend, space),
            costs: CostTracker::default(),
            work: WorkStats::default(),
        }
    }

    /// The object index layer (Figure 3.1 "object index").
    pub(crate) fn object_index(&self) -> &ObjectIndex<B> {
        &self.index
    }

    /// Number of objects on this shard.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// The safe region the engine believes `id` is inside.
    pub(crate) fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.index.get(id).map(|s| s.safe_region)
    }

    /// The last exactly-known position of `id` and its timestamp.
    pub(crate) fn last_known(&self, id: ObjectId) -> Option<(Point, f64)> {
        self.index.get(id).map(|s| (s.p_lst, s.t_lst))
    }

    /// The uplinks this shard admitted (a shard never probes).
    pub(crate) fn costs(&self) -> CostTracker {
        self.costs
    }

    /// The admission counters of this shard.
    pub(crate) fn work(&self) -> WorkStats {
        self.work
    }

    /// Deterministic work units: object-index node visits.
    pub(crate) fn index_visits(&self) -> u64 {
        self.index.visits()
    }

    /// The index structure currently live under this shard (which, on the
    /// adaptive plane, can differ from what `config.backend` names).
    pub(crate) fn backend_kind(&self) -> BackendKind {
        self.index.tree().kind()
    }

    /// The admission pass over this shard's part of a batch: appends the
    /// updates whose sequence number is fresh to `accepted` (in arrival
    /// order) and the senders of stale ones, owed a re-grant, to
    /// `regrants`; drops and counts updates for unknown objects.
    pub(crate) fn admit<'u>(
        &mut self,
        updates: impl Iterator<Item = &'u SequencedUpdate>,
        accepted: &mut Vec<(ObjectId, Point)>,
        regrants: &mut Vec<ObjectId>,
    ) {
        for u in updates {
            match self.index.get_mut(u.id) {
                None => {
                    self.work.unknown_object_drops += 1;
                    srb_obs::counter!("server.unknown_object_drops").inc();
                }
                Some(st) if u.seq <= st.last_seq => {
                    self.work.stale_seq_drops += 1;
                    self.work.regrants += 1;
                    srb_obs::counter!("server.stale_seq_drops").inc();
                    srb_obs::counter!("server.regrants").inc();
                    regrants.push(u.id);
                }
                Some(st) => {
                    st.last_seq = u.seq;
                    accepted.push((u.id, u.pos));
                }
            }
        }
    }

    /// Live-migrates the object index to a new backend configuration (see
    /// [`SpatialBackend::migrate`]) — a semantic no-op: every stored safe
    /// region is preserved, so query results are unchanged. Returns
    /// `false` when the backend type `B` cannot represent `config`
    /// (everything except `DynBackend`). The engine counts (and, when
    /// durable, checkpoints) the migration at its own level.
    pub(crate) fn migrate_index(&mut self, config: &BackendConfig) -> bool {
        self.index.migrate_backend(config)
    }

    /// Serializes the shard for a checkpoint: the live backend kind, the
    /// counters and the object index.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::{put_u64, put_u8};
        // The *live* index structure, which under the adaptive plane can
        // differ from what `config.backend` names. Recovery refuses a
        // backend type that cannot hold it (`RecoveryError::BackendMismatch`).
        put_u8(out, self.index.tree().kind().tag());
        put_u64(out, self.costs.source_updates);
        self.work.encode(out);
        self.index.encode_state(out);
    }

    /// Rebuilds a shard from the state [`encode_state`](Self::encode_state)
    /// wrote, reading from the open decoder of the engine's checkpoint.
    pub(crate) fn decode_state(dec: &mut srb_durable::Dec<'_>) -> Result<Self, RecoveryError> {
        let kind = BackendKind::from_tag(dec.u8()?)
            .ok_or(RecoveryError::Corrupt("unknown backend kind tag"))?;
        if !B::accepts_kind(kind) {
            return Err(RecoveryError::BackendMismatch {
                found: kind.label(),
                recovering: B::label(),
            });
        }
        let costs = CostTracker { source_updates: dec.u64()?, probes: 0 };
        let work = WorkStats::decode(dec)?;
        let index = ObjectIndex::decode_state(dec)?;
        Ok(Shard { index, costs, work })
    }
}
