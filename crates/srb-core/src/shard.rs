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
use srb_index::{BackendConfig, BackendKind, GridConfig, RStarTree, SpatialBackend, TreeConfig};

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

    /// Serializes the shard for a checkpoint: the live backend config, the
    /// counters and the object table. The index structure is not written;
    /// [`decode_state`](Self::decode_state) rebuilds it.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::{put_u64, put_u8, put_usize};
        // The *live* index structure, which under the adaptive plane can
        // differ from what `config.backend` names. Recovery refuses a
        // backend type that cannot hold it (`RecoveryError::BackendMismatch`).
        match self.index.tree().live_config() {
            BackendConfig::RStar(cfg) => {
                put_u8(out, BackendKind::RStar.tag());
                put_usize(out, cfg.max_entries);
                put_usize(out, cfg.min_entries);
                put_usize(out, cfg.reinsert_count);
            }
            BackendConfig::Grid(cfg) => {
                put_u8(out, BackendKind::Grid.tag());
                put_usize(out, cfg.m);
            }
            BackendConfig::Adaptive(_) => unreachable!("a live config is concrete"),
        }
        put_u64(out, self.costs.source_updates);
        self.work.encode(out);
        self.index.encode_state(out);
    }

    /// Rebuilds a shard from the state [`encode_state`](Self::encode_state)
    /// wrote, reading from the open decoder of the engine's checkpoint; its
    /// index is built afresh over `space`.
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
        space: Rect,
    ) -> Result<Self, RecoveryError> {
        let kind = BackendKind::from_tag(dec.u8()?)
            .ok_or(RecoveryError::Corrupt("unknown backend kind tag"))?;
        if !B::accepts_kind(kind) {
            return Err(RecoveryError::BackendMismatch {
                found: kind.label(),
                recovering: B::label(),
            });
        }
        let live = match kind {
            BackendKind::RStar => BackendConfig::RStar(TreeConfig {
                max_entries: dec.usize()?,
                min_entries: dec.usize()?,
                reinsert_count: dec.usize()?,
            }),
            BackendKind::Grid => BackendConfig::Grid(GridConfig { m: dec.usize()? }),
        };
        let live = live.checked().ok_or(RecoveryError::Corrupt("invalid backend config"))?;
        let costs = CostTracker { source_updates: dec.u64()?, probes: 0 };
        let work = WorkStats::decode(dec)?;
        let index = ObjectIndex::decode_state(dec, &live, space)?;
        Ok(Shard { index, costs, work })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectState;
    use srb_durable::Dec;
    use srb_index::{DynBackend, UniformGrid};

    fn holding<B: SpatialBackend>(backend: &BackendConfig, n: u32) -> Shard<B> {
        let mut shard = Shard::new(backend, Rect::UNIT);
        for i in 0..n {
            let p = Point::new((f64::from(i) * 0.37).fract(), (f64::from(i) * 0.61).fract());
            let safe_region = Rect::centered(p, 0.01, 0.02);
            let st = ObjectState { p_lst: p, t_lst: 0.5, safe_region, last_seq: 2 };
            shard.index.insert(ObjectId(i), st);
        }
        shard
    }

    fn decode<B: SpatialBackend>(bytes: &[u8]) -> Result<Shard<B>, RecoveryError> {
        let mut dec = Dec::new(bytes);
        let shard = Shard::decode_state(&mut dec, Rect::UNIT)?;
        dec.finish()?;
        Ok(shard)
    }

    /// A damaged shard config — an unknown kind tag, a tree no split could
    /// keep legal, a grid of no cells — is refused with a typed error, never
    /// built.
    #[test]
    fn damaged_backend_config_is_refused_not_built() {
        let mut tree = Vec::new();
        holding::<RStarTree>(&BackendConfig::default(), 10).encode_state(&mut tree);
        let mut grid = Vec::new();
        holding::<UniformGrid>(&BackendConfig::Grid(Default::default()), 10)
            .encode_state(&mut grid);
        let mut bad_tag = tree.clone();
        bad_tag[0] = 7;
        let mut bad_tree = tree.clone();
        bad_tree[1..9].copy_from_slice(&2u64.to_le_bytes()); // max_entries
        let mut bad_grid = grid.clone();
        bad_grid[1..9].copy_from_slice(&0u64.to_le_bytes()); // m
        for (bytes, what) in [
            (bad_tag, "unknown backend kind tag"),
            (bad_tree, "invalid backend config"),
            (bad_grid, "invalid backend config"),
        ] {
            match decode::<DynBackend>(&bytes) {
                Err(RecoveryError::Corrupt(got)) => assert_eq!(got, what),
                other => panic!("decoded a damaged config: {:?}", other.map(|_| ())),
            }
        }
        assert!(decode::<RStarTree>(&tree).is_ok());
        assert!(matches!(
            decode::<RStarTree>(&grid),
            Err(RecoveryError::BackendMismatch { found: "grid", recovering: "rstar" })
        ));
    }
}
