//! Per-object server-side state: the safe region, the last reported
//! location, and its timestamp (needed by the reachability circle, §6.1).
//!
//! Each object's state is kept once, in an [`ObjectTable`] indexed by
//! [`ObjectId::index`] — object ids are small dense integers — beside the
//! shard whose spatial backend holds its safe region. Steady-state report
//! handling (`get`/`get_mut` of existing ids) is a vector read and performs
//! no heap allocation.

use crate::error::RecoveryError;
use crate::ids::ObjectId;
use srb_geom::{Point, Rect};

/// What the server knows about one moving object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ObjectState {
    /// Last *exactly known* location (from a source-initiated update or a
    /// probe) — the paper's `p_lst`.
    pub(crate) p_lst: Point,
    /// Timestamp of that location — the paper's `T`.
    pub(crate) t_lst: f64,
    /// Current safe region (also stored in the shard's spatial backend).
    pub(crate) safe_region: Rect,
    /// Highest client sequence number accepted so far. Sequenced updates at
    /// or below this are duplicates/reorderings from an unreliable channel
    /// and are rejected idempotently.
    pub(crate) last_seq: u64,
}

/// Every registered object's `(shard, state)`, indexed by
/// [`ObjectId::index`]. The vector never shrinks: its length is the
/// table's high-water mark.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjectTable {
    /// `None` is an id not registered now.
    entries: Vec<Option<(u32, ObjectState)>>,
    /// The number of `Some` entries.
    live: usize,
}

impl ObjectTable {
    /// Number of registered objects.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The shard holding `id` and its state, if registered.
    pub(crate) fn locate(&self, id: ObjectId) -> Option<(usize, &ObjectState)> {
        let (shard, state) = self.entries.get(id.index())?.as_ref()?;
        Some((*shard as usize, state))
    }

    /// The state of `id`, if registered.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&ObjectState> {
        self.locate(id).map(|(_, state)| state)
    }

    /// Mutable state access.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        self.entries.get_mut(id.index())?.as_mut().map(|(_, state)| state)
    }

    /// Registers or replaces an object's shard and state.
    pub(crate) fn set(&mut self, id: ObjectId, shard: usize, state: ObjectState) {
        if self.entries.len() <= id.index() {
            self.entries.resize(id.index() + 1, None);
            srb_obs::gauge!("objects.slab_high_water").set(self.entries.len() as u64);
        }
        if self.entries[id.index()].replace((shard as u32, state)).is_none() {
            self.live += 1;
            srb_obs::gauge!("objects.slab_occupancy").set(self.live as u64);
        }
    }

    /// Removes an object, returning its shard and last state.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<(usize, ObjectState)> {
        let (shard, state) = self.entries.get_mut(id.index())?.take()?;
        self.live -= 1;
        srb_obs::gauge!("objects.slab_occupancy").set(self.live as u64);
        Some((shard as usize, state))
    }

    /// Iterates over registered objects in ascending-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, usize, &ObjectState)> {
        self.entries.iter().enumerate().filter_map(|(i, entry)| {
            let (shard, state) = entry.as_ref()?;
            Some((ObjectId(i as u32), *shard as usize, state))
        })
    }

    /// Serializes the table for a durability checkpoint: one tag byte per
    /// id slot, then the shard and state of a registered id.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        put_usize(out, self.entries.len());
        for entry in &self.entries {
            match entry {
                None => put_u8(out, 0),
                Some((shard, st)) => {
                    put_u8(out, 1);
                    put_u32(out, *shard);
                    crate::wal::put_point(out, st.p_lst);
                    put_f64(out, st.t_lst);
                    crate::wal::put_rect(out, &st.safe_region);
                    put_u64(out, st.last_seq);
                }
            }
        }
    }

    /// Rebuilds a table serialized by [`encode_state`](Self::encode_state)
    /// for an engine of `shards` shards; an entry naming a shard beyond
    /// them is refused.
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
        shards: usize,
    ) -> Result<Self, RecoveryError> {
        let n = dec.len(1)?;
        let mut table = ObjectTable { entries: Vec::with_capacity(n), live: 0 };
        for _ in 0..n {
            let entry = match dec.u8()? {
                0 => None,
                1 => {
                    let shard = dec.u32()?;
                    if shard as usize >= shards {
                        return Err(RecoveryError::Corrupt("object table names a missing shard"));
                    }
                    let p_lst = crate::wal::dec_point(dec)?;
                    let t_lst = dec.f64()?;
                    let safe_region = crate::wal::dec_rect(dec)?;
                    let last_seq = dec.u64()?;
                    table.live += 1;
                    Some((shard, ObjectState { p_lst, t_lst, safe_region, last_seq }))
                }
                _ => return Err(RecoveryError::Corrupt("bad object tag")),
            };
            table.entries.push(entry);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(x: f64) -> ObjectState {
        ObjectState {
            p_lst: Point::new(x, x),
            t_lst: 0.0,
            safe_region: Rect::point(Point::new(x, x)),
            last_seq: 0,
        }
    }

    #[test]
    fn set_get_remove() {
        let mut t = ObjectTable::default();
        assert_eq!(t.len(), 0);
        t.set(ObjectId(3), 1, state(0.3));
        t.set(ObjectId(0), 0, state(0.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(ObjectId(3)).unwrap().p_lst, Point::new(0.3, 0.3));
        assert_eq!(t.locate(ObjectId(3)).map(|(shard, _)| shard), Some(1));
        assert!(t.get(ObjectId(1)).is_none());
        assert!(t.get(ObjectId(1 << 20)).is_none(), "an id past the table is unknown");
        assert_eq!(t.remove(ObjectId(3)).map(|(shard, _)| shard), Some(1));
        assert!(t.remove(ObjectId(3)).is_none());
        assert!(t.remove(ObjectId(1 << 20)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn set_overwrites_without_double_count() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(0), 0, state(0.1));
        t.set(ObjectId(0), 0, state(0.2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ObjectId(0)).unwrap().p_lst, Point::new(0.2, 0.2));
    }

    #[test]
    fn iter_visits_all() {
        let mut t = ObjectTable::default();
        for i in [5u32, 1, 9] {
            t.set(ObjectId(i), i as usize % 3, state(i as f64 / 10.0));
        }
        let ids: Vec<(u32, usize)> = t.iter().map(|(id, shard, _)| (id.0, shard)).collect();
        assert_eq!(ids, vec![(1, 1), (5, 2), (9, 0)]);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(2), 0, state(0.5));
        t.get_mut(ObjectId(2)).unwrap().t_lst = 7.0;
        assert_eq!(t.get(ObjectId(2)).unwrap().t_lst, 7.0);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut t = ObjectTable::default();
        for i in 0..4u32 {
            t.set(ObjectId(i), 0, state(0.1));
        }
        t.remove(ObjectId(0));
        t.remove(ObjectId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries.len(), 4);
    }
}
