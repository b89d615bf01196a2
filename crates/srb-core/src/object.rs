//! Per-object server-side state: the safe region, the last reported
//! location, and its timestamp (needed by the reachability circle, §6.1).
//!
//! Storage is a dense slab: states live contiguously in slot order, an
//! `ObjectId -> slot` map (shared fast hasher, see `srb-hash`) resolves
//! lookups in one multiply-hash probe, and freed slots are recycled through
//! a free list.
//! Steady-state report handling (`get`/`get_mut`/`set` of existing ids)
//! performs no heap allocation.

use crate::ids::ObjectId;
use srb_geom::{Point, Rect};
use srb_hash::FastMap;

/// What the server knows about one moving object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ObjectState {
    /// Last *exactly known* location (from a source-initiated update or a
    /// probe) — the paper's `p_lst`.
    pub(crate) p_lst: Point,
    /// Timestamp of that location — the paper's `T`.
    pub(crate) t_lst: f64,
    /// Current safe region (also stored in the object R\*-tree).
    pub(crate) safe_region: Rect,
    /// Highest client sequence number accepted so far. Sequenced updates at
    /// or below this are duplicates/reorderings from an unreliable channel
    /// and are rejected idempotently.
    pub(crate) last_seq: u64,
}

/// Dense slab of object states keyed by [`ObjectId`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjectTable {
    /// Slot occupants; `None` is a free slot.
    entries: Vec<Option<(ObjectId, ObjectState)>>,
    free: Vec<u32>,
    slot_of: FastMap<ObjectId, u32>,
    high_water: usize,
}

impl ObjectTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of registered objects.
    pub(crate) fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Registers or replaces an object's state.
    pub(crate) fn set(&mut self, id: ObjectId, state: ObjectState) {
        if let Some(&idx) = self.slot_of.get(&id) {
            self.entries[idx as usize] = Some((id, state));
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx as usize] = Some((id, state));
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Some((id, state)));
                idx
            }
        };
        self.slot_of.insert(id, idx);
        if self.slot_of.len() > self.high_water {
            self.high_water = self.slot_of.len();
            srb_obs::gauge!("objects.slab_high_water").set(self.high_water as u64);
        }
        srb_obs::gauge!("objects.slab_occupancy").set(self.slot_of.len() as u64);
    }

    /// The state of `id`, if registered.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&ObjectState> {
        let &idx = self.slot_of.get(&id)?;
        self.entries[idx as usize].as_ref().map(|(_, st)| st)
    }

    /// Mutable state access.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        let &idx = self.slot_of.get(&id)?;
        self.entries[idx as usize].as_mut().map(|(_, st)| st)
    }

    /// Removes an object, returning its state. Frees the slot for reuse.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<ObjectState> {
        let idx = self.slot_of.remove(&id)?;
        let old = self.entries[idx as usize].take().map(|(_, st)| st);
        self.free.push(idx);
        srb_obs::gauge!("objects.slab_occupancy").set(self.slot_of.len() as u64);
        old
    }

    /// Serializes the slab for a durability checkpoint. Slots are written
    /// in dense order and the free list verbatim, so a decoded table is
    /// bit-identical in structure (slot assignment, reuse order) to the
    /// original — only the `slot_of` hash map is rebuilt, and it is never
    /// iterated in hash order anywhere.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        put_usize(out, self.entries.len());
        for e in &self.entries {
            match e {
                None => put_u8(out, 0),
                Some((id, st)) => {
                    put_u8(out, 1);
                    put_u32(out, id.0);
                    put_f64(out, st.p_lst.x);
                    put_f64(out, st.p_lst.y);
                    put_f64(out, st.t_lst);
                    crate::wal::put_rect(out, &st.safe_region);
                    put_u64(out, st.last_seq);
                }
            }
        }
        put_usize(out, self.free.len());
        for &idx in &self.free {
            put_u32(out, idx);
        }
        put_usize(out, self.high_water);
    }

    /// Rebuilds a slab serialized by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, srb_durable::DurableError> {
        use srb_durable::DurableError;
        let n = dec.len(1)?;
        let mut entries = Vec::with_capacity(n);
        let mut slot_of = FastMap::default();
        for idx in 0..n {
            let occupant = match dec.u8()? {
                0 => None,
                1 => {
                    let id = ObjectId(dec.u32()?);
                    let p_lst = Point::new(dec.f64()?, dec.f64()?);
                    let t_lst = dec.f64()?;
                    let safe_region = crate::wal::dec_rect(dec)?;
                    let last_seq = dec.u64()?;
                    if slot_of.insert(id, idx as u32).is_some() {
                        return Err(DurableError::Corrupt("duplicate object id"));
                    }
                    Some((id, ObjectState { p_lst, t_lst, safe_region, last_seq }))
                }
                _ => return Err(DurableError::Corrupt("bad occupant tag")),
            };
            entries.push(occupant);
        }
        let n_free = dec.len(4)?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let idx = dec.u32()?;
            if idx as usize >= entries.len() || entries[idx as usize].is_some() {
                return Err(DurableError::Corrupt("free list names an occupied slot"));
            }
            free.push(idx);
        }
        let high_water = dec.usize()?;
        Ok(ObjectTable { entries, free, slot_of, high_water })
    }

    /// Iterates over registered objects in ascending-id order.
    ///
    /// This sorts a scratch vector of ids, so it is for cold paths only
    /// (coherence checks, tests) — the hot paths address states through
    /// [`ObjectTable::get`]/[`ObjectTable::get_mut`].
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectState)> {
        let mut order: Vec<u32> = self.slot_of.values().copied().collect();
        order.sort_unstable_by_key(|&idx| self.entries[idx as usize].as_ref().map(|(id, _)| id.0));
        order
            .into_iter()
            .filter_map(|idx| self.entries[idx as usize].as_ref().map(|(id, st)| (*id, st)))
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
        let mut t = ObjectTable::new();
        assert_eq!(t.len(), 0);
        t.set(ObjectId(3), state(0.3));
        t.set(ObjectId(0), state(0.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(ObjectId(3)).unwrap().p_lst, Point::new(0.3, 0.3));
        assert!(t.get(ObjectId(1)).is_none());
        assert!(t.remove(ObjectId(3)).is_some());
        assert!(t.remove(ObjectId(3)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn set_overwrites_without_double_count() {
        let mut t = ObjectTable::new();
        t.set(ObjectId(0), state(0.1));
        t.set(ObjectId(0), state(0.2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ObjectId(0)).unwrap().p_lst, Point::new(0.2, 0.2));
    }

    #[test]
    fn iter_visits_all() {
        let mut t = ObjectTable::new();
        for i in [5u32, 1, 9] {
            t.set(ObjectId(i), state(i as f64 / 10.0));
        }
        let ids: Vec<u32> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 5, 9]);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = ObjectTable::new();
        t.set(ObjectId(2), state(0.5));
        t.get_mut(ObjectId(2)).unwrap().t_lst = 7.0;
        assert_eq!(t.get(ObjectId(2)).unwrap().t_lst, 7.0);
    }

    #[test]
    fn freed_slot_is_recycled() {
        let mut t = ObjectTable::new();
        t.set(ObjectId(7), state(0.7));
        t.remove(ObjectId(7));
        assert!(t.get(ObjectId(7)).is_none());

        // The freed slot is recycled for the next registration.
        t.set(ObjectId(11), state(0.11));
        assert_eq!(t.entries.len(), 1, "free list should recycle the slot");
        assert_eq!(t.get(ObjectId(11)).unwrap().p_lst, Point::new(0.11, 0.11));
        assert!(t.get(ObjectId(7)).is_none());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut t = ObjectTable::new();
        for i in 0..4u32 {
            t.set(ObjectId(i), state(0.1));
        }
        t.remove(ObjectId(0));
        t.remove(ObjectId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.high_water, 4);
    }
}
