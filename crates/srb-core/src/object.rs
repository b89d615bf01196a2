//! Per-object server-side state: the safe region, the last reported
//! location, and its timestamp (needed by the reachability circle, §6.1).
//!
//! Each object's state is kept once, in an [`ObjectTable`] indexed by
//! [`ObjectId::index`] — object ids are small dense integers — beside the
//! R\*-tree that holds its safe region. Steady-state report
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
    /// Current safe region (also stored in the R\*-tree).
    pub(crate) safe_region: Rect,
    /// Highest client sequence number accepted so far. Sequenced updates at
    /// or below this are duplicates/reorderings from an unreliable channel
    /// and are rejected idempotently.
    pub(crate) last_seq: u64,
}

impl ObjectState {
    /// What a slot of an id not registered now holds; never read as state.
    const VACANT: ObjectState =
        ObjectState { p_lst: Point::ORIGIN, t_lst: 0.0, safe_region: Rect::UNIT, last_seq: 0 };
}

/// Every registered object's state, indexed by [`ObjectId::index`]. The
/// vectors never shrink: `entries`' length is the table's high-water mark.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjectTable {
    /// One state slot per id; only a slot whose `occupied` bit is set holds
    /// a registered object (64 bytes a slot, where an `Option` took 72).
    entries: Vec<ObjectState>,
    /// Bit `i % 64` of word `i / 64` is set while id `i` is registered.
    occupied: Vec<u64>,
    /// The number of set bits.
    live: usize,
}

impl ObjectTable {
    /// Whether slot `i` holds a registered object.
    fn is_occupied(&self, i: usize) -> bool {
        self.occupied.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Sets or clears slot `i`'s bit, returning whether it was set.
    fn mark(&mut self, i: usize, on: bool) -> bool {
        let (word, bit) = (&mut self.occupied[i / 64], 1u64 << (i % 64));
        let was = *word & bit != 0;
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        was
    }

    /// Number of registered objects.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The state of `id`, if registered.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&ObjectState> {
        self.is_occupied(id.index()).then(|| &self.entries[id.index()])
    }

    /// Mutable state access.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        self.is_occupied(id.index()).then(|| &mut self.entries[id.index()])
    }

    /// Registers or replaces an object's state.
    pub(crate) fn set(&mut self, id: ObjectId, state: ObjectState) {
        let i = id.index();
        if self.entries.len() <= i {
            self.entries.resize(i + 1, ObjectState::VACANT);
            self.occupied.resize((i + 1).div_ceil(64), 0);
            srb_obs::gauge!("objects.slab_high_water").set(self.entries.len() as u64);
        }
        self.entries[i] = state;
        if !self.mark(i, true) {
            self.live += 1;
            srb_obs::gauge!("objects.slab_occupancy").set(self.live as u64);
        }
    }

    /// Removes an object, returning its last state.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<ObjectState> {
        let i = id.index();
        if !self.is_occupied(i) {
            return None;
        }
        self.mark(i, false);
        self.live -= 1;
        srb_obs::gauge!("objects.slab_occupancy").set(self.live as u64);
        Some(self.entries[i])
    }

    /// Iterates over registered objects in ascending-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectState)> {
        let entries = self.entries.iter().enumerate();
        entries.filter(|&(i, _)| self.is_occupied(i)).map(|(i, st)| (ObjectId(i as u32), st))
    }

    /// Serializes the table for a durability checkpoint: one tag byte per
    /// id slot, then the state of a registered id.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        put_usize(out, self.entries.len());
        for (i, st) in self.entries.iter().enumerate() {
            if !self.is_occupied(i) {
                put_u8(out, 0);
                continue;
            }
            put_u8(out, 1);
            crate::wal::put_point(out, st.p_lst);
            put_f64(out, st.t_lst);
            crate::wal::put_rect(out, &st.safe_region);
            put_u64(out, st.last_seq);
        }
    }

    /// Rebuilds a table serialized by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(dec: &mut srb_durable::Dec<'_>) -> Result<Self, RecoveryError> {
        let n = dec.len(1)?;
        let mut table = ObjectTable {
            entries: Vec::with_capacity(n),
            occupied: vec![0; n.div_ceil(64)],
            live: 0,
        };
        for i in 0..n {
            let entry = match dec.u8()? {
                0 => ObjectState::VACANT,
                1 => {
                    let p_lst = crate::wal::dec_point(dec)?;
                    let t_lst = dec.f64()?;
                    let safe_region = crate::wal::dec_rect(dec)?;
                    let last_seq = dec.u64()?;
                    table.mark(i, true);
                    table.live += 1;
                    ObjectState { p_lst, t_lst, safe_region, last_seq }
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
        t.set(ObjectId(3), state(0.3));
        t.set(ObjectId(0), state(0.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(ObjectId(3)).unwrap().p_lst, Point::new(0.3, 0.3));
        assert!(t.get(ObjectId(1)).is_none());
        assert!(t.get(ObjectId(1 << 20)).is_none(), "an id past the table is unknown");
        assert_eq!(t.remove(ObjectId(3)).map(|st| st.p_lst), Some(Point::new(0.3, 0.3)));
        assert!(t.remove(ObjectId(3)).is_none());
        assert!(t.remove(ObjectId(1 << 20)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn set_overwrites_without_double_count() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(0), state(0.1));
        t.set(ObjectId(0), state(0.2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ObjectId(0)).unwrap().p_lst, Point::new(0.2, 0.2));
    }

    #[test]
    fn iter_visits_all() {
        let mut t = ObjectTable::default();
        for i in [5u32, 1, 9] {
            t.set(ObjectId(i), state(i as f64 / 10.0));
        }
        let ids: Vec<(u32, f64)> = t.iter().map(|(id, st)| (id.0, st.p_lst.x)).collect();
        assert_eq!(ids, vec![(1, 0.1), (5, 0.5), (9, 0.9)]);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(2), state(0.5));
        t.get_mut(ObjectId(2)).unwrap().t_lst = 7.0;
        assert_eq!(t.get(ObjectId(2)).unwrap().t_lst, 7.0);
    }

    /// Slots below the high-water mark that were never set, or were
    /// removed, read as unregistered through every accessor.
    #[test]
    fn vacant_slots_below_the_high_water_mark_read_none() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(70), state(0.7));
        t.set(ObjectId(2), state(0.2));
        t.remove(ObjectId(2));
        for id in [0u32, 1, 2, 63, 64, 69] {
            assert!(t.get(ObjectId(id)).is_none(), "slot {id}");
            assert!(t.get_mut(ObjectId(id)).is_none(), "slot {id}");
        }
        let ids: Vec<u32> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![70]);
        assert_eq!((t.len(), t.entries.len()), (1, 71));
    }

    #[test]
    fn a_removed_id_can_be_set_again() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(1), state(0.1));
        assert!(t.remove(ObjectId(1)).is_some());
        assert!(t.get(ObjectId(1)).is_none());
        t.set(ObjectId(1), state(0.4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ObjectId(1)).map(|st| st.p_lst), Some(Point::new(0.4, 0.4)));
        assert_eq!(t.remove(ObjectId(1)).map(|st| st.p_lst), Some(Point::new(0.4, 0.4)));
        assert_eq!(t.len(), 0);
    }

    /// The checkpoint bytes of a table with holes: the slot count, then a
    /// tag byte per slot and, after a `1`, the state — written out by hand
    /// here, and reproduced by a decode → encode round trip.
    #[test]
    fn encoding_of_a_table_with_holes_is_the_tagged_layout() {
        let mut t = ObjectTable::default();
        t.set(ObjectId(1), state(0.25));
        t.set(ObjectId(3), ObjectState { t_lst: 2.0, last_seq: 7, ..state(0.5) });
        t.set(ObjectId(0), state(0.75));
        t.remove(ObjectId(0));
        let mut expected = 4u64.to_le_bytes().to_vec();
        let slot = |out: &mut Vec<u8>, x: f64, t_lst: f64, seq: u64| {
            out.push(1);
            for v in [x, x, t_lst, x, x, x, x] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&seq.to_le_bytes());
        };
        expected.push(0);
        slot(&mut expected, 0.25, 0.0, 0);
        expected.push(0);
        slot(&mut expected, 0.5, 2.0, 7);

        let mut bytes = Vec::new();
        t.encode_state(&mut bytes);
        assert_eq!(bytes, expected);
        let mut dec = srb_durable::Dec::new(&bytes);
        let back = ObjectTable::decode_state(&mut dec).expect("decodes");
        dec.finish().expect("no trailing bytes");
        assert_eq!(back.len(), 2);
        assert!(back.get(ObjectId(0)).is_none() && back.get(ObjectId(2)).is_none());
        let mut again = Vec::new();
        back.encode_state(&mut again);
        assert_eq!(again, expected);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut t = ObjectTable::default();
        for i in 0..4u32 {
            t.set(ObjectId(i), state(0.1));
        }
        t.remove(ObjectId(0));
        t.remove(ObjectId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries.len(), 4);
    }
}
