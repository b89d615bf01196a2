//! The location manager layer (paper §3.1, Figure 3.1 box "location
//! manager"): a shard's timers.
//!
//! Owns the safe-region leases and the deferred probe queue that keeps the
//! reachability enhancement (§6.1) sound over time, for the objects of one
//! shard. Safe regions themselves (§5) are computed by the coordinator's
//! region lanes against the one query plane (`sharded.rs`).

use crate::ids::ObjectId;
use crate::object::ObjectTable;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why a deferred timer entry exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeferKind {
    /// Reachability-circle slack expiry (§6.1 soundness restoration).
    Slack,
    /// Safe-region lease expiry: the object has not been heard from for a
    /// full lease period — probe it in case its exit report was lost.
    Lease,
}

/// A scheduled deferred probe (see DESIGN.md): `epoch` is the object's
/// last-report timestamp at scheduling time — the entry is stale (and
/// silently dropped) if the object has reported or been probed since.
/// Lease renewals ride the same staleness rule: any contact bumps `t_lst`,
/// invalidating the old lease entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deferred {
    pub due: f64,
    pub oid: ObjectId,
    pub epoch: f64,
    pub kind: DeferKind,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.total_cmp(&other.due)
    }
}

/// The location manager: leases and the deferred probe queue.
#[derive(Default)]
pub struct LocationManager {
    deferred: BinaryHeap<Reverse<Deferred>>,
}

impl LocationManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules one reachability-slack probe of `oid` (an object of
    /// `objects`; unknown ids are ignored) at `due`.
    pub(crate) fn defer(&mut self, oid: ObjectId, due: f64, objects: &ObjectTable) {
        let Some(st) = objects.get(oid) else { return };
        self.deferred.push(Reverse(Deferred { due, oid, epoch: st.t_lst, kind: DeferKind::Slack }));
    }

    /// Schedules the lease-expiry probe of the region just granted to `oid`
    /// at `now`, when leases are enabled. Renewal-on-contact is implicit:
    /// the entry's epoch is the fresh `t_lst`, so any later contact (which
    /// bumps `t_lst`) invalidates it via the staleness rule.
    pub(crate) fn start_lease(&mut self, lease: Option<f64>, oid: ObjectId, now: f64) {
        if let Some(lease) = lease.filter(|&l| l > 0.0) {
            self.deferred.push(Reverse(Deferred {
                due: now + lease,
                oid,
                epoch: now,
                kind: DeferKind::Lease,
            }));
        }
    }

    /// The earliest pending deferred-probe time, if any. Stale entries are
    /// discarded lazily.
    pub(crate) fn next_due(&mut self, objects: &ObjectTable) -> Option<f64> {
        while let Some(Reverse(d)) = self.deferred.peek() {
            let fresh = objects.get(d.oid).map(|st| st.t_lst == d.epoch).unwrap_or(false);
            if fresh {
                return Some(d.due);
            }
            self.deferred.pop();
        }
        None
    }

    /// Pops the next fresh entry due at or before `now`, if any.
    pub(crate) fn pop_due(&mut self, objects: &ObjectTable, now: f64) -> Option<Deferred> {
        let due = self.next_due(objects)?;
        if due > now + 1e-12 {
            return None;
        }
        self.deferred.pop().map(|Reverse(d)| d)
    }

    /// Serializes the deferred-probe queue for a durability checkpoint.
    /// Entries are written in the heap's internal array order; rebuilding
    /// a `BinaryHeap` from an array that already satisfies the heap
    /// property moves nothing, so the decoded queue pops in exactly the
    /// original order (ties included) — a requirement for bit-identical
    /// recovery.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        put_usize(out, self.deferred.len());
        for Reverse(d) in self.deferred.iter() {
            put_f64(out, d.due);
            put_u32(out, d.oid.0);
            put_f64(out, d.epoch);
            put_u8(
                out,
                match d.kind {
                    DeferKind::Slack => 0,
                    DeferKind::Lease => 1,
                },
            );
        }
    }

    /// Rebuilds a manager serialized by
    /// [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, srb_durable::DurableError> {
        use srb_durable::DurableError;
        let n = dec.len(21)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let due = dec.f64()?;
            let oid = ObjectId(dec.u32()?);
            let epoch = dec.f64()?;
            let kind = match dec.u8()? {
                0 => DeferKind::Slack,
                1 => DeferKind::Lease,
                _ => return Err(DurableError::Corrupt("bad defer kind")),
            };
            if due.is_nan() || epoch.is_nan() {
                return Err(DurableError::Corrupt("NaN deferred timestamp"));
            }
            entries.push(Reverse(Deferred { due, oid, epoch, kind }));
        }
        Ok(LocationManager { deferred: BinaryHeap::from(entries) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectState;
    use srb_geom::{Point, Rect};

    fn table_with(oid: ObjectId, t_lst: f64) -> ObjectTable {
        let mut t = ObjectTable::new();
        let p = Point::new(0.5, 0.5);
        t.set(oid, ObjectState { p_lst: p, t_lst, safe_region: Rect::point(p), last_seq: 0 });
        t
    }

    #[test]
    fn defer_ignores_unknown_objects() {
        let mut lm = LocationManager::new();
        let objects = table_with(ObjectId(1), 0.0);
        lm.defer(ObjectId(9), 2.0, &objects);
        lm.defer(ObjectId(1), 5.0, &objects);
        assert_eq!(lm.next_due(&objects), Some(5.0));
    }

    #[test]
    fn stale_entries_are_dropped_lazily() {
        let mut lm = LocationManager::new();
        let mut objects = table_with(ObjectId(3), 0.0);
        lm.defer(ObjectId(3), 2.0, &objects);
        assert_eq!(lm.next_due(&objects), Some(2.0));
        // A later contact bumps t_lst and invalidates the entry.
        objects.get_mut(ObjectId(3)).unwrap().t_lst = 1.0;
        assert_eq!(lm.next_due(&objects), None);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut lm = LocationManager::new();
        let objects = table_with(ObjectId(4), 0.0);
        lm.defer(ObjectId(4), 3.0, &objects);
        assert!(lm.pop_due(&objects, 2.9).is_none());
        let d = lm.pop_due(&objects, 3.0).expect("due now");
        assert_eq!(d.oid, ObjectId(4));
        assert_eq!(d.kind, DeferKind::Slack);
        assert!(lm.pop_due(&objects, 10.0).is_none());
    }
}
