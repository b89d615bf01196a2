//! The location manager layer (paper §3.1, Figure 3.1 box "location
//! manager"): the engine's timers.
//!
//! One queue, owned by [`ShardedServer`](crate::ShardedServer), holds at
//! most one pending timer per object: a deferred probe that keeps the
//! reachability enhancement (§6.1) sound over time, or a safe-region
//! lease. Timers fire in `(due, id)` order. Which timer an
//! object has is the engine's rule, applied where regions are granted: a
//! grant at a new instant drops the timer (the object is exactly known
//! again, so nothing scheduled against its old anchor is owed), a grant at
//! the same instant keeps it, and a lease or a slack request only ever
//! brings it forward. Safe regions themselves (§5) are computed by the
//! engine's region step (`sharded/region.rs`).

use crate::ids::ObjectId;
use srb_durable::codec::{put_f64, put_u32, put_u8, put_usize};
use srb_durable::{Dec, DurableError};
use srb_hash::FastMap;
use std::collections::BTreeMap;

/// Why a timer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeferKind {
    /// Reachability-circle slack expiry (§6.1 soundness restoration).
    Slack = 0,
    /// Safe-region lease expiry: the object has not been heard from for a
    /// full lease period — probe it in case its exit report was lost.
    Lease = 1,
}

/// `due`'s rank under [`f64::total_cmp`], as an integer: the queue's order.
fn rank(due: f64) -> i64 {
    let bits = due.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The timer queue: at most one pending timer per object, in `(due, id)`
/// order.
#[derive(Default)]
pub(crate) struct Timers {
    /// Every pending timer, keyed `(rank(due), id)`.
    queue: BTreeMap<(i64, ObjectId), DeferKind>,
    /// Each object's due: its key in `queue`.
    due_of: FastMap<ObjectId, f64>,
}

impl Timers {
    fn set(&mut self, oid: ObjectId, due: f64, kind: DeferKind) {
        self.due_of.insert(oid, due);
        self.queue.insert((rank(due), oid), kind);
    }

    /// Brings `oid`'s timer forward to `due`; a timer already due at or
    /// before it stays as it is.
    pub(crate) fn lower(&mut self, oid: ObjectId, due: f64, kind: DeferKind) {
        if let Some(&pending) = self.due_of.get(&oid) {
            if rank(pending) <= rank(due) {
                return;
            }
            self.cancel(oid);
        }
        self.set(oid, due, kind);
    }

    /// Drops `oid`'s timer, if it has one.
    pub(crate) fn cancel(&mut self, oid: ObjectId) {
        if let Some(due) = self.due_of.remove(&oid) {
            self.queue.remove(&(rank(due), oid));
        }
    }

    /// The earliest pending due, if any.
    pub(crate) fn first(&self) -> Option<f64> {
        let (&(_, oid), _) = self.queue.first_key_value()?;
        Some(self.due_of[&oid])
    }

    /// The first timer when it is due at or before `now`; it stays
    /// queued until [`cancel`](Self::cancel)led.
    pub(crate) fn first_due(&self, now: f64) -> Option<(ObjectId, DeferKind)> {
        let (&(_, oid), &kind) = self.queue.first_key_value()?;
        (self.due_of[&oid] <= now + 1e-12).then_some((oid, kind))
    }

    /// `oid`'s due, if it has a timer.
    #[cfg(test)]
    pub(crate) fn due_of(&self, oid: ObjectId) -> Option<f64> {
        self.due_of.get(&oid).copied()
    }

    /// The number of pending timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Asserts that the queue and the per-object index agree and that every
    /// timer names an object `registered` knows.
    pub(crate) fn check(&self, registered: impl Fn(ObjectId) -> bool) {
        assert_eq!(self.queue.len(), self.due_of.len(), "timer queue and index disagree");
        for &(at, oid) in self.queue.keys() {
            assert_eq!(self.due_of.get(&oid).map(|&due| rank(due)), Some(at), "{oid} misfiled");
            assert!(registered(oid), "a timer for unregistered {oid}");
        }
    }

    /// Serializes the timers for a checkpoint, in queue order.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_usize(out, self.queue.len());
        for (&(_, oid), &kind) in &self.queue {
            put_f64(out, self.due_of[&oid]);
            put_u32(out, oid.0);
            put_u8(out, kind as u8);
        }
    }

    /// Rebuilds the timers [`encode_state`](Self::encode_state) wrote,
    /// refusing a NaN due, a second timer for one object, and a timer for
    /// an object `registered` does not know.
    pub(crate) fn decode_state(
        dec: &mut Dec<'_>,
        registered: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, DurableError> {
        let n = dec.len(13)?;
        let mut timers = Timers::default();
        for _ in 0..n {
            let due = dec.f64()?;
            let oid = ObjectId(dec.u32()?);
            let kind = match dec.u8()? {
                0 => DeferKind::Slack,
                1 => DeferKind::Lease,
                _ => return Err(DurableError::Corrupt("bad timer kind")),
            };
            if due.is_nan() {
                return Err(DurableError::Corrupt("NaN timer due"));
            }
            if !registered(oid) {
                return Err(DurableError::Corrupt("timer for an unregistered object"));
            }
            if timers.due_of.contains_key(&oid) {
                return Err(DurableError::Corrupt("two timers for one object"));
            }
            timers.set(oid, due, kind);
        }
        Ok(timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires the first timer due at or before `now`, as `process_deferred`
    /// does once its probe has answered.
    fn pop_due(timers: &mut Timers, now: f64) -> Option<(ObjectId, DeferKind)> {
        let due = timers.first_due(now)?;
        timers.cancel(due.0);
        Some(due)
    }

    #[test]
    fn lower_keeps_the_earlier_due_and_an_equal_one_stays() {
        let mut timers = Timers::default();
        timers.lower(ObjectId(3), 2.0, DeferKind::Lease);
        timers.lower(ObjectId(3), 5.0, DeferKind::Slack);
        assert_eq!(timers.first(), Some(2.0));
        timers.lower(ObjectId(3), 2.0, DeferKind::Slack);
        assert_eq!(timers.queue.get(&(rank(2.0), ObjectId(3))), Some(&DeferKind::Lease));
        timers.lower(ObjectId(3), 1.5, DeferKind::Slack);
        assert_eq!(timers.first(), Some(1.5));
        assert_eq!(pop_due(&mut timers, 1.5), Some((ObjectId(3), DeferKind::Slack)));
        assert_eq!(timers.first(), None, "one timer per object");
        timers.check(|_| true);
    }

    #[test]
    fn pop_due_respects_now_and_fires_in_due_then_id_order() {
        let mut timers = Timers::default();
        for (id, due) in [(9, 1.0), (4, 3.0), (2, 1.0), (7, 0.5)] {
            timers.lower(ObjectId(id), due, DeferKind::Lease);
        }
        assert_eq!(pop_due(&mut timers, 0.4), None);
        let fired: Vec<u32> =
            std::iter::from_fn(|| pop_due(&mut timers, 1.0)).map(|(oid, _)| oid.0).collect();
        assert_eq!(fired, [7, 2, 9]);
        assert_eq!(timers.first(), Some(3.0));
        timers.cancel(ObjectId(4));
        timers.cancel(ObjectId(4));
        assert_eq!(timers.first(), None);
        timers.check(|_| true);
    }

    #[test]
    fn codec_round_trips_and_refuses_what_the_queue_cannot_hold() {
        let mut timers = Timers::default();
        timers.lower(ObjectId(5), 0.75, DeferKind::Slack);
        timers.lower(ObjectId(1), 0.75, DeferKind::Lease);
        let mut buf = Vec::new();
        timers.encode_state(&mut buf);
        let back = Timers::decode_state(&mut Dec::new(&buf), |_| true).expect("decodes");
        assert_eq!(back.queue, timers.queue);
        assert_eq!(back.first(), Some(0.75));
        let refused = |bytes: &[u8], registered: fn(ObjectId) -> bool| {
            matches!(
                Timers::decode_state(&mut Dec::new(bytes), registered),
                Err(DurableError::Corrupt(_))
            )
        };
        assert!(refused(&buf, |oid| oid != ObjectId(5)), "an unregistered id");
        let entry = |out: &mut Vec<u8>, due: f64, id: u32| {
            put_f64(out, due);
            put_u32(out, id);
            put_u8(out, 1);
        };
        let (mut nan, mut twice) = (Vec::new(), Vec::new());
        put_usize(&mut nan, 1);
        entry(&mut nan, f64::NAN, 2);
        put_usize(&mut twice, 2);
        entry(&mut twice, 1.0, 2);
        entry(&mut twice, 2.0, 2);
        assert!(refused(&nan, |_| true), "a NaN due");
        assert!(refused(&twice, |_| true), "a duplicate id");
    }
}
