//! The discrete-event queue: a min-heap on `(time, sequence)` with FIFO
//! tie-breaking, so zero-delay message chains process in causal order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled event. `class` orders events at equal times: lower classes
/// first (e.g. location updates before metric samples).
struct Scheduled<E> {
    t: f64,
    class: u8,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then(self.class.cmp(&other.class)).then(self.seq.cmp(&other.seq))
    }
}

/// A deterministic discrete-event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0.0 }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `ev` at time `t` (clamped to never precede `now`), in the
    /// default class 0.
    pub fn push(&mut self, t: f64, ev: E) {
        self.push_class(t, 0, ev);
    }

    /// Schedules `ev` at time `t` in an explicit tie-breaking class: at
    /// equal times, lower classes pop first.
    pub fn push_class(&mut self, t: f64, class: u8, ev: E) {
        let t = t.max(self.now);
        self.heap.push(Reverse(Scheduled { t, class, seq: self.seq, ev }));
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.t >= self.now);
        self.now = s.t;
        Some((s.t, s.ev))
    }

    /// Time of the next event without popping.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(s)| s.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a1");
        q.push(1.0, "a2");
        q.push(3.0, "c");
        assert_eq!(q.pop(), Some((1.0, "a1")));
        assert_eq!(q.pop(), Some((1.0, "a2")));
        assert_eq!(q.now(), 1.0);
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn classes_break_ties() {
        let mut q = EventQueue::new();
        q.push_class(1.0, 1, "sample");
        q.push(1.0, "update");
        assert_eq!(q.pop(), Some((1.0, "update")));
        assert_eq!(q.pop(), Some((1.0, "sample")));
    }

    #[test]
    fn push_in_the_past_is_clamped_to_now() {
        let mut q = EventQueue::new();
        q.push(5.0, "later");
        assert_eq!(q.pop(), Some((5.0, "later")));
        q.push(1.0, "too-early");
        assert_eq!(q.pop(), Some((5.0, "too-early")));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(1.0, 1);
        assert_eq!(q.peek_time(), Some(1.0));
        let _ = q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
