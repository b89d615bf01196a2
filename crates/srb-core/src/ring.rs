//! A bounded single-producer / single-consumer ring with *in-place* slot
//! payloads — the transport of the pipelined ingestion front-end.
//!
//! Classic SPSC queues move `T` by value, which for our batch payloads
//! (update and response vectors) would re-allocate on every hop. This
//! ring instead keeps `cap` permanent slot payloads alive inside the ring
//! and hands the producer/consumer a `&mut T` callback view: the producer
//! *fills* a slot (typically by `mem::swap`-ing its warmed buffers in) and
//! the consumer *drains* it the same way. The slot buffers therefore join
//! the engine's reusable arena pool — once capacities have warmed up, a
//! push/pop round trip performs zero heap allocations.
//!
//! Concurrency model (safe Rust only — this crate denies `unsafe`):
//!
//! - `head` counts pushes, `tail` counts pops; both are monotonically
//!   increasing wrapping counters. The producer alone writes `head`, the
//!   consumer alone writes `tail`.
//! - Slot `i` is touched by the producer only while `head - tail < cap`
//!   (the slot is free) and by the consumer only while `tail < head` (the
//!   slot is filled), so each slot always has exactly one visitor. The
//!   per-slot `Mutex` encodes that exclusivity in the type system; it is
//!   never contended, and the Release store / Acquire load pair on
//!   `head`/`tail` publishes the payload across threads.
//!
//! The unit tests below double as the ThreadSanitizer targets of the CI
//! `concurrency` job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A bounded SPSC ring of reusable `T` slots. See the module docs for the
/// ownership discipline; violating single-producer/single-consumer cannot
/// corrupt memory (slots are mutex-guarded) but can stall progress.
pub(crate) struct Spsc<T> {
    slots: Box<[Mutex<T>]>,
    /// Total pushes (wrapping). Written by the producer only.
    head: AtomicUsize,
    /// Total pops (wrapping). Written by the consumer only.
    tail: AtomicUsize,
}

impl<T: Default> Spsc<T> {
    /// Creates a ring with `cap` slots, each holding a default payload.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a ring needs at least one slot");
        Spsc {
            slots: (0..cap).map(|_| Mutex::new(T::default())).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }
}

impl<T> Spsc<T> {
    /// Filled slots awaiting the consumer (racy by nature; exact from
    /// either endpoint's own side).
    pub fn len(&self) -> usize {
        self.head.load(Ordering::Acquire).wrapping_sub(self.tail.load(Ordering::Acquire))
    }

    /// Producer side: claims the next free slot, runs `fill` on its
    /// payload, and publishes it. Returns `false` (without calling `fill`)
    /// when the ring is full.
    pub fn try_push(&self, fill: impl FnOnce(&mut T)) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            return false;
        }
        {
            let mut slot = self.slots[head % self.slots.len()].lock().expect("ring slot poisoned");
            fill(&mut slot);
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: drains the oldest filled slot through `drain` and
    /// releases it back to the producer. Returns `false` (without calling
    /// `drain`) when the ring is empty.
    pub fn try_pop(&self, drain: impl FnOnce(&mut T)) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if head == tail {
            return false;
        }
        {
            let mut slot = self.slots[tail % self.slots.len()].lock().expect("ring slot poisoned");
            drain(&mut slot);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_round_trip_in_order() {
        let ring: Spsc<Vec<u32>> = Spsc::new(4);
        for i in 0..3u32 {
            assert!(ring.try_push(|v| {
                v.clear();
                v.push(i);
            }));
        }
        assert_eq!(ring.len(), 3);
        for i in 0..3u32 {
            let mut got = None;
            assert!(ring.try_pop(|v| got = Some(v[0])));
            assert_eq!(got, Some(i), "FIFO order");
        }
        assert!(!ring.try_pop(|_| panic!("empty ring must not call drain")));
    }

    #[test]
    fn full_ring_rejects_push_without_calling_fill() {
        let ring: Spsc<u64> = Spsc::new(2);
        assert!(ring.try_push(|s| *s = 1));
        assert!(ring.try_push(|s| *s = 2));
        assert!(!ring.try_push(|_| panic!("full ring must not call fill")));
        let mut got = 0;
        assert!(ring.try_pop(|s| got = *s));
        assert_eq!(got, 1);
        assert!(ring.try_push(|s| *s = 3), "pop frees a slot");
    }

    #[test]
    fn slot_buffers_retain_capacity_across_wraps() {
        let ring: Spsc<Vec<u8>> = Spsc::new(2);
        // Warm both slots with capacity.
        for _ in 0..2 {
            ring.try_push(|v| {
                v.clear();
                v.extend_from_slice(&[0u8; 256]);
            });
            ring.try_pop(|v| v.clear());
        }
        // After the warm-up lap, pushing 256 bytes reuses capacity.
        for lap in 0..8 {
            assert!(ring.try_push(|v| {
                assert!(v.capacity() >= 256, "lap {lap} lost slot capacity");
                v.clear();
                v.extend_from_slice(&[lap as u8; 256]);
            }));
            assert!(ring.try_pop(|v| assert_eq!(v[0], lap as u8)));
        }
    }

    /// Two-thread stress: every value crosses the ring exactly once, in
    /// order, under real concurrency. This is the primary TSan target.
    #[test]
    fn spsc_stress_preserves_every_message_in_order() {
        const N: u64 = 100_000;
        let ring: Arc<Spsc<u64>> = Arc::new(Spsc::new(8));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while i < N {
                    if ring.try_push(|s| *s = i) {
                        i += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expected = 0u64;
        while expected < N {
            let mut got = None;
            ring.try_pop(|s| got = Some(*s));
            match got {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        producer.join().expect("producer panicked");
        assert_eq!(ring.len(), 0);
    }

    /// Payload-swap stress with vector payloads: no message is lost or
    /// duplicated even when producer and consumer recycle buffers.
    #[test]
    fn spsc_stress_with_swapped_buffers() {
        const N: u32 = 20_000;
        let ring: Arc<Spsc<Vec<u32>>> = Arc::new(Spsc::new(4));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut stage: Vec<u32> = Vec::new();
                let mut i = 0u32;
                while i < N {
                    stage.clear();
                    stage.extend([i, i.wrapping_mul(31)]);
                    loop {
                        if ring.try_push(|slot| std::mem::swap(slot, &mut stage)) {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    i += 1;
                }
            })
        };
        let mut local: Vec<u32> = Vec::new();
        let mut seen = 0u32;
        while seen < N {
            let popped = ring.try_pop(|slot| std::mem::swap(slot, &mut local));
            if !popped {
                std::hint::spin_loop();
                continue;
            }
            assert_eq!(local.len(), 2);
            assert_eq!(local[0], seen);
            assert_eq!(local[1], seen.wrapping_mul(31));
            seen += 1;
        }
        producer.join().expect("producer panicked");
    }
}
