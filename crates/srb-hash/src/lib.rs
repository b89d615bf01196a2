//! # srb-hash
//!
//! The workspace's shared FxHash-style hasher for small integer keys
//! (object ids, query ids, R\*-tree entry ids).
//!
//! The standard library's SipHash is collision-resistant but slow for small
//! integer keys; id-keyed lookups happen on every location update, so the
//! hot maps use the classic Fx multiply-rotate scheme (the rustc hasher)
//! implemented locally to avoid an external dependency. The hasher started
//! life inside `srb-index` (for the `EntryId -> NodeId` leaf map) and was
//! promoted here so `srb-core`'s object/query state plane and batch
//! scratch buffers share the same scheme.
//!
//! Determinism note: [`FxHasher`] is fixed-seed, so map *layout* is
//! reproducible across runs — but none of the framework's result-affecting
//! paths iterate these maps in bucket order, so swapping SipHash for Fx
//! never changes observable behavior.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style 64-bit hasher.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by small integers using [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trip() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hasher_spreads_sequential_keys() {
        // Sequential keys must not all collide to the same bucket pattern.
        let hashes: Vec<u64> = (0..64u64)
            .map(|k| {
                let mut h = FxHasher::default();
                h.write_u64(k);
                h.finish()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn clear_retains_capacity() {
        // The scratch-buffer reuse pattern relies on `clear()` keeping the
        // allocation, so refills up to the old length never reallocate.
        let mut m: FastMap<u32, u32> = FastMap::default();
        for i in 0..256u32 {
            m.insert(i, i);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.capacity() >= cap);
    }
}
