//! Bit-exact structural serialization of the index backends for the
//! durability plane's checkpoints.
//!
//! Both backends serialize their *structure* verbatim — node arenas,
//! free lists, bucket contents, even the visit counter — rather than
//! re-inserting entries on load. Re-insertion would rebuild a
//! differently-shaped tree (different splits, different enumeration
//! order, different visit counts), and the crash harness asserts the
//! recovered engine is **bit-identical** to one that never crashed:
//! every probe order and work-unit number downstream depends on the
//! exact structure.
//!
//! The only thing not serialized is the `EntryId → location` map of each
//! backend (`leaf_of` / `rects`): hash maps iterate in
//! insertion-history-dependent order, so writing them verbatim would
//! make the encoding (and therefore state digests) depend on the path
//! taken to reach a state. They are derived data and are rebuilt on
//! decode — `leaf_of` by walking the tree from the root (never by
//! scanning the arena, whose freed slots hold stale leaves), `rects`
//! from the buckets.
//!
//! Decoding is total: payloads arrive CRC-checked, but every structural
//! reference is still bounds-checked and returns
//! [`DurableError::Corrupt`] instead of panicking.

use crate::backend::Visits;
use crate::node::{Node, NodeId, NodeKind, NO_NODE};
use crate::{EntryId, GridConfig, LeafEntry, RStarTree, TreeConfig, UniformGrid};
use srb_durable::codec::{put_bool, put_f64, put_u16, put_u32, put_u64, put_u8, put_usize};
use srb_durable::{Dec, DurableError};
use srb_geom::{Point, Rect};
use srb_hash::FastMap;

pub(crate) fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    put_f64(out, r.min().x);
    put_f64(out, r.min().y);
    put_f64(out, r.max().x);
    put_f64(out, r.max().y);
}

pub(crate) fn dec_rect(dec: &mut Dec<'_>) -> Result<Rect, DurableError> {
    let (x0, y0) = (dec.f64()?, dec.f64()?);
    let (x1, y1) = (dec.f64()?, dec.f64()?);
    if !(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite()) || x0 > x1 || y0 > y1
    {
        return Err(DurableError::Corrupt("malformed rect"));
    }
    Ok(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
}

fn put_leaf_entry(out: &mut Vec<u8>, e: &LeafEntry) {
    put_u64(out, e.id);
    put_rect(out, &e.rect);
}

fn dec_leaf_entry(dec: &mut Dec<'_>) -> Result<LeafEntry, DurableError> {
    let id = dec.u64()?;
    let rect = dec_rect(dec)?;
    Ok(LeafEntry { id, rect })
}

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

impl RStarTree {
    /// Serializes the tree structure verbatim (arena, free list, root,
    /// counters). `leaf_of` is derived and not written.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_usize(out, self.config.max_entries);
        put_usize(out, self.config.min_entries);
        put_usize(out, self.config.reinsert_count);
        put_u32(out, self.root);
        put_usize(out, self.len);
        put_bool(out, self.relaxed_min);
        put_u64(out, self.visits.get());
        put_usize(out, self.free.len());
        for &f in &self.free {
            put_u32(out, f);
        }
        put_usize(out, self.nodes.len());
        for node in &self.nodes {
            put_rect(out, &node.rect);
            put_u32(out, node.parent);
            put_u16(out, node.level);
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    put_u8(out, KIND_LEAF);
                    put_usize(out, entries.len());
                    for e in entries {
                        put_leaf_entry(out, e);
                    }
                }
                NodeKind::Internal(children) => {
                    put_u8(out, KIND_INTERNAL);
                    put_usize(out, children.len());
                    for &c in children {
                        put_u32(out, c);
                    }
                }
            }
        }
    }

    /// Rebuilds a tree from [`encode_state`](Self::encode_state) bytes,
    /// deriving `leaf_of` by walking the tree from the root.
    pub(crate) fn decode_state(dec: &mut Dec<'_>) -> Result<RStarTree, DurableError> {
        let config = TreeConfig {
            max_entries: dec.usize()?,
            min_entries: dec.usize()?,
            reinsert_count: dec.usize()?,
        }
        .try_validated()
        .map_err(|_| DurableError::Corrupt("invalid TreeConfig"))?;
        let root = dec.u32()?;
        let len = dec.usize()?;
        let relaxed_min = dec.bool()?;
        let visits = dec.u64()?;
        let n_free = dec.len(4)?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(dec.u32()?);
        }
        let n_nodes = dec.len(39)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let rect = dec_rect(dec)?;
            let parent = dec.u32()?;
            let level = dec.u16()?;
            let kind = match dec.u8()? {
                KIND_LEAF => {
                    let n = dec.len(40)?;
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        entries.push(dec_leaf_entry(dec)?);
                    }
                    NodeKind::Leaf(entries)
                }
                KIND_INTERNAL => {
                    let n = dec.len(4)?;
                    let mut children = Vec::with_capacity(n);
                    for _ in 0..n {
                        children.push(dec.u32()?);
                    }
                    NodeKind::Internal(children)
                }
                _ => return Err(DurableError::Corrupt("unknown node kind")),
            };
            nodes.push(Node { rect, parent, kind, level });
        }
        if (root as usize) >= nodes.len() {
            return Err(DurableError::Corrupt("root out of bounds"));
        }
        // Derive leaf_of by walking from the root — the arena's freed
        // slots hold stale leaves that must not resurrect entries.
        let mut leaf_of: FastMap<EntryId, NodeId> = FastMap::default();
        let mut stack = vec![root];
        let mut walked = 0usize;
        while let Some(id) = stack.pop() {
            walked += 1;
            if walked > nodes.len() {
                return Err(DurableError::Corrupt("tree walk cycles"));
            }
            match &nodes[id as usize].kind {
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        leaf_of.insert(e.id, id);
                    }
                }
                NodeKind::Internal(children) => {
                    for &c in children {
                        if (c as usize) >= nodes.len() || c == NO_NODE {
                            return Err(DurableError::Corrupt("child out of bounds"));
                        }
                        stack.push(c);
                    }
                }
            }
        }
        if leaf_of.len() != len {
            return Err(DurableError::Corrupt("len disagrees with reachable entries"));
        }
        Ok(RStarTree {
            nodes,
            free,
            root,
            len,
            leaf_of,
            config,
            visits: Visits::new(visits),
            relaxed_min,
        })
    }
}

impl UniformGrid {
    /// Serializes the grid verbatim — bucket contents *in bucket order*,
    /// which determines search emission order. `rects` is derived and
    /// not written.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_rect(out, &self.space);
        put_usize(out, self.m);
        put_u64(out, self.visits.get());
        for bucket in &self.buckets {
            put_usize(out, bucket.len());
            for e in bucket {
                put_leaf_entry(out, e);
            }
        }
    }

    /// Rebuilds a grid from [`encode_state`](Self::encode_state) bytes,
    /// deriving the `rects` map from the buckets.
    pub(crate) fn decode_state(dec: &mut Dec<'_>) -> Result<UniformGrid, DurableError> {
        let space = dec_rect(dec)?;
        let m = dec.usize()?;
        GridConfig { m }.try_validated().map_err(|_| DurableError::Corrupt("invalid grid m"))?;
        let visits = dec.u64()?;
        let mut buckets = Vec::with_capacity(m * m);
        let mut rects: FastMap<EntryId, Rect> = FastMap::default();
        for _ in 0..m * m {
            let n = dec.len(40)?;
            let mut bucket = Vec::with_capacity(n);
            for _ in 0..n {
                let e = dec_leaf_entry(dec)?;
                rects.insert(e.id, e.rect);
                bucket.push(e);
            }
            buckets.push(bucket);
        }
        Ok(UniformGrid {
            space,
            m,
            cell_w: space.width() / m as f64,
            cell_h: space.height() / m as f64,
            buckets,
            rects,
            visits: Visits::new(visits),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialBackend;

    fn pt_rect(x: f64, y: f64) -> Rect {
        Rect::point(Point::new(x, y))
    }

    fn churned_tree() -> RStarTree {
        let mut t =
            RStarTree::new(TreeConfig { max_entries: 8, min_entries: 3, reinsert_count: 2 });
        for i in 0..300u64 {
            let x = ((i * 37) % 101) as f64 / 101.0;
            let y = ((i * 61) % 97) as f64 / 97.0;
            t.insert(i, Rect::centered(Point::new(x, y), 0.004, 0.004));
        }
        // Deletions populate the free list; updates churn structure.
        for i in (0..300u64).step_by(3) {
            t.remove(i).unwrap();
        }
        for i in (1..300u64).step_by(3) {
            let x = ((i * 73) % 89) as f64 / 89.0;
            let y = ((i * 41) % 83) as f64 / 83.0;
            t.update(i, Rect::centered(Point::new(x, y), 0.004, 0.004));
        }
        let _ = t.search_vec(&Rect::UNIT);
        t
    }

    fn churned_grid() -> UniformGrid {
        let mut g = UniformGrid::new(GridConfig { m: 16 }, Rect::UNIT);
        for i in 0..200u64 {
            let x = ((i * 37) % 101) as f64 / 101.0;
            let y = ((i * 61) % 97) as f64 / 97.0;
            g.insert(i, Rect::centered(Point::new(x, y), 0.03, 0.03));
        }
        for i in (0..200u64).step_by(4) {
            g.remove(i).unwrap();
        }
        for i in (1..200u64).step_by(4) {
            g.update(i, pt_rect(((i * 7) % 13) as f64 / 13.0, ((i * 11) % 17) as f64 / 17.0));
        }
        let _ = g.search_vec(&Rect::UNIT);
        g
    }

    #[test]
    fn tree_round_trip_is_bit_identical() {
        let t = churned_tree();
        let mut bytes = Vec::new();
        t.encode_state(&mut bytes);
        let mut dec = Dec::new(&bytes);
        let t2 = RStarTree::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        // Structure re-encodes to the exact same bytes...
        let mut bytes2 = Vec::new();
        t2.encode_state(&mut bytes2);
        assert_eq!(bytes, bytes2);
        // ...and behaves identically, down to the visit counter.
        assert_eq!(t.len(), t2.len());
        assert_eq!(t.visits(), t2.visits());
        let q = Rect::new(Point::new(0.2, 0.2), Point::new(0.7, 0.7));
        let a: Vec<u64> = t.search_vec(&q).iter().map(|e| e.id).collect();
        let b: Vec<u64> = t2.search_vec(&q).iter().map(|e| e.id).collect();
        assert_eq!(a, b, "emission order must match exactly");
        let na: Vec<u64> = t.nearest_iter(Point::new(0.4, 0.6)).map(|n| n.id).collect();
        let nb: Vec<u64> = t2.nearest_iter(Point::new(0.4, 0.6)).map(|n| n.id).collect();
        assert_eq!(na, nb);
        assert_eq!(t.visits(), t2.visits());
        t2.check_invariants();
    }

    #[test]
    fn tree_free_list_survives_and_reuses_identically() {
        let t = churned_tree();
        let mut bytes = Vec::new();
        t.encode_state(&mut bytes);
        let mut t1 = t;
        let mut t2 = RStarTree::decode_state(&mut Dec::new(&bytes)).unwrap();
        // Identical inserts after the round trip must allocate the same
        // arena slots (the free list is part of the state).
        for i in 1000..1050u64 {
            let r = pt_rect(((i * 3) % 7) as f64 / 7.0, ((i * 5) % 11) as f64 / 11.0);
            t1.insert(i, r);
            t2.insert(i, r);
        }
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        t1.encode_state(&mut b1);
        t2.encode_state(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn grid_round_trip_is_bit_identical() {
        let g = churned_grid();
        let mut bytes = Vec::new();
        g.encode_state(&mut bytes);
        let mut dec = Dec::new(&bytes);
        let g2 = UniformGrid::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        let mut bytes2 = Vec::new();
        g2.encode_state(&mut bytes2);
        assert_eq!(bytes, bytes2);
        assert_eq!(g.len(), g2.len());
        let q = Rect::new(Point::new(0.1, 0.1), Point::new(0.8, 0.8));
        let a: Vec<u64> = g.search_vec(&q).iter().map(|e| e.id).collect();
        let b: Vec<u64> = g2.search_vec(&q).iter().map(|e| e.id).collect();
        assert_eq!(a, b, "bucket order determines emission order");
        let na: Vec<u64> = g.nearest_iter(Point::new(0.3, 0.3)).map(|n| n.id).collect();
        let nb: Vec<u64> = g2.nearest_iter(Point::new(0.3, 0.3)).map(|n| n.id).collect();
        assert_eq!(na, nb);
        assert_eq!(g.visits(), g2.visits());
        g2.check_invariants();
    }

    #[test]
    fn decode_rejects_structural_corruption_without_panicking() {
        let t = churned_tree();
        let mut bytes = Vec::new();
        t.encode_state(&mut bytes);
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len().min(200) {
            let _ = RStarTree::decode_state(&mut Dec::new(&bytes[..cut]));
        }
        // A hostile root index is caught.
        let mut bad = bytes.clone();
        bad[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(RStarTree::decode_state(&mut Dec::new(&bad)).is_err());
    }

    #[test]
    fn backend_trait_round_trip() {
        fn round_trip<B: SpatialBackend>(b: &B) -> B {
            let mut bytes = Vec::new();
            b.encode_state(&mut bytes);
            let mut dec = Dec::new(&bytes);
            let b2 = B::decode_state(&mut dec).unwrap();
            dec.finish().unwrap();
            b2
        }
        let t = round_trip(&churned_tree());
        t.check_invariants();
        let g = round_trip(&churned_grid());
        g.check_invariants();
    }
}
