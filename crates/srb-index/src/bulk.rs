//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The simulator's ground-truth evaluator builds an index from exact
//! positions at every sample; STR packing does that in one pass instead of
//! inserting N entries one at a time. (The PRD baseline inserts one by one,
//! as the paper's does.)

use crate::node::{slot, LeafEntry, Node, NodeId, NodeKind, NO_NODE};
use crate::{RStarTree, TreeConfig};

/// Builds an [`RStarTree`] from `entries` using STR packing. Duplicate ids
/// must not appear, and ids are small dense integers as for
/// [`RStarTree::insert`]: one above `u32::MAX` panics before anything is
/// allocated. The resulting tree is fully functional (it supports
/// subsequent inserts, removals, and updates); its leaves keep their exact
/// sizes.
pub fn bulk_load(mut entries: Vec<LeafEntry>, config: TreeConfig) -> RStarTree {
    let config = config.validated();
    if entries.is_empty() {
        return RStarTree::new(config);
    }
    let top = slot(entries.iter().map(|e| e.id).max().expect("entries are not empty"));
    let cap = config.max_entries;
    let mut nodes: Vec<Node> = Vec::new();
    let mut leaf_of: Vec<NodeId> = vec![NO_NODE; top + 1];
    let len = entries.len();

    // --- Pack the leaf level ---------------------------------------------
    let n_leaves = len.div_ceil(cap);
    let n_slices = (n_leaves as f64).sqrt().ceil() as usize;
    let per_slice = len.div_ceil(n_slices);
    entries.sort_by(|a, b| a.rect.center().x.partial_cmp(&b.rect.center().x).unwrap());

    let mut leaf_ids: Vec<NodeId> = Vec::with_capacity(n_leaves);
    for slice in entries.chunks_mut(per_slice.max(1)) {
        slice.sort_by(|a, b| a.rect.center().y.partial_cmp(&b.rect.center().y).unwrap());
        for group in slice.chunks(cap) {
            let id = nodes.len() as NodeId;
            let rect = group.iter().skip(1).fold(group[0].rect, |acc, e| acc.union(&e.rect));
            for e in group {
                leaf_of[e.id as usize] = id;
            }
            nodes.push(Node {
                rect,
                parent: NO_NODE,
                kind: NodeKind::Leaf(group.to_vec()),
                level: 0,
                loose: false,
            });
            leaf_ids.push(id);
        }
    }

    // --- Pack upper levels -----------------------------------------------
    let mut level_ids = leaf_ids;
    let mut level: u16 = 0;
    while level_ids.len() > 1 {
        level += 1;
        let n_nodes = level_ids.len().div_ceil(cap);
        let n_slices = (n_nodes as f64).sqrt().ceil() as usize;
        let per_slice = level_ids.len().div_ceil(n_slices);
        level_ids.sort_by(|&a, &b| {
            let ca = nodes[a as usize].rect.center().x;
            let cb = nodes[b as usize].rect.center().x;
            ca.partial_cmp(&cb).unwrap()
        });
        let mut next_level: Vec<NodeId> = Vec::with_capacity(n_nodes);
        let chunks: Vec<Vec<NodeId>> = level_ids
            .chunks_mut(per_slice.max(1))
            .flat_map(|slice| {
                slice.sort_by(|&a, &b| {
                    let ca = nodes[a as usize].rect.center().y;
                    let cb = nodes[b as usize].rect.center().y;
                    ca.partial_cmp(&cb).unwrap()
                });
                slice.chunks(cap).map(|g| g.to_vec()).collect::<Vec<_>>()
            })
            .collect();
        for group in chunks {
            let id = nodes.len() as NodeId;
            let rect = group
                .iter()
                .skip(1)
                .fold(nodes[group[0] as usize].rect, |acc, &c| acc.union(&nodes[c as usize].rect));
            for &c in &group {
                nodes[c as usize].parent = id;
            }
            let kind = NodeKind::Internal(group);
            nodes.push(Node { rect, parent: NO_NODE, kind, level, loose: false });
            next_level.push(id);
        }
        level_ids = next_level;
    }

    let root = level_ids[0];
    RStarTree::from_parts(nodes, root, len, leaf_of, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_geom::{Point, Rect};

    fn entries(n: u64) -> Vec<LeafEntry> {
        (0..n)
            .map(|i| LeafEntry {
                id: i,
                rect: Rect::point(Point::new(
                    ((i * 137) % 997) as f64 / 997.0,
                    ((i * 613) % 991) as f64 / 991.0,
                )),
            })
            .collect()
    }

    #[test]
    fn bulk_load_small() {
        let t = bulk_load(entries(10), TreeConfig::default());
        assert_eq!(t.len(), 10);
        assert_eq!(t.height(), 1);
        t.check_invariants();
    }

    #[test]
    fn bulk_load_large_and_search() {
        let es = entries(5000);
        let t = bulk_load(es.clone(), TreeConfig::default());
        assert_eq!(t.len(), 5000);
        assert!(t.height() >= 2);
        t.check_invariants();
        let q = Rect::new(Point::new(0.2, 0.2), Point::new(0.4, 0.4));
        let mut got: Vec<u64> = t.search_vec(&q).iter().map(|e| e.id).collect();
        got.sort_unstable();
        let mut expected: Vec<u64> =
            es.iter().filter(|e| e.rect.intersects(&q)).map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn bulk_load_empty() {
        let t = bulk_load(Vec::new(), TreeConfig::default());
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn bulk_loaded_tree_supports_mutation() {
        let mut t = bulk_load(entries(300), TreeConfig::default());
        t.insert(10_000, Rect::point(Point::new(0.5, 0.5)));
        assert_eq!(t.len(), 301);
        assert!(t.remove(10).is_some());
        let out = t.update(20, Rect::point(Point::new(0.9, 0.9)));
        let _ = out; // any outcome is fine; invariants must hold
        t.check_invariants();
    }

    #[test]
    fn bulk_load_exact_capacity_boundaries() {
        for n in [31u64, 32, 33, 1024, 1025] {
            let t = bulk_load(entries(n), TreeConfig::default());
            assert_eq!(t.len(), n as usize);
            t.check_invariants();
        }
    }
}
