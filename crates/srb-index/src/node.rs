//! Arena-allocated R*-tree nodes.

use srb_geom::Rect;

/// Identifier of an indexed entry (a moving object id in the framework).
pub(crate) type EntryId = u64;

/// Index of a node in the tree's arena.
pub(crate) type NodeId = u32;

/// Sentinel for "no node".
pub(crate) const NO_NODE: NodeId = u32::MAX;

/// A leaf entry: an object id with its bounding rectangle (a safe region in
/// the SRB framework, or an exact point stored as a degenerate rectangle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafEntry {
    /// The entry id (a moving-object id in the framework).
    pub id: EntryId,
    /// The stored rectangle (safe region or degenerate point).
    pub rect: Rect,
}

#[derive(Clone, Debug)]
pub(crate) enum NodeKind {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<NodeId>),
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Minimum bounding rectangle of everything below this node.
    pub(crate) rect: Rect,
    pub(crate) parent: NodeId,
    pub(crate) kind: NodeKind,
    /// Distance from the leaf level (leaves are level 0).
    pub(crate) level: u16,
}

impl Node {
    pub(crate) fn new_leaf() -> Self {
        Node {
            rect: Rect::point(srb_geom::Point::ORIGIN),
            parent: NO_NODE,
            kind: NodeKind::Leaf(Vec::new()),
            level: 0,
        }
    }

    pub(crate) fn new_internal(level: u16) -> Self {
        Node {
            rect: Rect::point(srb_geom::Point::ORIGIN),
            parent: NO_NODE,
            kind: NodeKind::Internal(Vec::new()),
            level,
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    pub(crate) fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Internal(v) => v.len(),
        }
    }

    pub(crate) fn leaf_entries(&self) -> &[LeafEntry] {
        match &self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Internal(_) => panic!("leaf_entries on internal node"),
        }
    }

    pub(crate) fn leaf_entries_mut(&mut self) -> &mut Vec<LeafEntry> {
        match &mut self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Internal(_) => panic!("leaf_entries_mut on internal node"),
        }
    }

    /// Child list of an internal node. Nodes do not know their own arena
    /// index, so callers pass `id` purely to make the corruption report
    /// actionable; `#[track_caller]` points the panic at the misuse site.
    #[track_caller]
    pub(crate) fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.kind {
            NodeKind::Internal(v) => v,
            NodeKind::Leaf(_) => panic!(
                "children() on leaf node {id} (level {}, {} entries)",
                self.level,
                self.len()
            ),
        }
    }

    /// Mutable child list of an internal node; see [`Node::children`] for
    /// the `id` parameter.
    #[track_caller]
    pub(crate) fn children_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        let level = self.level;
        let len = self.len();
        match &mut self.kind {
            NodeKind::Internal(v) => v,
            NodeKind::Leaf(_) => {
                panic!("children_mut() on leaf node {id} (level {level}, {len} entries)")
            }
        }
    }
}
