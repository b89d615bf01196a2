//! Arena-allocated R*-tree nodes.

use srb_geom::Rect;

/// Identifier of an indexed entry (a moving object id in the framework).
pub(crate) type EntryId = u64;

/// Index of a node in the tree's arena.
pub(crate) type NodeId = u32;

/// Sentinel for "no node".
pub(crate) const NO_NODE: NodeId = u32::MAX;

/// The id→leaf slot of `id`. Entry ids are small dense integers in an
/// `ObjectId`'s range; one above `u32::MAX` panics.
#[track_caller]
pub(crate) fn slot(id: EntryId) -> usize {
    match u32::try_from(id) {
        Ok(slot) => slot as usize,
        Err(_) => panic!("entry id {id} is above u32::MAX: entry ids are small dense integers"),
    }
}

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
    /// The rectangle may exceed the union of the children's: set on the
    /// parent of a leaf that shrank in a local expansion, cleared when the
    /// rectangle is recomputed.
    pub(crate) loose: bool,
}

impl Node {
    pub(crate) fn new_leaf() -> Self {
        Node {
            rect: Rect::point(srb_geom::Point::ORIGIN),
            parent: NO_NODE,
            kind: NodeKind::Leaf(Vec::new()),
            level: 0,
            loose: false,
        }
    }

    pub(crate) fn new_internal(level: u16) -> Self {
        Node {
            rect: Rect::point(srb_geom::Point::ORIGIN),
            parent: NO_NODE,
            kind: NodeKind::Internal(Vec::new()),
            level,
            loose: false,
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
