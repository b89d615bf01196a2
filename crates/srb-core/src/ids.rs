//! Identifier newtypes for moving objects and registered queries.

use std::fmt;

/// Identifier of a moving object (mobile client). Object ids are expected to
/// be small dense integers; the server stores per-object state in a vector
/// indexed by them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Identifier of a registered continuous query, assigned by the server at
/// registration time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl ObjectId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id as an R-tree entry id.
    #[inline]
    pub(crate) fn entry(self) -> u64 {
        self.0 as u64
    }
}

impl QueryId {
    /// The id as a vector index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_and_indexing() {
        assert_eq!(format!("{}", ObjectId(7)), "o7");
        assert_eq!(format!("{:?}", QueryId(3)), "q3");
        assert_eq!(ObjectId(9).index(), 9);
        assert_eq!(ObjectId(9).entry(), 9u64);
        assert_eq!(QueryId(4).index(), 4);
    }

    #[test]
    fn ordering() {
        assert!(ObjectId(1) < ObjectId(2));
        assert!(QueryId(5) > QueryId(0));
    }
}
