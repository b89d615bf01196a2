//! Continuous-query specifications, quarantine areas, and per-query server
//! state (paper §3.3).

use crate::ids::ObjectId;
use srb_geom::{Circle, Point, Rect};

/// The specification of a continuous spatial query, as registered by an
/// application server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuerySpec {
    /// A continuous range query: report the set of objects inside `rect`.
    Range {
        /// The query rectangle.
        rect: Rect,
    },
    /// A continuous k-nearest-neighbor query anchored at `center`.
    Knn {
        /// The query point.
        center: Point,
        /// Number of neighbors to monitor (`k >= 1`).
        k: usize,
        /// Whether the *order* of the k neighbors is part of the result
        /// (§3.3): an order-sensitive query is affected by any movement
        /// inside its quarantine area, an order-insensitive one only by
        /// boundary crossings.
        order_sensitive: bool,
    },
}

impl QuerySpec {
    /// Convenience constructor for a range query.
    pub fn range(rect: Rect) -> Self {
        QuerySpec::Range { rect }
    }

    /// Convenience constructor for an order-sensitive kNN query.
    pub fn knn(center: Point, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        QuerySpec::Knn { center, k, order_sensitive: true }
    }

    /// Convenience constructor for an order-insensitive kNN query.
    pub fn knn_unordered(center: Point, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        QuerySpec::Knn { center, k, order_sensitive: false }
    }
}

/// The quarantine area of a query (§3.3): while every result object stays
/// inside it and every non-result object stays outside, the query result
/// cannot change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Quarantine {
    /// A range query's quarantine area is its own rectangle.
    Rect(Rect),
    /// A kNN query's quarantine area is a circle centered at the query point
    /// whose radius lies between `Δ(q, o_k.sr)` and `δ(q, o_{k+1}.sr)`.
    Circle(Circle),
}

impl Quarantine {
    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        match self {
            Quarantine::Rect(r) => r.contains_point(p),
            Quarantine::Circle(c) => c.contains(p),
        }
    }

    /// Whether the safe region `sr` keeps to one side of the area — within
    /// it when `inside`, clear of its interior otherwise (both closed, to
    /// 1e-9). What a consistency check holds a granted region to.
    pub(crate) fn keeps(&self, sr: &Rect, inside: bool) -> bool {
        const EPS: f64 = 1e-9;
        match (self, inside) {
            (Quarantine::Circle(c), true) => sr.max_dist(c.center) <= c.radius + EPS,
            (Quarantine::Circle(c), false) => sr.min_dist(c.center) >= c.radius - EPS,
            (Quarantine::Rect(r), true) => r.inflate(EPS).contains_rect(sr),
            (Quarantine::Rect(r), false) => !r.inflate(-EPS).intersects(sr),
        }
    }

    /// Bounding box — used to register the query in the grid index.
    #[inline]
    pub fn bbox(&self) -> Rect {
        match self {
            Quarantine::Rect(r) => *r,
            Quarantine::Circle(c) => c.bbox(),
        }
    }
}

/// Per-query state kept by the database server: the specification, the
/// current result set, and the quarantine area.
#[derive(Clone, Debug)]
pub struct QueryState {
    /// The registered specification.
    pub spec: QuerySpec,
    /// Current results. For an order-sensitive kNN query the order is the
    /// distance order (nearest first); for ranges and order-insensitive kNN
    /// the order carries no meaning.
    pub results: Vec<ObjectId>,
    /// The quarantine area.
    pub quarantine: Quarantine,
}

impl QueryState {
    /// True when `oid` is currently a result.
    pub fn is_result(&self, oid: ObjectId) -> bool {
        self.results.contains(&oid)
    }

    /// Position of `oid` in the (ordered) result list.
    pub fn result_rank(&self, oid: ObjectId) -> Option<usize> {
        self.results.iter().position(|&o| o == oid)
    }
}

/// A change to a query's result set, reported to the application server
/// (step 3 in Figure 3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct ResultChange {
    /// The affected query.
    pub query: crate::ids::QueryId,
    /// The result set after the change (ordered for order-sensitive kNN).
    pub results: Vec<ObjectId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_contains() {
        let r = Quarantine::Rect(Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.5, 0.5)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(!r.contains(Point::new(1.1, 0.5)));
        let c = Quarantine::Circle(Circle::new(Point::new(0.0, 0.0), 1.0));
        assert!(c.contains(Point::new(1.0, 0.0)));
        assert!(!c.contains(Point::new(1.0, 1.0)));
    }

    #[test]
    fn quarantine_bbox() {
        let c = Quarantine::Circle(Circle::new(Point::new(0.5, 0.5), 0.2));
        let b = c.bbox();
        assert_eq!(b, Rect::centered(Point::new(0.5, 0.5), 0.2, 0.2));
    }

    #[test]
    fn query_state_rank() {
        let qs = QueryState {
            spec: QuerySpec::knn(Point::new(0.0, 0.0), 3),
            results: vec![ObjectId(5), ObjectId(2), ObjectId(9)],
            quarantine: Quarantine::Circle(Circle::new(Point::new(0.0, 0.0), 0.5)),
        };
        assert!(qs.is_result(ObjectId(2)));
        assert!(!qs.is_result(ObjectId(1)));
        assert_eq!(qs.result_rank(ObjectId(9)), Some(2));
        assert_eq!(qs.result_rank(ObjectId(1)), None);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = QuerySpec::knn(Point::new(0.0, 0.0), 0);
    }
}
