//! Location bounds: what the server knows about where an object can be.
//!
//! During query evaluation an object is represented either by its exact
//! point (after a probe or a source-initiated update) or by a *region*: its
//! safe region, optionally refined by the reachability circle of §6.1
//! (centered at the last reported location `p_lst`, radius `V·(t − T)`).

use srb_geom::{Circle, Point, Rect};

/// Bound on an object's current location.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LocBound {
    /// Exactly known location.
    Exact(Point),
    /// The object is somewhere in `sr ∩ reach` (reach = everywhere when
    /// absent).
    Region {
        /// The safe region stored in the object index.
        sr: Rect,
        /// Reachability circle, when the maximum-speed enhancement is on.
        reach: Option<Circle>,
    },
}

impl LocBound {
    /// True when the bound is an exact point.
    pub(crate) fn is_exact(&self) -> bool {
        matches!(self, LocBound::Exact(_))
    }

    /// Lower distance bound using only the *stored* region (no reachability
    /// refinement). Quarantine radii must use raw bounds: a reachability
    /// circle keeps growing after the decision, so refined bounds are valid
    /// only at evaluation time, while quarantine areas must stay valid until
    /// the next update (see DESIGN.md §5).
    pub(crate) fn raw_min_dist(&self, q: Point) -> f64 {
        match self {
            LocBound::Exact(p) => p.dist(q),
            LocBound::Region { sr, .. } => sr.min_dist(q),
        }
    }

    /// Upper distance bound using only the stored region.
    pub(crate) fn raw_max_dist(&self, q: Point) -> f64 {
        match self {
            LocBound::Exact(p) => p.dist(q),
            LocBound::Region { sr, .. } => sr.max_dist(q),
        }
    }

    /// Lower bound on the distance from `q` to the object — the paper's
    /// `δ(q, ·)`, tightened by the reachability circle when available.
    pub(crate) fn min_dist(&self, q: Point) -> f64 {
        match self {
            LocBound::Exact(p) => p.dist(q),
            LocBound::Region { sr, reach } => {
                let d = sr.min_dist(q);
                match reach {
                    Some(c) => d.max(c.min_dist(q)),
                    None => d,
                }
            }
        }
    }

    /// Upper bound on the distance from `q` to the object — the paper's
    /// `Δ(q, ·)`, tightened by the reachability circle when available.
    pub(crate) fn max_dist(&self, q: Point) -> f64 {
        match self {
            LocBound::Exact(p) => p.dist(q),
            LocBound::Region { sr, reach } => {
                let d = sr.max_dist(q);
                match reach {
                    Some(c) => d.min(c.max_dist(q)),
                    None => d,
                }
            }
        }
    }

    /// True when the object is certainly inside `rect`.
    pub(crate) fn definitely_inside(&self, rect: &Rect) -> bool {
        match self {
            LocBound::Exact(p) => rect.contains_point(*p),
            LocBound::Region { sr, reach } => {
                if rect.contains_rect(sr) {
                    return true;
                }
                match reach {
                    Some(c) => match sr.intersection(&c.bbox()) {
                        Some(cap) => rect.contains_rect(&cap),
                        // Inconsistent knowledge (possible under delay):
                        // cannot conclude.
                        None => false,
                    },
                    None => false,
                }
            }
        }
    }

    /// True when the object is certainly outside `rect`.
    pub(crate) fn definitely_outside(&self, rect: &Rect) -> bool {
        match self {
            LocBound::Exact(p) => !rect.contains_point(*p),
            LocBound::Region { sr, reach } => {
                if !sr.intersects(rect) {
                    return true;
                }
                match reach {
                    Some(c) => {
                        // Region ⊆ circle: disjoint from rect if the circle is.
                        rect.min_dist(c.center) > c.radius
                            || sr.intersection(&c.bbox()).is_none_or(|cap| !cap.intersects(rect))
                    }
                    None => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    #[test]
    fn exact_bounds() {
        let b = LocBound::Exact(Point::new(0.3, 0.4));
        let q = Point::new(0.0, 0.0);
        assert_eq!(b.min_dist(q), 0.5);
        assert_eq!(b.max_dist(q), 0.5);
        assert!(b.definitely_inside(&r(0.0, 0.0, 1.0, 1.0)));
        assert!(b.definitely_outside(&r(0.5, 0.5, 1.0, 1.0)));
    }

    #[test]
    fn region_without_reach() {
        let b = LocBound::Region { sr: r(0.4, 0.4, 0.6, 0.6), reach: None };
        let q = Point::new(0.0, 0.5);
        assert!((b.min_dist(q) - 0.4).abs() < 1e-12);
        assert!(b.max_dist(q) > 0.6);
        assert!(b.definitely_inside(&r(0.0, 0.0, 1.0, 1.0)));
        assert!(!b.definitely_inside(&r(0.45, 0.0, 1.0, 1.0)));
        assert!(b.definitely_outside(&r(0.7, 0.7, 1.0, 1.0)));
        assert!(!b.definitely_outside(&r(0.5, 0.5, 1.0, 1.0)));
    }

    #[test]
    fn reachability_tightens_bounds() {
        // Large safe region, but the object reported at its center a moment
        // ago: the circle shrinks both bounds.
        let sr = r(0.0, 0.0, 1.0, 1.0);
        let reach = Some(Circle::new(Point::new(0.5, 0.5), 0.1));
        let b = LocBound::Region { sr, reach };
        let q = Point::new(0.5, 0.0);
        let loose = LocBound::Region { sr, reach: None };
        assert!(b.min_dist(q) > loose.min_dist(q));
        assert!(b.max_dist(q) < loose.max_dist(q));
        // The circle confines the object to the middle: definitely inside a
        // rect that covers the circle cap but not the whole safe region.
        assert!(b.definitely_inside(&r(0.3, 0.3, 0.7, 0.7)));
        assert!(!loose.definitely_inside(&r(0.3, 0.3, 0.7, 0.7)));
        // And definitely outside a far corner the circle cannot reach.
        assert!(b.definitely_outside(&r(0.9, 0.9, 1.0, 1.0)));
        assert!(!loose.definitely_outside(&r(0.9, 0.9, 1.0, 1.0)));
    }

    #[test]
    fn bounds_are_consistent() {
        let b = LocBound::Region {
            sr: r(0.2, 0.2, 0.4, 0.5),
            reach: Some(Circle::new(Point::new(0.3, 0.3), 0.15)),
        };
        for q in [Point::new(0.0, 0.0), Point::new(0.3, 0.3), Point::new(1.0, 0.2)] {
            assert!(b.min_dist(q) <= b.max_dist(q) + 1e-12);
        }
    }
}
