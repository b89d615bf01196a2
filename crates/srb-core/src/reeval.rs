//! Incremental reevaluation of affected queries upon a source-initiated
//! location update (paper §4.3).
//!
//! Range queries flip the updated object's membership directly. An
//! order-sensitive kNN query distinguishes three cases by where the new
//! location `pos` and the previous location `p_lst` fall relative to the
//! quarantine circle; each case needs **at most one probe**. Order-
//! insensitive kNN queries are re-run as new queries (the paper's rule —
//! without a strict order there is no sequence to patch).
//!
//! The §4.3 derivation relies on the invariant that result distances are
//! strictly interleaved (`δ(o_1) ≤ Δ(o_1) ≤ δ(o_2) ≤ …`). Floating-point
//! edge cases can break it; this implementation verifies the invariant and
//! falls back to a full reevaluation when it does not hold (counted in
//! [`WorkStats::ordering_fallbacks`](crate::provider::WorkStats)).

use crate::eval::{evaluate_knn_ordered, evaluate_knn_unordered, EvalCtx};
use crate::ids::ObjectId;
use crate::query::{Quarantine, QuerySpec, QueryState};
use srb_geom::{Circle, Point, Rect};
use srb_index::SpatialBackend;

const EPS: f64 = 1e-12;

/// Outcome of reevaluating one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Reeval {
    /// The result set (or order) changed and must be reported.
    pub results_changed: bool,
    /// The quarantine area changed and the grid index must be updated.
    pub quarantine_changed: bool,
}

/// Reevaluates `qs` after object `oid` reported a move from `p_lst` to
/// `pos`. `pos` must already be recorded in `ctx.exact` and in the object
/// tree (as a degenerate rectangle) by the caller.
pub(crate) fn reevaluate<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    oid: ObjectId,
    pos: Point,
    p_lst: Point,
    space: &Rect,
) -> Reeval {
    match qs.spec {
        QuerySpec::Range { rect } => reevaluate_range(qs, oid, pos, rect),
        QuerySpec::Knn { center, k, order_sensitive: false } => {
            reevaluate_knn_unordered(ctx, qs, pos, p_lst, center, k, space)
        }
        QuerySpec::Knn { center, k, order_sensitive: true } => {
            reevaluate_knn_ordered(ctx, qs, oid, pos, p_lst, center, k, space)
        }
    }
}

/// Reevaluates a query affected by *several* simultaneous movers. Range
/// queries flip each mover's membership independently; kNN queries are
/// reevaluated from scratch (every mover's exact position is already in
/// `ctx.exact`, so the evaluation is consistent and probes stay lazy).
pub(crate) fn reevaluate_multi<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    movers: &[ObjectId],
    prev: &srb_hash::FastMap<ObjectId, Point>,
    space: &Rect,
) -> Reeval {
    match qs.spec {
        QuerySpec::Range { rect } => {
            let mut changed = false;
            for &m in movers {
                let pos = ctx.exact.get(&m).copied().expect("mover is exact");
                let r = reevaluate_range(qs, m, pos, rect);
                changed |= r.results_changed;
            }
            Reeval { results_changed: changed, quarantine_changed: false }
        }
        QuerySpec::Knn { center, k, order_sensitive } => {
            // Unaffected fast path: every mover stayed on the same side of
            // the quarantine area (and outside it, for ordered queries).
            let c = quarantine_circle(qs);
            let all_clear = movers.iter().all(|&m| {
                let pos = ctx.exact.get(&m).copied().expect("mover is exact");
                let was = prev.get(&m).copied().unwrap_or(pos);
                let inside = c.contains(pos);
                let was_inside = c.contains(was);
                if order_sensitive {
                    !inside && !was_inside
                } else {
                    inside == was_inside
                }
            });
            if all_clear {
                return Reeval { results_changed: false, quarantine_changed: false };
            }
            let old = qs.results.clone();
            let old_quarantine = qs.quarantine;
            let eval = if order_sensitive {
                evaluate_knn_ordered(ctx, center, k, space, &[])
            } else {
                evaluate_knn_unordered(ctx, center, k, space, &[])
            };
            let results_changed = if order_sensitive {
                eval.results != old
            } else {
                let mut a = eval.results.clone();
                let mut b = old.clone();
                a.sort_unstable();
                b.sort_unstable();
                a != b
            };
            qs.results = eval.results;
            qs.quarantine = Quarantine::Circle(Circle::new(center, eval.radius));
            Reeval { results_changed, quarantine_changed: qs.quarantine != old_quarantine }
        }
    }
}

fn reevaluate_range(qs: &mut QueryState, oid: ObjectId, pos: Point, rect: Rect) -> Reeval {
    let inside = rect.contains_point(pos);
    let was_result = qs.is_result(oid);
    let results_changed = if inside && !was_result {
        qs.results.push(oid);
        true
    } else if !inside && was_result {
        qs.results.retain(|&o| o != oid);
        true
    } else {
        false
    };
    Reeval { results_changed, quarantine_changed: false }
}

fn quarantine_circle(qs: &QueryState) -> Circle {
    match qs.quarantine {
        Quarantine::Circle(c) => c,
        Quarantine::Rect(_) => unreachable!("kNN query with rectangular quarantine"),
    }
}

fn reevaluate_knn_unordered<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    pos: Point,
    p_lst: Point,
    center: Point,
    k: usize,
    space: &Rect,
) -> Reeval {
    let c = quarantine_circle(qs);
    let inside = c.contains(pos);
    let was_inside = c.contains(p_lst);
    if inside == was_inside {
        return Reeval { results_changed: false, quarantine_changed: false };
    }
    let eval = evaluate_knn_unordered(ctx, center, k, space, &[]);
    let mut old_sorted: Vec<ObjectId> = qs.results.clone();
    old_sorted.sort_unstable();
    let mut new_sorted: Vec<ObjectId> = eval.results.clone();
    new_sorted.sort_unstable();
    let results_changed = old_sorted != new_sorted;
    qs.results = eval.results;
    let quarantine_changed = (eval.radius - c.radius).abs() > EPS;
    qs.quarantine = Quarantine::Circle(Circle::new(center, eval.radius));
    Reeval { results_changed, quarantine_changed }
}

#[allow(clippy::too_many_arguments)]
fn reevaluate_knn_ordered<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    oid: ObjectId,
    pos: Point,
    p_lst: Point,
    center: Point,
    k: usize,
    space: &Rect,
) -> Reeval {
    let c = quarantine_circle(qs);
    let inside = c.contains(pos);
    let was_inside = c.contains(p_lst);
    let was_result = qs.is_result(oid);

    if !inside && !was_inside {
        // An order-sensitive query is unaffected only when both endpoints
        // are outside the quarantine area (§3.3).
        return Reeval { results_changed: false, quarantine_changed: false };
    }

    // Case 1: left the quarantine area — p stops being a result.
    if was_inside && !inside {
        if !was_result {
            // A non-result inside the quarantine area means the invariant
            // has already drifted; recover with a full reevaluation.
            return full_reevaluate(ctx, qs, center, k, space);
        }
        let old = qs.results.clone();
        qs.results.retain(|&o| o != oid);
        let remaining = qs.results.clone();
        let one = evaluate_knn_ordered(ctx, center, 1, space, &remaining);
        qs.results.extend(one.results);
        qs.quarantine = Quarantine::Circle(Circle::new(center, one.radius));
        // The leaver may be re-elected as the new k-th NN (it left the
        // quarantine circle but nothing else is closer) — no visible change.
        return Reeval { results_changed: qs.results != old, quarantine_changed: true };
    }

    // Cases 2 and 3 need the interleaved distance sequence of the current
    // results (excluding p itself for case 3).
    let old_results = qs.results.clone();
    let old_radius = c.radius;
    let mut seq: Vec<ObjectId> = qs.results.clone();
    let entering = !was_inside; // case 2
    if !entering {
        // Case 3: both inside — p must currently be a result.
        if !was_result {
            return full_reevaluate(ctx, qs, center, k, space);
        }
        seq.retain(|&o| o != oid);
    } else if was_result {
        // Entering but already a result: inconsistent.
        return full_reevaluate(ctx, qs, center, k, space);
    }

    let Some(bounds) = collect_ordered_bounds(ctx, &seq, center) else {
        ctx.work.ordering_fallbacks += 1;
        return full_reevaluate(ctx, qs, center, k, space);
    };

    let d = pos.dist(center);
    let mut idx = seq.len();
    for (j, &(dj, dd_j)) in bounds.iter().enumerate() {
        if d >= dd_j - EPS {
            continue; // p is farther than o_j for sure
        }
        if d <= dj + EPS {
            idx = j; // p precedes o_j for sure
            break;
        }
        // Ambiguous against o_j: probe it (the single probe of §4.3).
        let oj = seq[j];
        let pj = match ctx.bound_of(oj) {
            Some(b) if b.is_exact() => b,
            _ => {
                ctx.work.probes_reeval += 1;
                let pt = ctx.probe(oj);
                crate::bounds::LocBound::Exact(pt)
            }
        };
        let dj_exact = pj.raw_min_dist(center);
        idx = if d >= dj_exact { j + 1 } else { j };
        break;
    }
    if idx == seq.len() && bounds.iter().all(|&(_, dd)| d >= dd - EPS) {
        idx = seq.len();
    }

    if entering && idx == seq.len() && seq.len() == k {
        // p entered the quarantine circle but is farther than every result:
        // the result set is unchanged, but the quarantine must shrink below
        // d to restore the non-result-outside invariant. Use fresh bounds —
        // the k-th result may just have been probed above, which makes its
        // Δ exact (and ≤ d, or p would have displaced it).
        let inner = seq
            .iter()
            .map(|&o| ctx.bound_of(o).map(|b| b.raw_max_dist(center)).unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let radius = ((inner + d) * 0.5).min(old_radius);
        qs.quarantine = Quarantine::Circle(Circle::new(center, radius));
        return Reeval { results_changed: false, quarantine_changed: true };
    }

    seq.insert(idx.min(seq.len()), oid);
    let mut quarantine_changed = false;
    if entering && seq.len() > k {
        // Case 2: the old k-th NN drops out; new radius is the midpoint of
        // Δ(q, o'_k) and δ(q, o_k-dropped).
        let dropped = seq.pop().expect("non-empty");
        let inner = seq
            .iter()
            .filter_map(|&o| ctx.bound_of(o))
            .map(|b| b.raw_max_dist(center))
            .fold(d.min(old_radius), f64::max);
        let outer =
            ctx.bound_of(dropped).map(|b| b.raw_min_dist(center)).unwrap_or(inner).max(inner);
        qs.quarantine = Quarantine::Circle(Circle::new(center, (inner + outer) * 0.5));
        quarantine_changed = true;
    }
    let results_changed = seq != old_results;
    qs.results = seq;
    Reeval { results_changed, quarantine_changed }
}

fn full_reevaluate<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    center: Point,
    k: usize,
    space: &Rect,
) -> Reeval {
    let old = qs.results.clone();
    let old_quarantine = qs.quarantine;
    let eval = evaluate_knn_ordered(ctx, center, k, space, &[]);
    let results_changed = eval.results != old;
    qs.results = eval.results;
    qs.quarantine = Quarantine::Circle(Circle::new(center, eval.radius));
    let quarantine_changed = qs.quarantine != old_quarantine;
    Reeval { results_changed, quarantine_changed }
}

/// Collects `(δ, Δ)` bounds for `seq` and verifies the §4.3 interleaving
/// invariant `δ_1 ≤ Δ_1 ≤ δ_2 ≤ Δ_2 ≤ …`. Returns `None` when an object is
/// missing or the invariant is broken.
fn collect_ordered_bounds<B: SpatialBackend>(
    ctx: &EvalCtx<'_, B>,
    seq: &[ObjectId],
    center: Point,
) -> Option<Vec<(f64, f64)>> {
    let mut out = Vec::with_capacity(seq.len());
    let mut prev_max = 0.0f64;
    for &o in seq {
        let b = ctx.bound_of(o)?;
        let lo = b.raw_min_dist(center);
        let hi = b.raw_max_dist(center);
        if lo + EPS < prev_max {
            return None;
        }
        prev_max = hi;
        out.push((lo, hi));
    }
    Some(out)
}
