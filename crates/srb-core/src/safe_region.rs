//! Safe region computation (paper §5).
//!
//! The safe region of an object `p` is the intersection of per-query regions
//! `p.sr_Q` over the *relevant queries* — those whose quarantine area
//! overlaps `p`'s grid cell — clipped to the cell itself (so every other
//! query is satisfied by construction). Range queries whose quarantine does
//! not contain `p` are handled together by the batch staircase algorithm of
//! §5.3; everything else goes through the Ir-lp constructions of §5.1–§5.2.

use crate::eval::RegionCtx;
use crate::grid::GridIndex;
use crate::ids::ObjectId;
use crate::query::{Quarantine, QuerySpec, QueryState};
use srb_geom::{
    irlp_circle, irlp_circle_complement, irlp_rect_complement_batch_with, irlp_ring,
    ClearanceObjective, OrdinaryPerimeter, PerimeterObjective, Point, Rect, Ring, StaircaseScratch,
    WeightedPerimeter,
};
use srb_index::SpatialBackend;

/// Fraction of the grid-cell size up to which an object's clearance from
/// its safe-region boundary is rewarded (see [`ClearanceObjective`]).
const CLEARANCE_FRACTION: f64 = 0.05;

/// Working memory of one safe-region computation, reused from region to
/// region (content on entry is discarded) so that none allocates. Lanes may
/// run on different threads, so each owns one.
#[derive(Default)]
pub(crate) struct RegionScratch {
    /// The range-query rectangles the object has to stay out of.
    range_blocks: Vec<Rect>,
    /// The staircase over them (§5.3).
    staircase: StaircaseScratch,
}

/// Computes the safe region for the object `ctx.requester`, located exactly
/// at `pos`.
///
/// `steadiness` selects the §6.2 weighted-perimeter objective; `p_lst` (the
/// previous exactly-known location) supplies the movement direction.
/// Objects the context knows exactly are treated as having *invalid* safe
/// regions (probed but not yet recomputed), triggering the midpoint
/// replacement rule of §5.2.
pub(crate) fn compute_safe_region<B: SpatialBackend>(
    ctx: &mut RegionCtx<'_, B>,
    grid: &GridIndex,
    queries: &[Option<QueryState>],
    pos: Point,
    p_lst: Point,
    steadiness: Option<f64>,
    scratch: &mut RegionScratch,
) -> Rect {
    let cell = grid.cell_rect_of(pos);
    let scale = CLEARANCE_FRACTION * cell.width().min(cell.height());
    // The objective is scored ~30 times per Ir-lp θ-search, so it is picked
    // once here and the search below is compiled per objective type.
    match steadiness {
        Some(d) if p_lst != pos => {
            let weighted = WeightedPerimeter::new(pos, p_lst, d);
            let objective = ClearanceObjective::new(weighted, pos, scale);
            safe_region_under(ctx, grid, queries, pos, &cell, &objective, scratch)
        }
        _ => {
            let objective = ClearanceObjective::new(OrdinaryPerimeter, pos, scale);
            safe_region_under(ctx, grid, queries, pos, &cell, &objective, scratch)
        }
    }
}

fn safe_region_under<B: SpatialBackend, O: PerimeterObjective>(
    ctx: &mut RegionCtx<'_, B>,
    grid: &GridIndex,
    queries: &[Option<QueryState>],
    pos: Point,
    cell: &Rect,
    objective: &O,
    scratch: &mut RegionScratch,
) -> Rect {
    srb_obs::counter!("safe_region.computations").inc();
    srb_obs::histogram!("safe_region.relevant_queries").record(grid.queries_at(pos).len() as u64);
    let mut sr = *cell;
    let RegionScratch { range_blocks, staircase } = scratch;
    range_blocks.clear();

    for &qid in grid.queries_at(pos) {
        let Some(qs) = queries.get(qid.index()).and_then(|q| q.as_ref()) else {
            continue;
        };
        match sr_for_query(ctx, qs, pos, cell, objective) {
            SrQ::Rect(r) => {
                sr = sr.intersection(&r).unwrap_or_else(|| Rect::point(pos));
            }
            SrQ::RangeBlock(b) => range_blocks.push(b),
            SrQ::Whole => {}
        }
    }

    if !range_blocks.is_empty() {
        let batch = irlp_rect_complement_batch_with(range_blocks, pos, cell, objective, staircase);
        sr = sr.intersection(&batch).unwrap_or_else(|| Rect::point(pos));
    }
    if !sr.contains_point(pos) {
        // Numerical corner case: never hand a client a safe region it is
        // already outside of. The cell rectangle is derived from a grid
        // index computed by truncation, so `pos` can sit an ulp outside it;
        // the union must include `pos` itself (an ulp of spill past the
        // cell is harmless, a safe region excluding its own client loops
        // forever).
        sr = sr.union_point(pos);
    }
    sr
}

enum SrQ {
    /// A concrete rectangle to intersect into the safe region.
    Rect(Rect),
    /// A range-query rectangle to avoid — deferred to the batch algorithm.
    RangeBlock(Rect),
    /// No constraint from this query within the cell.
    Whole,
}

fn sr_for_query<B: SpatialBackend, O: PerimeterObjective>(
    ctx: &mut RegionCtx<'_, B>,
    qs: &QueryState,
    pos: Point,
    cell: &Rect,
    objective: &O,
) -> SrQ {
    match (&qs.spec, &qs.quarantine) {
        (QuerySpec::Range { rect }, _) => {
            if rect.contains_point(pos) {
                // Result object: the quarantine area itself is the best safe
                // region (§5.1).
                srb_obs::counter!("safe_region.case.range_result").inc();
                SrQ::Rect(*rect)
            } else if rect.intersects(cell) {
                srb_obs::counter!("safe_region.case.range_block").inc();
                SrQ::RangeBlock(*rect)
            } else {
                srb_obs::counter!("safe_region.case.range_clear").inc();
                SrQ::Whole
            }
        }
        (QuerySpec::Knn { center, k, order_sensitive }, Quarantine::Circle(c)) => {
            let q = *center;
            match qs.result_rank(ctx.requester) {
                None => {
                    // Non-result: stay outside the quarantine circle (§5.2).
                    srb_obs::counter!("safe_region.case.knn_nonresult").inc();
                    match irlp_circle_complement(c, pos, cell, objective) {
                        Some(r) => SrQ::Rect(r),
                        None => SrQ::Rect(Rect::point(pos)),
                    }
                }
                Some(i) if !*order_sensitive => {
                    let _ = i;
                    // Order-insensitive result: stay inside the circle.
                    srb_obs::counter!("safe_region.case.knn_result_circle").inc();
                    match irlp_circle(c, pos, cell, objective) {
                        Some(r) => SrQ::Rect(r),
                        None => SrQ::Rect(Rect::point(pos)),
                    }
                }
                Some(i) => {
                    // Order-sensitive result: stay between the neighbors
                    // (§5.2, ring). i is 0-based; the paper's index is i+1.
                    srb_obs::counter!("safe_region.case.knn_result_ring").inc();
                    let d = pos.dist(q);
                    let inner = if i == 0 {
                        0.0
                    } else {
                        neighbor_bound(ctx, qs.results[i - 1], q, pos, true)
                    };
                    let outer = if i + 1 >= qs.results.len() || i + 1 >= *k {
                        c.radius
                    } else {
                        neighbor_bound(ctx, qs.results[i + 1], q, pos, false)
                    };
                    // Robustness: the ring must contain pos.
                    let inner = inner.min(d);
                    let outer = outer.max(d);
                    let ring = Ring::new(q, inner, outer);
                    match irlp_ring(&ring, pos, cell, objective) {
                        Some(r) => SrQ::Rect(r),
                        None => SrQ::Rect(Rect::point(pos)),
                    }
                }
            }
        }
        (QuerySpec::Knn { .. }, Quarantine::Rect(_)) => {
            unreachable!("kNN query with rectangular quarantine")
        }
    }
}

/// The ring bound contributed by the neighbor `o` of a result object at
/// `pos`: `Δ(q, o.sr)` for the inner neighbor / `δ(q, o.sr)` for the outer.
/// When `o`'s safe region is *invalid* (probed this round, not yet
/// recomputed — i.e. exactly known to the context), §5.2 replaces the bound by the
/// midpoint `(d(q, o) + d(q, pos)) / 2`.
///
/// When the neighbor's *stale* safe region conflicts with `pos` (its bound
/// would leave no room for the ring — `Δ(q, o.sr) >= d(q, pos)` for the
/// inner neighbor, or `δ(q, o.sr) <= d(q, pos)` for the outer), the
/// neighbor's exact location is requested ([`RegionCtx::request_neighbor`]):
/// the coordinator's probe both resolves the conflict via the midpoint rule
/// and queues the neighbor's own safe region for recomputation.
/// Without the probe the ring collapses to a sliver pinned at `pos`, and
/// the object would have to update continuously.
fn neighbor_bound<B: SpatialBackend>(
    ctx: &mut RegionCtx<'_, B>,
    o: ObjectId,
    q: Point,
    pos: Point,
    inner: bool,
) -> f64 {
    let d = pos.dist(q);
    let read = ctx.read;
    if let Some(&pt) = read.exact.get(&o) {
        return (pt.dist(q) + d) * 0.5;
    }
    let Some(bound_full) = read.bound_of(o) else {
        return d; // unknown neighbor: degenerate to pos distance
    };
    let raw = if inner { bound_full.raw_max_dist(q) } else { bound_full.raw_min_dist(q) };
    let conflict = if inner { raw >= d - 1e-12 } else { raw <= d + 1e-12 };
    if !conflict {
        return raw;
    }
    // The neighbor's stale safe region conflicts with `pos`. Try the
    // reachability circle first (§6.1): if it bounds the neighbor away
    // from `d`, use the midpoint and schedule the deferred probe that
    // keeps the decision sound as the circle grows.
    let refined = if inner { bound_full.max_dist(q) } else { bound_full.min_dist(q) };
    let clear = if inner { refined < d - 1e-12 } else { refined > d + 1e-12 };
    if clear {
        let chosen = (refined + d) * 0.5;
        let due = if inner {
            read.due_dist_threshold(o, q, chosen)
        } else {
            read.due_min_dist_threshold(o, q, chosen)
        };
        if let Some(due) = due {
            ctx.defer_until(o, due);
        }
        return chosen;
    }
    // The request voids this region; `d` is a placeholder.
    ctx.request_neighbor(o);
    d
}
