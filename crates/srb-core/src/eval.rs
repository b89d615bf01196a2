//! Query evaluation on safe regions with lazy probing (paper §4.1, §4.2).
//!
//! Objects are represented by [`LocBound`]s — safe regions, optionally
//! refined by reachability circles (§6.1), or exact points once probed. The
//! kNN evaluator follows Algorithm 2: best-first browsing with a *held*
//! object, probing only when the result is about to be emitted and still
//! ambiguous, so every probe is mandatory.

use crate::bounds::LocBound;
use crate::ids::ObjectId;
use crate::index::ObjectIndex;
use crate::object::ObjectState;
use crate::provider::{CostTracker, LocationProvider, WorkStats};
use crate::scratch::KnnPatch;
use srb_geom::{Circle, Point, Rect};
use srb_hash::FastMap;
use srb_index::{NearestIter, Neighbor};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;

/// Everything an evaluation needs from the engine, bundled to keep borrows
/// manageable. `exact` accumulates every exactly-known location of the
/// current operation (the updating objects plus all probed objects); the
/// engine recomputes safe regions for exactly these objects afterwards
/// (Algorithm 1 lines 14–15).
pub(crate) struct EvalCtx<'a> {
    pub(crate) index: &'a ObjectIndex,
    pub(crate) exact: &'a mut FastMap<ObjectId, Point>,
    /// The objects probed so far, in probe order: the part of `exact` the
    /// caller did not put there itself.
    pub(crate) probed: &'a mut Vec<ObjectId>,
    pub(crate) provider: &'a mut dyn LocationProvider,
    pub(crate) costs: &'a mut CostTracker,
    pub(crate) work: &'a mut WorkStats,
    /// Deferred probes scheduled by reachability-based decisions: the
    /// earliest future instants at which those decisions could be
    /// invalidated by the growing circle (see DESIGN.md — this makes §6.1
    /// sound). The engine moves these into its timer queue.
    pub(crate) deferred: &'a mut Vec<(ObjectId, f64)>,
    /// Working set of the order-sensitive kNN patch (§4.3).
    pub(crate) patch: &'a mut KnnPatch,
    /// `Some(max_speed)` when the reachability enhancement is enabled.
    pub(crate) max_speed: Option<f64>,
    /// Current time (for reachability radii).
    pub(crate) now: f64,
}

/// Read-only view of the engine state needed to bound object locations.
pub(crate) struct ReadCtx<'a> {
    pub(crate) index: &'a ObjectIndex,
    pub(crate) exact: &'a FastMap<ObjectId, Point>,
    pub(crate) max_speed: Option<f64>,
    pub(crate) now: f64,
}

impl ReadCtx<'_> {
    /// The location bound for an object whose stored rectangle is `sr`.
    pub(crate) fn bound(&self, id: ObjectId, sr: Rect) -> LocBound {
        if let Some(&p) = self.exact.get(&id) {
            return LocBound::Exact(p);
        }
        let reach = self.max_speed.and_then(|v| Some(self.reach(v, self.index.get(id)?)));
        LocBound::Region { sr, reach }
    }

    /// The location bound for an object, from its state alone: only movers
    /// are pinned, and they are exactly known, so the rectangle any other
    /// object has in the index is the safe region its state holds.
    pub(crate) fn bound_of(&self, id: ObjectId) -> Option<LocBound> {
        if let Some(&p) = self.exact.get(&id) {
            return Some(LocBound::Exact(p));
        }
        let st = self.index.get(id)?;
        let reach = self.max_speed.map(|v| self.reach(v, st));
        Some(LocBound::Region { sr: st.safe_region, reach })
    }

    /// The reachability circle (§6.1) of an object in state `st` at top
    /// speed `v`.
    fn reach(&self, v: f64, st: &ObjectState) -> Circle {
        Circle::new(st.p_lst, (v * (self.now - st.t_lst)).max(0.0))
    }

    /// `t_lst + slack(p_lst) / v`: when `id`, leaving the anchor of its
    /// last report at top speed, has used up the slack a decision left it
    /// — the instant that decision could stop holding. `None` with the
    /// enhancement off or for an unknown object.
    fn due_after(&self, id: ObjectId, slack: impl FnOnce(Point) -> f64) -> Option<f64> {
        let (v, st) = (self.max_speed?, self.index.get(id)?);
        Some(st.t_lst + slack(st.p_lst) / v)
    }

    /// The earliest time `id` could be at distance `threshold` from `q` —
    /// when a `Δ_ref(id) <= threshold` decision could stop holding.
    pub(crate) fn due_dist_threshold(&self, id: ObjectId, q: Point, threshold: f64) -> Option<f64> {
        self.due_after(id, |anchor| threshold - anchor.dist(q))
    }

    /// The earliest time `id` could be closer to `q` than `threshold` —
    /// when a `δ_ref(id) >= threshold` decision could stop holding.
    pub(crate) fn due_min_dist_threshold(
        &self,
        id: ObjectId,
        q: Point,
        threshold: f64,
    ) -> Option<f64> {
        self.due_after(id, |anchor| anchor.dist(q) - threshold)
    }
}

/// What one safe-region computation (§5) works with: shared state it only
/// reads — no region may probe, so none depends on the ones computed
/// before it — and two lists it hands back to the engine.
pub(crate) struct RegionCtx<'a> {
    pub(crate) read: &'a ReadCtx<'a>,
    /// The object whose region is being computed.
    pub(crate) requester: ObjectId,
    /// Out: `(requester, target)` — a neighbour whose exact location the
    /// computation needs. The region computed meanwhile is void and is
    /// computed again once the engine has probed the target.
    pub(crate) requests: &'a mut Vec<(ObjectId, ObjectId)>,
    /// Out: `(requester, target, due)` — deferred probes that keep the
    /// requester's reachability-based bounds sound.
    pub(crate) deferred: &'a mut Vec<(ObjectId, ObjectId, f64)>,
}

impl RegionCtx<'_> {
    /// Keeps a reachability-based decision about `id` sound: a deferred
    /// probe at `due` — or, when `due` is not in the future, an exact
    /// location now (a deferred probe would fire at this very instant, and
    /// two objects can schedule each other forever at a frozen timestamp).
    pub(crate) fn defer_until(&mut self, id: ObjectId, due: f64) {
        if due > self.read.now + 1e-9 {
            self.deferred.push((self.requester, id, due));
        } else {
            self.request_neighbor(id);
        }
    }

    /// Asks for the exact location of the neighbour `id`, whose stale safe
    /// region leaves no room.
    pub(crate) fn request_neighbor(&mut self, id: ObjectId) {
        self.requests.push((self.requester, id));
    }
}

impl EvalCtx<'_> {
    /// A read-only view sharing this context's state.
    pub(crate) fn as_read(&self) -> ReadCtx<'_> {
        ReadCtx { index: self.index, exact: self.exact, max_speed: self.max_speed, now: self.now }
    }

    /// The location bound for an object whose stored rectangle is `sr`.
    pub(crate) fn bound(&self, id: ObjectId, sr: Rect) -> LocBound {
        self.as_read().bound(id, sr)
    }

    /// The location bound for an object, looking its rectangle up in the
    /// index.
    pub(crate) fn bound_of(&self, id: ObjectId) -> Option<LocBound> {
        self.as_read().bound_of(id)
    }

    /// Issues a server-initiated probe (cost `c_p`) and records the result.
    pub(crate) fn probe(&mut self, id: ObjectId) -> Point {
        let p = self.provider.probe(id);
        self.costs.probes += 1;
        if self.exact.insert(id, p).is_none() {
            self.probed.push(id);
        }
        p
    }

    /// Keeps a reachability-based decision about `id` sound: a deferred
    /// probe at `due`, or a probe now when `due` is not in the future (its
    /// safe region is then recomputed at the end of the operation like any
    /// other probe target's).
    fn defer_until(&mut self, id: ObjectId, due: f64) {
        if due > self.now + 1e-9 {
            self.deferred.push((id, due));
            self.work.probes_avoided += 1;
        } else {
            let _ = self.probe(id);
        }
    }

    /// Schedules a deferred probe of `id` at the earliest time the object's
    /// reachability circle (anchored at its last report) could reach
    /// distance `threshold` from `q` — the instant a `Δ_ref(id) <= threshold`
    /// decision could stop holding.
    pub(crate) fn defer_dist_threshold(&mut self, id: ObjectId, q: Point, threshold: f64) {
        if let Some(due) = self.as_read().due_dist_threshold(id, q, threshold) {
            self.defer_until(id, due);
        }
    }

    /// Schedules a deferred probe of `id` at the earliest time its circle
    /// could travel `dist` from the anchor — used for rectangle constraints.
    pub(crate) fn defer_travel(&mut self, id: ObjectId, dist: f64) {
        if let Some(due) = self.as_read().due_after(id, |_| dist.max(0.0)) {
            self.defer_until(id, due);
        }
    }
}

// ---------------------------------------------------------------------
// Range queries (§4.1)
// ---------------------------------------------------------------------

/// Evaluates a new range query over safe regions, probing only objects whose
/// bound straddles the rectangle boundary.
pub(crate) fn evaluate_range(ctx: &mut EvalCtx<'_>, rect: &Rect) -> Vec<ObjectId> {
    ctx.work.evaluations += 1;
    let mut results = Vec::new();
    let candidates = ctx.index.search(rect);
    for entry in candidates {
        let oid = ObjectId(entry.id as u32);
        let bound = ctx.bound(oid, entry.rect);
        match bound {
            LocBound::Exact(p) => {
                if rect.contains_point(p) {
                    results.push(oid);
                }
            }
            LocBound::Region { sr, .. } if rect.contains_rect(&sr) => {
                // Unconditionally inside: the safe region itself keeps the
                // object in the rectangle.
                results.push(oid);
            }
            LocBound::Region { sr, .. } if !sr.intersects(rect) => {}
            LocBound::Region { sr, .. } => {
                // Ambiguous on the raw safe region. Try the reachability
                // circle (§6.1); decisions it makes are only valid until the
                // circle grows, so each one schedules a deferred probe.
                if bound.definitely_inside(rect) {
                    results.push(oid);
                    if let Some(anchor) = reach_anchor(&bound) {
                        let escape = sr.escape_dist(anchor, rect).unwrap_or(f64::INFINITY);
                        if escape.is_finite() {
                            ctx.defer_travel(oid, escape);
                        } else {
                            ctx.work.probes_avoided += 1;
                        }
                    }
                } else if bound.definitely_outside(rect) {
                    if let Some(anchor) = reach_anchor(&bound) {
                        let enter =
                            sr.intersection(rect).map_or(f64::INFINITY, |cap| cap.min_dist(anchor));
                        if enter.is_finite() {
                            ctx.defer_travel(oid, enter);
                        } else {
                            ctx.work.probes_avoided += 1;
                        }
                    }
                } else {
                    let p = ctx.probe(oid);
                    if rect.contains_point(p) {
                        results.push(oid);
                    }
                }
            }
        }
    }
    results
}

/// The reachability anchor (last reported location) of a region bound,
/// when the enhancement is active.
fn reach_anchor(bound: &LocBound) -> Option<Point> {
    match bound {
        LocBound::Region { reach: Some(c), .. } => Some(c.center),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// kNN queries (§4.2, Algorithm 2)
// ---------------------------------------------------------------------

/// Result of a kNN evaluation.
#[derive(Clone, Debug)]
pub(crate) struct KnnEval {
    /// The k nearest objects; distance-ordered for the order-sensitive
    /// variant.
    pub(crate) results: Vec<ObjectId>,
    /// Radius of the new quarantine area (midpoint between `Δ(q, o_k)` and
    /// `δ(q, o_{k+1})`).
    pub(crate) radius: f64,
}

/// A stream item: one object with its bound and sort key `key = δ(q, sr)` —
/// the *raw* safe-region distance. Pop order must use raw keys so that the
/// key of the next popped item lower-bounds the raw δ of everything still in
/// the stream (quarantine radii depend on that); equal keys pop in id order,
/// the order the browse yields them in. The bound itself may be
/// reachability-refined and is used for membership confirmations (§6.1).
struct Item {
    key: f64,
    oid: ObjectId,
    bound: LocBound,
}

impl Item {
    fn new(oid: ObjectId, bound: LocBound, q: Point) -> Self {
        Item { key: bound.raw_min_dist(q), oid, bound }
    }
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.total_cmp(&other.key).then(self.oid.cmp(&other.oid))
    }
}

/// Merges the index's best-first browser with probed exact points pushed
/// back into the frontier, yielding objects in ascending `(key, id)`.
struct Stream<'a> {
    browser: Peekable<NearestIter<'a>>,
    heap: BinaryHeap<Reverse<Item>>,
    q: Point,
}

impl<'a> Stream<'a> {
    fn new(index: &'a ObjectIndex, q: Point) -> Self {
        Stream { browser: index.nearest(q), heap: BinaryHeap::new(), q }
    }

    fn push(&mut self, item: Item) {
        self.heap.push(Reverse(item));
    }

    /// Next object by key, skipping `exclude`.
    fn next(&mut self, ctx: &EvalCtx<'_>, exclude: &[ObjectId]) -> Option<Item> {
        loop {
            // Pull from the browser until its next entry no longer comes
            // before the heap top.
            while let Some(&Neighbor { dist, id, .. }) = self.browser.peek() {
                let oid = ObjectId(id as u32);
                if self.heap.peek().is_some_and(|Reverse(t)| (t.key, t.oid) <= (dist, oid)) {
                    break;
                }
                let n = self.browser.next().expect("peeked");
                if !exclude.contains(&oid) {
                    let bound = ctx.bound(oid, n.rect);
                    self.heap.push(Reverse(Item::new(oid, bound, self.q)));
                }
            }
            let Reverse(item) = self.heap.pop()?;
            if exclude.contains(&item.oid) {
                continue;
            }
            return Some(item);
        }
    }
}

/// Radius used when no (k+1)-th object exists: extend the quarantine circle
/// to cover the whole monitored space, so nothing can invalidate the result.
fn open_radius(q: Point, space: &Rect, inner: f64) -> f64 {
    (space.max_dist(q) * 1.5).max(inner * 1.5 + 1e-9)
}

/// Evaluates a new **order-sensitive** kNN query (Algorithm 2).
pub(crate) fn evaluate_knn_ordered(
    ctx: &mut EvalCtx<'_>,
    q: Point,
    k: usize,
    space: &Rect,
    exclude: &[ObjectId],
) -> KnnEval {
    ctx.work.evaluations += 1;
    let mut stream = Stream::new(ctx.index, q);
    let mut held: Option<Item> = None;
    let mut results: Vec<Item> = Vec::with_capacity(k);
    let mut next_for_radius: Option<Item> = None;

    while results.len() < k {
        let Some(u) = stream.next(ctx, exclude) else { break };
        if let Some(p) = held.take() {
            let p_max_raw = p.bound.raw_max_dist(q);
            let p_max = p.bound.max_dist(q);
            if p_max <= u.key + 1e-12 {
                // p precedes everything still in the queue: emit it. When
                // only the reachability circle justified this (the raw safe
                // region overlaps), schedule the deferred probe that keeps
                // the decision sound over time.
                if p_max_raw > u.key + 1e-12 {
                    ctx.defer_dist_threshold(p.oid, q, u.key);
                }
                results.push(p);
                if results.len() == k {
                    next_for_radius = Some(u);
                    break;
                }
            } else {
                // Ambiguous — probe the held object (lazy probe) and replay
                // both (Algorithm 2 lines 9-13). Exact bounds never reach
                // this branch: an exact held object is emitted immediately.
                debug_assert!(!p.bound.is_exact());
                ctx.work.probes_knn_eval += 1;
                let pt = ctx.probe(p.oid);
                stream.push(Item::new(p.oid, LocBound::Exact(pt), q));
                stream.push(u);
                continue;
            }
        }
        if u.bound.is_exact() {
            results.push(u);
        } else {
            held = Some(u);
        }
    }
    // Queue exhausted with an object still held: nothing can beat it.
    if results.len() < k {
        if let Some(p) = held.take() {
            results.push(p);
        }
    }

    let next = match next_for_radius {
        Some(n) => Some(n),
        None => stream.next(ctx, exclude),
    };
    let radius = sound_radius(ctx, q, &mut results, next, &mut stream, exclude, space);
    KnnEval { results: results.into_iter().map(|i| i.oid).collect(), radius }
}

/// Computes a quarantine radius that is valid until the next relevant
/// update: at least the raw `Δ(q, o.sr)` of every result, at most the raw
/// `δ(q, o.sr)` of every non-result. When reachability-refined
/// confirmations leave those raw ranges overlapping, the separation is
/// restored by probing (each probed object's safe region is recomputed by
/// the server afterwards, shrinking it to an exact point here).
fn sound_radius(
    ctx: &mut EvalCtx<'_>,
    q: Point,
    results: &mut [Item],
    mut next: Option<Item>,
    stream: &mut Stream<'_>,
    exclude: &[ObjectId],
    space: &Rect,
) -> f64 {
    loop {
        // Refined upper bound of the results (valid now); raw keys of the
        // stream lower-bound the raw δ of every remaining non-result, which
        // is what the quarantine radius must not exceed.
        let lo_ref = results.iter().map(|r| r.bound.max_dist(q)).fold(0.0f64, f64::max);
        let Some(n) = next.take() else {
            let lo_raw = results.iter().map(|r| r.bound.raw_max_dist(q)).fold(0.0f64, f64::max);
            return open_radius(q, space, lo_raw);
        };
        if lo_ref <= n.key + 1e-12 {
            let radius = (lo_ref + n.key.max(lo_ref)) * 0.5;
            // Results whose raw safe region pokes beyond the radius could
            // exit the quarantine circle undetected once their reachability
            // circle grows: schedule the deferred probes that prevent it.
            for r in results.iter() {
                if r.bound.raw_max_dist(q) > radius + 1e-12 && !r.bound.is_exact() {
                    ctx.defer_dist_threshold(r.oid, q, radius);
                }
            }
            return radius;
        }
        // Refined bounds cannot separate (possible when an enhancement is
        // off or circles have grown): probe the widest result.
        if let Some(r) = results
            .iter_mut()
            .filter(|r| !r.bound.is_exact() && r.bound.max_dist(q) > n.key)
            .max_by(|a, b| a.bound.max_dist(q).total_cmp(&b.bound.max_dist(q)))
        {
            ctx.work.probes_radius += 1;
            let pt = ctx.probe(r.oid);
            *r = Item::new(r.oid, LocBound::Exact(pt), q);
            next = Some(n);
        } else if !n.bound.is_exact() {
            ctx.work.probes_radius += 1;
            let pt = ctx.probe(n.oid);
            let fresh = Item::new(n.oid, LocBound::Exact(pt), q);
            // The probed next may now rank behind another candidate.
            stream.push(fresh);
            next = stream.next(ctx, exclude);
        } else {
            return (lo_ref + n.key.max(lo_ref)) * 0.5;
        }
    }
}

/// Evaluates a new **order-insensitive** kNN query: same browsing, but up to
/// `k` objects may be held simultaneously, so fewer probes are needed
/// (§4.2, last paragraph).
pub(crate) fn evaluate_knn_unordered(
    ctx: &mut EvalCtx<'_>,
    q: Point,
    k: usize,
    space: &Rect,
    exclude: &[ObjectId],
) -> KnnEval {
    ctx.work.evaluations += 1;
    let mut stream = Stream::new(ctx.index, q);
    let mut held: Vec<Item> = Vec::new();
    let mut results: Vec<Item> = Vec::with_capacity(k);
    let mut next_for_radius: Option<Item> = None;

    while results.len() < k {
        let Some(u) = stream.next(ctx, exclude) else { break };
        // Confirm any held object that everything remaining cannot beat.
        let mut i = 0;
        while i < held.len() {
            if held[i].bound.max_dist(q) <= u.key + 1e-12 {
                if held[i].bound.raw_max_dist(q) > u.key + 1e-12 {
                    ctx.defer_dist_threshold(held[i].oid, q, u.key);
                }
                results.push(held.remove(i));
            } else {
                i += 1;
            }
        }
        if results.len() >= k {
            next_for_radius = Some(u);
            break;
        }
        if results.len() + held.len() < k {
            held.push(u);
            continue;
        }
        // Capacity reached: resolve the most uncertain candidate.
        let worst = held
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.bound.is_exact())
            .max_by(|a, b| a.1.bound.max_dist(q).total_cmp(&b.1.bound.max_dist(q)))
            .map(|(i, _)| i);
        match worst {
            Some(i) if held[i].bound.max_dist(q) > u.key => {
                let p = held.remove(i);
                ctx.work.probes_knn_eval += 1;
                let pt = ctx.probe(p.oid);
                stream.push(Item::new(p.oid, LocBound::Exact(pt), q));
                stream.push(u);
            }
            _ => {
                if u.bound.is_exact() {
                    // All held are exact (or closer): keys are true distances,
                    // so everything held is confirmed ahead of u.
                    results.append(&mut held);
                    next_for_radius = Some(u);
                    break;
                }
                ctx.work.probes_knn_eval += 1;
                let pt = ctx.probe(u.oid);
                stream.push(Item::new(u.oid, LocBound::Exact(pt), q));
            }
        }
    }
    if results.len() < k {
        // Stream exhausted: all held objects are results.
        held.sort_by(|a, b| a.key.total_cmp(&b.key));
        for h in held.drain(..) {
            if results.len() < k {
                results.push(h);
            }
        }
    }

    let next = match next_for_radius {
        Some(n) => Some(n),
        None => stream.next(ctx, exclude),
    };
    let radius = sound_radius(ctx, q, &mut results, next, &mut stream, exclude, space);
    KnnEval { results: results.into_iter().map(|i| i.oid).collect(), radius }
}
