//! Incremental reevaluation of affected queries upon source-initiated
//! location updates (paper §4.3), for the *set* of movers one batch sends a
//! query — a single report is a set of one.
//!
//! Range queries flip each mover's membership directly. Order-insensitive
//! kNN queries are re-run as new queries when some mover crossed the
//! quarantine circle (the paper's rule — without a strict order there is no
//! sequence to patch). An order-sensitive kNN query is patched:
//!
//! 1. each mover is classified against the current quarantine circle — a
//!    result now outside is a *leaver*, a result still inside a *stayer*, a
//!    non-result now inside an *enterer*; a mover outside at both ends does
//!    not affect the query (§3.3) and is dropped;
//! 2. the non-moving results are the base sequence (a subsequence of an
//!    interleaved sequence is interleaved);
//! 3. stayers and enterers are merged into it in ascending `(distance,
//!    id)` — the canonical order that makes the outcome a function of the
//!    mover *set*, whatever order the reports arrived in. A mover at
//!    distance `d` passes `o_j` when `d ≥ Δ_j`, stops before it when
//!    `d ≤ δ_j`, and otherwise costs the one probe of `o_j`; since
//!    `Δ_j ≤ δ_{j+1}` it never needs a second, so §4.3's bound of **at most
//!    one probe per mover** holds;
//! 4. more than `k` in the sequence: it is cut to `k` and the radius becomes
//!    the midpoint of the kept `Δ`s and the first dropped `δ` (case 2).
//!    Fewer than before: one evaluation that excludes the sequence refills
//!    the missing ranks (case 1). Otherwise the radius stands (case 3).
//!
//! The cases rely on result distances being interleaved (`δ(o_1) ≤ Δ(o_1) ≤
//! δ(o_2) ≤ …`) and on every mover's previous anchor lying on its side of
//! the circle. Floating-point edge cases and teleporting clients can break
//! either; both are verified, and a query that fails is reevaluated from
//! scratch (counted in
//! [`WorkStats::ordering_fallbacks`](crate::provider::WorkStats)).

use crate::eval::{evaluate_knn_ordered, evaluate_knn_unordered, EvalCtx};
use crate::ids::ObjectId;
use crate::query::{Quarantine, QuerySpec, QueryState};
use crate::scratch::KnnPatch;
use srb_geom::{Circle, Point, Rect};
use srb_hash::FastMap;
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

const UNTOUCHED: Reeval = Reeval { results_changed: false, quarantine_changed: false };

/// Reevaluates `qs` after `movers` — listed once each, in any order —
/// reported new positions. Every mover's position must already be recorded
/// in `ctx.exact` and pinned in the view, its previous anchor in `prev`.
pub(crate) fn reevaluate<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    movers: &[ObjectId],
    prev: &FastMap<ObjectId, Point>,
    space: &Rect,
) -> Reeval {
    let (center, k, order_sensitive) = match qs.spec {
        QuerySpec::Range { rect } => {
            let mut results_changed = false;
            for &m in movers {
                let (inside, was_result) = (rect.contains_point(ctx.exact[&m]), qs.is_result(m));
                match (inside, was_result) {
                    (true, false) => qs.results.push(m),
                    (false, true) => qs.results.retain(|&o| o != m),
                    _ => continue,
                }
                results_changed = true;
            }
            return Reeval { results_changed, quarantine_changed: false };
        }
        QuerySpec::Knn { center, k, order_sensitive } => (center, k, order_sensitive),
    };
    let Quarantine::Circle(c) = qs.quarantine else {
        unreachable!("kNN query with rectangular quarantine")
    };
    // `affecting`: the movers the query cannot ignore (§3.3).
    let (affecting, patched) = if order_sensitive {
        let mut patch = std::mem::take(ctx.patch);
        let outcome = patch_ordered(ctx, qs, movers, prev, (c, k), space, &mut patch);
        *ctx.patch = patch;
        outcome
    } else {
        let crossed = |m: &&ObjectId| c.contains(ctx.exact[*m]) != c.contains(prev[*m]);
        let crossed = movers.iter().filter(crossed).count();
        (crossed, (crossed == 0).then_some(UNTOUCHED))
    };
    srb_obs::histogram!("processor.reeval.movers").record(affecting as u64);
    let Some(outcome) = patched else {
        srb_obs::counter!("processor.reeval.scratch").inc();
        if order_sensitive {
            // Not the paper's rule: a check failed.
            ctx.work.ordering_fallbacks += 1;
        }
        return rerun_knn(ctx, qs, center, k, order_sensitive, space);
    };
    if affecting == 0 {
        srb_obs::counter!("processor.reeval.untouched").inc();
    } else {
        srb_obs::counter!("processor.reeval.incremental").inc();
    }
    outcome
}

/// Patches an order-sensitive kNN query with circle `c` for the movers of
/// one batch (the module docs have the steps). Returns how many movers
/// affect the query and the outcome — `None` when the query has to be
/// evaluated from scratch: a mover's previous anchor contradicts its
/// membership, or the base sequence is not interleaved.
fn patch_ordered<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    movers: &[ObjectId],
    prev: &FastMap<ObjectId, Point>,
    (c, k): (Circle, usize),
    space: &Rect,
    KnnPatch { seq, bounds, mergers }: &mut KnnPatch,
) -> (usize, Option<Reeval>) {
    seq.clear();
    seq.extend_from_slice(&qs.results);
    mergers.clear();
    let (mut affecting, mut consistent) = (0, true);
    for &m in movers {
        let pos = ctx.exact[&m];
        let (inside, was_inside, was_result) =
            (c.contains(pos), c.contains(prev[&m]), qs.is_result(m));
        if !inside && !was_inside {
            continue;
        }
        affecting += 1;
        // Results are anchored inside the circle, everything else outside.
        consistent &= was_result == was_inside;
        if was_result {
            seq.retain(|&o| o != m);
        }
        if inside {
            mergers.push((pos.dist(c.center), m));
        }
    }
    if !consistent {
        srb_obs::counter!("processor.reeval.scratch.anchor").inc();
        return (affecting, None);
    }
    if affecting == 0 {
        return (0, Some(UNTOUCHED));
    }

    if !mergers.is_empty() {
        if !collect_ordered_bounds(ctx, seq, c.center, bounds) {
            srb_obs::counter!("processor.reeval.scratch.interleaving").inc();
            return (affecting, None);
        }
        mergers.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    for &(d, m) in mergers.iter() {
        let mut idx = seq.len();
        for j in 0..seq.len() {
            let (lo, hi) = bounds[j];
            if d >= hi - EPS {
                continue; // m is farther than o_j for sure
            }
            if d > lo + EPS {
                // Ambiguous against o_j: probe it (the one probe of §4.3).
                // Its bound is exact from here on, for later movers too.
                ctx.work.probes_reeval += 1;
                let dj = ctx.probe(seq[j]).dist(c.center);
                bounds[j] = (dj, dj);
                idx = if d >= dj { j + 1 } else { j };
            } else {
                idx = j; // m precedes o_j for sure
            }
            break;
        }
        seq.insert(idx, m);
        bounds.insert(idx, (d, d));
    }

    let mut radius = c.radius;
    if seq.len() > k {
        // Case 2: the ranks past k drop out (a mover that entered behind
        // every result among them — the results stand and the circle shrinks
        // below it); the new radius separates the kept Δs from the first
        // dropped δ.
        let inner = bounds[..k].iter().map(|b| b.1).fold(0.0f64, f64::max);
        radius = ((inner + bounds[k].0.max(inner)) * 0.5).min(radius);
        seq.truncate(k);
    } else if seq.len() < qs.results.len() {
        // Case 1: more left than entered. A leaver may be re-elected (it
        // left the circle but nothing else is closer) — no visible change.
        let refill = evaluate_knn_ordered(ctx, c.center, k - seq.len(), space, seq);
        seq.extend(refill.results);
        radius = refill.radius;
    }
    let results_changed = *seq != qs.results;
    if results_changed {
        qs.results.clear();
        qs.results.extend_from_slice(seq);
    }
    qs.quarantine = Quarantine::Circle(Circle::new(c.center, radius));
    (affecting, Some(Reeval { results_changed, quarantine_changed: radius != c.radius }))
}

/// Evaluates a kNN query from scratch and installs the fresh results and
/// quarantine circle.
pub(crate) fn rerun_knn<B: SpatialBackend>(
    ctx: &mut EvalCtx<'_, B>,
    qs: &mut QueryState,
    center: Point,
    k: usize,
    order_sensitive: bool,
    space: &Rect,
) -> Reeval {
    let old_quarantine = qs.quarantine;
    let (eval, results_changed) = if order_sensitive {
        let eval = evaluate_knn_ordered(ctx, center, k, space, &[]);
        let changed = eval.results != qs.results;
        (eval, changed)
    } else {
        let eval = evaluate_knn_unordered(ctx, center, k, space, &[]);
        // As sets; neither list repeats an object.
        let changed = eval.results.len() != qs.results.len()
            || eval.results.iter().any(|&o| !qs.is_result(o));
        (eval, changed)
    };
    qs.results = eval.results;
    qs.quarantine = Quarantine::Circle(Circle::new(center, eval.radius));
    Reeval { results_changed, quarantine_changed: qs.quarantine != old_quarantine }
}

/// Collects the `(δ, Δ)` bounds of `seq` into `out` and verifies the §4.3
/// interleaving invariant `δ_1 ≤ Δ_1 ≤ δ_2 ≤ Δ_2 ≤ …`. Returns `false` when
/// an object is missing or the invariant is broken.
fn collect_ordered_bounds<B: SpatialBackend>(
    ctx: &EvalCtx<'_, B>,
    seq: &[ObjectId],
    center: Point,
    out: &mut Vec<(f64, f64)>,
) -> bool {
    out.clear();
    let mut prev_max = 0.0f64;
    for &o in seq {
        let Some(b) = ctx.bound_of(o) else { return false };
        let (lo, hi) = (b.raw_min_dist(center), b.raw_max_dist(center));
        if lo + EPS < prev_max {
            return false;
        }
        prev_max = hi;
        out.push((lo, hi));
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::config::ServerConfig;
    use crate::ids::{ObjectId, QueryId};
    use crate::provider::{FnProvider, WorkStats};
    use crate::query::{Quarantine, QuerySpec};
    use crate::sharded::{SequencedUpdate, ShardedServer};
    use srb_geom::Point;

    const CENTER: Point = Point { x: 0.5, y: 0.5 };

    /// One order-sensitive kNN query at [`CENTER`] over objects that move
    /// only by reporting, so the reported positions are the true ones.
    struct World {
        server: ShardedServer,
        at: Vec<Point>,
        seq: Vec<u64>,
        q: QueryId,
        k: usize,
    }

    /// The point at distance `d` from [`CENTER`], `i` steps of 0.9 rad
    /// around it — a direction of its own for every object.
    fn ray(i: usize, d: f64) -> Point {
        let a = 0.3 + 0.9 * i as f64;
        Point::new(CENTER.x + d * a.cos(), CENTER.y + d * a.sin())
    }

    impl World {
        /// Object `i` at distance `dists[i]`; every object has reported once
        /// since the query was registered, so each holds a region granted
        /// against it.
        fn new(dists: &[f64], k: usize) -> World {
            let at: Vec<Point> = dists.iter().enumerate().map(|(i, &d)| ray(i, d)).collect();
            let mut server = ShardedServer::new(ServerConfig::default(), 1);
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            for (i, &p) in at.iter().enumerate() {
                server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
            }
            let q = server.register_query(QuerySpec::knn(CENTER, k), &mut provider, 0.0).id;
            let mut world = World { server, seq: vec![0; at.len()], at, q, k };
            let everyone: Vec<(usize, f64)> = dists.iter().copied().enumerate().collect();
            world.report(&everyone);
            world
        }

        /// One batch: object `i` reports from distance `d` on its ray, for
        /// every `(i, d)`; see [`report_at`](Self::report_at).
        fn report(&mut self, moves: &[(usize, f64)]) -> WorkStats {
            let moves: Vec<(usize, Point)> = moves.iter().map(|&(i, d)| (i, ray(i, d))).collect();
            self.report_at(&moves)
        }

        /// One batch: object `i` reports from `p`, for every `(i, p)`.
        /// Returns the work the batch did, after holding the result to
        /// brute force (ties by id), the radius to the regions, and the
        /// probes to their causes.
        fn report_at(&mut self, moves: &[(usize, Point)]) -> WorkStats {
            let (costs, work) = (self.server.costs(), self.server.work());
            let batch: Vec<SequencedUpdate> = moves
                .iter()
                .map(|&(i, p)| {
                    (self.at[i], self.seq[i]) = (p, self.seq[i] + 1);
                    SequencedUpdate { id: ObjectId(i as u32), pos: p, seq: self.seq[i] }
                })
                .collect();
            let at = self.at.clone();
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            self.server.handle_sequenced_updates_into(&batch, &mut provider, 1.0, &mut Vec::new());
            self.server.check_invariants_deep();

            let mut want: Vec<ObjectId> = (0..self.at.len() as u32).map(ObjectId).collect();
            want.sort_by(|a, b| {
                self.at[a.index()].dist(CENTER).total_cmp(&self.at[b.index()].dist(CENTER))
            });
            want.truncate(self.k);
            assert_eq!(self.results(), want, "brute force");
            let radius = self.radius();
            for i in 0..self.at.len() as u32 {
                let sr = self.server.safe_region(ObjectId(i)).expect("registered");
                if want.contains(&ObjectId(i)) {
                    assert!(sr.max_dist(CENTER) <= radius + 1e-9, "result {i} pokes out");
                } else {
                    assert!(sr.min_dist(CENTER) >= radius - 1e-9, "non-result {i} pokes in");
                }
            }
            let now = self.server.work();
            let did = WorkStats {
                evaluations: now.evaluations - work.evaluations,
                ordering_fallbacks: now.ordering_fallbacks - work.ordering_fallbacks,
                probes_reeval: now.probes_reeval - work.probes_reeval,
                probes_knn_eval: now.probes_knn_eval - work.probes_knn_eval,
                probes_radius: now.probes_radius - work.probes_radius,
                probes_neighbor: now.probes_neighbor - work.probes_neighbor,
                ..WorkStats::default()
            };
            assert_eq!(
                self.server.costs().probes - costs.probes,
                did.probes_reeval + did.probes_knn_eval + did.probes_radius + did.probes_neighbor,
                "every probe has a cause"
            );
            assert!(did.probes_reeval <= moves.len() as u64, "at most one probe per mover");
            assert_eq!(did.ordering_fallbacks, 0, "no check failed");
            did
        }

        fn results(&self) -> Vec<ObjectId> {
            self.server.results(self.q).expect("registered").to_vec()
        }

        fn radius(&self) -> f64 {
            match self.server.quarantine(self.q).expect("registered") {
                Quarantine::Circle(c) => c.radius,
                Quarantine::Rect(_) => unreachable!("a kNN query"),
            }
        }

        /// `(δ, Δ)` of object `i`'s safe region.
        fn bounds(&self, i: u32) -> (f64, f64) {
            let sr = self.server.safe_region(ObjectId(i)).expect("registered");
            (sr.min_dist(CENTER), sr.max_dist(CENTER))
        }
    }

    const DISTS: [f64; 6] = [0.05, 0.09, 0.13, 0.20, 0.26, 0.33];
    fn ids(list: &[u32]) -> Vec<ObjectId> {
        list.iter().copied().map(ObjectId).collect()
    }

    #[test]
    fn leaver_and_enterer_swap_places_at_rank_k() {
        let mut w = World::new(&DISTS, 3);
        let radius = w.radius();
        let did = w.report(&[(2, 0.22), (3, 0.12)]);
        assert_eq!(w.results(), ids(&[0, 1, 3]));
        assert_eq!((did.evaluations, did.probes_reeval), (0, 0), "nothing to refill or probe");
        assert_eq!(w.radius(), radius, "as many entered as left: the circle stands");
    }

    #[test]
    fn two_stayers_exchange_order() {
        let mut w = World::new(&DISTS, 3);
        let radius = w.radius();
        let did = w.report(&[(0, 0.095), (1, 0.045)]);
        assert_eq!(w.results(), ids(&[1, 0, 2]));
        assert_eq!((did.evaluations, did.probes_reeval), (0, 0));
        assert_eq!(w.radius(), radius);
    }

    #[test]
    fn an_enterer_behind_every_result_shrinks_the_circle_below_itself() {
        let mut w = World::new(&DISTS, 3);
        let (radius, (_, kth_max)) = (w.radius(), w.bounds(2));
        let d = (kth_max + radius) * 0.5;
        let did = w.report(&[(3, d)]);
        assert_eq!(w.results(), ids(&[0, 1, 2]));
        assert_eq!((did.evaluations, did.probes_reeval), (0, 0));
        assert!(kth_max <= w.radius() && w.radius() < d, "{kth_max} <= {} < {d}", w.radius());
    }

    #[test]
    fn two_leavers_and_one_enterer_refill_one_rank() {
        let mut w = World::new(&DISTS, 3);
        let did = w.report(&[(1, 0.40), (2, 0.41), (3, 0.07)]);
        assert_eq!(w.results(), ids(&[0, 3, 4]));
        assert_eq!((did.evaluations, did.probes_reeval), (1, 0), "one evaluation, for one rank");
    }

    #[test]
    fn an_ambiguous_neighbour_is_probed_once_for_all_movers() {
        let mut w = World::new(&DISTS, 3);
        let (lo, hi) = w.bounds(1);
        assert!(hi - lo > 1e-3, "object 1 holds a region to be ambiguous against");
        // A stayer and an enterer both land inside object 1's [δ, Δ]: the
        // first costs its probe, which settles the second as well.
        let (near, far) = (lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.75);
        let did = w.report(&[(3, far), (0, near)]);
        assert_eq!(did.probes_reeval, 1, "the probed neighbour is exact for the next mover");
        assert_eq!(did.evaluations, 0);
        assert_eq!(w.results().len(), 3);
    }

    #[test]
    fn equidistant_movers_rank_by_id_whatever_the_arrival_order() {
        // Mirror images about the centre, at offsets that are exact in
        // binary: the same distance to the last bit.
        let (east, west) = (Point::new(0.625, 0.5), Point::new(0.375, 0.5));
        assert_eq!(east.dist(CENTER), west.dist(CENTER));
        for arrival in [[(3, east), (2, west)], [(2, west), (3, east)]] {
            let mut w = World::new(&DISTS, 3);
            let did = w.report_at(&arrival);
            assert_eq!(w.results(), ids(&[0, 1, 2]), "a stayer and an enterer tie: 2 before 3");
            assert_eq!(did.evaluations, 0);
        }
    }

    /// A report is a set of one: a recorded run of one-report batches over
    /// mixed queries reads the probes, results and radii it read when a
    /// single mover had a reevaluation body of its own (that commit printed
    /// the pinned values from this very test). The values were re-pinned
    /// once since, when the θ-search became a scan plus a golden-section
    /// bracket: the reevaluation code did not change, the safe regions it
    /// is fed did (one probe fewer, 440 → 439; the §4.3 probes and the
    /// evaluations read 138 and 229 before and after).
    #[test]
    fn a_set_of_one_is_the_single_mover_reevaluation() {
        let unit = |i: u64, salt: u64| {
            let mut z = (i ^ (salt << 32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        const N: u64 = 60;
        let mut at: Vec<Point> =
            (0..N).map(|i| Point::new(0.3 + 0.4 * unit(i, 1), 0.3 + 0.4 * unit(i, 2))).collect();
        let mut server = ShardedServer::new(ServerConfig::default(), 1);
        let mut queries = Vec::new();
        {
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            for (i, &p) in at.iter().enumerate() {
                server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
            }
            for q in 0..8u64 {
                let c = Point::new(0.35 + 0.3 * unit(q, 3), 0.35 + 0.3 * unit(q, 4));
                let spec = match q % 4 {
                    3 => QuerySpec::knn_unordered(c, 3),
                    _ => QuerySpec::knn(c, 1 + (q % 5) as usize),
                };
                queries.push(server.register_query(spec, &mut provider, 0.0).id);
            }
        }
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        for step in 0..1500u64 {
            let i = (unit(step, 5) * N as f64) as usize;
            let p = at[i];
            at[i] = Point::new(
                (p.x + 0.06 * (unit(step, 6) - 0.5)).clamp(0.0, 1.0),
                (p.y + 0.06 * (unit(step, 7) - 0.5)).clamp(0.0, 1.0),
            );
            let report = SequencedUpdate { id: ObjectId(i as u32), pos: at[i], seq: step + 1 };
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            let now = 0.01 * (step + 1) as f64;
            server.handle_sequenced_updates_into(&[report], &mut provider, now, &mut Vec::new());
            fold(server.costs().probes);
            for &q in &queries {
                let Some(Quarantine::Circle(c)) = server.quarantine(q) else { unreachable!() };
                fold(c.radius.to_bits());
                server.results(q).expect("registered").iter().for_each(|o| fold(o.0 as u64));
            }
        }
        let work = server.work();
        assert_eq!((work.probes_reeval, work.evaluations), (138, 229), "both kinds of case ran");
        assert_eq!((server.costs().probes, digest), (439, 0x37CE_E514_A692_5AE2), "{work:?}");
    }
}
