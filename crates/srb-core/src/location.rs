//! The location manager layer (paper §3.1, Figure 3.1 box "location
//! manager").
//!
//! Owns safe-region computation (§5), safe-region leases, and the deferred
//! probe queue that keeps the reachability enhancement (§6.1) sound over
//! time. The manager mutates the [`ObjectIndex`] when it installs fresh
//! regions and reads the [`QueryProcessor`] for the constraints, but owns
//! neither — the `Server` façade wires the layers together per operation.

use crate::config::ServerConfig;
use crate::eval::EvalCtx;
use crate::ids::ObjectId;
use crate::index::ObjectIndex;
use crate::object::ObjectTable;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, WorkStats};
use crate::safe_region::compute_safe_region;
use crate::scratch::OpBuffers;
use srb_geom::{Point, Rect};
use srb_hash::FastMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why a deferred timer entry exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeferKind {
    /// Reachability-circle slack expiry (§6.1 soundness restoration).
    Slack,
    /// Safe-region lease expiry: the object has not been heard from for a
    /// full lease period — probe it in case its exit report was lost.
    Lease,
}

/// A scheduled deferred probe (see DESIGN.md): `epoch` is the object's
/// last-report timestamp at scheduling time — the entry is stale (and
/// silently dropped) if the object has reported or been probed since.
/// Lease renewals ride the same staleness rule: any contact bumps `t_lst`,
/// invalidating the old lease entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deferred {
    pub due: f64,
    pub oid: ObjectId,
    pub epoch: f64,
    pub kind: DeferKind,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.total_cmp(&other.due)
    }
}

/// The location manager: safe-region computation, leases, and the deferred
/// probe queue.
#[derive(Default)]
pub struct LocationManager {
    deferred: BinaryHeap<Reverse<Deferred>>,
}

impl LocationManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves evaluation-time deferral requests into the timer queue.
    /// Requests for objects that ended up exactly known in this operation
    /// are dropped — their safe regions were just recomputed.
    pub(crate) fn absorb_deferred(
        &mut self,
        scratch: &mut Vec<(ObjectId, f64)>,
        exact: &FastMap<ObjectId, Point>,
        objects: &ObjectTable,
    ) {
        for (oid, due) in scratch.drain(..) {
            if !exact.contains_key(&oid) {
                self.defer(oid, due, objects);
            }
        }
    }

    /// Schedules one reachability-slack probe of `oid` (an object of
    /// `objects`; unknown ids are ignored) at `due`.
    pub(crate) fn defer(&mut self, oid: ObjectId, due: f64, objects: &ObjectTable) {
        let Some(st) = objects.get(oid) else { return };
        self.deferred.push(Reverse(Deferred { due, oid, epoch: st.t_lst, kind: DeferKind::Slack }));
    }

    /// Schedules the lease-expiry probe of the region just granted to `oid`
    /// at `now`, when leases are enabled. Renewal-on-contact is implicit:
    /// the entry's epoch is the fresh `t_lst`, so any later contact (which
    /// bumps `t_lst`) invalidates it via the staleness rule.
    pub(crate) fn start_lease(&mut self, lease: Option<f64>, oid: ObjectId, now: f64) {
        if let Some(lease) = lease.filter(|&l| l > 0.0) {
            self.deferred.push(Reverse(Deferred {
                due: now + lease,
                oid,
                epoch: now,
                kind: DeferKind::Lease,
            }));
        }
    }

    /// The earliest pending deferred-probe time, if any. Stale entries are
    /// discarded lazily.
    pub(crate) fn next_due(&mut self, objects: &ObjectTable) -> Option<f64> {
        while let Some(Reverse(d)) = self.deferred.peek() {
            let fresh = objects.get(d.oid).map(|st| st.t_lst == d.epoch).unwrap_or(false);
            if fresh {
                return Some(d.due);
            }
            self.deferred.pop();
        }
        None
    }

    /// Pops the next fresh entry due at or before `now`, if any.
    pub(crate) fn pop_due(&mut self, objects: &ObjectTable, now: f64) -> Option<Deferred> {
        let due = self.next_due(objects)?;
        if due > now + 1e-12 {
            return None;
        }
        self.deferred.pop().map(|Reverse(d)| d)
    }

    /// Serializes the deferred-probe queue for a durability checkpoint.
    /// Entries are written in the heap's internal array order; rebuilding
    /// a `BinaryHeap` from an array that already satisfies the heap
    /// property moves nothing, so the decoded queue pops in exactly the
    /// original order (ties included) — a requirement for bit-identical
    /// recovery.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        put_usize(out, self.deferred.len());
        for Reverse(d) in self.deferred.iter() {
            put_f64(out, d.due);
            put_u32(out, d.oid.0);
            put_f64(out, d.epoch);
            put_u8(
                out,
                match d.kind {
                    DeferKind::Slack => 0,
                    DeferKind::Lease => 1,
                },
            );
        }
    }

    /// Rebuilds a manager serialized by
    /// [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, srb_durable::DurableError> {
        use srb_durable::DurableError;
        let n = dec.len(21)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let due = dec.f64()?;
            let oid = ObjectId(dec.u32()?);
            let epoch = dec.f64()?;
            let kind = match dec.u8()? {
                0 => DeferKind::Slack,
                1 => DeferKind::Lease,
                _ => return Err(DurableError::Corrupt("bad defer kind")),
            };
            if due.is_nan() || epoch.is_nan() {
                return Err(DurableError::Corrupt("NaN deferred timestamp"));
            }
            entries.push(Reverse(Deferred { due, oid, epoch, kind }));
        }
        Ok(LocationManager { deferred: BinaryHeap::from(entries) })
    }

    /// Recomputes and installs safe regions for every exactly-known object
    /// of the current server operation (Algorithm 1, lines 14-15), and
    /// schedules a lease-expiry probe per region when leases are enabled.
    /// Appends the new regions to `op.recomputed` (a reused scratch buffer
    /// the caller clears beforehand, so steady-state batches allocate
    /// nothing here).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recompute_safe_regions<B: srb_index::SpatialBackend>(
        &mut self,
        config: &ServerConfig,
        index: &mut ObjectIndex<B>,
        processor: &QueryProcessor,
        costs: &mut CostTracker,
        work: &mut WorkStats,
        op: &mut OpBuffers,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) {
        let _span = srb_obs::span!("location.recompute_safe_regions");
        let OpBuffers { exact, deferred: scratch, recomputed: out, worklist, range_blocks, .. } =
            op;
        debug_assert!(out.is_empty(), "caller clears the recompute buffer");
        // Worklist in deterministic (id) order. Recomputing one object's
        // ring can probe a conflicting neighbor (see
        // `safe_region::neighbor_bound`), which inserts it into `exact` —
        // the worklist merges it in and the loop runs until fixpoint.
        // Objects already recomputed leave the invalid set, so later ring
        // bounds use their fresh safe regions.
        worklist.refill(exact, out);
        while let Some(oid) = worklist.pop() {
            #[cfg(test)]
            assert_eq!(tests::reference_next(exact, out), Some(oid), "worklist order diverged");
            let pos = exact.remove(&oid).expect("worklist ids are in the map");
            let known = exact.len();
            let p_lst = index.get(oid).map(|s| s.p_lst).unwrap_or(pos);
            let sr = {
                let mut ctx = EvalCtx {
                    view: &*index,
                    exact,
                    provider,
                    costs,
                    work,
                    deferred: scratch,
                    max_speed: config.max_speed,
                    now,
                };
                compute_safe_region(
                    &mut ctx,
                    processor.grid(),
                    processor.slots(),
                    oid,
                    pos,
                    p_lst,
                    config.steadiness,
                    range_blocks,
                )
            };
            work.safe_regions += 1;
            index.install_region(oid, pos, sr, now);
            self.start_lease(config.lease, oid, now);
            out.push((oid, sr));
            // Nothing removes keys during a computation, so a longer map
            // means a neighbor probe added some.
            if exact.len() > known {
                srb_obs::counter!("location.worklist_rescans").inc();
                worklist.refill(exact, out);
            }
        }
        #[cfg(test)]
        assert_eq!(tests::reference_next(exact, out), None, "worklist stopped early");
        srb_obs::histogram!("location.recompute_regions").record(out.len() as u64);
    }
}

/// The ids `recompute_safe_regions` still has to visit: always the keys of
/// `exact` that are not yet in `recomputed`, smallest first. One sort per
/// call and popping is O(1); only a neighbor probe (rare — it costs a
/// round trip to a client) pays for a rescan of the map. A re-probed,
/// already-recomputed object stays in `exact` (later ring bounds must see
/// it as invalid) but never re-enters the worklist, so the loop terminates.
#[derive(Default)]
pub(crate) struct Worklist {
    /// Descending, so the smallest id pops off the end.
    pending: Vec<ObjectId>,
    /// Sorted ids already recomputed, as of the last refill.
    done: Vec<ObjectId>,
}

impl Worklist {
    /// Rebuilds the pending ids from the map: at the start of a recompute
    /// (`recomputed` empty) and whenever a probe has grown `exact` since.
    pub(crate) fn refill(
        &mut self,
        exact: &FastMap<ObjectId, Point>,
        recomputed: &[(ObjectId, Rect)],
    ) {
        self.done.clear();
        self.done.extend(recomputed.iter().map(|&(o, _)| o));
        self.done.sort_unstable();
        let done = &self.done;
        self.pending.clear();
        self.pending.extend(exact.keys().filter(|o| done.binary_search(o).is_err()));
        self.pending.sort_unstable_by(|a, b| b.cmp(a));
    }

    pub(crate) fn pop(&mut self) -> Option<ObjectId> {
        self.pending.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectState;

    /// The selection rule the worklist replaced, kept as the reference: the
    /// smallest id in `exact` that has not been recomputed yet, re-derived
    /// from scratch. `recompute_safe_regions` checks every pop against it
    /// in this crate's unit tests.
    pub(super) fn reference_next(
        exact: &FastMap<ObjectId, Point>,
        recomputed: &[(ObjectId, Rect)],
    ) -> Option<ObjectId> {
        exact.keys().copied().filter(|o| !recomputed.iter().any(|(done, _)| done == o)).min()
    }

    fn table_with(oid: ObjectId, t_lst: f64) -> ObjectTable {
        let mut t = ObjectTable::new();
        let p = Point::new(0.5, 0.5);
        t.set(oid, ObjectState { p_lst: p, t_lst, safe_region: Rect::point(p), last_seq: 0 });
        t
    }

    #[test]
    fn absorb_skips_exact_and_unknown_objects() {
        let mut lm = LocationManager::new();
        let objects = table_with(ObjectId(1), 0.0);
        let mut exact = FastMap::default();
        exact.insert(ObjectId(2), Point::new(0.1, 0.1));
        let mut scratch = vec![(ObjectId(1), 5.0), (ObjectId(2), 1.0), (ObjectId(9), 2.0)];
        lm.absorb_deferred(&mut scratch, &exact, &objects);
        assert!(scratch.is_empty());
        // Only the known, non-exact object survives.
        assert_eq!(lm.next_due(&objects), Some(5.0));
    }

    #[test]
    fn stale_entries_are_dropped_lazily() {
        let mut lm = LocationManager::new();
        let mut objects = table_with(ObjectId(3), 0.0);
        lm.absorb_deferred(&mut vec![(ObjectId(3), 2.0)], &FastMap::default(), &objects);
        assert_eq!(lm.next_due(&objects), Some(2.0));
        // A later contact bumps t_lst and invalidates the entry.
        objects.get_mut(ObjectId(3)).unwrap().t_lst = 1.0;
        assert_eq!(lm.next_due(&objects), None);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut lm = LocationManager::new();
        let objects = table_with(ObjectId(4), 0.0);
        lm.absorb_deferred(&mut vec![(ObjectId(4), 3.0)], &FastMap::default(), &objects);
        assert!(lm.pop_due(&objects, 2.9).is_none());
        let d = lm.pop_due(&objects, 3.0).expect("due now");
        assert_eq!(d.oid, ObjectId(4));
        assert_eq!(d.kind, DeferKind::Slack);
        assert!(lm.pop_due(&objects, 10.0).is_none());
    }

    // -- Worklist order ------------------------------------------------

    /// Visiting order, then the keys left in `exact`.
    type Visit = (Vec<ObjectId>, Vec<ObjectId>);

    /// The recompute loop's bookkeeping — pick, remove, let the computation
    /// inject probed ids, record — once under the worklist and once under
    /// the reference rule. `inject(oid)` lists the ids a neighbor probe adds
    /// to `exact` while `oid` is being computed. Returns the two visiting
    /// orders and the two leftover key sets.
    fn visit_orders(seed: &[u32], inject: &dyn Fn(ObjectId) -> Vec<u32>) -> (Visit, Visit) {
        let at = Point::new(0.5, 0.5);
        let seeded: FastMap<ObjectId, Point> = seed.iter().map(|&i| (ObjectId(i), at)).collect();
        let leftovers = |exact: &FastMap<ObjectId, Point>| {
            let mut keys: Vec<ObjectId> = exact.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        let visited = |out: &[(ObjectId, Rect)]| out.iter().map(|&(o, _)| o).collect::<Vec<_>>();

        let (mut exact, mut out) = (seeded.clone(), Vec::new());
        let mut worklist = Worklist::default();
        worklist.refill(&exact, &out);
        while let Some(oid) = worklist.pop() {
            exact.remove(&oid).expect("worklist ids are in the map");
            let known = exact.len();
            exact.extend(inject(oid).into_iter().map(|i| (ObjectId(i), at)));
            out.push((oid, Rect::point(at)));
            if exact.len() > known {
                worklist.refill(&exact, &out);
            }
        }
        let new = (visited(&out), leftovers(&exact));

        let (mut exact, mut out) = (seeded, Vec::new());
        while let Some(oid) = reference_next(&exact, &out) {
            exact.remove(&oid).expect("picked from map");
            exact.extend(inject(oid).into_iter().map(|i| (ObjectId(i), at)));
            out.push((oid, Rect::point(at)));
        }
        (new, (visited(&out), leftovers(&exact)))
    }

    fn ids(raw: &[u32]) -> Vec<ObjectId> {
        raw.iter().map(|&i| ObjectId(i)).collect()
    }

    #[test]
    fn worklist_visits_seed_in_id_order() {
        let (new, reference) = visit_orders(&[7, 2, 9, 4], &|_| Vec::new());
        assert_eq!(new, reference);
        assert_eq!(new, (ids(&[2, 4, 7, 9]), Vec::new()));
    }

    #[test]
    fn worklist_merges_a_larger_probed_id() {
        let (new, reference) =
            visit_orders(&[2, 4, 9], &|o| if o == ObjectId(4) { vec![6] } else { Vec::new() });
        assert_eq!(new, reference);
        assert_eq!(new.0, ids(&[2, 4, 6, 9]));
    }

    #[test]
    fn worklist_merges_a_probed_id_below_the_current_one() {
        let (new, reference) =
            visit_orders(&[2, 4, 9], &|o| if o == ObjectId(4) { vec![1] } else { Vec::new() });
        assert_eq!(new, reference);
        assert_eq!(new.0, ids(&[2, 4, 1, 9]));
    }

    #[test]
    fn worklist_skips_a_reprobed_id_and_leaves_it_in_exact() {
        let (new, reference) =
            visit_orders(&[2, 4, 9], &|o| if o == ObjectId(4) { vec![2, 5] } else { Vec::new() });
        assert_eq!(new, reference);
        // 2 was recomputed before 4 re-probed it: not visited again, but
        // still exactly known for the bounds of 5 and 9.
        assert_eq!(new, (ids(&[2, 4, 5, 9]), ids(&[2])));
    }

    proptest::proptest! {
        #[test]
        fn worklist_matches_reference_under_random_probes(
            seed in proptest::collection::vec(0u32..40, 1..20),
            probes in proptest::collection::vec((0u32..40, 0u32..40), 0..12),
        ) {
            // Computing `during` probes `target` (any id: pending, new,
            // recomputed, or itself).
            let inject = |o: ObjectId| -> Vec<u32> {
                probes.iter().filter(|&&(during, _)| during == o.0).map(|&(_, t)| t).collect()
            };
            let (new, reference) = visit_orders(&seed, &inject);
            proptest::prop_assert_eq!(new, reference);
        }
    }

    // -- Worklist order on the real path --------------------------------
    //
    // `recompute_safe_regions` asserts every pop against `reference_next`
    // in this crate's unit tests, so driving a neighbor probe through the
    // server checks the order where it is produced.

    use crate::provider::FnProvider;
    use crate::query::QuerySpec;
    use crate::server::{SequencedUpdate, Server};

    const Q: Point = Point { x: 0.5, y: 0.5 };

    /// A server with an order-sensitive 2-NN query at `Q` whose results are
    /// `near` then `far`, and a bystander `other` in a distant cell.
    fn two_nn_server(near: ObjectId, far: ObjectId, other: ObjectId) -> (Server, Vec<Point>) {
        let mut at = vec![Point::new(0.05, 0.05); 10];
        at[near.index()] = Point::new(0.52, 0.5);
        at[far.index()] = Point::new(0.5, 0.56);
        at[other.index()] = Point::new(0.9, 0.1);
        let mut server = Server::new(ServerConfig::default());
        let ps = at.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        for id in [near, far, other] {
            server.add_object(id, at[id.index()], &mut provider, 0.0).expect("fresh id");
        }
        let reg = server.register_query(QuerySpec::knn(Q, 2), &mut provider, 0.0);
        assert_eq!(reg.results, vec![near, far]);
        (server, at)
    }

    /// `far` reports from exactly the distance `near`'s stale region reaches
    /// out to: reevaluation keeps the order without probing, but the ring
    /// of `far` has no room, so its computation probes `near`.
    fn probe_near_while_computing_far(near: ObjectId, far: ObjectId, other: ObjectId) {
        let (mut server, mut at) = two_nn_server(near, far, other);
        let reach = server.safe_region(near).expect("registered").max_dist(Q);
        at[far.index()] = Point::new(Q.x, Q.y + reach);
        at[other.index()] = Point::new(0.9, 0.11);
        let ps = at.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        let before = server.work();
        let report = |id: ObjectId| SequencedUpdate { id, pos: at[id.index()], seq: 1 };
        let mut out = Vec::new();
        server.handle_sequenced_updates_into(
            &[report(other), report(far)],
            &mut provider,
            1.0,
            &mut out,
        );
        assert_eq!(server.work().probes_neighbor - before.probes_neighbor, 1);
        let mut movers = vec![far, other];
        movers.sort_unstable();
        assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), movers);
        assert_eq!(out[0].1.probed.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![near]);
        server.check_invariants();
    }

    #[test]
    fn neighbor_probe_of_a_larger_id_is_recomputed_in_order() {
        probe_near_while_computing_far(ObjectId(5), ObjectId(1), ObjectId(9));
    }

    #[test]
    fn neighbor_probe_of_a_smaller_id_is_recomputed_next() {
        probe_near_while_computing_far(ObjectId(1), ObjectId(5), ObjectId(9));
    }

    #[test]
    fn reprobed_recomputed_neighbor_is_not_recomputed_twice() {
        // Both results report from the same distance: whichever is computed
        // second finds the first one's fresh region touching its own
        // position and probes it again.
        let (near, far, other) = (ObjectId(1), ObjectId(2), ObjectId(9));
        let (mut server, mut at) = two_nn_server(near, far, other);
        at[near.index()] = Point::new(Q.x + 0.03, Q.y);
        at[far.index()] = Point::new(Q.x, Q.y + 0.03);
        let ps = at.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        let before = server.work();
        let report = |id: ObjectId| SequencedUpdate { id, pos: at[id.index()], seq: 1 };
        let mut out = Vec::new();
        server.handle_sequenced_updates_into(
            &[report(near), report(far)],
            &mut provider,
            1.0,
            &mut out,
        );
        assert_eq!(server.work().probes_neighbor - before.probes_neighbor, 1);
        assert_eq!(server.work().safe_regions - before.safe_regions, 2);
        assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![near, far]);
        assert!(out[0].1.probed.is_empty());
        server.check_invariants();
    }
}
