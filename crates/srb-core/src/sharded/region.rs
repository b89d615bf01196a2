//! The region step (§5, Algorithm 1 lines 14-15): the safe region of every
//! exactly-known object, in id order on the caller's thread, the neighbour
//! requests probed between rounds, and the install. Every exactly-known
//! object is an *invalid* neighbour of every region (the §5.2 midpoint
//! rule), so regions do not depend on the order they are computed in.

use super::ShardedServer;
use crate::eval::{ReadCtx, RegionCtx};
use crate::ids::ObjectId;
use crate::location::DeferKind;
use crate::processor::QueryProcessor;
use crate::provider::LocationProvider;
use crate::query::QuerySpec;
use crate::safe_region::{compute_safe_region, RegionScratch};
use crate::scratch::OpBuffers;
use srb_geom::{Point, Rect};

/// The region step of one operation. It lives in the engine's scratch
/// so its buffers are reused; between operations it holds capacity and
/// nothing else.
#[derive(Default)]
pub(super) struct RegionStep {
    /// The objects of the next round — `(id, position, previous anchor)` —
    /// put in id order when the round starts.
    pub(super) todo: Vec<(ObjectId, Point, Point)>,
    /// Working memory of one region computation.
    scratch: RegionScratch,
    /// The operation's regions so far, ascending by id.
    granted: Vec<(ObjectId, Rect)>,
    /// The deferred probes behind `granted`: `(requester, target, due)`.
    deferred: Vec<(ObjectId, ObjectId, f64)>,
}

impl RegionStep {
    /// Runs one region round over [`todo`](Self::todo), in id order, and
    /// empties it. Each region reads the index and the exactly-known
    /// objects (`read`) and the query plane, and nothing the round computed
    /// before it. The regions go into [`granted`](Self::granted) (a later
    /// round's replacing an earlier one's), the deferred probes into
    /// [`deferred`](Self::deferred), the neighbour requests into
    /// `requests`; a requester gets no region this round.
    fn round<B: srb_index::SpatialBackend>(
        &mut self,
        read: &ReadCtx<'_, B>,
        processor: &QueryProcessor,
        steadiness: Option<f64>,
        requests: &mut Vec<(ObjectId, ObjectId)>,
    ) {
        let RegionStep { todo, scratch, granted, deferred } = self;
        if !todo.is_sorted_by_key(|&(oid, ..)| oid) {
            todo.sort_unstable_by_key(|&(oid, ..)| oid);
        }
        for &(oid, pos, p_lst) in todo.iter() {
            let (asked, deferring) = (requests.len(), deferred.len());
            let mut ctx = RegionCtx { read, requester: oid, requests, deferred };
            let sr = compute_safe_region(
                &mut ctx,
                processor.grid(),
                processor.slots(),
                pos,
                p_lst,
                steadiness,
                scratch,
            );
            if requests.len() > asked {
                // Void: computed again once the targets are exactly known.
                deferred.truncate(deferring);
                continue;
            }
            // In order; only a later round's rerun lands mid-list.
            if granted.last().is_none_or(|&(last, _)| last < oid) {
                granted.push((oid, sr));
            } else {
                match granted.binary_search_by_key(&oid, |&(o, _)| o) {
                    Ok(i) => granted[i].1 = sr,
                    Err(i) => granted.insert(i, (oid, sr)),
                }
            }
        }
        todo.clear();
    }
}

impl<B: srb_index::SpatialBackend> ShardedServer<B> {
    /// regions → install (Algorithm 1, lines 14-15): computes, round by
    /// round ([`RegionStep::round`]), the safe region of every object in
    /// `op.exact` — the ones the caller listed in `step` and the probed
    /// ones — installs them (filling `op.recomputed`, ascending by id) and
    /// sets the timers: a grant at another instant than the object's last
    /// drops its timer (whatever was scheduled against the old anchor is
    /// owed no more), one at the same instant keeps it, and a lease or a
    /// deferred-probe request for an object not exactly known only brings a
    /// timer forward.
    pub(super) fn grant(
        &mut self,
        op: &mut OpBuffers,
        step: &mut RegionStep,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) {
        let _span = srb_obs::span!("location.recompute_safe_regions");
        for oid in op.probed.drain(..) {
            self.enlist(step, oid, op.exact[&oid]);
        }

        loop {
            let read = ReadCtx {
                index: &self.index,
                exact: &op.exact,
                max_speed: self.config.max_speed,
                now,
            };
            let mut requests: Vec<(ObjectId, ObjectId)> = Vec::new();
            step.round(&read, &self.processor, self.config.steadiness, &mut requests);

            // Every region of the round stands unless a region asked for a
            // neighbour's exact location. Probing it makes it an invalid
            // neighbour (§5.2) of everything computed so far, so its ring
            // neighbours among them are computed again beside the
            // requester and the target itself.
            if requests.is_empty() {
                break;
            }
            requests.sort_unstable();
            let (mut again, known) = (Vec::new(), op.exact.len());
            for &(requester, target) in &requests {
                again.push(requester);
                if op.exact.contains_key(&target) {
                    continue;
                }
                self.costs.probes += 1;
                self.work.probes_neighbor += 1;
                srb_obs::counter!("safe_region.neighbor_probes").inc();
                op.exact.insert(target, provider.probe(target));
                again.push(target);
                // Its last anchor lies in its stale region, hence in the
                // cell whose bucket lists every query holding it.
                let (anchor, _) = self.last_known(target).expect("a registered object");
                for &qid in self.processor.grid().queries_at(anchor) {
                    let qs = self.processor.get(qid).expect("grid entries are registered");
                    let ordered = matches!(qs.spec, QuerySpec::Knn { order_sensitive: true, .. });
                    if let Some(rank) = qs.result_rank(target).filter(|_| ordered) {
                        let ring = [rank.checked_sub(1), Some(rank + 1)];
                        let beside = ring.into_iter().flatten().filter_map(|r| qs.results.get(r));
                        again.extend(beside.filter(|o| op.exact.contains_key(o)));
                    }
                }
            }
            again.sort_unstable();
            again.dedup();
            let computed_before = again.len() - (op.exact.len() - known);
            srb_obs::counter!("sharded.region_reruns").add(computed_before as u64);
            for &oid in &again {
                self.enlist(step, oid, op.exact[&oid]);
                // A second run supersedes what the first one deferred.
                step.deferred.retain(|&(by, ..)| by != oid);
            }
        }

        let lease = self.config.lease.filter(|&l| l > 0.0);
        for &(oid, sr) in &step.granted {
            if self.index.install_region(oid, op.exact[&oid], sr, now).t_lst != now {
                self.timers.cancel(oid);
            }
            if let Some(lease) = lease {
                self.timers.lower(oid, now + lease, DeferKind::Lease);
            }
        }
        op.recomputed.append(&mut step.granted);
        self.work.probes_avoided += step.deferred.len() as u64;
        op.deferred.extend(step.deferred.drain(..).map(|(_, target, due)| (target, due)));
        self.work.safe_regions += op.recomputed.len() as u64;
        srb_obs::histogram!("location.recompute_regions").record(op.recomputed.len() as u64);
        // A request for an object that ended up exactly known is dropped:
        // its region was just granted afresh.
        for (oid, due) in op.deferred.drain(..) {
            if self.index.get(oid).is_some() && !op.exact.contains_key(&oid) {
                self.timers.lower(oid, due, DeferKind::Slack);
            }
        }
    }

    /// Lists `oid`, exactly known at `pos`, for the next region round.
    fn enlist(&self, step: &mut RegionStep, oid: ObjectId, pos: Point) {
        let st = self.index.get(oid).expect("exactly-known objects are registered");
        step.todo.push((oid, pos, st.p_lst));
    }
}
