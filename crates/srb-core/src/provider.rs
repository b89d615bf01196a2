//! The server ↔ client communication boundary: location probes and the
//! wireless cost model (paper §3, §7.1).

use crate::ids::ObjectId;
use srb_geom::Point;

/// Supplies exact object locations to the server when it issues a
/// *server-initiated probe* (§1, §4). The simulator implements this with the
/// true client positions; a real deployment would page the device.
pub trait LocationProvider {
    /// Returns the exact current location of `id`. Called only when query
    /// evaluation cannot proceed on safe regions alone (lazy probing, §4).
    fn probe(&mut self, id: ObjectId) -> Point;
}

/// A provider backed by a closure — convenient for tests and examples.
pub struct FnProvider<F: FnMut(ObjectId) -> Point>(pub F);

impl<F: FnMut(ObjectId) -> Point> LocationProvider for FnProvider<F> {
    fn probe(&mut self, id: ObjectId) -> Point {
        (self.0)(id)
    }
}

/// A provider that panics — for call sites where probing must not happen
/// (e.g. asserting that an operation is probe-free).
pub(crate) struct NoProbe;

impl LocationProvider for NoProbe {
    fn probe(&mut self, id: ObjectId) -> Point {
        panic!("unexpected probe of {id}");
    }
}

/// The wireless communication cost model of §7.1: a source-initiated update
/// costs `c_l` (uplink only), a server-initiated probe plus the forced
/// update costs `c_p` (downlink request + uplink reply; the paper prices the
/// uplink at twice the downlink, giving `c_l = 1`, `c_p = 1.5`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of one source-initiated location update.
    pub c_l: f64,
    /// Cost of one server-initiated probe and the update it triggers.
    pub c_p: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { c_l: 1.0, c_p: 1.5 }
    }
}

/// Running totals of communication events, maintained by the server.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostTracker {
    /// Number of source-initiated location updates received.
    pub source_updates: u64,
    /// Number of server-initiated probes issued.
    pub probes: u64,
}

impl CostTracker {
    /// The total wireless cost under `model`.
    pub fn total(&self, model: &CostModel) -> f64 {
        self.source_updates as f64 * model.c_l + self.probes as f64 * model.c_p
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &CostTracker) -> CostTracker {
        CostTracker {
            source_updates: self.source_updates - earlier.source_updates,
            probes: self.probes - earlier.probes,
        }
    }

    /// Adds another tracker's totals into this one — used to aggregate
    /// per-shard trackers into a fleet-wide view.
    pub(crate) fn merge(&mut self, other: &CostTracker) {
        self.source_updates += other.source_updates;
        self.probes += other.probes;
    }
}

/// Deterministic work counters for the scalability experiments (§7.3): the
/// harness reports these alongside wall-clock CPU time so results are
/// machine-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkStats {
    /// Queries (re)evaluated.
    pub evaluations: u64,
    /// Safe regions computed.
    pub safe_regions: u64,
    /// Ambiguities resolved without probing thanks to the reachability
    /// circle (§6.1) — zero unless the enhancement is enabled.
    pub(crate) probes_avoided: u64,
    /// Full reevaluations forced by a broken ordering invariant (should be
    /// rare; asserted small in tests).
    pub ordering_fallbacks: u64,
    /// Probes issued while evaluating range queries.
    pub(crate) probes_range: u64,
    /// Probes issued by kNN evaluation (held-object ambiguity).
    pub(crate) probes_knn_eval: u64,
    /// Probes issued to separate the quarantine radius.
    pub(crate) probes_radius: u64,
    /// Probes issued by the §4.3 incremental reevaluation (case 2/3).
    pub(crate) probes_reeval: u64,
    /// Probes issued to resolve conflicting neighbor safe regions during
    /// safe-region computation.
    pub probes_neighbor: u64,
    /// Sequenced updates dropped because their sequence number was at or
    /// below the last accepted one (duplicate / reordered deliveries).
    pub stale_seq_drops: u64,
    /// Updates dropped because they referenced an unregistered object.
    pub unknown_object_drops: u64,
    /// Probes fired because an object's safe-region lease lapsed without
    /// contact (subset of `CostTracker::probes`).
    pub lease_probes: u64,
    /// Current safe regions re-sent in response to duplicate updates — the
    /// ACK-retransmission path of a lossy downlink.
    pub regrants: u64,
}

impl WorkStats {
    /// Every counter, in declaration order (the order of the durable
    /// encoding). Destructured without `..`, so a new field fails to
    /// compile until it is listed here — and with that `merge`, `encode`
    /// and `decode` all carry it.
    fn fields(&mut self) -> [&mut u64; 13] {
        let WorkStats {
            evaluations,
            safe_regions,
            probes_avoided,
            ordering_fallbacks,
            probes_range,
            probes_knn_eval,
            probes_radius,
            probes_reeval,
            probes_neighbor,
            stale_seq_drops,
            unknown_object_drops,
            lease_probes,
            regrants,
        } = self;
        [
            evaluations,
            safe_regions,
            probes_avoided,
            ordering_fallbacks,
            probes_range,
            probes_knn_eval,
            probes_radius,
            probes_reeval,
            probes_neighbor,
            stale_seq_drops,
            unknown_object_drops,
            lease_probes,
            regrants,
        ]
    }

    /// Adds another set of counters into this one — used to aggregate
    /// per-shard stats into a fleet-wide view.
    pub(crate) fn merge(&mut self, other: &WorkStats) {
        let mut other = *other;
        for (mine, theirs) in self.fields().into_iter().zip(other.fields()) {
            *mine += *theirs;
        }
    }

    /// Appends the counters to a checkpoint payload.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let mut copy = *self;
        for v in copy.fields() {
            srb_durable::codec::put_u64(out, *v);
        }
    }

    /// Reads back counters written by [`encode`](Self::encode).
    pub(crate) fn decode(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, srb_durable::DurableError> {
        let mut stats = WorkStats::default();
        for v in stats.fields() {
            *v = dec.u64()?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cost_model_matches_paper() {
        let m = CostModel::default();
        assert_eq!(m.c_l, 1.0);
        assert_eq!(m.c_p, 1.5);
    }

    #[test]
    fn tracker_totals() {
        let t = CostTracker { source_updates: 4, probes: 2 };
        assert_eq!(t.total(&CostModel::default()), 4.0 + 3.0);
        let earlier = CostTracker { source_updates: 1, probes: 0 };
        assert_eq!(t.since(&earlier), CostTracker { source_updates: 3, probes: 2 });
    }

    #[test]
    fn fn_provider_probes() {
        let mut p = FnProvider(|id: ObjectId| Point::new(id.0 as f64, 0.0));
        assert_eq!(p.probe(ObjectId(3)), Point::new(3.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "unexpected probe")]
    fn no_probe_panics() {
        NoProbe.probe(ObjectId(0));
    }
}
