//! The durability plane: every operation, a batch included, is one record
//! of the engine's log — its [`Op`] and its probe transcript, appended by
//! the engine's one operation wrapper (`operation`, `sharded.rs`) once the
//! operation has run. A checkpoint is the whole engine state in one layout
//! (`FLEET_LAYOUT`); recovery decodes one and replays the records after it,
//! each through its operation's entry point. Only this module and `wal.rs`
//! encode, decode or replay a record.

use super::Server;
use crate::config::ServerConfig;
use crate::error::RecoveryError;
use crate::index::ObjectIndex;
use crate::location::Timers;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, WorkStats};
use crate::wal::{self, Op, ReplayProvider, Wal};
use srb_durable::codec::put_u64;
use std::path::Path;

/// Follows a checkpoint's config fingerprint: the layout with one query
/// plane, one timer queue and one object table whose entries name no
/// shard — the index is rebuilt from `config.backend` and the table
/// ("SRBFLT" + version). See `Server::decode_state`.
const FLEET_LAYOUT: u64 = 0x5352_4246_4C54_0008;

impl Server {
    /// Creates a durability store in `dir` and attaches a fresh WAL, rooted
    /// at a checkpoint of the whole engine state.
    pub(super) fn attach_durability(&mut self, dir: &str) {
        let d = self.config.durability;
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let store = srb_durable::Store::create(Path::new(dir), d.group_ops, &payload);
        let store = store.expect("failed to create the configured durability store");
        self.wal = Some(Box::new(Wal::new(store, d.checkpoint_ops)));
    }

    /// Rebuilds the server from the store in `config.durability.dir`: loads
    /// the newest valid checkpoint, replays the log generation by
    /// generation, and reattaches the WAL. Returns the server and the
    /// number of replayed operations. Fails with
    /// [`RecoveryError::Disabled`] when no directory is set, and with a
    /// typed error on a store it cannot replay, such as a checkpoint of an
    /// older layout.
    pub fn reopen(config: ServerConfig) -> Result<(Self, usize), RecoveryError> {
        let d = config.durability;
        let Some(dir) = d.dir else { return Err(RecoveryError::Disabled) };
        let rec = srb_durable::Store::recover(Path::new(dir), d.group_ops)?;
        let mut server = Self::decode_state(&config, &rec.payload)?;
        rec.records.iter().try_for_each(|payload| server.apply_record(payload))?;
        server.wal = Some(Box::new(Wal::new(rec.store, d.checkpoint_ops)));
        Ok((server, rec.records.len()))
    }

    /// True when an earlier I/O failure poisoned the WAL. A poisoned
    /// engine keeps serving from memory but persists nothing further;
    /// the only path back is recovery
    /// ([`reopen`](Self::reopen)).
    pub fn wal_poisoned(&self) -> bool {
        self.wal.as_ref().map(|w| w.poisoned()).unwrap_or(false)
    }

    /// Forces every buffered log record to stable storage now.
    pub fn sync_wal(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            w.sync();
        }
    }

    /// Rotates the durability store to a fresh checkpoint of the current
    /// engine state, truncating the replay tail. Returns `false` when no
    /// WAL is attached or the rotation failed (which poisons the WAL).
    pub fn checkpoint(&mut self) -> bool {
        let Some(mut w) = self.wal.take() else { return false };
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let ok = w.checkpoint(&payload).is_ok();
        self.wal = Some(w);
        ok
    }

    /// A 64-bit digest of the full serialized engine state — what the crash
    /// harness compares between a recovered run and its golden twin. The
    /// serialized state is logical: it holds no index structure, so two
    /// engines whose indexes hold the same entries in differently shaped
    /// trees digest alike.
    pub fn state_digest(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode_state(&mut buf);
        wal::fnv1a64(&buf)
    }

    /// Serializes the complete engine state: config fingerprint, layout
    /// tag, counters, the object table, the timers in queue order and the
    /// query plane. Scratch buffers and telemetry handles carry no state
    /// and are excluded.
    pub(super) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, wal::config_fingerprint(&self.config));
        put_u64(out, FLEET_LAYOUT);
        put_u64(out, self.costs.source_updates);
        put_u64(out, self.costs.probes);
        self.work.encode(out);
        self.index.encode_state(out);
        self.timers.encode_state(out);
        self.processor.encode_state(out);
    }

    /// Rebuilds a server from a checkpoint payload. The WAL is *not*
    /// attached — [`reopen`](Self::reopen) does that after replay.
    pub(super) fn decode_state(
        config: &ServerConfig,
        payload: &[u8],
    ) -> Result<Self, RecoveryError> {
        let mut dec = srb_durable::Dec::new(payload);
        if dec.u64()? != wal::config_fingerprint(config) {
            return Err(RecoveryError::ConfigMismatch);
        }
        // Where this tag sits, every older checkpoint — one shard whose own
        // stack was the engine, several shards each a replica of every
        // query, shards that still carried a query processor (version 1) or
        // timers of their own (version 2), slots that still carried reuse
        // generations (version 3), shards that carried their index structure
        // (version 4), an owner map beside per-shard object tables and
        // counters (version 5), each shard's backend config and the
        // adaptive controller's state (version 6), a shard number per
        // object (version 7) — holds its shard count: refused here, never
        // misread.
        if dec.u64()? != FLEET_LAYOUT {
            return Err(RecoveryError::Corrupt("checkpoint of an older layout"));
        }
        let costs = CostTracker { source_updates: dec.u64()?, probes: dec.u64()? };
        let work = WorkStats::decode(&mut dec)?;
        let index = ObjectIndex::decode_state(&mut dec, config.backend.tree())?;
        let timers = Timers::decode_state(&mut dec, |oid| index.get(oid).is_some())?;
        let processor = QueryProcessor::decode_state(&mut dec)?;
        dec.finish()?;
        let server = Self::assemble(*config, index, processor);
        Ok(Self { timers, costs, work, ..server })
    }

    /// Replays one log record through the public entry point of its
    /// operation, feeding every probe from the record's transcript; every
    /// structural mismatch is a typed error, never a panic.
    fn apply_record(&mut self, payload: &[u8]) -> Result<(), RecoveryError> {
        let (op, probes) = wal::decode_record(payload)?;
        let mut rp = ReplayProvider::new(&probes);
        match op {
            Op::AddObject { id, pos, now } => _ = self.add_object(id, pos, &mut rp, now),
            Op::RemoveObject { id, now } => _ = self.remove_object(id, &mut rp, now),
            Op::RegisterQuery { spec, now } => _ = self.register_query(spec, &mut rp, now),
            Op::DeregisterQuery { id } => _ = self.deregister_query(id),
            Op::Batch { now, updates } => self.ingest(&updates, &mut rp, now, &mut Vec::new()),
            Op::ProcessDeferred { now } => _ = self.process_deferred(&mut rp, now),
        }
        if rp.diverged() {
            return Err(RecoveryError::Corrupt("replay diverged from the probe transcript"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{durable, fleet, populated, temp_dir, world};
    use super::*;
    use crate::ids::ObjectId;
    use crate::provider::{FnProvider, NoProbe};
    use crate::query::QuerySpec;
    use crate::SequencedUpdate;
    use srb_durable::codec::put_usize;
    use srb_geom::Point;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// What admission refuses — an unknown id, a stale `seq` — is logged
    /// with the batch that carried it and must be dropped, counted and
    /// re-granted again on replay: same digest, same drop counters as the
    /// run that never stopped.
    #[test]
    fn sequenced_batch_drops_recur_on_replay() {
        let dir = temp_dir("rawdrops");
        let config = durable(dir);
        let positions = world(8, 17);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        let mut twin = populated(ServerConfig::default(), &positions);
        let mut durable = populated(config, &positions);
        for engine in [&mut twin, &mut durable] {
            engine.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 2), &mut provider, 0.0);
            let report =
                |id, x, y| SequencedUpdate { id: ObjectId(id), pos: Point::new(x, y), seq: 1 };
            let batch = [
                report(3, 0.31, 0.32),
                report(99, 0.1, 0.1),
                report(3, 0.33, 0.34),
                report(5, 0.6, 0.7),
            ];
            let mut resp = Vec::new();
            engine.ingest(&batch, &mut provider, 0.1, &mut resp);
            assert_eq!(resp.len(), 3, "two accepted reports and one regrant");
        }
        durable.sync_wal();
        drop(durable);
        let (recovered, _) = Server::reopen(config).expect("recovery");
        assert_eq!(recovered.work(), twin.work());
        assert_eq!(recovered.work().unknown_object_drops, 1);
        assert_eq!(recovered.work().stale_seq_drops, 1);
        assert_eq!(recovered.state_digest(), twin.state_digest());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `Server::reopen` fails with a typed error and never panics: with no
    /// store configured, and on a store whose checkpoint is of layout 7 —
    /// the last to record a shard count and a shard number per object. A
    /// store of the current layout reopens onto its digest.
    #[test]
    fn reopen_refuses_with_typed_errors_and_never_panics() {
        let reopen = |config: ServerConfig| {
            let run = || Server::reopen(config).map(|(s, replayed)| (s.state_digest(), replayed));
            catch_unwind(AssertUnwindSafe(run)).expect("reopen must not panic")
        };
        match reopen(ServerConfig::default()) {
            Err(RecoveryError::Disabled) => {}
            other => panic!("reopened with no store configured: {other:?}"),
        }
        // With no object ever registered, the table is empty and the rest of
        // a layout-7 checkpoint reads as the current one: only the header
        // tells them apart.
        let (empty, older) = (temp_dir("reopen-v8"), temp_dir("reopen-v7"));
        let mut server = Server::new(durable(empty));
        server.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 2), &mut NoProbe, 0.0);
        let mut current = Vec::new();
        server.encode_state(&mut current);
        let mut v7 = checkpoint_header(1);
        put_u64(&mut v7, FLEET_LAYOUT - 1);
        v7.extend_from_slice(&current[16..]);
        let group_ops = durable(older).durability.group_ops;
        srb_durable::Store::create(Path::new(older), group_ops, &v7).expect("a layout-7 store");
        match reopen(durable(older)) {
            Err(RecoveryError::Corrupt(what)) => assert_eq!(what, "checkpoint of an older layout"),
            other => panic!("reopened a layout-7 store: {other:?}"),
        }
        server.sync_wal();
        let (digest, _) = reopen(durable(empty)).expect("a current store reopens");
        assert_eq!(digest, server.state_digest());
        for dir in [empty, older] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// `decode_state`'s refusal of `payload`, a checkpoint of an older
    /// layout.
    fn refused(payload: &[u8]) {
        match Server::decode_state(&ServerConfig::default(), payload) {
            Err(RecoveryError::Corrupt(what)) => assert!(what.contains("older layout"), "{what}"),
            other => panic!("decoded an older layout: {:?}", other.map(|_| ())),
        }
    }

    /// The first bytes every older checkpoint layout shares: config
    /// fingerprint and shard count.
    fn checkpoint_header(shards: usize) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, wal::config_fingerprint(&ServerConfig::default()));
        put_usize(&mut payload, shards);
        payload
    }

    /// A checkpoint of the older layout `version` at `shards`: 1, shards
    /// each carrying a query processor; 2, shards keeping timers of their
    /// own; 3, a reuse generation per object slot and per query slot; 4,
    /// each shard's index structure written verbatim; 5, an owner map and
    /// each shard's object table and counters; 6, each shard's backend
    /// config and the adaptive controller's state; 7, a shard number per
    /// object.
    fn older(version: u64, shards: usize) -> Vec<u8> {
        let mut payload = checkpoint_header(shards);
        put_u64(&mut payload, FLEET_LAYOUT - 8 + version);
        put_u64(&mut payload, 0); // counters, owner map, object table …
        payload
    }

    /// The current layout round-trips: a fleet's checkpoint decodes onto
    /// its digest.
    fn round_trips() {
        let config = ServerConfig::default();
        let (fleet, _) = fleet(config);
        let mut current = Vec::new();
        fleet.encode_state(&mut current);
        let decoded = Server::decode_state(&config, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), fleet.state_digest());
    }

    /// A multi-shard checkpoint from before the one query plane (every
    /// shard a replica of every query, an always-zero counter block right
    /// after the shard count), or of any older layout version, is refused
    /// with a typed error; it is never decoded as something else.
    #[test]
    fn older_multi_shard_checkpoint_is_refused_not_misread() {
        let mut replicas = checkpoint_header(2);
        WorkStats::default().encode(&mut replicas);
        put_usize(&mut replicas, 0); // owner map, specs, merged results …
        refused(&replicas);
        for version in 1..=7 {
            refused(&older(version, 2));
        }
        round_trips();
    }

    /// A one-shard checkpoint from when one shard's own stack was the whole
    /// engine (zeroed coordinator counters right after the shard count, a
    /// spec per query slot, the shard's state with its own query processor),
    /// or from when the shard kept its own timers (version 2), slots kept
    /// reuse generations (version 3), shards wrote their index structure
    /// (version 4), their own object tables beside an owner map (version
    /// 5), their backend configs beside the controller (version 6) or the
    /// object table named each object's shard (version 7), gets the same
    /// typed refusal.
    #[test]
    fn older_one_shard_checkpoint_is_refused_not_misread() {
        let mut legacy = checkpoint_header(1);
        WorkStats::default().encode(&mut legacy);
        put_usize(&mut legacy, 0); // owner map
        put_usize(&mut legacy, 0); // query slots
        put_usize(&mut legacy, 0); // the always-empty list
        legacy.push(0); // no controller; the shard's state …
        refused(&legacy);
        for version in 2..=7 {
            refused(&older(version, 1));
        }
        round_trips();
    }
}
