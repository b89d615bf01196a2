//! The durability plane: every operation, a batch included, is one record
//! of the coordinator's log — its inputs and its probe transcript, appended
//! by `logged`. A checkpoint is the whole engine state in one layout
//! (`FLEET_LAYOUT`); recovery decodes one and replays the records after it
//! through the entry points. Only this module and `wal.rs` encode, decode
//! or replay a record.

use super::ShardedServer;
use crate::config::ServerConfig;
use crate::error::RecoveryError;
use crate::index::ObjectIndex;
use crate::location::Timers;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, WorkStats};
use crate::wal::{self, Record, ReplayProvider, Wal};
use srb_durable::codec::{put_u64, put_usize};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;

/// Leads a checkpoint's coordinator section: the layout with one query
/// plane, one timer queue, one object table and nothing per shard — every
/// shard index is rebuilt from `config.backend` and the table ("SRBFLT" +
/// version). See `ShardedServer::decode_state`.
const FLEET_LAYOUT: u64 = 0x5352_4246_4C54_0007;

impl<B: srb_index::SpatialBackend> ShardedServer<B> {
    /// Creates a durability store in `dir` and attaches a fresh coordinator
    /// WAL, rooted at a checkpoint of the whole fleet's state.
    pub(super) fn attach_durability(&mut self, dir: &str) {
        let d = self.config.durability;
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let store = srb_durable::Store::create(Path::new(dir), d.group_ops, &payload);
        let store = store.expect("failed to create the configured durability store");
        self.wal = Some(Box::new(Wal::new(store, d.checkpoint_ops)));
    }

    /// Rebuilds a sharded server from the durability directory in
    /// `config.durability`: loads the newest valid checkpoint, replays the
    /// log generation by generation, and reattaches the WAL. `shards` must
    /// match the crashed instance's shard count, which the checkpoint
    /// records. Returns the server and the number of replayed operations.
    /// A backend type `B` that cannot build `config.backend` is refused
    /// before the store is opened.
    pub fn recover(config: ServerConfig, shards: usize) -> Result<(Self, usize), RecoveryError> {
        let d = config.durability;
        let Some(dir) = d.dir else { return Err(RecoveryError::Disabled) };
        if !B::builds(&config.backend) {
            let (configured, recovering) = (config.backend.label(), B::label());
            return Err(RecoveryError::BackendMismatch { configured, recovering });
        }
        let rec = srb_durable::Store::recover(Path::new(dir), d.group_ops)?;
        let mut server = Self::decode_state(&config, shards, &rec.payload)?;
        let records: Vec<_> = rec.generations.iter().flat_map(|g| &g.records).collect();
        records.iter().try_for_each(|payload| server.apply_record(payload))?;
        server.wal = Some(Box::new(Wal::new(rec.store, d.checkpoint_ops)));
        Ok((server, records.len()))
    }

    /// True when an earlier I/O failure poisoned the WAL. A poisoned
    /// coordinator keeps serving from memory but persists nothing further;
    /// the only path back is [`ShardedServer::recover`].
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
    /// fleet state, truncating the replay tail. Returns `false` when no
    /// WAL is attached or the rotation failed (which poisons the WAL).
    pub fn checkpoint(&mut self) -> bool {
        let Some(mut w) = self.wal.take() else { return false };
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let ok = w.checkpoint(&payload).is_ok();
        self.wal = Some(w);
        ok
    }

    /// A 64-bit digest of the full serialized fleet state — what the crash
    /// harness compares between a recovered run and its golden twin. The
    /// serialized state is logical: it holds no index structure, so two
    /// engines whose indexes hold the same entries in differently shaped
    /// trees digest alike.
    pub fn state_digest(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode_state(&mut buf);
        wal::fnv1a64(&buf)
    }

    /// The log protocol of every operation, in one place: detach the WAL,
    /// run `body` (which re-enters the entry point, now unlogged) with every
    /// probe transcribed, append the record `log` writes — inputs plus that
    /// transcript — reattach, and run the group-commit / checkpoint
    /// cadence. Callers check the WAL is attached; that check is also what
    /// ends the re-entry.
    ///
    /// Fail-stop: when the provider panics inside `body`, the operation has
    /// appended no record, so the WAL is poisoned (refusing further writes
    /// against a half-applied operation), reattached, and the panic
    /// resumes; recovery lands on the state before the operation.
    pub(super) fn logged<R>(
        &mut self,
        provider: &mut dyn LocationProvider,
        body: impl FnOnce(&mut Self, &mut dyn LocationProvider) -> R,
        log: impl FnOnce(&mut Wal),
    ) -> R {
        let mut w = self.wal.take().expect("logged() runs with the WAL attached");
        let run = catch_unwind(AssertUnwindSafe(|| body(self, &mut w.recorder(provider))));
        let result = match run {
            Ok(result) => result,
            Err(panic) => {
                w.poison();
                self.wal = Some(w);
                resume_unwind(panic)
            }
        };
        log(&mut w);
        let due = w.note_op();
        self.wal = Some(w);
        if due {
            self.checkpoint();
        }
        result
    }

    /// Serializes the complete engine state: config fingerprint, shard
    /// count, layout tag, counters, the object table, the timers in queue
    /// order and the query plane. Scratch buffers and telemetry handles
    /// carry no state and are excluded.
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, wal::config_fingerprint(&self.config));
        put_usize(out, self.index.shards().len());
        put_u64(out, FLEET_LAYOUT);
        put_u64(out, self.costs.source_updates);
        put_u64(out, self.costs.probes);
        self.work.encode(out);
        self.index.encode_state(out);
        self.timers.encode_state(out);
        self.processor.encode_state(out);
    }

    /// Rebuilds a server from a checkpoint payload. The WAL is *not*
    /// attached — [`ShardedServer::recover`] does that after replay.
    fn decode_state(
        config: &ServerConfig,
        shards: usize,
        payload: &[u8],
    ) -> Result<Self, RecoveryError> {
        let mut dec = srb_durable::Dec::new(payload);
        if dec.u64()? != wal::config_fingerprint(config) {
            return Err(RecoveryError::ConfigMismatch);
        }
        if dec.usize()? != shards {
            return Err(RecoveryError::Corrupt("checkpoint shard count mismatch"));
        }
        // Where this tag sits, every older checkpoint — one shard whose own
        // stack was the engine, several shards each a replica of every
        // query, shards that still carried a query processor (version 1) or
        // timers of their own (version 2), slots that still carried reuse
        // generations (version 3), shards that carried their index structure
        // (version 4), an owner map beside per-shard object tables and
        // counters (version 5), each shard's backend config and the
        // adaptive controller's state (version 6) — holds a counter or an
        // earlier version: refused here, never misread.
        if dec.u64()? != FLEET_LAYOUT {
            return Err(RecoveryError::Corrupt("checkpoint of an older layout"));
        }
        let costs = CostTracker { source_updates: dec.u64()?, probes: dec.u64()? };
        let work = WorkStats::decode(&mut dec)?;
        let index = ObjectIndex::decode_state(&mut dec, &config.backend, shards, config.space)?;
        let timers = Timers::decode_state(&mut dec, |oid| index.get(oid).is_some())?;
        let processor = QueryProcessor::decode_state(&mut dec)?;
        dec.finish()?;
        let server = Self::assemble(*config, index, processor);
        Ok(Self { timers, costs, work, ..server })
    }

    /// Replays one log record through the public entry points, feeding
    /// every probe from the record's transcript; every structural mismatch
    /// is a typed error, never a panic.
    fn apply_record(&mut self, payload: &[u8]) -> Result<(), RecoveryError> {
        let record = wal::decode_record(payload)?;
        let probes: &[_] = match &record {
            Record::AddObject { probes, .. }
            | Record::RemoveObject { probes, .. }
            | Record::RegisterQuery { probes, .. }
            | Record::Batch { probes, .. }
            | Record::ProcessDeferred { probes, .. } => probes,
            Record::DeregisterQuery { .. } => &[],
        };
        let mut rp = ReplayProvider::new(probes);
        match record {
            Record::AddObject { id, pos, now, .. } => {
                let _ = self.add_object(id, pos, &mut rp, now);
            }
            Record::RemoveObject { id, now, .. } => {
                let _ = self.remove_object(id, &mut rp, now);
            }
            Record::RegisterQuery { spec, now, .. } => {
                let _ = self.register_query(spec, &mut rp, now);
            }
            Record::DeregisterQuery { id } => {
                let _ = self.deregister_query(id);
            }
            Record::Batch { now, ref updates, .. } => {
                self.handle_sequenced_updates_into(updates, &mut rp, now, &mut Vec::new());
            }
            Record::ProcessDeferred { now, .. } => {
                let _ = self.process_deferred(&mut rp, now);
            }
        }
        if rp.diverged() {
            return Err(RecoveryError::Corrupt("replay diverged from the probe transcript"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{durable, fleet, temp_dir, world};
    use super::*;
    use crate::ids::ObjectId;
    use crate::provider::FnProvider;
    use crate::query::QuerySpec;
    use crate::SequencedUpdate;
    use srb_geom::Point;
    use srb_index::RStarTree;

    /// What admission refuses — an unknown id, a stale `seq` — is logged
    /// with the batch that carried it and must be dropped, counted and
    /// re-granted again on replay: same digest, same drop counters as the
    /// run that never stopped.
    #[test]
    fn sequenced_batch_drops_recur_on_replay() {
        for shards in [1, 2] {
            let dir = temp_dir("rawdrops");
            let config = durable(dir);
            let positions = world(8, 17);
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let mut twin = ShardedServer::new(ServerConfig::default(), shards);
            let mut durable = ShardedServer::new(config, shards);
            for engine in [&mut twin, &mut durable] {
                for (i, &p) in positions.iter().enumerate() {
                    engine.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
                }
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
                engine.handle_sequenced_updates_into(&batch, &mut provider, 0.1, &mut resp);
                assert_eq!(resp.len(), 3, "two accepted reports and one regrant");
            }
            durable.sync_wal();
            drop(durable);
            let (recovered, _) =
                ShardedServer::<RStarTree>::recover(config, shards).expect("recovery");
            assert_eq!(recovered.work(), twin.work(), "{shards} shard(s)");
            assert_eq!(recovered.work().unknown_object_drops, 1);
            assert_eq!(recovered.work().stale_seq_drops, 1);
            assert_eq!(recovered.state_digest(), twin.state_digest(), "{shards} shard(s)");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// `decode_state`'s refusal of `payload`, a checkpoint of an older
    /// layout at `shards`.
    fn refused(shards: usize, payload: &[u8]) {
        match ShardedServer::<RStarTree>::decode_state(&ServerConfig::default(), shards, payload) {
            Err(RecoveryError::Corrupt(what)) => assert!(what.contains("older layout"), "{what}"),
            other => panic!("decoded an older layout: {:?}", other.map(|_| ())),
        }
    }

    /// The first bytes every checkpoint layout shares: config fingerprint
    /// and shard count.
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
    /// config and the adaptive controller's state.
    fn older(version: u64, shards: usize) -> Vec<u8> {
        let mut payload = checkpoint_header(shards);
        put_u64(&mut payload, FLEET_LAYOUT - 7 + version);
        put_u64(&mut payload, 0); // coordinator probes, counters, owner map …
        payload
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
        refused(2, &replicas);
        for version in 1..=6 {
            refused(2, &older(version, 2));
        }
        // The current layout round-trips.
        let config = ServerConfig::default();
        let (fleet, _) = fleet(config, 2);
        let mut current = Vec::new();
        fleet.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 2, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), fleet.state_digest());
    }

    /// A one-shard checkpoint from when one shard's own stack was the whole
    /// engine (zeroed coordinator counters right after the shard count, a
    /// spec per query slot, the shard's state with its own query processor),
    /// or from when the shard kept its own timers (version 2), slots kept
    /// reuse generations (version 3), shards wrote their index structure
    /// (version 4), their own object tables beside an owner map (version
    /// 5) or their backend configs beside the controller (version 6), gets
    /// the same typed refusal.
    #[test]
    fn older_one_shard_checkpoint_is_refused_not_misread() {
        let mut legacy = checkpoint_header(1);
        WorkStats::default().encode(&mut legacy);
        put_usize(&mut legacy, 0); // owner map
        put_usize(&mut legacy, 0); // query slots
        put_usize(&mut legacy, 0); // the always-empty list
        legacy.push(0); // no controller; the shard's state …
        refused(1, &legacy);
        for version in 2..=6 {
            refused(1, &older(version, 1));
        }
        // The current layout is the one layout: one shard round-trips too.
        let config = ServerConfig::default();
        let (engine, _) = fleet(config, 1);
        let mut current = Vec::new();
        engine.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 1, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), engine.state_digest());
    }

    /// A checkpoint whose object table names a shard the engine does not
    /// have is refused with a typed error, never indexed out of range.
    #[test]
    fn a_table_naming_a_missing_shard_is_refused() {
        let config = ServerConfig::default();
        let (fleet, _) = fleet(config, 2);
        let mut payload = Vec::new();
        fleet.encode_state(&mut payload);
        // Header, layout and counters, the table's length, object 0's tag:
        // then its shard.
        let mut counters = Vec::new();
        WorkStats::default().encode(&mut counters);
        let at = 5 * 8 + counters.len() + 8 + 1;
        assert_eq!(payload[at - 1], 1, "object 0 is registered");
        for shard in [2u32, u32::MAX] {
            let mut damaged = payload.clone();
            damaged[at..at + 4].copy_from_slice(&shard.to_le_bytes());
            match ShardedServer::<RStarTree>::decode_state(&config, 2, &damaged) {
                Err(RecoveryError::Corrupt(what)) => {
                    assert_eq!(what, "object table names a missing shard")
                }
                other => panic!("decoded shard {shard}: {:?}", other.map(|_| ())),
            }
        }
        let decoded = ShardedServer::<RStarTree>::decode_state(&config, 2, &payload);
        assert_eq!(decoded.expect("decodes").state_digest(), fleet.state_digest());
    }
}
