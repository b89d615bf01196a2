//! The ledger's entry — [`ShardedServer::with_backend`], `with_threads` and
//! `handle_sequenced_updates_parallel_into` over a [`TableProvider`], as
//! `bench/src/engine.rs` calls them — held to [`Server::ingest`].

use super::{ShardedServer, TableProvider};
use crate::sharded::tests::{dir_bytes, durable, exit_reports, fill, fleet_of, step, temp_dir};
use crate::{FnProvider, ObjectId, RStarTree, Server, ServerConfig};

/// Drives a 40-object fleet ([`fleet_of`]) through 15 rounds of exit
/// reports — odd rounds as one batch, even rounds one report per call —
/// through [`Server::ingest`], and its twin, built as the ledger builds its
/// engine, through the ledger's entry; holds the twin to the fleet after
/// every batch: responses, digest, costs and work counters.
fn assert_parallel_matches_sequential(configs: [ServerConfig; 2]) -> (Server, ShardedServer) {
    let (mut seq_server, mut positions) = fleet_of(40, configs[0]);
    let mut par_server = ShardedServer::<RStarTree>::with_backend(configs[1], 1).with_threads(2);
    fill(&mut par_server, 40);
    let mut seqs = vec![0u64; positions.len()];
    for round in 1..=15u64 {
        step(&mut positions, round);
        let now = round as f64 * 0.1;
        let reports = exit_reports(&seq_server, &positions, &mut seqs);
        let size = if round % 2 == 0 { 1 } else { reports.len().max(1) };
        for batch in reports.chunks(size) {
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            seq_server.ingest(batch, &mut provider, now, &mut a);
            let table = TableProvider(&positions);
            par_server.handle_sequenced_updates_parallel_into(batch, &table, now, &mut b);
            let what = format!("round {round}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
            assert_eq!(seq_server.state_digest(), par_server.state_digest(), "{what}");
            assert_eq!(seq_server.costs(), par_server.costs(), "{what}");
            assert_eq!(seq_server.work(), par_server.work(), "{what}");
        }
    }
    (seq_server, par_server)
}

#[test]
fn parallel_path_matches_sequential_path() {
    assert_parallel_matches_sequential([ServerConfig::default(); 2]);
}

/// What the bench's `_parallel_into` entry writes to disk must be what
/// the sequential path writes, byte for byte, and replay like it.
#[test]
fn parallel_path_under_wal_stays_sequentially_logged() {
    let dirs = [temp_dir("seq"), temp_dir("par")];
    let (mut seq_server, mut par_server) = assert_parallel_matches_sequential(dirs.map(durable));
    seq_server.sync_wal();
    par_server.sync_wal();
    assert!(!par_server.wal_poisoned());
    let logged = dir_bytes(dirs[1]);
    let logs = logged.keys().filter(|name| name.starts_with("log-")).count();
    assert_eq!(2 * logs, logged.len(), "one checkpoint and one log per generation");
    assert_eq!(dir_bytes(dirs[0]), logged);
    let digest = par_server.state_digest();
    drop(par_server);
    let (recovered, replayed) =
        ShardedServer::<RStarTree>::recover(durable(dirs[1]), 1).expect("recovery");
    assert!(replayed > 0);
    assert_eq!(recovered.state_digest(), digest);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
