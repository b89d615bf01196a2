//! Fault-injection tests: the lossy channel, sequence-number dedup, lease
//! recovery, and graceful degradation of the SRB scheme under message loss.

use proptest::prelude::*;
use srb_core::{
    FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ServerError, ShardedServer,
};
use srb_geom::{Point, Rect};
use srb_mobility::RetryPolicy;
use srb_sim::{run_prd, run_srb, ChannelConfig, SimConfig};

fn faults_cfg() -> SimConfig {
    SimConfig {
        n_objects: 150,
        n_queries: 10,
        duration: 3.0,
        sample_interval: 0.1,
        grid_m: 20,
        seed: 20,
        ..SimConfig::paper_defaults()
    }
}

// ---------------------------------------------------------------------------
// Server-level hardening
// ---------------------------------------------------------------------------

#[test]
fn unknown_object_update_is_dropped_and_counted_not_a_panic() {
    let mut server = ShardedServer::with_defaults();
    let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
    let stray = SequencedUpdate { id: ObjectId(7), pos: Point::new(0.5, 0.5), seq: 1 };
    let mut resps = Vec::new();
    server.handle_sequenced_updates_into(&[stray], &mut provider, 0.0, &mut resps);
    assert!(resps.is_empty());
    assert_eq!(server.work().unknown_object_drops, 1);
    assert_eq!(server.costs().source_updates, 0, "a dropped report is not charged");
}

#[test]
fn duplicate_registration_is_rejected() {
    let mut server = ShardedServer::with_defaults();
    let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
    server.add_object(ObjectId(0), Point::new(0.2, 0.2), &mut provider, 0.0).unwrap();
    let err = server.add_object(ObjectId(0), Point::new(0.8, 0.8), &mut provider, 0.0).unwrap_err();
    assert_eq!(err, ServerError::DuplicateObject(ObjectId(0)));
    // Replayed registration must not have moved the object.
    assert_eq!(server.last_known(ObjectId(0)).unwrap().0, Point::new(0.2, 0.2));
}

#[test]
fn duplicate_sequenced_update_is_dropped_and_regranted() {
    let mut server = ShardedServer::with_defaults();
    let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
    server.add_object(ObjectId(0), Point::new(0.2, 0.2), &mut provider, 0.0).unwrap();
    server.add_object(ObjectId(1), Point::new(0.8, 0.8), &mut provider, 0.0).unwrap();

    let u = SequencedUpdate { id: ObjectId(0), pos: Point::new(0.4, 0.4), seq: 1 };
    let (mut r1, mut r2) = (Vec::new(), Vec::new());
    server.handle_sequenced_updates_into(&[u], &mut provider, 0.1, &mut r1);
    assert_eq!(r1.len(), 1);
    assert_eq!(server.costs().source_updates, 1);

    // The channel delivered a second copy later: dropped idempotently, but
    // answered with the *current* safe region so a client whose grant was
    // lost still converges.
    server.handle_sequenced_updates_into(&[u], &mut provider, 0.2, &mut r2);
    assert_eq!(server.costs().source_updates, 1, "duplicate must not be charged");
    assert_eq!(server.work().stale_seq_drops, 1);
    assert_eq!(server.work().regrants, 1);
    assert_eq!(r2.len(), 1);
    assert_eq!(r2[0].1.safe_region, server.safe_region(ObjectId(0)).unwrap());
    assert_eq!(server.last_known(ObjectId(0)).unwrap().0, Point::new(0.4, 0.4));

    // A reordered (older-than-accepted) sequence number behaves the same.
    let stale = SequencedUpdate { id: ObjectId(0), pos: Point::new(0.9, 0.9), seq: 0 };
    server.handle_sequenced_updates_into(&[stale], &mut provider, 0.3, &mut Vec::new());
    assert_eq!(server.work().stale_seq_drops, 2);
    assert_eq!(server.last_known(ObjectId(0)).unwrap().0, Point::new(0.4, 0.4));
    server.check_invariants();
}

#[test]
fn in_batch_duplicates_accept_first_copy_only() {
    let mut server = ShardedServer::with_defaults();
    let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
    for i in 0..3u32 {
        server
            .add_object(ObjectId(i), Point::new(0.1 + 0.3 * i as f64, 0.5), &mut provider, 0.0)
            .unwrap();
    }
    let u = SequencedUpdate { id: ObjectId(1), pos: Point::new(0.45, 0.5), seq: 1 };
    let mut resps = Vec::new();
    server.handle_sequenced_updates_into(&[u, u], &mut provider, 0.1, &mut resps);
    assert_eq!(server.costs().source_updates, 1);
    assert_eq!(server.work().stale_seq_drops, 1);
    // One accepted response plus one regrant, both for object 1.
    assert_eq!(resps.len(), 2);
    assert!(resps.iter().all(|(oid, _)| *oid == ObjectId(1)));
    server.check_invariants();
}

/// The deterministic lost-exit-report replay: a client leaves its safe
/// region but the report never arrives. Without leases the server would
/// trust the stale safe region forever; with a lease it probes the silent
/// object when the lease lapses and repairs the query result.
#[test]
fn lease_probe_recovers_dropped_exit_report() {
    let mut server = ShardedServer::new(ServerConfig { lease: Some(1.0), ..Default::default() }, 1);
    // True world state, mutated to simulate movement the server never hears
    // about.
    let mut world = vec![Point::new(0.30, 0.50), Point::new(0.70, 0.50)];
    {
        let w = world.clone();
        let mut provider = FnProvider(move |id: ObjectId| w[id.index()]);
        for (i, &p) in world.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
    }
    let qid = {
        let w = world.clone();
        let mut provider = FnProvider(move |id: ObjectId| w[id.index()]);
        let resp = server.register_query(
            QuerySpec::range(Rect::new(Point::new(0.25, 0.45), Point::new(0.45, 0.55))),
            &mut provider,
            0.0,
        );
        assert_eq!(resp.results, vec![ObjectId(0)]);
        resp.id
    };

    // Object 0 wanders far out of the query (and its safe region). Its exit
    // report is dropped by the channel: the server is never told.
    world[0] = Point::new(0.60, 0.50);
    assert_eq!(server.results(qid).unwrap(), &[ObjectId(0)], "stale result before recovery");

    // The lease lapses one time unit after last contact.
    let due = server.next_deferred_due().expect("lease timer scheduled");
    assert!((due - 1.0).abs() < 1e-9, "lease due at t_lst + lease, got {due}");

    let w = world.clone();
    let mut provider = FnProvider(move |id: ObjectId| w[id.index()]);
    let resps = server.process_deferred(&mut provider, due);
    // Both objects registered at t = 0, so both leases lapse together and
    // both silent objects are probed.
    assert_eq!(server.work().lease_probes, 2);
    assert!(resps.iter().any(|(oid, _)| *oid == ObjectId(0)), "silent object probed");
    assert!(server.results(qid).unwrap().is_empty(), "result repaired after lease probe");
    server.check_invariants();

    // Contact renews the lease: a fresh timer is pending for the probed
    // object, due one lease after the probe.
    let due2 = server.next_deferred_due().expect("lease renewed");
    assert!(due2 > due + 0.5);
}

#[test]
fn contact_renews_lease_without_probing() {
    let mut server = ShardedServer::new(ServerConfig { lease: Some(0.5), ..Default::default() }, 1);
    let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
    server.add_object(ObjectId(0), Point::new(0.5, 0.5), &mut provider, 0.0).unwrap();
    // The client reports (voluntarily) every 0.4 < lease: the old timer goes
    // stale on every contact and no lease probe ever fires.
    for k in 1..=5 {
        let t = 0.4 * k as f64;
        let u = SequencedUpdate { id: ObjectId(0), pos: Point::new(0.5, 0.5), seq: k };
        server.handle_sequenced_updates_into(&[u], &mut provider, t, &mut Vec::new());
        server.process_deferred(&mut provider, t);
    }
    assert_eq!(server.work().lease_probes, 0);
    assert_eq!(server.costs().probes, 0);
}

// ---------------------------------------------------------------------------
// Simulation-level fault behavior
// ---------------------------------------------------------------------------

#[test]
fn faulty_runs_are_deterministic_in_the_seed() {
    let cfg = SimConfig {
        channel: ChannelConfig {
            loss: 0.10,
            duplication: 0.05,
            jitter: 0.02,
            ..ChannelConfig::IDEAL
        },
        lease: Some(0.5),
        ..faults_cfg()
    };
    let a = run_srb(&cfg);
    let b = run_srb(&cfg);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.uplinks, b.uplinks);
    assert_eq!(a.uplinks_sent, b.uplinks_sent);
    assert_eq!(a.retransmissions, b.retransmissions);
    assert_eq!(a.probes, b.probes);
    assert_eq!(a.stale_seq_drops, b.stale_seq_drops);
    assert_eq!(a.lease_probes, b.lease_probes);
    assert_eq!(a.channel_drops, b.channel_drops);
}

#[test]
fn ideal_channel_has_no_fault_traffic() {
    let m = run_srb(&faults_cfg());
    assert_eq!(m.accuracy, 1.0, "reliable channel keeps SRB exact");
    assert_eq!(m.uplinks_sent, m.uplinks, "no retransmissions, no losses");
    assert_eq!(m.retransmissions, 0);
    assert_eq!(m.stale_seq_drops, 0);
    assert_eq!(m.lease_probes, 0);
    assert_eq!(m.regrants, 0);
    assert_eq!(m.channel_drops, 0);
}

#[test]
fn srb_with_leases_degrades_gracefully_at_5pct_loss() {
    let cfg = SimConfig {
        channel: ChannelConfig::lossy(0.05),
        lease: Some(0.5),
        retry: RetryPolicy { timeout: 0.1, max_retries: 6 },
        ..faults_cfg()
    };
    let m = run_srb(&cfg);
    assert!(
        m.accuracy >= 0.90,
        "5% loss with lease recovery must keep accuracy >= 0.90, got {}",
        m.accuracy
    );
    assert!(m.uplinks_sent >= m.uplinks, "sends include lost messages");
    assert!(m.channel_drops > 0, "at 5% loss some messages must drop");
}

#[test]
fn accuracy_degrades_monotonically_in_loss() {
    // Tolerance-based: different loss rates consume the fault RNG stream
    // differently, so monotonicity holds up to sampling noise.
    const TOL: f64 = 0.03;
    let mut prev = f64::INFINITY;
    for loss in [0.0, 0.05, 0.25] {
        let cfg =
            SimConfig { channel: ChannelConfig::lossy(loss), lease: Some(0.5), ..faults_cfg() };
        let m = run_srb(&cfg);
        assert!(
            m.accuracy <= prev + TOL,
            "accuracy {} at loss {loss} above previous {prev}",
            m.accuracy
        );
        prev = m.accuracy;
    }
    assert!(prev < 1.0, "25% loss must show measurable degradation");
}

#[test]
fn prd_loses_accuracy_under_loss_but_still_runs() {
    let base = faults_cfg();
    let clean = run_prd(&base, 0.1);
    let lossy = run_prd(&SimConfig { channel: ChannelConfig::lossy(0.25), ..base }, 0.1);
    assert!(lossy.accuracy <= clean.accuracy + 1e-9);
    assert!(lossy.channel_drops > 0);
    assert_eq!(lossy.uplinks_sent, clean.uplinks_sent, "PRD clients send every round regardless");
    assert!(lossy.uplinks < lossy.uplinks_sent);
}

#[test]
fn outages_disconnect_clients_without_breaking_the_run() {
    let cfg = SimConfig {
        channel: ChannelConfig { outage_rate: 0.5, outage_duration: 0.3, ..ChannelConfig::IDEAL },
        lease: Some(0.5),
        ..faults_cfg()
    };
    let m = run_srb(&cfg);
    assert!(m.accuracy > 0.5, "outages degrade but must not destroy monitoring");
    assert!(m.samples > 0);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded fault schedule completes without panicking and yields a
    /// sane metric set.
    #[test]
    fn random_fault_schedules_never_panic(
        seed in 0u64..1_000,
        loss in 0.0f64..0.4,
        duplication in 0.0f64..0.3,
        jitter in 0.0f64..0.05,
        lease in prop::option::of(0.2f64..1.5),
    ) {
        let cfg = SimConfig {
            n_objects: 60,
            n_queries: 6,
            duration: 1.5,
            sample_interval: 0.25,
            grid_m: 10,
            seed,
            channel: ChannelConfig { loss, duplication, jitter, ..ChannelConfig::IDEAL },
            lease,
            ..SimConfig::paper_defaults()
        };
        let m = run_srb(&cfg);
        prop_assert!((0.0..=1.0).contains(&m.accuracy));
        prop_assert!(m.uplinks_sent >= m.uplinks);
        prop_assert!(m.samples > 0);
    }

    /// Random sequenced-update batches — including replays, reorderings and
    /// unknown ids — never corrupt server state.
    #[test]
    fn random_sequenced_batches_keep_invariants(
        seed in 0u64..10_000,
        steps in 1usize..10,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 25usize;
        let mut world: Vec<Point> =
            (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        let mut seqs = vec![0u64; n];
        let lease = if rng.gen::<bool>() { Some(0.4) } else { None };
        let mut server = ShardedServer::new(ServerConfig { lease, ..Default::default() }, 1);
        {
            let w = world.clone();
            let mut provider = FnProvider(move |id: ObjectId| w[id.index()]);
            for (i, &p) in world.iter().enumerate() {
                server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            }
            for k in 0..4 {
                let c = Point::new(rng.gen(), rng.gen());
                let spec = if k % 2 == 0 {
                    QuerySpec::range(
                        Rect::centered(c, 0.1, 0.1).intersection(&Rect::UNIT).unwrap(),
                    )
                } else {
                    QuerySpec::knn(c, 1 + k)
                };
                server.register_query(spec, &mut provider, 0.0);
            }
        }
        for step in 1..=steps {
            let now = step as f64 * 0.2;
            let mut batch = Vec::new();
            for i in 0..n {
                if rng.gen::<f64>() < 0.4 {
                    let p = world[i];
                    world[i] = Point::new(
                        (p.x + rng.gen::<f64>() * 0.1 - 0.05).clamp(0.0, 1.0),
                        (p.y + rng.gen::<f64>() * 0.1 - 0.05).clamp(0.0, 1.0),
                    );
                    seqs[i] += 1;
                    let u = SequencedUpdate { id: ObjectId(i as u32), pos: world[i], seq: seqs[i] };
                    batch.push(u);
                    if rng.gen::<f64>() < 0.3 {
                        batch.push(u); // channel duplicate
                    }
                    if seqs[i] > 1 && rng.gen::<f64>() < 0.2 {
                        // replay of an old report
                        batch.push(SequencedUpdate {
                            id: ObjectId(i as u32),
                            pos: p,
                            seq: seqs[i] - 1,
                        });
                    }
                }
            }
            // An unregistered straggler, occasionally.
            if rng.gen::<f64>() < 0.3 {
                batch.push(SequencedUpdate {
                    id: ObjectId((n + 5) as u32),
                    pos: Point::new(0.5, 0.5),
                    seq: 1,
                });
            }
            let w = world.clone();
            let mut provider = FnProvider(move |id: ObjectId| w[id.index()]);
            server.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
            server.process_deferred(&mut provider, now);
            server.check_invariants();
        }
        // Exactly one accepted update per client-side sequence increment:
        // every duplicate and replay was rejected, every fresh report
        // accepted.
        let assigned: u64 = seqs.iter().sum();
        prop_assert_eq!(server.costs().source_updates, assigned);
    }
}
