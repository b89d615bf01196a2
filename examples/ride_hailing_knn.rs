//! Ride hailing: each pickup point continuously monitors its k nearest
//! drivers (order-sensitive kNN — dispatch wants the ranking). Shows live
//! result maintenance, per-query quarantine areas, and the probe traffic
//! the lazy evaluation generates.
//!
//! ```bash
//! cargo run --release --example ride_hailing_knn
//! ```

use srb::core::{FnProvider, ObjectId, Quarantine, QuerySpec, SequencedUpdate, ShardedServer};
use srb::geom::Point;
use srb::mobility::{MobileClient, MobilityConfig, Trajectory};

const DRIVERS: usize = 800;
const PICKUPS: usize = 6;
const K: usize = 3;
const DURATION: f64 = 10.0;
const TICK: f64 = 0.02;

fn main() {
    let mob = MobilityConfig { mean_speed: 0.03, mean_period: 1.0, ..Default::default() };
    let mut drivers: Vec<MobileClient> = (0..DRIVERS)
        .map(|i| MobileClient::new(i as u32, Trajectory::random_waypoint(99, i as u64, mob, 0.0)))
        .collect();

    let mut server = ShardedServer::with_defaults();
    for (i, driver) in drivers.iter_mut().enumerate() {
        let pos = driver.position(0.0);
        let mut provider = FnProvider(|_id: ObjectId| unreachable!());
        let sr = server.add_object(ObjectId(i as u32), pos, &mut provider, 0.0).expect("fresh id");
        driver.receive_safe_region(sr, 0.0);
    }

    // Pickup points around the city center.
    let mut pickups = Vec::new();
    for p in 0..PICKUPS {
        let angle = p as f64 / PICKUPS as f64 * std::f64::consts::TAU;
        let center = Point::new(0.5 + 0.25 * angle.cos(), 0.5 + 0.25 * angle.sin());
        let resp = {
            let snapshot: Vec<Point> = drivers.iter_mut().map(|c| c.position(0.0)).collect();
            let mut provider = FnProvider(move |id: ObjectId| snapshot[id.index()]);
            server.register_query(QuerySpec::knn(center, K), &mut provider, 0.0)
        };
        for (oid, sr) in &resp.safe_regions {
            drivers[oid.index()].receive_safe_region(*sr, 0.0);
        }
        println!("pickup {p} at {center:?}: nearest drivers {:?}", resp.results);
        pickups.push((resp.id, center));
    }

    // Drive and log dispatch-order changes for pickup 0.
    let mut changes_for_p0 = 0u64;
    let mut t = TICK;
    while t <= DURATION {
        for i in 0..DRIVERS {
            let pos = drivers[i].position(t);
            let sr = drivers[i].safe_region().expect("registered");
            if !sr.contains_point(pos) {
                // A report is a batch of one, numbered by the client.
                let seq = drivers[i].send_report(pos);
                let report = SequencedUpdate { id: ObjectId(i as u32), pos, seq };
                let snapshot: Vec<Point> = drivers.iter_mut().map(|c| c.position(t)).collect();
                let mut provider = FnProvider(move |id: ObjectId| snapshot[id.index()]);
                let mut grants = Vec::new();
                server.handle_sequenced_updates_into(&[report], &mut provider, t, &mut grants);
                let (_, resp) = grants.pop().expect("the reporter is answered");
                drivers[i].receive_safe_region(resp.safe_region, t);
                for (oid, sr) in resp.probed {
                    drivers[oid.index()].receive_safe_region(sr, t);
                }
                for c in resp.changes {
                    if c.query == pickups[0].0 {
                        changes_for_p0 += 1;
                        if changes_for_p0 <= 8 {
                            println!("t={t:.2}: pickup 0 ranking now {:?}", c.results);
                        }
                    }
                }
            }
        }
        t += TICK;
    }

    println!("\n--- after {DURATION} time units ---");
    for (p, (qid, center)) in pickups.iter().enumerate() {
        let results = server.results(*qid).unwrap();
        let quarantine = match server.quarantine(*qid) {
            Some(Quarantine::Circle(c)) => format!("radius {:.4}", c.radius),
            _ => "?".into(),
        };
        println!(
            "pickup {p} at ({:.2}, {:.2}): top-{K} {:?} (quarantine {quarantine})",
            center.x, center.y, results
        );
    }
    let costs = server.costs();
    println!(
        "\npickup-0 ranking changed {changes_for_p0} times; total messages: {} updates, {} probes",
        costs.source_updates, costs.probes
    );
}
