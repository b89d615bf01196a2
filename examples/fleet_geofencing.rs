//! Fleet geofencing: monitor which delivery vehicles are inside a set of
//! service zones (continuous range queries) while the fleet moves under the
//! random waypoint model. Demonstrates how few messages the safe-region
//! protocol needs compared to naive periodic polling.
//!
//! ```bash
//! cargo run --release --example fleet_geofencing
//! ```

use srb::core::{
    CostModel, FnProvider, ObjectId, QuerySpec, SequencedUpdate, Server, ServerConfig,
};
use srb::geom::{Point, Rect};
use srb::mobility::{MobileClient, MobilityConfig, Trajectory};

const FLEET: usize = 500;
const ZONES: usize = 12;
const DURATION: f64 = 20.0;
const TICK: f64 = 0.05;

fn main() {
    let mob = MobilityConfig {
        mean_speed: 0.02,
        mean_period: 2.0, // vehicles follow roads: long straight stretches
        ..Default::default()
    };
    let mut fleet: Vec<MobileClient> = (0..FLEET)
        .map(|i| MobileClient::new(i as u32, Trajectory::random_waypoint(7, i as u64, mob, 0.0)))
        .collect();

    let config = ServerConfig {
        max_speed: Some(mob.max_speed()), // reachability enhancement (§6.1)
        ..Default::default()
    };
    let mut server = Server::new(config);

    // Register the fleet.
    for (i, truck) in fleet.iter_mut().enumerate() {
        let pos = truck.position(0.0);
        let mut provider = FnProvider(|_id: ObjectId| unreachable!("no probes at add"));
        let sr = server.add_object(ObjectId(i as u32), pos, &mut provider, 0.0).expect("fresh id");
        truck.receive_safe_region(sr, 0.0);
    }

    // Service zones across the city.
    let mut zones = Vec::new();
    for z in 0..ZONES {
        let cx = 0.12 + 0.76 * ((z % 4) as f64) / 3.0;
        let cy = 0.15 + 0.70 * ((z / 4) as f64) / 2.0;
        let rect = Rect::centered(Point::new(cx, cy), 0.05, 0.05);
        let resp = {
            let mut positions: Vec<Point> = Vec::new();
            for c in fleet.iter_mut() {
                positions.push(c.position(0.0));
            }
            let mut provider = FnProvider(move |id: ObjectId| positions[id.index()]);
            server.register_query(QuerySpec::range(rect), &mut provider, 0.0)
        };
        for (oid, sr) in &resp.safe_regions {
            fleet[oid.index()].receive_safe_region(*sr, 0.0);
        }
        println!("zone {z} at {rect:?}: {} vehicles inside", resp.results.len());
        zones.push(resp.id);
    }

    // Drive the world. Each tick every vehicle checks its safe region — the
    // client-side cost of the protocol is exactly this containment test.
    let mut events = 0u64;
    let mut grants = Vec::new();
    let mut t = TICK;
    while t <= DURATION {
        for i in 0..FLEET {
            let pos = fleet[i].position(t);
            let sr = fleet[i].safe_region().expect("registered");
            if !sr.contains_point(pos) {
                // A report is a batch of one, numbered by the client.
                let seq = fleet[i].send_report(pos);
                let report = SequencedUpdate { id: ObjectId(i as u32), pos, seq };
                let snapshot: Vec<Point> = fleet.iter_mut().map(|c| c.position(t)).collect();
                let mut provider = FnProvider(move |id: ObjectId| snapshot[id.index()]);
                server.ingest(&[report], &mut provider, t, &mut grants);
                for (oid, resp) in grants.drain(..) {
                    events += resp.changes.len() as u64;
                    fleet[oid.index()].receive_safe_region(resp.safe_region, t);
                    for (other, sr) in resp.probed {
                        fleet[other.index()].receive_safe_region(sr, t);
                    }
                }
            }
        }
        // Deferred probes from the reachability enhancement.
        {
            let snapshot: Vec<Point> = fleet.iter_mut().map(|c| c.position(t)).collect();
            let mut provider = FnProvider(move |id: ObjectId| snapshot[id.index()]);
            for (oid, resp) in server.process_deferred(&mut provider, t) {
                fleet[oid.index()].receive_safe_region(resp.safe_region, t);
                for (other, sr) in resp.probed {
                    fleet[other.index()].receive_safe_region(sr, t);
                }
            }
        }
        t += TICK;
    }

    let costs = server.costs();
    let naive_updates = (FLEET as f64 * DURATION / TICK) as u64;
    println!("\n--- after {DURATION} time units ---");
    for (z, qid) in zones.iter().enumerate() {
        println!("zone {z}: {} vehicles inside", server.results(*qid).unwrap().len());
    }
    println!("\nzone membership changes observed: {events}");
    println!(
        "messages: {} updates + {} probes = cost {:.0}",
        costs.source_updates,
        costs.probes,
        costs.total(&CostModel::default())
    );
    println!(
        "naive polling at the same fidelity would send {naive_updates} updates ({:.0}x more)",
        naive_updates as f64 / (costs.source_updates + costs.probes).max(1) as f64
    );
}
