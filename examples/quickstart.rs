//! Quickstart: monitor a range query and a kNN query over a handful of
//! moving objects, stepping the world by hand.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use srb::core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, ShardedServer};
use srb::geom::{Point, Rect};

fn main() {
    // --- World state: four objects on a line ------------------------------
    let mut positions = vec![
        Point::new(0.10, 0.50),
        Point::new(0.30, 0.50),
        Point::new(0.60, 0.50),
        Point::new(0.90, 0.50),
    ];

    let mut server = ShardedServer::with_defaults();

    // Register the objects. The server hands each a safe region; a real
    // client would store it and report only when leaving it.
    {
        let ps = positions.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        for (i, &p) in positions.iter().enumerate() {
            let sr =
                server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
            println!("object o{i} at {p:?} got safe region {sr:?}");
        }
    }

    // --- Register continuous queries ---------------------------------------
    let (range_q, knn_q) = {
        let ps = positions.clone();
        let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
        let range = server.register_query(
            QuerySpec::range(Rect::new(Point::new(0.0, 0.4), Point::new(0.4, 0.6))),
            &mut provider,
            0.0,
        );
        println!("\nrange query {} initial results: {:?}", range.id, range.results);
        let knn =
            server.register_query(QuerySpec::knn(Point::new(1.0, 0.5), 2), &mut provider, 0.0);
        println!("2NN query {} initial results: {:?}", knn.id, knn.results);
        (range.id, knn.id)
    };

    // --- Move object o1 to the right, step by step -------------------------
    println!("\nmoving o1 rightward 0.05 per step:");
    let mut seq = 0u64;
    for step in 1..=12 {
        let now = step as f64;
        positions[1] = Point::new(positions[1].x + 0.05, 0.5);
        let pos = positions[1];
        // Client-side logic: report only when outside the safe region.
        let sr = server.safe_region(ObjectId(1)).unwrap();
        if !sr.contains_point(pos) {
            let ps = positions.clone();
            let mut provider = FnProvider(move |id: ObjectId| ps[id.index()]);
            // A report is a batch of one, numbered by the client.
            seq += 1;
            let report = SequencedUpdate { id: ObjectId(1), pos, seq };
            let mut grants = Vec::new();
            server.handle_sequenced_updates_into(&[report], &mut provider, now, &mut grants);
            let (_, resp) = grants.pop().expect("the reporter is answered");
            for change in &resp.changes {
                println!(
                    "  t={now}: o1 at x={:.2} -> query {} results now {:?}",
                    pos.x, change.query, change.results
                );
            }
            if resp.changes.is_empty() {
                println!("  t={now}: o1 reported (left safe region), no result change");
            }
        } else {
            println!("  t={now}: o1 at x={:.2}, silent (inside safe region)", pos.x);
        }
    }

    println!(
        "\nfinal results: range {:?}, 2NN {:?}",
        server.results(range_q).unwrap(),
        server.results(knn_q).unwrap()
    );
    let costs = server.costs();
    println!(
        "communication: {} source updates, {} probes (cost {:.1})",
        costs.source_updates,
        costs.probes,
        costs.total(&server.config().cost)
    );
}
