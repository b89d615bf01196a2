//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. **Batch vs per-query range safe regions** (§5.3): the staircase
//!    algorithm over all blocking rectangles at once versus intersecting
//!    individually-computed complements.
//! 2. **Bottom-up update vs delete+reinsert** in the R*-tree (§3.2).
//! 3. **STR bulk load vs one-by-one insertion** (the PRD rebuild path).
//!
//! One [`time_row`] row each.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srb_bench::time_row;
use srb_geom::{irlp_rect_complement_batch, OrdinaryPerimeter, Point, Rect};
use srb_index::{bulk_load, LeafEntry, RStarTree, TreeConfig};
use std::hint::black_box;

fn bench_batch_vs_individual() {
    let cell = Rect::new(Point::new(0.4, 0.4), Point::new(0.42, 0.42));
    let p = Point::new(0.41, 0.41);
    let mut rng = StdRng::seed_from_u64(9);
    let blocks: Vec<Rect> = (0..12)
        .map(|_| {
            let c = Point::new(0.4 + rng.gen::<f64>() * 0.02, 0.4 + rng.gen::<f64>() * 0.02);
            Rect::centered(c, 0.0015, 0.0015)
        })
        .filter(|r| !(p.x > r.min().x && p.x < r.max().x && p.y > r.min().y && p.y < r.max().y))
        .collect();

    time_row(
        "ablation_range_safe_region/batch_staircase",
        || (),
        |()| irlp_rect_complement_batch(black_box(&blocks), p, &cell, &OrdinaryPerimeter),
    );
    time_row(
        "ablation_range_safe_region/individual_intersection",
        || (),
        |()| {
            let mut sr = cell;
            for blk in &blocks {
                let r = irlp_rect_complement_batch(
                    std::slice::from_ref(blk),
                    p,
                    &cell,
                    &OrdinaryPerimeter,
                );
                sr = sr.intersection(&r).unwrap_or(Rect::point(p));
            }
            sr
        },
    );
    // Also report the quality difference once.
    let batch = irlp_rect_complement_batch(&blocks, p, &cell, &OrdinaryPerimeter);
    let mut indiv = cell;
    for blk in &blocks {
        let r = irlp_rect_complement_batch(std::slice::from_ref(blk), p, &cell, &OrdinaryPerimeter);
        indiv = indiv.intersection(&r).unwrap_or(Rect::point(p));
    }
    println!(
        "\n[ablation] safe-region perimeter: batch {:.6} vs individual {:.6} ({:+.1}%)",
        batch.perimeter(),
        indiv.perimeter(),
        100.0 * (batch.perimeter() - indiv.perimeter()) / indiv.perimeter().max(1e-12)
    );
}

fn bench_update_strategies() {
    let mut rng = StdRng::seed_from_u64(4);
    let pts: Vec<Point> = (0..10_000).map(|_| Point::new(rng.gen(), rng.gen())).collect();

    let build = || {
        let mut t = RStarTree::default();
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u64, Rect::centered(*p, 0.002, 0.002));
        }
        t
    };

    let (mut tree, mut i) = (build(), 0u64);
    time_row(
        "ablation_index_update/bottom_up_update",
        || (),
        |()| {
            let id = i % 10_000;
            let p = pts[id as usize];
            // Small wiggle: mostly hits the in-place fast path.
            tree.update(id, Rect::centered(p, 0.0019, 0.0021));
            i += 1;
        },
    );
    let (mut tree, mut i) = (build(), 0u64);
    time_row(
        "ablation_index_update/delete_plus_reinsert",
        || (),
        |()| {
            let id = i % 10_000;
            let p = pts[id as usize];
            tree.remove(id);
            tree.insert(id, Rect::centered(p, 0.0019, 0.0021));
            i += 1;
        },
    );
}

fn bench_build_strategies() {
    let mut rng = StdRng::seed_from_u64(8);
    let entries: Vec<LeafEntry> = (0..20_000)
        .map(|i| LeafEntry { id: i as u64, rect: Rect::point(Point::new(rng.gen(), rng.gen())) })
        .collect();

    time_row(
        "ablation_index_build/str_bulk_load_20k",
        || entries.clone(),
        |es| bulk_load(es, TreeConfig::default()),
    );
    time_row(
        "ablation_index_build/insert_one_by_one_20k",
        || entries.clone(),
        |es| {
            let mut t = RStarTree::default();
            for e in es {
                t.insert(e.id, e.rect);
            }
            t
        },
    );
}

fn main() {
    bench_batch_vs_individual();
    bench_update_strategies();
    bench_build_strategies();
}
