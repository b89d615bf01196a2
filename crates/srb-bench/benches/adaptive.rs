//! `adaptive` — the payoff curve of the adaptive backend plane: a
//! two-phase *skewed* workload that alternates between a regime the
//! uniform grid wins (dense population, search-heavy, tiny safe regions)
//! and one the R\*-tree wins (sparse population, update-heavy, kNN
//! browsing, large safe regions). A static backend is stuck with its
//! structure through both regimes; the adaptive engine — a [`DynBackend`]
//! steered by the real [`AdaptiveController`], which reads object counts —
//! tracks the phase switches with live migrations.
//!
//! The bench asserts that every leg answers the same query stream (equal
//! checksums) and that the adaptive leg migrates at least twice. It does
//! not assert how the totals compare: the adaptive/grid ratio it prints is
//! a measurement (EXPERIMENTS.md), and it does not always favour the
//! adaptive leg.
//!
//! A fourth leg pins the *dispatch tax*: the identical steady workload on
//! a monomorphized [`RStarTree`] vs a `DynBackend` holding one, reported
//! as ns/op so the enum seam's cost stays visible in `BENCH_adaptive.json`.

use srb_bench::{figure_header, full_scale};
use srb_core::{AdaptiveController, ShardSignals};
use srb_geom::{Point, Rect};
use srb_index::{
    AdaptiveConfig, BackendConfig, DynBackend, GridConfig, NearestScratch, RStarTree,
    SpatialBackend, TreeConfig,
};
use std::time::Instant;

const K: usize = 10;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pos_of(seed: u64, obj: u64, round: u64) -> Point {
    let h = splitmix64(seed ^ obj.wrapping_mul(0x9E37_79B9) ^ (round << 40));
    let x = (h >> 32) as f64 / u32::MAX as f64;
    let y = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
    Point::new(x.clamp(0.0, 1.0), y.clamp(0.0, 1.0))
}

fn region_of(seed: u64, obj: u64, round: u64, sr_half: f64) -> Rect {
    let base = pos_of(seed, obj, 0);
    let h = splitmix64(seed ^ (obj << 17) ^ round.wrapping_mul(0xA5A5));
    let dx = ((h >> 32) as f64 / u32::MAX as f64 - 0.5) * 4.0 * sr_half;
    let dy = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64 - 0.5) * 4.0 * sr_half;
    let c = Point::new((base.x + dx).clamp(0.0, 1.0), (base.y + dy).clamp(0.0, 1.0));
    Rect::centered(c, sr_half, sr_half)
}

/// One regime of the alternating workload. Population *growth* is ramped
/// across the regime's rounds (objects arrive over time); population
/// *shrink* happens at phase entry (departures drain at once). The
/// asymmetry is deliberate: a teleporting population would hand the whole
/// arrival burst to whatever structure the engine held at the boundary,
/// before the controller has seen a single batch of the new regime.
struct Phase {
    /// Population at the end of the regime.
    n: usize,
    /// Safe-region half-size for this regime.
    sr_half: f64,
    /// Rounds (= controller batch boundaries) the regime lasts.
    rounds: u64,
    /// Full update sweeps per round (update-heaviness knob).
    upd_sweeps: u64,
    /// Quarantine-sized range probes per round.
    searches: u64,
    /// Best-first kNN browses per round.
    knns: u64,
}

/// Dense & search-bound: the grid's regime. Population ramps up to `n`
/// over the rounds.
fn dense_phase(scale: usize) -> Phase {
    Phase {
        n: 12_000 * scale,
        sr_half: 0.0008,
        rounds: 10,
        upd_sweeps: 1,
        searches: 3_000,
        knns: 100,
    }
}

/// Sparse & update/kNN-bound: the tree's regime (the grid pays ~4x on
/// these relocations and ~2.5x on the browses — see `BENCH_backend.json`
/// at n=1000, sr=0.01).
fn sparse_phase(scale: usize) -> Phase {
    Phase { n: 800 * scale, sr_half: 0.012, rounds: 24, upd_sweeps: 6, searches: 200, knns: 400 }
}

struct Outcome {
    total_secs: f64,
    dense_secs: f64,
    sparse_secs: f64,
    checksum: f64,
}

/// Drives the alternating phases through one backend. `after_round` fires
/// at every round boundary — the adaptive leg hangs the controller there;
/// static legs pass a no-op. All work,
/// including phase-entry resizes and any live migrations performed by the
/// hook, lands inside the measured time: the adaptive engine pays for its
/// rebuilds on the same clock it wins rounds with.
fn run_scenario<B: SpatialBackend>(
    config: &BackendConfig,
    cycles: u64,
    scale: usize,
    seed: u64,
    mut after_round: impl FnMut(&mut B),
) -> Outcome {
    let mut b = B::build(config, Rect::UNIT);
    let mut cur_n = 0usize;
    let mut round_no = 1u64;
    let mut hits = 0u64;
    let mut knn_sum = 0.0f64;
    let mut scratch = NearestScratch::new();
    let (mut dense_secs, mut sparse_secs) = (0.0f64, 0.0f64);

    for cycle in 0..cycles {
        for (pi, phase) in [dense_phase(scale), sparse_phase(scale)].iter().enumerate() {
            let t0 = Instant::now();
            // Phase entry: departures drain at once; every survivor's safe
            // region is re-issued at this regime's size.
            for i in phase.n..cur_n {
                b.remove(i as u64);
            }
            cur_n = cur_n.min(phase.n);
            let enter_n = cur_n;
            for i in 0..enter_n {
                b.update(i as u64, region_of(seed, i as u64, round_no, phase.sr_half));
            }

            for round in 1..=phase.rounds {
                round_no += 1;
                // Arrivals: this round's slice of the ramp up to `phase.n`.
                let target = enter_n + (phase.n - enter_n) * round as usize / phase.rounds as usize;
                while cur_n < target {
                    b.insert(cur_n as u64, region_of(seed, cur_n as u64, round_no, phase.sr_half));
                    cur_n += 1;
                }
                for _ in 0..phase.upd_sweeps {
                    for i in 0..cur_n {
                        b.update(i as u64, region_of(seed, i as u64, round_no, phase.sr_half));
                    }
                }
                for s in 0..phase.searches {
                    let c = pos_of(seed ^ 0xBEEF ^ (cycle << 20), s ^ (round_no << 32), 1);
                    let q = Rect::centered(c, 0.01, 0.01);
                    b.search(&q, &mut |_| hits += 1);
                }
                for s in 0..phase.knns {
                    let c = pos_of(seed ^ 0xF00D ^ (cycle << 20), s ^ (round_no << 32), 2);
                    for nb in b.nearest_iter_with(c, &mut scratch).take(K) {
                        knn_sum += nb.dist;
                    }
                }
                after_round(&mut b);
            }
            let secs = t0.elapsed().as_secs_f64();
            if pi == 0 {
                dense_secs += secs;
            } else {
                sparse_secs += secs;
            }
        }
    }
    assert!(knn_sum.is_finite());
    b.check_invariants();
    Outcome {
        total_secs: dense_secs + sparse_secs,
        dense_secs,
        sparse_secs,
        checksum: hits as f64 + knn_sum,
    }
}

/// The controller the adaptive leg runs: paper-default thresholds except a
/// tight decision cadence (so phase tracking costs at most a couple of
/// rounds of lag per switch) and a density threshold sitting low on the
/// dense regime's arrival ramp, so the structure flips while the
/// population, and therefore the rebuild, is still small.
fn controller_config() -> AdaptiveConfig {
    AdaptiveConfig { decision_every: 1, confirm: 1, dense_above: 3_000, ..Default::default() }
}

/// Dispatch-tax microbench: the same update/search loop, monomorphized vs
/// enum-dispatched over the identical R\*-tree. Returns (ns/update,
/// ns/search) for one backend.
fn dispatch_leg<B: SpatialBackend>(config: &BackendConfig, seed: u64) -> (f64, f64) {
    let n: usize = 4_000;
    let sr = 0.001;
    let mut b = B::build(config, Rect::UNIT);
    for i in 0..n {
        b.insert(i as u64, region_of(seed, i as u64, 0, sr));
    }
    let rounds: u64 = if full_scale() { 24 } else { 8 };
    let t0 = Instant::now();
    for round in 1..=rounds {
        for i in 0..n {
            b.update(i as u64, region_of(seed, i as u64, round, sr));
        }
    }
    let upd_ns = t0.elapsed().as_secs_f64() * 1e9 / (rounds * n as u64) as f64;

    let searches: u64 = if full_scale() { 24_000 } else { 8_000 };
    let mut hits = 0u64;
    let t0 = Instant::now();
    for s in 0..searches {
        let c = pos_of(seed ^ 0xBEEF, s, 1);
        b.search(&Rect::centered(c, 0.01, 0.01), &mut |_| hits += 1);
    }
    let search_ns = t0.elapsed().as_secs_f64() * 1e9 / searches as f64;
    assert!(hits > 0);
    (upd_ns, search_ns)
}

fn main() {
    let sim = srb_bench::base_config();
    figure_header(
        "Adaptive",
        "adaptive backend plane: static rstar vs static grid vs controller-steered DynBackend",
        &sim,
    );
    let (commit, cores) = srb_bench::provenance();
    println!("    commit={commit} cores={cores}");
    let seed = sim.seed;
    let scale = if full_scale() { 2 } else { 1 };
    let cycles: u64 = 2;

    let rstar_cfg = BackendConfig::RStar(TreeConfig::default());
    let grid_cfg = BackendConfig::Grid(GridConfig::default());

    // Best-of-2 per leg, interleaved so background load hits all equally.
    let best = |f: &dyn Fn() -> (Outcome, u64, u64)| {
        let a = f();
        let b = f();
        if a.0.total_secs <= b.0.total_secs {
            a
        } else {
            b
        }
    };
    let static_leg = |cfg: &BackendConfig, is_grid: bool| {
        let cfg = *cfg;
        move || {
            let out = if is_grid {
                run_scenario::<srb_index::UniformGrid>(&cfg, cycles, scale, seed, |_| {})
            } else {
                run_scenario::<RStarTree>(&cfg, cycles, scale, seed, |_| {})
            };
            (out, 0u64, 0u64)
        }
    };
    let adaptive_leg = || {
        let acfg = controller_config();
        let mut ctl = AdaptiveController::new(acfg, 1);
        let out =
            run_scenario::<DynBackend>(&BackendConfig::Adaptive(acfg), cycles, scale, seed, |b| {
                if ctl.note_batch() {
                    let sig =
                        ShardSignals { len: b.len(), kind: b.kind(), grid_m: b.grid_resolution() };
                    if let Some(action) = ctl.decide(0, sig) {
                        b.migrate(&ctl.config_for(action));
                    }
                }
            });
        (out, ctl.migrations(), ctl.retunes())
    };

    let legs: Vec<(&str, (Outcome, u64, u64))> = vec![
        ("rstar", best(&static_leg(&rstar_cfg, false))),
        ("grid", best(&static_leg(&grid_cfg, true))),
        ("adaptive", best(&adaptive_leg)),
    ];

    // Every leg answers the identical query stream; the checksums agree or
    // the comparison is meaningless.
    let checksum = legs[0].1 .0.checksum;
    for (label, (out, _, _)) in &legs {
        assert!(
            (out.checksum - checksum).abs() < 1e-6,
            "{label} answered a different query stream"
        );
    }
    // The adaptive leg must actually have tracked the phase switches:
    // 2 cycles x 2 switches, minus the initial regime it was born into.
    let migrations = legs[2].1 .1;
    assert!(migrations >= 2, "controller tracked no phase switches (migrations={migrations})");

    let mut rows: Vec<String> = Vec::new();
    for (label, (out, migrations, retunes)) in &legs {
        println!(
            "{label:<9} total={:>8.1}ms dense={:>8.1}ms sparse={:>8.1}ms migrations={migrations} retunes={retunes}",
            out.total_secs * 1e3,
            out.dense_secs * 1e3,
            out.sparse_secs * 1e3,
        );
        rows.push(
            serde_json::json!({
                "figure": "adaptive",
                "series": *label,
                "total_secs": out.total_secs,
                "dense_secs": out.dense_secs,
                "sparse_secs": out.sparse_secs,
                "migrations": *migrations,
                "retunes": *retunes,
                "cycles": cycles,
                "scale": scale as u64,
                "commit": commit.as_str(),
                "cores": cores,
            })
            .to_string(),
        );
    }

    // Dispatch tax: interleaved best-of-2, monomorphized vs enum seam.
    let mono = {
        let a = dispatch_leg::<RStarTree>(&rstar_cfg, seed);
        let b = dispatch_leg::<RStarTree>(&rstar_cfg, seed);
        (a.0.min(b.0), a.1.min(b.1))
    };
    let dynd = {
        let a = dispatch_leg::<DynBackend>(&rstar_cfg, seed);
        let b = dispatch_leg::<DynBackend>(&rstar_cfg, seed);
        (a.0.min(b.0), a.1.min(b.1))
    };
    println!(
        "dispatch  mono update={:.1}ns search={:.1}ns | dyn update={:.1}ns search={:.1}ns | tax update={:+.1}% search={:+.1}%",
        mono.0, mono.1, dynd.0, dynd.1,
        (dynd.0 / mono.0 - 1.0) * 100.0,
        (dynd.1 / mono.1 - 1.0) * 100.0,
    );
    rows.push(
        serde_json::json!({
            "figure": "adaptive",
            "series": "dispatch-overhead",
            "mono_update_ns": mono.0,
            "mono_search_ns": mono.1,
            "dyn_update_ns": dynd.0,
            "dyn_search_ns": dynd.1,
            "update_tax_pct": (dynd.0 / mono.0 - 1.0) * 100.0,
            "search_tax_pct": (dynd.1 / mono.1 - 1.0) * 100.0,
            "commit": commit.as_str(),
            "cores": cores,
        })
        .to_string(),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adaptive.json");
    let body = format!("[\n  {}\n]\n", rows.join(",\n  "));
    match srb_durable::atomic::atomic_write(std::path::Path::new(path), body.as_bytes()) {
        Ok(()) => println!("\nwrote {}", path),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
