//! The four workloads and their seeded input generators. Everything the
//! engine sees — trajectories, query specs, the churn schedule — is made
//! here from the seed; README.md records why each workload exists.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use srb_core::{AdaptiveConfig, BackendConfig, QuerySpec, TreeConfig};
use srb_geom::{Point, Rect};
use srb_mobility::{MobilityConfig, Segment, Trajectory};
use srb_sim::{generate_workload, SimConfig};

/// Interval between ground-truth samples, in simulated time units.
pub const SAMPLE_INTERVAL: f64 = 0.5;
/// Number of Gaussian hotspots in `hotspot_sharded`.
pub const HOTSPOTS: usize = 4;
/// Standard deviation of each hotspot. The issue's 0.03 packs a hotspot 13
/// times as densely as `uniform`'s space, and there the seed engine's cost
/// is set by a few kNN queries whose neighbours sit at near-equal distance:
/// ten seeds spread by 42 % in engine time and 14 % in `comm_cost`, and a
/// time unit costs four times what it does at 0.05 (spread 6 to 15 % and
/// 4 %), which also leaves room for 10 000 objects instead of 6 000.
pub const HOTSPOT_SIGMA: f64 = 0.05;
/// Mean movement period of the scripted hotspot trajectories. Ten times
/// the paper's 0.005 so a whole run's script fits in memory (scripts are
/// materialized up front; random-waypoint trajectories are lazy).
const HOTSPOT_MEAN_PERIOD: f64 = 0.05;

/// Which object-index backend a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The paper's R\*-tree, monomorphized.
    RStar,
    /// The runtime-dispatched `DynBackend` with the adaptive controller
    /// watching.
    Adaptive,
}

impl Backend {
    /// The engine-side config.
    pub fn config(self) -> BackendConfig {
        match self {
            Backend::RStar => BackendConfig::RStar(TreeConfig::default()),
            // Default thresholds: at 5 000 objects a shard the controller
            // watches and never acts (no migration on 20 seeds tried).
            Backend::Adaptive => BackendConfig::Adaptive(AdaptiveConfig::default()),
        }
    }
}

/// Where objects move and where the queries registered at set-up sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Random-waypoint objects and the queries `srb_sim::generate_workload`
    /// draws: the inputs of `srb_sim::run_srb`, which the fidelity test
    /// holds the driver against. No workload runs on it.
    Simulator,
    /// Random-waypoint objects; query centres jittered on a lattice that
    /// covers the space.
    Uniform,
    /// Four objects and queries in five bound to Gaussian hotspots.
    Hotspots,
}

/// Table churn applied every `ticks` check ticks, at the check instant and
/// after its reports: every object has then just checked its safe region, so
/// a probe finds none outside the region the engine holds for it. (Between
/// check instants an object may have left its region unreported, and the seed
/// engine does not fold what an `add_object` or `remove_object` probe reveals
/// about such an object into the results of the queries already registered:
/// one seed in thirty then ends with an oracle mismatch.)
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Check ticks between two rounds of churn.
    pub ticks: u64,
    /// Queries deregistered and replaced by fresh ones.
    pub queries: usize,
    /// Objects removed and re-added at their current position.
    pub objects: usize,
}

/// One workload: the static shape of a run.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Moving objects `N`.
    pub n_objects: usize,
    /// Registered queries `W` (constant under churn).
    pub n_queries: usize,
    /// Client check granularity: reports happen on multiples of it.
    pub tick: f64,
    /// Engine shards.
    pub shards: usize,
    /// Engine worker threads wanted (capped to the cores present).
    pub threads: usize,
    /// Object-index backend.
    pub backend: Backend,
    /// Where objects and queries are.
    pub placement: Placement,
    /// Per-tick table churn.
    pub churn: Option<Churn>,
    /// Run with the WAL on, checkpoint four times, recover at the end.
    pub durable: bool,
    /// Simulated time units that one second of `--seconds` buys. Fixed per
    /// workload (calibrated on the 2-core build box so that the measured
    /// window, generator included, takes about `--seconds` of wall) rather
    /// than timed at run time, so a given seed and `--seconds` always
    /// replays the same inputs and every count repeats exactly.
    pub tu_per_second: f64,
}

/// The paper's §7 shape: the Figure-3.1 stack does all the work.
pub const UNIFORM: Scenario = Scenario {
    name: "uniform",
    n_objects: 16_000,
    n_queries: 160,
    tick: 0.01,
    shards: 1,
    threads: 1,
    backend: Backend::RStar,
    placement: Placement::Uniform,
    churn: None,
    durable: false,
    tu_per_second: 0.75,
};

/// Skewed population on the sharded, pipelined engine with the
/// runtime-dispatched backend.
pub const HOTSPOT_SHARDED: Scenario = Scenario {
    name: "hotspot_sharded",
    n_objects: 10_000,
    n_queries: 100,
    tu_per_second: 0.7,
    shards: 2,
    threads: 2,
    backend: Backend::Adaptive,
    placement: Placement::Hotspots,
    ..UNIFORM
};

/// Query-dense, query and object tables churning. The report tick is a
/// fifth of `uniform`'s: at this density an object leaves its safe region
/// 20 times per time unit, and a coarser tick would hold most of them back
/// to report together (an engine call carries about 110 reports as it is).
pub const CHURN: Scenario = Scenario {
    name: "churn",
    n_objects: 4_000,
    n_queries: 400,
    tick: 0.002,
    churn: Some(Churn { ticks: 25, queries: 8, objects: 8 }),
    tu_per_second: 0.6,
    ..UNIFORM
};

/// `churn` with the durability plane on; nothing else differs.
pub const CHURN_DURABLE: Scenario = Scenario { name: "churn_durable", durable: true, ..CHURN };

/// Every workload, in ledger order.
pub const ALL: [Scenario; 4] = [UNIFORM, HOTSPOT_SHARDED, CHURN, CHURN_DURABLE];

impl Scenario {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        ALL.into_iter().find(|s| s.name == name)
    }

    /// The simulator configuration describing the same run: what
    /// `generate_workload` draws the initial queries from, and what the
    /// fidelity test hands to `srb_sim::run_srb`.
    pub fn sim_config(&self, seed: u64, duration: f64) -> SimConfig {
        SimConfig {
            n_objects: self.n_objects,
            n_queries: self.n_queries,
            duration,
            sample_interval: SAMPLE_INTERVAL,
            seed,
            min_reaction: self.tick,
            shards: self.shards,
            backend: self.backend.config(),
            durable: Default::default(),
            ..SimConfig::paper_defaults()
        }
    }
}

/// Hotspot centres. Fixed, and objects and queries are dealt to them
/// round-robin: the seed moves every position but not how much mass each
/// hotspot holds, so two seeds load the engine alike.
pub const HOTSPOT_CENTRES: [Point; HOTSPOTS] =
    [Point::new(0.3, 0.3), Point::new(0.7, 0.3), Point::new(0.3, 0.7), Point::new(0.7, 0.7)];

/// The point of hotspot `k` whose distance from the centre is the
/// `u`-quantile of the hotspot's radial distribution (Box–Muller with the
/// radial variate handed in), at a random angle.
fn hotspot_point_at(k: usize, u: f64, rng: &mut ChaCha8Rng) -> Point {
    let r = HOTSPOT_SIGMA * (-2.0 * (1.0 - u).ln()).sqrt();
    let a = std::f64::consts::TAU * rng.gen::<f64>();
    HOTSPOT_CENTRES[k] + Point::new(r * a.cos(), r * a.sin())
}

/// A point from hotspot `k`.
fn hotspot_point(k: usize, rng: &mut ChaCha8Rng) -> Point {
    let u = rng.gen();
    hotspot_point_at(k, u, rng)
}

/// True within three standard deviations of a hotspot centre.
pub fn in_hotspot(p: Point) -> bool {
    HOTSPOT_CENTRES.iter().any(|c| (p - *c).norm() <= 3.0 * HOTSPOT_SIGMA)
}

/// The hotspot that object (or query slot) `i` is bound to: four in five
/// are bound, dealt evenly over the hotspots; the rest roam the space.
pub fn home(i: usize) -> Option<usize> {
    (!i.is_multiple_of(5)).then_some(i % HOTSPOTS)
}

fn uniform_point(rng: &mut ChaCha8Rng) -> Point {
    Point::new(rng.gen(), rng.gen())
}

/// One query in the paper's §7.1 shape around `centre`, its size set by
/// `u` in `[0, 1)`: a square range query with side `(0.5 + u)·q_len`, or
/// an order-sensitive kNN query with `k = 1 + ⌊u·k_max⌋`. A uniform `u`
/// gives the paper's `U[0.5, 1.5]·q_len` and `k ~ U[1, k_max]`.
fn spec_at(centre: Point, range: bool, u: f64, cfg: &SimConfig) -> QuerySpec {
    if range {
        let half = cfg.q_len * (0.5 + u) / 2.0;
        let rect =
            Rect::centered(centre, half, half).intersection(&cfg.space).expect("centre in space");
        QuerySpec::range(rect)
    } else {
        QuerySpec::knn(centre, (1 + (u * cfg.k_max as f64) as usize).min(cfg.k_max))
    }
}

/// The queries registered at set-up, range and kNN alternating, laid out
/// by stratified sampling: every random quantity a query's cost hangs on
/// is drawn from its own stratum of the distribution, so any seed gets the
/// whole distribution and the per-seed luck of a plain draw (a run with
/// mostly `k = 9` queries, or all of them in the thin rim of a hotspot)
/// does not decide the result. Plainly drawn, `comm_cost` spread by 10 %
/// between seeds on `uniform` and engine time by 23 %; stratified, by 3 %
/// and 5 %. The strata: sizes (`u` of [`spec_at`]) over tenths, shuffled
/// among the queries; centres over a lattice covering the space
/// (`Uniform`) or over the quantiles of the distance from the hotspot
/// centre (`Hotspots`).
fn stratified_specs(placement: Placement, cfg: &SimConfig, rng: &mut ChaCha8Rng) -> Vec<QuerySpec> {
    // Range queries and kNN queries are stratified apart: `per_kind` slots each.
    let per_kind = cfg.n_queries.div_ceil(2);
    let cols = (per_kind as f64).sqrt().ceil() as usize;
    let rows = per_kind.div_ceil(cols);
    let bound: [usize; HOTSPOTS] =
        std::array::from_fn(|h| (0..per_kind).filter(|&j| home(j) == Some(h)).count());
    let sizes: [Vec<usize>; 2] = std::array::from_fn(|_| {
        let mut tenths: Vec<usize> = (0..per_kind).map(|j| j % 10).collect();
        for j in (1..per_kind).rev() {
            tenths.swap(j, rng.gen_range(0..=j));
        }
        tenths
    });
    let mut dealt = [[0usize; HOTSPOTS]; 2];
    (0..cfg.n_queries)
        .map(|i| {
            let (kind, j) = (i % 2, i / 2);
            let centre = match (placement, home(j)) {
                (Placement::Hotspots, Some(h)) => {
                    let u = (dealt[kind][h] as f64 + rng.gen::<f64>()) / bound[h] as f64;
                    dealt[kind][h] += 1;
                    hotspot_point_at(h, u, rng)
                }
                (Placement::Hotspots, None) => uniform_point(rng),
                _ => Point::new(
                    ((j % cols) as f64 + rng.gen::<f64>()) / cols as f64,
                    ((j / cols) as f64 + rng.gen::<f64>()) / rows as f64,
                ),
            };
            let u = (sizes[kind][j] as f64 + rng.gen::<f64>()) / 10.0;
            spec_at(centre, kind == 0, u, cfg)
        })
        .collect()
}

/// The generated inputs of one run.
pub struct Inputs {
    sim: SimConfig,
    placement: Placement,
    /// The queries registered at set-up.
    pub specs: Vec<QuerySpec>,
    /// Source of replacement queries and of the objects to churn.
    churn_rng: ChaCha8Rng,
    drawn: usize,
}

impl Inputs {
    /// Generates the inputs of `scenario` from `seed`, covering `duration`
    /// simulated time units.
    pub fn generate(scenario: &Scenario, seed: u64, duration: f64) -> Inputs {
        let sim = scenario.sim_config(seed, duration);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x686f_7473_706f_7473); // "hotspots"
        let specs = match scenario.placement {
            Placement::Simulator => generate_workload(&sim),
            placement => stratified_specs(placement, &sim, &mut rng),
        };
        let churn_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6368_7572_6e21); // "churn!"
        Inputs { sim, placement: scenario.placement, specs, churn_rng, drawn: 0 }
    }

    /// Grid resolution `M` of the query index (the paper's default).
    pub fn grid_m(&self) -> usize {
        self.sim.grid_m
    }

    /// The trajectory of object `i`. Deterministic: calling it again
    /// yields an identical, fresh trajectory.
    pub fn trajectory(&self, i: usize) -> Trajectory {
        if self.placement == Placement::Hotspots {
            return Trajectory::scripted(self.hotspot_script(i));
        }
        let mob = MobilityConfig {
            space: self.sim.space,
            mean_speed: self.sim.mean_speed,
            mean_period: self.sim.mean_period,
        };
        Trajectory::random_waypoint(self.sim.seed, i as u64, mob, 0.0)
    }

    /// Random-waypoint motion whose waypoints come from the object's home
    /// hotspot or, for the unbound rest, from the whole space. (Waypoints
    /// drawn from all hotspots at once would not cluster: objects re-plan
    /// long before arriving, so they would settle between the hotspots.)
    pub fn hotspot_script(&self, i: usize) -> Vec<Segment> {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.sim.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7363_7269_7074, // "script"
        );
        let waypoint = |rng: &mut ChaCha8Rng| match home(i) {
            Some(k) => hotspot_point(k, rng),
            None => uniform_point(rng),
        };
        let mut pos = waypoint(&mut rng);
        let mut t = 0.0;
        let mut script = Vec::new();
        while t <= self.sim.duration {
            let to_dest = waypoint(&mut rng) - pos;
            let speed = rng.gen::<f64>() * 2.0 * self.sim.mean_speed;
            let period = rng.gen::<f64>() * 2.0 * HOTSPOT_MEAN_PERIOD;
            let dist = to_dest.norm();
            let travel = if speed > 0.0 && dist > 0.0 { dist / speed } else { f64::INFINITY };
            let vel = if dist > 0.0 { to_dest * (speed / dist) } else { Point::ORIGIN };
            let seg = Segment { t0: t, t1: t + period.min(travel).max(1e-9), start: pos, vel };
            pos = seg.position(seg.t1);
            t = seg.t1;
            script.push(seg);
        }
        script
    }

    /// The next replacement query of the churn schedule (uniform centres,
    /// alternating range and kNN so the half/half mix holds).
    pub fn next_spec(&mut self) -> QuerySpec {
        let centre = uniform_point(&mut self.churn_rng);
        self.drawn += 1;
        spec_at(centre, self.drawn.is_multiple_of(2), self.churn_rng.gen(), &self.sim)
    }

    /// The next object of the churn schedule.
    pub fn next_object(&mut self) -> usize {
        self.churn_rng.gen_range(0..self.sim.n_objects)
    }
}
