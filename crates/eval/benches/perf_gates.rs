//! Same-process performance gates for the properties a perfbench
//! parent-vs-change run cannot see: pool scaling and dispatch, the
//! recorder's cost when on, and the live reader's cost over the static
//! engine it wraps.
//!
//! Every gate compares two arms in one process. Each arm first gets an
//! iteration count calibrated to about [`BATCH`] of wall time. Then
//! [`ROUNDS`] rounds each time one batch of both arms, alternating
//! which arm runs first, and record the per-round ratio
//! `baseline time / candidate time`. Host drift slower than a round
//! lands on both arms of that round, so the gate reads the **median**
//! of the per-round ratios against its bound in [`GATES`]. The median
//! is printed with its interquartile range under a host header.
//!
//! ```text
//! MOLOC_THREADS=4 cargo bench -p moloc-eval --bench perf_gates
//! ```
//!
//! The process exits 1 when any median falls outside its bound.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::pipeline::{self, CountingMethod, EvalWorld};
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_live::{DbSnapshot, LiveLocalizer, SnapshotPublisher, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::rlm::Rlm;
use moloc_runtime::{
    default_chunk, par_run, par_shards_with_workers, set_worker_override, thread_count,
};
use moloc_sensors::steps::StepDetector;
use moloc_stats::ecdf::Ecdf;
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timed rounds per gate; odd, so the median is one observed ratio.
const ROUNDS: usize = 31;
/// Wall time one calibrated batch of one arm aims at.
const BATCH: Duration = Duration::from_millis(80);

/// Every gate, its bound and the two arms it compares. Each bound is
/// the one CI has enforced since the layer it guards landed; none may
/// be loosened.
const GATES: [Gate; 6] = [
    Gate {
        name: "fig7 localization, ambient pool / 1 worker",
        bound: Bound::AtLeast(1.5),
        arms: fig7_ambient_vs_one_worker,
    },
    Gate {
        name: "fig7 localization, 2 workers / 1 worker",
        bound: Bound::AtLeast(1.2),
        arms: fig7_two_workers_vs_one,
    },
    Gate {
        name: "par_run slots / Mutex<Vec> merge, 4096 items",
        bound: Bound::AtLeast(1.5),
        arms: slot_collection_vs_mutex_merge,
    },
    Gate {
        name: "pool dispatch / scoped spawn, width 4",
        bound: Bound::AtLeast(2.0),
        arms: pool_dispatch_vs_scoped_spawn,
    },
    Gate {
        name: "batch localizer, recorder on / off",
        bound: Bound::AtMost(1.2),
        arms: recorder_off_vs_on,
    },
    Gate {
        name: "LiveLocalizer / static engine, 256x16",
        bound: Bound::AtLeast(0.90),
        arms: live_reader_vs_static_engine,
    },
];

struct Gate {
    name: &'static str,
    bound: Bound,
    arms: fn(&Fixtures) -> [Arm<'_>; 2],
}

#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

impl Bound {
    fn holds(self, ratio: f64) -> bool {
        match self {
            Bound::AtLeast(min) => ratio >= min,
            Bound::AtMost(max) => ratio <= max,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::AtLeast(min) => write!(f, ">= {min:.2}"),
            Bound::AtMost(max) => write!(f, "<= {max:.2}"),
        }
    }
}

/// The process-wide state an arm runs under, set outside the clock.
#[derive(Clone, Copy)]
enum Mode {
    /// The ambient pool width, recorder off.
    Ambient,
    /// The pool pinned to this many workers, recorder off.
    Workers(usize),
    /// The ambient pool width, recorder on.
    Recorder,
}

fn enter(mode: Mode) {
    set_worker_override(match mode {
        Mode::Workers(n) => Some(n),
        Mode::Ambient | Mode::Recorder => None,
    });
    moloc_obs::set_enabled(matches!(mode, Mode::Recorder));
}

/// One side of a gate: the mode it runs under and one iteration.
struct Arm<'f> {
    mode: Mode,
    step: Box<dyn FnMut() + 'f>,
}

impl Arm<'_> {
    fn new<'f>(mode: Mode, step: impl FnMut() + 'f) -> Arm<'f> {
        Arm {
            mode,
            step: Box::new(step),
        }
    }

    /// Wall time of `iters` iterations under the arm's mode.
    fn time(&mut self, iters: u64) -> Duration {
        enter(self.mode);
        let start = Instant::now();
        for _ in 0..iters {
            (self.step)();
        }
        start.elapsed()
    }

    /// The iteration count whose batch takes about [`BATCH`].
    fn calibrate(&mut self) -> u64 {
        let mut iters = 1;
        loop {
            let elapsed = self.time(iters);
            if elapsed >= BATCH / 4 {
                let scale = BATCH.as_secs_f64() / elapsed.as_secs_f64();
                return ((iters as f64 * scale).round() as u64).max(1);
            }
            iters *= 2;
        }
    }
}

/// The per-round ratios `baseline time / candidate time` of a
/// `[candidate, baseline]` pair.
fn measure(arms: &mut [Arm<'_>; 2]) -> Vec<f64> {
    let iters = arms.each_mut().map(|arm| arm.calibrate());
    (0..ROUNDS)
        .map(|round| {
            let mut per_iter = [0.0; 2];
            for i in [round % 2, 1 - round % 2] {
                per_iter[i] = arms[i].time(iters[i]).as_secs_f64() / iters[i] as f64;
            }
            per_iter[1] / per_iter[0]
        })
        .collect()
}

/// Everything the arms share, built once outside every clock.
struct Fixtures {
    world: EvalWorld,
    setting: pipeline::Setting,
    config: MoLocConfig,
    index: FingerprintIndex,
    kernel: MotionKernel,
    /// The first test trace's queries: scans and measured motion.
    queries: Vec<(Fingerprint, Option<MotionMeasurement>)>,
    /// The 256-location live fixture's seed snapshot, its kernel and
    /// its walk.
    live_seed: DbSnapshot,
    live_kernel: MotionKernel,
    live_walk: Vec<(Vec<f64>, Option<MotionMeasurement>)>,
}

impl Fixtures {
    fn build() -> Self {
        let world = EvalWorld::small(2013);
        let setting = world.setting(6);
        let config = MoLocConfig::paper();
        let index = FingerprintIndex::build(&setting.fdb);
        let kernel = build_kernel(&setting.motion_db, &config);
        let trace0 = &world.corpus.test[0];
        let analysis = pipeline::analyze_trace(
            trace0,
            &setting.fdb,
            &world.hall,
            &StepDetector::default(),
            CountingMethod::Continuous,
            6,
        );
        let queries = trace0
            .scans
            .iter()
            .enumerate()
            .map(|(i, scan)| {
                let motion = i.checked_sub(1).and_then(|m| analysis.measurements[m]);
                (Fingerprint::new(scan.clone()), motion)
            })
            .collect();
        let live_seed = seeded_log()
            .build_snapshot(0)
            .expect("seed snapshot builds");
        let live_kernel = build_kernel(&live_seed.motion_db, &config);
        Self {
            world,
            setting,
            config,
            index,
            kernel,
            queries,
            live_seed,
            live_kernel,
            live_walk: trace(),
        }
    }

    fn localize_fig7_setting(&self) {
        black_box(pipeline::localize_moloc_with(
            &self.world,
            &self.setting,
            self.config,
            &self.index,
            &self.kernel,
        ));
    }

    /// The batch localizer over the first test trace.
    fn batch_trace_arm(&self, mode: Mode) -> Arm<'_> {
        let mut engine = BatchLocalizer::new_with_index(&self.index, &self.kernel, self.config);
        let mut estimates = Vec::with_capacity(self.queries.len());
        Arm::new(mode, move || {
            engine
                .localize_trace_into(black_box(&self.queries), &mut estimates)
                .expect("queries are valid");
            black_box(&estimates);
        })
    }
}

fn fig7_ambient_vs_one_worker(f: &Fixtures) -> [Arm<'_>; 2] {
    [
        Arm::new(Mode::Ambient, || f.localize_fig7_setting()),
        Arm::new(Mode::Workers(1), || f.localize_fig7_setting()),
    ]
}

fn fig7_two_workers_vs_one(f: &Fixtures) -> [Arm<'_>; 2] {
    [
        Arm::new(Mode::Workers(2), || f.localize_fig7_setting()),
        Arm::new(Mode::Workers(1), || f.localize_fig7_setting()),
    ]
}

/// Cheap per-item payload for the collection and dispatch pairs:
/// real work, but little enough that scheduling and collection costs
/// dominate, which is what those pairs price.
fn item_work(i: usize) -> u64 {
    let mut acc = i as u64 ^ 0x9E3779B97F4A7C15;
    for k in 0..32u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

fn slot_collection_vs_mutex_merge(_: &Fixtures) -> [Arm<'static>; 2] {
    const ITEMS: usize = 4096;
    [
        Arm::new(Mode::Ambient, || {
            black_box(par_run(ITEMS, item_work));
        }),
        // The collection the slot writer replaced: every shard appends
        // its (index, value) pairs to a shared Vec under a lock, and
        // the caller re-sorts into input order.
        Arm::new(Mode::Ambient, || {
            let results = Mutex::new(Vec::with_capacity(ITEMS));
            let workers = thread_count().min(ITEMS);
            par_shards_with_workers(workers, ITEMS, default_chunk(ITEMS, workers), |range| {
                let mut local: Vec<(usize, u64)> = range.map(|i| (i, item_work(i))).collect();
                results
                    .lock()
                    .expect("no panics in item_work")
                    .append(&mut local);
            });
            let mut collected = results.into_inner().expect("workers joined");
            collected.sort_unstable_by_key(|&(i, _)| i);
            black_box(collected.into_iter().map(|(_, v)| v).collect::<Vec<u64>>());
        }),
    ]
}

fn pool_dispatch_vs_scoped_spawn(_: &Fixtures) -> [Arm<'static>; 2] {
    // Both arms run the same 16 shards at width 4: the pool arm rides
    // the persistent workers, the scoped arm pays a thread spawn and
    // join per job.
    const ITEMS: usize = 64;
    const CHUNK: usize = 4;
    const WIDTH: usize = 4;
    [
        Arm::new(Mode::Ambient, || {
            par_shards_with_workers(WIDTH, ITEMS, CHUNK, |range| {
                for i in range {
                    black_box(item_work(i));
                }
            });
        }),
        Arm::new(Mode::Ambient, || {
            let shards: Vec<Range<usize>> = (0..ITEMS)
                .step_by(CHUNK)
                .map(|s| s..(s + CHUNK).min(ITEMS))
                .collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..WIDTH {
                    scope.spawn(|| loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = shards.get(s) else { break };
                        for i in range.clone() {
                            black_box(item_work(i));
                        }
                    });
                }
            });
        }),
    ]
}

fn recorder_off_vs_on(f: &Fixtures) -> [Arm<'_>; 2] {
    [
        f.batch_trace_arm(Mode::Ambient),
        f.batch_trace_arm(Mode::Recorder),
    ]
}

/// Grid columns and rows: 16 x 16 = 256 reference locations, the same
/// order of magnitude as the paper floor at survey density.
const COLS: u32 = 16;
const ROWS: u32 = 16;
/// Steps per benchmarked trace: one full row walked east.
const STEPS: usize = 16;
const N_APS: usize = 6;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

/// 16x16 grid spaced 2 m in an open hall; ids 1..=256, row-major.
fn map() -> MapReference {
    let grid = ReferenceGrid::new(Vec2::new(1.0, 1.0), COLS, ROWS, 2.0, 2.0).expect("valid grid");
    let plan = FloorPlan::new(
        Aabb::new(Vec2::ZERO, Vec2::new(2.0 * COLS as f64, 2.0 * ROWS as f64)).expect("valid aabb"),
    );
    let graph = WalkGraph::from_grid(&grid, &plan);
    MapReference::new(&grid, &graph)
}

/// Deterministic 6-AP fingerprint for location `id`: a dBm lattice
/// plus a sub-dBm dither so neighbors are distinct but realistic.
fn fingerprint_values(id: u32) -> Vec<f64> {
    (0..N_APS as u32)
        .map(|a| {
            -40.0 - f64::from((id * 7 + a * 13) % 23) - f64::from((id * 31 + a * 11) % 97) / 128.0
        })
        .collect()
}

/// Survey + RLM corpus: one sample per location, five clean east RLMs
/// per horizontally-adjacent pair (enough to build every motion cell
/// the benchmarked trace crosses).
fn seeded_log() -> UpdateLog {
    let mut log = UpdateLog::new(N_APS, map(), SanitationConfig::paper()).expect("valid config");
    for id in 1..=COLS * ROWS {
        log.observe_survey_sample(l(id), &fingerprint_values(id))
            .expect("sample matches AP count");
    }
    for row in 0..ROWS {
        for col in 0..COLS - 1 {
            let from = row * COLS + col + 1;
            for k in 0..5 {
                log.observe_rlm(
                    Rlm::new(l(from), l(from + 1), 89.0 + f64::from(k), 2.0).expect("valid rlm"),
                );
            }
        }
    }
    log
}

fn east() -> Option<MotionMeasurement> {
    Some(MotionMeasurement {
        direction_deg: 90.0,
        offset_m: 2.0,
    })
}

/// The benchmarked walk: row 4 traversed east, scans straight off the
/// survey (the arms compare serving overhead, not accuracy).
fn trace() -> Vec<(Vec<f64>, Option<MotionMeasurement>)> {
    let first = 3 * COLS + 1;
    (0..STEPS as u32)
        .map(|s| {
            let motion = if s == 0 { None } else { east() };
            (fingerprint_values(first + s), motion)
        })
        .collect()
}

fn live_reader_vs_static_engine(f: &Fixtures) -> [Arm<'_>; 2] {
    // No publish is ever in flight: the live arm's only extra work is
    // the per-step epoch check.
    let publisher = SnapshotPublisher::new(f.live_seed.clone());
    let mut live = LiveLocalizer::new(publisher.reader(), f.config);
    let mut static_engine =
        BatchLocalizer::new_with_index(&f.live_seed.index, &f.live_kernel, f.config);
    [
        Arm::new(Mode::Ambient, move || {
            live.reset();
            for (scan, motion) in &f.live_walk {
                black_box(live.observe(black_box(scan), *motion).expect("step scores"));
            }
        }),
        Arm::new(Mode::Ambient, move || {
            static_engine.reset();
            for (scan, motion) in &f.live_walk {
                black_box(
                    static_engine
                        .observe_slice(black_box(scan), *motion)
                        .expect("step scores"),
                );
            }
        }),
    ]
}

fn main() {
    if let Err(e) = moloc_runtime::validate_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let moloc_threads = std::env::var("MOLOC_THREADS").unwrap_or_else(|_| "unset".to_owned());
    println!(
        "perf_gates: available_parallelism {available}, pool width {}, MOLOC_THREADS {moloc_threads}",
        thread_count()
    );
    println!("{ROUNDS} rounds per gate; ratio = baseline time / candidate time");

    let fixtures = Fixtures::build();
    let mut failed = 0;
    for gate in &GATES {
        let ratios = measure(&mut (gate.arms)(&fixtures));
        enter(Mode::Ambient);
        moloc_obs::reset();
        let ecdf = Ecdf::from_samples(ratios);
        let quartile = |q| ecdf.quantile(q).expect("every round yields a ratio");
        let median = quartile(0.5);
        let holds = gate.bound.holds(median);
        failed += usize::from(!holds);
        println!(
            "{:<46} median {median:>5.2}  IQR [{:.2}, {:.2}]  bound {}  {}",
            gate.name,
            quartile(0.25),
            quartile(0.75),
            gate.bound,
            if holds { "ok" } else { "FAIL" },
        );
    }
    if failed > 0 {
        eprintln!("perf_gates: {failed} of {} gates failed", GATES.len());
        std::process::exit(1);
    }
}
