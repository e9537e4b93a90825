//! `large-survey`: a 2048-location × 16-AP deployment where fingerprint
//! k-NN does most of the work. Fingerprints come from the dithered
//! lattice with planted twins (every 32nd location clones the one 17
//! back); every location sits on a 64 × 32 `ReferenceGrid` with its
//! 4-neighbor `WalkGraph`, so crowdsourced walks, their RLMs and the
//! motion database go through the real `MotionDbBuilder`. One operation
//! localizes one 32-step walk with `BatchLocalizer::localize_scans_into`
//! (MoLoc) and with `NnLocalizer` (WiFi) against the planted truth;
//! about 2 % of queries miss one AP (NaN).
//!
//! A reference pass localizes every test walk once, untimed: it warms
//! the caches, gives the fidelity metrics and the outputs each timed
//! repeat must match. The timed loop then cycles the first
//! [`TIMED_WALKS`] walks, so that each is repeated often enough for its
//! fastest repeat to land in a quiet stretch of a shared host.

use std::time::Instant;

use moloc_core::batch::{BatchLocalizer, BatchScratch};
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_motion::builder::{MapReference, MotionDbBuilder};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::rlm::Rlm;

use crate::tracer::Tracer;
use crate::util::{derive, median, percentile, ratio, Fnv, Repeats, SplitMix};
use crate::{layers, Bench, Fidelity, ObsView, Report};

const COLS: u32 = 64;
const ROWS: u32 = 32;
const SPACING_M: f64 = 2.0;
const APS: usize = 16;
/// One prime lattice modulus per AP. The 6-AP bench lattice uses 23 for
/// every AP, which at 16 APs aliases: rows 69 apart differ by 0.04 dB
/// per AP, so no estimator could tell them apart.
const MODULI: [u32; APS] = [
    23, 29, 31, 37, 41, 43, 47, 53, 23, 29, 31, 37, 41, 43, 47, 53,
];
/// Survey samples per location (averaged into the database).
const SURVEY_SAMPLES: usize = 4;
const SURVEY_NOISE_DB: f64 = 6.0;
const QUERY_NOISE_DB: f64 = 6.0;
const DIRECTION_NOISE_DEG: f64 = 8.0;
const OFFSET_NOISE_M: f64 = 0.25;
/// Crowdsourced training walks and their length in steps.
const TRAIN_WALKS: usize = 600;
const TRAIN_STEPS: usize = 64;
/// Test walks (fidelity is taken over all of them) and their length.
const TEST_WALKS: usize = 1024;
const TEST_STEPS: usize = 32;
/// The walks the timed loop cycles (one per operation, each at least
/// twice per run; about 200 times in 20 s on a 2-vCPU Xeon).
const TIMED_WALKS: usize = 64;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of test queries with one AP missing.
const MASK_RATE: f64 = 0.02;

/// The planted-twin dithered lattice: location index `i` (0-based)
/// reads lattice row `j`, where every 32nd location reuses the row of
/// the location 17 before it; `offset` shifts the rows by seed.
fn lattice_row(i: u32, offset: u32) -> Vec<f64> {
    let j = if i >= 17 && i.is_multiple_of(32) {
        i - 17
    } else {
        i
    } + offset;
    MODULI
        .iter()
        .zip(0u32..)
        .map(|(&m, a)| {
            -40.0 - f64::from((j * 7 + a * 13) % m) - f64::from((j * 31 + a * 11) % 97) / 128.0
        })
        .collect()
}

fn noisy(row: &[f64], sigma: f64, rng: &mut SplitMix) -> Vec<f64> {
    row.iter().map(|v| v + sigma * rng.normal()).collect()
}

/// A walk on the grid: mostly straight, turning at random.
fn walk(grid: &ReferenceGrid, steps: usize, rng: &mut SplitMix) -> Vec<LocationId> {
    let mut at = LocationId::from_index(rng.below(grid.len() as u64) as usize);
    let mut path = vec![at];
    let mut heading: Option<LocationId> = None;
    for _ in 1..steps {
        let neighbors = grid.neighbors4(at);
        let straight = heading.and_then(|prev| {
            let (pr, pc) = grid.row_col(prev);
            let (r, c) = grid.row_col(at);
            let (nr, nc) = (2 * r as i64 - pr as i64, 2 * c as i64 - pc as i64);
            neighbors
                .iter()
                .copied()
                .find(|n| grid.row_col(*n) == (nr as u32, nc as u32))
        });
        let next = match straight {
            Some(n) if rng.unit() < 0.7 => n,
            _ => neighbors[rng.below(neighbors.len() as u64) as usize],
        };
        heading = Some(at);
        at = next;
        path.push(at);
    }
    path
}

/// The motion measured between two grid locations: bearing and
/// distance with sensor noise.
fn measure(
    grid: &ReferenceGrid,
    from: LocationId,
    to: LocationId,
    rng: &mut SplitMix,
) -> MotionMeasurement {
    let bearing = grid.bearing_deg(from, to).unwrap_or(0.0);
    MotionMeasurement {
        direction_deg: (bearing + DIRECTION_NOISE_DEG * rng.normal()).rem_euclid(360.0),
        offset_m: (grid.distance(from, to) + OFFSET_NOISE_M * rng.normal()).max(0.1),
    }
}

/// One localization walk: scans, the motions before each scan, and
/// the planted truth.
struct TestWalk {
    scans: Vec<Vec<f64>>,
    motions: Vec<Option<MotionMeasurement>>,
    truth: Vec<LocationId>,
}

struct World {
    grid: ReferenceGrid,
    fdb: FingerprintDb,
    index: FingerprintIndex,
    kernel: MotionKernel,
    walks: Vec<TestWalk>,
    rlms_observed: u64,
    rlms_accepted: u64,
}

fn setup(seed: u64, t: &mut Tracer) -> World {
    t.span("bench.setup", |t| {
        let offset = (derive(seed, 2, 0) % 4096) as u32;
        let grid = ReferenceGrid::new(
            Vec2::new(SPACING_M / 2.0, SPACING_M * (f64::from(ROWS) - 0.5)),
            COLS,
            ROWS,
            SPACING_M,
            SPACING_M,
        )
        .expect("valid grid");
        let bounds = Aabb::new(
            Vec2::ZERO,
            Vec2::new(SPACING_M * f64::from(COLS), SPACING_M * f64::from(ROWS)),
        )
        .expect("valid bounds");
        let graph = WalkGraph::from_grid(&grid, &FloorPlan::new(bounds));
        let map = t.span("motion.map_reference", |_| MapReference::new(&grid, &graph));
        let rows: Vec<Vec<f64>> = (0..grid.len() as u32)
            .map(|i| lattice_row(i, offset))
            .collect();

        let mut rng = SplitMix::new(derive(seed, 2, 1));
        let samples: Vec<(LocationId, Vec<Fingerprint>)> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let scans = (0..SURVEY_SAMPLES)
                    .map(|_| Fingerprint::new(noisy(row, SURVEY_NOISE_DB, &mut rng)))
                    .collect();
                (LocationId::from_index(i), scans)
            })
            .collect();
        let fdb = t.span("fingerprint.db_build", |_| {
            FingerprintDb::from_samples(samples).expect("every location surveyed")
        });
        let index = t.span("fingerprint.index_build", |_| FingerprintIndex::build(&fdb));

        // Crowdsourced RLMs: endpoints are the deployed NN estimates of
        // noisy scans along each training walk.
        let nn = NnLocalizer::with_index(&fdb, &index);
        let mut rng = SplitMix::new(derive(seed, 2, 2));
        let mut rlms = Vec::with_capacity(TRAIN_WALKS * TRAIN_STEPS);
        for _ in 0..TRAIN_WALKS {
            let path = walk(&grid, TRAIN_STEPS, &mut rng);
            let scans: Vec<Vec<f64>> = path
                .iter()
                .map(|l| noisy(&rows[l.index()], QUERY_NOISE_DB, &mut rng))
                .collect();
            let estimates: Vec<LocationId> = t.span("fingerprint.nn_harvest", |_| {
                scans
                    .iter()
                    .map(|s| nn.localize_slice(s).expect("scan has every AP"))
                    .collect()
            });
            for w in 0..path.len() - 1 {
                let m = measure(&grid, path[w], path[w + 1], &mut rng);
                if estimates[w] != estimates[w + 1] {
                    if let Ok(rlm) =
                        Rlm::new(estimates[w], estimates[w + 1], m.direction_deg, m.offset_m)
                    {
                        rlms.push(rlm);
                    }
                }
            }
        }
        let (motion_db, report) = t.span("motion.builder", |_| {
            let mut builder = MotionDbBuilder::new(map, SanitationConfig::paper())
                .expect("paper sanitation is valid");
            for rlm in rlms {
                builder.observe(rlm);
            }
            builder.build()
        });
        let kernel = t.span("motion.kernel_build", |_| {
            build_kernel(&motion_db, &MoLocConfig::paper())
        });

        let mut rng = SplitMix::new(derive(seed, 2, 3));
        let walks = (0..TEST_WALKS)
            .map(|_| {
                let truth = walk(&grid, TEST_STEPS, &mut rng);
                let scans = truth
                    .iter()
                    .map(|l| {
                        let mut scan = noisy(&rows[l.index()], QUERY_NOISE_DB, &mut rng);
                        if rng.unit() < MASK_RATE {
                            scan[rng.below(APS as u64) as usize] = f64::NAN;
                        }
                        scan
                    })
                    .collect();
                let motions = (0..truth.len())
                    .map(|s| (s > 0).then(|| measure(&grid, truth[s - 1], truth[s], &mut rng)))
                    .collect();
                TestWalk {
                    scans,
                    motions,
                    truth,
                }
            })
            .collect();
        World {
            grid,
            fdb,
            index,
            kernel,
            walks,
            rlms_observed: report.observed,
            rlms_accepted: report.observed - report.rejected_coarse - report.rejected_unmapped,
        }
    })
}

/// MoLoc and WiFi estimates of one walk.
struct Localized {
    moloc: Vec<LocationId>,
    wifi: Vec<LocationId>,
}

impl Localized {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for l in self.moloc.iter().chain(&self.wifi) {
            h.eat(u64::from(l.get()));
        }
        h.finish()
    }
}

/// Localizes one walk; `scratch` is the engine working set recycled
/// across walks, as the evaluation pipeline does.
fn localize(
    world: &World,
    walk: &TestWalk,
    scratch: &mut Option<BatchScratch>,
    t: &mut Tracer,
) -> Localized {
    t.span("bench.trace", |t| {
        let config = MoLocConfig::paper();
        let scans: Vec<&[f64]> = walk.scans.iter().map(Vec::as_slice).collect();
        let buffers = scratch
            .take()
            .unwrap_or_else(|| BatchScratch::for_k(config.k));
        let mut engine = BatchLocalizer::with_scratch(&world.index, &world.kernel, config, buffers);
        let mut moloc = Vec::with_capacity(scans.len());
        t.span("core.trace", |_| {
            engine.localize_scans_into(&scans, &walk.motions, &mut moloc)
        })
        .expect("query length matches database");
        let nn = NnLocalizer::with_index(&world.fdb, &world.index);
        let wifi = t.span("fingerprint.nn", |_| {
            scans
                .iter()
                .map(|s| nn.localize_slice(s).expect("query length matches database"))
                .collect()
        });
        *scratch = Some(engine.into_scratch());
        Localized { moloc, wifi }
    })
}

pub fn run(bench: &mut Bench) -> Report {
    let mut report = Report::default();
    let seed = derive(bench.seed, 2, 0);
    let build = move |t: &mut Tracer| setup(seed, t);
    let mut world = bench.setup(SETUPS, build);

    let config = MoLocConfig::paper();
    let mut scratch = None;
    // The reference pass, untimed and with the recorders off.
    let first_pass: Vec<Localized> = world
        .walks
        .iter()
        .map(|walk| localize(&world, walk, &mut scratch, &mut bench.tracer))
        .collect();
    let (mut failed, mut attempted) = (0u64, 0u64);
    let mut repeats_us = Repeats::new(TIMED_WALKS);
    let (mut fponly_ns, mut fponly_traces, mut nn_queries) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut i = 0usize;
    while i < 2 * TIMED_WALKS || bench.running(started) {
        world = bench.resetup(started, world, build);
        let item = i % TIMED_WALKS;
        let walk = &world.walks[item];
        let op = bench.op(
            |t| localize(&world, walk, &mut scratch, t),
            Localized::digest,
        );
        attempted += 1;
        let reference = &first_pass[item];
        let ok = op.consistent && op.out.moloc == reference.moloc && op.out.wifi == reference.wifi;
        failed += u64::from(!ok);
        repeats_us.record(item, op.ns as f64 / 1e3);
        if bench.trace && i < TIMED_WALKS {
            // Fingerprint-only probe: the same walk with every motion
            // `None` (k-NN and Eq. 4 only).
            let scans: Vec<&[f64]> = walk.scans.iter().map(Vec::as_slice).collect();
            let none = vec![None; scans.len()];
            let mut engine = BatchLocalizer::new_with_index(&world.index, &world.kernel, config);
            let mut estimates = Vec::with_capacity(scans.len());
            let start = Instant::now();
            engine
                .localize_scans_into(&scans, &none, &mut estimates)
                .expect("query length matches database");
            fponly_ns += start.elapsed().as_nanos() as u64;
            fponly_traces += 1;
            std::hint::black_box(&estimates);
        }
        if bench.trace {
            nn_queries += walk.scans.len() as u64;
        }
        i += 1;
    }
    let world = bench.finish_setup(&mut report, world, build);
    report.attempted = attempted;
    report.failed = failed;

    let mut fidelity = Fidelity::default();
    let mut h = Fnv::default();
    for (out, walk) in first_pass.iter().zip(&world.walks) {
        for ((m, w), truth) in out.moloc.iter().zip(&out.wifi).zip(&walk.truth) {
            fidelity.add(m == truth, w == truth, world.grid.distance(*m, *truth));
            h.eat(u64::from(m.get()));
            h.eat(u64::from(w.get()));
        }
    }
    report.digest = h.finish();

    if bench.trace {
        layers::fill(
            &mut report,
            &bench.tracer,
            &ObsView::take(),
            bench.traced_ops(),
        );
        let fused_us = bench.tracer.totals("core.trace").mean(1e3);
        let fponly_us = ratio(fponly_ns as f64, fponly_traces as f64 * 1e3);
        report.set("core.trace_fponly_us", fponly_us);
        report.set("core.fusion_share", 1.0 - ratio(fponly_us, fused_us));
        let nn = bench.tracer.totals("fingerprint.nn");
        report.set(
            "fingerprint.nn_query_ns",
            ratio(nn.total_ns as f64, nn_queries as f64),
        );
        report.set(
            "motion.rlm_accept_ratio",
            ratio(world.rlms_accepted as f64, world.rlms_observed as f64),
        );
    } else {
        fidelity.report(&mut report);
        let walks_us = repeats_us.fastest();
        let ops_per_s = ratio(walks_us.len() as f64 * 1e6, walks_us.iter().sum());
        report.timing(ops_per_s, median(&walks_us), percentile(&walks_us, 0.99));
    }
    report
}
