//! `paper-repro`: what users of the reproduction run. For each seed of
//! a sequence derived from the benchmark seed, one paper-scale world
//! (hall, 60-sample survey, 184-trace corpus) and then Fig. 7 at 4, 5
//! and 6 APs: setting, index and kernel, MoLoc, and WiFi. One operation
//! is one world. Every world is checked against `fig7::run` on the same
//! world.
//!
//! The pipeline is spelled out here from the crates' public entry
//! points, serially on one thread, so that each layer can be timed from
//! outside; the reference run uses the evaluation pool.

use std::time::Instant;

use moloc_core::batch::{BatchLocalizer, BatchScratch};
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::experiments::fig7;
use moloc_eval::pipeline::{analyze_trace_indexed, CountingMethod, PassOutcome, TraceAnalysis};
use moloc_eval::scenario::HallConfig;
use moloc_eval::{EvalWorld, OfficeHall, Setting};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::LocationId;
use moloc_mobility::corpus::{CorpusConfig, TraceCorpus};
use moloc_mobility::intervals::measure_intervals;
use moloc_mobility::user::paper_users;
use moloc_motion::builder::MotionDbBuilder;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::rlm::Rlm;
use moloc_radio::survey::{SiteSurvey, SurveySplit};
use moloc_sensors::steps::StepDetector;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tracer::Tracer;
use crate::util::{derive, median, percentile, ratio, Fnv, Repeats};
use crate::{layers, Bench, Fidelity, ObsView, Report};

/// The worlds of a run. An untimed reference pass runs each of them
/// once, checks it against `fig7::run` and scores it: the fidelity
/// metrics are taken over exactly these, so they depend on the seed
/// alone.
const WORLDS: usize = 24;

/// The worlds the timed loop cycles, the first of [`WORLDS`]: few
/// enough that each is repeated about 80 times in 20 s (on a 2-vCPU
/// Xeon), so its fastest repeat lands in a quiet stretch of a shared
/// host. Worlds cost within 2 % of each other, so few stand for many.
/// Every run completes each of them at least twice.
const TIMED_WORLDS: usize = 3;

/// Warm-up worlds, spread over the run; `setup_s` is their median.
const SETUPS: usize = 21;

const AP_COUNTS: [usize; 3] = [4, 5, 6];

/// Builds a paper-scale world the way `EvalWorld::paper` does, with the
/// survey and the corpus timed as their own layers.
pub fn build_world(seed: u64, t: &mut Tracer) -> EvalWorld {
    let hall = t.span("eval.hall", |_| {
        OfficeHall::with_config(HallConfig::default())
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5175_7EC0_DE01_u64);
    let survey = t.span("radio.survey", |_| {
        SiteSurvey::conduct(&hall.env, &hall.grid, SurveySplit::paper(), &mut rng)
    });
    let corpus = t.span("mobility.corpus", |_| {
        TraceCorpus::generate(
            &hall.env,
            &hall.grid,
            &hall.graph,
            &paper_users(),
            CorpusConfig::paper(seed),
        )
    });
    EvalWorld {
        hall,
        survey,
        corpus,
    }
}

/// The fingerprint database of the first `n_aps` APs (40-sample means).
fn survey_db(world: &EvalWorld, n_aps: usize, t: &mut Tracer) -> FingerprintDb {
    t.span("fingerprint.db_build", |_| {
        FingerprintDb::from_samples(world.survey.locations().iter().map(|loc| {
            (
                loc.location,
                loc.fingerprint
                    .iter()
                    .map(|scan| {
                        Fingerprint::new(scan.iter().take(n_aps).map(|d| d.value()).collect())
                    })
                    .collect::<Vec<_>>(),
            )
        }))
        .expect("survey covers every location")
    })
}

pub fn analyze(
    world: &EvalWorld,
    trace_index: usize,
    train: bool,
    fdb: &FingerprintDb,
    index: &FingerprintIndex,
    n_aps: usize,
    t: &mut Tracer,
) -> TraceAnalysis {
    let trace = if train {
        &world.corpus.train[trace_index]
    } else {
        &world.corpus.test[trace_index]
    };
    t.span("eval.analyze_trace", |_| {
        analyze_trace_indexed(
            trace,
            fdb,
            index,
            &world.hall,
            &StepDetector::default(),
            CountingMethod::Continuous,
            n_aps,
        )
    })
}

/// The crowdsourced RLMs of one analyzed trace: calibrated interval
/// measurements between distinct NN endpoint estimates.
pub fn harvest(analysis: &TraceAnalysis) -> Vec<Rlm> {
    analysis
        .intervals
        .iter()
        .zip(&analysis.measurements)
        .filter_map(|(interval, measurement)| {
            let m = measurement.as_ref()?;
            let from = analysis.nn_estimates[interval.from_index];
            let to = analysis.nn_estimates[interval.to_index];
            if from == to {
                return None;
            }
            Rlm::new(from, to, m.direction_deg, m.offset_m).ok()
        })
        .collect()
}

/// The motions the engine consumes: `motions[i]` is the interval before
/// scan `i`, `None` for the first.
pub fn step_motions(analysis: &TraceAnalysis, passes: usize) -> Vec<Option<MotionMeasurement>> {
    (0..passes)
        .map(|i| {
            if i == 0 {
                None
            } else {
                analysis.measurements[i - 1]
            }
        })
        .collect()
}

/// The paper-default setting (CSC counting, paper sanitation), built
/// like `EvalWorld::setting`, plus the index it was built with.
pub fn build_setting(
    world: &EvalWorld,
    n_aps: usize,
    t: &mut Tracer,
) -> (Setting, FingerprintIndex) {
    t.span("bench.setting", |t| {
        let fdb = survey_db(world, n_aps, t);
        let index = t.span("fingerprint.index_build", |_| FingerprintIndex::build(&fdb));
        let mut rlms = Vec::new();
        for i in 0..world.corpus.train.len() {
            rlms.extend(harvest(&analyze(world, i, true, &fdb, &index, n_aps, t)));
        }
        let (motion_db, build_report) = t.span("motion.builder", |_| {
            let mut builder =
                MotionDbBuilder::new(world.hall.map.clone(), SanitationConfig::paper())
                    .expect("paper sanitation is valid");
            for rlm in rlms {
                builder.observe(rlm);
            }
            builder.build()
        });
        let setting = Setting {
            n_aps,
            fdb,
            motion_db,
            build_report,
            counting: CountingMethod::Continuous,
        };
        (setting, index)
    })
}

fn outcome(
    world: &EvalWorld,
    trace_index: usize,
    pass_index: usize,
    truth: LocationId,
    estimate: LocationId,
) -> PassOutcome {
    PassOutcome {
        trace_index,
        pass_index,
        truth,
        estimate,
        error_m: world.hall.grid.distance(truth, estimate),
    }
}

/// One AP setting's results and the inputs the traced probes replay.
struct SettingRun {
    n_aps: usize,
    wifi: Vec<Vec<PassOutcome>>,
    moloc: Vec<Vec<PassOutcome>>,
    index: FingerprintIndex,
    kernel: MotionKernel,
    rlms_observed: u64,
    rlms_accepted: u64,
}

struct WorldRun {
    world: EvalWorld,
    settings: Vec<SettingRun>,
    digest: u64,
}

fn run_setting(world: &EvalWorld, n_aps: usize, t: &mut Tracer) -> SettingRun {
    let config = MoLocConfig::paper();
    let (setting, index) = build_setting(world, n_aps, t);
    let kernel = t.span("motion.kernel_build", |_| {
        build_kernel(&setting.motion_db, &config)
    });
    let test = &world.corpus.test;

    let moloc = t.span("bench.localize_moloc", |t| {
        let mut scratch = Some(BatchScratch::for_k(config.k));
        let mut outcomes = Vec::with_capacity(test.len());
        for (ti, trace) in test.iter().enumerate() {
            let analysis = analyze(world, ti, false, &setting.fdb, &index, n_aps, t);
            let scans: Vec<&[f64]> = trace.scans.iter().map(|s| &s[..n_aps]).collect();
            let motions = step_motions(&analysis, scans.len());
            let mut engine = BatchLocalizer::with_scratch(
                &index,
                &kernel,
                config,
                scratch.take().expect("scratch returned after every trace"),
            );
            let mut estimates = Vec::with_capacity(scans.len());
            t.span("core.trace", |_| {
                engine.localize_scans_into(&scans, &motions, &mut estimates)
            })
            .expect("query length matches database");
            scratch = Some(engine.into_scratch());
            outcomes.push(
                trace
                    .passes
                    .iter()
                    .zip(&estimates)
                    .enumerate()
                    .map(|(pi, (pass, &est))| outcome(world, ti, pi, pass.location, est))
                    .collect(),
            );
        }
        outcomes
    });

    let wifi = t.span("bench.localize_wifi", |t| {
        let nn = NnLocalizer::with_index(&setting.fdb, &index);
        let mut outcomes = Vec::with_capacity(test.len());
        for (ti, trace) in test.iter().enumerate() {
            let estimates: Vec<_> = t.span("fingerprint.nn", |_| {
                trace
                    .scans
                    .iter()
                    .map(|s| {
                        nn.localize_slice(&s[..n_aps])
                            .expect("scan length matches database")
                    })
                    .collect()
            });
            outcomes.push(
                trace
                    .passes
                    .iter()
                    .zip(&estimates)
                    .enumerate()
                    .map(|(pi, (pass, &est))| outcome(world, ti, pi, pass.location, est))
                    .collect(),
            );
        }
        outcomes
    });

    let r = setting.build_report;
    SettingRun {
        n_aps,
        wifi,
        moloc,
        index,
        kernel,
        rlms_observed: r.observed,
        rlms_accepted: r.observed - r.rejected_coarse - r.rejected_unmapped,
    }
}

fn run_world(seed: u64, t: &mut Tracer) -> WorldRun {
    t.span("bench.world", |t| {
        let world = build_world(seed, t);
        let settings: Vec<SettingRun> = AP_COUNTS
            .iter()
            .map(|&n| run_setting(&world, n, t))
            .collect();
        let mut h = Fnv::default();
        for s in &settings {
            for o in s.moloc.iter().chain(&s.wifi).flatten() {
                h.eat(u64::from(o.estimate.get()));
                h.eat(o.error_m.to_bits());
            }
        }
        WorldRun {
            digest: h.finish(),
            world,
            settings,
        }
    })
}

/// Whether the world's outcomes equal `fig7::run` on the same world.
fn matches_fig7(run: &WorldRun) -> bool {
    let fig = fig7::run(&run.world);
    fig.settings.len() == run.settings.len()
        && fig.settings.iter().zip(&run.settings).all(|(f, s)| {
            f.n_aps == s.n_aps && f.moloc.outcomes == s.moloc && f.wifi.outcomes == s.wifi
        })
}

fn score(fidelity: &mut Fidelity, run: &WorldRun) {
    for s in &run.settings {
        for (m, w) in s.moloc.iter().flatten().zip(s.wifi.iter().flatten()) {
            fidelity.add(m.is_accurate(), w.is_accurate(), m.error_m);
        }
    }
}

/// Probes of the traced run, timed outside the spans: the same test
/// traces fingerprint-only (every motion `None`: k-NN plus Eq. 4), and
/// interval measurement on every trace of the world.
#[derive(Default)]
struct Probes {
    fponly_ns: u64,
    fponly_traces: u64,
    intervals_ns: u64,
    intervals_traces: u64,
}

impl Probes {
    fn run(&mut self, run: &WorldRun) {
        let config = MoLocConfig::paper();
        for s in &run.settings {
            let mut engine = BatchLocalizer::new_with_index(&s.index, &s.kernel, config);
            let mut estimates = Vec::new();
            for trace in &run.world.corpus.test {
                let scans: Vec<&[f64]> = trace.scans.iter().map(|x| &x[..s.n_aps]).collect();
                let none = vec![None; scans.len()];
                let start = Instant::now();
                engine
                    .localize_scans_into(&scans, &none, &mut estimates)
                    .expect("query length matches database");
                self.fponly_ns += start.elapsed().as_nanos() as u64;
                self.fponly_traces += 1;
                std::hint::black_box(&estimates);
            }
        }
        let detector = StepDetector::default();
        for trace in run.world.corpus.train.iter().chain(&run.world.corpus.test) {
            let start = Instant::now();
            std::hint::black_box(measure_intervals(trace, &detector));
            self.intervals_ns += start.elapsed().as_nanos() as u64;
            self.intervals_traces += 1;
        }
    }
}

pub fn run(bench: &mut Bench) -> Report {
    let mut report = Report::default();
    let mut failed = 0u64;

    // Set-up: a warm-up world through the whole pipeline, then its
    // reference check (first use spawns the evaluation pool).
    let warm_seed = derive(bench.seed, 0, 0);
    let build = move |t: &mut Tracer| run_world(warm_seed, t);
    let mut warm = bench.setup(SETUPS, build);
    failed += u64::from(!matches_fig7(&warm));

    // The reference pass, untimed and with the recorders off.
    let base_seed = bench.seed;
    let world_seed = |item: usize| derive(base_seed, 1, item as u64);
    let mut fidelity = Fidelity::default();
    let mut digests = Vec::with_capacity(WORLDS);
    for item in 0..WORLDS {
        let run = run_world(world_seed(item), &mut bench.tracer);
        digests.push(run.digest);
        score(&mut fidelity, &run);
        failed += u64::from(!matches_fig7(&run));
    }

    let mut probes = Probes::default();
    let (mut rlms_observed, mut rlms_accepted, mut nn_queries) = (0u64, 0u64, 0u64);
    let mut repeats_us = Repeats::new(TIMED_WORLDS);
    let started = Instant::now();
    let mut i = 0usize;
    while i < 2 * TIMED_WORLDS || bench.running(started) {
        warm = bench.resetup(started, warm, build);
        let item = i % TIMED_WORLDS;
        let op = bench.op(|t| run_world(world_seed(item), t), |w| w.digest);
        let run = op.out;
        repeats_us.record(item, op.ns as f64 / 1e3);
        if bench.trace {
            for s in &run.settings {
                rlms_observed += s.rlms_observed;
                rlms_accepted += s.rlms_accepted;
                nn_queries += s.wifi.iter().map(Vec::len).sum::<usize>() as u64;
            }
        }
        if bench.trace && i < TIMED_WORLDS {
            probes.run(&run);
        }
        failed += u64::from(!(digests[item] == run.digest && op.consistent));
        i += 1;
    }
    drop(bench.finish_setup(&mut report, warm, build));
    let mut digest = Fnv::default();
    for d in &digests {
        digest.eat(*d);
    }
    // The warm-up world, the reference pass and the timed operations.
    report.attempted = 1 + WORLDS as u64 + i as u64;
    report.failed = failed;
    report.digest = digest.finish();

    if bench.trace {
        layers::fill(
            &mut report,
            &bench.tracer,
            &ObsView::take(),
            bench.traced_ops(),
        );
        let fused_us = bench.tracer.totals("core.trace").mean(1e3);
        let fponly_us = ratio(probes.fponly_ns as f64, probes.fponly_traces as f64 * 1e3);
        report.set("core.trace_fponly_us", fponly_us);
        report.set("core.fusion_share", 1.0 - ratio(fponly_us, fused_us));
        report.set(
            "mobility.intervals_us",
            ratio(
                probes.intervals_ns as f64,
                probes.intervals_traces as f64 * 1e3,
            ),
        );
        let nn_ns = bench.tracer.totals("fingerprint.nn").total_ns;
        report.set(
            "fingerprint.nn_query_ns",
            ratio(nn_ns as f64, nn_queries as f64),
        );
        report.set(
            "motion.rlm_accept_ratio",
            ratio(rlms_accepted as f64, rlms_observed as f64),
        );
    } else {
        fidelity.report(&mut report);
        let worlds_us = repeats_us.fastest();
        let ops_per_s = ratio(worlds_us.len() as f64 * 1e6, worlds_us.iter().sum());
        report.timing(ops_per_s, median(&worlds_us), percentile(&worlds_us, 0.99));
    }
    report
}
