//! `live-update`: crowdsourced writes beside reads. `LiveLocalizer`
//! readers replay the test traces of a paper-scale world (6 APs) step
//! by step, round-robin on one thread. Between reader steps a writer
//! folds crowdsourced survey samples and RLMs into an `UpdateLog`, and
//! every `PUBLISH_EVERY` reader steps it publishes through the
//! `SnapshotPublisher`. Every publish rebuilds the snapshot from the
//! full history and every adoption rebuilds the reader's kernel, so the
//! write side is the cost under test. One operation is one round: seed
//! log, readers, all steps and publishes, with the deltas in one of
//! eight seeded arrival orders. The final snapshot's digest must equal a
//! from-scratch `UpdateLog` rebuild over the merged deltas.

use std::time::Instant;

use moloc_core::config::MoLocConfig;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::{LocationId, ReferenceGrid};
use moloc_live::{LiveLocalizer, SnapshotPublisher, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;

use crate::paper_repro::{analyze, build_world, harvest, step_motions};
use crate::tracer::Tracer;
use crate::util::{derive, median, percentile, ratio, Fnv, Repeats, SplitMix};
use crate::{layers, Bench, Fidelity, ObsView, Report};

const N_APS: usize = 6;
/// Survey samples per location in the epoch-0 seed database (of 40).
const INITIAL_SAMPLES: usize = 12;
/// The deployed world is the reproduction's default one; the benchmark
/// seed drives the order in which crowdsourced deltas arrive.
const WORLD_SEED: u64 = 2013;
/// Seeded delta arrival orders a run cycles through, one per round; the
/// fidelity metrics average over all of them.
const ORDERS: usize = 8;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 21;
/// Reader steps between publishes.
const PUBLISH_EVERY: u64 = 32;

/// One crowdsourced contribution.
#[derive(Debug, Clone)]
enum Delta {
    Survey(LocationId, Vec<f64>),
    Rlm(Rlm),
}

fn apply(log: &mut UpdateLog, delta: &Delta) {
    match delta {
        Delta::Survey(id, values) => log
            .observe_survey_sample(*id, values)
            .expect("survey samples carry every AP"),
        Delta::Rlm(rlm) => {
            log.observe_rlm(*rlm);
        }
    }
}

struct Reader {
    scans: Vec<Vec<f64>>,
    motions: Vec<Option<MotionMeasurement>>,
    truth: Vec<LocationId>,
    wifi: Vec<LocationId>,
}

struct Live {
    grid: ReferenceGrid,
    map: MapReference,
    seed_deltas: Vec<Delta>,
    deltas: Vec<Delta>,
    /// Arrival orders: permutations of `deltas` indices.
    orders: Vec<Vec<usize>>,
    /// Deltas the writer folds before each reader step.
    per_step: usize,
    readers: Vec<Reader>,
}

fn fresh_log(live: &Live) -> UpdateLog {
    UpdateLog::new(N_APS, live.map.clone(), SanitationConfig::paper())
        .expect("paper sanitation is valid")
}

fn setup(seed: u64, t: &mut Tracer) -> Live {
    t.span("bench.setup", |t| {
        let world = build_world(WORLD_SEED, t);
        let mut seed_deltas = Vec::new();
        let mut survey_deltas = Vec::new();
        for loc in world.survey.locations() {
            for (i, scan) in loc.fingerprint.iter().enumerate() {
                let values: Vec<f64> = scan.iter().take(N_APS).map(|d| d.value()).collect();
                let delta = Delta::Survey(loc.location, values);
                if i < INITIAL_SAMPLES {
                    seed_deltas.push(delta);
                } else {
                    survey_deltas.push(delta);
                }
            }
        }

        // RLMs come from the deployed (epoch-0) estimator: one trace in
        // four seeds the log, the rest arrive as deltas.
        let mut seed_log = UpdateLog::new(N_APS, world.hall.map.clone(), SanitationConfig::paper())
            .expect("paper sanitation is valid");
        for d in &seed_deltas {
            apply(&mut seed_log, d);
        }
        let epoch0 = t
            .span("live.build_snapshot", |_| seed_log.build_snapshot(0))
            .expect("seed survey covers every location");
        let mut rlm_deltas = Vec::new();
        for i in 0..world.corpus.train.len() {
            let analysis = analyze(&world, i, true, &epoch0.fdb, &epoch0.index, N_APS, t);
            let rlms = harvest(&analysis).into_iter().map(Delta::Rlm);
            if i % 4 == 0 {
                seed_deltas.extend(rlms);
            } else {
                rlm_deltas.extend(rlms);
            }
        }
        let deltas: Vec<Delta> = survey_deltas.into_iter().chain(rlm_deltas).collect();
        // Contributions arrive in seeded random orders.
        let mut rng = SplitMix::new(seed);
        let orders = (0..ORDERS)
            .map(|_| {
                let mut order: Vec<usize> = (0..deltas.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                order
            })
            .collect();

        let nn = NnLocalizer::with_index(&epoch0.fdb, &epoch0.index);
        let readers: Vec<Reader> = world
            .corpus
            .test
            .iter()
            .enumerate()
            .map(|(ti, trace)| {
                let analysis = analyze(&world, ti, false, &epoch0.fdb, &epoch0.index, N_APS, t);
                let scans: Vec<Vec<f64>> =
                    trace.scans.iter().map(|s| s[..N_APS].to_vec()).collect();
                Reader {
                    motions: step_motions(&analysis, scans.len()),
                    wifi: scans
                        .iter()
                        .map(|s| nn.localize_slice(s).expect("query length matches database"))
                        .collect(),
                    truth: trace.passes.iter().map(|p| p.location).collect(),
                    scans,
                }
            })
            .collect();
        let steps: usize = readers.iter().map(|r| r.scans.len()).sum();
        Live {
            grid: world.hall.grid.clone(),
            map: world.hall.map.clone(),
            per_step: deltas.len().div_ceil(steps.max(1)),
            seed_deltas,
            deltas,
            orders,
            readers,
        }
    })
}

/// What one round produced.
struct Round {
    estimates: Vec<Vec<LocationId>>,
    step_us: Vec<f64>,
    adopt_step_us: Vec<f64>,
    steady_step_us: Vec<f64>,
    publish_ms: Vec<f64>,
    folded: usize,
    final_digest: u64,
    digest: u64,
}

fn round(live: &Live, order: &[usize], t: &mut Tracer) -> Round {
    t.span("bench.round", |t| {
        let config = MoLocConfig::paper();
        let (publisher, mut log) = t.span("live.open", |_| {
            let mut log = fresh_log(live);
            for d in &live.seed_deltas {
                apply(&mut log, d);
            }
            let publisher =
                SnapshotPublisher::new(log.build_snapshot(0).expect("seed snapshot builds"));
            log.mark_published();
            (publisher, log)
        });
        let mut readers: Vec<LiveLocalizer> = live
            .readers
            .iter()
            .map(|_| {
                t.span("live.reader_open", |_| {
                    LiveLocalizer::new(publisher.reader(), config)
                })
            })
            .collect();
        let mut epochs = vec![0u64; readers.len()];
        let mut estimates: Vec<Vec<LocationId>> = live
            .readers
            .iter()
            .map(|r| Vec::with_capacity(r.scans.len()))
            .collect();
        let (mut step_us, mut adopt_step_us, mut steady_step_us, mut publish_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut folded = 0usize;
        let mut steps = 0u64;
        let publish = |t: &mut Tracer, log: &mut UpdateLog, publish_ms: &mut Vec<f64>| {
            let start = Instant::now();
            t.span("live.publish", |_| publisher.publish(log))
                .expect("publish succeeds");
            publish_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
        };
        let longest = live
            .readers
            .iter()
            .map(|r| r.scans.len())
            .max()
            .unwrap_or(0);
        for s in 0..longest {
            for (k, reader) in live.readers.iter().enumerate() {
                if s >= reader.scans.len() {
                    continue;
                }
                let batch = live.per_step.min(live.deltas.len() - folded);
                t.span("live.fold", |_| {
                    for &d in &order[folded..folded + batch] {
                        apply(&mut log, &live.deltas[d]);
                    }
                });
                folded += batch;
                steps += 1;
                if steps.is_multiple_of(PUBLISH_EVERY) {
                    publish(t, &mut log, &mut publish_ms);
                }
                let start = Instant::now();
                let (location, epoch) = t
                    .span("live.step", |_| {
                        readers[k].observe(&reader.scans[s], reader.motions[s])
                    })
                    .expect("query length matches database");
                let us = start.elapsed().as_nanos() as f64 / 1e3;
                step_us.push(us);
                if epoch != epochs[k] {
                    adopt_step_us.push(us);
                    epochs[k] = epoch;
                } else {
                    steady_step_us.push(us);
                }
                estimates[k].push(location);
            }
        }
        publish(t, &mut log, &mut publish_ms);
        let final_digest = publisher.snapshot().digest();
        let mut h = Fnv::default();
        h.eat(final_digest);
        for l in estimates.iter().flatten() {
            h.eat(u64::from(l.get()));
        }
        Round {
            estimates,
            step_us,
            adopt_step_us,
            steady_step_us,
            publish_ms,
            folded,
            final_digest,
            digest: h.finish(),
        }
    })
}

/// The from-scratch rebuild over the seed and every folded delta.
fn rebuild_digest(live: &Live, order: &[usize], folded: usize) -> u64 {
    let mut log = fresh_log(live);
    for d in live
        .seed_deltas
        .iter()
        .chain(order[..folded].iter().map(|&d| &live.deltas[d]))
    {
        apply(&mut log, d);
    }
    log.build_snapshot(0).expect("rebuild succeeds").digest()
}

pub fn run(bench: &mut Bench) -> Report {
    let mut report = Report::default();
    let seed = derive(bench.seed, 4, 0);
    let build = move |t: &mut Tracer| setup(seed, t);
    let mut live = bench.setup(SETUPS, build);
    let steps_per_round = live.readers.iter().map(|r| r.scans.len()).sum::<usize>();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut round_ns, mut round_p50_us, mut round_p99_us) = (
        Repeats::new(ORDERS),
        Repeats::new(ORDERS),
        Repeats::new(ORDERS),
    );
    let (mut adopt_us, mut steady_us, mut publish_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut firsts: Vec<(u64, Vec<Vec<LocationId>>)> = Vec::with_capacity(ORDERS);
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds < 2 * ORDERS || bench.running(started) {
        live = bench.resetup(started, live, build);
        let class = rounds % ORDERS;
        let order = &live.orders[class];
        let op = bench.op(|t| round(&live, order, t), |r| r.digest);
        let r = op.out;
        attempted += steps_per_round as u64;
        let repeat_ok = firsts.get(class).is_none_or(|(d, _)| *d == r.digest);
        let rebuild_ok = rebuild_digest(&live, order, r.folded) == r.final_digest;
        if !(op.consistent && repeat_ok && rebuild_ok) {
            failed += steps_per_round as u64;
        }
        round_ns.record(class, op.ns as f64);
        round_p50_us.record(class, median(&r.step_us));
        round_p99_us.record(class, percentile(&r.step_us, 0.99));
        if bench.trace {
            adopt_us.extend_from_slice(&r.adopt_step_us);
            steady_us.extend_from_slice(&r.steady_step_us);
            publish_ms.extend_from_slice(&r.publish_ms);
        }
        if class == firsts.len() {
            firsts.push((r.digest, r.estimates));
        }
        rounds += 1;
    }
    let live = bench.finish_setup(&mut report, live, build);
    report.attempted = attempted;
    report.failed = failed;
    let mut h = Fnv::default();
    for (d, _) in &firsts {
        h.eat(*d);
    }
    report.digest = h.finish();

    if bench.trace {
        let obs = ObsView::take();
        layers::fill(&mut report, &bench.tracer, &obs, bench.traced_ops());
        if let Some((calls, secs)) = obs.hist("core.batch.observe") {
            bench.tracer.transfer(
                "live.step",
                "core.observe",
                calls as u64,
                (secs * 1e9) as u64,
            );
        }
        report.set("live.publish_p99_ms", percentile(&publish_ms, 0.99));
        report.set("live.adopt_step_us", median(&adopt_us));
        report.set("live.steady_step_us", median(&steady_us));
    } else {
        let mut fidelity = Fidelity::default();
        let rounds = firsts
            .iter()
            .flat_map(|(_, estimates)| live.readers.iter().zip(estimates));
        for (reader, out) in rounds {
            for ((e, w), truth) in out.iter().zip(&reader.wifi).zip(&reader.truth) {
                fidelity.add(e == truth, w == truth, live.grid.distance(*e, *truth));
            }
        }
        fidelity.report(&mut report);
        // Rounds of one delta order repeat the same work: each order is
        // summarized by its fastest round, then the orders are combined.
        let rounds_ns = round_ns.fastest();
        let ops_per_s = ratio(
            (rounds_ns.len() * steps_per_round) as f64 * 1e9,
            rounds_ns.iter().sum(),
        );
        report.timing(
            ops_per_s,
            median(&round_p50_us.fastest()),
            median(&round_p99_us.fastest()),
        );
    }
    report
}
