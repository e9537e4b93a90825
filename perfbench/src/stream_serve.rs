//! `stream-serve`: many user streams served by the session layer. The
//! streams are the test traces of a paper-scale world (6 APs) with
//! their calibrated motions; each runs through its own
//! `StreamingSession` with a checkpoint log and the default
//! `SessionConfig`, all interleaved round-robin on one thread. Arrival
//! order is perturbed by the seeded `ScanReorder` and `ScanDuplicate`
//! injectors. A round serves [`GROUPS`] such groups of users one after
//! another, each group with its own perturbation of the same traces, so
//! that the latency distribution pools several perturbations rather
//! than hinge on one. One operation is one round; a step's
//! latency runs from the first arrival of its event to the release of
//! its estimate, so time spent waiting in the reorder buffer counts.
//! Released estimates must equal `localize_scans_into` on the same
//! trace (stream ≡ batch).

use std::path::PathBuf;
use std::time::Instant;

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_faults::{ScanDuplicate, ScanReorder};
use moloc_fingerprint::index::FingerprintIndex;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_session::{Estimate, ScanEvent, SessionConfig, StreamingSession};

use crate::paper_repro::{analyze, build_setting, build_world, step_motions};
use crate::tracer::Tracer;
use crate::util::{derive, median, percentile, ratio, Fnv, Repeats};
use crate::{layers, out_dir, Bench, Fidelity, ObsView, Report};

const N_APS: usize = 6;
/// The deployed world is the reproduction's default one; the benchmark
/// seed drives the network perturbation of the streams.
const WORLD_SEED: u64 = 2013;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 21;
/// Groups of users per round: every test trace is served once per
/// group, each time with another seeded perturbation.
const GROUPS: usize = 4;

/// One user's stream: the in-order events, their arrival order on the
/// wire, and what the batch engine and the WiFi baseline make of them.
struct Stream {
    arrivals: Vec<ScanEvent>,
    events: usize,
    batch: Vec<LocationId>,
    wifi: Vec<LocationId>,
    truth: Vec<LocationId>,
}

struct Served {
    grid: moloc_geometry::ReferenceGrid,
    index: FingerprintIndex,
    kernel: MotionKernel,
    /// The streams of every group, group after group.
    streams: Vec<Stream>,
    /// Streams per group (the test traces).
    group: usize,
    /// Index of each stream's first step among all steps of a round.
    offsets: Vec<usize>,
    steps: usize,
}

fn setup(seed: u64, t: &mut Tracer) -> Served {
    t.span("bench.setup", |t| {
        let world = build_world(WORLD_SEED, t);
        let config = MoLocConfig::paper();
        let (setting, index) = build_setting(&world, N_APS, t);
        let kernel = t.span("motion.kernel_build", |_| {
            build_kernel(&setting.motion_db, &config)
        });
        let reorder = ScanReorder {
            rate: 0.35,
            window: 4,
            seed: derive(seed, 3, 1),
        };
        let duplicate = ScanDuplicate {
            rate: 0.2,
            seed: derive(seed, 3, 2),
        };
        let nn = NnLocalizer::with_index(&setting.fdb, &index);
        // Each test trace's in-order events and what the batch engine
        // and the WiFi baseline make of them.
        let users: Vec<(Vec<ScanEvent>, Stream)> = world
            .corpus
            .test
            .iter()
            .enumerate()
            .map(|(ti, trace)| {
                let analysis = analyze(&world, ti, false, &setting.fdb, &index, N_APS, t);
                let scans: Vec<&[f64]> = trace.scans.iter().map(|s| &s[..N_APS]).collect();
                let motions = step_motions(&analysis, scans.len());
                let mut batch = Vec::with_capacity(scans.len());
                BatchLocalizer::new_with_index(&index, &kernel, config)
                    .localize_scans_into(&scans, &motions, &mut batch)
                    .expect("query length matches database");
                let events = scans
                    .iter()
                    .zip(&motions)
                    .enumerate()
                    .map(|(i, (scan, motion))| ScanEvent {
                        event_id: ((ti as u64) << 32) | i as u64,
                        seq: i as u64,
                        scan: scan.to_vec(),
                        motion: *motion,
                    })
                    .collect();
                let stream = Stream {
                    arrivals: Vec::new(),
                    events: scans.len(),
                    batch,
                    wifi: scans
                        .iter()
                        .map(|s| nn.localize_slice(s).expect("query length matches database"))
                        .collect(),
                    truth: trace.passes.iter().map(|p| p.location).collect(),
                };
                (events, stream)
            })
            .collect();
        // Every group perturbs every trace anew: the injectors are keyed
        // by (group, trace).
        let mut streams = Vec::with_capacity(GROUPS * users.len());
        for g in 0..GROUPS {
            for (ti, (events, user)) in users.iter().enumerate() {
                let key = ((g as u64) << 32) | ti as u64;
                let mut wire = Vec::with_capacity(events.len() * 2);
                for (i, event) in events.iter().enumerate() {
                    wire.push(event.clone());
                    for _ in 0..duplicate.extra_copies(key, i as u64) {
                        wire.push(event.clone());
                    }
                }
                let arrivals = reorder
                    .arrival_order(key, wire.len())
                    .into_iter()
                    .map(|k| wire[k].clone())
                    .collect();
                streams.push(Stream {
                    arrivals,
                    events: user.events,
                    batch: user.batch.clone(),
                    wifi: user.wifi.clone(),
                    truth: user.truth.clone(),
                });
            }
        }
        let offsets: Vec<usize> = streams
            .iter()
            .scan(0, |next, s| {
                let at = *next;
                *next += s.events;
                Some(at)
            })
            .collect();
        Served {
            grid: world.hall.grid.clone(),
            index,
            kernel,
            steps: streams.iter().map(|s| s.events).sum(),
            group: users.len(),
            streams,
            offsets,
        }
    })
}

/// What one round released, and its per-step timings.
struct Round {
    released: Vec<Vec<Estimate>>,
    errors: u64,
    /// Latency of every step, indexed like `Served::offsets` (NaN for a
    /// step never released).
    latencies_us: Vec<f64>,
    held: u64,
    duplicates_dropped: u64,
    digest: u64,
}

/// The checkpoint log of user `stream` of a group. Sessions of later
/// groups and rounds append to the same file; the logs are removed
/// between rounds every `ROUNDS_PER_LOG` rounds, outside the timed work. (Creating and
/// unlinking every log every round made the round cost mostly
/// filesystem metadata work, and that cost drifted from run to run.)
fn log_path(stream: usize) -> PathBuf {
    out_dir().join("ckpt").join(format!("stream-{stream}.ckpt"))
}

const ROUNDS_PER_LOG: u64 = 64;

fn remove_logs(streams: usize) {
    for k in 0..streams {
        let _ = std::fs::remove_file(log_path(k));
    }
}

fn round(served: &Served, t: &mut Tracer) -> Round {
    t.span("bench.round", |t| {
        let config = MoLocConfig::paper();
        let mut released: Vec<Vec<Estimate>> = served
            .streams
            .iter()
            .map(|s| Vec::with_capacity(s.events))
            .collect();
        let mut first_arrival: Vec<Vec<Option<Instant>>> = served
            .streams
            .iter()
            .map(|s| vec![None; s.events])
            .collect();
        let mut latencies_us = vec![f64::NAN; served.steps];
        let (mut held, mut errors, mut duplicates_dropped) = (0u64, 0u64, 0u64);
        let n = served.group;
        for base in (0..served.streams.len()).step_by(n) {
            let mut sessions: Vec<StreamingSession<'_>> = (0..n)
                .map(|k| {
                    t.span("session.open", |_| {
                        StreamingSession::with_log(
                            &served.index,
                            &served.kernel,
                            config,
                            SessionConfig::default(),
                            log_path(k),
                        )
                        .expect("checkpoint log opens")
                    })
                })
                .collect();
            let mut cursor = vec![0usize; n];
            let mut open = n;
            while open > 0 {
                for k in 0..n {
                    let s = base + k;
                    let stream = &served.streams[s];
                    let before = released[s].len();
                    let seq = if cursor[k] < stream.arrivals.len() {
                        let event = stream.arrivals[cursor[k]].clone();
                        let seq = event.seq;
                        first_arrival[s][seq as usize].get_or_insert_with(Instant::now);
                        let result = t.span("session.ingest", |_| {
                            sessions[k].ingest(event, &mut released[s])
                        });
                        errors += u64::from(result.is_err());
                        Some(seq)
                    } else if cursor[k] == stream.arrivals.len() {
                        let result =
                            t.span("session.finish", |_| sessions[k].finish(&mut released[s]));
                        errors += u64::from(result.is_err());
                        open -= 1;
                        None
                    } else {
                        continue;
                    };
                    cursor[k] += 1;
                    let now = Instant::now();
                    for e in &released[s][before..] {
                        if let Some(at) = first_arrival[s].get(e.seq as usize).copied().flatten() {
                            latencies_us[served.offsets[s] + e.seq as usize] =
                                now.duration_since(at).as_nanos() as f64 / 1e3;
                        }
                        held += u64::from(seq != Some(e.seq));
                    }
                }
            }
            duplicates_dropped += sessions
                .iter()
                .map(|s| {
                    let stats = s.reorder_stats();
                    stats.duplicates_dropped + stats.late_dropped
                })
                .sum::<u64>();
        }
        let mut h = Fnv::default();
        for e in released.iter().flatten() {
            h.eat(e.seq);
            h.eat(u64::from(e.location.get()));
            h.eat(u64::from(e.flags.bits()));
        }
        Round {
            released,
            errors,
            latencies_us,
            held,
            duplicates_dropped,
            digest: h.finish(),
        }
    })
}

/// Steps of a round whose released estimate differs from the batch
/// engine's (missing, extra or out-of-order releases count too).
fn mismatches(served: &Served, r: &Round) -> u64 {
    served
        .streams
        .iter()
        .zip(&r.released)
        .map(|(s, out)| {
            let matched = s
                .batch
                .iter()
                .zip(out)
                .enumerate()
                .filter(|(i, (b, e))| e.seq == *i as u64 && e.location == **b)
                .count();
            (s.events.max(out.len()) - matched) as u64
        })
        .sum()
}

pub fn run(bench: &mut Bench) -> Report {
    let mut report = Report::default();
    let seed = derive(bench.seed, 3, 0);
    let build = move |t: &mut Tracer| setup(seed, t);
    let mut served = bench.setup(SETUPS, build);
    std::fs::create_dir_all(out_dir().join("ckpt")).expect("checkpoint directory");

    let (mut attempted, mut failed) = (0u64, 0u64);
    // Every round repeats the same work: a round counts with its
    // fastest repeat, a step's latency with its fastest over the rounds.
    let mut round_ns = Repeats::new(1);
    let mut step_fastest_us = vec![f64::INFINITY; served.steps];
    let (mut held, mut duplicates, mut rounds) = (0u64, 0u64, 0u64);
    let mut first: Option<(u64, Vec<Vec<Estimate>>)> = None;
    let started = Instant::now();
    while rounds < 2 || bench.running(started) {
        served = bench.resetup(started, served, build);
        if rounds.is_multiple_of(ROUNDS_PER_LOG) {
            remove_logs(served.group);
        }
        let op = bench.op(|t| round(&served, t), |r| r.digest);
        let r = op.out;
        let delivered = served.steps as u64;
        attempted += delivered;
        let repeat_ok = first.as_ref().is_none_or(|(d, _)| *d == r.digest);
        failed += mismatches(&served, &r) + r.errors;
        if !(op.consistent && repeat_ok) {
            failed += delivered;
        }
        round_ns.record(0, op.ns as f64);
        held += r.held;
        duplicates += r.duplicates_dropped;
        rounds += 1;
        for (fastest, &us) in step_fastest_us.iter_mut().zip(&r.latencies_us) {
            if us.is_finite() {
                *fastest = fastest.min(us);
            }
        }
        if first.is_none() {
            first = Some((r.digest, r.released));
        }
    }
    let _ = std::fs::remove_dir_all(out_dir().join("ckpt"));
    let served = bench.finish_setup(&mut report, served, build);
    report.attempted = attempted;
    report.failed = failed;
    let (digest, released) = first.expect("one round ran");
    report.digest = digest;

    if bench.trace {
        let obs = ObsView::take();
        layers::fill(&mut report, &bench.tracer, &obs, bench.traced_ops());
        // The engine's per-step observe time, measured inside the
        // session calls by the program's own recorder, moves from the
        // session layer to core.
        if let Some((calls, secs)) = obs.hist("core.batch.observe") {
            let ns = (secs * 1e9) as u64;
            let moved = bench
                .tracer
                .transfer("session.ingest", "core.observe", calls as u64, ns);
            bench
                .tracer
                .transfer("session.finish", "core.observe", 0, ns - moved);
        }
        report.set(
            "session.reorder_held_share",
            ratio(held as f64, attempted as f64),
        );
        report.set(
            "session.duplicates_dropped",
            ratio(duplicates as f64, rounds as f64),
        );
    } else {
        let mut fidelity = Fidelity::default();
        for (s, out) in served.streams.iter().zip(&released) {
            for ((e, w), truth) in out.iter().zip(&s.wifi).zip(&s.truth) {
                fidelity.add(
                    e.location == *truth,
                    w == truth,
                    served.grid.distance(e.location, *truth),
                );
            }
        }
        fidelity.report(&mut report);
        let steps_us: Vec<f64> = step_fastest_us
            .into_iter()
            .filter(|us| us.is_finite())
            .collect();
        report.timing(
            ratio(served.steps as f64 * 1e9, round_ns.fastest()[0]),
            median(&steps_us),
            percentile(&steps_us, 0.99),
        );
    }
    report
}
