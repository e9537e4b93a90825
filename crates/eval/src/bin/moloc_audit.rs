//! `moloc-audit` — the differential verification gate (DESIGN.md §18).
//!
//! Drives every optimised path in the workspace against its naive
//! `moloc-verify` oracle on seeded inputs drawn from the evaluation
//! world, with the runtime invariant layer recording throughout:
//!
//! * `knn.scalar` / `knn.masked` — the clean and masked index scans vs
//!   the exhaustive sorted scan (ids exact, dissimilarities to 1e-9;
//!   the contracts document bit-identity, the slack merely decouples
//!   the gate from libm), on the 6-AP hall survey and on a 512-row,
//!   16-AP planted-twin lattice whose twins tie exactly.
//! * `kernel.pair` / `kernel.stay` — the tabulated-CDF motion kernel
//!   vs the exact `erf` evaluation (documented accuracy 1e-6; gate at
//!   2e-6).
//! * `eq4.candidates` — `BatchLocalizer`'s first-step posterior vs
//!   the oracle chain `k_nearest` → `candidate_probabilities` (1e-12;
//!   exact-match queries at 0).
//! * `eq7.kernel` / `eq7.exact` — `BatchLocalizer`'s Eq. 7 step from a
//!   restored posterior (`restore_posterior` + `observe_slice`) vs the
//!   oracle chain ending in `fuse_posterior`. The kernel arm closes the
//!   oracle over the engine's own motion kernel and gates at 1e-12 (the
//!   arithmetic is the same). The exact arm closes it over the `erf`
//!   Eq. 5 oracle: the kernel's per-pair 1e-6 can be amplified by
//!   normalization when the total mass is tiny, so it gates at 1e-3 —
//!   divergence there means a wrong *decision*, not a wrong ulp. Half
//!   the steps stay in place (same scan, short offset) so the
//!   stay-in-place diagonal carries the mass.
//! * `parallel.width` — the work-stealing evaluation runtime at worker
//!   widths 1 vs 4 (bit-identical estimates required).
//! * `live.rebuild` — incremental epoch publication vs a from-scratch
//!   rebuild of the same contribution history (content digests must
//!   collide).
//! * `session.recover` — kill/recover at several stream prefixes vs
//!   the uninterrupted run (estimates and final encoded state
//!   byte-identical).
//! * `frame.roundtrip` — the checkpoint wire format vs an independent
//!   reimplementation (byte-identical frames, symmetric rejection).
//!
//! Divergences and invariant violations are reported as structured
//! JSON; the process exits nonzero unless the report is clean.
//! `--self-test` plants a known divergence (a perturbed oracle input)
//! and is expected to exit nonzero — CI runs it negated to prove the
//! gate can actually fail.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::DegradationFlags;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::pipeline::{analyze_trace_indexed, EvalWorld, Setting};
use moloc_faults::rng::{hash, unit};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::Neighbor;
use moloc_geometry::LocationId;
use moloc_live::{SnapshotPublisher, UpdateLog};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::matrix::MotionDb;
use moloc_motion::rlm::Rlm;
use moloc_runtime::{par_run, set_worker_override};
use moloc_sensors::steps::StepDetector;
use moloc_session::{ScanEvent, SessionConfig, StreamingSession};
use moloc_verify::oracle;
use moloc_verify::{AuditReport, Divergence};

const USAGE: &str = "usage: moloc-audit [--seed N] [--out FILE] [--self-test]";
const N_APS: usize = 6;
/// Queries drawn from the test corpus per k-NN suite.
const N_QUERIES: usize = 48;
/// Rows and APs of the planted-twin lattice survey: wide enough for the
/// scan's generic-width arm, long enough to hold 15 twin pairs.
const LATTICE_ROWS: u32 = 512;
const LATTICE_APS: usize = 16;
/// One prime lattice modulus per AP, so rows do not alias at 16 APs.
const LATTICE_MODULI: [u32; LATTICE_APS] = [
    23, 29, 31, 37, 41, 43, 47, 53, 23, 29, 31, 37, 41, 43, 47, 53,
];

fn main() {
    let mut seed: u64 = 2013;
    let mut out_path: Option<String> = None;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seed = v,
                _ => usage_exit("--seed needs an integer"),
            },
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => usage_exit("--out needs a path"),
            },
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_exit(&format!("unknown argument {other}")),
        }
    }
    if let Err(e) = moloc_eval::parallel::validate_env().and(moloc_session::validate_env()) {
        eprintln!("moloc-audit: {e}");
        std::process::exit(2);
    }

    // Record, don't panic: every divergence and violation lands in one
    // report instead of aborting the sweep at the first failure.
    moloc_verify::enable_recording();
    let _ = moloc_verify::take_violations();

    let mut report = AuditReport::new(seed);
    eprintln!("moloc-audit: building evaluation world (seed {seed})");
    let world = EvalWorld::small(seed);
    let setting = world.setting(N_APS);
    let config = MoLocConfig::paper();
    let queries = corpus_queries(&world, seed);

    knn_suites(
        &[hall_survey(&setting, queries.clone()), lattice_survey(seed)],
        seed,
        self_test,
        &mut report,
    );
    kernel_suites(&setting.motion_db, &config, seed, &mut report);
    eq_suites(&setting, &queries, &config, seed, &mut report);
    parallel_suite(&world, &setting, &mut report);
    live_suite(&world, &setting, seed, &mut report);
    session_suite(&world, &setting, &mut report);
    frame_suite(seed, &mut report);

    report.invariant_violations = moloc_verify::take_violations();
    moloc_verify::set_enabled(false);

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match &out_path {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("moloc-audit: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("moloc-audit: report written to {path}");
        }
        None => println!("{json}"),
    }
    let verdict = if report.clean() { "CLEAN" } else { "DIVERGED" };
    eprintln!(
        "moloc-audit: {verdict} — {} cases across {} suites, {} divergences, {} violations",
        report.total_cases(),
        report.suites.len(),
        report.divergences.len(),
        report.invariant_violations.len()
    );
    std::process::exit(i32::from(!report.clean()));
}

fn usage_exit(message: &str) -> ! {
    eprintln!("moloc-audit: {message}\n{USAGE}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// Shared input material.
// ---------------------------------------------------------------------

/// Clean queries drawn round-robin from the test corpus scans, plus a
/// few seeded synthetic ones so coverage does not depend on corpus
/// size.
fn corpus_queries(world: &EvalWorld, seed: u64) -> Vec<Vec<f64>> {
    let mut queries = Vec::with_capacity(N_QUERIES);
    'outer: for trace in &world.corpus.test {
        for scan in &trace.scans {
            queries.push(scan[..N_APS].to_vec());
            if queries.len() == N_QUERIES - 4 {
                break 'outer;
            }
        }
    }
    for i in 0..4u64 {
        queries.push(
            (0..N_APS)
                .map(|d| -30.0 - 60.0 * unit(hash(seed, 0xA0, i, d as u64)))
                .collect(),
        );
    }
    queries
}

/// Deterministically masks ~30% of a query's APs with NaN.
fn masked_query(query: &[f64], seed: u64, case: u64) -> Vec<f64> {
    query
        .iter()
        .enumerate()
        .map(|(d, &v)| {
            if unit(hash(seed, 0xB0, case, d as u64)) < 0.3 {
                f64::NAN
            } else {
                v
            }
        })
        .collect()
}

fn pairs_of(neighbors: &[Neighbor]) -> Vec<(LocationId, f64)> {
    neighbors
        .iter()
        .map(|n| (n.location, n.dissimilarity))
        .collect()
}

fn fmt_pairs(pairs: &[(LocationId, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(id, v)| format!("({}, {v:.12e})", id.get()))
        .collect();
    format!("[{}]", body.join(", "))
}

/// Compares an optimised neighbor list against the oracle's: location
/// ids must match exactly (the tie contract is part of the result),
/// dissimilarities to `tol`.
fn compare_pairs(
    suite: &str,
    case: String,
    expected: &[(LocationId, f64)],
    actual: &[(LocationId, f64)],
    tol: f64,
    divergences: &mut Vec<Divergence>,
) {
    let matches = expected.len() == actual.len()
        && expected
            .iter()
            .zip(actual)
            .all(|(&(ei, ev), &(ai, av))| ei == ai && (ev - av).abs() <= tol);
    if !matches {
        divergences.push(Divergence {
            suite: suite.to_string(),
            case,
            expected: fmt_pairs(expected),
            actual: fmt_pairs(actual),
        });
    }
}

// ---------------------------------------------------------------------
// k-NN suites: the clean and masked scans vs the exhaustive oracle.
// ---------------------------------------------------------------------

/// One survey the k-NN suites run against, with its queries.
struct KnnSurvey {
    name: &'static str,
    index: FingerprintIndex,
    rows: Vec<(LocationId, Vec<f64>)>,
    queries: Vec<Vec<f64>>,
}

impl KnnSurvey {
    fn new(name: &'static str, rows: Vec<(LocationId, Vec<f64>)>, queries: Vec<Vec<f64>>) -> Self {
        let db = FingerprintDb::from_fingerprints(
            rows.iter()
                .map(|(id, row)| (*id, Fingerprint::new(row.clone())))
                .collect(),
        )
        .expect("audit survey is a valid database");
        KnnSurvey {
            name,
            index: FingerprintIndex::build(&db),
            rows,
            queries,
        }
    }

    fn oracle_rows(&self) -> impl Iterator<Item = (LocationId, &[f64])> {
        self.rows.iter().map(|(id, r)| (*id, r.as_slice()))
    }
}

/// The evaluation hall's `N_APS`-wide survey with the corpus queries.
fn hall_survey(setting: &Setting, queries: Vec<Vec<f64>>) -> KnnSurvey {
    let rows = setting
        .fdb
        .iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect();
    KnnSurvey::new("hall", rows, queries)
}

/// Row `j` of the dithered RSS lattice: a dBm step per AP plus a
/// sub-dBm dither on a 1/128 dB grid, so distances are exact in f64.
fn lattice_row(j: u32) -> Vec<f64> {
    LATTICE_MODULI
        .iter()
        .zip(0u32..)
        .map(|(&m, a)| {
            -40.0 - f64::from((j * 7 + a * 13) % m) - f64::from((j * 31 + a * 11) % 97) / 128.0
        })
        .collect()
}

/// A `LATTICE_ROWS × LATTICE_APS` planted-twin survey: every 32nd
/// location clones the row of the location 17 before it, so each twin
/// pair ties exactly for every query. Queries are the twin rows
/// themselves (a zero-distance tie), lattice rows shifted half a dB,
/// and a few seeded random scans.
fn lattice_survey(seed: u64) -> KnnSurvey {
    let twin_source = |i: u32| {
        if i >= 17 && i.is_multiple_of(32) {
            i - 17
        } else {
            i
        }
    };
    let rows: Vec<(LocationId, Vec<f64>)> = (0..LATTICE_ROWS)
        .map(|i| (LocationId::new(i + 1), lattice_row(twin_source(i))))
        .collect();
    let mut queries: Vec<Vec<f64>> = (32..LATTICE_ROWS)
        .step_by(32)
        .map(|i| lattice_row(twin_source(i)))
        .collect();
    queries.extend((0..16u32).map(|q| {
        lattice_row((q * 97 + 5) % LATTICE_ROWS)
            .iter()
            .map(|v| v - 0.5)
            .collect()
    }));
    queries.extend((0..4u64).map(|i| {
        (0..LATTICE_APS)
            .map(|d| -40.0 - 60.0 * unit(hash(seed, 0xA1, i, d as u64)))
            .collect()
    }));
    KnnSurvey::new("lattice", rows, queries)
}

fn knn_suites(surveys: &[KnnSurvey], seed: u64, self_test: bool, report: &mut AuditReport) {
    // The paper's k, plus k = 1: a twin pair then ties exactly at the
    // selection boundary, where only the ascending-id rule decides.
    let ks = [MoLocConfig::paper().k, 1];
    let mut scratch = KnnScratch::new();
    let mut out: Vec<Neighbor> = Vec::new();

    // Clean scan. In self-test mode the first case feeds the oracle a
    // perturbed query — a planted divergence the gate must catch.
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for survey in surveys {
        eprintln!(
            "moloc-audit: k-NN suites on the {} survey ({} rows × {} APs, {} queries)",
            survey.name,
            survey.index.len(),
            survey.index.ap_count(),
            survey.queries.len()
        );
        for k in ks {
            for (qi, query) in survey.queries.iter().enumerate() {
                survey
                    .index
                    .k_nearest_into(query, k, &mut scratch, &mut out);
                let mut oracle_query = query.clone();
                if self_test && cases == 0 {
                    oracle_query[0] += 1.0;
                }
                let expected = oracle::k_nearest(survey.oracle_rows(), &oracle_query, k);
                compare_pairs(
                    "knn.scalar",
                    format!("{} k={k} query {qi}", survey.name),
                    &expected,
                    &pairs_of(&out),
                    1e-9,
                    &mut divs,
                );
                cases += 1;
            }
        }
    }
    report.finish_suite("knn.scalar", cases, divs);

    // Masked scan: ~30% of each query's APs dropped, plus the
    // nothing-observed degenerate case.
    let mut divs = Vec::new();
    let mut cases = 0u64;
    let mut salt = 0u64;
    for survey in surveys {
        let queries: Vec<Vec<f64>> = (survey.queries.iter().zip(salt..))
            .map(|(query, case)| masked_query(query, seed, case))
            .chain([vec![f64::NAN; survey.index.ap_count()]])
            .collect();
        salt += queries.len() as u64;
        for k in ks {
            for (qi, query) in queries.iter().enumerate() {
                let observed = survey
                    .index
                    .k_nearest_masked_into(query, k, &mut scratch, &mut out);
                let (expected, expected_observed) =
                    oracle::k_nearest_masked(survey.oracle_rows(), query, k);
                let blind = qi == survey.queries.len();
                let case = if blind {
                    format!("{} k={k} all-NaN query", survey.name)
                } else {
                    format!("{} k={k} query {qi}", survey.name)
                };
                if observed != expected_observed {
                    divs.push(Divergence {
                        suite: "knn.masked".to_string(),
                        case: format!("{case} observed count"),
                        expected: expected_observed.to_string(),
                        actual: observed.to_string(),
                    });
                }
                let tol = if blind { 0.0 } else { 1e-9 };
                compare_pairs(
                    "knn.masked",
                    case,
                    &expected,
                    &pairs_of(&out),
                    tol,
                    &mut divs,
                );
                cases += 1;
            }
        }
    }
    report.finish_suite("knn.masked", cases, divs);
}

// ---------------------------------------------------------------------
// Motion-kernel suites: lookup tables vs the exact erf-based CDF.
// ---------------------------------------------------------------------

fn kernel_suites(db: &MotionDb, config: &MoLocConfig, seed: u64, report: &mut AuditReport) {
    eprintln!(
        "moloc-audit: motion-kernel suites ({} trained pairs)",
        db.pair_count()
    );
    let kernel = build_kernel(db, config);
    // The tabulated CDF is documented accurate to ~1.3e-7 per
    // evaluation; a window takes two, a pair probability four. 2e-6
    // keeps an order of margin without masking a wrong table.
    const TOL: f64 = 2e-6;

    let mut divs = Vec::new();
    let mut cases = 0u64;
    for (a, b, _) in db.iter() {
        for (from, to) in [(a, b), (b, a)] {
            let stats = db.get(from, to).expect("iterated pair exists");
            for s in 0..5u64 {
                let direction = 360.0 * unit(hash(seed, 0xC0, cases, s));
                let offset = 4.0 * unit(hash(seed, 0xC1, cases, s));
                let got = kernel.pair_probability(from, to, direction, offset);
                let want = oracle::pair_probability(
                    stats.direction.mean(),
                    stats.direction.std(),
                    stats.offset.mean(),
                    stats.offset.std(),
                    direction,
                    offset,
                    config.alpha_deg,
                    config.beta_m,
                );
                if (got - want).abs() > TOL {
                    divs.push(Divergence {
                        suite: "kernel.pair".to_string(),
                        case: format!(
                            "{}->{} d={direction:.3} o={offset:.3}",
                            from.get(),
                            to.get()
                        ),
                        expected: format!("{want:.12e}"),
                        actual: format!("{got:.12e}"),
                    });
                }
                cases += 1;
            }
        }
    }
    // Untrained pairs must hit the floor prior exactly.
    let untrained = (LocationId::new(1), LocationId::new(2));
    if db.get(untrained.0, untrained.1).is_none() {
        let got = kernel.pair_probability(untrained.0, untrained.1, 10.0, 1.0);
        if got != config.missing_pair_prob {
            divs.push(Divergence {
                suite: "kernel.pair".to_string(),
                case: "untrained pair".to_string(),
                expected: format!("{:.12e}", config.missing_pair_prob),
                actual: format!("{got:.12e}"),
            });
        }
        cases += 1;
    }
    report.finish_suite("kernel.pair", cases, divs);

    let mut divs = Vec::new();
    let mut cases = 0u64;
    for s in 0..32u64 {
        let offset = 5.0 * unit(hash(seed, 0xC2, s, 0));
        let got = kernel.stay_probability(offset);
        let want = oracle::stationary_probability(
            offset,
            config.alpha_deg,
            config.beta_m,
            config.stationary_offset_std_m,
        );
        if (got - want).abs() > TOL {
            divs.push(Divergence {
                suite: "kernel.stay".to_string(),
                case: format!("o={offset:.3}"),
                expected: format!("{want:.12e}"),
                actual: format!("{got:.12e}"),
            });
        }
        cases += 1;
    }
    report.finish_suite("kernel.stay", cases, divs);
}

// ---------------------------------------------------------------------
// Eq. 4 / Eq. 7 suites.
// ---------------------------------------------------------------------

fn eq_suites(
    setting: &Setting,
    queries: &[Vec<f64>],
    config: &MoLocConfig,
    seed: u64,
    report: &mut AuditReport,
) {
    eprintln!("moloc-audit: Eq. 4 / Eq. 7 suites");
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, config);
    let mut engine = BatchLocalizer::new_with_index(&index, &kernel, *config);
    let rows = || setting.fdb.iter().map(|(id, fp)| (id, fp.values()));
    let no_motion = |_: LocationId, _: LocationId| 0.0;

    // Eq. 4: the engine's first-step posterior (no history) vs the
    // oracle chain, plus the exact-match branch (a query equal to a
    // stored row).
    let mut divs = Vec::new();
    let mut posteriors = Vec::with_capacity(queries.len());
    for (qi, query) in queries.iter().enumerate() {
        engine.reset();
        engine
            .observe_slice(query, None)
            .expect("audit queries match the database");
        let expected = oracle::posterior_step(rows(), query, config.k, &[], no_motion, 0.0);
        compare_pairs(
            "eq4.candidates",
            format!("query {qi}"),
            &expected,
            engine.posterior(),
            1e-12,
            &mut divs,
        );
        posteriors.push(expected);
    }
    let mut cases = queries.len() as u64;
    if let Some((id, fp)) = setting.fdb.iter().next() {
        engine.reset();
        engine
            .observe_slice(fp.values(), None)
            .expect("stored rows match the database");
        let expected = oracle::posterior_step(rows(), fp.values(), config.k, &[], no_motion, 0.0);
        compare_pairs(
            "eq4.candidates",
            format!("exact-match query at {}", id.get()),
            &expected,
            engine.posterior(),
            0.0,
            &mut divs,
        );
        cases += 1;
    }
    report.finish_suite("eq4.candidates", cases, divs);

    // Eq. 7: restore each oracle posterior into the engine and step it
    // to the next query with a seeded motion measurement. Odd cases
    // stay in place — the same scan after a short offset — so the
    // stay-in-place diagonal carries the motion mass.
    let db = &setting.motion_db;
    let exact_motion = |from: LocationId, to: LocationId, d: f64, o: f64| -> f64 {
        if from == to {
            return oracle::stationary_probability(
                o,
                config.alpha_deg,
                config.beta_m,
                config.stationary_offset_std_m,
            );
        }
        match db.get(from, to) {
            Some(stats) => oracle::pair_probability(
                stats.direction.mean(),
                stats.direction.std(),
                stats.offset.mean(),
                stats.offset.std(),
                d,
                o,
                config.alpha_deg,
                config.beta_m,
            ),
            None => config.missing_pair_prob,
        }
    };
    let mut divs_kernel = Vec::new();
    let mut divs_exact = Vec::new();
    let mut cases = 0u64;
    for i in 1..posteriors.len() {
        let stay = cases % 2 == 1;
        let previous = &posteriors[i - 1];
        let query = &queries[if stay { i - 1 } else { i }];
        let direction = 360.0 * unit(hash(seed, 0xD0, cases, 0));
        let offset = if stay {
            0.5 * unit(hash(seed, 0xD1, cases, 0))
        } else {
            0.5 + 3.0 * unit(hash(seed, 0xD1, cases, 0))
        };
        engine.restore_posterior(previous, DegradationFlags::empty());
        engine
            .observe_slice(
                query,
                Some(MotionMeasurement {
                    direction_deg: direction,
                    offset_m: offset,
                }),
            )
            .expect("audit queries match the database");
        let case = format!(
            "step {cases}{} d={direction:.3} o={offset:.3}",
            if stay { " (stay)" } else { "" }
        );
        let expected = oracle::posterior_step(
            rows(),
            query,
            config.k,
            previous,
            |from, to| kernel.pair_probability(from, to, direction, offset),
            config.degenerate_total_floor,
        );
        compare_pairs(
            "eq7.kernel",
            case.clone(),
            &expected,
            engine.posterior(),
            1e-12,
            &mut divs_kernel,
        );
        let expected = oracle::posterior_step(
            rows(),
            query,
            config.k,
            previous,
            |from, to| exact_motion(from, to, direction, offset),
            config.degenerate_total_floor,
        );
        compare_pairs(
            "eq7.exact",
            case,
            &expected,
            engine.posterior(),
            1e-3,
            &mut divs_exact,
        );
        cases += 1;
    }
    report.finish_suite("eq7.kernel", cases, divs_kernel);
    report.finish_suite("eq7.exact", cases, divs_exact);
}

// ---------------------------------------------------------------------
// Work-stealing runtime: worker width must not change results.
// ---------------------------------------------------------------------

fn parallel_suite(world: &EvalWorld, setting: &Setting, report: &mut AuditReport) {
    eprintln!("moloc-audit: parallel width suite");
    let index = FingerprintIndex::build(&setting.fdb);
    let n = world.corpus.test.len().min(12);
    let run = |width: usize| -> Vec<Vec<u32>> {
        set_worker_override(Some(width));
        let result = par_run(n, |i| {
            let analysis = analyze_trace_indexed(
                &world.corpus.test[i],
                &setting.fdb,
                &index,
                &world.hall,
                &StepDetector::default(),
                setting.counting,
                setting.n_aps,
            );
            analysis.nn_estimates.iter().map(|l| l.get()).collect()
        });
        set_worker_override(None);
        result
    };
    let serial = run(1);
    let wide = run(4);
    let mut divs = Vec::new();
    for (i, (s, w)) in serial.iter().zip(&wide).enumerate() {
        if s != w {
            divs.push(Divergence {
                suite: "parallel.width".to_string(),
                case: format!("trace {i}"),
                expected: format!("{s:?}"),
                actual: format!("{w:?}"),
            });
        }
    }
    report.finish_suite("parallel.width", n as u64, divs);
}

// ---------------------------------------------------------------------
// Live updates: incremental publish vs from-scratch rebuild.
// ---------------------------------------------------------------------

fn live_suite(world: &EvalWorld, setting: &Setting, seed: u64, report: &mut AuditReport) {
    eprintln!("moloc-audit: live incremental-vs-rebuild suite");
    let map = world.hall.map.clone();
    let sanitation = SanitationConfig::paper();
    let base: Vec<(LocationId, Vec<f64>)> = setting
        .fdb
        .iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect();

    // The delta stream: per epoch, a couple of perturbed survey
    // samples and one RLM along a mapped pair.
    let delta_samples = |epoch: u64| -> Vec<(LocationId, Vec<f64>)> {
        (0..2u64)
            .map(|s| {
                let pick = hash(seed, 0xE0, epoch, s) as usize % base.len();
                let (id, values) = &base[pick];
                let jittered = values
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| v + 2.0 * unit(hash(seed, 0xE1, epoch * 8 + s, d as u64)) - 1.0)
                    .collect();
                (*id, jittered)
            })
            .collect()
    };
    let delta_rlm = |epoch: u64| -> Rlm {
        let a = LocationId::new(1 + (hash(seed, 0xE2, epoch, 0) % 6) as u32);
        let b = LocationId::new(7 + (hash(seed, 0xE2, epoch, 1) % 6) as u32);
        let direction = map
            .direction_deg(a, b)
            .expect("both endpoints on the hall grid");
        let offset = map.offset_m(a, b) + unit(hash(seed, 0xE3, epoch, 0)) - 0.5;
        Rlm::new(a, b, direction, offset.max(0.1)).expect("valid rlm")
    };

    let mut log = UpdateLog::new(setting.n_aps, map.clone(), sanitation).expect("valid sanitation");
    for (id, values) in &base {
        log.observe_survey_sample(*id, values)
            .expect("ap count matches");
    }
    let publisher = SnapshotPublisher::new(log.build_snapshot(0).expect("seed snapshot"));
    log.mark_published();
    let mut reader = publisher.reader();

    let mut divs = Vec::new();
    let mut cases = 0u64;
    const EPOCHS: u64 = 4;
    for epoch in 1..=EPOCHS {
        for (id, values) in delta_samples(epoch) {
            log.observe_survey_sample(id, &values)
                .expect("ap count matches");
        }
        log.observe_rlm(delta_rlm(epoch));
        let published = publisher.publish(&mut log).expect("publish succeeds");
        reader.refresh();
        let incremental = reader.snapshot().digest();

        // From-scratch arm: a fresh log fed the identical history.
        let mut rebuilt =
            UpdateLog::new(setting.n_aps, map.clone(), sanitation).expect("valid sanitation");
        for (id, values) in &base {
            rebuilt
                .observe_survey_sample(*id, values)
                .expect("ap count matches");
        }
        for e in 1..=epoch {
            for (id, values) in delta_samples(e) {
                rebuilt
                    .observe_survey_sample(id, &values)
                    .expect("ap count matches");
            }
            rebuilt.observe_rlm(delta_rlm(e));
        }
        let rebuilt_digest = rebuilt
            .build_snapshot(epoch)
            .expect("rebuild snapshot")
            .digest();
        if incremental != rebuilt_digest || published.epoch != epoch {
            divs.push(Divergence {
                suite: "live.rebuild".to_string(),
                case: format!("epoch {epoch}"),
                expected: format!("digest {rebuilt_digest:#018x} at epoch {epoch}"),
                actual: format!("digest {incremental:#018x} at epoch {}", published.epoch),
            });
        }
        cases += 1;
    }
    report.finish_suite("live.rebuild", cases, divs);
}

// ---------------------------------------------------------------------
// Session recovery: kill/recover vs the uninterrupted run.
// ---------------------------------------------------------------------

fn session_suite(world: &EvalWorld, setting: &Setting, report: &mut AuditReport) {
    eprintln!("moloc-audit: session kill/recover suite");
    let index = FingerprintIndex::build(&setting.fdb);
    let config = MoLocConfig::paper();
    let kernel = build_kernel(&setting.motion_db, &config);
    let session_config = SessionConfig {
        reorder_capacity: 8,
        checkpoint_interval: 2,
        fsync: false,
    };
    let detector = StepDetector::default();
    let trace = &world.corpus.test[0];
    let analysis = analyze_trace_indexed(
        trace,
        &setting.fdb,
        &index,
        &world.hall,
        &detector,
        setting.counting,
        setting.n_aps,
    );
    let events: Vec<ScanEvent> = trace
        .scans
        .iter()
        .enumerate()
        .map(|(i, scan)| ScanEvent {
            event_id: i as u64,
            seq: i as u64,
            scan: scan[..setting.n_aps].to_vec(),
            motion: if i == 0 {
                None
            } else {
                analysis.measurements[i - 1]
            },
        })
        .collect();

    // Uninterrupted reference.
    let mut reference = Vec::new();
    let reference_state = {
        let mut session = StreamingSession::new(&index, &kernel, config, session_config);
        for event in &events {
            session
                .ingest(event.clone(), &mut reference)
                .expect("reference ingest");
        }
        session.finish(&mut reference).expect("reference finish");
        session.state().encode().expect("state encodes")
    };

    let mut divs = Vec::new();
    let mut cases = 0u64;
    let kills = [1, events.len() / 3, events.len() / 2, events.len() - 1];
    for &kill in &kills {
        let kill = kill.max(1);
        let path = std::env::temp_dir().join(format!(
            "moloc_audit_{}_kill_{kill}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut doomed =
                StreamingSession::with_log(&index, &kernel, config, session_config, &path)
                    .expect("open log");
            let mut sink = Vec::new();
            for event in &events[..kill] {
                doomed
                    .ingest(event.clone(), &mut sink)
                    .expect("doomed ingest");
            }
            // Dropped without finish: a SIGKILL between syscalls.
        }
        let recovered = StreamingSession::recover(&index, &kernel, config, session_config, &path)
            .expect("recover opens the log");
        let mut session = recovered.session;
        let replay_from = usize::try_from(session.ingested()).expect("fits");
        let already = usize::try_from(session.delivered()).expect("fits");
        let mut replayed = Vec::new();
        for event in &events[replay_from..] {
            session
                .ingest(event.clone(), &mut replayed)
                .expect("replay ingest");
        }
        session.finish(&mut replayed).expect("replay finish");
        let state = session.state().encode().expect("state encodes");
        let estimates_match = replayed
            .iter()
            .map(|e| (e.seq, e.location, e.flags))
            .eq(reference[already..]
                .iter()
                .map(|e| (e.seq, e.location, e.flags)));
        if !estimates_match || state != reference_state {
            divs.push(Divergence {
                suite: "session.recover".to_string(),
                case: format!("kill at {kill}"),
                expected: format!(
                    "{} reference estimates from {already}, state {} bytes",
                    reference.len() - already,
                    reference_state.len()
                ),
                actual: format!(
                    "{} replayed estimates (match: {estimates_match}), state {} bytes",
                    replayed.len(),
                    state.len()
                ),
            });
        }
        let _ = std::fs::remove_file(&path);
        cases += 1;
    }
    report.finish_suite("session.recover", cases, divs);
}

// ---------------------------------------------------------------------
// Checkpoint framing: wire format vs the independent oracle.
// ---------------------------------------------------------------------

fn frame_suite(seed: u64, report: &mut AuditReport) {
    eprintln!("moloc-audit: checkpoint framing suite");
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for case in 0..16u64 {
        let len = (hash(seed, 0xF0, case, 0) % 96) as usize;
        let payload: Vec<u8> = (0..len)
            .map(|i| (hash(seed, 0xF1, case, i as u64) & 0xFF) as u8)
            .collect();
        let framed = moloc_session::checkpoint::frame_record(&payload);
        let oracle_framed = oracle::frame_record(&payload);
        if framed != oracle_framed {
            divs.push(Divergence {
                suite: "frame.roundtrip".to_string(),
                case: format!("case {case}: frame bytes"),
                expected: format!("{} oracle bytes", oracle_framed.len()),
                actual: format!("{} session bytes", framed.len()),
            });
        }
        // The oracle parser must accept the session's frame verbatim...
        match oracle::parse_record(&framed) {
            Some((_, parsed, consumed)) if parsed == payload && consumed == framed.len() => {}
            other => divs.push(Divergence {
                suite: "frame.roundtrip".to_string(),
                case: format!("case {case}: oracle parse"),
                expected: "round-tripped payload".to_string(),
                actual: format!("{other:?}"),
            }),
        }
        // ...and both sides must reject the same single-byte flip.
        let flip = (hash(seed, 0xF2, case, 0) % framed.len() as u64) as usize;
        let mut bad = framed.clone();
        bad[flip] ^= 0x01;
        let session_accepts = {
            let (payloads, scan) = moloc_session::checkpoint::scan_records(&bad);
            scan.corruption.is_none() && payloads.len() == 1
        };
        let oracle_accepts = oracle::parse_record(&bad).is_some();
        if session_accepts || oracle_accepts {
            divs.push(Divergence {
                suite: "frame.roundtrip".to_string(),
                case: format!("case {case}: flip at byte {flip}"),
                expected: "rejected by both parsers".to_string(),
                actual: format!(
                    "session_accepts={session_accepts} oracle_accepts={oracle_accepts}"
                ),
            });
        }
        cases += 1;
    }
    report.finish_suite("frame.roundtrip", cases, divs);
}
