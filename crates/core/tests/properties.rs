//! Property-based tests for the MoLoc algorithm's probabilistic
//! invariants, driven through the production paths — the
//! [`MotionKernel`] for Eq. 5 and [`BatchLocalizer`] for Eq. 3–7 — with
//! the `moloc_verify::oracle` references as the yardstick.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::engine::MoLoc;
use moloc_core::error::{DegradationFlags, MolocError};
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_stats::gaussian::Gaussian;
use moloc_verify::oracle;
use proptest::prelude::*;

const N: usize = 10;
const APS: usize = 3;

fn weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..10.0f64, 2..N)
}

/// A normalized retained posterior over the first `ws.len()` locations.
fn history(ws: &[f64]) -> Vec<(LocationId, f64)> {
    let total: f64 = ws.iter().sum();
    ws.iter()
        .enumerate()
        .map(|(i, &w)| (LocationId::from_index(i), w / total))
        .collect()
}

fn rss() -> impl Strategy<Value = f64> {
    -95.0..-20.0f64
}

fn scan() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(rss(), APS)
}

fn arbitrary_fdb() -> impl Strategy<Value = FingerprintDb> {
    prop::collection::vec(scan(), N).prop_map(|rows| {
        FingerprintDb::from_fingerprints(
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| (LocationId::from_index(i), Fingerprint::new(row)))
                .collect(),
        )
        .expect("valid db")
    })
}

fn arbitrary_db() -> impl Strategy<Value = MotionDb> {
    prop::collection::vec(
        (
            0usize..N,
            0usize..N,
            0.0..360.0f64,
            1.0..20.0f64,
            0.5..15.0f64,
            0.05..1.0f64,
        ),
        0..12,
    )
    .prop_map(|entries| {
        let mut db = MotionDb::new(N);
        for (a, b, dir, dir_std, off, off_std) in entries {
            if a == b {
                continue;
            }
            db.insert(
                LocationId::from_index(a),
                LocationId::from_index(b),
                PairStats {
                    direction: Gaussian::new(dir, dir_std).unwrap(),
                    offset: Gaussian::new(off, off_std).unwrap(),
                    sample_count: 4,
                },
            );
        }
        db
    })
}

/// Eq. 5 from the exact oracle over the database's pair parameters.
fn exact_motion(
    db: &MotionDb,
    config: &MoLocConfig,
    from: LocationId,
    to: LocationId,
    d: f64,
    o: f64,
) -> f64 {
    if from == to {
        return oracle::stationary_probability(
            o,
            config.alpha_deg,
            config.beta_m,
            config.stationary_offset_std_m,
        );
    }
    match db.get(from, to) {
        Some(s) => oracle::pair_probability(
            s.direction.mean(),
            s.direction.std(),
            s.offset.mean(),
            s.offset.std(),
            d,
            o,
            config.alpha_deg,
            config.beta_m,
        ),
        None => config.missing_pair_prob,
    }
}

/// The oracle step over `fdb` with the kernel as the motion source.
fn oracle_step(
    fdb: &FingerprintDb,
    kernel: &MotionKernel,
    config: &MoLocConfig,
    query: &[f64],
    previous: &[(LocationId, f64)],
    motion: Option<MotionMeasurement>,
) -> Vec<(LocationId, f64)> {
    let (history, d, o) = match motion {
        Some(m) => (previous, m.direction_deg, m.offset_m),
        None => (&[][..], 0.0, 0.0),
    };
    oracle::posterior_step(
        fdb.iter().map(|(id, f)| (id, f.values())),
        query,
        config.k,
        history,
        |from, to| kernel.pair_probability(from, to, d, o),
        config.degenerate_total_floor,
    )
}

/// Ids equal, probabilities within `tol`.
fn assert_close(
    got: &[(LocationId, f64)],
    want: &[(LocationId, f64)],
    tol: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{:?} vs {:?}", got, want);
    for (&(gi, gp), &(wi, wp)) in got.iter().zip(want) {
        prop_assert_eq!(gi, wi, "{:?} vs {:?}", got, want);
        prop_assert!((gp - wp).abs() <= tol, "{:?} vs {:?}", got, want);
    }
    Ok(())
}

fn assert_normalized(posterior: &[(LocationId, f64)]) -> Result<(), TestCaseError> {
    prop_assert!(!posterior.is_empty());
    for &(loc, p) in posterior {
        prop_assert!(p.is_finite() && p >= 0.0, "p({loc}) = {p}");
    }
    let total: f64 = posterior.iter().map(|(_, p)| p).sum();
    prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
    Ok(())
}

/// One hostile RSS reading: mostly a plausible dBm value, sometimes
/// NaN or ±inf.
fn hostile_rss() -> impl Strategy<Value = f64> {
    (0u8..10, rss()).prop_map(|(pick, v)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// One hostile scan: usually `APS` wide, sometimes empty, one short or
/// one long.
fn hostile_scan() -> impl Strategy<Value = Vec<f64>> {
    (0u8..12, prop::collection::vec(hostile_rss(), APS + 1)).prop_map(|(pick, mut v)| {
        v.truncate(match pick {
            0 => 0,
            1 => APS - 1,
            2 => APS + 1,
            _ => APS,
        });
        v
    })
}

/// One hostile motion measurement: absent, clean, or with a NaN/±inf
/// direction or a NaN/±inf/negative offset.
fn hostile_motion() -> impl Strategy<Value = Option<MotionMeasurement>> {
    (0u8..4, 0u8..12, 0.0..360.0f64, 0.0..10.0f64).prop_map(|(some, pick, d, o)| {
        (some > 0).then(|| {
            let (direction_deg, offset_m) = match pick {
                0 => (f64::NAN, o),
                1 => (f64::INFINITY, o),
                2 => (f64::NEG_INFINITY, o),
                3 => (d, f64::NAN),
                4 => (d, f64::INFINITY),
                5 => (d, f64::NEG_INFINITY),
                6 => (d, -o - 0.1),
                _ => (d, o),
            };
            MotionMeasurement {
                direction_deg,
                offset_m,
            }
        })
    })
}

proptest! {
    #[test]
    fn kernel_pair_probability_is_in_unit_interval(
        db in arbitrary_db(),
        from in 0usize..N,
        to in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        let kernel = build_kernel(&db, &MoLocConfig::paper());
        let p = kernel.pair_probability(LocationId::from_index(from), LocationId::from_index(to), d, o);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "p = {p}");
    }

    #[test]
    fn kernel_pair_probability_symmetric_under_joint_reversal(
        db in arbitrary_db(),
        from in 0usize..N,
        to in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // Walking i → j with direction d has the same probability as
        // walking j → i with direction d + 180 (mutual reachability).
        prop_assume!(from != to);
        let kernel = build_kernel(&db, &MoLocConfig::paper());
        let (i, j) = (LocationId::from_index(from), LocationId::from_index(to));
        let fwd = kernel.pair_probability(i, j, d, o);
        let rev = kernel.pair_probability(j, i, d + 180.0, o);
        prop_assert!((fwd - rev).abs() < 1e-9, "fwd {fwd} vs rev {rev}");
    }

    #[test]
    fn kernel_matches_the_oracle_within_tolerance(
        db in arbitrary_db(),
        from in 0usize..N,
        to in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // The precomputed kernel's documented accuracy contract: every
        // pair probability agrees with the exact Eq. 5 oracle to within
        // 1e-6 (see DESIGN.md, "Performance architecture").
        let config = MoLocConfig::paper();
        let kernel = build_kernel(&db, &config);
        let (i, j) = (LocationId::from_index(from), LocationId::from_index(to));
        let exact = exact_motion(&db, &config, i, j, d, o);
        let fast = kernel.pair_probability(i, j, d, o);
        prop_assert!(
            (exact - fast).abs() <= 1e-6,
            "({from}→{to}, {d}°, {o} m): exact {exact} vs kernel {fast}"
        );
    }

    #[test]
    fn engine_posterior_matches_the_oracle_chain(
        fdb in arbitrary_fdb(),
        db in arbitrary_db(),
        prev_ws in weights(),
        query in scan(),
        d in 0.0..360.0f64,
        o in 0.0..10.0f64,
    ) {
        // Eq. 3 → Eq. 4 → Eq. 6/7 from a restored history: the engine
        // must reproduce the oracle chain over the same kernel bit for
        // bit (same expressions, same summation order).
        let config = MoLocConfig::paper();
        let kernel = build_kernel(&db, &config);
        let index = FingerprintIndex::build(&fdb);
        let mut engine = BatchLocalizer::new_with_index(&index, &kernel, config);
        let previous = history(&prev_ws);
        let motion = Some(MotionMeasurement { direction_deg: d, offset_m: o });
        engine.restore_posterior(&previous, DegradationFlags::empty());
        let estimate = engine.observe_slice(&query, motion).unwrap();
        let expected = oracle_step(&fdb, &kernel, &config, &query, &previous, motion);
        prop_assert_eq!(engine.posterior(), expected.as_slice());
        prop_assert_eq!(Some(estimate), oracle::top(&expected));
    }

    #[test]
    fn posterior_is_normalized_over_the_knn_candidates(
        fdb in arbitrary_fdb(),
        db in arbitrary_db(),
        prev_ws in weights(),
        query in scan(),
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        let config = MoLocConfig::paper();
        let mut engine = BatchLocalizer::new(&fdb, &db, config);
        engine.restore_posterior(&history(&prev_ws), DegradationFlags::empty());
        engine
            .observe_slice(&query, Some(MotionMeasurement { direction_deg: d, offset_m: o }))
            .unwrap();
        assert_normalized(engine.posterior())?;
        // The posterior's support is the query's k nearest locations.
        let knn = oracle::k_nearest(fdb.iter().map(|(id, f)| (id, f.values())), &query, config.k);
        let support: Vec<LocationId> = engine.posterior().iter().map(|&(id, _)| id).collect();
        let nearest: Vec<LocationId> = knn.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(support, nearest);
    }

    #[test]
    fn fingerprint_only_posterior_orders_by_dissimilarity(
        fdb in arbitrary_fdb(),
        query in scan(),
    ) {
        // Eq. 4: smaller dissimilarity ⇒ larger probability. The
        // candidates come back nearest first, so the posterior of a
        // first observation is non-increasing.
        let mut engine = BatchLocalizer::new(&fdb, &MotionDb::new(N), MoLocConfig::paper());
        engine.observe_slice(&query, None).unwrap();
        assert_normalized(engine.posterior())?;
        for w in engine.posterior().windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "{:?}", engine.posterior());
        }
    }

    #[test]
    fn posterior_survives_random_rlm_deletions(
        fdb in arbitrary_fdb(),
        db in arbitrary_db(),
        deletions in prop::collection::vec((0usize..N, 0usize..N), 0..20),
        prev_ws in weights(),
        query in scan(),
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // Corrupted motion databases — arbitrary cells deleted after
        // training — must still yield a finite, normalized posterior
        // (untrained pairs fall back to the missing-pair probability,
        // and a fully-degenerate total falls back to the
        // fingerprint-only prior).
        let mut db = db;
        for (a, b) in deletions {
            db.remove(LocationId::from_index(a), LocationId::from_index(b));
        }
        let mut engine = BatchLocalizer::new(&fdb, &db, MoLocConfig::paper());
        engine.restore_posterior(&history(&prev_ws), DegradationFlags::empty());
        engine
            .observe_slice(&query, Some(MotionMeasurement { direction_deg: d, offset_m: o }))
            .unwrap();
        assert_normalized(engine.posterior())?;
    }

    #[test]
    fn zero_fingerprint_mass_stays_zero(
        fdb in arbitrary_fdb(),
        db in arbitrary_db(),
        prev_ws in weights(),
        at in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // A query equal to a stored row is an exact match that takes
        // all the Eq. 4 mass; the other candidates can never gain
        // posterior mass (Eq. 7 multiplies the evidences).
        let here = LocationId::from_index(at);
        let query = fdb.fingerprint(here).expect("surveyed").values().to_vec();
        let mut engine = BatchLocalizer::new(&fdb, &db, MoLocConfig::paper());
        engine.restore_posterior(&history(&prev_ws), DegradationFlags::empty());
        let estimate = engine
            .observe_slice(&query, Some(MotionMeasurement { direction_deg: d, offset_m: o }))
            .unwrap();
        prop_assert_eq!(estimate, here);
        for &(loc, p) in engine.posterior() {
            if loc != here {
                prop_assert_eq!(p, 0.0, "{} gained mass", loc);
            }
        }
    }

    #[test]
    fn hostile_inputs_fail_typed_or_localize_normalized(
        fdb in arbitrary_fdb(),
        db in arbitrary_db(),
        steps in prop::collection::vec((hostile_scan(), hostile_motion()), 0..8),
    ) {
        // The facade's engine on NaN/±inf RSS, empty and wrong-length
        // scans, zero-length traces and NaN/±inf/negative motion: a
        // typed error exactly when the input is malformed, otherwise a
        // finite, normalized posterior equal to the oracle's, with the
        // degradation flags the input calls for — never a panic.
        let config = MoLocConfig::paper();
        let system = MoLoc::builder(fdb.clone(), db).config(config).build();
        let mut engine = system.batch_localizer();
        let mut previous: Vec<(LocationId, f64)> = Vec::new();
        let mut estimates = Vec::new();
        let mut first_error = None;
        for (scan, motion) in &steps {
            let bad_motion = motion.is_some_and(|m| {
                !m.direction_deg.is_finite() || !m.offset_m.is_finite() || m.offset_m < 0.0
            });
            let result = engine.observe_slice(scan, *motion);
            if scan.len() != APS {
                prop_assert_eq!(
                    result.clone(),
                    Err(MolocError::QueryLength { expected: APS, found: scan.len() })
                );
            } else if bad_motion {
                prop_assert_eq!(result.clone(), Err(MolocError::BadMeasurement));
            }
            let estimate = match result {
                Ok(estimate) => estimate,
                Err(e) => {
                    first_error.get_or_insert(e);
                    continue;
                }
            };
            prop_assert!(scan.len() == APS && !bad_motion);
            let expected =
                oracle_step(&fdb, system.kernel(), &config, scan, &previous, *motion);
            assert_close(engine.posterior(), &expected, 1e-9)?;
            assert_normalized(engine.posterior())?;
            prop_assert_eq!(Some(estimate), oracle::top(engine.posterior()));

            let flags = engine.last_flags();
            let observed = scan.iter().filter(|v| v.is_finite()).count();
            prop_assert_eq!(flags.contains(DegradationFlags::MASKED_QUERY), observed < APS);
            prop_assert_eq!(flags.contains(DegradationFlags::NO_OBSERVED_APS), observed == 0);
            prop_assert!(!flags.contains(DegradationFlags::CANDIDATE_RESET));
            if flags.contains(DegradationFlags::MOTION_FALLBACK) {
                // Only a fused step can fall back, and it then keeps
                // the fingerprint-only candidates.
                prop_assert!(motion.is_some() && !previous.is_empty());
                let fingerprint_only =
                    oracle_step(&fdb, system.kernel(), &config, scan, &[], None);
                assert_close(engine.posterior(), &fingerprint_only, 1e-9)?;
            }
            previous = expected;
            if first_error.is_none() {
                estimates.push(estimate);
            }
        }

        // The trace entry point over the same steps: the estimates up
        // to the first error, then that error. A zero-length trace is
        // an empty success that leaves no history behind.
        let scans: Vec<&[f64]> = steps.iter().map(|(s, _)| s.as_slice()).collect();
        let motions: Vec<Option<MotionMeasurement>> = steps.iter().map(|(_, m)| *m).collect();
        let mut out = Vec::new();
        let result = engine.localize_scans_into(&scans, &motions, &mut out);
        prop_assert_eq!(result, first_error.map_or(Ok(()), Err));
        prop_assert_eq!(out, estimates);
        if steps.is_empty() {
            prop_assert!(engine.posterior().is_empty());
        }
    }
}
