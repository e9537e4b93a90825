//! Failure-injection integration tests: the pipeline must degrade
//! gracefully, not collapse, when sensors or the crowd misbehave.

use moloc::core::config::MoLocConfig;
use moloc::eval::metrics::{flatten, summarize};
use moloc::eval::pipeline::{
    analyze_trace, localize_moloc, localize_wifi, CountingMethod, EvalWorld,
};
use moloc::motion::filter::SanitationConfig;
use moloc::motion::rlm::Rlm;
use moloc::prelude::*;
use moloc::sensors::steps::StepDetector;
use moloc::stats::gaussian::Gaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

#[test]
fn outlier_polluted_crowdsourcing_is_sanitized() {
    let world = EvalWorld::small(7);
    let clean = world.setting(6);

    // Re-run construction but pollute the stream with garbage uploads.
    let mut builder = MotionDbBuilder::new(world.hall.map.clone(), SanitationConfig::paper())
        .expect("paper sanitation config is valid");
    let detector = StepDetector::default();
    let mut rng = StdRng::seed_from_u64(99);
    for trace in &world.corpus.train {
        let analysis = analyze_trace(
            trace,
            &clean.fdb,
            &world.hall,
            &detector,
            CountingMethod::Continuous,
            6,
        );
        for (interval, m) in analysis.intervals.iter().zip(&analysis.measurements) {
            let Some(m) = m else { continue };
            let from = analysis.nn_estimates[interval.from_index];
            let to = analysis.nn_estimates[interval.to_index];
            if from != to {
                if let Ok(rlm) = Rlm::new(from, to, m.direction_deg, m.offset_m) {
                    builder.observe(rlm);
                }
            }
            // Every interval also uploads a corrupted twin: random
            // direction, wild offset.
            let a = l(rng.gen_range(1..=28));
            let b = l(rng.gen_range(1..=28));
            if a != b {
                let bad = Rlm::new(a, b, rng.gen_range(0.0..360.0), rng.gen_range(15.0..40.0))
                    .expect("valid rlm");
                builder.observe(bad);
            }
        }
    }
    let (polluted_db, report) = builder.build();
    assert!(
        report.rejected_coarse > report.observed / 3,
        "sanitation should reject the garbage: {report:?}"
    );

    // Localization quality with the polluted-but-sanitized DB stays
    // close to the clean run.
    let mut polluted = clean.clone();
    polluted.motion_db = polluted_db;
    let clean_acc = summarize(&flatten(&localize_moloc(
        &world,
        &clean,
        MoLocConfig::paper(),
    )))
    .accuracy;
    let polluted_acc = summarize(&flatten(&localize_moloc(
        &world,
        &polluted,
        MoLocConfig::paper(),
    )))
    .accuracy;
    assert!(
        polluted_acc > clean_acc - 0.12,
        "polluted {polluted_acc:.2} vs clean {clean_acc:.2}"
    );
}

#[test]
fn heavily_biased_compass_does_not_crash_and_wifi_is_a_floor() {
    // An engine fed systematically rotated motion measurements must not
    // do much worse than having no motion at all, thanks to the
    // degenerate-evidence fallback and the missing-pair floor.
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -70.0])),
        (l(2), Fingerprint::new(vec![-55.0, -55.0])),
        (l(3), Fingerprint::new(vec![-70.0, -40.0])),
    ])
    .unwrap();
    let mut mdb = MotionDb::new(3);
    let east = PairStats {
        direction: Gaussian::new(90.0, 5.0).unwrap(),
        offset: Gaussian::new(4.0, 0.3).unwrap(),
        sample_count: 10,
    };
    mdb.insert(l(1), l(2), east);
    mdb.insert(l(2), l(3), east);
    let system = MoLoc::builder(fdb, mdb).build();
    let mut engine = system.batch_localizer();
    engine
        .observe(&Fingerprint::new(vec![-40.0, -70.0]), None)
        .unwrap();
    // True motion east, measured compass off by 120°.
    let est = engine
        .observe(
            &Fingerprint::new(vec![-54.0, -56.0]),
            Some(MotionMeasurement {
                direction_deg: 210.0,
                offset_m: 4.0,
            }),
        )
        .unwrap();
    // The fingerprint strongly favors L2; broken motion evidence must
    // not override an unambiguous fingerprint.
    assert_eq!(est, l(2));
}

#[test]
fn stationary_user_keeps_her_location() {
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-50.0, -50.0])),
        (l(2), Fingerprint::new(vec![-50.0, -50.2])), // near-twin
    ])
    .unwrap();
    let mut mdb = MotionDb::new(2);
    mdb.insert(
        l(1),
        l(2),
        PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(6.0, 0.3).unwrap(),
            sample_count: 10,
        },
    );
    let system = MoLoc::builder(fdb, mdb).build();
    let mut engine = system.batch_localizer();
    engine
        .observe(&Fingerprint::new(vec![-50.0, -50.0]), None)
        .unwrap();
    // No steps detected → offset ~0. The stationary model keeps L1 in
    // front even when the twin's fingerprint momentarily matches
    // better.
    let est = engine
        .observe(
            &Fingerprint::new(vec![-50.0, -50.15]),
            Some(MotionMeasurement {
                direction_deg: 45.0,
                offset_m: 0.1,
            }),
        )
        .unwrap();
    assert_eq!(est, l(1), "a user who did not walk should not jump 6 m");
}

#[test]
fn ap_outage_subsets_still_work() {
    let world = EvalWorld::small(13);
    for n_aps in [4, 5] {
        let setting = world.setting(n_aps);
        let wifi = summarize(&flatten(&localize_wifi(&world, &setting)));
        let moloc = summarize(&flatten(&localize_moloc(
            &world,
            &setting,
            MoLocConfig::paper(),
        )));
        assert!(wifi.accuracy > 0.15, "{n_aps}-AP WiFi {:.2}", wifi.accuracy);
        assert!(
            moloc.accuracy >= wifi.accuracy - 0.05,
            "{n_aps}-AP MoLoc {:.2} vs WiFi {:.2}",
            moloc.accuracy,
            wifi.accuracy
        );
    }
}

#[test]
fn strict_zero_missing_pair_probability_is_survivable() {
    // The strict Eq. 5 (untrained pair ⇒ probability 0) relies on the
    // degenerate fallback to avoid dividing by zero.
    let world = EvalWorld::small(17);
    let setting = world.setting(6);
    let config = MoLocConfig {
        missing_pair_prob: 0.0,
        ..MoLocConfig::paper()
    };
    let outcomes = localize_moloc(&world, &setting, config);
    let summary = summarize(&flatten(&outcomes));
    assert!(summary.accuracy > 0.2, "accuracy {:.2}", summary.accuracy);
}
