//! Integration tests of the core claim: motion distinguishes
//! fingerprint twins that fingerprinting alone cannot.

use moloc::prelude::*;
use moloc::stats::gaussian::Gaussian;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

fn fp(values: &[f64]) -> Fingerprint {
    Fingerprint::new(values.to_vec())
}

/// A corridor of five locations, 4 m apart going east. L1/L5 are exact
/// twins, L2/L4 are exact twins, L3 is unique.
fn corridor() -> MoLoc {
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), fp(&[-60.0, -40.0])),
        (l(2), fp(&[-50.0, -45.0])),
        (l(3), fp(&[-45.0, -50.0])),
        (l(4), fp(&[-50.0, -45.0])),
        (l(5), fp(&[-60.0, -40.0])),
    ])
    .unwrap();
    let mut mdb = MotionDb::new(5);
    let east = PairStats {
        direction: Gaussian::new(90.0, 5.0).unwrap(),
        offset: Gaussian::new(4.0, 0.3).unwrap(),
        sample_count: 15,
    };
    for i in 1..5 {
        mdb.insert(l(i), l(i + 1), east);
    }
    MoLoc::builder(fdb, mdb).build()
}

fn east(offset: f64) -> Option<MotionMeasurement> {
    Some(MotionMeasurement {
        direction_deg: 90.0,
        offset_m: offset,
    })
}

fn west(offset: f64) -> Option<MotionMeasurement> {
    Some(MotionMeasurement {
        direction_deg: 270.0,
        offset_m: offset,
    })
}

#[test]
fn walking_east_through_the_corridor_tracks_every_twin() {
    let system = corridor();
    let estimates = system
        .localize_sequence(&[
            (fp(&[-45.0, -50.0]), None),      // L3, unique
            (fp(&[-50.0, -45.0]), east(4.0)), // twin query → L4 (east of L3)
            (fp(&[-60.0, -40.0]), east(4.0)), // twin query → L5
        ])
        .unwrap();
    assert_eq!(estimates, vec![l(3), l(4), l(5)]);
}

#[test]
fn walking_west_picks_the_other_twins() {
    let system = corridor();
    let estimates = system
        .localize_sequence(&[
            (fp(&[-45.0, -50.0]), None),
            (fp(&[-50.0, -45.0]), west(4.0)), // → L2
            (fp(&[-60.0, -40.0]), west(4.0)), // → L1
        ])
        .unwrap();
    assert_eq!(estimates, vec![l(3), l(2), l(1)]);
}

#[test]
fn exact_twin_queries_are_ambiguous_without_motion() {
    let system = corridor();
    let mut a = system.batch_localizer();
    a.observe(&fp(&[-45.0, -50.0]), None).unwrap();
    // Without motion the twins tie; the engine resolves the tie
    // deterministically (lower id), which is *not* tracking.
    let no_motion = a.observe(&fp(&[-50.0, -45.0]), None).unwrap();
    assert_eq!(no_motion, l(2));

    let mut b = system.batch_localizer();
    b.observe(&fp(&[-45.0, -50.0]), None).unwrap();
    let with_motion = b.observe(&fp(&[-50.0, -45.0]), east(4.0)).unwrap();
    assert_eq!(with_motion, l(4), "motion breaks the tie correctly");
}

#[test]
fn long_walk_with_noisy_measurements_still_tracks() {
    let system = corridor();
    let mut engine = system.batch_localizer();
    engine.observe(&fp(&[-44.5, -50.5]), None).unwrap();
    // Walk east twice then back west twice, with sensor-level noise on
    // both the direction and the offset.
    let steps = [
        (fp(&[-50.4, -44.8]), 83.0, 4.4, l(4)),
        (fp(&[-59.3, -40.6]), 97.0, 3.7, l(5)),
        (fp(&[-49.6, -45.2]), 263.0, 4.2, l(4)),
        (fp(&[-45.3, -49.8]), 276.0, 3.8, l(3)),
    ];
    for (query, dir, off, want) in steps {
        let got = engine
            .observe(
                &query,
                Some(MotionMeasurement {
                    direction_deg: dir,
                    offset_m: off,
                }),
            )
            .unwrap();
        assert_eq!(got, want);
    }
}

#[test]
fn offset_alone_separates_near_from_far_twins() {
    // L1 twin of L3; both east of L2 but at different walking distances
    // (L3 adjacent 4 m, L1 via a detour 9 m).
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), fp(&[-55.0, -55.0])),
        (l(2), fp(&[-40.0, -70.0])),
        (l(3), fp(&[-55.0, -55.0])),
    ])
    .unwrap();
    let mut mdb = MotionDb::new(3);
    mdb.insert(
        l(2),
        l(3),
        PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(4.0, 0.3).unwrap(),
            sample_count: 10,
        },
    );
    mdb.insert(
        l(2),
        l(1),
        PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(9.0, 0.4).unwrap(),
            sample_count: 10,
        },
    );
    let system = MoLoc::builder(fdb, mdb).build();

    let mut near = system.batch_localizer();
    near.observe(&fp(&[-40.0, -70.0]), None).unwrap();
    assert_eq!(near.observe(&fp(&[-55.0, -55.0]), east(4.1)).unwrap(), l(3));

    let mut far = system.batch_localizer();
    far.observe(&fp(&[-40.0, -70.0]), None).unwrap();
    assert_eq!(far.observe(&fp(&[-55.0, -55.0]), east(8.8)).unwrap(), l(1));
}

#[test]
fn wrong_initial_estimate_recovers_with_asymmetric_neighborhoods() {
    // Fig. 1(c): candidates {p, p′} after a wrong initial estimate; the
    // measured motion matches only p's trained continuation.
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), fp(&[-52.0, -52.0])), // p
        (l(2), fp(&[-52.0, -52.1])), // p′, twin of p
        (l(3), fp(&[-45.0, -60.0])), // q
        (l(4), fp(&[-45.1, -60.0])), // q′, twin of q
    ])
    .unwrap();
    let mut mdb = MotionDb::new(4);
    mdb.insert(
        l(1),
        l(3),
        PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(5.0, 0.3).unwrap(),
            sample_count: 10,
        },
    );
    mdb.insert(
        l(2),
        l(4),
        PairStats {
            direction: Gaussian::new(180.0, 5.0).unwrap(), // p′ → q′ goes SOUTH
            offset: Gaussian::new(5.0, 0.3).unwrap(),
            sample_count: 10,
        },
    );
    let system = MoLoc::builder(fdb, mdb).build();
    let mut engine = system.batch_localizer();
    // The initial query ties p/p′; the tie-break picks p (lower id),
    // but suppose the user is *actually* at p′... then she walks south.
    engine.observe(&fp(&[-52.0, -52.05]), None).unwrap();
    let got = engine
        .observe(
            &fp(&[-45.05, -60.0]),
            Some(MotionMeasurement {
                direction_deg: 178.0,
                offset_m: 5.1,
            }),
        )
        .unwrap();
    assert_eq!(got, l(4), "southward motion identifies q′ via p′");
}
