//! Property-based tests for the RF substrate.

use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, Vec2};
use moloc_radio::ap::AccessPoint;
use moloc_radio::pathloss::{FreeSpace24GHz, ItuIndoor, LogDistance, PathLossModel};
use moloc_radio::sampler::RadioEnvironment;
use moloc_radio::Dbm;
use moloc_stats::sampling::normal;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env(temporal_sigma: f64) -> RadioEnvironment {
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(50.0, 30.0)).unwrap());
    RadioEnvironment::builder(plan)
        .seed(9)
        .ap(AccessPoint::new(0, Vec2::new(10.0, 15.0), -18.0))
        .ap(AccessPoint::new(1, Vec2::new(40.0, 15.0), -18.0))
        .shadowing_sigma_db(2.0, 3.0)
        .temporal_sigma_db(temporal_sigma)
        .build()
        .unwrap()
}

proptest! {
    #[test]
    fn path_loss_models_are_monotone_and_nonnegative_beyond_1m(
        d1 in 1.0..100.0f64,
        d2 in 1.0..100.0f64,
        exponent in 1.5..5.0f64,
    ) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let models: Vec<Box<dyn PathLossModel>> = vec![
            Box::new(LogDistance::new(exponent).unwrap()),
            Box::new(FreeSpace24GHz),
            Box::new(ItuIndoor::default()),
        ];
        for m in &models {
            prop_assert!(m.path_loss_db(near) <= m.path_loss_db(far) + 1e-9);
            prop_assert!(m.path_loss_db(near) >= -1e-9);
        }
    }

    #[test]
    fn mean_rss_is_deterministic_and_floor_clamped(
        x in 0.0..50.0f64,
        y in 0.0..30.0f64,
    ) {
        let env = env(3.0);
        let pos = Vec2::new(x, y);
        let a = env.mean_scan(pos);
        let b = env.mean_scan(pos);
        prop_assert_eq!(&a, &b);
        for v in a {
            prop_assert!(v >= env.noise_floor());
        }
    }

    #[test]
    fn closer_position_on_the_axis_sees_stronger_mean_signal(
        d1 in 1.0..20.0f64,
        d2 in 1.0..20.0f64,
    ) {
        // Along the AP0 axis with zero shadowing the ordering is pure
        // path loss.
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(50.0, 30.0)).unwrap());
        let env = RadioEnvironment::builder(plan)
            .ap(AccessPoint::new(0, Vec2::new(10.0, 15.0), -18.0))
            .temporal_sigma_db(0.0)
            .build()
            .unwrap();
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let ap = &env.aps()[0];
        let rss_near = env.mean_rss(ap, Vec2::new(10.0 + near, 15.0));
        let rss_far = env.mean_rss(ap, Vec2::new(10.0 + far, 15.0));
        prop_assert!(rss_near >= rss_far);
    }

    #[test]
    fn zero_temporal_noise_makes_scans_equal_means(
        x in 0.0..50.0f64,
        y in 0.0..30.0f64,
        seed in 0u64..50,
    ) {
        let env = env(0.0);
        let pos = Vec2::new(x, y);
        let mut rng = StdRng::seed_from_u64(seed);
        let scan = env.scan(pos, &mut rng);
        let mean = env.mean_scan(pos);
        for (s, m) in scan.iter().zip(&mean) {
            prop_assert!((s.value() - m.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn scan_about_the_mean_scan_is_the_per_ap_scan_bit_for_bit(
        x in 0.0..50.0f64,
        y in 0.0..30.0f64,
        sigma in 0usize..3,
        seed in 0u64..50,
    ) {
        // The per-AP form `scan` had before the mean scan was hoisted:
        // static channel and temporal draw interleaved AP by AP. A
        // 40 dB sigma drives some draws below the floor clamp.
        let env = env([0.0, 3.0, 40.0][sigma]);
        let pos = Vec2::new(x, y);
        let mut rng = StdRng::seed_from_u64(seed);
        let per_ap: Vec<Dbm> = env
            .aps()
            .iter()
            .map(|ap| {
                (env.mean_rss(ap, pos) + normal(&mut rng, 0.0, env.temporal_sigma_db()))
                    .clamp_floor(env.noise_floor())
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let about = env.scan_about(&env.mean_scan(pos), &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let scan = env.scan(pos, &mut rng);
        let bits = |s: &[Dbm]| s.iter().map(|d| d.value().to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&about), bits(&per_ap));
        prop_assert_eq!(bits(&scan), bits(&per_ap));
    }

    #[test]
    fn scan_noise_is_zero_mean_around_the_static_channel(
        x in 5.0..45.0f64,
        y in 5.0..25.0f64,
    ) {
        let env = env(4.0);
        let pos = Vec2::new(x, y);
        let mean = env.mean_rss(&env.aps()[0], pos).value();
        prop_assume!(mean > -85.0); // keep away from floor clamping bias
        let mut rng = StdRng::seed_from_u64(7);
        let avg: f64 = (0..400)
            .map(|_| env.scan(pos, &mut rng)[0].value())
            .sum::<f64>()
            / 400.0;
        prop_assert!((avg - mean).abs() < 1.0, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn dbm_ordering_matches_values(a in -120.0..0.0f64, b in -120.0..0.0f64) {
        let (da, db) = (Dbm::new(a), Dbm::new(b));
        prop_assert_eq!(da < db, a < b);
        prop_assert!((da - db - (a - b)).abs() < 1e-12);
    }
}
