//! Fig. 1 bench: the twin-disambiguation kernel — one engine step
//! fusing fingerprint candidates with motion evidence.

use criterion::{criterion_group, criterion_main, Criterion};
use moloc_bench::light_criterion;
use moloc_core::config::MoLocConfig;
use moloc_core::engine::MoLoc;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_geometry::LocationId;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_stats::gaussian::Gaussian;
use std::hint::black_box;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

fn system() -> MoLoc {
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-50.0, -50.0])),
        (l(2), Fingerprint::new(vec![-40.0, -70.0])),
        (l(3), Fingerprint::new(vec![-50.0, -50.1])),
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
    mdb.insert(l(1), l(3), east);
    MoLoc::builder(fdb, mdb).build()
}

fn bench_twins(c: &mut Criterion) {
    let system = system();
    let unique = Fingerprint::new(vec![-40.0, -70.0]);
    let twin = Fingerprint::new(vec![-50.0, -50.05]);
    let east = Some(MotionMeasurement {
        direction_deg: 90.0,
        offset_m: 4.0,
    });

    // Demonstrate the disambiguation once.
    let mut t = system.batch_localizer();
    t.observe(&unique, None).unwrap();
    let got = t.observe(&twin, east).unwrap();
    println!("\n=== Fig. 1 kernel === twins resolved to {got} via eastward motion");

    c.bench_function("fig1/engine_two_step_disambiguation", |b| {
        b.iter(|| {
            let mut t = system.batch_localizer();
            t.observe(black_box(&unique), None).unwrap();
            black_box(t.observe(black_box(&twin), east).unwrap())
        })
    });
    c.bench_function("fig1/engine_fingerprint_only_step", |b| {
        b.iter(|| {
            let mut t = system.batch_localizer();
            black_box(t.observe(black_box(&unique), None).unwrap())
        })
    });
    let config = MoLocConfig::paper();
    c.bench_function("fig1/localize_sequence_of_32", |b| {
        let mut queries = Vec::new();
        queries.push((unique.clone(), None));
        for i in 0..31 {
            let fp = if i % 2 == 0 {
                twin.clone()
            } else {
                unique.clone()
            };
            queries.push((fp, east));
        }
        let system = MoLoc::builder(system.fingerprint_db().clone(), system.motion_db().clone())
            .config(config)
            .build();
        b.iter(|| black_box(system.localize_sequence(black_box(&queries)).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = light_criterion();
    targets = bench_twins
}
criterion_main!(benches);
