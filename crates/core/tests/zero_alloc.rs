//! Proof of the `BatchLocalizer` zero-allocation contract: after one
//! warm-up trace fills the scratch buffers, localizing further traces
//! must not touch the heap at all — through `localize_trace_into` and
//! through `localize_scans_into` with a masked (NaN) step. A counting
//! global allocator wraps the system allocator; this file holds
//! exactly one test so no concurrent test can perturb the counter.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_geometry::LocationId;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_stats::gaussian::Gaussian;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

fn fp(v: &[f64]) -> Fingerprint {
    Fingerprint::new(v.to_vec())
}

fn world() -> (FingerprintDb, MotionDb) {
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), fp(&[-50.0, -50.0])),
        (l(2), fp(&[-40.0, -70.0])),
        (l(3), fp(&[-50.0, -50.1])),
        (l(4), fp(&[-65.0, -45.0])),
    ])
    .unwrap();
    let mut mdb = MotionDb::new(4);
    let east = |mu_o: f64| PairStats {
        direction: Gaussian::new(90.0, 5.0).unwrap(),
        offset: Gaussian::new(mu_o, 0.3).unwrap(),
        sample_count: 10,
    };
    mdb.insert(l(1), l(2), east(4.0));
    mdb.insert(l(2), l(3), east(4.0));
    mdb.insert(l(1), l(3), east(8.0));
    mdb.insert(l(3), l(4), east(4.0));
    (fdb, mdb)
}

/// Twelve locations 4 m apart going east, 6 APs each — the row width
/// of the paper's largest setting.
fn wide_world() -> (FingerprintDb, MotionDb) {
    let fdb = FingerprintDb::from_fingerprints(
        (0..12u32)
            .map(|i| {
                let v: Vec<f64> = (0..6)
                    .map(|a| -40.0 - f64::from((i * 7 + a * 13) % 23))
                    .collect();
                (l(i + 1), Fingerprint::new(v))
            })
            .collect(),
    )
    .unwrap();
    let mut mdb = MotionDb::new(12);
    for i in 1..12 {
        mdb.insert(
            l(i),
            l(i + 1),
            PairStats {
                direction: Gaussian::new(90.0, 5.0).unwrap(),
                offset: Gaussian::new(4.0, 0.3).unwrap(),
                sample_count: 10,
            },
        );
    }
    (fdb, mdb)
}

/// Runs `trace` once to warm its buffers (the first trace may grow
/// heap, candidate, and output buffers to capacity), then ten more
/// times, and asserts the warm runs allocated nothing and repeated the
/// estimates.
fn assert_warm_runs_allocate_nothing(label: &str, mut trace: impl FnMut(&mut Vec<LocationId>)) {
    let mut out = Vec::with_capacity(16);
    trace(&mut out);
    let warm = out.clone();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        trace(&mut out);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "warm {label} traces must not allocate");
    assert_eq!(
        out, warm,
        "repeated {label} traces must reproduce the estimates"
    );
}

fn east(offset_m: f64) -> Option<MotionMeasurement> {
    Some(MotionMeasurement {
        direction_deg: 90.0,
        offset_m,
    })
}

#[test]
fn warm_batch_localizer_trace_allocates_nothing() {
    let (fdb, mdb) = world();
    let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
    let queries = vec![
        (fp(&[-40.0, -70.0]), None),
        (fp(&[-50.0, -50.05]), east(4.1)),
        (fp(&[-64.0, -46.0]), east(4.0)),
        (fp(&[-50.0, -50.0]), None),
        (fp(&[-41.0, -69.0]), east(3.9)),
    ];
    assert_warm_runs_allocate_nothing("localize_trace_into", |out| {
        engine.localize_trace_into(&queries, out).unwrap();
    });

    // Raw scans on a 6-AP survey, one step with a dropped AP, so the
    // warm loop runs both the clean and the masked k-NN scan.
    let (fdb, mdb) = wide_world();
    let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
    let scans: Vec<Vec<f64>> = (0..6u32)
        .map(|step| {
            (0..6u32)
                .map(|a| {
                    if step == 3 && a == 2 {
                        f64::NAN
                    } else {
                        -40.5 - f64::from((step * 7 + a * 13) % 23)
                    }
                })
                .collect()
        })
        .collect();
    let scans: Vec<&[f64]> = scans.iter().map(Vec::as_slice).collect();
    let motions: Vec<Option<MotionMeasurement>> = (0..scans.len())
        .map(|step| if step == 0 { None } else { east(4.0) })
        .collect();
    assert_warm_runs_allocate_nothing("localize_scans_into", |out| {
        engine.localize_scans_into(&scans, &motions, out).unwrap();
    });
}
