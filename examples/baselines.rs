//! Four localizers on one world: WiFi NN, Horus, offline HMM, MoLoc.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example baselines
//! ```
//!
//! The paper evaluates MoLoc against plain WiFi fingerprinting; its
//! related work discusses Horus-style probabilistic fingerprinting and
//! accelerometer-assisted HMM localization. This example runs all four
//! on the simulated office hall and prints accuracy, error, and cost —
//! making the paper's "efficiency over delicacy" argument concrete.

use moloc::core::viterbi::ViterbiLocalizer;
use moloc::eval::experiments::baselines;
use moloc::eval::pipeline::EvalWorld;
use moloc::fingerprint::horus::HorusLocalizer;
use moloc::prelude::*;

fn main() {
    let world = EvalWorld::small(7);
    let setting = world.setting(6);

    // The one-call comparison used by the evaluation harness.
    let comparison = baselines::run(&world, &setting);
    println!("{}", baselines::render(&comparison));

    // The same localizers are ordinary library types; a few direct
    // calls to show the API shape.
    println!("direct API usage:");

    // Horus: train per-AP Gaussians on the survey samples.
    let horus = HorusLocalizer::train(world.survey.locations().iter().map(|loc| {
        (
            loc.location,
            loc.fingerprint
                .iter()
                .map(|scan| Fingerprint::new(scan.iter().map(|d| d.value()).collect()))
                .collect::<Vec<_>>(),
        )
    }))
    .expect("survey is complete");
    let trace = &world.corpus.test[0];
    let first_scan = Fingerprint::new(trace.scans[0].clone());
    println!(
        "  Horus says the first pass of test trace 0 is at {}",
        horus.localize(&first_scan).expect("query matches")
    );

    // The HMM decodes the whole trace at once (it cannot answer before
    // the trace ends — one of the paper's arguments for the online
    // candidate tracker instead).
    let viterbi = ViterbiLocalizer::new(&setting.fdb, &setting.motion_db, MoLocConfig::paper());
    let queries: Vec<(Fingerprint, Option<MotionMeasurement>)> = trace
        .scans
        .iter()
        .map(|scan| (Fingerprint::new(scan.clone()), None))
        .collect();
    let path = viterbi.localize_trace(&queries).expect("non-empty trace");
    let truth_hits = path
        .iter()
        .zip(&trace.passes)
        .filter(|(est, pass)| **est == pass.location)
        .count();
    println!(
        "  HMM (fingerprints only) decodes trace 0 with {truth_hits}/{} correct passes",
        trace.pass_count()
    );

    // MoLoc answers online, pass by pass.
    let system = MoLoc::builder(setting.fdb.clone(), setting.motion_db.clone()).build();
    let mut engine = system.batch_localizer();
    let online_first = engine
        .observe(&first_scan, None)
        .expect("query matches the database");
    println!("  MoLoc's first online estimate for the same trace: {online_first}");
}
