//! Property-based tests for the mobility substrate.

use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_mobility::intervals::{measure_intervals, IntervalMeasurement};
use moloc_mobility::render::{SensorTrace, TraceRenderer};
use moloc_mobility::trajectory::Trajectory;
use moloc_mobility::user::{paper_users, UserProfile};
use moloc_mobility::walk::{random_walk, random_walk_from};
use moloc_radio::ap::AccessPoint;
use moloc_radio::RadioEnvironment;
use moloc_sensors::steps::StepDetector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;

fn world(cols: u32, rows: u32) -> (ReferenceGrid, WalkGraph) {
    let grid = ReferenceGrid::new(Vec2::new(2.0, 50.0), cols, rows, 3.0, 3.0).unwrap();
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(100.0, 100.0)).unwrap());
    let graph = WalkGraph::from_grid(&grid, &plan);
    (grid, graph)
}

fn user() -> UserProfile {
    paper_users()[1]
}

/// A rendered random walk of `segments` aisle segments on the 5×4 grid.
fn rendered(segments: usize, seed: u64) -> SensorTrace {
    let (grid, graph) = world(5, 4);
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(100.0, 100.0)).unwrap());
    let env = RadioEnvironment::builder(plan)
        .ap(AccessPoint::new(0, Vec2::new(8.0, 55.0), -20.0))
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let path = random_walk(&graph, segments, &mut rng);
    let traj = Trajectory::from_path(&path, &grid, &user()).unwrap();
    TraceRenderer::default().render(&traj, &user(), &env, &env.mean_scans(&grid), &mut rng)
}

/// A detector that differs from the default in every parameter.
fn other_detector() -> StepDetector {
    StepDetector {
        smooth_window: 5,
        walking_variance_threshold: 0.3,
        peak_threshold_sigma: 0.8,
        min_step_interval_s: 0.4,
    }
}

/// Every field of every measurement as bits, so equality is bit-exact.
type MeasurementBits = (usize, usize, Option<u64>, u64, u64, u64);

fn bits(measurements: &[IntervalMeasurement]) -> Vec<MeasurementBits> {
    measurements
        .iter()
        .map(|m| {
            (
                m.from_index,
                m.to_index,
                m.raw_direction_deg.map(f64::to_bits),
                m.steps_csc.to_bits(),
                m.steps_dsc.to_bits(),
                m.duration_s.to_bits(),
            )
        })
        .collect()
}

/// Asserts `trace.intervals(detector)` is bit-identical to a fresh
/// measurement of the trace as it is now.
fn assert_fresh(trace: &SensorTrace, detector: &StepDetector) {
    assert_eq!(
        bits(&trace.intervals(detector)),
        bits(&measure_intervals(trace, detector))
    );
}

#[test]
fn intervals_equal_a_fresh_measurement_on_first_and_second_call() {
    for seed in 0..6 {
        for detector in [StepDetector::default(), other_detector()] {
            let trace = rendered(12, seed);
            let fresh = bits(&measure_intervals(&trace, &detector));
            let first = trace.intervals(&detector);
            assert!(
                matches!(first, Cow::Borrowed(_)),
                "first call fills the memo"
            );
            assert_eq!(bits(&first), fresh, "seed {seed}: first call");
            let second = trace.intervals(&detector);
            assert!(
                matches!(second, Cow::Borrowed(_)),
                "second call hits the memo"
            );
            assert_eq!(bits(&second), fresh, "seed {seed}: second call");
        }
        // A detector the memo was not filled with is measured afresh.
        let trace = rendered(12, seed);
        let _ = trace.intervals(&StepDetector::default());
        let other = trace.intervals(&other_detector());
        assert!(matches!(other, Cow::Owned(_)), "another detector misses");
        assert_fresh(&trace, &other_detector());
        assert_fresh(&trace, &StepDetector::default());
    }
}

#[test]
fn accel_mut_drops_the_memo() {
    let detector = StepDetector::default();
    for seed in 0..4 {
        let mut trace = rendered(12, seed);
        let before = bits(&trace.intervals(&detector));
        // Flatten the second half of the gait signal: no steps there.
        let accel = trace.accel().clone();
        let half = accel.len() / 2;
        let values = accel.values().iter().enumerate();
        trace
            .accel_mut()
            .assign(
                accel.t0(),
                accel.sample_rate_hz(),
                values.map(|(i, &v)| if i < half { v } else { 9.81 }),
            )
            .unwrap();
        assert_ne!(bits(&measure_intervals(&trace, &detector)), before);
        assert_fresh(&trace, &detector);
    }
}

#[test]
fn compass_mut_drops_the_memo() {
    let detector = StepDetector::default();
    for seed in 0..4 {
        let mut trace = rendered(12, seed);
        let before = bits(&trace.intervals(&detector));
        let turned = trace.compass().map(|v| (v + 90.0) % 360.0);
        *trace.compass_mut() = turned;
        assert_ne!(bits(&measure_intervals(&trace, &detector)), before);
        assert_fresh(&trace, &detector);
    }
}

#[test]
fn an_edited_pass_time_misses_the_memo() {
    let detector = StepDetector::default();
    for seed in 0..4 {
        let mut trace = rendered(12, seed);
        let before = bits(&trace.intervals(&detector));
        trace.passes[3].time += 0.75;
        assert_ne!(bits(&measure_intervals(&trace, &detector)), before);
        assert_fresh(&trace, &detector);
    }
}

#[test]
fn serde_round_trip_compares_equal_and_remeasures_the_same() {
    let detector = StepDetector::default();
    for seed in 0..3 {
        let trace = rendered(12, seed);
        let memoized = bits(&trace.intervals(&detector));
        let json = serde_json::to_string(&trace).unwrap();
        let back: SensorTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(bits(&back.intervals(&detector)), memoized);
        // The memo never reaches the wire: a filled and an empty memo
        // serialize alike.
        assert_eq!(serde_json::to_string(&rendered(12, seed)).unwrap(), json);
    }
}

proptest! {
    #[test]
    fn walks_stay_on_graph_edges(
        cols in 2u32..7, rows in 2u32..5,
        segments in 1usize..60,
        seed in 0u64..300,
    ) {
        let (_, graph) = world(cols, rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk(&graph, segments, &mut rng);
        prop_assert_eq!(path.len(), segments + 1);
        for w in path.windows(2) {
            prop_assert!(graph.are_adjacent(w[0], w[1]));
        }
    }

    #[test]
    fn walks_from_every_start_are_valid(
        start in 0usize..20,
        seed in 0u64..100,
    ) {
        let (_, graph) = world(5, 4);
        let start = LocationId::from_index(start % graph.node_count());
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk_from(&graph, start, 10, &mut rng);
        prop_assert_eq!(path[0], start);
    }

    #[test]
    fn trajectory_times_are_strictly_increasing(
        segments in 1usize..40,
        seed in 0u64..200,
        speed in 0.5..2.0f64,
    ) {
        let (grid, graph) = world(5, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk(&graph, segments, &mut rng);
        let mut u = user();
        u.speed_mps = speed;
        let traj = Trajectory::from_path(&path, &grid, &u).unwrap();
        for w in traj.passes().windows(2) {
            prop_assert!(w[1].time > w[0].time);
        }
        // Total duration = total path length / speed.
        let length: f64 = path.windows(2).map(|w| grid.distance(w[0], w[1])).sum();
        prop_assert!((traj.duration() - length / speed).abs() < 1e-9);
    }

    #[test]
    fn position_at_pass_times_is_the_pass_position(
        segments in 1usize..20,
        seed in 0u64..100,
    ) {
        let (grid, graph) = world(4, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk(&graph, segments, &mut rng);
        let traj = Trajectory::from_path(&path, &grid, &user()).unwrap();
        for p in traj.passes() {
            prop_assert!(traj.position_at(p.time).dist(p.position) < 1e-6);
        }
    }

    #[test]
    fn headings_at_mid_segment_match_segment_bearings(
        segments in 1usize..20,
        seed in 0u64..100,
    ) {
        let (grid, graph) = world(4, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk(&graph, segments, &mut rng);
        let traj = Trajectory::from_path(&path, &grid, &user()).unwrap();
        for (a, b) in traj.segments() {
            let mid = (a.time + b.time) / 2.0;
            let heading = traj.heading_at(mid).expect("inside the trajectory");
            let bearing = a.position.bearing_deg_to(b.position);
            prop_assert!(
                moloc_stats::circular::abs_diff_deg(heading, bearing) < 1e-6,
                "segment heading {heading} vs bearing {bearing}"
            );
        }
    }

    #[test]
    fn heading_cursor_matches_heading_at_on_every_sample(
        segments in 1usize..20,
        seed in 0u64..100,
        rate in 0usize..5,
    ) {
        // Unit speed on a 3 m grid puts every pass on a whole second, so
        // the power-of-two rates land samples exactly on pass times.
        let rate_hz = [1.0, 2.0, 4.0, 10.0, 7.3][rate];
        let (grid, graph) = world(4, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk(&graph, segments, &mut rng);
        let mut u = user();
        u.speed_mps = 1.0;
        let traj = Trajectory::from_path(&path, &grid, &u).unwrap();
        let dt = 1.0 / rate_hz;
        let n = (traj.duration() * rate_hz) as usize + 3;
        let mut cursor = traj.heading_cursor();
        let mut on_pass = 0;
        for i in 0..n {
            let t = i as f64 * dt;
            on_pass += usize::from(traj.passes().iter().any(|p| p.time == t));
            let expected = traj.heading_at(t);
            let got = cursor.advance_to(t);
            prop_assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "sample {} at t = {}", i, t);
        }
        if rate_hz == 1.0 {
            prop_assert_eq!(on_pass, traj.passes().len());
        }
    }

    #[test]
    fn heading_cursor_matches_heading_at_on_pass_times(
        segments in 1usize..20,
        seed in 0u64..100,
        speed in 0.5..2.0f64,
    ) {
        // Probe each pass time itself plus the instants either side of
        // it: at `t == time` the next segment's bearing applies.
        let (grid, graph) = world(4, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_walk(&graph, segments, &mut rng);
        let mut u = user();
        u.speed_mps = speed;
        let traj = Trajectory::from_path(&path, &grid, &u).unwrap();
        let mut cursor = traj.heading_cursor();
        for p in traj.passes() {
            for t in [p.time.next_down(), p.time, p.time.next_up()] {
                let expected = traj.heading_at(t);
                prop_assert_eq!(cursor.advance_to(t).map(f64::to_bits), expected.map(f64::to_bits), "t = {}", t);
            }
        }
        prop_assert_eq!(cursor.advance_to(f64::INFINITY), None);
    }

    #[test]
    fn step_period_scales_inversely_with_speed(
        s1 in 0.6..1.8f64,
        s2 in 0.6..1.8f64,
    ) {
        let mut a = user();
        let mut b = user();
        a.speed_mps = s1;
        b.speed_mps = s2;
        if s1 < s2 {
            prop_assert!(a.step_period_s() > b.step_period_s());
        } else if s2 < s1 {
            prop_assert!(b.step_period_s() > a.step_period_s());
        }
    }
}
