//! Sensor-trace rendering.
//!
//! [`TraceRenderer`] turns a timed [`Trajectory`] into everything the
//! paper's phone would have recorded: accelerometer magnitude and
//! compass readings at 10 Hz, and a WiFi scan at every reference-
//! location pass (the trace-driven protocol of Sec. VI-A).

use crate::intervals::{memo_unserialized, IntervalMeasurement, IntervalMemo};
use crate::trajectory::{PassEvent, Trajectory};
use crate::user::UserProfile;
use moloc_radio::sampler::{RadioEnvironment, RssScan};
use moloc_sensors::gyro::GyroSynthesizer;
use moloc_sensors::series::TimeSeries;
use moloc_sensors::steps::StepDetector;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A fully rendered walking trace.
///
/// The accelerometer and compass streams are private so that every
/// write goes through [`SensorTrace::accel_mut`] or
/// [`SensorTrace::compass_mut`], which drop the memoized
/// [`SensorTrace::intervals`] result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorTrace {
    /// The walker.
    pub user: UserProfile,
    /// Ground-truth passes over reference locations.
    pub passes: Vec<PassEvent>,
    /// Accelerometer magnitude at the renderer's sample rate.
    accel: TimeSeries,
    /// Compass readings (degrees, wrapped) at the same rate.
    compass: TimeSeries,
    /// Gyroscope z-axis turn rates (°/s) at the same rate — the raw
    /// material of the paper's future-work heading fusion.
    pub gyro: TimeSeries,
    /// One RSS scan (dBm per AP) per pass, aligned with `passes`.
    pub scans: Vec<Vec<f64>>,
    /// The first [`SensorTrace::intervals`] result. A cache, not part
    /// of the trace's value: equality ignores it and serde skips it.
    #[serde(with = "memo_unserialized")]
    memo: IntervalMemo,
}

impl SensorTrace {
    /// Number of passes (and scans).
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.passes.last().map_or(0.0, |p| p.time)
    }

    /// Accelerometer magnitude at the renderer's sample rate.
    pub fn accel(&self) -> &TimeSeries {
        &self.accel
    }

    /// Compass readings (degrees, wrapped) at the same rate.
    pub fn compass(&self) -> &TimeSeries {
        &self.compass
    }

    /// Mutable accelerometer stream; drops the interval memo first.
    pub fn accel_mut(&mut self) -> &mut TimeSeries {
        self.memo.clear();
        &mut self.accel
    }

    /// Mutable compass stream; drops the interval memo first.
    pub fn compass_mut(&mut self) -> &mut TimeSeries {
        self.memo.clear();
        &mut self.compass
    }

    /// Every inter-pass interval measured with `detector`, bit-identical
    /// to [`crate::intervals::measure_intervals`].
    ///
    /// The first call measures and keeps the result; later calls with
    /// the same detector and the same pass times (compared bit for bit)
    /// borrow it. Any other call measures afresh without replacing the
    /// memo. `passes` stays public, so its times are part of the key;
    /// the sensor streams are not, because writing them clears the memo.
    ///
    /// # Examples
    ///
    /// ```
    /// use moloc_geometry::polygon::Aabb;
    /// use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2};
    /// use moloc_mobility::intervals::measure_intervals;
    /// use moloc_mobility::render::TraceRenderer;
    /// use moloc_mobility::trajectory::Trajectory;
    /// use moloc_mobility::user::paper_users;
    /// use moloc_radio::ap::AccessPoint;
    /// use moloc_radio::RadioEnvironment;
    /// use moloc_sensors::steps::StepDetector;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
    /// let env = RadioEnvironment::builder(plan)
    ///     .ap(AccessPoint::new(0, Vec2::new(10.0, 5.0), -20.0))
    ///     .build()
    ///     .unwrap();
    /// let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 3, 2, 4.0, 4.0).unwrap();
    /// let user = paper_users()[1];
    /// let path = [1, 2, 5, 4].map(LocationId::new);
    /// let trajectory = Trajectory::from_path(&path, &grid, &user).unwrap();
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let trace =
    ///     TraceRenderer::default().render(&trajectory, &user, &env, &env.mean_scans(&grid), &mut rng);
    ///
    /// let detector = StepDetector::default();
    /// let intervals = trace.intervals(&detector);
    /// assert_eq!(intervals.len(), trace.pass_count() - 1);
    /// assert_eq!(*intervals, *measure_intervals(&trace, &detector));
    /// ```
    pub fn intervals(&self, detector: &StepDetector) -> Cow<'_, [IntervalMeasurement]> {
        self.memo.get_or_measure(self, detector)
    }
}

/// Renders trajectories into sensor traces against a radio environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRenderer {
    /// IMU sample rate in Hz (paper: 10).
    pub sample_rate_hz: f64,
    /// Gyroscope error model (typical consumer MEMS defaults).
    pub gyro_model: GyroSynthesizer,
}

impl Default for TraceRenderer {
    fn default() -> Self {
        Self {
            sample_rate_hz: 10.0,
            gyro_model: GyroSynthesizer::new(0.3, 0.5),
        }
    }
}

impl TraceRenderer {
    /// Renders one trace: [`Self::shell`] then [`Self::render_into`].
    ///
    /// The user walks the whole trajectory at constant cadence, so the
    /// accelerometer is one continuous gait signal; compass readings
    /// follow the segment bearings through the user's placement offset
    /// and noise; one fresh RSS scan is taken at each pass.
    ///
    /// `mean_scans` is [`RadioEnvironment::mean_scans`] of `env` over the
    /// grid the trajectory was timed on: each pass scan is drawn about
    /// the entry of its location, so the static channel is computed once
    /// per grid point rather than once per pass.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate is not positive, if `mean_scans` has no
    /// entry for a passed location, or if an entry's length is not
    /// `env`'s AP count.
    pub fn render<R: Rng + ?Sized>(
        &self,
        trajectory: &Trajectory,
        user: &UserProfile,
        env: &RadioEnvironment,
        mean_scans: &[RssScan],
        rng: &mut R,
    ) -> SensorTrace {
        let mut trace = self.shell(trajectory, user, env.aps().len());
        self.render_into(trajectory, user, env, mean_scans, rng, &mut trace);
        trace
    }

    /// An unrendered trace of `trajectory` that owns every buffer the
    /// rendered trace keeps: its passes, accelerometer, compass and gyro
    /// streams with room for the trajectory's samples, and one scan per
    /// pass with room for `ap_count` readings. The streams and scans are
    /// empty until [`Self::render_into`] fills them.
    ///
    /// A corpus allocates its shells on the calling thread and lets pool
    /// workers only fill them: buffers a worker allocated would outlive
    /// the job in that worker's malloc arena and raise peak memory.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate is not positive.
    pub fn shell(
        &self,
        trajectory: &Trajectory,
        user: &UserProfile,
        ap_count: usize,
    ) -> SensorTrace {
        let n = self.sample_count(trajectory);
        let series = || {
            TimeSeries::new(0.0, self.sample_rate_hz, Vec::with_capacity(n))
                .expect("positive sample rate")
        };
        SensorTrace {
            user: *user,
            passes: trajectory.passes().to_vec(),
            accel: series(),
            compass: series(),
            gyro: series(),
            scans: trajectory
                .passes()
                .iter()
                .map(|_| Vec::with_capacity(ap_count))
                .collect(),
            memo: IntervalMemo::default(),
        }
    }

    /// Renders one trace into `trace`, reusing its buffers: afterwards
    /// `trace` equals what [`Self::render`] returns for the same
    /// arguments and `rng` state, whatever it held before. Nothing is
    /// allocated for the trace when its buffers are as large as
    /// [`Self::shell`] makes them.
    ///
    /// `rng` is drawn in a fixed order: every accelerometer sample, then
    /// every compass reading, every gyro reading, and the scans pass by
    /// pass.
    ///
    /// # Panics
    ///
    /// As [`Self::render`].
    pub fn render_into<R: Rng + ?Sized>(
        &self,
        trajectory: &Trajectory,
        user: &UserProfile,
        env: &RadioEnvironment,
        mean_scans: &[RssScan],
        rng: &mut R,
        trace: &mut SensorTrace,
    ) {
        let n = self.sample_count(trajectory);
        user.validate();
        trace.memo.clear();
        trace.user = *user;
        trace.passes.clear();
        trace.passes.extend_from_slice(trajectory.passes());
        user.gait().synthesize_segment_into(
            trajectory.duration(),
            user.step_period_s(),
            0.0,
            self.sample_rate_hz,
            rng,
            &mut trace.accel,
        );

        // The true headings are staged in the gyro buffer: the compass
        // reads them, then the gyro model turns them into rates in place.
        let dt = 1.0 / self.sample_rate_hz;
        let mut headings = trajectory.heading_cursor();
        let mut last_heading = 0.0;
        trace
            .gyro
            .assign(
                0.0,
                self.sample_rate_hz,
                (0..n).map(|i| {
                    if let Some(h) = headings.advance_to(i as f64 * dt) {
                        last_heading = h;
                    }
                    last_heading
                }),
            )
            .expect("positive sample rate");
        let compass_model = user.compass();
        trace
            .compass
            .assign(
                0.0,
                self.sample_rate_hz,
                trace
                    .gyro
                    .values()
                    .iter()
                    .map(|&h| compass_model.read(h, rng)),
            )
            .expect("positive sample rate");
        self.gyro_model.synthesize_in_place(&mut trace.gyro, rng);

        trace.scans.resize_with(trajectory.passes().len(), Vec::new);
        for (scan, pass) in trace.scans.iter_mut().zip(trajectory.passes()) {
            scan.clear();
            scan.extend(
                env.scan_about_iter(&mean_scans[pass.location.index()], rng)
                    .map(f64::from),
            );
        }
    }

    /// Samples per stream for `trajectory`: its duration at the sample
    /// rate, rounded.
    fn sample_count(&self, trajectory: &Trajectory) -> usize {
        assert!(self.sample_rate_hz > 0.0, "sample rate must be positive");
        (trajectory.duration() * self.sample_rate_hz).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::paper_users;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2};
    use moloc_radio::ap::AccessPoint;
    use moloc_sensors::steps::StepDetector;
    use moloc_stats::circular::abs_diff_deg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn world() -> (RadioEnvironment, ReferenceGrid) {
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
        let env = RadioEnvironment::builder(plan)
            .ap(AccessPoint::new(0, Vec2::new(5.0, 5.0), -20.0))
            .ap(AccessPoint::new(1, Vec2::new(15.0, 5.0), -20.0))
            .temporal_sigma_db(2.0)
            .build()
            .unwrap();
        let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 3, 2, 4.0, 4.0).unwrap();
        (env, grid)
    }

    fn render_simple(seed: u64) -> SensorTrace {
        let (env, grid) = world();
        let user = paper_users()[1];
        let traj = Trajectory::from_path(&[l(1), l(2), l(5)], &grid, &user).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        TraceRenderer::default().render(&traj, &user, &env, &env.mean_scans(&grid), &mut rng)
    }

    #[test]
    fn trace_shape_is_consistent() {
        let trace = render_simple(1);
        assert_eq!(trace.pass_count(), 3);
        assert_eq!(trace.scans.len(), 3);
        assert_eq!(trace.scans[0].len(), 2);
        assert_eq!(trace.accel().len(), trace.compass().len());
        assert!((trace.accel().duration() - trace.duration()).abs() < 0.2);
    }

    #[test]
    fn accel_contains_detectable_steps() {
        let trace = render_simple(2);
        let steps = StepDetector::default().detect(trace.accel());
        // 8 m at user 2's step length (~0.70 m) ≈ 11 steps.
        let expected = 8.0 / trace.user.step_length_m();
        assert!(
            (steps.len() as f64 - expected).abs() <= 2.0,
            "{} steps vs expected {expected}",
            steps.len()
        );
    }

    #[test]
    fn compass_tracks_offset_heading_per_segment() {
        let trace = render_simple(3);
        let offset = trace.user.placement_offset_deg + trace.user.compass_bias_deg;
        // First segment heads east (90°).
        let first = trace.compass().slice_time(0.0, 3.0);
        let mean =
            moloc_stats::circular::circular_mean_deg(first.values().iter().copied()).unwrap();
        assert!(
            abs_diff_deg(mean, 90.0 + offset) < 6.0,
            "mean {mean} vs 90 + {offset}"
        );
    }

    #[test]
    fn scans_reflect_pass_positions() {
        let (env, grid) = world();
        let trace = render_simple(4);
        // First pass is at L1, near AP0 and far from AP1 → RSS(ap0) >
        // RSS(ap1) on average.
        let _ = env;
        let p0 = grid.position(l(1));
        assert_eq!(trace.passes[0].position, p0);
        assert!(trace.scans[0][0] > trace.scans[0][1]);
    }

    /// Data pointer and capacity of every buffer a trace keeps.
    fn buffers(trace: &SensorTrace) -> Vec<(usize, usize)> {
        [trace.accel(), trace.compass(), &trace.gyro]
            .iter()
            .map(|s| (s.values().as_ptr() as usize, s.capacity()))
            .chain(
                trace
                    .scans
                    .iter()
                    .map(|s| (s.as_ptr() as usize, s.capacity())),
            )
            .chain([(trace.passes.as_ptr() as usize, trace.passes.capacity())])
            .collect()
    }

    /// Every number of a trace, as bits, in a fixed order.
    fn bits(trace: &SensorTrace) -> Vec<u64> {
        let mut out = vec![u64::from(trace.user.id)];
        for series in [trace.accel(), trace.compass(), &trace.gyro] {
            out.push(series.len() as u64);
            out.extend(series.values().iter().map(|v| v.to_bits()));
        }
        for (pass, scan) in trace.passes.iter().zip(&trace.scans) {
            out.extend([pass.time.to_bits(), u64::from(pass.location.get())]);
            out.push(scan.len() as u64);
            out.extend(scan.iter().map(|v| v.to_bits()));
        }
        out
    }

    #[test]
    fn render_into_fills_the_callers_buffers_and_matches_render() {
        let (env, grid) = world();
        let mean_scans = env.mean_scans(&grid);
        let user = paper_users()[2];
        let traj = Trajectory::from_path(&[l(1), l(2), l(5), l(4)], &grid, &user).unwrap();
        let renderer = TraceRenderer::default();
        let mut trace = renderer.shell(&traj, &user, env.aps().len());
        assert!(trace.accel().is_empty() && trace.scans.iter().all(Vec::is_empty));
        let before = buffers(&trace);
        let mut rng = StdRng::seed_from_u64(11);
        renderer.render_into(&traj, &user, &env, &mean_scans, &mut rng, &mut trace);
        // Filled in place: no buffer moved or grew, so a pool worker
        // that renders into a caller's shell allocates none of them.
        assert_eq!(buffers(&trace), before);
        assert!(!trace.accel().is_empty() && trace.accel().len() == trace.accel().capacity());
        assert_eq!(trace.scans.len(), traj.passes().len());
        assert!(trace.scans.iter().all(|s| s.len() == env.aps().len()));

        let mut rendered_rng = StdRng::seed_from_u64(11);
        let rendered = renderer.render(&traj, &user, &env, &mean_scans, &mut rendered_rng);
        assert_eq!(bits(&trace), bits(&rendered));
        assert_eq!(trace, rendered);
        // Both leave the stream at the same point.
        assert_eq!(rng.gen::<u64>(), rendered_rng.gen::<u64>());
    }

    #[test]
    fn render_into_overwrites_a_trace_of_another_walk() {
        let (env, grid) = world();
        let mean_scans = env.mean_scans(&grid);
        let user = paper_users()[0];
        let long = Trajectory::from_path(&[l(1), l(2), l(5), l(4), l(1)], &grid, &user).unwrap();
        let short = Trajectory::from_path(&[l(2), l(5)], &grid, &user).unwrap();
        let renderer = TraceRenderer::default();
        let mut trace = renderer.render(
            &long,
            &paper_users()[3],
            &env,
            &mean_scans,
            &mut StdRng::seed_from_u64(1),
        );
        let _ = trace.intervals(&StepDetector::default());
        renderer.render_into(
            &short,
            &user,
            &env,
            &mean_scans,
            &mut StdRng::seed_from_u64(2),
            &mut trace,
        );
        let expected = renderer.render(
            &short,
            &user,
            &env,
            &mean_scans,
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(bits(&trace), bits(&expected));
        assert_eq!(
            *trace.intervals(&StepDetector::default()),
            *crate::intervals::measure_intervals(&expected, &StepDetector::default())
        );
    }

    #[test]
    fn rendering_is_reproducible() {
        assert_eq!(render_simple(9), render_simple(9));
        assert_ne!(render_simple(9), render_simple(10));
    }
}
