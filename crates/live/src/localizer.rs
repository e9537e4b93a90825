//! Epoch-pinned serving loop: [`LiveLocalizer`].
//!
//! Wraps a `'static` [`BatchLocalizer`] behind a [`SnapshotReader`].
//! Each localization step checks for a newer epoch **before** touching
//! the engine, adopts it if one is out (rebuilding the motion kernel
//! for the new motion database, swapping the fingerprint index), and
//! then runs the whole step on that single snapshot. The retained
//! posterior is id-keyed, so tracking state carries across the swap —
//! a user mid-corridor keeps their motion-fused history when the
//! database underneath them is refreshed.

use crate::publisher::SnapshotReader;
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::{MotionMeasurement, TrackError};
use moloc_core::DegradationFlags;
use moloc_geometry::LocationId;
use std::sync::Arc;

/// A continuously-serving localizer that follows published epochs.
#[derive(Debug)]
pub struct LiveLocalizer {
    reader: SnapshotReader,
    engine: BatchLocalizer<'static>,
    config: MoLocConfig,
}

impl LiveLocalizer {
    /// Builds a localizer pinned to the reader's current snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (same contract as
    /// [`BatchLocalizer::new_counted`]).
    pub fn new(reader: SnapshotReader, config: MoLocConfig) -> Self {
        let snapshot = Arc::clone(reader.snapshot());
        let kernel = Arc::new(build_kernel(&snapshot.motion_db, &config));
        let engine = BatchLocalizer::new_counted(Arc::clone(&snapshot.index), kernel, config);
        Self {
            reader,
            engine,
            config,
        }
    }

    /// The epoch the *next* observation would run on if no newer one
    /// is published in between.
    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// Degradation flags of the most recent observation.
    pub fn last_flags(&self) -> DegradationFlags {
        self.engine.last_flags()
    }

    /// Forgets tracking history (the posterior), keeping the epoch pin.
    pub fn reset(&mut self) {
        self.engine.reset();
    }

    /// Processes one localization step, returning the estimate and the
    /// epoch it was computed on. A newly published snapshot is adopted
    /// here, at the step boundary, before the query runs — one step
    /// never mixes epochs.
    ///
    /// # Errors
    ///
    /// Returns [`TrackError`] for mismatched query lengths or
    /// non-finite measurements, exactly like
    /// [`BatchLocalizer::observe_slice`].
    pub fn observe(
        &mut self,
        scan: &[f64],
        motion: Option<MotionMeasurement>,
    ) -> Result<(LocationId, u64), TrackError> {
        self.observe_held(scan, motion, false)
    }

    /// [`LiveLocalizer::observe`] with an explicit stale-hold: when
    /// `hold` is true, a pending epoch swap is deferred and the step
    /// runs on the current pin (the `StaleSnapshot` fault injector's
    /// entry point — correctness-preserving by design, since every
    /// published epoch is a valid database).
    ///
    /// # Errors
    ///
    /// Same contract as [`LiveLocalizer::observe`].
    pub fn observe_held(
        &mut self,
        scan: &[f64],
        motion: Option<MotionMeasurement>,
        hold: bool,
    ) -> Result<(LocationId, u64), TrackError> {
        if self.reader.refresh_unless(hold) {
            let snapshot = Arc::clone(self.reader.snapshot());
            let kernel = Arc::new(build_kernel(&snapshot.motion_db, &self.config));
            self.engine
                .adopt_counted(Arc::clone(&snapshot.index), kernel);
        }
        let location = self.engine.observe_slice(scan, motion)?;
        Ok((location, self.reader.epoch()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::SnapshotPublisher;
    use crate::update::UpdateLog;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2, WalkGraph};
    use moloc_motion::builder::MapReference;
    use moloc_motion::filter::SanitationConfig;
    use moloc_motion::rlm::Rlm;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// 3×2 grid spaced 2 m in an open hall; ids 1..=6, 1→2 east.
    fn map() -> MapReference {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let graph = WalkGraph::from_grid(&grid, &plan);
        MapReference::new(&grid, &graph)
    }

    /// Well-separated 3-AP survey over all six grid locations, plus
    /// enough clean RLMs on 1→2 and 2→3 to build motion pairs.
    fn seeded_log() -> UpdateLog {
        let mut log = UpdateLog::new(3, map(), SanitationConfig::paper()).unwrap();
        for i in 1..=6u32 {
            let base = -30.0 - 8.0 * f64::from(i);
            log.observe_survey_sample(l(i), &[base, base - 12.0, base - 25.0])
                .unwrap();
        }
        for k in 0..5 {
            log.observe_rlm(Rlm::new(l(1), l(2), 89.0 + f64::from(k), 2.0).unwrap());
            log.observe_rlm(Rlm::new(l(2), l(3), 89.0 + f64::from(k), 2.0).unwrap());
        }
        log
    }

    fn scan_for(log: &UpdateLog, id: u32) -> Vec<f64> {
        log.build_snapshot(0)
            .unwrap()
            .fdb
            .fingerprint(l(id))
            .unwrap()
            .values()
            .to_vec()
    }

    fn east() -> Option<MotionMeasurement> {
        Some(MotionMeasurement {
            direction_deg: 90.0,
            offset_m: 2.0,
        })
    }

    #[test]
    fn live_matches_static_engine_when_nothing_publishes() {
        let mut log = seeded_log();
        let snapshot = log.build_snapshot(0).unwrap();
        let publisher = SnapshotPublisher::new(snapshot.clone());
        log.mark_published();
        let config = MoLocConfig::paper();
        let mut live = LiveLocalizer::new(publisher.reader(), config);
        let kernel = build_kernel(&snapshot.motion_db, &config);
        let mut reference = BatchLocalizer::new_with_index(&snapshot.index, &kernel, config);

        for (id, motion) in [(1u32, None), (2, east()), (3, east())] {
            let scan = scan_for(&log, id);
            let (got, epoch) = live.observe(&scan, motion).unwrap();
            let want = reference.observe_slice(&scan, motion).unwrap();
            assert_eq!(got, want, "step at {id}");
            assert_eq!(epoch, 0);
        }
    }

    #[test]
    fn published_epoch_is_adopted_at_the_next_step_boundary() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

        let scan1 = scan_for(&log, 1);
        let (loc, epoch) = live.observe(&scan1, None).unwrap();
        assert_eq!((loc, epoch), (l(1), 0));

        // A mid-trace publish: more survey weight on location 2.
        log.observe_survey_sample(l(2), &[-46.1, -58.0, -71.2])
            .unwrap();
        assert!(publisher.publish(&mut log).unwrap().published);
        assert_eq!(live.epoch(), 0, "not adopted until a step runs");

        let scan2 = scan_for(&log, 2);
        let (loc, epoch) = live.observe(&scan2, east()).unwrap();
        assert_eq!(epoch, 1, "adopted at the step boundary");
        assert_eq!(loc, l(2), "tracking continues across the swap");
    }

    #[test]
    fn stale_hold_defers_adoption_without_breaking_tracking() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

        live.observe(&scan_for(&log, 1), None).unwrap();
        log.observe_survey_sample(l(3), &[-54.2, -65.9, -79.1])
            .unwrap();
        publisher.publish(&mut log).unwrap();

        let (loc, epoch) = live.observe_held(&scan_for(&log, 2), east(), true).unwrap();
        assert_eq!(epoch, 0, "held step serves the old epoch");
        assert_eq!(loc, l(2));

        let (loc, epoch) = live.observe(&scan_for(&log, 3), east()).unwrap();
        assert_eq!(epoch, 1, "released step adopts");
        assert_eq!(loc, l(3));
    }
}
