//! The ingestion side of live updates: [`UpdateLog`].
//!
//! Crowdsourced contributions arrive as two delta kinds:
//!
//! * **Survey samples** — a positioned device reports one RSS vector
//!   for a known reference location. Folded into per-location per-AP
//!   [`Welford`] accumulators with *sequential* pushes in arrival
//!   order — exactly the accumulation
//!   [`FingerprintDb::from_samples`] performs — so the snapshot built
//!   from N incremental deltas is bit-identical to a from-scratch
//!   rebuild over the merged sample list. (Parallel `Welford::merge`
//!   is deliberately avoided: mathematically equivalent, not
//!   bit-identical.)
//! * **RLMs** — reassembled location measurements for the motion
//!   database, offered straight to the long-lived
//!   [`MotionDbBuilder`], which applies the paper's coarse map filter
//!   on ingestion and the fine 2σ filter at build time.
//!
//! [`UpdateLog::build_snapshot`] is non-destructive: it condenses the
//! accumulated state into a [`DbSnapshot`] and leaves the log open for
//! further deltas, so epochs compound.

use crate::snapshot::DbSnapshot;
use crate::LiveError;
use moloc_fingerprint::db::{DbError, FingerprintDb};
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::builder::{MapReference, MotionDbBuilder};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use moloc_stats::online::Welford;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Accumulates crowdsourced deltas between snapshot publishes.
#[derive(Debug)]
pub struct UpdateLog {
    ap_count: usize,
    /// Per location: one Welford accumulator per AP, pushed in sample
    /// arrival order (the bit-identity anchor — see module docs).
    survey: BTreeMap<LocationId, Vec<Welford>>,
    motion: MotionDbBuilder,
    deltas_since_publish: u64,
}

impl UpdateLog {
    /// Creates an empty log for `ap_count`-AP fingerprints over the
    /// given map reference and sanitation policy.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Sanitation`] when the sanitation
    /// configuration fails validation.
    pub fn new(
        ap_count: usize,
        map: MapReference,
        sanitation: SanitationConfig,
    ) -> Result<Self, LiveError> {
        Ok(Self {
            ap_count,
            survey: BTreeMap::new(),
            motion: MotionDbBuilder::new(map, sanitation)?,
            deltas_since_publish: 0,
        })
    }

    /// The AP count every survey sample must carry.
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// Deltas accepted since the last [`UpdateLog::mark_published`].
    pub fn pending_deltas(&self) -> u64 {
        self.deltas_since_publish
    }

    /// Folds one survey sample for `location` into the accumulators.
    ///
    /// A sample that would make any of the location's per-AP means
    /// non-finite (a NaN or ±inf value, or a finite one whose fold
    /// overflows) is rejected before folding. A Welford mean never
    /// recovers from a non-finite value, so folding it would make every
    /// later [`UpdateLog::build_snapshot`] fail for good.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::ApCount`] when the sample length does not
    /// match the log's AP count, and [`LiveError::Db`] with
    /// [`DbError::NonFinite`] for a sample that would make a mean
    /// non-finite. A rejected sample is not folded and does not count
    /// as a pending delta.
    pub fn observe_survey_sample(
        &mut self,
        location: LocationId,
        values: &[f64],
    ) -> Result<(), LiveError> {
        if values.len() != self.ap_count {
            return Err(LiveError::ApCount {
                expected: self.ap_count,
                found: values.len(),
            });
        }
        let existing = self.survey.get(&location);
        let folds_finite = values.iter().enumerate().all(|(ap, &value)| {
            let mut probe = existing.map_or_else(Welford::new, |accumulators| accumulators[ap]);
            probe.push(value);
            probe.mean().is_finite()
        });
        if !folds_finite {
            return Err(LiveError::Db(DbError::NonFinite(location)));
        }
        let accumulators = self
            .survey
            .entry(location)
            .or_insert_with(|| vec![Welford::new(); self.ap_count]);
        for (acc, &value) in accumulators.iter_mut().zip(values) {
            acc.push(value);
        }
        self.deltas_since_publish += 1;
        Ok(())
    }

    /// Offers one crowdsourced RLM to the motion builder. Returns
    /// whether the coarse filter accepted it.
    ///
    /// A *rejected* RLM still counts as a pending delta: the builder's
    /// report counters changed, and those counters are part of the
    /// snapshot digest, so the next publish must not be skipped.
    pub fn observe_rlm(&mut self, rlm: Rlm) -> bool {
        let accepted = self.motion.observe(rlm);
        self.deltas_since_publish += 1;
        accepted
    }

    /// Condenses the accumulated state into an epoch-stamped snapshot
    /// without consuming the log.
    ///
    /// The fingerprint side reproduces
    /// [`FingerprintDb::from_samples`] exactly: per-AP Welford means
    /// in id order, non-finite means rejected per location. The motion
    /// side is [`MotionDbBuilder::build_snapshot`], proven
    /// prefix-bit-identical to a consuming build.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Db`] when no survey samples have been
    /// observed ([`DbError::Empty`]). The per-location
    /// [`DbError::NonFinite`] check stays as a guard, but
    /// [`UpdateLog::observe_survey_sample`] already rejects every
    /// sample that would make a mean non-finite.
    pub fn build_snapshot(&self, epoch: u64) -> Result<DbSnapshot, LiveError> {
        let mut entries = Vec::with_capacity(self.survey.len());
        for (&id, accumulators) in &self.survey {
            let values: Vec<f64> = accumulators.iter().map(Welford::mean).collect();
            if values.iter().any(|v| !v.is_finite()) {
                return Err(LiveError::Db(DbError::NonFinite(id)));
            }
            entries.push((id, Fingerprint::new(values)));
        }
        let fdb = FingerprintDb::from_fingerprints(entries)?;
        let index = FingerprintIndex::build(&fdb);
        let (motion_db, motion_report) = self.motion.build_snapshot();
        Ok(DbSnapshot {
            epoch,
            fdb: Arc::new(fdb),
            index: Arc::new(index),
            motion_db: Arc::new(motion_db),
            motion_report,
        })
    }

    /// Resets the pending-delta counter after a successful publish.
    /// The accumulated survey and motion state is retained — epochs
    /// compound over the full contribution history.
    pub fn mark_published(&mut self) {
        self.deltas_since_publish = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2, WalkGraph};

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// 3×2 grid spaced 2 m in an open hall (same world as the motion
    /// builder tests; 1→2 runs east at 90°, 2 m apart).
    fn map() -> MapReference {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let graph = WalkGraph::from_grid(&grid, &plan);
        MapReference::new(&grid, &graph)
    }

    fn log() -> UpdateLog {
        UpdateLog::new(2, map(), SanitationConfig::paper()).unwrap()
    }

    #[test]
    fn ap_count_mismatch_is_rejected_without_folding() {
        let mut log = log();
        let err = log.observe_survey_sample(l(1), &[-40.0]).unwrap_err();
        assert_eq!(
            err,
            LiveError::ApCount {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(log.pending_deltas(), 0);
    }

    #[test]
    fn incremental_survey_means_match_from_samples_bitwise() {
        let mut log = log();
        let samples = [
            (1u32, [-40.0, -60.1]),
            (2, [-70.0, -30.0]),
            (1, [-44.3, -56.2]),
            (1, [-41.7, -58.9]),
            (2, [-69.2, -31.4]),
        ];
        for (id, s) in &samples {
            log.observe_survey_sample(l(*id), s).unwrap();
        }
        let snap = log.build_snapshot(3).unwrap();

        let reference = FingerprintDb::from_samples(vec![
            (
                l(1),
                samples
                    .iter()
                    .filter(|(id, _)| *id == 1)
                    .map(|(_, s)| Fingerprint::new(s.to_vec()))
                    .collect::<Vec<_>>(),
            ),
            (
                l(2),
                samples
                    .iter()
                    .filter(|(id, _)| *id == 2)
                    .map(|(_, s)| Fingerprint::new(s.to_vec()))
                    .collect::<Vec<_>>(),
            ),
        ])
        .unwrap();
        assert_eq!(*snap.fdb, reference, "bit-identical condensed database");
        assert_eq!(snap.epoch, 3);
    }

    #[test]
    fn rejected_rlm_still_counts_as_a_delta() {
        let mut log = log();
        // 1→2 map direction is 90°; 10° is a wild coarse reject.
        let accepted = log.observe_rlm(Rlm::new(l(1), l(2), 10.0, 2.0).unwrap());
        assert!(!accepted);
        assert_eq!(
            log.pending_deltas(),
            1,
            "the report counters changed, so the digest will too"
        );
    }

    #[test]
    fn empty_log_cannot_build() {
        let log = log();
        assert_eq!(
            log.build_snapshot(0).unwrap_err(),
            LiveError::Db(DbError::Empty)
        );
    }

    #[test]
    fn non_finite_sample_is_rejected_without_folding() {
        let mut log = log();
        log.observe_survey_sample(l(1), &[-40.0, -60.0]).unwrap();
        log.mark_published();
        let before = log.build_snapshot(0).unwrap().digest();
        for bad in [
            [-40.0, f64::NAN],
            [f64::INFINITY, -60.0],
            [-40.0, f64::NEG_INFINITY],
        ] {
            assert_eq!(
                log.observe_survey_sample(l(1), &bad).unwrap_err(),
                LiveError::Db(DbError::NonFinite(l(1)))
            );
        }
        assert_eq!(
            log.observe_survey_sample(l(2), &[f64::NAN, -60.0])
                .unwrap_err(),
            LiveError::Db(DbError::NonFinite(l(2))),
            "a first sample for a new location is checked too"
        );
        assert_eq!(log.pending_deltas(), 0, "rejected samples are not deltas");
        assert_eq!(log.build_snapshot(0).unwrap().digest(), before);
    }

    #[test]
    fn finite_sample_whose_fold_overflows_is_rejected() {
        let mut log = log();
        log.observe_survey_sample(l(1), &[-f64::MAX, -60.0])
            .unwrap();
        // (MAX - (-MAX)) overflows the Welford delta to +inf.
        assert_eq!(
            log.observe_survey_sample(l(1), &[f64::MAX, -60.0])
                .unwrap_err(),
            LiveError::Db(DbError::NonFinite(l(1)))
        );
        assert_eq!(log.pending_deltas(), 1);
        assert!(log.build_snapshot(0).is_ok());
    }

    #[test]
    fn mark_published_keeps_history() {
        let mut log = log();
        log.observe_survey_sample(l(1), &[-40.0, -60.0]).unwrap();
        log.mark_published();
        assert_eq!(log.pending_deltas(), 0);
        // History survives: the next snapshot still sees the sample.
        let snap = log.build_snapshot(1).unwrap();
        assert_eq!(snap.fdb.len(), 1);
    }
}
