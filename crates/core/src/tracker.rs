//! The stateful MoLoc tracker.
//!
//! A [`MoLocTracker`] serves one user's localization session: every
//! query yields `k` fingerprint candidates (Eq. 3/4); from the second
//! query on, the retained previous candidates and the motion measured
//! during the interval reweight them (Eq. 7); the top candidate is the
//! location estimate and the posterior set is retained for the next
//! round (Sec. V-C).

use crate::config::MoLocConfig;
use crate::error::MolocError;
use crate::evaluate::{evaluate_candidates, evaluate_candidates_kernel};
use crate::matching::build_kernel;
use moloc_fingerprint::candidates::CandidateSet;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::{k_nearest_into_buf, Neighbor};
use moloc_fingerprint::metric::{Dissimilarity, Euclidean};
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;
use serde::{Deserialize, Serialize};

/// The motion measured during one localization interval: the direction
/// and offset components of an RLM, extracted from compass and
/// accelerometer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionMeasurement {
    /// Motion direction in compass degrees.
    pub direction_deg: f64,
    /// Walked distance in meters.
    pub offset_m: f64,
}

/// Error from [`MoLocTracker::observe`].
///
/// An alias of the crate-wide [`MolocError`] hierarchy — kept under its
/// historical name so existing `TrackError::QueryLength { .. }` call
/// sites and matches continue to compile unchanged.
pub type TrackError = MolocError;

/// How a tracker evaluates motion probabilities.
#[derive(Debug)]
enum MotionBackend<'a> {
    /// A kernel this tracker built and owns (the default).
    OwnedKernel(Box<MotionKernel>),
    /// A caller-provided kernel, shared across trackers (one build per
    /// `(MotionDb, config)` instead of one per trace).
    SharedKernel(&'a MotionKernel),
    /// The exact per-call Gaussian computation (reference path; used by
    /// the benches to quantify the kernel's speedup).
    Exact,
}

/// How a tracker scans the fingerprint database.
#[derive(Debug)]
enum FingerprintBackend<'a> {
    /// A columnar index this tracker built and owns (the default for
    /// the Euclidean metric).
    OwnedIndex(Box<FingerprintIndex>),
    /// A caller-provided index, shared across trackers (one flattening
    /// per fingerprint database instead of one per trace).
    SharedIndex(&'a FingerprintIndex),
    /// The generic `k_nearest` walk over the database through the
    /// configured `dyn Dissimilarity` (reference path; required for
    /// custom metrics).
    ExactScan,
}

/// The stateful motion-assisted localizer.
#[derive(Debug)]
pub struct MoLocTracker<'a> {
    fingerprint_db: &'a FingerprintDb,
    motion_db: &'a MotionDb,
    config: MoLocConfig,
    metric: &'a dyn Dissimilarity,
    backend: MotionBackend<'a>,
    fingerprints: FingerprintBackend<'a>,
    scratch: KnnScratch,
    neighbors: Vec<Neighbor>,
    previous: Option<CandidateSet>,
}

impl<'a> MoLocTracker<'a> {
    /// Creates a tracker with the paper's Euclidean metric. Precomputes
    /// a [`MotionKernel`] over `motion_db` so every subsequent Eq. 5/6
    /// evaluation is a table lookup; when constructing many trackers
    /// over one database (e.g. one per trace), build the kernel once
    /// with [`build_kernel`] and use [`Self::with_shared_kernel`].
    pub fn new(
        fingerprint_db: &'a FingerprintDb,
        motion_db: &'a MotionDb,
        config: MoLocConfig,
    ) -> Self {
        config.validate();
        let kernel = build_kernel(motion_db, &config);
        Self {
            fingerprint_db,
            motion_db,
            config,
            metric: &Euclidean,
            backend: MotionBackend::OwnedKernel(Box::new(kernel)),
            fingerprints: FingerprintBackend::OwnedIndex(Box::new(FingerprintIndex::build(
                fingerprint_db,
            ))),
            scratch: KnnScratch::with_k(config.k),
            neighbors: Vec::with_capacity(config.k),
            previous: None,
        }
    }

    /// Creates a tracker over a caller-owned kernel, skipping the
    /// per-tracker kernel build of [`Self::new`]. The kernel must have
    /// been built from the same motion database and config (see
    /// [`build_kernel`]). This is the constructor the evaluation
    /// pipeline uses when fanning one setting out over many traces.
    pub fn new_with_kernel(
        fingerprint_db: &'a FingerprintDb,
        motion_db: &'a MotionDb,
        config: MoLocConfig,
        kernel: &'a MotionKernel,
    ) -> Self {
        config.validate();
        Self {
            fingerprint_db,
            motion_db,
            config,
            metric: &Euclidean,
            backend: MotionBackend::SharedKernel(kernel),
            fingerprints: FingerprintBackend::OwnedIndex(Box::new(FingerprintIndex::build(
                fingerprint_db,
            ))),
            scratch: KnnScratch::with_k(config.k),
            neighbors: Vec::with_capacity(config.k),
            previous: None,
        }
    }

    /// Replaces the dissimilarity metric. The columnar index only
    /// serves the Euclidean metric, so this switches the fingerprint
    /// scan to the generic path.
    pub fn with_metric(mut self, metric: &'a dyn Dissimilarity) -> Self {
        self.metric = metric;
        self.fingerprints = FingerprintBackend::ExactScan;
        self
    }

    /// Uses a caller-owned columnar index instead of flattening one.
    /// The index must have been built from the same fingerprint
    /// database (see [`FingerprintIndex::build`]).
    pub fn with_shared_index(mut self, index: &'a FingerprintIndex) -> Self {
        self.fingerprints = FingerprintBackend::SharedIndex(index);
        self
    }

    /// Disables the columnar index: candidates come from the generic
    /// `k_nearest` walk through the configured metric (the pre-index
    /// reference path; used by the index-vs-naive benchmarks).
    pub fn with_exact_scan(mut self) -> Self {
        self.fingerprints = FingerprintBackend::ExactScan;
        self
    }

    /// Uses a caller-owned kernel instead of building one. The kernel
    /// must have been built from the same motion database and config.
    pub fn with_shared_kernel(mut self, kernel: &'a MotionKernel) -> Self {
        self.backend = MotionBackend::SharedKernel(kernel);
        self
    }

    /// Disables the kernel: motion probabilities are computed exactly
    /// per call (the pre-kernel reference path). Intended for numerical
    /// cross-checks and the naive-vs-kernel benchmarks.
    pub fn with_exact_matching(mut self) -> Self {
        self.backend = MotionBackend::Exact;
        self
    }

    /// The retained candidate set from the last observation, if any.
    pub fn candidates(&self) -> Option<&CandidateSet> {
        self.previous.as_ref()
    }

    /// Forgets all history (e.g. the user teleported via an elevator).
    pub fn reset(&mut self) {
        self.previous = None;
    }

    /// Processes one localization query.
    ///
    /// `motion` is the RLM measured since the previous observation;
    /// pass `None` for the first query of a session (or whenever the
    /// motion pipeline could not produce a measurement — the tracker
    /// then behaves like plain fingerprinting for this step, as the
    /// paper's initial localization does).
    ///
    /// # Errors
    ///
    /// Returns [`TrackError`] for mismatched query lengths or non-finite
    /// measurements.
    pub fn observe(
        &mut self,
        query: &Fingerprint,
        motion: Option<MotionMeasurement>,
    ) -> Result<LocationId, TrackError> {
        let _span = moloc_obs::span("core.tracker.observe");
        if query.len() != self.fingerprint_db.ap_count() {
            return Err(TrackError::QueryLength {
                expected: self.fingerprint_db.ap_count(),
                found: query.len(),
            });
        }
        if let Some(m) = motion {
            if !m.direction_deg.is_finite() || !m.offset_m.is_finite() || m.offset_m < 0.0 {
                return Err(TrackError::BadMeasurement);
            }
        }
        match &self.fingerprints {
            FingerprintBackend::OwnedIndex(index) => index.k_nearest_into(
                query.values(),
                self.config.k,
                &mut self.scratch,
                &mut self.neighbors,
            ),
            FingerprintBackend::SharedIndex(index) => index.k_nearest_into(
                query.values(),
                self.config.k,
                &mut self.scratch,
                &mut self.neighbors,
            ),
            FingerprintBackend::ExactScan => {
                // Into the retained buffer — the generic scan used to
                // allocate a fresh Vec (and heap) per observation.
                k_nearest_into_buf(
                    self.fingerprint_db,
                    query,
                    self.config.k,
                    self.metric,
                    &mut self.neighbors,
                );
            }
        }
        let fingerprint_set = CandidateSet::from_neighbors(&self.neighbors)
            .map_err(|_| MolocError::EmptyCandidates)?;
        Ok(self.advance(fingerprint_set, motion))
    }

    /// Processes a whole trace in one call: estimates are exactly those
    /// of calling [`Self::observe`] once per step.
    ///
    /// # Errors
    ///
    /// Returns the first per-step error ([`TrackError`]), exactly as
    /// the equivalent `observe` loop would; steps before it have
    /// already updated the tracker's retained candidate state.
    pub fn observe_trace(
        &mut self,
        queries: &[(Fingerprint, Option<MotionMeasurement>)],
    ) -> Result<Vec<LocationId>, TrackError> {
        let _span = moloc_obs::span("core.tracker.observe_trace");
        queries
            .iter()
            .map(|(query, motion)| self.observe(query, *motion))
            .collect()
    }

    /// Folds one step's fingerprint candidates into the retained state:
    /// Eq. 7 motion reweighting when both history and a measurement
    /// exist, then top-pick and retention.
    fn advance(
        &mut self,
        fingerprint_set: CandidateSet,
        motion: Option<MotionMeasurement>,
    ) -> LocationId {
        let posterior = match (self.previous.as_ref(), motion) {
            (Some(prev), Some(m)) => match &self.backend {
                MotionBackend::OwnedKernel(kernel) => evaluate_candidates_kernel(
                    kernel,
                    prev,
                    &fingerprint_set,
                    m.direction_deg,
                    m.offset_m,
                    &self.config,
                ),
                MotionBackend::SharedKernel(kernel) => evaluate_candidates_kernel(
                    kernel,
                    prev,
                    &fingerprint_set,
                    m.direction_deg,
                    m.offset_m,
                    &self.config,
                ),
                MotionBackend::Exact => evaluate_candidates(
                    self.motion_db,
                    prev,
                    &fingerprint_set,
                    m.direction_deg,
                    m.offset_m,
                    &self.config,
                ),
            },
            _ => fingerprint_set,
        };
        let estimate = posterior.top().location;
        self.previous = Some(posterior);
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_motion::matrix::PairStats;
    use moloc_stats::gaussian::Gaussian;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    /// Three locations in a row, 4 m apart going east; L1 and L3 are
    /// fingerprint twins, L2 is distinctive.
    fn world() -> (FingerprintDb, MotionDb) {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-50.0, -50.0])),
            (l(2), fp(&[-40.0, -70.0])),
            (l(3), fp(&[-50.0, -50.1])), // near-twin of L1
        ])
        .unwrap();
        let mut mdb = MotionDb::new(3);
        let east = |mu_o: f64| PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(mu_o, 0.3).unwrap(),
            sample_count: 10,
        };
        mdb.insert(l(1), l(2), east(4.0));
        mdb.insert(l(2), l(3), east(4.0));
        mdb.insert(l(1), l(3), east(8.0));
        (fdb, mdb)
    }

    #[test]
    fn first_observation_is_fingerprint_only() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        let est = t.observe(&fp(&[-41.0, -69.0]), None).unwrap();
        assert_eq!(est, l(2));
        assert!(t.candidates().is_some());
    }

    #[test]
    fn motion_resolves_twins() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        // Start confidently at L2.
        t.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        // Walk east 4 m → must be L3 even though L1's fingerprint is an
        // equally good match for the twin query.
        let est = t
            .observe(
                &fp(&[-50.0, -50.05]),
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            )
            .unwrap();
        assert_eq!(est, l(3));
    }

    #[test]
    fn west_walk_picks_the_other_twin() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        t.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        let est = t
            .observe(
                &fp(&[-50.0, -50.05]),
                Some(MotionMeasurement {
                    direction_deg: 270.0,
                    offset_m: 4.0,
                }),
            )
            .unwrap();
        assert_eq!(est, l(1));
    }

    #[test]
    fn missing_motion_degrades_to_fingerprinting() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        t.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        // No motion info: twins tie, lower id wins the fingerprint set.
        let est = t.observe(&fp(&[-50.0, -50.0]), None).unwrap();
        assert_eq!(est, l(1));
    }

    #[test]
    fn reset_clears_history() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        t.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        t.reset();
        assert!(t.candidates().is_none());
    }

    #[test]
    fn query_length_error() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        let err = t.observe(&fp(&[-40.0]), None).unwrap_err();
        assert_eq!(
            err,
            TrackError::QueryLength {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn bad_measurement_error() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        t.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        let err = t
            .observe(
                &fp(&[-40.0, -70.0]),
                Some(MotionMeasurement {
                    direction_deg: f64::NAN,
                    offset_m: 1.0,
                }),
            )
            .unwrap_err();
        assert_eq!(err, TrackError::BadMeasurement);
    }

    #[test]
    fn kernel_shared_and_exact_backends_agree() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let kernel = crate::matching::build_kernel(&mdb, &config);
        let queries: Vec<(Fingerprint, Option<MotionMeasurement>)> = vec![
            (fp(&[-40.0, -70.0]), None),
            (
                fp(&[-50.0, -50.05]),
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            ),
            (
                fp(&[-41.0, -69.5]),
                Some(MotionMeasurement {
                    direction_deg: 270.0,
                    offset_m: 4.0,
                }),
            ),
        ];
        let run = |mut t: MoLocTracker| -> Vec<LocationId> {
            queries
                .iter()
                .map(|(q, m)| t.observe(q, *m).unwrap())
                .collect()
        };
        let owned = run(MoLocTracker::new(&fdb, &mdb, config));
        let shared = run(MoLocTracker::new(&fdb, &mdb, config).with_shared_kernel(&kernel));
        let exact = run(MoLocTracker::new(&fdb, &mdb, config).with_exact_matching());
        assert_eq!(owned, exact);
        assert_eq!(shared, exact);
    }

    #[test]
    fn index_shared_and_exact_scans_agree() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let index = FingerprintIndex::build(&fdb);
        let queries: Vec<(Fingerprint, Option<MotionMeasurement>)> = vec![
            (fp(&[-40.0, -70.0]), None),
            (
                fp(&[-50.0, -50.05]),
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            ),
            (fp(&[-50.0, -50.0]), None),
        ];
        let run = |mut t: MoLocTracker| -> Vec<(LocationId, Vec<(LocationId, f64)>)> {
            queries
                .iter()
                .map(|(q, m)| {
                    let est = t.observe(q, *m).unwrap();
                    (est, t.candidates().unwrap().iter().collect())
                })
                .collect()
        };
        let owned = run(MoLocTracker::new(&fdb, &mdb, config));
        let shared = run(MoLocTracker::new(&fdb, &mdb, config).with_shared_index(&index));
        let exact = run(MoLocTracker::new(&fdb, &mdb, config).with_exact_scan());
        assert_eq!(owned, exact);
        assert_eq!(shared, exact);
    }

    #[test]
    fn observe_trace_matches_per_step_observe() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let queries: Vec<(Fingerprint, Option<MotionMeasurement>)> = vec![
            (fp(&[-40.0, -70.0]), None),
            (
                fp(&[-50.0, -50.05]),
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            ),
            (
                fp(&[-41.0, -69.5]),
                Some(MotionMeasurement {
                    direction_deg: 270.0,
                    offset_m: 4.0,
                }),
            ),
            (fp(&[-50.0, -50.0]), None),
        ];
        let mut stepwise = MoLocTracker::new(&fdb, &mdb, config);
        let expected: Vec<LocationId> = queries
            .iter()
            .map(|(q, m)| stepwise.observe(q, *m).unwrap())
            .collect();
        let mut batched = MoLocTracker::new(&fdb, &mdb, config);
        assert_eq!(batched.observe_trace(&queries).unwrap(), expected);
        let step_cands: Vec<(LocationId, f64)> = stepwise.candidates().unwrap().iter().collect();
        let batch_cands: Vec<(LocationId, f64)> = batched.candidates().unwrap().iter().collect();
        assert_eq!(step_cands, batch_cands);
        // The exact-scan backend must agree too.
        let mut exact = MoLocTracker::new(&fdb, &mdb, config).with_exact_scan();
        assert_eq!(exact.observe_trace(&queries).unwrap(), expected);
    }

    #[test]
    fn observe_trace_surfaces_mid_trace_errors_in_order() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        // A length-mismatched query at step 1 must surface exactly as
        // the stepwise loop's error would.
        let err = t
            .observe_trace(&[
                (fp(&[-40.0, -70.0]), None),
                (fp(&[-40.0]), None),
                (fp(&[-50.0, -50.0]), None),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            TrackError::QueryLength {
                expected: 2,
                found: 1
            }
        );
        // Step 0 was processed before the error hit.
        assert!(t.candidates().is_some());
    }

    #[test]
    fn candidate_set_is_retained_with_posterior_probabilities() {
        let (fdb, mdb) = world();
        let mut t = MoLocTracker::new(&fdb, &mdb, MoLocConfig::default());
        t.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        t.observe(
            &fp(&[-50.0, -50.05]),
            Some(MotionMeasurement {
                direction_deg: 90.0,
                offset_m: 4.0,
            }),
        )
        .unwrap();
        let cands = t.candidates().unwrap();
        assert!((cands.total_probability() - 1.0).abs() < 1e-9);
        assert!(cands.probability_of(l(3)) > 0.9);
    }
}
