//! The [`FaultPlan`] trait and plan composition.
//!
//! A fault plan is a bundle of deterministic corruptions applied to the
//! pipeline's inputs: per-pass WiFi scans, the accelerometer and compass
//! streams, the surveyed fingerprint database, and the crowdsourced
//! motion database. Injectors implement only the hooks they care about;
//! the defaults are no-ops. All randomness is keyed on
//! `(seed, coordinates)` via [`crate::rng`], so applying a plan is a
//! pure function of the seed and the event's identity — byte-for-byte
//! reproducible regardless of trace order or parallelism.

use moloc_fingerprint::db::FingerprintDb;
use moloc_mobility::render::SensorTrace;
use moloc_motion::matrix::MotionDb;
use moloc_sensors::series::TimeSeries;

/// A composable, seeded fault injector.
///
/// Every hook must be deterministic in its arguments (plus the
/// injector's own seed); implementations draw randomness from
/// [`crate::rng::hash`] keyed on event coordinates, never from ambient
/// state. At zero intensity every hook must be an exact no-op so a
/// zero-fault plan leaves the pipeline bit-identical.
pub trait FaultPlan: std::fmt::Debug + Send + Sync {
    /// Short machine-readable name (for reports and logs).
    fn name(&self) -> &'static str;

    /// Corrupts one WiFi scan of pass `pass` in trace `trace`. Missing
    /// APs are written as NaN — the degradation layer's masked metric
    /// treats non-finite entries as unobserved.
    fn apply_scan(&self, _trace: u64, _pass: u64, _scan: &mut [f64]) {}

    /// Corrupts the accelerometer magnitude stream of `trace`.
    fn apply_accel(&self, _trace: u64, _accel: &mut TimeSeries) {}

    /// Corrupts the compass stream of `trace`.
    fn apply_compass(&self, _trace: u64, _compass: &mut TimeSeries) {}

    /// Corrupts the surveyed fingerprint database (stale-survey drift).
    fn apply_fingerprint_db(&self, db: FingerprintDb) -> FingerprintDb {
        db
    }

    /// Corrupts the motion database (missing/corrupted RLM cells).
    fn apply_motion_db(&self, _db: &mut MotionDb) {}
}

/// Applies a plan to every scan and sensor stream of one trace, keyed
/// by the trace's corpus index.
pub fn apply_to_trace(plan: &dyn FaultPlan, trace_index: u64, trace: &mut SensorTrace) {
    for (pass, scan) in trace.scans.iter_mut().enumerate() {
        plan.apply_scan(trace_index, pass as u64, scan);
    }
    plan.apply_accel(trace_index, trace.accel_mut());
    plan.apply_compass(trace_index, trace.compass_mut());
}

/// An ordered composition of fault plans: each hook delegates to every
/// member in insertion order, so independently seeded faults stack
/// (e.g. AP dropout on top of stale-survey drift).
#[derive(Debug, Default)]
pub struct FaultSuite {
    plans: Vec<Box<dyn FaultPlan>>,
}

impl FaultSuite {
    /// An empty suite (every hook a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a plan to the end of the composition.
    pub fn with(mut self, plan: impl FaultPlan + 'static) -> Self {
        self.plans.push(Box::new(plan));
        self
    }

    /// Number of composed plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the suite holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

impl FaultPlan for FaultSuite {
    fn name(&self) -> &'static str {
        "suite"
    }

    fn apply_scan(&self, trace: u64, pass: u64, scan: &mut [f64]) {
        for plan in &self.plans {
            plan.apply_scan(trace, pass, scan);
        }
    }

    fn apply_accel(&self, trace: u64, accel: &mut TimeSeries) {
        for plan in &self.plans {
            plan.apply_accel(trace, accel);
        }
    }

    fn apply_compass(&self, trace: u64, compass: &mut TimeSeries) {
        for plan in &self.plans {
            plan.apply_compass(trace, compass);
        }
    }

    fn apply_fingerprint_db(&self, db: FingerprintDb) -> FingerprintDb {
        self.plans
            .iter()
            .fold(db, |db, plan| plan.apply_fingerprint_db(db))
    }

    fn apply_motion_db(&self, db: &mut MotionDb) {
        for plan in &self.plans {
            plan.apply_motion_db(db);
        }
    }
}
