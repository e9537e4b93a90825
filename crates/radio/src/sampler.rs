//! The combined radio environment and RSS sampling.
//!
//! [`RadioEnvironment`] puts the channel together:
//!
//! ```text
//! RSS(ap, pos, t) = tx_power(ap)
//!                 − path_loss(|ap − pos|)
//!                 − wall_attenuation(ap, pos)
//!                 + shadow(ap, pos)          (static)
//!                 + ε_t                      (temporal, N(0, σ_T²))
//! ```
//!
//! clamped at the receiver noise floor. The static terms define the mean
//! fingerprint a site survey captures; the temporal term is what makes a
//! single localization-time scan deviate from it — the raw material of
//! fingerprint ambiguity.

use crate::ap::{AccessPoint, ApId};
use crate::dbm::Dbm;
use crate::pathloss::{LogDistance, PathLossModel};
use crate::shadowing::ShadowingField;
use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2};
use moloc_stats::sampling::normal;
use rand::Rng;
use std::sync::Arc;

/// One scan: the RSS from every AP, indexed by AP order in the
/// environment.
pub type RssScan = Vec<Dbm>;

/// Error from [`RadioEnvironmentBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// No access point was configured.
    NoAccessPoints,
    /// Two access points share an id.
    DuplicateApId(ApId),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoAccessPoints => write!(f, "environment needs at least one access point"),
            BuildError::DuplicateApId(id) => write!(f, "duplicate access point id {id}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A complete simulated radio environment.
///
/// Cheap to clone (the path-loss model is shared behind an [`Arc`]).
#[derive(Debug, Clone)]
pub struct RadioEnvironment {
    plan: FloorPlan,
    aps: Vec<AccessPoint>,
    path_loss: Arc<dyn PathLossModel>,
    shadowing: ShadowingField,
    temporal_sigma_db: f64,
    noise_floor: Dbm,
}

impl RadioEnvironment {
    /// Starts building an environment over a floor plan.
    pub fn builder(plan: FloorPlan) -> RadioEnvironmentBuilder {
        RadioEnvironmentBuilder {
            plan,
            aps: Vec::new(),
            path_loss: Arc::new(LogDistance::indoor_office()),
            shadowing: ShadowingField::disabled(),
            temporal_sigma_db: 3.0,
            noise_floor: Dbm::new(-100.0),
            seed: 0,
        }
    }

    /// The access points, in fingerprint-vector order.
    pub fn aps(&self) -> &[AccessPoint] {
        &self.aps
    }

    /// The floor plan.
    pub fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    /// The temporal noise standard deviation in dB.
    pub fn temporal_sigma_db(&self) -> f64 {
        self.temporal_sigma_db
    }

    /// The receiver noise floor.
    pub fn noise_floor(&self) -> Dbm {
        self.noise_floor
    }

    /// The *mean* (time-averaged) RSS from one AP at a position: all
    /// static channel terms, no temporal noise, floor-clamped.
    pub fn mean_rss(&self, ap: &AccessPoint, pos: Vec2) -> Dbm {
        let dist = ap.position().dist(pos);
        let pl = self.path_loss.path_loss_db(dist);
        let walls = self.plan.attenuation_db(ap.position(), pos);
        let shadow = self.shadowing.shadow_db(ap.id(), pos);
        (ap.tx_power() - pl - walls + shadow).clamp_floor(self.noise_floor)
    }

    /// The mean scan (all APs) at a position.
    pub fn mean_scan(&self, pos: Vec2) -> RssScan {
        self.aps.iter().map(|ap| self.mean_rss(ap, pos)).collect()
    }

    /// The mean scan at every reference location of `grid`, indexed by
    /// [`LocationId::index`](moloc_geometry::LocationId::index): the
    /// static channel computed once, for callers that scan the same
    /// grid points many times (see [`Self::scan_about`]).
    pub fn mean_scans(&self, grid: &ReferenceGrid) -> Vec<RssScan> {
        grid.ids()
            .map(|id| self.mean_scan(grid.position(id)))
            .collect()
    }

    /// One noisy scan at a position and instant: mean RSS plus
    /// independent temporal noise per AP, floor-clamped.
    pub fn scan<R: Rng + ?Sized>(&self, pos: Vec2, rng: &mut R) -> RssScan {
        self.scan_about(&self.mean_scan(pos), rng)
    }

    /// One noisy scan about a precomputed [`Self::mean_scan`]: the
    /// temporal noise and floor clamp of [`Self::scan`], drawn from
    /// `rng` in the same order, without recomputing the static channel.
    ///
    /// # Panics
    ///
    /// Panics if `mean` does not have one entry per AP.
    pub fn scan_about<R: Rng + ?Sized>(&self, mean: &[Dbm], rng: &mut R) -> RssScan {
        self.scan_about_iter(mean, rng).collect()
    }

    /// [`Self::scan_about`] as an iterator, one reading per AP, for
    /// callers that store the scan in a buffer of their own: each
    /// reading's noise is drawn from `rng` as the iterator reaches it.
    ///
    /// # Panics
    ///
    /// Panics (on the call, not on iteration) if `mean` does not have
    /// one entry per AP.
    pub fn scan_about_iter<'a, R: Rng + ?Sized>(
        &'a self,
        mean: &'a [Dbm],
        rng: &'a mut R,
    ) -> impl Iterator<Item = Dbm> + 'a {
        assert_eq!(mean.len(), self.aps.len(), "mean scan length != AP count");
        mean.iter().map(move |&m| {
            (m + normal(rng, 0.0, self.temporal_sigma_db)).clamp_floor(self.noise_floor)
        })
    }

    /// An environment restricted to the first `n` APs — the paper's
    /// 4-AP and 5-AP settings are subsets of the 6-AP deployment.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the AP count.
    pub fn with_first_aps(&self, n: usize) -> RadioEnvironment {
        assert!(n > 0 && n <= self.aps.len(), "invalid AP subset size");
        let mut env = self.clone();
        env.aps.truncate(n);
        env
    }
}

/// Builder for [`RadioEnvironment`].
#[derive(Debug)]
pub struct RadioEnvironmentBuilder {
    plan: FloorPlan,
    aps: Vec<AccessPoint>,
    path_loss: Arc<dyn PathLossModel>,
    shadowing: ShadowingField,
    temporal_sigma_db: f64,
    noise_floor: Dbm,
    seed: u64,
}

impl RadioEnvironmentBuilder {
    /// Adds an access point.
    pub fn ap(mut self, ap: AccessPoint) -> Self {
        self.aps.push(ap);
        self
    }

    /// Sets the path-loss model (default: log-distance, γ = 3).
    pub fn path_loss<M: PathLossModel + 'static>(mut self, model: M) -> Self {
        self.path_loss = Arc::new(model);
        self
    }

    /// Enables static shadow fading with the given sigma (dB) and
    /// correlation length (m); the field is keyed off the builder seed.
    pub fn shadowing_sigma_db(mut self, sigma_db: f64, correlation_m: f64) -> Self {
        self.shadowing = ShadowingField::new(self.seed, sigma_db, correlation_m);
        self
    }

    /// Sets the per-sample temporal noise sigma in dB (default 3.0).
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn temporal_sigma_db(mut self, sigma_db: f64) -> Self {
        assert!(sigma_db >= 0.0, "temporal sigma must be non-negative");
        self.temporal_sigma_db = sigma_db;
        self
    }

    /// Sets the receiver noise floor (default −100 dBm).
    pub fn noise_floor(mut self, floor: Dbm) -> Self {
        self.noise_floor = floor;
        self
    }

    /// Sets the seed for the static shadowing field. Call **before**
    /// [`Self::shadowing_sigma_db`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the environment.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when no AP is configured or ids collide.
    pub fn build(self) -> Result<RadioEnvironment, BuildError> {
        if self.aps.is_empty() {
            return Err(BuildError::NoAccessPoints);
        }
        for (i, ap) in self.aps.iter().enumerate() {
            if self.aps[..i].iter().any(|other| other.id() == ap.id()) {
                return Err(BuildError::DuplicateApId(ap.id()));
            }
        }
        Ok(RadioEnvironment {
            plan: self.plan,
            aps: self.aps,
            path_loss: self.path_loss,
            shadowing: self.shadowing,
            temporal_sigma_db: self.temporal_sigma_db,
            noise_floor: self.noise_floor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::floorplan::Wall;
    use moloc_geometry::polygon::Aabb;
    use moloc_stats::online::Welford;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn open_plan() -> FloorPlan {
        FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(40.0, 16.0)).unwrap())
    }

    fn simple_env() -> RadioEnvironment {
        RadioEnvironment::builder(open_plan())
            .ap(AccessPoint::new(0, Vec2::new(10.0, 8.0), -20.0))
            .ap(AccessPoint::new(1, Vec2::new(30.0, 8.0), -20.0))
            .temporal_sigma_db(2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn build_requires_aps() {
        assert_eq!(
            RadioEnvironment::builder(open_plan()).build().unwrap_err(),
            BuildError::NoAccessPoints
        );
    }

    #[test]
    fn build_rejects_duplicate_ids() {
        let err = RadioEnvironment::builder(open_plan())
            .ap(AccessPoint::new(0, Vec2::new(1.0, 1.0), -20.0))
            .ap(AccessPoint::new(0, Vec2::new(2.0, 2.0), -20.0))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DuplicateApId(ApId(0)));
    }

    #[test]
    fn mean_rss_decays_with_distance() {
        let env = simple_env();
        let ap = &env.aps()[0];
        let near = env.mean_rss(ap, Vec2::new(11.0, 8.0));
        let far = env.mean_rss(ap, Vec2::new(25.0, 8.0));
        assert!(near > far);
        // At 1 m the log-distance loss is 0, so RSS equals tx power.
        assert!((near.value() - (-20.0)).abs() < 1e-9);
    }

    #[test]
    fn symmetric_positions_have_twin_mean_fingerprints() {
        // Both APs sit on the line y = 8; mirror positions across it see
        // identical mean scans — the geometry of Fig. 1(a).
        let env = simple_env();
        let q = env.mean_scan(Vec2::new(20.0, 4.0));
        let q_twin = env.mean_scan(Vec2::new(20.0, 12.0));
        for (a, b) in q.iter().zip(&q_twin) {
            assert!((a.value() - b.value()).abs() < 1e-9);
        }
    }

    #[test]
    fn walls_attenuate_mean_rss() {
        let mut plan = open_plan();
        plan.add_wall(Wall::partition(
            Vec2::new(15.0, 0.0),
            Vec2::new(15.0, 16.0),
            7.0,
        ));
        let env = RadioEnvironment::builder(plan)
            .ap(AccessPoint::new(0, Vec2::new(10.0, 8.0), -20.0))
            .build()
            .unwrap();
        let ap = &env.aps()[0];
        let blocked = env.mean_rss(ap, Vec2::new(20.0, 8.0));
        // Same distance on the unblocked side.
        let clear = env.mean_rss(ap, Vec2::new(0.0, 8.0));
        assert!((clear - blocked - 7.0).abs() < 1e-9);
    }

    #[test]
    fn scan_noise_statistics() {
        let env = simple_env();
        let pos = Vec2::new(12.0, 9.0);
        let mean = env.mean_rss(&env.aps()[0], pos);
        let mut rng = StdRng::seed_from_u64(5);
        let mut acc = Welford::new();
        for _ in 0..20_000 {
            acc.push(env.scan(pos, &mut rng)[0].value());
        }
        assert!((acc.mean() - mean.value()).abs() < 0.1);
        assert!((acc.std() - 2.0).abs() < 0.1);
    }

    #[test]
    fn scan_respects_noise_floor() {
        let env = RadioEnvironment::builder(open_plan())
            .ap(AccessPoint::new(0, Vec2::new(0.0, 0.0), -95.0))
            .temporal_sigma_db(10.0)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let scan = env.scan(Vec2::new(39.0, 15.0), &mut rng);
            assert!(scan[0] >= env.noise_floor());
        }
    }

    #[test]
    fn ap_subset_restricts_scan_length() {
        let env = simple_env();
        let sub = env.with_first_aps(1);
        assert_eq!(sub.aps().len(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sub.scan(Vec2::new(5.0, 5.0), &mut rng).len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid AP subset")]
    fn ap_subset_zero_panics() {
        let _ = simple_env().with_first_aps(0);
    }

    #[test]
    fn deterministic_given_seeded_rng() {
        let env = simple_env();
        let scan_with = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            env.scan(Vec2::new(7.0, 3.0), &mut rng)
        };
        assert_eq!(scan_with(9), scan_with(9));
    }
}
