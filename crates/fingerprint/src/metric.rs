//! The fingerprint dissimilarity of the paper's Eq. 1:
//! `φ²(F, F′) = Σ (fᵢ − f′ᵢ)²`, over raw RSS slices.

/// The squared Euclidean dissimilarity `Σ (aᵢ − bᵢ)²` over raw slices.
///
/// The scalar kernel of the columnar index's scan (`crate::index`):
/// the sum runs in slice order and the square root is deferred, so the
/// rooted value is bit-identical to `moloc_verify::oracle::euclidean`.
#[inline]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>()
}

/// The squared Euclidean dissimilarity over the *observed* dimensions
/// only: APs where either side is non-finite (NaN marks a missing or
/// dropped reading) are excluded from the sum instead of poisoning it.
///
/// Returns `(partial sum, observed dimension count)`. Callers that
/// need comparability across queries with different missing sets scale
/// the sum by `len / observed` (see
/// [`crate::index::FingerprintIndex::k_nearest_masked_into`]); with no
/// missing values the sum equals [`euclidean_sq`] except for summation
/// order, so the clean hot path keeps its own bit-exact kernel and
/// only branches here when a query actually contains non-finite RSS.
#[inline]
pub fn masked_euclidean_sq(a: &[f64], b: &[f64]) -> (f64, usize) {
    let mut sum = 0.0;
    let mut observed = 0usize;
    for (x, y) in a.iter().zip(b) {
        if x.is_finite() && y.is_finite() {
            sum += (x - y).powi(2);
            observed += 1;
        }
    }
    (sum, observed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_eq1() {
        // sqrt(16 + 9 + 0) = 5
        let sq = euclidean_sq(&[-40.0, -60.0, -70.0], &[-44.0, -57.0, -70.0]);
        assert_eq!(sq.sqrt(), 5.0);
        let (a, b) = ([-40.0, -60.0, -55.0], [-50.0, -45.0, -80.0]);
        assert_eq!(
            euclidean_sq(&a, &b).sqrt().to_bits(),
            moloc_verify::oracle::euclidean(&a, &b).to_bits()
        );
    }

    #[test]
    fn masked_sum_skips_missing_dimensions() {
        let (sum, observed) =
            masked_euclidean_sq(&[-40.0, f64::NAN, -70.0], &[-44.0, -50.0, -70.0]);
        assert_eq!((sum, observed), (16.0, 2));
        let clean = [-40.0, -60.0];
        assert_eq!(masked_euclidean_sq(&clean, &clean), (0.0, 2));
        assert_eq!(masked_euclidean_sq(&[f64::INFINITY], &[-40.0]), (0.0, 0));
    }
}
