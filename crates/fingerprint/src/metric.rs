//! Fingerprint dissimilarity metrics.
//!
//! The paper measures dissimilarity with the Euclidean distance of
//! Eq. 1; Manhattan and cosine variants are provided for sensitivity
//! studies (the MoLoc algorithm is metric-agnostic).

use crate::fingerprint::Fingerprint;

/// A dissimilarity between two fingerprints: non-negative, zero for
/// identical inputs.
pub trait Dissimilarity: std::fmt::Debug + Send + Sync {
    /// The dissimilarity `φ(F, F′)`.
    ///
    /// # Panics
    ///
    /// Implementations panic when the fingerprints have different
    /// lengths.
    fn dissimilarity(&self, a: &Fingerprint, b: &Fingerprint) -> f64;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

fn check_lengths(a: &Fingerprint, b: &Fingerprint) {
    assert_eq!(
        a.len(),
        b.len(),
        "cannot compare fingerprints of different lengths"
    );
}

/// The squared Euclidean dissimilarity `Σ (aᵢ − bᵢ)²` over raw slices.
///
/// This is the shared scalar kernel behind both [`Euclidean`] and the
/// columnar index's scan (`crate::index`): computing the
/// sum in slice order and deferring the square root keeps the two paths
/// bit-identical (`sqrt` is applied to the same accumulated value).
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

/// The Manhattan dissimilarity `Σ |aᵢ − bᵢ|` over raw slices.
#[inline]
fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// The cosine dissimilarity `1 − cos(a, b)` over raw (negated-dBm)
/// slices. Two zero vectors are identical → 0; a zero vector against a
/// non-zero one is maximally dissimilar → 1.
#[inline]
fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        let (x, y) = (-x, -y);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 && nb == 0.0 {
        return 0.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0)
}

/// Euclidean dissimilarity — the paper's Eq. 1:
/// `φ²(F, F′) = Σ (fᵢ − f′ᵢ)²`.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::fingerprint::Fingerprint;
/// use moloc_fingerprint::metric::{Dissimilarity, Euclidean};
///
/// let a = Fingerprint::new(vec![-40.0, -60.0]);
/// let b = Fingerprint::new(vec![-43.0, -56.0]);
/// assert_eq!(Euclidean.dissimilarity(&a, &b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Euclidean;

impl Dissimilarity for Euclidean {
    fn dissimilarity(&self, a: &Fingerprint, b: &Fingerprint) -> f64 {
        check_lengths(a, b);
        euclidean_sq(a.values(), b.values()).sqrt()
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }
}

/// Manhattan (L1) dissimilarity: `Σ |fᵢ − f′ᵢ|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Manhattan;

impl Dissimilarity for Manhattan {
    fn dissimilarity(&self, a: &Fingerprint, b: &Fingerprint) -> f64 {
        check_lengths(a, b);
        manhattan(a.values(), b.values())
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }
}

/// Cosine dissimilarity: `1 − cos(F, F′)` on the (negated-dBm) vectors.
///
/// RSS values are negative dBm; the metric negates them first so that
/// "stronger everywhere" vectors point in a consistent direction.
/// Two all-zero vectors are identical and score 0; a zero vector
/// against a non-zero one scores 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cosine;

impl Dissimilarity for Cosine {
    fn dissimilarity(&self, a: &Fingerprint, b: &Fingerprint) -> f64 {
        check_lengths(a, b);
        cosine(a.values(), b.values())
    }

    fn name(&self) -> &'static str {
        "cosine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    #[test]
    fn euclidean_matches_eq1() {
        let a = fp(&[-40.0, -60.0, -70.0]);
        let b = fp(&[-44.0, -57.0, -70.0]);
        // sqrt(16 + 9 + 0) = 5
        assert_eq!(Euclidean.dissimilarity(&a, &b), 5.0);
    }

    #[test]
    fn identity_of_indiscernibles() {
        let a = fp(&[-40.0, -60.0]);
        for metric in [&Euclidean as &dyn Dissimilarity, &Manhattan, &Cosine] {
            assert!(metric.dissimilarity(&a, &a) < 1e-12, "{}", metric.name());
        }
    }

    #[test]
    fn symmetry() {
        let a = fp(&[-40.0, -60.0, -55.0]);
        let b = fp(&[-50.0, -45.0, -80.0]);
        for metric in [&Euclidean as &dyn Dissimilarity, &Manhattan, &Cosine] {
            let ab = metric.dissimilarity(&a, &b);
            let ba = metric.dissimilarity(&b, &a);
            assert!((ab - ba).abs() < 1e-12, "{}", metric.name());
            assert!(ab >= 0.0);
        }
    }

    #[test]
    fn manhattan_value() {
        let a = fp(&[-40.0, -60.0]);
        let b = fp(&[-42.0, -55.0]);
        assert_eq!(Manhattan.dissimilarity(&a, &b), 7.0);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_zero() {
        let a = fp(&[-20.0, -40.0]);
        let b = fp(&[-40.0, -80.0]);
        assert!(Cosine.dissimilarity(&a, &b) < 1e-12);
    }

    #[test]
    fn cosine_of_zero_vector_is_one() {
        let a = fp(&[0.0, 0.0]);
        let b = fp(&[-40.0, -80.0]);
        assert_eq!(Cosine.dissimilarity(&a, &b), 1.0);
    }

    #[test]
    fn cosine_of_two_zero_vectors_is_zero() {
        // Identical inputs must score zero even when both are all-zero;
        // the old implementation returned 1.0 here, breaking the
        // trait's identity-of-indiscernibles contract.
        let a = fp(&[0.0, 0.0, 0.0]);
        assert_eq!(Cosine.dissimilarity(&a, &a), 0.0);
        assert_eq!(Cosine.dissimilarity(&a, &fp(&[0.0, 0.0, 0.0])), 0.0);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn mismatched_lengths_panic() {
        let _ = Euclidean.dissimilarity(&fp(&[-40.0]), &fp(&[-40.0, -50.0]));
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(Euclidean.name(), Manhattan.name());
        assert_ne!(Manhattan.name(), Cosine.name());
    }
}
