//! The k-nearest-neighbor match type.
//!
//! The candidate-selection rule of the paper's Eq. 3 — the k locations
//! whose stored fingerprints are nearest to the query — is served by
//! [`crate::index::FingerprintIndex::k_nearest_into`]; a match is one
//! [`Neighbor`].

use moloc_geometry::LocationId;

/// One k-NN match: a location and its dissimilarity `mᵢ = φ(F, Fᵢ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The candidate location.
    pub location: LocationId,
    /// Its fingerprint dissimilarity to the query.
    pub dissimilarity: f64,
}
