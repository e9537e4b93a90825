//! Property-based tests for the fingerprinting engine.

use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::metric::euclidean_sq;
use moloc_geometry::LocationId;
use moloc_verify::oracle;
use proptest::prelude::*;

fn rss() -> impl Strategy<Value = f64> {
    -95.0..-20.0f64
}

fn fingerprint(n: usize) -> impl Strategy<Value = Fingerprint> {
    prop::collection::vec(rss(), n).prop_map(Fingerprint::new)
}

/// RSS on a coarse discrete grid, so distinct locations frequently
/// collide at the exact same dissimilarity and tie-breaking is
/// exercised for real.
fn coarse_rss() -> impl Strategy<Value = f64> {
    (-9..=-3i32).prop_map(|v| (v * 10) as f64)
}

fn coarse_fingerprint(n: usize) -> impl Strategy<Value = Fingerprint> {
    prop::collection::vec(coarse_rss(), n).prop_map(Fingerprint::new)
}

fn euclidean(a: &Fingerprint, b: &Fingerprint) -> f64 {
    euclidean_sq(a.values(), b.values()).sqrt()
}

fn db_of(fps: &[Fingerprint]) -> FingerprintDb {
    let entries: Vec<(LocationId, Fingerprint)> = fps
        .iter()
        .enumerate()
        .map(|(i, f)| (LocationId::from_index(i), f.clone()))
        .collect();
    FingerprintDb::from_fingerprints(entries).unwrap()
}

/// The exhaustive sorted scan, as `(location, dissimilarity bits)`.
fn oracle_pairs(db: &FingerprintDb, query: &Fingerprint, k: usize) -> Vec<(LocationId, u64)> {
    oracle::k_nearest(db.iter().map(|(id, f)| (id, f.values())), query.values(), k)
        .into_iter()
        .map(|(id, m)| (id, m.to_bits()))
        .collect()
}

fn index_pairs(db: &FingerprintDb, query: &Fingerprint, k: usize) -> Vec<(LocationId, u64)> {
    let index = FingerprintIndex::build(db);
    let mut scratch = KnnScratch::with_k(k);
    let mut fast = Vec::new();
    index.k_nearest_into(query.values(), k, &mut scratch, &mut fast);
    fast.iter()
        .map(|n| (n.location, n.dissimilarity.to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn euclidean_is_symmetric_nonnegative_reflexive(
        a in fingerprint(4), b in fingerprint(4),
    ) {
        let ab = euclidean(&a, &b);
        prop_assert!(ab >= 0.0);
        prop_assert_eq!(ab.to_bits(), euclidean(&b, &a).to_bits());
        prop_assert_eq!(euclidean(&a, &a), 0.0);
    }

    #[test]
    fn euclidean_triangle_inequality(
        a in fingerprint(5), b in fingerprint(5), c in fingerprint(5),
    ) {
        let (ab, bc, ac) = (euclidean(&a, &b), euclidean(&b, &c), euclidean(&a, &c));
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn knn_results_are_sorted_and_contain_the_nearest(
        fps in prop::collection::vec(fingerprint(3), 2..15),
        query in fingerprint(3),
        k in 1usize..10,
    ) {
        let db = db_of(&fps);
        let nn = FingerprintIndex::build(&db).k_nearest(&query, k);
        prop_assert_eq!(nn.len(), k.min(db.len()));
        for w in nn.windows(2) {
            prop_assert!(w[0].dissimilarity <= w[1].dissimilarity + 1e-12);
        }
        // The top result really is the global minimum.
        let best = fps
            .iter()
            .map(|f| euclidean(&query, f))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((nn[0].dissimilarity - best).abs() < 1e-12);
    }

    #[test]
    fn knn_excluded_entries_are_never_nearer(
        fps in prop::collection::vec(fingerprint(3), 3..15),
        query in fingerprint(3),
    ) {
        let db = db_of(&fps);
        let nn = FingerprintIndex::build(&db).k_nearest(&query, 2);
        let worst_kept = nn.last().unwrap().dissimilarity;
        for (i, f) in fps.iter().enumerate() {
            let id = LocationId::from_index(i);
            if !nn.iter().any(|n| n.location == id) {
                prop_assert!(
                    euclidean(&query, f) + 1e-12 >= worst_kept,
                    "excluded entry nearer than kept one"
                );
            }
        }
    }

    #[test]
    fn index_knn_is_bit_identical_to_the_oracle(
        fps in prop::collection::vec(fingerprint(3), 2..25),
        query in fingerprint(3),
        k in 1usize..12,
    ) {
        // The columnar squared-distance scan must reproduce the
        // exhaustive sort-then-truncate reference exactly: same
        // locations, same order, bitwise-equal dissimilarities.
        let db = db_of(&fps);
        prop_assert_eq!(index_pairs(&db, &query, k), oracle_pairs(&db, &query, k));
    }

    #[test]
    fn index_knn_tie_order_matches_on_coarse_grids(
        fps in prop::collection::vec(coarse_fingerprint(2), 2..40),
        query in coarse_fingerprint(2),
        k in 1usize..12,
    ) {
        // Coarse RSS grids make exact dissimilarity ties common, so
        // this run hammers the (rank, location-id) tie-break of the
        // squared-distance ranking against the oracle's sqrt ranking.
        let db = db_of(&fps);
        let expected = oracle_pairs(&db, &query, k);
        prop_assert_eq!(index_pairs(&db, &query, k), expected.clone());
        // And the single-nearest scan agrees with k = 1.
        prop_assert_eq!(FingerprintIndex::build(&db).nearest(query.values()), expected[0].0);
    }

    #[test]
    fn db_ap_subsets_preserve_locations(
        fps in prop::collection::vec(fingerprint(4), 2..10),
        n in 1usize..4,
    ) {
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let sub = db.with_first_aps(n);
        prop_assert_eq!(sub.len(), db.len());
        prop_assert_eq!(sub.ap_count(), n);
        for (id, fp) in sub.iter() {
            prop_assert_eq!(fp.values(), &db.fingerprint(id).unwrap().values()[..n]);
        }
    }
}
