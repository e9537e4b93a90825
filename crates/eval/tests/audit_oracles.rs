//! Oracle-vs-optimised regression seeds (ISSUE 10, satellite 3).
//!
//! `moloc-audit` sweeps broad seeded input distributions; these tests
//! pin the *adversarial corners* of each equivalence contract at fixed
//! inputs so a regression fails here first, with a readable diff,
//! before the audit gate reports a seed number:
//!
//! * exact dissimilarity ties (duplicate fingerprints) on the k-NN
//!   scan — the ascending-id tie contract;
//! * masked queries, including the all-NaN blind scan;
//! * Eq. 4's exact-match branch with *multiple* zero-dissimilarity
//!   candidates splitting the mass, through `BatchLocalizer`;
//! * `BatchLocalizer`'s Eq. 7 step against the oracle closure when the
//!   motion database is empty (every pair at the floor prior);
//! * checkpoint frame byte-identity with the independent oracle
//!   framer.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::DegradationFlags;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::Neighbor;
use moloc_geometry::LocationId;
use moloc_motion::matrix::MotionDb;
use moloc_verify::oracle;

const N_APS: usize = 6;

fn l(id: u32) -> LocationId {
    LocationId::new(id)
}

/// Six locations; rows 2, 4 and 5 are byte-identical duplicates, so a
/// query near them produces exact dissimilarity ties that only the
/// ascending-id contract can order.
fn tied_db() -> FingerprintDb {
    let twin = vec![-50.0, -61.0, -47.5, -72.0, -55.0, -66.0];
    FingerprintDb::from_fingerprints(vec![
        (
            l(1),
            Fingerprint::new(vec![-40.0, -55.0, -62.0, -70.0, -48.0, -58.0]),
        ),
        (l(2), Fingerprint::new(twin.clone())),
        (
            l(3),
            Fingerprint::new(vec![-80.0, -75.0, -68.0, -59.0, -63.0, -71.0]),
        ),
        (l(4), Fingerprint::new(twin.clone())),
        (l(5), Fingerprint::new(twin)),
        (
            l(6),
            Fingerprint::new(vec![-45.0, -52.0, -66.0, -77.0, -51.0, -60.0]),
        ),
    ])
    .expect("valid db")
}

fn rows(db: &FingerprintDb) -> Vec<(LocationId, Vec<f64>)> {
    db.iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect()
}

fn pairs(neighbors: &[Neighbor]) -> Vec<(LocationId, f64)> {
    neighbors
        .iter()
        .map(|n| (n.location, n.dissimilarity))
        .collect()
}

#[test]
fn tied_rows_resolve_by_ascending_id_on_the_knn_scan() {
    let db = tied_db();
    let rows = rows(&db);
    let index = FingerprintIndex::build(&db);
    // Equidistant-ish query sitting on the twin fingerprint: locations
    // 2, 4, 5 tie at dissimilarity 0 and must come back in id order.
    let query = vec![-50.0, -61.0, -47.5, -72.0, -55.0, -66.0];
    let k = 4;
    let expected = oracle::k_nearest(rows.iter().map(|(id, r)| (*id, r.as_slice())), &query, k);
    assert_eq!(
        expected.iter().map(|&(id, _)| id).collect::<Vec<_>>()[..3],
        [l(2), l(4), l(5)],
        "oracle fixture must actually tie"
    );

    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    index.k_nearest_into(&query, k, &mut scratch, &mut out);
    assert_eq!(pairs(&out), expected, "scalar path broke the tie contract");
}

#[test]
fn masked_and_blind_queries_match_the_oracle() {
    let db = tied_db();
    let rows = rows(&db);
    let index = FingerprintIndex::build(&db);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();

    // Two unheard APs: surviving dims rescaled by 6/4.
    let masked = vec![-44.0, f64::NAN, -60.0, f64::NAN, -50.0, -59.0];
    let observed = index.k_nearest_masked_into(&masked, 3, &mut scratch, &mut out);
    let (expected, expected_observed) =
        oracle::k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &masked, 3);
    assert_eq!(observed, expected_observed);
    assert_eq!(observed, 4);
    assert_eq!(pairs(&out), expected);

    // Blind scan: nothing observed, every dissimilarity exactly 0,
    // ranks fall back to pure id order.
    let blind = vec![f64::NAN; N_APS];
    let observed = index.k_nearest_masked_into(&blind, 3, &mut scratch, &mut out);
    let (expected, _) =
        oracle::k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &blind, 3);
    assert_eq!(observed, 0);
    assert_eq!(pairs(&out), expected);
    assert_eq!(
        pairs(&out),
        vec![(l(1), 0.0), (l(2), 0.0), (l(3), 0.0)],
        "blind scan must degrade to id order at zero dissimilarity"
    );
}

#[test]
fn eq4_exact_match_branch_splits_mass_across_all_twins() {
    let db = tied_db();
    let rows = rows(&db);
    let config = MoLocConfig {
        k: 4,
        ..MoLocConfig::paper()
    };
    let mut engine = BatchLocalizer::new(&db, &MotionDb::new(8), config);
    // Query *is* the twin fingerprint: three exact matches in the top-4.
    let query = vec![-50.0, -61.0, -47.5, -72.0, -55.0, -66.0];
    engine
        .observe_slice(&query, None)
        .expect("query matches db");
    let expected = oracle::posterior_step(
        rows.iter().map(|(id, r)| (*id, r.as_slice())),
        &query,
        config.k,
        &[],
        |_, _| 0.0,
        config.degenerate_total_floor,
    );
    let got = engine.posterior();
    assert_eq!(got, expected.as_slice());
    // The Eq. 4 exact-match branch: all mass split evenly across the
    // three zero-dissimilarity twins, nothing for the inexact tail.
    assert_eq!(got.len(), 4);
    for &(id, p) in got {
        if [l(2), l(4), l(5)].contains(&id) {
            assert!((p - 1.0 / 3.0).abs() <= 1e-15, "{id:?} got {p}");
        } else {
            assert_eq!(p, 0.0, "{id:?} must get no mass next to exact matches");
        }
    }
}

#[test]
fn eq7_fusion_matches_oracle_when_motion_is_untrained() {
    let db = tied_db();
    let rows = rows(&db);
    let config = MoLocConfig {
        k: 3,
        ..MoLocConfig::paper()
    };
    let mut engine = BatchLocalizer::new(&db, &MotionDb::new(8), config);
    let previous = [(l(1), 0.5), (l(2), 0.3), (l(3), 0.2)];
    let query = vec![-44.0, -53.0, -64.0, -73.0, -50.0, -59.0];
    let (direction, offset) = (123.0, 1.7);
    engine.restore_posterior(&previous, DegradationFlags::empty());
    engine
        .observe_slice(
            &query,
            Some(MotionMeasurement {
                direction_deg: direction,
                offset_m: offset,
            }),
        )
        .expect("query matches db");
    assert!(engine.last_flags().is_empty(), "{}", engine.last_flags());
    let expected = oracle::posterior_step(
        rows.iter().map(|(id, r)| (*id, r.as_slice())),
        &query,
        config.k,
        &previous,
        |from, to| {
            if from == to {
                oracle::stationary_probability(
                    offset,
                    config.alpha_deg,
                    config.beta_m,
                    config.stationary_offset_std_m,
                )
            } else {
                // Empty database: every moving pair sits at the floor.
                config.missing_pair_prob
            }
        },
        config.degenerate_total_floor,
    );
    let got = engine.posterior();
    assert_eq!(got.len(), expected.len());
    for (&(gi, gp), &(ei, ep)) in got.iter().zip(&expected) {
        assert_eq!(gi, ei);
        // The engine reads the stay mass from its tabulated kernel.
        assert!((gp - ep).abs() <= 1e-6, "{gi:?}: {gp} vs {ep}");
    }
}

#[test]
fn checkpoint_frames_are_byte_identical_to_the_oracle_framer() {
    for payload in [
        Vec::new(),
        vec![0u8],
        vec![0xFF; 7],
        (0..=255u8).collect::<Vec<u8>>(),
    ] {
        let session = moloc_session::checkpoint::frame_record(&payload);
        let oracled = oracle::frame_record(&payload);
        assert_eq!(
            session,
            oracled,
            "frame divergence for {}-byte payload",
            payload.len()
        );
        let (id, parsed, consumed) =
            oracle::parse_record(&session).expect("oracle parses session frame");
        assert_eq!(id, oracle::FRAME_VERSION);
        assert_eq!(parsed, payload);
        assert_eq!(consumed, session.len());
    }
}
