//! A columnar (structure-of-arrays) fingerprint index.
//!
//! [`FingerprintDb`] stores one heap-allocated [`Fingerprint`] per
//! location, so a scan over it chases a pointer per candidate.
//! [`FingerprintIndex`] flattens the database once into a dense
//! row-major `locations × APs` matrix and ranks candidates on
//! *squared* Euclidean distance (Eq. 1) — the square root is deferred
//! to the k survivors. It is the workspace's one k-NN path (Eq. 3).
//!
//! Ranking on squared Euclidean distance reproduces the exhaustive
//! reference `moloc_verify::oracle::k_nearest` exactly: the squared sum
//! is accumulated in slice order (see [`crate::metric::euclidean_sq`]),
//! `sqrt` is monotone, and ties break by lower location id in both
//! paths.

use crate::db::FingerprintDb;
use crate::fingerprint::Fingerprint;
use crate::knn::Neighbor;
use crate::metric::{euclidean_sq, masked_euclidean_sq};
use moloc_geometry::LocationId;
use std::cmp::Ordering;

/// One retained scan candidate: rank ascending, ties broken by lower
/// row position (rows are stored in location-id order, so position
/// order is id order).
#[derive(Debug, Clone, Copy)]
struct RankEntry {
    rank: f64,
    position: u32,
}

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankEntry {}

impl PartialOrd for RankEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank
            .partial_cmp(&other.rank)
            .expect("ranks are finite")
            .then_with(|| self.position.cmp(&other.position))
    }
}

/// Reusable k-NN selection state: a bounded candidate table whose
/// backing allocation survives across queries. After the first query at
/// a given `k`, selection performs no heap allocations.
#[derive(Debug, Default)]
pub struct KnnScratch {
    /// The best `≤ k` candidates seen so far, *unsorted* during the
    /// scan (replacement targets the current worst slot; keeping the
    /// table unsorted makes the common reject path a single float
    /// compare) and sorted once at the end.
    slots: Vec<RankEntry>,
}

impl KnnScratch {
    /// An empty scratch; capacity grows to `k` on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for queries with the given `k`.
    pub fn with_k(k: usize) -> Self {
        Self {
            slots: Vec::with_capacity(k),
        }
    }
}

/// Selects the `k` smallest ranks (ties to lower position) from a
/// position-ordered rank stream into `slots`, unsorted.
///
/// Once the table is full, a row can only displace a retained one when
/// its rank is *strictly* below the cached worst — equal ranks lose the
/// position tie-break to every retained entry — so the common reject
/// path is a single float compare. NaN ranks never pass that compare;
/// a NaN entering during the fill phase is caught by the caller's final
/// sort (`RankEntry`'s total order panics on NaN).
#[inline(always)]
fn select(mut ranks: impl Iterator<Item = f64>, k: usize, slots: &mut Vec<RankEntry>) {
    // Fill phase: the first `k` rows are all retained.
    let mut position = 0u32;
    for rank in ranks.by_ref().take(k) {
        slots.push(RankEntry { rank, position });
        position += 1;
    }
    if slots.len() < k {
        return;
    }
    // Steady state over a fixed-size table: `worst`/`worst_at` live in
    // registers and the table is only touched on (rare) replacements.
    let slots = slots.as_mut_slice();
    let mut worst_at = worst_slot(slots);
    let mut worst = slots[worst_at].rank;
    for rank in ranks {
        if rank < worst {
            slots[worst_at] = RankEntry { rank, position };
            worst_at = worst_slot(slots);
            worst = slots[worst_at].rank;
        }
        position += 1;
    }
}

/// Index of the worst slot under (rank ascending, position ascending) —
/// the replacement target once the table is full.
#[inline]
fn worst_slot(slots: &[RankEntry]) -> usize {
    let mut at = 0usize;
    for (i, e) in slots.iter().enumerate().skip(1) {
        let w = slots[at];
        if e.rank > w.rank || (e.rank == w.rank && e.position > w.position) {
            at = i;
        }
    }
    at
}

/// The flattened, cache-friendly view of a [`FingerprintDb`].
///
/// Rows are stored contiguously in location-id order.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::db::FingerprintDb;
/// use moloc_fingerprint::fingerprint::Fingerprint;
/// use moloc_fingerprint::index::FingerprintIndex;
/// use moloc_geometry::LocationId;
///
/// let db = FingerprintDb::from_fingerprints(vec![
///     (LocationId::new(1), Fingerprint::new(vec![-40.0, -70.0])),
///     (LocationId::new(2), Fingerprint::new(vec![-70.0, -40.0])),
/// ])?;
/// let index = FingerprintIndex::build(&db);
/// let query = Fingerprint::new(vec![-42.0, -69.0]);
/// assert_eq!(index.nearest(query.values()), LocationId::new(1));
/// # Ok::<(), moloc_fingerprint::db::DbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintIndex {
    ids: Vec<LocationId>,
    matrix: Vec<f64>,
    ap_count: usize,
}

impl FingerprintIndex {
    /// Flattens a database into the columnar layout. `O(locations ×
    /// APs)`, done once per scenario.
    pub fn build(db: &FingerprintDb) -> Self {
        let ap_count = db.ap_count();
        let mut ids = Vec::with_capacity(db.len());
        let mut matrix = Vec::with_capacity(db.len() * ap_count);
        for (id, fp) in db.iter() {
            ids.push(id);
            matrix.extend_from_slice(fp.values());
        }
        Self {
            ids,
            matrix,
            ap_count,
        }
    }

    /// Number of indexed locations.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty (never true when built from a
    /// [`FingerprintDb`], which rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of APs per fingerprint row.
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// Location ids in row order (ascending).
    pub fn ids(&self) -> &[LocationId] {
        &self.ids
    }

    /// The fingerprint row at `position`.
    pub fn row(&self, position: usize) -> &[f64] {
        &self.matrix[position * self.ap_count..(position + 1) * self.ap_count]
    }

    /// The row position of a location id, if indexed.
    pub fn position_of(&self, id: LocationId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The single nearest location by Euclidean distance, ties broken
    /// by lower id (the strict `<` keeps the earliest row, and rows are
    /// in id order).
    ///
    /// # Panics
    ///
    /// Panics if the query length does not match the index's AP count.
    pub fn nearest(&self, query: &[f64]) -> LocationId {
        self.check_query(query);
        let mut best = 0u32;
        let mut best_rank = f64::INFINITY;
        self.scan_rows(query, |position, rank| {
            if rank < best_rank {
                best = position;
                best_rank = rank;
            }
        });
        self.ids[best as usize]
    }

    /// The `k` nearest locations by Euclidean distance, ascending by
    /// dissimilarity with ties broken by lower id, written into `out`
    /// (cleared first). With a warm `scratch` and `out`, the scan
    /// performs zero heap allocations.
    ///
    /// Matches `moloc_verify::oracle::k_nearest` exactly (see the
    /// module docs for why the squared ranking preserves order).
    ///
    /// Selection keeps the best `k` candidates in an unsorted slot
    /// table with a cached worst rank: rows are visited in ascending
    /// position, so a later row can only displace a retained one when
    /// its rank is *strictly* smaller than the current worst (equal
    /// ranks lose the position tie-break) — the common reject is a
    /// single float compare with no data-dependent branch history.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, the query length does not match the
    /// index's AP count (same contract as the oracle),
    /// or a NaN rank lands among the retained `k` (ranks must be
    /// finite; a NaN outside the retained set is never selected).
    pub fn k_nearest_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        assert!(k > 0, "k must be positive");
        self.check_query(query);
        moloc_obs::counter_add_batch(&[
            ("fingerprint.knn.queries", 1),
            ("fingerprint.knn.candidates_scanned", self.len() as u64),
        ]);
        let slots = &mut scratch.slots;
        slots.clear();
        slots.reserve(k.min(self.len()));
        // Dispatch to a standalone monomorphic selection per row width:
        // keeping each unrolled scan in its own (deliberately
        // non-inlined) function avoids one seven-armed giant whose
        // register pressure slows every arm.
        match self.ap_count {
            4 => self.k_select::<4>(query, k, slots),
            5 => self.k_select::<5>(query, k, slots),
            6 => self.k_select::<6>(query, k, slots),
            7 => self.k_select::<7>(query, k, slots),
            8 => self.k_select::<8>(query, k, slots),
            _ => self.k_select_dyn(query, k, slots),
        }
        // One final sort of k entries replaces per-row ordering work;
        // `RankEntry`'s total order panics on NaN ranks here.
        slots.sort_unstable();
        out.clear();
        out.extend(slots.iter().map(|entry| Neighbor {
            location: self.ids[entry.position as usize],
            dissimilarity: entry.rank.sqrt(),
        }));
        moloc_verify::check_knn_ranks(
            "fingerprint.knn.ranks",
            out.iter().map(|n| (n.location, n.dissimilarity)),
        );
    }

    /// Masked k-NN for queries with missing (non-finite) APs: a
    /// dropped AP contributes nothing to any row's distance instead of
    /// turning every rank into NaN (which would panic the selection
    /// sort) or being misread as "RSS 0 dBm". Partial sums are rescaled
    /// by `ap_count / observed` so dissimilarities stay comparable to
    /// the full-width metric in expectation. Returns the number of
    /// observed (finite) query dimensions; zero means nothing was
    /// observable and every row ranked 0 — callers should treat the
    /// resulting candidates as an uninformative uniform prior.
    ///
    /// This is the degradation path: clean queries must keep using
    /// [`FingerprintIndex::k_nearest_into`], which is bit-identical to
    /// the legacy scan and considerably faster.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the query length does not match the
    /// index's AP count.
    pub fn k_nearest_masked_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> usize {
        assert!(k > 0, "k must be positive");
        self.check_query(query);
        moloc_obs::counter_add_batch(&[
            ("fingerprint.knn.masked_queries", 1),
            ("fingerprint.knn.candidates_scanned", self.len() as u64),
        ]);
        let observed = query.iter().filter(|v| v.is_finite()).count();
        let scale = if observed == 0 {
            0.0
        } else {
            self.ap_count as f64 / observed as f64
        };
        let slots = &mut scratch.slots;
        slots.clear();
        slots.reserve(k.min(self.len()));
        if self.ap_count == 0 {
            select((0..self.len()).map(|_| 0.0), k, slots);
        } else {
            select(
                self.matrix.chunks_exact(self.ap_count).map(|row| {
                    let (sum, _) = masked_euclidean_sq(query, row);
                    sum * scale
                }),
                k,
                slots,
            );
        }
        slots.sort_unstable();
        out.clear();
        out.extend(slots.iter().map(|entry| Neighbor {
            location: self.ids[entry.position as usize],
            dissimilarity: entry.rank.sqrt(),
        }));
        moloc_verify::check_knn_ranks(
            "fingerprint.knn.masked.ranks",
            out.iter().map(|n| (n.location, n.dissimilarity)),
        );
        observed
    }

    /// The single nearest location under the masked metric of
    /// [`FingerprintIndex::k_nearest_masked_into`], ties broken by
    /// lower id. With no observable dimension every row ranks 0 and
    /// the lowest id wins.
    ///
    /// # Panics
    ///
    /// Panics if the query length does not match the index's AP count.
    pub fn nearest_masked(&self, query: &[f64]) -> LocationId {
        self.check_query(query);
        if self.ap_count == 0 {
            return self.ids[0];
        }
        let mut best = 0usize;
        let mut best_rank = f64::INFINITY;
        for (position, row) in self.matrix.chunks_exact(self.ap_count).enumerate() {
            let (rank, _) = masked_euclidean_sq(query, row);
            if rank < best_rank {
                best = position;
                best_rank = rank;
            }
        }
        self.ids[best]
    }

    /// Convenience wrapper over [`FingerprintIndex::k_nearest_into`]
    /// with throwaway buffers.
    pub fn k_nearest(&self, query: &Fingerprint, k: usize) -> Vec<Neighbor> {
        let mut scratch = KnnScratch::with_k(k);
        let mut out = Vec::with_capacity(k);
        self.k_nearest_into(query.values(), k, &mut scratch, &mut out);
        out
    }

    /// The Euclidean dissimilarity of every row to `query`, in row
    /// order, written into `out` (cleared first). Used for full-state
    /// emission models (Viterbi) that need all distances anyway.
    ///
    /// # Panics
    ///
    /// Panics if the query length does not match the index's AP count.
    pub fn rank_all_into(&self, query: &[f64], out: &mut Vec<f64>) {
        self.check_query(query);
        out.clear();
        out.reserve(self.len());
        self.scan_rows(query, |_, rank| out.push(rank.sqrt()));
    }

    /// K-smallest selection over rows of compile-time width `N`.
    fn k_select<const N: usize>(&self, query: &[f64], k: usize, slots: &mut Vec<RankEntry>) {
        let query: &[f64; N] = query.try_into().expect("query length checked");
        select(
            self.matrix.chunks_exact(N).map(|row| {
                let row: &[f64; N] = row.try_into().expect("chunks are N wide");
                euclidean_sq(query, row)
            }),
            k,
            slots,
        );
    }

    /// K-smallest selection for uncommon row widths (and the zero-AP
    /// degenerate index, whose `len()` rows are all empty).
    fn k_select_dyn(&self, query: &[f64], k: usize, slots: &mut Vec<RankEntry>) {
        if self.ap_count == 0 {
            select((0..self.len()).map(|_| 0.0), k, slots);
        } else {
            select(
                self.matrix
                    .chunks_exact(self.ap_count)
                    .map(|row| euclidean_sq(query, row)),
                k,
                slots,
            );
        }
    }

    /// Applies `f(position, euclidean_sq(query, row))` to every row.
    ///
    /// Common AP counts dispatch to a const-width loop: with the row
    /// (and query) length known at compile time the distance loop fully
    /// unrolls, and the row iterator carries no per-row bounds checks —
    /// together roughly a 3x faster scan than indexing `row(position)`.
    /// The caller must have validated `query` via `check_query`.
    #[inline(always)]
    fn scan_rows(&self, query: &[f64], mut f: impl FnMut(u32, f64)) {
        match self.ap_count {
            // A zero-AP index still has `len()` (empty) rows.
            0 => (0..self.len()).for_each(|p| f(p as u32, 0.0)),
            4 => self.scan_rows_const::<4>(query, f),
            5 => self.scan_rows_const::<5>(query, f),
            6 => self.scan_rows_const::<6>(query, f),
            7 => self.scan_rows_const::<7>(query, f),
            8 => self.scan_rows_const::<8>(query, f),
            ap => self
                .matrix
                .chunks_exact(ap)
                .enumerate()
                .for_each(|(p, row)| f(p as u32, euclidean_sq(query, row))),
        }
    }

    /// [`FingerprintIndex::scan_rows`] monomorphized on the row width.
    #[inline(always)]
    fn scan_rows_const<const N: usize>(&self, query: &[f64], mut f: impl FnMut(u32, f64)) {
        let query: &[f64; N] = query.try_into().expect("query length checked");
        for (position, row) in self.matrix.chunks_exact(N).enumerate() {
            let row: &[f64; N] = row.try_into().expect("chunks are N wide");
            f(position as u32, euclidean_sq(query, row));
        }
    }

    fn check_query(&self, query: &[f64]) {
        assert_eq!(
            query.len(),
            self.ap_count,
            "query fingerprint length must match database"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_verify::oracle;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn db() -> FingerprintDb {
        FingerprintDb::from_fingerprints(vec![
            (l(7), Fingerprint::new(vec![-70.0, -40.0])),
            (l(1), Fingerprint::new(vec![-40.0, -70.0])),
            (l(3), Fingerprint::new(vec![-50.0, -60.0])),
        ])
        .unwrap()
    }

    #[test]
    fn layout_is_row_major_in_id_order() {
        let index = FingerprintIndex::build(&db());
        assert_eq!(index.len(), 3);
        assert_eq!(index.ap_count(), 2);
        assert_eq!(index.ids(), &[l(1), l(3), l(7)]);
        assert_eq!(index.row(0), &[-40.0, -70.0]);
        assert_eq!(index.row(2), &[-70.0, -40.0]);
        assert_eq!(index.position_of(l(3)), Some(1));
        assert_eq!(index.position_of(l(2)), None);
    }

    fn oracle_k_nearest(
        database: &FingerprintDb,
        q: &Fingerprint,
        k: usize,
    ) -> Vec<(LocationId, f64)> {
        oracle::k_nearest(
            database.iter().map(|(id, f)| (id, f.values())),
            q.values(),
            k,
        )
    }

    #[test]
    fn nearest_matches_the_oracle() {
        let database = db();
        let index = FingerprintIndex::build(&database);
        let q = Fingerprint::new(vec![-48.0, -61.0]);
        assert_eq!(
            index.nearest(q.values()),
            oracle_k_nearest(&database, &q, 1)[0].0
        );
    }

    #[test]
    fn k_nearest_matches_the_oracle_order_and_bits() {
        let database = db();
        let index = FingerprintIndex::build(&database);
        let q = Fingerprint::new(vec![-41.0, -69.0]);
        for k in 1..=4 {
            let expected = oracle_k_nearest(&database, &q, k);
            let fast = index.k_nearest(&q, k);
            assert_eq!(fast.len(), expected.len());
            for (a, &(id, m)) in fast.iter().zip(&expected) {
                assert_eq!(a.location, id);
                assert_eq!(a.dissimilarity.to_bits(), m.to_bits());
            }
        }
    }

    #[test]
    fn ties_broken_by_lower_id() {
        let tied = FingerprintDb::from_fingerprints(vec![
            (l(5), Fingerprint::new(vec![-40.0])),
            (l(2), Fingerprint::new(vec![-40.0])),
        ])
        .unwrap();
        let index = FingerprintIndex::build(&tied);
        let q = Fingerprint::new(vec![-40.0]);
        assert_eq!(index.nearest(q.values()), l(2));
        let nn = index.k_nearest(&q, 2);
        assert_eq!(nn[0].location, l(2));
        assert_eq!(nn[1].location, l(5));
    }

    #[test]
    fn scratch_reuse_is_stable_across_queries() {
        let index = FingerprintIndex::build(&db());
        let mut scratch = KnnScratch::with_k(2);
        let mut out = Vec::with_capacity(2);
        let q1 = Fingerprint::new(vec![-41.0, -69.0]);
        let q2 = Fingerprint::new(vec![-69.0, -41.0]);
        index.k_nearest_into(q1.values(), 2, &mut scratch, &mut out);
        let first: Vec<_> = out.clone();
        index.k_nearest_into(q2.values(), 2, &mut scratch, &mut out);
        assert_eq!(out[0].location, l(7));
        index.k_nearest_into(q1.values(), 2, &mut scratch, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn rank_all_matches_per_row_dissimilarity() {
        let database = db();
        let index = FingerprintIndex::build(&database);
        let q = Fingerprint::new(vec![-44.0, -66.0]);
        let mut out = Vec::new();
        index.rank_all_into(q.values(), &mut out);
        assert_eq!(out.len(), 3);
        for (position, (_, fp)) in database.iter().enumerate() {
            assert_eq!(
                out[position].to_bits(),
                oracle::euclidean(q.values(), fp.values()).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let index = FingerprintIndex::build(&db());
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        index.k_nearest_into(&[-40.0, -70.0], 0, &mut scratch, &mut out);
    }

    #[test]
    #[should_panic(expected = "match database")]
    fn wrong_query_length_panics() {
        let index = FingerprintIndex::build(&db());
        index.nearest(&[-40.0]);
    }
}
